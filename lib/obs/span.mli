(** A named interval on one node's timeline — the exportable unit of the
    telemetry subsystem.  Times are in simulation units; conversion to
    Perfetto microseconds happens at export ([Tpc.Telemetry]). *)

type t = {
  sp_name : string;  (** phase name, e.g. ["voting"] *)
  sp_cat : string;  (** category, e.g. ["2pc"] *)
  sp_node : string;  (** the node (rendered as one track/thread) *)
  sp_start : float;  (** simulation time *)
  sp_dur : float;  (** simulation time units; 0 for instantaneous *)
  sp_parent : string option;  (** parent node in the commit tree *)
  sp_args : (string * string) list;  (** extra key/value annotations *)
}

val make :
  ?cat:string ->
  ?parent:string ->
  ?args:(string * string) list ->
  node:string ->
  start:float ->
  stop:float ->
  string ->
  t
(** [make ~node ~start ~stop name]; a [stop] before [start] clamps the
    duration to zero. *)

val stop : t -> float
val to_string : t -> string
