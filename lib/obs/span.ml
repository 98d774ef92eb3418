(** A named interval on one node's timeline.

    Spans are the exportable unit of the telemetry subsystem: phase spans
    derived from a protocol trace, with parent links mirroring the commit
    tree.  The type lives here (below the protocol layer) so both the
    deriving side ([Tpc.Telemetry]) and generic sinks can share it; times
    are in simulation units, conversion to Perfetto microseconds happens
    at export. *)

type t = {
  sp_name : string;  (** phase name, e.g. ["voting"] *)
  sp_cat : string;  (** category, e.g. ["2pc"] *)
  sp_node : string;  (** the node (rendered as one track/thread) *)
  sp_start : float;  (** simulation time *)
  sp_dur : float;  (** simulation time units; 0 for instantaneous *)
  sp_parent : string option;  (** parent node in the commit tree *)
  sp_args : (string * string) list;  (** extra key/value annotations *)
}

let make ?(cat = "2pc") ?parent ?(args = []) ~node ~start ~stop name =
  {
    sp_name = name;
    sp_cat = cat;
    sp_node = node;
    sp_start = start;
    sp_dur = Float.max 0.0 (stop -. start);
    sp_parent = parent;
    sp_args = args;
  }

let stop t = t.sp_start +. t.sp_dur

let to_string t =
  Printf.sprintf "%s/%s [%.2f, %.2f]%s" t.sp_node t.sp_name t.sp_start (stop t)
    (match t.sp_parent with None -> "" | Some p -> " parent=" ^ p)
