(** Log record vocabulary for the transaction managers and resource managers.

    The record kinds follow the paper's Figures 1-3 and 8: [Commit_pending]
    is PN's extra coordinator record; [Agent] is PN's subordinate-side
    obligation record (the paper's Table 2 charges the PN subordinate four
    writes, three forced); [Rm_*] records belong to local resource managers
    (undo/redo payloads for the key-value store). *)

type kind =
  | Commit_pending  (** PN coordinator, forced before any Prepare is sent *)
  | Prepared        (** subordinate vote YES durability point *)
  | Committed
  | Aborted
  | End             (** outcome forgotten; never forced *)
  | Agent           (** PN subordinate ack-obligation record *)
  | Heuristic_commit
  | Heuristic_abort
  | Rm_update       (** resource-manager undo/redo payload *)
  | Rm_prepared
  | Rm_committed
  | Rm_aborted
  | Checkpoint      (** resource-manager store snapshot; bounds recovery *)
  | Certificate
      (** BFT decision certificate (serialized endorsement quorum); appended
          just before the outcome force so both harden together *)

type t = {
  txn : string;        (** transaction identifier *)
  node : string;       (** writing node *)
  kind : kind;
  payload : string;    (** opaque payload (RM undo/redo data, participant lists) *)
}

val make : txn:string -> node:string -> ?payload:string -> kind -> t

val code : kind -> int
(** A dense code for a kind, [0 .. codes - 1], in constructor order: the
    one table by which {!Log} packs a kind into a row and
    [Obs.Events] into an event's flags. *)

val of_code : int -> kind
(** [of_code (code k) = k]. *)

val codes : int
(** The number of kinds. *)

val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit

val is_tm_kind : kind -> bool
(** True for the kinds a transaction manager writes (not [Rm_*] or
    [Checkpoint]). *)

val is_tm_record : t -> bool
(** [is_tm_kind t.kind]. *)
