(** Per-node write-ahead log with forced / non-forced semantics.

    Semantics follow Section 2 of the paper:

    - a {e non-forced} write appends the record to a volatile buffer; it
      becomes durable when a later force happens (or is lost in a crash);
    - a {e forced} write appends the record and suspends the caller (the
      continuation is invoked only once the record - and every earlier
      buffered record - is on stable storage).

    Group commit (Section 4, "Group Commits") is a property of the log
    manager: force requests are batched until either [size] requests are
    pending or [timeout] virtual seconds elapse, and one physical I/O then
    hardens the whole batch.

    Statistics distinguish {e forced writes} (records written with force
    semantics - the quantity in the paper's Tables 2 and 3) from {e physical
    force I/Os} (the quantity group commit reduces). *)

type t

type group = { size : int; timeout : float }

type config = {
  io_latency : float;  (** virtual time for one physical force I/O *)
  group : group option;
}

type stats = {
  writes : int;         (** records appended, forced or not *)
  forced_writes : int;  (** records appended with force semantics *)
  force_ios : int;      (** physical force I/O operations performed *)
}

val default_config : config
(** [{ io_latency = 0.5; group = None }]. *)

val create : Simkernel.Engine.t -> node:string -> ?config:config -> unit -> t

val node : t -> string
val config : t -> config

val append : t -> Log_record.t -> unit
(** Non-forced write. *)

val force : t -> Log_record.t -> (unit -> unit) -> unit
(** Forced write; the continuation runs when the record is durable. *)

val flush : t -> (unit -> unit) -> unit
(** Force the current buffer contents without appending a record (used by the
    shared-log optimization tests); counts one physical I/O if anything was
    volatile. *)

val compact : t -> keep:(Log_record.t -> bool) -> int
(** Drop durable records for which [keep] is false (checkpoint-driven log
    truncation).  Only already-durable records are considered; the volatile
    tail is untouched.  Returns the number of records dropped. *)

val crash : t -> unit
(** Lose the volatile buffer and drop pending force continuations (their
    callers are dead). *)

val durable : t -> Log_record.t list
(** Records on stable storage, oldest first: what recovery sees. *)

val all_records : t -> Log_record.t list
(** Durable plus still-volatile records, oldest first. *)

val iter : t -> (Log_record.t -> unit) -> unit
(** [List.iter f (all_records t)] straight over the record arena, building
    no list.  [f] must not write to the log. *)

val stats : t -> stats
val reset_stats : t -> unit

val records_for : t -> txn:string -> Log_record.t list
(** Durable records of one transaction, oldest first. *)
