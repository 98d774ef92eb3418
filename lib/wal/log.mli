(** Per-node write-ahead log with forced / non-forced semantics.

    Semantics follow Section 2 of the paper:

    - a {e non-forced} write appends the record to a volatile buffer; it
      becomes durable when a later force happens (or is lost in a crash);
    - a {e forced} write appends the record and suspends the caller: the
      caller resumes only once the record - and every earlier buffered
      record - is on stable storage.

    Group commit (Section 4, "Group Commits") is a property of the log
    manager: force requests are batched until either [size] requests are
    pending or [timeout] virtual seconds elapse, and one physical I/O then
    hardens the whole batch.

    Statistics distinguish {e forced writes} (records written with force
    semantics - the quantity in the paper's Tables 2 and 3) from {e physical
    force I/Os} (the quantity group commit reduces).

    {b Row layout.}  The log keeps each record as a 12-byte row with no
    pointer in it: the transaction's id (32 bits), a code (16 bits: the
    record kind's {!Log_record.code} and the writer's id), the payload's
    length (16 bits) and its address (32 bits) in the log's payload
    arena.  Rows come in chunks of 4,096 and payload bytes in chunks of
    64 KiB; only the first chunk of each grows, from small, so a log
    that holds a few hundred records stays a few kilobytes, and growth
    past it allocates a chunk and copies nothing.  A payload of 64 KiB
    or more is kept whole, as its own string.  Writers (the node's
    transaction manager, its resource manager, and any member sharing
    the log) are interned in a small table of the log's own.

    {b Resuming.}  A forced write's caller waits as data, not as a
    closure.  {!force_row} takes an int {e token}; once the record is
    durable the log hands the token to the resume handler the record's
    writer registered ({!on_durable}), in the order the forces were
    issued.  {!force} and {!flush} wrap that path for callers that hold
    a closure: the closure waits in the same chain and runs in its
    turn.  A crash drops every waiter whose I/O had not completed.

    {b Cost.}  {!append_row}, {!append_payload} and {!force_row} take
    ids the caller already holds: a write is a few plain stores and a
    payload copy, hashes nothing and allocates nothing beyond a new
    chunk; a force also schedules its I/O and takes a waiter from an
    arena that starts empty and doubles.  {!append} and {!force} take
    a {!Log_record.t} and intern its two names first: the entry points
    for tests, the store's forced paths and tools.  The row readers ({!rows},
    {!row_txn}, {!row_kind}, ...) allocate nothing, except {!row_payload},
    which copies the slice; recovery, the audits and the participant's
    log scans read rows this way.  {!durable}, {!all_records} and
    {!records_for} rebuild records, one allocation each, for the CLI,
    the tests and reports.

    {b Id lifetime.}  A row keeps its transaction as an id in the
    engine's name table ({!Simkernel.Engine.ids}), which
    {!Simkernel.Engine.reset} clears.  A log's rows therefore name their
    transactions only until the engine is reset: a world built on a
    recycled engine builds fresh logs ([Run.setup] does), and no log is
    read across a reset. *)

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
(** An empty log; it allocates no row and no payload byte until the
    first write. *)

val node : t -> string
val config : t -> config

(** {2 Writing by id} *)

val writer : t -> string -> int
(** The id of a writer name in this log's table, interning it on first
    sight (pointer comparison first, then string equality).  A log takes
    up to 4,096 writers. *)

val append_row : t -> txn:int -> writer:int -> Log_record.kind -> unit
(** Non-forced write of a record without payload.  [txn] is an id in
    the engine's name table, [writer] one from {!writer}. *)

val append_payload :
  t -> txn:int -> writer:int -> Log_record.kind -> Bytes.t -> int -> unit
(** [append_payload t ~txn ~writer kind b n]: non-forced write whose
    payload is a copy of the first [n] bytes of [b]. *)

val force_row : t -> txn:int -> writer:int -> Log_record.kind -> int -> unit
(** [force_row t ~txn ~writer kind token]: forced write of a record
    without payload.  When the record is durable the log calls
    [writer]'s resume handler with [token]; a crash before then drops
    it. *)

val on_durable : t -> writer:int -> (int -> unit) -> unit
(** Register [writer]'s resume handler, once: it receives the token of
    each of [writer]'s forces as its record becomes durable.  A writer
    that registers none has its tokens dropped.  Raises
    [Invalid_argument] for an id {!writer} never gave out. *)

(** {2 Writing records} *)

val append : t -> Log_record.t -> unit
(** Non-forced write.  Interns the record's transaction in the engine's
    name table and its node in the writer table. *)

val force : t -> Log_record.t -> (unit -> unit) -> unit
(** Forced write; the continuation runs when the record is durable, in
    turn with the tokens of {!force_row}. *)

val flush : t -> (unit -> unit) -> unit
(** Force the current buffer contents without appending a record (used by the
    shared-log optimization tests); counts one physical I/O if anything was
    volatile, and runs the continuation at once if nothing was. *)

val compact : t -> keep:(Log_record.t -> bool) -> int
(** Drop durable records for which [keep] is false (checkpoint-driven log
    truncation).  Only already-durable records are considered; the volatile
    tail is untouched.  Returns the number of records dropped.  Forces in
    flight and batched keep their marks: a force issued before the
    compaction hardens exactly the records it covered, and none written
    after it. *)

val compact_rows : t -> keep:(int -> bool) -> int
(** {!compact} by row: [keep i] is asked of each durable row [i], in
    order, before the log changes, so it may read any row. *)

val crash : t -> unit
(** Lose the volatile buffer and drop every pending waiter, token or
    closure (their callers are dead). *)

(** {2 Reading rows}

    Rows are numbered in log order, oldest first: [0 .. rows t - 1], of
    which [0 .. durable_rows t - 1] are on stable storage.  A write, a
    crash or a compaction renumbers nothing but the rows it adds or
    drops. *)

val rows : t -> int
(** Durable plus still-volatile rows. *)

val durable_rows : t -> int

val row_txn : t -> int -> int
(** The row's transaction id in the engine's name table. *)

val row_writer : t -> int -> int
(** The row's writer id in this log's table. *)

val row_kind : t -> int -> Log_record.kind

val row_payload : t -> int -> string
(** A copy of the row's payload ([""] when it has none). *)

val row_payload_length : t -> int -> int

val row_payload_bytes : t -> int -> Bytes.t
(** The bytes holding the row's payload, from {!row_payload_offset} for
    {!row_payload_length} bytes: a view to decode in place, not to write
    or keep. *)

val row_payload_offset : t -> int -> int

val txn_name : t -> int -> string
(** The name of a transaction id ({!Simkernel.Ids.name} of the engine's
    table). *)

val writer_name : t -> int -> string

(** {2 Records} *)

val durable : t -> Log_record.t list
(** Records on stable storage, oldest first: what recovery sees. *)

val all_records : t -> Log_record.t list
(** Durable plus still-volatile records, oldest first. *)

val records_for : t -> txn:string -> Log_record.t list
(** Durable records of one transaction, oldest first. *)

val stats : t -> stats
val reset_stats : t -> unit
