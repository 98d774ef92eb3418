(** One packed log of protocol events per simulation world.

    Every protocol event a world records is written here once, as a row,
    and the two views read the same rows: the event trace
    ([Tpc.Trace]: the paper's counts, the text trace, sequence diagrams,
    Perfetto and JSONL) and the causal graph ({!Causal}: [explain]'s
    narratives and critical paths).  A row carries two membership bits,
    one per view, set from the modes in force when it is written, so a
    send recorded with both views on is one row read twice.  A row keeps
    no cause: the graph view works a transaction's causes out from its
    rows when a query reads it.

    {b Row layout.}  Rows are kept in chunks of 4,096.  A row is a time,
    in an unboxed [float array], and five 32-bit ints in a [Bytes]: a
    transaction id, a member id, a peer id, a code packing the {!kind},
    the two membership bits and the kind's flags (outcome, forced,
    pending, log-record kind, wait class, ...), and a label id.  That is
    28 bytes per row and no pointer: a write is a plain store, not a
    [caml_modify], and the GC scans neither block.
    Transaction ids are the engine's ({!Simkernel.Engine.ids}); members
    and labels are interned in tables of the log's own.

    {b Cost per row.}  A writer passes ids and codes it already holds:
    {!emit} hashes no name, builds no string and allocates nothing beyond
    a new chunk every 4,096 rows, in either view.  A bundle label is
    interned once per distinct {!coded_label} code, a member name once
    per member (later lookups compare pointers first); a {!text} is
    stored, not hashed.  The string entry points ({!Causal.record},
    [Trace.record]) intern every name they are given.  {!create}
    allocates no row and no table: storage appears with the first row or
    name, so a log whose views stay off is one small record. *)

(** What a row records.  The first block is what the trace shows (and
    the graph too, except [Damage], [Crash], [Restart] and [Note]); the
    second block is the graph's alone. *)
type kind =
  | Send  (** [who] sends to [peer]; flag {!protocol} *)
  | Deliver  (** [who] receives from [peer] *)
  | Log_write  (** flags {!forced}, {!rm}, {!shared}, {!record} *)
  | Decide  (** flags {!abort}, {!adopted} *)
  | Complete  (** flags {!abort}, {!pending} *)
  | Heuristic  (** flags {!abort} (the action), {!injected} *)
  | Released  (** [who] releases its locks *)
  | Damage  (** damage at [who] reported to [peer] (-1: report lost) *)
  | Crash
  | Restart
  | Note  (** free text, the label *)
  | Durable  (** a forced record reached the disk; flag {!record} *)
  | Text  (** free text with its {!seg} *)
  | Vote_retry
  | Presume_no
  | Delegation_retry
  | Ack_overdue  (** retransmitting the decision to [peer] *)
  | Indoubt_tick
  | Arrival
  | Commit_requested
  | Lock_granted  (** label: the key; [peer]: the member; {!seg} *)
  | Unsolicited  (** linked to [peer]'s chain *)
  | Notified  (** flags {!abort}, {!timed_out} *)

type t

val create : ?engine:Simkernel.Engine.t -> unit -> t
(** An empty log with both views off.  With [engine], transaction ids
    are the engine's and {!emit} stamps rows with its clock, so the
    log's transaction names last only until {!Simkernel.Engine.reset}
    recycles the engine; without, the log keeps its own id table and its
    rows need an explicit time ({!emit_at}). *)

val engine : t -> Simkernel.Engine.t option

(** {2 Views} *)

val tracing : t -> bool
(** Rows written now join the trace view. *)

val set_tracing : t -> bool -> unit

val graphing : t -> bool
(** Rows written now join the graph view. *)

val set_graphing : t -> bool -> unit

val recording : t -> bool
(** Either view is on: a writer that must build a label first tests
    this. *)

(** {2 Names} *)

val txn : t -> string -> int
(** The id of a transaction name in the log's table (the engine's,
    when it has one), interning it on first sight. *)

val find_txn : t -> string -> int
(** Like {!txn}, but [-1] for a name never interned, or for any name
    while the log holds no row and no name. *)

val txn_name : t -> int -> string

val member : t -> string -> int
(** The id of a member name, interning it on first sight.  The first 16
    members are found by pointer comparison before any hashing, so a
    writer passing the strings it interned never hashes again. *)

val find_member : t -> string -> int
val member_name : t -> int -> string

val label : t -> string -> int
(** The id of a label or free text, interning it on first sight. *)

val coded_label : t -> int -> ('a -> string) -> 'a -> int
(** [coded_label t code build x] is the id of the label [build x], which
    [code] stands for: each distinct non-negative [code] builds and
    interns its label once, then answers from an int-keyed table.  A
    negative [code] builds and interns every time.  [build] should be a
    closed function so the call allocates nothing. *)

val text : t -> string -> int
(** The id of a text that no query compares (a note, a lock's key): each
    call stores the string and answers a fresh id, hashing nothing. *)

val label_name : t -> int -> string
(** Of a {!label}, {!coded_label} or {!text} id. *)

(** {2 Writing} *)

(** Flags, OR-ed into a row's [flags].  Which apply depends on the
    kind. *)

val protocol : int
val forced : int
val rm : int
val shared : int
val abort : int
val pending : int
val adopted : int
val injected : int
val timed_out : int

val terminal : int
(** Marks a graph row as its transaction's end point. *)

val record : Wal.Log_record.kind -> int
(** The log-record kind of a [Log_write] or [Durable] row. *)

val seg : int -> int
(** The wait class (0 compute, 1 log-wait, 2 msg-wait, 3 lock-wait,
    4 in-doubt) of a [Text] or [Lock_granted] row. *)

val emit :
  t -> kind -> txn:int -> who:int -> peer:int -> label:int -> flags:int -> unit
(** Append one row at the engine's current time, in every view that is
    on and shows [kind].  A row joins the graph only with a transaction
    ([txn >= 0]).  Ids are [-1] when absent. *)

val emit_at :
  t ->
  views:int ->
  kind ->
  time:float ->
  txn:int ->
  who:int ->
  peer:int ->
  label:int ->
  flags:int ->
  unit
(** {!emit} at an explicit time and restricted to [views]: the
    string entry points' writer. *)

val trace_view : int
val graph_view : int

(** {2 Reading} *)

type row = {
  time : float;
  txn_id : int;
  who : int;
  peer : int;
  kind : kind;
  flags : int;  (** test with [land] *)
  label_id : int;
  in_trace : bool;
  in_graph : bool;
}

val rows : t -> int
(** Rows written so far; rows are [0 .. rows t - 1], in write order. *)

val row : t -> int -> row

val graph_txn : t -> int -> int
(** The transaction of a graph row, or [-1] for a row outside the graph;
    allocates nothing. *)

val record_kind : row -> Wal.Log_record.kind
(** Of a [Log_write] or [Durable] row. *)

val seg_of : row -> int
val graph_rows : t -> int

val members : t -> int
(** Member ids assigned so far; they are [0 .. members t - 1]. *)
