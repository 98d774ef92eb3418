(** Key-value local resource manager (LRM).

    Plays the role the paper assigns to "local resource managers, such as
    database and file managers": it owns data, takes locks, writes undo/redo
    information to a write-ahead log, and answers Prepare / Commit / Abort
    from its transaction manager.  It supports the LRM-side properties the
    optimizations depend on: read-only detection (no updates performed)
    and non-forced logging when sharing the TM's log.

    Crash/recovery: [crash] wipes volatile state (committed cache and write
    sets); [recover] rebuilds from the durable log - committed transactions
    are redone, transactions with a durable [Rm_prepared] but no outcome
    record become {e in-doubt} and await their TM's instruction.

    Callers name transactions by string.  Inside, write sets and the
    transactions a crash cost their work are keyed by the name's id in the
    engine's name table ({!Simkernel.Engine.ids}), and the store writes its
    records into the log by that id and its own writer id
    ({!Wal.Log.append_row}), encoding an undo/redo payload into a reused
    buffer the log copies from.  Recovery and {!replay_bindings} read the
    log's rows and decode payloads in place; the committed store
    stays keyed by key, and iterates in the order a generic [Hashtbl]
    would, so checkpoint payloads are unchanged. *)

type t

type vote = Vote_yes | Vote_read_only | Vote_no

val create : Simkernel.Engine.t -> name:string -> wal:Wal.Log.t -> unit -> t
(** Each store has a private lock table in which a lock is named by its
    key; both draw transaction ids from [engine]'s name table. *)

val name : t -> string
val wal : t -> Wal.Log.t
val locks : t -> Lockmgr.t

(** {2 Transaction-time operations} *)

val get : t -> txn:string -> string -> string option
(** Read under a shared lock; sees the transaction's own uncommitted writes.
    Returns [None] also when the lock is unavailable - use [can_lock] to
    distinguish. *)

val put : t -> txn:string -> key:string -> value:string -> bool
(** Write under an exclusive lock, logging an undo/redo record (non-forced;
    durability comes from the prepare force).  [false] if the lock is held
    by another transaction. *)

val delete : t -> txn:string -> key:string -> bool

val put_async :
  t -> txn:string -> key:string -> value:string -> granted:(unit -> unit) -> unit
(** Queued write: waits (FIFO) for the exclusive lock instead of failing.
    [granted] fires once the lock is held and the write is buffered -
    possibly immediately.  Used by contention experiments where a
    transaction must block behind the commit protocol's lock release. *)

val get_async :
  t -> txn:string -> key:string -> granted:(string option -> unit) -> unit
(** Queued read: waits (FIFO) for the shared lock instead of failing.
    [granted] fires with the visible value once the lock is held - possibly
    immediately. *)

val can_lock : t -> txn:string -> key:string -> Lockmgr.mode -> bool

val is_updated : t -> txn:string -> bool
(** Has this transaction performed any update here?  (Read-only detection.) *)

(** {2 Commit protocol entry points} *)

val prepare : t -> txn:string -> force:bool -> (vote -> unit) -> unit
(** Vote.  A transaction with no updates votes [Vote_read_only] immediately
    (no log write) and releases its read locks.  Otherwise an [Rm_prepared]
    record is written ([force:false] = shared-log optimization: the record is
    buffered and hardens with the TM's next force) and the vote is
    [Vote_yes].  Exception: a transaction whose unprepared write set was
    wiped by a crash (see {!recover}) votes [Vote_no], never read-only -
    "no updates in memory" means "work lost" for it. *)

val prepare_buffered : t -> txn:string -> vote
(** [prepare ~force:false], answering the vote at once instead of
    passing it on: the commit path's form, which takes no closure. *)

val commit : t -> txn:string -> force:bool -> (unit -> unit) -> unit
(** Apply the write set, write [Rm_committed] (forced or not), release
    locks. *)

val commit_buffered : t -> txn:string -> unit
(** [commit ~force:false] without a continuation: everything is done
    when it returns. *)

val abort : t -> txn:string -> (unit -> unit) -> unit
(** Discard the write set, write a non-forced [Rm_aborted], release locks. *)

val abandon : t -> txn:string -> (unit -> unit) -> unit
(** Unilateral branch abort for a transaction that was never asked to
    vote (its coordinator died or was cut off before sending Prepare):
    {!abort}, plus the transaction is remembered so a straggling Prepare
    draws [Vote_no].  Before the vote an RM is always free to abort - the
    paper's Section 2 ground rule this leans on. *)

(** {2 Introspection, crash, recovery} *)

val committed_value : t -> string -> string option
(** The committed (post-crash-visible) value of a key. *)

val committed_bindings : t -> (string * string) list
(** All committed key/value pairs, sorted by key. *)

val iter_committed : t -> (string -> string -> unit) -> unit
(** [f key value] for every committed pair, in no particular order,
    building nothing. *)

val in_doubt : t -> string list
(** Transactions prepared here with no durable outcome (post-[recover]). *)

val is_in_doubt : t -> txn:string -> bool
(** [List.mem txn (in_doubt t)], building nothing; constant time while no
    transaction is in doubt here, i.e. outside crash-recovery windows. *)

val crash : t -> unit
(** Wipe volatile state: committed cache, write sets, in-doubt list, and the
    lock table (crash reclaims every grant; queued waiters are dropped
    without being woken). *)

val recover : t -> unit
(** Rebuild from the durable log.  Committed transactions are redone;
    prepared-but-undecided transactions become in-doubt with their write
    sets retained and their exclusive locks re-acquired, so post-restart
    work blocks behind them exactly as the paper's in-doubt window
    requires.  Transactions with durable updates but no prepare record lost
    their write set in the crash: they are remembered so a late
    (retransmitted) Prepare draws [Vote_no] instead of a bogus read-only
    vote. *)

val replay_bindings : Wal.Log.t -> node:string -> (string * string) list
(** Pure replay: the committed key/value pairs (sorted) that the log's
    records, durable and volatile, imply for resource manager [node],
    using the same checkpoint/redo/discard rules as {!recover}.  It reads
    the log's rows and decodes payloads in place.  The chaos audit
    compares this against {!committed_bindings} to catch recoveries that
    diverge from their own log. *)

val checkpoint : t -> (unit -> unit) -> unit
(** Write a forced checkpoint record carrying a snapshot of the committed
    store, then compact the log: records older than the checkpoint are
    dropped except those belonging to still-active (in-flight or in-doubt)
    transactions.  [recover] starts from the most recent durable
    checkpoint, bounding recovery work and log growth. *)
