(** Lock manager: shared/exclusive locks with FIFO wait queues, wait-for-graph
    deadlock detection, and hold-time statistics.

    The paper's third evaluation axis is {e resource lock time}: how long an
    optimization keeps locks held at each participant.  The lock manager
    timestamps acquisition and release on the virtual clock so runs can
    report exact lock hold times per transaction.

    Callers name transactions by string; inside, each name becomes its id
    in the engine's name table ({!Simkernel.Engine.ids}), and grants, wait
    queues and the transaction-to-keys table are keyed by that id.  The
    lock table itself stays keyed by key.  Released hold time is a
    finished fact, kept in a flat array indexed by id. *)

type mode = Shared | Exclusive

type t

type hold_stats = {
  acquisitions : int;
  total_hold_time : float;  (** sum over released locks of (release - grant) *)
  max_hold_time : float;
}

val create : Simkernel.Engine.t -> t
(** A lock table drawing transaction ids from the engine's name table. *)

val try_acquire : t -> txn:string -> key:string -> mode -> bool
(** Immediate attempt; never queues.  Re-acquiring a held lock (same or
    weaker mode) succeeds; an upgrade from [Shared] to [Exclusive] succeeds
    only if [txn] is the sole holder. *)

val acquire : t -> txn:string -> key:string -> mode -> granted:(unit -> unit) -> unit
(** Queueing acquire: [granted] fires immediately if the lock is free for
    [txn], otherwise when earlier holders release.  Queue order is FIFO. *)

val release_all : t -> txn:string -> unit
(** Release every lock held by [txn] (commit/abort time), waking compatible
    waiters in FIFO order. *)

val holding_txns : t -> string list
(** Sorted list of transactions currently holding at least one grant.
    Used by the chaos harness's leaked-lock audit. *)

val holds_any : t -> txn:string -> bool
(** [List.mem txn (holding_txns t)] in O(1), building nothing. *)

val clear : t -> unit
(** Crash reclamation: drop every grant, every queued request and every
    txn->keys binding {e without} firing [granted] continuations — the
    waiters' closures died with the node's volatile state.  Cumulative
    hold-time statistics are kept. *)

val holds : t -> txn:string -> key:string -> mode option

val holders : t -> key:string -> (string * mode) list

val waiting : t -> int
(** Number of queued (ungranted) requests. *)

val wait_for_cycles : t -> string list list
(** Cycles in the wait-for graph (each cycle as a list of transaction ids);
    empty when no deadlock exists. *)

val stats : t -> hold_stats
val txn_lock_time : t -> txn:string -> float
(** Total hold time accumulated by a transaction's released locks. *)

val reset_stats : t -> unit
