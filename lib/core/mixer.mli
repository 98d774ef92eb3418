(** Concurrent multi-transaction throughput engine.

    Where {!Run.commit_sequence} runs transactions strictly one at a time,
    the mixer drives N {e overlapping} transactions through one
    {!Run.world} as an open-loop arrival process on the shared event
    engine.  That makes the phenomena the paper argues about in Section 4
    actually visible: group commit batches force I/Os {e across}
    concurrent transactions, long-locks and implied acknowledgments
    piggyback on genuinely-next transactions
    ({!Participant.flush_piggybacks}), and a contended keyspace produces
    real {!Lockmgr} queue waits and timeout aborts.

    Everything is deterministic: arrivals and work plans come from a
    {!Simkernel.Det_rng} seeded from [cfg.seed], so the same
    configuration always yields bit-identical aggregates. *)

type op = Op_update of { key : string } | Op_read of { key : string }
type item = { it_node : string; it_op : op }

type cfg = {
  concurrency : int;  (** open-loop arrival-rate multiplier *)
  txns : int;  (** transactions to submit *)
  keyspace : int;  (** keys per member: smaller = more contention *)
  update_prob : float;  (** per member: P(update one key) *)
  read_prob : float;  (** per member: P(read one key); rest = idle *)
  base_interarrival : float;
      (** mean inter-arrival at concurrency 1; the effective mean is
          [base_interarrival /. concurrency] *)
  lock_timeout : float;  (** give up waiting for locks after this long *)
  seed : int;
}

val default_cfg : cfg
(** concurrency 1, 100 txns, keyspace 8, 60% update / 25% read,
    base inter-arrival 30.0, lock timeout 120.0, seed 1. *)

(** The driver's view of one transaction at quiescence, for external
    audits (the chaos harness's fault-aware acceptance check). *)
type txn_summary = {
  ts_txn : string;
  ts_items : item list;
  ts_outcome : Types.outcome option;
      (** what the root reported; [None] when faults silenced it *)
  ts_commit_started : bool;
  ts_timed_out : bool;
  ts_arrival : float;
  ts_completed : float option;
      (** when the driver learned the outcome; [None] = never resolved *)
}

val txn_value : string -> string
(** The value transaction [txn] writes under every key it updates. *)

val value_owner : string -> string option
(** Inverse of {!txn_value}: which transaction wrote this value. *)

(** Fault-aware end-of-run atomicity/consistency audit.  Ground truth per
    transaction is the root's report when present, else the durable commit
    evidence in the logs; a member is excused from the committed-everywhere
    obligation only while down or legitimately in doubt.  On a fault-free
    run this reduces exactly to the strict audit the mixer always ran.

    The audit makes one pass over each physical log's rows
    ({!Wal.Log.row_kind}, ...) and keeps its evidence in arrays indexed
    by transaction id ({!Simkernel.Engine.ids}): whether any record
    commits each transaction, whether any aborts it, whether strong
    evidence does, and which resource managers (by {!Kvstore.name})
    applied it.  It rebuilds no record, and the bad-value check walks
    each committed store directly.  [scan] names a summarized
    transaction that no layer named, so every summary has an id.  The
    same evidence feeds the chaos harness's verdict and damage accounting
    and [tpc_sim crash].  The logs are read again only when the pass
    found a heuristic record, so a run without one allocates no more. *)
module Audit : sig
  type breakdown = {
    committed_missing : int;
        (** committed txn not applied at an up, not-in-doubt updated member *)
    aborted_applied : int;
        (** aborted/undecided txn durably applied, or its value visible *)
    bad_value : int;
        (** committed binding not owned by a committed writer of that key *)
  }

  val total : breakdown -> int

  type evidence
  (** The per-transaction evidence of one pass over every physical log. *)

  val scan : Run.world -> txn_summary list -> evidence

  val check : evidence -> breakdown

  val divergence : evidence -> int
  (** Transactions that some record commits and some record aborts
      (heuristic records included). *)

  val breakdown : Run.world -> txn_summary list -> breakdown
  (** [check (scan w summaries)]. *)

  val txns : evidence -> int
  (** Transaction ids run from 0 to [txns ev - 1]. *)

  val strong : evidence -> int -> Types.outcome -> bool
  (** Whether strong evidence gives the transaction this outcome: a TM
      outcome record, or a store's whose member logged no heuristic with
      that action for it, wherever either sits in its log. *)

  val outcome : evidence -> int -> Types.outcome option
  (** The root's report, else what strong evidence gives (commit first). *)

  (** A heuristic decision: a member's heuristic record for a
      transaction. *)
  type heuristic = private {
    h_member : string;
    h_txn : string;
    h_id : int;
    h_action : Types.outcome;
    mutable h_told : Types.outcome option;
        (** what the member's own last TM outcome record for the
            transaction gives, wherever it sits in the log *)
  }

  val heuristics : evidence -> heuristic list
end

val run_full :
  ?config:Types.config ->
  ?inject:(Run.world -> unit) ->
  ?causal:Obs.Causal.mode ->
  ?scratch:Simkernel.Engine.t ->
  cfg ->
  Types.tree ->
  Metrics.Agg.t * Run.world * txn_summary list
(** Like {!run}, additionally returning per-transaction summaries for
    external audits.  [inject] runs after the world is built and the
    arrivals are handed to the engine (an {!Simkernel.Engine.stream} of
    all [cfg.txns] arrival times, drawn up front), but before the engine
    starts: a fault plan uses it to schedule crashes, partitions, message
    drops and jitter onto the same virtual clock.  Passing [inject] at
    all (even a function that schedules nothing) also arms the
    branch-abandonment watchdog: one check per committing transaction,
    at [cfg.lock_timeout] after its commit starts, that aborts a
    member's branch still holding work the protocol never asked it to
    vote on (its coordinator died or was cut off).  [causal] (default [Off]) sets the mode of the
    world's {!Obs.Causal} recorder: with [Graph], every transaction's
    commit becomes a causal event graph reachable from
    [world.Run.causal] — arrivals, lock grants and the commit trigger are
    recorded on the root's chain so each graph is connected from arrival
    to the application-notified terminal.  [scratch] is forwarded to
    {!Run.setup}: the world is built on a recycled engine instead of a
    fresh one.  It first raises [Invalid_argument] on a workload no run
    can have: fewer than one transaction or key, a [lock_timeout] or
    [base_interarrival] that is negative, nan or infinite, an
    [update_prob] or [read_prob] outside [0, 1], or the two summing
    above 1.

    The returned world keeps its logs, stores, name table
    ({!Simkernel.Engine.ids}) and event log, and the caller keeps the
    summaries, but the driver's own per-transaction records are released
    once the summaries are built, so a finished world does not retain
    them.  The driver's hooks stay installed and reach no transaction of
    the run: at quiescence every transaction has started its commit or
    finished, so a crash hook fired afterwards would have acted on none
    anyway, and a completion the caller brings about after the run (say,
    by restarting a silenced root) changes no summary and no
    aggregate. *)

val run :
  ?config:Types.config ->
  ?scratch:Simkernel.Engine.t ->
  cfg ->
  Types.tree ->
  Metrics.Agg.t * Run.world
(** Submit [cfg.txns] transactions against a fresh world built from [tree]
    under [config], run the engine to quiescence and aggregate.

    Per arrival the mixer: flushes deferred piggybacked acknowledgments
    (the arrival {e is} the next transaction's data exchange), draws a work
    plan (each member independently updates, reads or sits out), acquires
    the needed locks in global tree order (ordered acquisition: no
    deadlock), and on full acquisition starts a 2PC at the root.  A
    transaction that cannot get its locks within [cfg.lock_timeout] aborts
    and releases everything it holds.

    The returned aggregate includes an end-of-run atomicity/consistency
    audit ([consistency_violations = 0] on a correct run): committed
    transactions applied at every member they updated, aborted ones applied
    nowhere, and every committed binding owned by the committed transaction
    that wrote it. *)
