(** Orchestration: build a simulated transaction-processing complex for a
    commit tree, give every member work, run two-phase commits to
    quiescence and summarize the results. *)

module Names : Hashtbl.S with type key = string
(** String-keyed tables; they iterate in the order a generic [Hashtbl]
    would. *)

(** One member's runtime pieces. *)
type node = {
  participant : Participant.t;
  wal : Wal.Log.t;
  kv : Kvstore.t;
  profile : Types.profile;
}

(** A built complex: engine, network, shared trace and all members. *)
type world = {
  engine : Simkernel.Engine.t;
  net : Net.t;
  trace : Trace.t;
  registry : Obs.Registry.t;
      (** telemetry registry shared by every member: per-phase residence
          histograms ("phase/voting", ...), blocking-window histograms
          ("blocking/..."), plus whatever the driver adds *)
  causal : Obs.Causal.t;
      (** causal event graph shared by every member: the graph view of
          [trace]'s log ({!Trace.log}), so each event is recorded once for
          both.  Created with mode [Off] — flip it with
          {!Obs.Causal.set_mode} before committing to collect the
          per-transaction event graph *)
  cfg : Types.config;
  tree : Types.tree;
  nodes : (string * node) list;  (** tree order, root first *)
  by_name : node Names.t;  (** [nodes] keyed by name, for {!node} *)
  root : string;
  mutable outcome : Types.outcome option;
      (** what the root reported to its application, once it has *)
  mutable pending : bool;
      (** wait-for-outcome: completion carried "outcome pending" *)
}

val setup : ?config:Types.config -> ?scratch:Simkernel.Engine.t -> Types.tree -> world
(** Build the complex: one participant, write-ahead log and key-value
    resource manager per member.  With the shared-log optimization enabled,
    members flagged [p_shares_parent_log] reuse their parent's log, and
    the members on one log form each one's failure domain
    ({!Participant.set_failure_domain}).

    [scratch] recycles an engine from a previous world via
    {!Simkernel.Engine.reset} instead of allocating a fresh one: the
    per-world setup cost is amortized across a driver's many small cells.
    A world built on a recycled engine behaves byte-identically to one
    built on a fresh engine; the caller must no longer drive the previous
    world that used it. *)

val node : world -> string -> node
val participant : world -> string -> Participant.t
val kv : world -> string -> Kvstore.t
val all_wals : world -> Wal.Log.t list

val perform_work : world -> txn:string -> unit
(** Default workload: every updated member writes one record (holding an
    exclusive lock until the commit releases it); read-only members read
    one; left-out members touch nothing. *)

val commit : ?txn:string -> world -> Metrics.t
(** [commit w] performs the default work, triggers unsolicited voters,
    starts commit processing at the root and runs the engine to
    quiescence.  [txn] defaults to ["txn-1"]. *)

val commit_tree :
  ?config:Types.config -> ?txn:string -> Types.tree -> Metrics.t * world
(** [setup] + [commit] in one step. *)

(** What one member does during one transaction of a sequence. *)
type work = Work_update | Work_read | Work_none

val mark_idle_subtrees :
  world -> txn:string -> idle:(string -> bool) -> (Participant.t * string) list
(** The dynamic leave-out walk, shared by {!commit_sequence} and
    {!Mixer}: tell each parent which child subtrees did no work in [txn]
    ([idle] judges one member by name), via
    {!Participant.note_idle_child}.  Returns the marked [(parent, child)]
    pairs; the caller clears each parent's marks with
    {!Participant.clear_idle_children} once [txn] finishes.  Marks only
    matter under leave-out, so without it nothing is marked. *)

val commit_sequence :
  ?config:Types.config ->
  work:(txn:string -> node:string -> work) ->
  txns:string list ->
  Types.tree ->
  (string * Metrics.t) list * world
(** Run several transactions through the same complex under a per-member,
    per-transaction work assignment.  This is where the dynamic
    OK-TO-LEAVE-OUT protocol operates: a member whose committed YES carried
    the leave-out flag is suspended, and when the workload gives its whole
    subtree nothing to do in a later transaction, its parent leaves it out
    of that commit.  The shared trace is cleared between transactions, so
    each returned {!Metrics.t} covers exactly one commit. *)

(** {2 Two-member streams}

    Table 4, Figure 7 and the Section 4 group-commit run, driven through
    the participants of a C -> S world.  Transaction [t] writes key [t]
    (value ["upd-by-" ^ t]) at both members, so consecutive transactions
    never wait for each other's locks. *)

(** Table 4's three schedules, costed by {!Cost_model.table4}; under
    {!Chain_long_locks_last_agent} (Figure 7) the members swap coordinator
    and last-agent roles within each pair. *)
type chain_mode = Chain_basic | Chain_long_locks | Chain_long_locks_last_agent

val chain_mode_to_string : chain_mode -> string

type chain_result = {
  flows : int;  (** protocol flows *)
  data_flows : int;  (** application-data flows carrying piggybacked acks *)
  writes : int;  (** TM log writes at both members *)
  forced : int;
  duration : float;  (** when the last outcome reaches an application *)
  mean_coordinator_lock_time : float;
      (** mean time from a step's begin to the outcome ending it; a step is
          a transaction, or under last agent a pair.  The coordinator's own
          locks come off earlier, at its decision. *)
  outcomes : (string * Types.outcome) list;
      (** what each coordinator reported to its application, in order *)
}

val chain : ?config:Types.config -> chain_mode -> r:int -> chain_result * world
(** Run [t1 .. tr] in a closed loop: each transaction begins when the
    application learns the previous outcome.  With last agent the agent
    deciding a pair's first transaction opens the second at once toward
    its delegator, and the second's coordinator opens the next pair when it
    completes.  [config] (default {!Types.default_config}) gives protocol,
    latencies, retries and faults; [mode] sets the switches (both members
    long-locks outside {!Chain_basic}), and unridden acknowledgments travel
    after a think time of 1.0.  Raises [Invalid_argument] if [r < 1]. *)

type group_result = {
  gc_transactions : int;  (** transactions that completed *)
  gc_force_requests : int;  (** logical forced writes issued (3 per txn) *)
  gc_force_ios : int;  (** physical force I/Os after batching *)
  gc_saved_ios : int;
  gc_paper_saving : float;  (** the paper's [3n/2m] estimate *)
  gc_mean_commit_latency : float;
      (** begin to outcome: group commit's cost (Table 1) *)
}

val group_commit :
  ?timeout:float -> n:int -> group_size:int -> unit -> group_result
(** [g1 .. gn] over C -> S, begun 0.1 apart, each node holding one member
    of every transaction.  Both logs batch forces up to [group_size] or
    for [timeout] (default 5.0); a size of 1 disables batching.  Raises
    [Invalid_argument] if [n < 1]. *)

val committed_states : world -> (string * (string * string) list) list
(** Committed key/value bindings per member (sorted), for atomicity
    checks. *)

val consistent : world -> txn:string -> outcome:Types.outcome -> bool
(** True when every updated member's data reflects [outcome]: the update
    visible after a commit, absent after an abort. *)
