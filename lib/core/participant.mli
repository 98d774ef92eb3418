(** Per-node two-phase-commit state machine.

    A participant is one member of the commit tree: a transaction manager
    plus its local resource manager.  It implements the baseline protocol,
    Presumed Abort and Presumed Nothing, and all of the paper's
    optimizations, reacting to network deliveries, log-force completions
    and timers on the shared virtual clock.

    Most users drive participants through {!Run}; the functions here are
    the building blocks for custom topologies (see {!Scenarios.figure5}
    for a hand-wired example).

    {b Waits are steps.}  Where a participant waits - a forced TM record,
    a vote, acknowledgment, delegation or in-doubt retry, the heuristic
    patience timer, a deferred piggyback, a protocol's backing delay - it
    arms a {!Step}: an int code and a slot that keeps the transaction
    state the step resumes on.  Timer steps are flat engine events and
    forced records' steps are {!Wal.Log.force_row} tokens; both resume
    through one dispatch, which drops any step armed before the node's
    last crash.  No wait allocates a closure.

    {b Re-rooting.}  Any member may initiate: {!begin_commit} below the
    static root engages the static parent as the last child (so under last
    agent the parent is delegated to).  A member receiving a delegation
    from a static child, or an upward Prepare, engages its static children
    minus the sender, never its own static parent.  An in-doubt member
    asks its static parent (for a re-rooted initiator, the partner it
    delegated to), else whoever sent it Prepare, else its static children.

    {b Riding the next flow.}  When the sender is a long-locks member
    ([long_locks] on and [p_long_locks] set), what a delegator and its last
    agent owe each other leads the next bundle sent to that partner: the
    delegator's implied acknowledgment ([Data] naming its transaction),
    and the agent's decision when its application has just opened a
    transaction toward the delegator ({!set_on_agent_decision}).  The
    [implied_ack_delay] timer still sends them alone if no flow comes.
    Figure 7 commits two transactions in three flows this way:
    Vote(t1, you decide); Commit(t1) + Vote(t2, you decide);
    Data(t1) + Commit(t2).  A bundle is a data flow only if it carries
    [Data] and nothing but [Data] and [Ack]. *)

type t

val create :
  net:Net.t ->
  trace:Trace.t ->
  cfg:Types.config ->
  profile:Types.profile ->
  parent:Types.profile option ->
  child_profiles:Types.profile list ->
  wal:Wal.Log.t ->
  kv:Kvstore.t ->
  t
(** Build a participant.  [parent] is the profile of the statically
    expected coordinator (used by subordinate-initiated recovery, and
    engaged as a child when this member initiates); [child_profiles] are
    the immediate children in the commit tree.  [trace] must have been
    created with [~engine] (raises [Invalid_argument] otherwise), and the
    participant runs on that engine.  It writes each protocol step once
    into the trace's log, as a trace row when the trace keeps events and
    as a causal-graph row while the log's graph view is on
    ({!Obs.Causal.set_mode} on {!Trace.log}); with both off every hook is
    an O(1) no-op that allocates nothing. *)

val attach : t -> unit
(** Register the participant's message handler with the network.  Must be
    called exactly once per participant before any commit begins. *)

val name : t -> string
val kv : t -> Kvstore.t
val log : t -> Wal.Log.t
val is_crashed : t -> bool

val set_on_root_complete :
  t -> (txn:string -> Types.outcome -> pending:bool -> unit) -> unit
(** Callback fired when this participant, acting as root coordinator,
    reports the outcome of [txn] to its application ([pending] is the
    wait-for-outcome "recovery still in progress" indication). *)

val set_on_agent_decision : t -> (txn:string -> Types.outcome -> unit) -> unit
(** Callback fired when this participant, as a last agent, has made its
    decision on [txn] durable, just before the decision leaves for the
    delegator: when its application learns the outcome. *)

val set_on_crash : t -> (unit -> unit) -> unit
(** Callback fired at the end of every crash (fault-injected or forced),
    after volatile state is wiped.  A concurrent workload driver uses it to
    fail transactions that depended on this node and had not yet entered
    the commit protocol. *)

val set_failure_domain : t -> t list -> unit
(** Declare the failure domain: the members that fail together with this
    one ({!crash_domain}), itself included, in tree order; [[t]] until
    declared.  {!Run.setup} gives each member itself and the members that
    share its write-ahead log. *)

val set_registry : t -> Obs.Registry.t -> unit
(** Attach a telemetry registry: every protocol phase transition then
    streams the residence time of the phase being left into the
    registry's ["phase/<name>"] histogram (names: [voting], [in-doubt],
    [delegated], [decision], [phase-two], [ended]), and the blocking
    windows into ["blocking/in_doubt"], ["blocking/blocked_lock"] and
    ["blocking/heur_exposure"].  Without a registry the participant
    records nothing. *)

val begin_commit : t -> txn:string -> unit
(** Initiate commit processing for [txn] with this participant as the
    (root) coordinator.  Under Presumed Nothing this forces the
    commit-pending record before any Prepare flows.  Below the static root
    it re-roots the tree here. *)

val begin_unsolicited : t -> txn:string -> unit
(** Unsolicited-vote entry point: the participant prepares itself and
    sends an unsolicited YES to its parent without waiting for a Prepare.
    Raises [Invalid_argument] on a participant with no parent. *)

val note_idle_child : t -> txn:string -> child:string -> unit
(** Declare that [child] exchanged no data with this member during
    transaction [txn].  Together with a suspension recorded from the
    child's previous committed OK-TO-LEAVE-OUT vote, this lets
    the participant leave the child out of that commit (the dynamic
    leave-out protocol; see {!Run.commit_sequence}).  The marks are
    per-transaction so concurrent transactions cannot clobber each
    other's declarations. *)

val clear_idle_children : t -> txn:string -> unit
val is_suspended : t -> child:string -> bool

val flush_piggybacks : t -> unit
(** Send every acknowledgment still deferred onto "next-transaction data"
    (long-locks acks, last-agent implied acks) right now.  A concurrent
    workload driver calls this when a genuinely-next transaction arrives, so
    the piggyback rides real data instead of the synthetic
    [implied_ack_delay] think-time timer; left alone, the timer preserves
    the single-transaction behaviour.  No-op while crashed. *)

val force_crash : t -> unit
(** Crash the node immediately: volatile log tail, resource-manager cache
    and all in-memory protocol state are lost; inbound messages drop. *)

val force_restart : t -> unit
(** Restart after a crash: recover the resource manager from the durable
    log and resume protocol obligations (re-drive logged outcomes, inquire
    about in-doubt transactions under PA, abort dangling PN
    commit-pending coordinations). *)

val crash_domain : t -> restart_after:float option -> amnesia:bool -> unit
(** Crash the members of [t]'s failure domain ({!set_failure_domain}) that
    are up, as {!force_crash} does, and restart exactly those
    [restart_after] later as {!force_restart} does (never for [None]).
    With [amnesia] they restart deliberately broken instead: they rejoin
    the network but skip both resource-manager recovery and log-driven
    protocol recovery, so the chaos harness can prove its fault-aware
    audit catches a recovery that forgets durable decisions
    ([--broken-recovery]).  A crash point planted at a member
    ({!Types.fault}) and a chaos plan's crash event both take this
    path. *)

val unresolved_txns : t -> (string * string) list
(** Sorted [(txn, phase)] pairs for every transaction whose in-memory state
    has not reached END on this node.  Phase names are those of
    {!set_registry}'s histograms. *)

val in_doubt_txns : t -> string list
(** Sorted transactions currently blocked on an outcome here: in-doubt
    voters awaiting their coordinator and delegators awaiting their last
    agent.  Complements {!Kvstore.in_doubt}, which only covers states
    rebuilt by crash recovery. *)

val is_unresolved : t -> txn:string -> bool
(** [List.mem_assoc txn (unresolved_txns t)] in O(1), building nothing. *)

val is_in_doubt : t -> txn:string -> bool
(** [List.mem txn (in_doubt_txns t)] in O(1), building nothing. *)

val force_heuristic : t -> txn:string -> Types.outcome -> unit
(** Adversarial injection: resolve [txn] heuristically as [action] right
    now, as if an impatient operator overrode the protocol at this node.
    A no-op unless the transaction is in doubt here with no heuristic
    decision yet (the injector may race the real decision arriving, and
    losing that race is the correct outcome).  Takes the same path as the
    heuristic timeout, so damage detection and reporting behave
    identically. *)

val rejected_forgeries : t -> int
(** Payloads this node refused under the protocol's
    {!Protocol_intf.admissible} check: forgeries an honest node can
    detect from topology and its own durable state.  Always zero in a
    benign run. *)

val rejected_certs : t -> int
(** Payloads the protocol's evidence check refused
    ({!Protocol_intf.evidence.ev_check}; also counted in
    {!rejected_forgeries}), plus the durable records its restart refused
    ({!Protocol_intf.evidence.ev_restart}): under BFT, uncertified or
    mis-certified decisions and outcome replies, vote-signature mismatches
    and durable certificates that failed re-validation.  Survives crashes.
    Always zero under the paper's protocols. *)

val damage_seen : t -> (string * Msg.damage_report) list
(** Heuristic-damage reports that reached this node's operator, oldest
    first, as [(txn, report)] pairs.  The damaged member itself records the
    mismatch the moment {e it} detects it (its own console is an operator
    too), and ack-borne copies surface where the protocol says they stop:
    at the immediate coordinator for PA/basic, at the root for PN.  The
    adversarial audit uses this to distinguish reported from silent
    heuristic damage. *)
