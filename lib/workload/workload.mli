(** Workload generators: commit-tree shapes and member-property mixes for
    the benches and the randomized tests.

    Table 3 of the paper analyses a transaction with [n] members of which
    [m] follow one optimization; these helpers build such trees in the
    shapes the analysis assumes and in the shapes the peer-to-peer
    discussion motivates. *)

val flat :
  ?decorate:(int -> Tpc.Types.profile -> Tpc.Types.profile) ->
  n:int ->
  unit ->
  Tpc.Types.tree
(** Coordinator with [n-1] leaf subordinates; [decorate i p] may adjust the
    profile of subordinate [i] (0-based).  Raises [Invalid_argument] when
    [n < 1]. *)

val chain :
  ?decorate:(int -> Tpc.Types.profile -> Tpc.Types.profile) ->
  n:int ->
  unit ->
  Tpc.Types.tree
(** A chain of cascaded coordinators of total size [n]. *)

val flat_with_delegation_chain : n:int -> m:int -> unit -> Tpc.Types.tree
(** Flat tree whose final [m] members form a delegation chain off the
    coordinator: the Table 3 shape for the last-agent row (each last agent
    picks one of its subordinates as its own last agent).  Requires
    [m < n]. *)

val random_tree : ?fanout:int -> seed:int -> n:int -> unit -> Tpc.Types.tree
(** Uniform random tree over [n] members with maximum [fanout] (default 4);
    deterministic in [seed]. *)

(** {2 Property mixes} *)

val read_only_mix : m:int -> int -> Tpc.Types.profile -> Tpc.Types.profile
(** A decoration marking the first [m] subordinates of a flat tree
    read-only; {!table3_tree} marks the followers of the other
    optimizations the same way. *)

(** {2 Table 3 experiment} *)

val table3_tree : Tpc.Cost_model.optimization -> n:int -> m:int -> Tpc.Types.tree
(** The commit tree for one Table 3 row: flat with [m] members following
    the optimization (a delegation chain for the last-agent row). *)

val run_table3 :
  ?protocol:Tpc.Types.protocol ->
  Tpc.Cost_model.optimization ->
  n:int ->
  m:int ->
  Tpc.Cost_model.counts
(** Run the Table 3 experiment for one optimization and return the
    simulated (flows, writes, forced) counts.  With [m = 0] the
    optimization is switched off entirely. *)

(** {2 Rows of Tables 2, 3 and 4}, as [tpc_sim tables] prints them: the
    paper's label, the simulated figures and the paper's. *)

type 'a row = { label : string; simulated : 'a; paper : 'a }

val pair :
  ?c:Tpc.Types.profile -> ?s:Tpc.Types.profile -> unit -> Tpc.Types.tree
(** Coordinator [c] (default ["C"]) with one subordinate [s] (default
    ["S"]): Table 2's two members. *)

val table2_rows :
  unit -> (Tpc.Cost_model.side * Tpc.Cost_model.side) row list
(** One two-member commit per {!Tpc.Cost_model.table2} row, in its order:
    the (coordinator, subordinate) sides' flows, writes and forced writes,
    simulated and from the table. *)

val table3_rows : n:int -> m:int -> Tpc.Cost_model.counts row list
(** Basic 2PC on a flat tree, then {!run_table3} per optimization. *)

val table4_rows :
  r:int -> (Tpc.Cost_model.counts row * Tpc.Run.chain_result) list
(** One {!Tpc.Run.chain} per row, with its result for timing columns. *)

(** {2 Mixer sweeps} *)

val mixer_tree : ?n:int -> opts:Tpc.Types.opt list -> unit -> Tpc.Types.tree
(** Flat [n]-member tree for a {!Tpc.Mixer} run: the member-property side of
    each listed optimization (shared logs, long locks, reliable votes,
    unsolicited votes, suspendable servers) is applied to every
    subordinate.  Defaults to [n = 4]. *)

(** {2 Lock-contention experiment}

    Section 1's throughput claim: "a faster commit protocol can improve
    transaction throughput ... by causing locks to be released sooner,
    reducing the wait time of other transactions."  The experiment runs one
    distributed transaction and a stream of local intruder transactions at
    one member that want the key the distributed transaction holds; it
    measures how long the intruders wait for the lock under a given
    configuration. *)

type contention_result = {
  ct_intruders : int;          (** intruders that eventually got the lock *)
  ct_mean_wait : float;
  ct_max_wait : float;
  ct_commit_outcome : Tpc.Types.outcome option;
}

val contention_experiment :
  ?config:Tpc.Types.config ->
  ?arrivals:float list ->
  victim:string ->
  Tpc.Types.tree ->
  contention_result
(** Run one commit over [tree] while intruder transactions arrive at member
    [victim] (at the given virtual times, default [[0.5; 1.0; 1.5]]) wanting
    the exact key the distributed transaction locks there.  Each intruder
    commits as soon as its lock is granted, releasing it for the next. *)
