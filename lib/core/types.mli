(** Shared vocabulary of the 2PC protocol engine. *)

(** Which commit protocol family a run uses (Sections 2 and 3 of the paper). *)
type protocol =
  | Basic  (** the baseline 2PC of Figure 1 *)
  | Presumed_abort  (** PA: no information at coordinator means abort *)
  | Presumed_nothing
      (** PN: coordinator force-logs commit-pending before Prepare and owns
          recovery and heuristic-damage reporting *)
  | Custom of string
      (** a protocol registered under this name in the {!Protocol} registry
          (the extension point for commit protocols beyond the paper);
          {!protocol_to_string} returns the name verbatim *)

type outcome = Committed | Aborted

(** A subordinate's vote.  [reliable] and [leave_out_ok] are the protected
    variables carried on a YES vote (Sections 4 "Vote Reliable" and
    "Leaving Inactive Partners Out"). *)
type vote =
  | Vote_yes of { reliable : bool; leave_out_ok : bool }
  | Vote_read_only
  | Vote_no

type ack_policy =
  | Early_ack  (** ack as soon as locally committed, propagation in progress *)
  | Late_ack  (** ack only after the whole subtree acknowledged *)

(** Optimization switches for a run.  Each switch corresponds to one
    optimization of Section 4; they compose freely.

    Prefer {!opts_of_list} over building this record directly: the list API
    is what the CLI, bench and tests share, and new code should not spell
    out nine fields to flip one. *)
type opts = {
  read_only : bool;  (** allow read-only votes and phase-2 exclusion *)
  last_agent : bool;  (** delegate the decision to the last subordinate *)
  unsolicited_vote : bool;  (** self-prepared servers vote without Prepare *)
  leave_out : bool;  (** exclude suspended OK-TO-LEAVE-OUT subtrees *)
  shared_log : bool;  (** colocated LRM members skip their own forces *)
  long_locks : bool;  (** ack piggybacks on next-transaction data *)
  ack : ack_policy;
  vote_reliable : bool;  (** reliable voters use implied acks *)
  wait_for_outcome : bool;  (** one recovery attempt, then "outcome pending" *)
}

val no_opts : opts

(** One optimization switch, by name.  [`Early_ack] selects the
    {!Early_ack} acknowledgment policy; every other case sets the
    corresponding boolean field of {!opts}. *)
type opt =
  [ `Read_only
  | `Last_agent
  | `Unsolicited_vote
  | `Leave_out
  | `Shared_log
  | `Long_locks
  | `Early_ack
  | `Vote_reliable
  | `Wait_for_outcome ]

val all_opts : opt list
(** Every switch, in a stable display order. *)

val opt_to_string : opt -> string
(** Canonical CLI spelling, e.g. ["read-only"], ["shared-log"]. *)

val opt_of_string : string -> opt option
(** Inverse of {!opt_to_string}; also accepts underscore spellings and a few
    aliases (["readonly"], ["unsolicited-vote"], ["reliable"]).
    Case-insensitive. *)

val opts_of_list : opt list -> opts
(** Fold a list of switches into an {!opts} record, starting from
    {!no_opts}. *)

val opts_to_list : opts -> opt list
(** The switches enabled in [o], in {!all_opts} order.
    [opts_of_list (opts_to_list o) = o]. *)

val opt_enabled : opts -> opt -> bool

(** When an in-doubt participant loses patience (Section 1: heuristic
    decisions are "a practical necessity in the commercial environment"). *)
type heuristic_policy =
  | Heuristic_never
  | Heuristic_commit_after of float
  | Heuristic_abort_after of float

(** Crash-injection points inside the commit protocol, named from the
    perspective of the crashing node. *)
type crash_point =
  | Cp_on_prepare  (** subordinate: Prepare received, nothing logged *)
  | Cp_after_prepared_log  (** subordinate: Prepared durable, vote not sent *)
  | Cp_after_vote  (** subordinate: in doubt *)
  | Cp_before_decision_log  (** coordinator: decided, nothing durable *)
  | Cp_after_decision_log  (** coordinator: outcome durable, nothing sent *)
  | Cp_after_decision_received
      (** subordinate: outcome known, not yet durable *)
  | Cp_before_ack  (** subordinate: locally finished, ack unsent *)
  | Cp_after_commit_pending  (** PN coordinator: commit-pending durable *)
  | Cp_after_delegation  (** delegator: decision handed to the last agent *)

type fault = {
  f_node : string;
  f_point : crash_point;
  f_restart_after : float option;  (** [None] = stays down forever *)
}

(** Static description of one commit-tree member. *)
type profile = {
  p_name : string;
  p_updated : bool;  (** performed updates: not eligible for read-only *)
  p_reliable : bool;  (** LRM declares heuristics vanishingly unlikely *)
  p_leave_out_ok : bool;  (** pure server: may be suspended and left out *)
  p_left_out : bool;  (** this transaction: did no work, gets left out *)
  p_unsolicited : bool;  (** votes without waiting for Prepare *)
  p_vote_no : bool;  (** forced NO vote (abort-path testing) *)
  p_shares_parent_log : bool;  (** colocated LRM member (shared-log opt) *)
  p_long_locks : bool;  (** defers its ack onto next-transaction data *)
  p_heuristic : heuristic_policy;
}

val member :
  ?updated:bool ->
  ?reliable:bool ->
  ?leave_out_ok:bool ->
  ?left_out:bool ->
  ?unsolicited:bool ->
  ?vote_no:bool ->
  ?shares_parent_log:bool ->
  ?long_locks:bool ->
  ?heuristic:heuristic_policy ->
  string ->
  profile
(** Smart constructor; every flag defaults to the plain updating member. *)

(** Commit tree: root is the commit coordinator. *)
type tree = Tree of profile * tree list

val tree_size : tree -> int
val tree_members : tree -> profile list
val tree_profile : tree -> profile

(** Per-run protocol configuration.

    Direct field construction ([{ default_config with ... }]) is deprecated
    in new code: use {!default_config} with the [with_*] builders below so
    call sites survive field additions. *)
type config = {
  protocol : protocol;
  opts : opts;
  latency : float;  (** default network latency between members *)
  io_latency : float;  (** one physical log force *)
  group_commit : Wal.Log.group option;
  faults : fault list;
  retry_interval : float;  (** decision/ack retransmission period *)
  max_retries : int;  (** bound on automatic retransmissions *)
  prepare_retries : int;
      (** Prepare re-sends to silent voters before presuming NO; [0]
          (default) aborts on the first vote timeout as before *)
  retry_backoff : float;
      (** retransmission backoff multiplier, capped exponential;
          [1.0] (default) keeps the classic fixed period *)
  implied_ack_delay : float;
      (** think time before the "next transaction" data message that carries
          implied and long-locks acknowledgments in single-transaction runs *)
  trace_events : bool;
      (** keep the full event timeline in the trace ([true] by default);
          [false] maintains only the O(1) aggregate counters — the mode
          for high-volume sweeps where nothing reads the timeline *)
  bft_f : int;
      (** fault tolerance of the BFT commit variant ([1] by default): the
          coordinator is replicated 2f+1 ways and decisions need f+1
          matching endorsements; ignored by every other protocol *)
}

val default_config : config

val with_protocol : protocol -> config -> config
val with_opts : opt list -> config -> config
(** Replaces the whole [opts] field with [opts_of_list l]. *)

val with_faults : fault list -> config -> config
val with_latency : float -> config -> config
val with_io_latency : float -> config -> config
val with_trace_events : bool -> config -> config
val with_group_commit : size:int -> timeout:float -> config -> config
val without_group_commit : config -> config
val with_retries : interval:float -> max:int -> config -> config
val with_prepare_retries : int -> config -> config
val with_retry_backoff : float -> config -> config
val with_implied_ack_delay : float -> config -> config
val with_bft_f : int -> config -> config

val protocol_to_string : protocol -> string
val outcome_to_string : outcome -> string
val vote_to_string : vote -> string
