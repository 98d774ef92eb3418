(** Shared vocabulary of the 2PC protocol engine. *)

(** Which commit protocol family a run uses (Sections 2 and 3 of the paper). *)
type protocol =
  | Basic  (** the baseline 2PC of Figure 1 *)
  | Presumed_abort  (** PA: no information at coordinator means abort *)
  | Presumed_nothing
      (** PN: coordinator force-logs commit-pending before Prepare and owns
          recovery and heuristic-damage reporting *)
  | Custom of string
      (** a protocol registered under this name in the [Protocol] registry
          (the extension point for commit protocols beyond the paper) *)

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
  | Late_ack   (** ack only after the whole subtree acknowledged *)

(** Optimization switches for a run.  Each switch corresponds to one
    optimization of Section 4; they compose freely. *)
type opts = {
  read_only : bool;       (** allow read-only votes and phase-2 exclusion *)
  last_agent : bool;      (** delegate the decision to the last subordinate *)
  unsolicited_vote : bool;(** self-prepared servers vote without Prepare *)
  leave_out : bool;       (** exclude suspended OK-TO-LEAVE-OUT subtrees *)
  shared_log : bool;      (** colocated LRM members skip their own forces *)
  long_locks : bool;      (** ack piggybacks on next-transaction data *)
  ack : ack_policy;
  vote_reliable : bool;   (** reliable voters use implied acks *)
  wait_for_outcome : bool;(** one recovery attempt, then "outcome pending" *)
}

let no_opts =
  {
    read_only = false;
    last_agent = false;
    unsolicited_vote = false;
    leave_out = false;
    shared_log = false;
    long_locks = false;
    ack = Late_ack;
    vote_reliable = false;
    wait_for_outcome = false;
  }

(** When an in-doubt participant loses patience (Section 1: heuristic
    decisions are "a practical necessity in the commercial environment"). *)
type heuristic_policy =
  | Heuristic_never
  | Heuristic_commit_after of float
  | Heuristic_abort_after of float

(** Crash-injection points inside the commit protocol, named from the
    perspective of the crashing node. *)
type crash_point =
  | Cp_on_prepare          (** subordinate: Prepare received, nothing logged *)
  | Cp_after_prepared_log  (** subordinate: Prepared durable, vote not sent *)
  | Cp_after_vote          (** subordinate: in doubt *)
  | Cp_before_decision_log (** coordinator: decided, nothing durable *)
  | Cp_after_decision_log  (** coordinator: outcome durable, nothing sent *)
  | Cp_after_decision_received (** subordinate: outcome known, not yet durable *)
  | Cp_before_ack          (** subordinate: locally finished, ack unsent *)
  | Cp_after_commit_pending (** PN coordinator: commit-pending durable *)
  | Cp_after_delegation    (** delegator: decision handed to the last agent *)

type fault = {
  f_node : string;
  f_point : crash_point;
  f_restart_after : float option;  (** [None] = stays down forever *)
}

(** Static description of one commit-tree member. *)
type profile = {
  p_name : string;
  p_updated : bool;       (** performed updates: not eligible for read-only *)
  p_reliable : bool;      (** LRM declares heuristics vanishingly unlikely *)
  p_leave_out_ok : bool;  (** pure server: may be suspended and left out *)
  p_left_out : bool;      (** this transaction: did no work, gets left out *)
  p_unsolicited : bool;   (** votes without waiting for Prepare *)
  p_vote_no : bool;       (** forced NO vote (abort-path testing) *)
  p_shares_parent_log : bool; (** colocated LRM member (shared-log opt) *)
  p_long_locks : bool;    (** defers its ack onto next-transaction data *)
  p_heuristic : heuristic_policy;
}

let member ?(updated = true) ?(reliable = false) ?(leave_out_ok = false)
    ?(left_out = false) ?(unsolicited = false) ?(vote_no = false)
    ?(shares_parent_log = false) ?(long_locks = false)
    ?(heuristic = Heuristic_never) name =
  {
    p_name = name;
    p_updated = updated;
    p_reliable = reliable;
    p_leave_out_ok = leave_out_ok;
    p_left_out = left_out;
    p_unsolicited = unsolicited;
    p_vote_no = vote_no;
    p_shares_parent_log = shares_parent_log;
    p_long_locks = long_locks;
    p_heuristic = heuristic;
  }

(** Commit tree: root is the commit coordinator. *)
type tree = Tree of profile * tree list

let rec tree_size (Tree (_, children)) =
  1 + List.fold_left (fun acc c -> acc + tree_size c) 0 children

let rec tree_members (Tree (p, children)) =
  p :: List.concat_map tree_members children

let tree_profile (Tree (p, _)) = p

(** Per-run protocol configuration. *)
type config = {
  protocol : protocol;
  opts : opts;
  latency : float;          (** default network latency between members *)
  io_latency : float;       (** one physical log force *)
  group_commit : Wal.Log.group option;
  faults : fault list;
  retry_interval : float;   (** decision/ack retransmission period *)
  max_retries : int;        (** bound on automatic retransmissions *)
  prepare_retries : int;
      (** how many times a coordinator re-sends Prepare to silent voters
          before presuming NO; [0] (the default) preserves the classic
          behavior of aborting on the first vote timeout *)
  retry_backoff : float;
      (** multiplier applied to [retry_interval] between successive
          retransmissions (exponential backoff, capped); [1.0] keeps the
          classic fixed-period retransmission *)
  implied_ack_delay : float;
      (** think time before the "next transaction" data message that carries
          implied and long-locks acknowledgments in single-transaction runs *)
  trace_events : bool;
      (** keep the full event timeline in the trace; [false] maintains
          only the aggregate counters (high-volume sweeps with no
          timeline consumer) *)
  bft_f : int;
      (** fault tolerance of the BFT commit variant: the coordinator is
          replicated 2f+1 ways and decisions need f+1 matching
          endorsements; ignored by every other protocol *)
}

let default_config =
  {
    protocol = Presumed_abort;
    opts = no_opts;
    latency = 1.0;
    io_latency = 0.5;
    group_commit = None;
    faults = [];
    (* generous relative to the default latencies so that retransmission and
       in-doubt inquiry never fire during a healthy commit, even over deep
       delegation chains *)
    retry_interval = 150.0;
    max_retries = 40;
    prepare_retries = 0;
    retry_backoff = 1.0;
    implied_ack_delay = 2.0;
    trace_events = true;
    bft_f = 1;
  }

(** {2 List-based options API}

    The preferred way to build an {!opts} value: name the optimizations you
    want and let {!opts_of_list} fold them into the record.  The string forms
    accepted by {!opt_of_string} are the ones the CLI and bench use, so the
    three can't drift. *)

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

let all_opts : opt list =
  [
    `Read_only;
    `Last_agent;
    `Unsolicited_vote;
    `Leave_out;
    `Shared_log;
    `Long_locks;
    `Early_ack;
    `Vote_reliable;
    `Wait_for_outcome;
  ]

let opt_to_string : opt -> string = function
  | `Read_only -> "read-only"
  | `Last_agent -> "last-agent"
  | `Unsolicited_vote -> "unsolicited"
  | `Leave_out -> "leave-out"
  | `Shared_log -> "shared-log"
  | `Long_locks -> "long-locks"
  | `Early_ack -> "early-ack"
  | `Vote_reliable -> "vote-reliable"
  | `Wait_for_outcome -> "wait-for-outcome"

let opt_of_string s : opt option =
  match String.lowercase_ascii s with
  | "read-only" | "readonly" -> Some `Read_only
  | "last-agent" | "last_agent" -> Some `Last_agent
  | "unsolicited" | "unsolicited-vote" -> Some `Unsolicited_vote
  | "leave-out" | "leave_out" -> Some `Leave_out
  | "shared-log" | "shared_log" -> Some `Shared_log
  | "long-locks" | "long_locks" -> Some `Long_locks
  | "early-ack" | "early_ack" -> Some `Early_ack
  | "vote-reliable" | "vote_reliable" | "reliable" -> Some `Vote_reliable
  | "wait-for-outcome" | "wait_for_outcome" -> Some `Wait_for_outcome
  | _ -> None

let apply_opt acc : opt -> opts = function
  | `Read_only -> { acc with read_only = true }
  | `Last_agent -> { acc with last_agent = true }
  | `Unsolicited_vote -> { acc with unsolicited_vote = true }
  | `Leave_out -> { acc with leave_out = true }
  | `Shared_log -> { acc with shared_log = true }
  | `Long_locks -> { acc with long_locks = true }
  | `Early_ack -> { acc with ack = Early_ack }
  | `Vote_reliable -> { acc with vote_reliable = true }
  | `Wait_for_outcome -> { acc with wait_for_outcome = true }

let opts_of_list l = List.fold_left apply_opt no_opts l

let opt_enabled o : opt -> bool = function
  | `Read_only -> o.read_only
  | `Last_agent -> o.last_agent
  | `Unsolicited_vote -> o.unsolicited_vote
  | `Leave_out -> o.leave_out
  | `Shared_log -> o.shared_log
  | `Long_locks -> o.long_locks
  | `Early_ack -> o.ack = Early_ack
  | `Vote_reliable -> o.vote_reliable
  | `Wait_for_outcome -> o.wait_for_outcome

let opts_to_list o = List.filter (opt_enabled o) all_opts

(** {2 Config builders}

    Pipeline-style helpers, e.g.
    [default_config |> with_protocol Basic |> with_opts [ `Read_only ]]. *)

let with_protocol protocol cfg = { cfg with protocol }
let with_opts l cfg = { cfg with opts = opts_of_list l }
let with_faults faults cfg = { cfg with faults }
let with_latency latency cfg = { cfg with latency }
let with_io_latency io_latency cfg = { cfg with io_latency }
let with_trace_events trace_events cfg = { cfg with trace_events }

let with_group_commit ~size ~timeout cfg =
  { cfg with group_commit = Some { Wal.Log.size; timeout } }

let without_group_commit cfg = { cfg with group_commit = None }

let with_retries ~interval ~max cfg =
  { cfg with retry_interval = interval; max_retries = max }

let with_prepare_retries prepare_retries cfg = { cfg with prepare_retries }
let with_retry_backoff retry_backoff cfg = { cfg with retry_backoff }

let with_implied_ack_delay implied_ack_delay cfg = { cfg with implied_ack_delay }
let with_bft_f bft_f cfg = { cfg with bft_f }

let protocol_to_string = function
  | Basic -> "basic-2pc"
  | Presumed_abort -> "presumed-abort"
  | Presumed_nothing -> "presumed-nothing"
  | Custom name -> name

let outcome_to_string = function Committed -> "commit" | Aborted -> "abort"

let vote_to_string = function
  | Vote_yes { reliable = false; leave_out_ok = false } -> "yes"
  | Vote_yes { reliable = true; leave_out_ok = false } -> "yes+reliable"
  | Vote_yes { reliable = false; leave_out_ok = true } -> "yes+leave-out-ok"
  | Vote_yes { reliable = true; leave_out_ok = true } ->
      "yes+reliable+leave-out-ok"
  | Vote_read_only -> "read-only"
  | Vote_no -> "no"
