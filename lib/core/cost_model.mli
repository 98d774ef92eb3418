(** Closed-form cost model: the formulas behind the paper's Tables 1-4.

    Conventions (Section 5, corrected for OCR noise against the prose of
    Section 4 - see DESIGN.md section 3):

    - a commit tree of [n] members has [n-1] edges, each carrying
      Prepare / Vote / Decision / Ack = 4 flows under the baseline protocol;
    - the coordinator writes 2 records (Committed forced, End non-forced);
      every other member writes 3 (Prepared forced, Committed forced, End
      non-forced), so baseline totals are [4(n-1)] flows, [3n-1] writes,
      [2n-1] forced writes;
    - each optimization used by [m] members adjusts those totals by the
      per-member savings stated in Section 4 of the paper.

    The simulator is validated against this model: tests assert that
    {!Run.commit} produces byte-for-byte identical counts. *)

type counts = { flows : int; writes : int; forced : int }

val pp_counts : Format.formatter -> counts -> unit

(** The paper's nine optimizations that have a Table 3 column (group
    commit acts on the log, not the tree, and is modelled separately). *)
type optimization =
  | Read_only_opt
  | Last_agent_opt
  | Unsolicited_vote_opt
  | Leave_out_opt
  | Vote_reliable_opt
  | Wait_for_outcome_opt
  | Shared_log_opt
  | Long_locks_opt

val optimization_to_string : optimization -> string
(** Canonical CLI spelling, e.g. ["read-only"], ["last-agent"]. *)

val all_optimizations : optimization list
(** Every optimization, in Table 3 row order. *)

(** {2 Totals over a commit tree (Table 3)} *)

val basic : n:int -> counts
(** Baseline 2PC totals for an [n]-member commit tree. *)

val presumed_nothing : ?cascaded:int -> n:int -> unit -> counts
(** Presumed Nothing: the coordinator adds one forced commit-pending
    record, every subordinate adds one forced agent record (Table 2 row
    "PN"), and every {e cascaded} coordinator adds its own forced
    commit-pending record before propagating Prepare (Figure 3).
    [cascaded] is the number of internal non-root members (0 in a flat
    tree). *)

val bft : f:int -> n:int -> counts
(** Byzantine-tolerant commit totals for an [n]-member tree tolerating
    [f] traitorous coordinator replicas: baseline plus [4f] flows and
    [2f] forced writes for the [2f+1]-replica endorsement round, plus
    [n] non-forced certificate appends (one per member, hardened by the
    outcome force each precedes).  What Tables 2-4 charge for tolerance. *)

val pa_abort_two_members : counts
(** PA abort case where the lone decision maker hears a NO: no logging
    anywhere, no acks.  Exposed for the Table 2 abort row with n=2. *)

val savings : optimization -> int * int * int
(** Per-member [(flows, writes, forced)] saved by each optimization, as
    stated in Section 4. *)

val with_optimization : optimization -> n:int -> m:int -> counts
(** Table 3 cell: baseline totals for [n] members, minus the savings of
    [m] members following one optimization. *)

(** {2 Table 2: two participants, per-side breakdown} *)

type side = { s_flows : int; s_writes : int; s_forced : int }

type table2_row = {
  t2_label : string;
  coordinator : side;
  subordinate : side;
}

val table2 : table2_row list

(** {2 Tables 3 and 4} *)

val table3 : n:int -> m:int -> (string * counts) list
(** One labelled row per protocol/optimization: baseline first, then
    "PA & <opt>" for each optimization with [m] followers. *)

val table4 : r:int -> (string * counts) list
(** [r] chained two-member transactions: basic 2PC ([4r] flows), long
    locks ([3r]: the Ack rides the next transaction's data) and long locks
    with last agent (Figure 7's two transactions in three flows, so
    [3(r/2)], plus two for an odd tail transaction).  Every row writes
    [5r] records, [3r] of them forced. *)

(** {2 Group commit (Section 4, "Group Commits")} *)

val group_commit_saving : n:int -> m:int -> float
(** The paper's stated average saving in forced writes for [n] transactions
    under group size [m], assuming one member of each transaction per
    node. *)

(** {2 Table 1: qualitative advantages / disadvantages} *)

type table1_row = {
  t1_optimization : string;
  advantages : string list;
  disadvantages : string list;
}

val table1 : table1_row list
