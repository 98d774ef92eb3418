(** Closed-form cost model: the formulas behind the paper's Tables 2, 3, 4.

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

let pp_counts ppf { flows; writes; forced } =
  Format.fprintf ppf "(%d flows, %d writes, %d forced)" flows writes forced

type optimization =
  | Read_only_opt
  | Last_agent_opt
  | Unsolicited_vote_opt
  | Leave_out_opt
  | Vote_reliable_opt
  | Wait_for_outcome_opt
  | Shared_log_opt
  | Long_locks_opt

let optimization_to_string = function
  | Read_only_opt -> "read-only"
  | Last_agent_opt -> "last-agent"
  | Unsolicited_vote_opt -> "unsolicited-vote"
  | Leave_out_opt -> "leave-out"
  | Vote_reliable_opt -> "vote-reliable"
  | Wait_for_outcome_opt -> "wait-for-outcome"
  | Shared_log_opt -> "shared-log"
  | Long_locks_opt -> "long-locks"

let all_optimizations =
  [
    Read_only_opt;
    Last_agent_opt;
    Unsolicited_vote_opt;
    Leave_out_opt;
    Vote_reliable_opt;
    Wait_for_outcome_opt;
    Shared_log_opt;
    Long_locks_opt;
  ]

(* ------------------------------------------------------------------ *)
(* Totals over a commit tree (Table 3)                                 *)
(* ------------------------------------------------------------------ *)

let basic ~n =
  { flows = 4 * (n - 1); writes = (3 * n) - 1; forced = (2 * n) - 1 }

(** Presumed Nothing: the coordinator adds one forced commit-pending
    record, every subordinate adds one forced agent record (Table 2 row
    "PN"), and every {e cascaded} coordinator adds its own forced
    commit-pending record before propagating Prepare (Figure 3).
    [cascaded] is the number of internal non-root members (0 in a flat
    tree). *)
let presumed_nothing ?(cascaded = 0) ~n () =
  let b = basic ~n in
  {
    flows = b.flows;
    writes = b.writes + n + cascaded;
    forced = b.forced + n + cascaded;
  }

(** PA abort case where the lone decision maker hears a NO: no logging
    anywhere, no acks (per abort-voting member one flow is saved and the
    Ack flow disappears).  Exposed for the Table 2 abort row with n=2. *)
let pa_abort_two_members = { flows = 3; writes = 0; forced = 0 }

(** Byzantine-tolerant commit: on top of the baseline tree cost, the
    decision maker runs a [2f+1]-replica endorsement round (4 flows and 2
    forced writes per extra replica - request/endorse both ways and each
    replica's forced endorsement record, charged to the ensemble) and
    every member appends one certificate record that hardens with the
    outcome force it precedes ([n] non-forced writes).  With [f = 0] the
    certificate degenerates to a self-endorsement and only the appends
    remain. *)
let bft ~f ~n =
  let b = basic ~n in
  let f = max 0 f in
  {
    flows = b.flows + (4 * f);
    writes = b.writes + (2 * f) + n;
    forced = b.forced + (2 * f);
  }

(** Per-member savings of each optimization, as stated in Section 4. *)
let savings = function
  | Read_only_opt -> (2, 3, 2) (* flows, writes, forced saved per member *)
  | Last_agent_opt -> (2, 0, 0)
  | Unsolicited_vote_opt -> (1, 0, 0)
  | Leave_out_opt -> (4, 3, 2)
  | Vote_reliable_opt -> (1, 0, 0)
  | Wait_for_outcome_opt -> (0, 0, 0)
  | Shared_log_opt -> (0, 0, 2)
  | Long_locks_opt -> (1, 0, 0)

let with_optimization opt ~n ~m =
  let b = basic ~n in
  let df, dw, dforced = savings opt in
  {
    flows = b.flows - (df * m);
    writes = b.writes - (dw * m);
    forced = b.forced - (dforced * m);
  }

(* ------------------------------------------------------------------ *)
(* Table 2: two participants, per-side breakdown                       *)
(* ------------------------------------------------------------------ *)

type side = { s_flows : int; s_writes : int; s_forced : int }

type table2_row = {
  t2_label : string;
  coordinator : side;
  subordinate : side;
}

let table2 : table2_row list =
  let side f w fo = { s_flows = f; s_writes = w; s_forced = fo } in
  [
    { t2_label = "Basic 2PC"; coordinator = side 2 2 1; subordinate = side 2 3 2 };
    { t2_label = "PN"; coordinator = side 2 3 2; subordinate = side 2 4 3 };
    {
      t2_label = "PA, Commit case";
      coordinator = side 2 2 1;
      subordinate = side 2 3 2;
    };
    {
      t2_label = "PA, Abort case";
      coordinator = side 2 0 0;
      subordinate = side 1 0 0;
    };
    {
      t2_label = "PA, Read-Only case";
      coordinator = side 1 0 0;
      subordinate = side 1 0 0;
    };
    {
      t2_label = "PA & Last-Agent";
      coordinator = side 1 3 2;
      subordinate = side 1 2 1;
    };
    {
      t2_label = "PA & Unsolicited Vote";
      coordinator = side 1 2 1;
      subordinate = side 2 3 2;
    };
    {
      t2_label = "PA & Leave-Out";
      coordinator = side 0 0 0;
      subordinate = side 0 0 0;
    };
    {
      t2_label = "PA & Vote Reliable";
      coordinator = side 2 2 1;
      subordinate = side 1 3 2;
    };
    {
      t2_label = "PA & Wait For Outcome";
      coordinator = side 2 2 1;
      subordinate = side 2 3 2;
    };
    {
      t2_label = "PA & Shared Logs";
      coordinator = side 2 2 1;
      subordinate = side 2 3 0;
    };
    {
      t2_label = "PA & Long Locks";
      coordinator = side 2 2 1;
      subordinate = side 1 3 2;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Table 3: n members, m of them using one optimization                *)
(* ------------------------------------------------------------------ *)

let table3 ~n ~m =
  ("Basic 2PC", basic ~n)
  :: List.map
       (fun opt ->
         ("PA & " ^ optimization_to_string opt, with_optimization opt ~n ~m))
       all_optimizations

(* ------------------------------------------------------------------ *)
(* Table 4: r chained two-member transactions under long locks         *)
(* ------------------------------------------------------------------ *)

(* With last agent, Figure 7 commits two transactions in three flows; an
   odd tail transaction costs two (its delegation and the decision). *)
let table4 ~r =
  [
    ("Basic 2PC", { flows = 4 * r; writes = 5 * r; forced = 3 * r });
    ( "PA & Long Locks (not last agent)",
      { flows = 3 * r; writes = 5 * r; forced = 3 * r } );
    ( "PA & Long Locks (last agent)",
      { flows = (3 * (r / 2)) + (2 * (r mod 2)); writes = 5 * r; forced = 3 * r } );
  ]

(* ------------------------------------------------------------------ *)
(* Group commit (Section 4, "Group Commits")                           *)
(* ------------------------------------------------------------------ *)

(** The paper's stated average saving in forced writes for [n] transactions
    under group size [m], assuming one member of each transaction per node. *)
let group_commit_saving ~n ~m = 3.0 *. float_of_int n /. (2.0 *. float_of_int m)

(* ------------------------------------------------------------------ *)
(* Table 1: qualitative advantages / disadvantages                     *)
(* ------------------------------------------------------------------ *)

type table1_row = {
  t1_optimization : string;
  advantages : string list;
  disadvantages : string list;
}

let table1 : table1_row list =
  [
    {
      t1_optimization = "Read Only";
      advantages =
        [ "fewer messages"; "fewer log writes"; "early release of locks" ];
      disadvantages =
        [
          "no knowledge of the outcome of a transaction";
          "potential serializability problems";
        ];
    };
    {
      t1_optimization = "Last Agent";
      advantages = [ "fewer messages"; "early release of locks" ];
      disadvantages = [ "one extra forced write possible" ];
    };
    {
      t1_optimization = "Unsolicited Vote";
      advantages = [ "fewer messages"; "early release of locks" ];
      disadvantages = [ "application specific" ];
    };
    {
      t1_optimization = "OK To Leave Out";
      advantages = [ "no log writes"; "no messages" ];
      disadvantages = [];
    };
    {
      t1_optimization = "Vote Reliable";
      advantages = [ "fewer message flows" ];
      disadvantages =
        [
          "damage reporting to root coordinator lost if reliable resource \
           does take a heuristic decision";
        ];
    };
    {
      t1_optimization = "Wait For Outcome";
      advantages = [ "2PC doesn't block for most network partitions" ];
      disadvantages =
        [ "complete outcome of transaction may not be known by coordinator" ];
    };
    {
      t1_optimization = "Long Locks";
      advantages = [ "fewer network flows" ];
      disadvantages =
        [
          "commit decision can be delayed and locks held longer if combined \
           with last-agent optimization, and no messages flow for the next \
           transaction (application design problem)";
        ];
    };
    {
      t1_optimization = "Shared Logs";
      advantages = [ "fewer forced writes" ];
      disadvantages =
        [
          "independence of resource manager and transaction manager sacrificed";
        ];
    };
    {
      t1_optimization = "Group Commit";
      advantages =
        [ "fewer forced writes"; "overall system throughput maximized" ];
      disadvantages = [ "longer lock holding times for individual transactions" ];
    };
  ]
