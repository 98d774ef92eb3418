(* Tests of the chained-transaction streams (Table 4, Figure 7) and of the
   group-commit log-manager analysis, all run through the participants of
   an ordinary two-member world. *)

open Tpc.Types
module R = Tpc.Run
module C = Tpc.Cost_model

let run mode r = fst (R.chain mode ~r)

let test_basic_chain_counts () =
  List.iter
    (fun r ->
      let res = run R.Chain_basic r in
      Alcotest.(check int) (Printf.sprintf "4r flows (r=%d)" r) (4 * r) res.R.flows;
      Alcotest.(check int) "5r writes" (5 * r) res.R.writes;
      Alcotest.(check int) "3r forced" (3 * r) res.R.forced;
      Alcotest.(check int) "no data flows" 0 res.R.data_flows)
    [ 1; 2; 5; 12 ]

let test_long_locks_chain_counts () =
  List.iter
    (fun r ->
      let res = run R.Chain_long_locks r in
      Alcotest.(check int) (Printf.sprintf "3r flows (r=%d)" r) (3 * r) res.R.flows;
      Alcotest.(check int) "5r writes" (5 * r) res.R.writes;
      Alcotest.(check int) "3r forced" (3 * r) res.R.forced;
      Alcotest.(check int) "one data flow per txn carries the ack" r
        res.R.data_flows)
    [ 1; 2; 5; 12 ]

let test_ll_last_agent_chain_counts_even () =
  List.iter
    (fun r ->
      let res = run R.Chain_long_locks_last_agent r in
      Alcotest.(check int)
        (Printf.sprintf "3r/2 flows (r=%d)" r)
        (3 * r / 2) res.R.flows;
      Alcotest.(check int) "5r writes" (5 * r) res.R.writes;
      Alcotest.(check int) "3r forced" (3 * r) res.R.forced)
    [ 2; 4; 12; 20 ]

let test_ll_last_agent_chain_odd_tail () =
  (* an odd stream ends with a lone delegated transaction: 2 flows for it *)
  let res = run R.Chain_long_locks_last_agent 5 in
  Alcotest.(check int) "2 pairs * 3 + tail * 2" 8 res.R.flows;
  Alcotest.(check int) "writes unchanged" 25 res.R.writes

let test_table4_paper_row () =
  (* the exact r=12 example printed in Table 4 *)
  let expected = C.table4 ~r:12 in
  let basic = run R.Chain_basic 12 in
  let ll = run R.Chain_long_locks 12 in
  let lla = run R.Chain_long_locks_last_agent 12 in
  let check label (res : R.chain_result) =
    let model = List.assoc label expected in
    Alcotest.(check (triple int int int)) label
      (model.C.flows, model.C.writes, model.C.forced)
      (res.R.flows, res.R.writes, res.R.forced)
  in
  check "Basic 2PC" basic;
  check "PA & Long Locks (not last agent)" ll;
  check "PA & Long Locks (last agent)" lla

let test_long_locks_holds_coordinator_locks_longer () =
  (* Table 1 / Figure 7: the flow saving costs coordinator lock time *)
  let basic = run R.Chain_basic 10 in
  let ll = run R.Chain_long_locks 10 in
  Alcotest.(check bool)
    (Printf.sprintf "long locks hold time %.2f > basic %.2f"
       ll.R.mean_coordinator_lock_time basic.R.mean_coordinator_lock_time)
    true
    (ll.R.mean_coordinator_lock_time > basic.R.mean_coordinator_lock_time)

let test_chains_commit_every_transaction () =
  (* every transaction of every mode leaves commit records at both members *)
  List.iter
    (fun mode ->
      let _, w = R.chain mode ~r:6 in
      let committed_txns =
        List.filter_map
          (function
            | Tpc.Trace.Log_write
                { node; kind = Wal.Log_record.Committed; _ } ->
                Some node
            | _ -> None)
          (Tpc.Trace.events w.R.trace)
      in
      Alcotest.(check int)
        (R.chain_mode_to_string mode ^ ": 2 commit records per txn")
        12
        (List.length committed_txns))
    [ R.Chain_basic; R.Chain_long_locks; R.Chain_long_locks_last_agent ]

(* --- re-rooting --------------------------------------------------------- *)

let test_subordinate_initiates () =
  (* in a C -> S world, S initiates: the tree is re-rooted at S, C is its
     subordinate, and the commit costs the plain four flows *)
  let w = R.setup (Tree (member "C", [ Tree (member "S", []) ])) in
  let outcome = ref None in
  Tpc.Participant.set_on_root_complete (R.participant w "S")
    (fun ~txn:_ o ~pending:_ -> outcome := Some o);
  R.perform_work w ~txn:"t1";
  Tpc.Participant.begin_commit (R.participant w "S") ~txn:"t1";
  Simkernel.Engine.run w.R.engine;
  Alcotest.(check int) "PA: 4 flows" 4 (Tpc.Trace.flows w.R.trace);
  Alcotest.(check bool) "S's application learns commit" true
    (!outcome = Some Committed);
  Alcotest.(check bool) "both members apply the update" true
    (R.consistent w ~txn:"t1" ~outcome:Committed);
  List.iter
    (fun name ->
      Alcotest.(check (list (pair string string)))
        (name ^ " resolved everything") []
        (Tpc.Participant.unresolved_txns (R.participant w name)))
    [ "C"; "S" ];
  Alcotest.(check int) "nothing refused" 0
    (Tpc.Participant.rejected_forgeries (R.participant w "S"))

(* --- group commit ----------------------------------------------------- *)

let test_group_commit_reduces_ios () =
  let solo = R.group_commit ~n:24 ~group_size:1 () in
  let grouped = R.group_commit ~n:24 ~group_size:4 () in
  Alcotest.(check int) "same force requests" solo.R.gc_force_requests
    grouped.R.gc_force_requests;
  Alcotest.(check bool)
    (Printf.sprintf "fewer I/Os (%d < %d)" grouped.R.gc_force_ios
       solo.R.gc_force_ios)
    true
    (grouped.R.gc_force_ios < solo.R.gc_force_ios)

let test_group_commit_request_count_is_3n () =
  (* three forced writes per two-member transaction *)
  let r = R.group_commit ~n:10 ~group_size:2 () in
  Alcotest.(check int) "3n force requests" 30 r.R.gc_force_requests

let test_group_commit_saving_grows_with_group_size () =
  let ios m = (R.group_commit ~n:32 ~group_size:m ()).R.gc_force_ios in
  let i1 = ios 1 and i4 = ios 4 and i8 = ios 8 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %d >= %d >= %d" i1 i4 i8)
    true
    (i1 >= i4 && i4 >= i8)

let test_group_commit_latency_cost () =
  (* Table 1's disadvantage: longer lock holding / commit latency *)
  let solo = R.group_commit ~n:16 ~group_size:1 () in
  let grouped = R.group_commit ~n:16 ~group_size:8 ~timeout:10.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "grouped commits wait (%.2f >= %.2f)"
       grouped.R.gc_mean_commit_latency solo.R.gc_mean_commit_latency)
    true
    (grouped.R.gc_mean_commit_latency >= solo.R.gc_mean_commit_latency)

let test_group_commit_timeout_bounds_delay () =
  (* a batch that never fills still flushes within the timeout *)
  let r = R.group_commit ~n:3 ~group_size:64 ~timeout:2.0 () in
  Alcotest.(check int) "all transactions complete" 3 r.R.gc_transactions;
  Alcotest.(check bool) "every force request served" true
    (r.R.gc_force_requests = 9 && r.R.gc_force_ios >= 1)

let test_group_commit_paper_formula_reported () =
  let r = R.group_commit ~n:24 ~group_size:4 () in
  Alcotest.(check (float 1e-9)) "paper saving column is 3n/2m" 9.0
    r.R.gc_paper_saving

let suite =
  [
    Alcotest.test_case "basic chain counts" `Quick test_basic_chain_counts;
    Alcotest.test_case "long-locks chain counts" `Quick test_long_locks_chain_counts;
    Alcotest.test_case "long-locks+last-agent counts (even r)" `Quick
      test_ll_last_agent_chain_counts_even;
    Alcotest.test_case "long-locks+last-agent odd tail" `Quick
      test_ll_last_agent_chain_odd_tail;
    Alcotest.test_case "Table 4 paper row (r=12)" `Quick test_table4_paper_row;
    Alcotest.test_case "long locks hold coordinator locks longer" `Quick
      test_long_locks_holds_coordinator_locks_longer;
    Alcotest.test_case "chains commit every transaction" `Quick
      test_chains_commit_every_transaction;
    Alcotest.test_case "re-rooted transaction without last agent" `Quick
      test_subordinate_initiates;
    Alcotest.test_case "group commit reduces I/Os" `Quick test_group_commit_reduces_ios;
    Alcotest.test_case "group commit 3n requests" `Quick
      test_group_commit_request_count_is_3n;
    Alcotest.test_case "group commit saving monotone" `Quick
      test_group_commit_saving_grows_with_group_size;
    Alcotest.test_case "group commit latency cost" `Quick test_group_commit_latency_cost;
    Alcotest.test_case "group commit timeout bound" `Quick
      test_group_commit_timeout_bounds_delay;
    Alcotest.test_case "group commit paper formula" `Quick
      test_group_commit_paper_formula_reported;
  ]
