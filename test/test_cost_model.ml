(* Tests of the closed-form cost model against the numbers printed in the
   paper (Tables 2, 3, 4, corrected for OCR noise as documented in
   DESIGN.md section 3). *)

module C = Tpc.Cost_model

let counts = Alcotest.of_pp C.pp_counts

let test_basic_formula () =
  Alcotest.check counts "n=11 baseline (Table 3 row 1)"
    { C.flows = 40; writes = 32; forced = 21 }
    (C.basic ~n:11);
  Alcotest.check counts "n=2 baseline (Table 2 row 1 totals)"
    { C.flows = 4; writes = 5; forced = 3 }
    (C.basic ~n:2);
  Alcotest.check counts "n=1 degenerate"
    { C.flows = 0; writes = 2; forced = 1 }
    (C.basic ~n:1)

let test_pn_formula () =
  Alcotest.check counts "PN n=2 (Table 2 row 2 totals)"
    { C.flows = 4; writes = 7; forced = 5 }
    (C.presumed_nothing ~n:2 ())

let table3_expected =
  (* (optimization, n=11 m=4 triplet from Table 3, OCR-corrected) *)
  [
    (C.Read_only_opt, (32, 20, 13));
    (C.Last_agent_opt, (32, 32, 21));
    (C.Unsolicited_vote_opt, (36, 32, 21));
    (C.Leave_out_opt, (24, 20, 13));
    (C.Vote_reliable_opt, (36, 32, 21));
    (C.Wait_for_outcome_opt, (40, 32, 21));
    (C.Shared_log_opt, (40, 32, 13));
    (C.Long_locks_opt, (36, 32, 21));
  ]

let test_table3_paper_example () =
  List.iter
    (fun (opt, (f, w, forced)) ->
      Alcotest.check counts
        (C.optimization_to_string opt ^ " n=11 m=4")
        { C.flows = f; writes = w; forced }
        (C.with_optimization opt ~n:11 ~m:4))
    table3_expected

let test_table3_zero_members_is_baseline () =
  List.iter
    (fun opt ->
      Alcotest.check counts
        (C.optimization_to_string opt ^ " with m=0 is baseline")
        (C.basic ~n:7)
        (C.with_optimization opt ~n:7 ~m:0))
    C.all_optimizations

let test_table2_rows () =
  let row label = List.find (fun r -> r.C.t2_label = label) C.table2 in
  let side = Alcotest.(triple int int int) in
  let chk label (cf, cw, cfo) (sf, sw, sfo) =
    let r = row label in
    Alcotest.check side (label ^ " coordinator") (cf, cw, cfo)
      (r.C.coordinator.C.s_flows, r.C.coordinator.C.s_writes, r.C.coordinator.C.s_forced);
    Alcotest.check side (label ^ " subordinate") (sf, sw, sfo)
      (r.C.subordinate.C.s_flows, r.C.subordinate.C.s_writes, r.C.subordinate.C.s_forced)
  in
  chk "Basic 2PC" (2, 2, 1) (2, 3, 2);
  chk "PN" (2, 3, 2) (2, 4, 3);
  chk "PA, Commit case" (2, 2, 1) (2, 3, 2);
  chk "PA, Abort case" (2, 0, 0) (1, 0, 0);
  chk "PA, Read-Only case" (1, 0, 0) (1, 0, 0);
  chk "PA & Last-Agent" (1, 3, 2) (1, 2, 1);
  chk "PA & Unsolicited Vote" (1, 2, 1) (2, 3, 2);
  chk "PA & Leave-Out" (0, 0, 0) (0, 0, 0);
  chk "PA & Shared Logs" (2, 2, 1) (2, 3, 0)

let test_table4 () =
  let rows = C.table4 ~r:12 in
  let get label = List.assoc label rows in
  Alcotest.check counts "basic r=12" { C.flows = 48; writes = 60; forced = 36 }
    (get "Basic 2PC");
  Alcotest.check counts "long locks r=12"
    { C.flows = 36; writes = 60; forced = 36 }
    (get "PA & Long Locks (not last agent)");
  Alcotest.check counts "long locks + last agent r=12"
    { C.flows = 18; writes = 60; forced = 36 }
    (get "PA & Long Locks (last agent)")

let test_table4_odd_tail () =
  (* an odd tail transaction costs two flows: 2 pairs * 3 + 2 *)
  Alcotest.check counts "long locks + last agent r=5"
    { C.flows = 8; writes = 25; forced = 15 }
    (List.assoc "PA & Long Locks (last agent)" (C.table4 ~r:5))

let test_group_commit_saving () =
  Alcotest.(check (float 1e-9)) "3n/2m for n=24 m=4" 9.0
    (C.group_commit_saving ~n:24 ~m:4);
  Alcotest.(check (float 1e-9)) "3n/2m for n=100 m=10" 15.0
    (C.group_commit_saving ~n:100 ~m:10)

let test_savings_never_negative_counts () =
  (* the per-member savings never drive a legal tree's totals negative *)
  List.iter
    (fun opt ->
      for n = 2 to 12 do
        for m = 0 to n - 1 do
          let c = C.with_optimization opt ~n ~m in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d m=%d non-negative"
               (C.optimization_to_string opt) n m)
            true
            (c.C.flows >= 0 && c.C.writes >= 0 && c.C.forced >= 0)
        done
      done)
    C.all_optimizations

let test_table1_covers_all_optimizations () =
  Alcotest.(check int) "nine qualitative rows" 9 (List.length C.table1);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.C.t1_optimization ^ " has at least one advantage")
        true
        (List.length r.C.advantages > 0))
    C.table1

let suite =
  [
    Alcotest.test_case "basic formula" `Quick test_basic_formula;
    Alcotest.test_case "PN formula" `Quick test_pn_formula;
    Alcotest.test_case "Table 3 paper example (n=11, m=4)" `Quick
      test_table3_paper_example;
    Alcotest.test_case "m=0 reduces to baseline" `Quick
      test_table3_zero_members_is_baseline;
    Alcotest.test_case "Table 2 rows" `Quick test_table2_rows;
    Alcotest.test_case "Table 4 (r=12)" `Quick test_table4;
    Alcotest.test_case "Table 4 odd tail (r=5)" `Quick test_table4_odd_tail;
    Alcotest.test_case "group commit saving formula" `Quick test_group_commit_saving;
    Alcotest.test_case "savings never negative" `Quick
      test_savings_never_negative_counts;
    Alcotest.test_case "Table 1 coverage" `Quick test_table1_covers_all_optimizations;
  ]
