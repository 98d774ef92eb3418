(* The concurrent throughput engine: determinism, contention behaviour,
   cross-transaction group commit amortization, piggybacked acks. *)

open Tpc.Types
module M = Tpc.Mixer
module Agg = Tpc.Metrics.Agg

let small_tree ~opts = Workload.mixer_tree ~n:4 ~opts ()

let run_cfg ?(config = default_config) cfg =
  fst (M.run ~config cfg (small_tree ~opts:(opts_to_list config.opts)))

(* -- determinism ---------------------------------------------------- *)

let test_fixed_seed_identical () =
  let cfg = { M.default_cfg with M.txns = 60; concurrency = 4; seed = 7 } in
  let a = run_cfg cfg in
  let b = run_cfg cfg in
  Alcotest.(check string) "identical aggregates" (Agg.to_json a) (Agg.to_json b)

let test_different_seeds_differ () =
  let cfg = { M.default_cfg with M.txns = 60; concurrency = 4; seed = 7 } in
  let a = run_cfg cfg in
  let b = run_cfg { cfg with M.seed = 8 } in
  Alcotest.(check bool) "different seeds, different runs" true
    (Agg.to_json a <> Agg.to_json b)

(* -- liveness and sanity -------------------------------------------- *)

let test_all_transactions_resolve () =
  let cfg = { M.default_cfg with M.txns = 80; concurrency = 8; seed = 3 } in
  let agg = run_cfg cfg in
  Alcotest.(check int) "all resolved" cfg.M.txns (agg.Agg.committed + agg.Agg.aborted);
  Alcotest.(check bool) "some commits" true (agg.Agg.committed > 0);
  Alcotest.(check int) "consistent" 0 agg.Agg.consistency_violations;
  Alcotest.(check bool) "positive throughput" true (agg.Agg.throughput > 0.0);
  Alcotest.(check bool) "latency percentiles ordered" true
    (agg.Agg.commit_latency_p50 <= agg.Agg.commit_latency_p95
    && agg.Agg.commit_latency_p95 <= agg.Agg.commit_latency_p99)

(* -- contention ----------------------------------------------------- *)

let contended_cfg =
  {
    M.concurrency = 16;
    txns = 80;
    keyspace = 2;
    update_prob = 0.9;
    read_prob = 0.1;
    base_interarrival = 16.0;
    lock_timeout = 40.0;
    seed = 11;
  }

let test_contention_aborts_stay_consistent () =
  let agg = run_cfg contended_cfg in
  Alcotest.(check bool) "nonzero aborts under contention" true
    (agg.Agg.aborted > 0);
  Alcotest.(check bool) "still commits" true (agg.Agg.committed > 0);
  Alcotest.(check bool) "locks actually queued" true (agg.Agg.lock_waits > 0);
  Alcotest.(check int) "every committed txn consistent" 0
    agg.Agg.consistency_violations

let test_uncontended_no_aborts () =
  let cfg =
    {
      M.default_cfg with
      M.txns = 40;
      concurrency = 1;
      keyspace = 64;
      update_prob = 0.5;
      seed = 5;
    }
  in
  let agg = run_cfg cfg in
  Alcotest.(check int) "no aborts when uncontended" 0 agg.Agg.aborted;
  Alcotest.(check int) "consistent" 0 agg.Agg.consistency_violations

(* -- group commit across transactions ------------------------------- *)

let test_group_commit_amortizes_across_concurrency () =
  let config =
    default_config |> with_group_commit ~size:16 ~timeout:2.0
  in
  let base = { M.default_cfg with M.txns = 80; keyspace = 32; seed = 9 } in
  let solo = run_cfg ~config { base with M.concurrency = 1 } in
  let packed = run_cfg ~config { base with M.concurrency = 16 } in
  Alcotest.(check bool) "both runs commit" true
    (solo.Agg.committed > 0 && packed.Agg.committed > 0);
  Alcotest.(check int) "solo consistent" 0 solo.Agg.consistency_violations;
  Alcotest.(check int) "packed consistent" 0 packed.Agg.consistency_violations;
  Alcotest.(check bool)
    (Printf.sprintf "fewer force I/Os per commit at 16x (%.3f < %.3f)"
       packed.Agg.force_ios_per_commit solo.Agg.force_ios_per_commit)
    true
    (packed.Agg.force_ios_per_commit < solo.Agg.force_ios_per_commit)

(* -- long-locks acks ride real next transactions -------------------- *)

let test_long_locks_piggyback_on_arrivals () =
  let config =
    default_config
    |> with_opts [ `Long_locks ]
    |> with_implied_ack_delay 500.0
  in
  let cfg =
    { M.default_cfg with M.txns = 40; concurrency = 8; seed = 13 }
  in
  let agg, w = M.run ~config cfg (small_tree ~opts:[ `Long_locks ]) in
  Alcotest.(check int) "all resolved" cfg.M.txns
    (agg.Agg.committed + agg.Agg.aborted);
  Alcotest.(check int) "consistent" 0 agg.Agg.consistency_violations;
  Alcotest.(check bool) "data messages carried the deferred acks" true
    (agg.Agg.data_flows > 0);
  (* with think time at 500 and mean inter-arrival ~2, most commits must
     have been released by a real arrival long before the timer *)
  Alcotest.(check bool)
    (Printf.sprintf "p50 commit latency %.1f beats the think-time timer"
       agg.Agg.commit_latency_p50)
    true
    (agg.Agg.commit_latency_p50 < 500.0);
  ignore w

(* -- leave-out below a cascaded coordinator --------------------------- *)

(* root -> cascaded coordinator "mid" -> pure server "leaf".  Once a
   committed YES has suspended "leaf", any transaction that gives it no work
   must be committed without it: the left-out decision is taken by "mid",
   one level below the root, from the idle marks the mixer's walk left
   there. *)
let test_leave_out_under_cascaded_coordinator () =
  let tree =
    Tree
      ( member "root",
        [
          Tree (member "mid", [ Tree (member ~leave_out_ok:true "leaf", []) ]);
          Tree (member "side", []);
        ] )
  in
  let config = default_config |> with_opts [ `Leave_out ] in
  let cfg =
    {
      M.default_cfg with
      M.txns = 40;
      keyspace = 64;
      update_prob = 0.5;
      read_prob = 0.0;
      seed = 3;
    }
  in
  let agg, w = M.run ~config cfg tree in
  Alcotest.(check int) "all resolved" cfg.M.txns
    (agg.Agg.committed + agg.Agg.aborted);
  Alcotest.(check int) "consistent" 0 agg.Agg.consistency_violations;
  let left_out_by_mid =
    List.length
      (List.filter
         (function
           | Tpc.Trace.Note { node = "mid"; text; _ } ->
               text = "leaves out suspended server leaf"
           | _ -> false)
         (Tpc.Trace.events w.Tpc.Run.trace))
  in
  Alcotest.(check bool)
    (Printf.sprintf "mid left leaf out (%d times)" left_out_by_mid)
    true (left_out_by_mid > 0)

(* -- JSON round-trip ------------------------------------------------ *)

let test_agg_json_round_trips () =
  let agg = run_cfg { M.default_cfg with M.txns = 30; concurrency = 4 } in
  let line = Agg.to_json agg in
  let parsed = Tpc.Json.parse line in
  let get_f name =
    match Option.map Tpc.Json.to_float_opt (Tpc.Json.member name parsed) with
    | Some (Some f) -> f
    | _ -> Alcotest.failf "missing field %s in %s" name line
  in
  let get_i name =
    match Option.map Tpc.Json.to_int_opt (Tpc.Json.member name parsed) with
    | Some (Some i) -> i
    | _ -> Alcotest.failf "missing field %s in %s" name line
  in
  Alcotest.(check int) "committed" agg.Agg.committed (get_i "committed");
  Alcotest.(check (float 1e-9)) "throughput" agg.Agg.throughput (get_f "throughput");
  Alcotest.(check (float 1e-9)) "p99" agg.Agg.commit_latency_p99
    (get_f "commit_latency_p99");
  Alcotest.(check (float 1e-9)) "abort rate" agg.Agg.abort_rate (get_f "abort_rate");
  (* print -> parse -> print is a fixpoint *)
  Alcotest.(check string) "fixpoint" line (Tpc.Json.to_string parsed)

(* -- the reap watchdog ------------------------------------------------ *)

let events_processed (w : Tpc.Run.world) =
  (Simkernel.Engine.stats w.Tpc.Run.engine).Simkernel.Engine.events_processed

(* An armed fault plan, even an empty one, arms the reap watchdog at each
   commit, and the watchdog stops once the root reports Committed.  So a
   fault-free world, where every transaction that starts its commit
   commits, processes exactly the events of the same world unarmed.  A
   reap left to fire after each commit added one event per commit. *)
let test_reap_stops_at_committed () =
  let cfg = { M.default_cfg with M.txns = 60; concurrency = 4; seed = 7 } in
  let tree = Workload.flat ~n:4 () in
  let run inject =
    let agg, w, _ = M.run_full ?inject cfg tree in
    (agg.Agg.committed, events_processed w)
  in
  let committed, unarmed = run None in
  let committed', armed = run (Some (Faultlab.inject [])) in
  Alcotest.(check int) "every transaction committed" 60 committed;
  Alcotest.(check int) "the same commits armed" committed committed';
  Alcotest.(check int) "events with an empty plan armed" unarmed armed

(* The root dies after sub0's Prepare was lost, so sub0 never votes: no
   protocol state there will ever release its locks.  The reap watchdog,
   [lock_timeout] after the commit started, abandons sub0's branch; sub1,
   which voted, stays in doubt and keeps its write set.  The second
   transaction is the one hit: the first arrives at time 0, before any
   fault can be armed. *)
let test_reap_abandons_unprepared_branch () =
  let cfg =
    { M.default_cfg with M.txns = 2; keyspace = 100_000; update_prob = 1.0;
      read_prob = 0.0; seed = 1 }
  in
  let tree = Workload.flat ~n:3 () in
  (* no lock is contended, so a commit starts when its transaction
     arrives *)
  let first_done, arrival =
    match M.run_full cfg tree with
    | _, _, [ a; b ] -> (Option.get a.M.ts_completed, b.M.ts_arrival)
    | _ -> Alcotest.fail "expected two transactions"
  in
  let armed = arrival -. 0.25 in
  Alcotest.(check bool) "mx-1 is over before the fault is armed" true (first_done < armed);
  let plan =
    [
      Faultlab.Drop { at = armed; src = "coord"; dst = "sub0"; nth = 1 };
      Faultlab.Crash { at = arrival +. 0.5; node = "coord"; restart_after = None };
    ]
  in
  let _, w, summaries = M.run_full ~inject:(Faultlab.inject plan) cfg tree in
  let txn = "mx-2" in
  let holds name = Lockmgr.holds_any (Kvstore.locks (Tpc.Run.kv w name)) ~txn in
  let updated name = Kvstore.is_updated (Tpc.Run.kv w name) ~txn in
  (match summaries with
  | [ _; s ] ->
      Alcotest.(check bool) "the commit started" true s.M.ts_commit_started;
      Alcotest.(check bool) "the root never reported" true (s.M.ts_outcome = None)
  | _ -> Alcotest.fail "expected two transactions");
  Alcotest.(check bool) "sub0 released its locks" false (holds "sub0");
  Alcotest.(check bool) "sub0 dropped its write set" false (updated "sub0");
  Alcotest.(check bool) "sub1 is in doubt" true
    (Tpc.Participant.is_in_doubt (Tpc.Run.participant w "sub1") ~txn);
  Alcotest.(check bool) "sub1 keeps its locks" true (holds "sub1")

(* A workload no run can have is refused before any world is built. *)
let test_impossible_workloads_rejected () =
  let tree = Workload.flat ~n:3 () in
  let rejects (what, cfg) =
    match M.run_full cfg tree with
    | _ -> Alcotest.failf "run_full accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  let base = { M.default_cfg with M.txns = 5 } in
  List.iter rejects
    [
      ("no transactions", { base with M.txns = 0 });
      ("keyspace 0", { base with M.keyspace = 0 });
      ("keyspace -1", { base with M.keyspace = -1 });
      ("lock_timeout -1", { base with M.lock_timeout = -1.0 });
      ("lock_timeout nan", { base with M.lock_timeout = nan });
      ("base_interarrival -1", { base with M.base_interarrival = -1.0 });
      ("base_interarrival inf", { base with M.base_interarrival = infinity });
      ("update_prob -1", { base with M.update_prob = -1.0 });
      ("update_prob nan", { base with M.update_prob = nan });
      ("update_prob 2", { base with M.update_prob = 2.0 });
      ("read_prob nan", { base with M.read_prob = nan });
      ("probabilities summing to 1.8", { base with M.update_prob = 0.9; read_prob = 0.9 });
    ];
  (* the edges stay legal *)
  let agg, _, _ =
    M.run_full
      { base with M.keyspace = 1; lock_timeout = 0.0; base_interarrival = 0.0;
        update_prob = 0.9; read_prob = 0.1 }
      tree
  in
  Alcotest.(check int) "every transaction decided" 5
    (agg.Tpc.Metrics.Agg.committed + agg.Tpc.Metrics.Agg.aborted)

let suite =
  [
    Alcotest.test_case "fixed seed: identical aggregates" `Quick
      test_fixed_seed_identical;
    Alcotest.test_case "different seeds differ" `Quick
      test_different_seeds_differ;
    Alcotest.test_case "all transactions resolve" `Quick
      test_all_transactions_resolve;
    Alcotest.test_case "contention aborts, stays consistent" `Quick
      test_contention_aborts_stay_consistent;
    Alcotest.test_case "no contention, no aborts" `Quick
      test_uncontended_no_aborts;
    Alcotest.test_case "group commit amortizes across transactions" `Quick
      test_group_commit_amortizes_across_concurrency;
    Alcotest.test_case "long-locks acks ride real arrivals" `Quick
      test_long_locks_piggyback_on_arrivals;
    Alcotest.test_case "leave-out under a cascaded coordinator" `Quick
      test_leave_out_under_cascaded_coordinator;
    Alcotest.test_case "aggregate JSON round-trips" `Quick
      test_agg_json_round_trips;
    Alcotest.test_case "impossible workloads rejected" `Quick
      test_impossible_workloads_rejected;
    Alcotest.test_case "reap watchdog stops at Committed" `Quick
      test_reap_stops_at_committed;
    Alcotest.test_case "reap abandons a branch never prepared" `Quick
      test_reap_abandons_unprepared_branch;
  ]
