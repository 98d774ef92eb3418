(* Tests of each optimization's behaviour and its Table 3 cost conformance
   over whole trees, including combinations of optimizations. *)

open Tpc.Types
open Test_util
module C = Tpc.Cost_model

(* Table 3 conformance for several (n, m) points per optimization. *)
let test_table3_conformance () =
  List.iter
    (fun opt ->
      List.iter
        (fun (n, m) ->
          let sim = Workload.run_table3 opt ~n ~m in
          let model = C.with_optimization opt ~n ~m in
          Alcotest.check counts
            (Printf.sprintf "%s n=%d m=%d" (C.optimization_to_string opt) n m)
            model sim)
        [ (2, 1); (5, 2); (11, 4); (8, 7) ])
    C.all_optimizations

let test_table3_paper_point () =
  (* the exact n=11, m=4 example printed in the paper *)
  List.iter
    (fun opt ->
      Alcotest.check counts
        (C.optimization_to_string opt ^ " paper example")
        (C.with_optimization opt ~n:11 ~m:4)
        (Workload.run_table3 opt ~n:11 ~m:4))
    C.all_optimizations

(* --- read only ----------------------------------------------------- *)

let test_read_only_needs_opt_enabled () =
  (* without the optimization a read-only member votes YES and logs *)
  let tree = two ~s:(member ~updated:false "S") () in
  let m, _w = run ~config:(cfg ()) tree in
  check_counts "read-only member pays full price without the optimization"
    (C.basic ~n:2) m

let test_read_only_cascaded_all_ro_subtree () =
  (* an intermediate votes read-only only when its whole subtree is *)
  let tree =
    Tree
      ( member "C",
        [
          Tree
            ( member ~updated:false "M",
              [ Tree (member ~updated:false "S", []) ] );
        ] )
  in
  let m, w = run ~config:(cfg ~opts:{ no_opts with read_only = true } ()) tree in
  check_outcome "commits" (Some Committed) m;
  (* M propagates the Prepare and votes read-only upward: two sends, no
     logs; S sends only its read-only vote *)
  check_side "M: Prepare down + RO vote up, no logs" (2, 0, 0) w "M";
  check_side "S: RO vote only, no logs" (1, 0, 0) w "S"

let test_read_only_cascaded_mixed_subtree () =
  (* a read-only intermediate over an updater must vote YES and log *)
  let tree =
    Tree
      ( member "C",
        [ Tree (member ~updated:false "M", [ Tree (member "S", []) ]) ] )
  in
  let m, w = run ~config:(cfg ~opts:{ no_opts with read_only = true } ()) tree in
  check_outcome "commits" (Some Committed) m;
  check_consistent "updater's write lands" w ~txn:"txn-1" ~outcome:Committed;
  let _, m_writes, _ = side_counts w "M" in
  Alcotest.(check bool) "mixed-subtree intermediate logs" true (m_writes > 0)

let test_read_only_all_members () =
  (* all-read-only transaction: one flow per edge, zero log writes (the PA
     read-only case of Table 2 generalized) *)
  let tree = Workload.flat ~decorate:(fun _ p -> { p with p_updated = false }) ~n:6 () in
  let tree = match tree with Tree (c, subs) -> Tree ({ c with p_updated = false }, subs) in
  let m, _w = run ~config:(cfg ~opts:{ no_opts with read_only = true } ()) tree in
  check_counts "2(n-1) flows, no writes"
    { C.flows = 10; writes = 0; forced = 0 }
    m

let test_read_only_early_lock_release () =
  (* Table 1: early release of locks - the read-only member's locks free
     before the root completes, and before updaters' locks free *)
  let tree =
    Tree (member "C", [ Tree (member "U", []); Tree (member ~updated:false "R", []) ])
  in
  let _m, w = run ~config:(cfg ~opts:{ no_opts with read_only = true } ()) tree in
  let t_r = Option.get (Tpc.Trace.locks_released_time w.Tpc.Run.trace "R") in
  let t_u = Option.get (Tpc.Trace.locks_released_time w.Tpc.Run.trace "U") in
  Alcotest.(check bool) "reader released before updater" true (t_r < t_u)

let test_read_only_2pl_hazard_window () =
  (* The paper's caveat: "use of the read-only optimization prior to global
     termination of a transaction may violate two-phase locking".  The
     read-only voter releases its locks while the distributed transaction
     is still in flight; an unrelated transaction can slip in, lock the
     same resource and change it before the global commit completes. *)
  let tree =
    Tree (member "C", [ Tree (member "U", []); Tree (member ~updated:false "R", []) ])
  in
  let config = cfg ~opts:{ no_opts with read_only = true } () in
  let w = Tpc.Run.setup ~config tree in
  Tpc.Run.perform_work w ~txn:"txn-1";
  Tpc.Participant.begin_commit (Tpc.Run.participant w "C") ~txn:"txn-1";
  (* run just past R's read-only vote but before the global decision *)
  Simkernel.Engine.run_until w.Tpc.Run.engine 2.0;
  Alcotest.(check bool) "txn-1 still in flight" true
    (Tpc.Trace.completion_time w.Tpc.Run.trace "C" = None);
  (* an unrelated transaction takes R's just-released lock and updates *)
  Alcotest.(check bool) "intruder locks the resource txn-1 read" true
    (Kvstore.put (Tpc.Run.kv w "R") ~txn:"intruder" ~key:"acct-R"
       ~value:"changed-under-txn-1");
  Kvstore.commit (Tpc.Run.kv w "R") ~txn:"intruder" ~force:true (fun () -> ());
  Simkernel.Engine.run w.Tpc.Run.engine;
  (* the global transaction commits anyway: the schedule is not
     two-phase-locking serializable *)
  Alcotest.(check bool) "global transaction committed regardless" true
    (w.Tpc.Run.outcome = Some Committed);
  Alcotest.(check (option string)) "the resource changed mid-transaction"
    (Some "changed-under-txn-1")
    (Kvstore.committed_value (Tpc.Run.kv w "R") "acct-R")

(* --- last agent ---------------------------------------------------- *)

let test_last_agent_abort_reaches_agent () =
  (* a NO from a normal subordinate aborts before delegation; the last
     agent must still hear the abort to release its resources *)
  let tree =
    Tree
      ( member "C",
        [ Tree (member ~vote_no:true "S1", []); Tree (member "LA", []) ] )
  in
  let m, w = run ~config:(cfg ~opts:{ no_opts with last_agent = true } ()) tree in
  check_outcome "aborted" (Some Aborted) m;
  check_consistent "last agent rolled back too" w ~txn:"txn-1" ~outcome:Aborted

let test_last_agent_votes_no () =
  (* the delegated decision maker itself may abort *)
  let tree = two ~s:(member ~vote_no:true "S") () in
  let m, w = run ~config:(cfg ~opts:{ no_opts with last_agent = true } ()) tree in
  check_outcome "last agent aborts" (Some Aborted) m;
  check_consistent "consistent" w ~txn:"txn-1" ~outcome:Aborted

let test_last_agent_with_other_subordinates () =
  (* phase-one with the others completes before the delegation flow *)
  let tree =
    Tree
      (member "C", [ Tree (member "S1", []); Tree (member "S2", []); Tree (member "LA", []) ])
  in
  let m, w = run ~config:(cfg ~opts:{ no_opts with last_agent = true } ()) tree in
  check_outcome "commits" (Some Committed) m;
  (* n=4, one last agent: 4(n-1) - 2 = 10 flows *)
  check_counts "one delegation edge saves two flows"
    { C.flows = 10; writes = 11; forced = 7 }
    m;
  check_consistent "consistent" w ~txn:"txn-1" ~outcome:Committed

let test_last_agent_delegation_chain () =
  (* each last agent may pick one of its own subordinates as its last
     agent: m cascading delegations *)
  let tree = Workload.flat_with_delegation_chain ~n:5 ~m:3 () in
  let m, _w = run ~config:(cfg ~opts:{ no_opts with last_agent = true } ()) tree in
  check_counts "three delegation edges" (C.with_optimization C.Last_agent_opt ~n:5 ~m:3) m

let test_last_agent_high_latency_saving () =
  (* the motivating case: a satellite-linked partner as last agent halves
     the slow round trips *)
  let config_plain = cfg () in
  let config_la = cfg ~opts:{ no_opts with last_agent = true } () in
  let tree = two () in
  let m_plain, w_plain = run ~config:config_plain tree in
  let m_la, w_la = run ~config:config_la tree in
  ignore w_plain;
  ignore w_la;
  Alcotest.(check bool) "last agent completes no later than baseline" true
    (Option.get m_la.Tpc.Metrics.completion_time
    <= Option.get m_plain.Tpc.Metrics.completion_time)

(* --- unsolicited vote ---------------------------------------------- *)

let test_unsolicited_multiple () =
  let tree =
    Tree
      ( member "C",
        [
          Tree (member ~unsolicited:true "U1", []);
          Tree (member ~unsolicited:true "U2", []);
          Tree (member "S", []);
        ] )
  in
  let m, w =
    run ~config:(cfg ~opts:{ no_opts with unsolicited_vote = true } ()) tree
  in
  check_outcome "commits" (Some Committed) m;
  check_counts "two unsolicited members save two flows"
    (C.with_optimization C.Unsolicited_vote_opt ~n:4 ~m:2)
    m;
  check_consistent "consistent" w ~txn:"txn-1" ~outcome:Committed

let test_unsolicited_ignored_without_opt () =
  (* with the optimization disabled the coordinator prepares everyone *)
  let tree = two ~s:(member ~unsolicited:true "S") () in
  let m, _w = run ~config:(cfg ()) tree in
  check_counts "profile flag alone changes nothing" (C.basic ~n:2) m

(* --- leave out ------------------------------------------------------ *)

let test_leave_out_keeps_other_members () =
  let tree =
    Tree
      ( member "C",
        [
          Tree (member "S", []);
          Tree (member ~left_out:true ~leave_out_ok:true "idle", []);
        ] )
  in
  let m, w = run ~config:(cfg ~opts:{ no_opts with leave_out = true } ()) tree in
  check_outcome "commits without the idle server" (Some Committed) m;
  check_counts "counts as a two-member tree" (C.basic ~n:2) m;
  check_consistent "active members consistent" w ~txn:"txn-1" ~outcome:Committed

let test_leave_out_subtree () =
  (* a left-out intermediate suspends its whole subtree *)
  let tree =
    Tree
      ( member "C",
        [
          Tree (member "S", []);
          Tree
            ( member ~left_out:true ~leave_out_ok:true "idle",
              [ Tree (member "deep", []) ] );
        ] )
  in
  let m, w = run ~config:(cfg ~opts:{ no_opts with leave_out = true } ()) tree in
  check_outcome "commits" (Some Committed) m;
  let touching =
    List.filter
      (function
        | Tpc.Trace.Send { src; dst; _ } ->
            src = "idle" || dst = "idle" || src = "deep" || dst = "deep"
        | _ -> false)
      (Tpc.Trace.events w.Tpc.Run.trace)
  in
  Alcotest.(check int) "whole left-out subtree silent" 0 (List.length touching)

let test_leave_out_requires_opt () =
  let tree =
    two ~s:(member ~left_out:true ~leave_out_ok:true "S") ()
  in
  let m, _w = run ~config:(cfg ()) tree in
  check_counts "without the optimization the member participates"
    (C.basic ~n:2) m

(* --- vote reliable --------------------------------------------------- *)

let test_vote_reliable_intermediate_early_ack () =
  (* Figure 8: with an all-reliable subtree the intermediate acks before
     collecting subordinate acknowledgments *)
  let tree =
    three ~m:(member ~reliable:true "M") ~s:(member ~reliable:true "S") ()
  in
  let m, w = run ~config:(cfg ~opts:{ no_opts with vote_reliable = true } ()) tree in
  check_outcome "commits" (Some Committed) m;
  (* Figure 8: the reliable leaf's ack is implied (one flow saved); the
     reliable cascaded coordinator still acknowledges, merely early *)
  check_counts "one implied ack (the reliable leaf's)"
    (C.with_optimization C.Vote_reliable_opt ~n:3 ~m:1)
    m;
  check_consistent "consistent" w ~txn:"txn-1" ~outcome:Committed;
  (* early acknowledgment: the root completes before the leaf's committed
     record is even forced - verify the intermediate acked early *)
  let events = Tpc.Trace.events w.Tpc.Run.trace in
  let ack_time =
    List.find_map
      (function
        | Tpc.Trace.Send { time; src = "M"; label = "Ack"; _ } -> Some time
        | _ -> None)
      events
  in
  let s_commit_time =
    List.find_map
      (function
        | Tpc.Trace.Log_write
            { time; node = "S"; kind = Wal.Log_record.Committed; _ } ->
            Some time
        | _ -> None)
      events
  in
  match (ack_time, s_commit_time) with
  | Some ta, Some ts ->
      Alcotest.(check bool) "intermediate acked before leaf committed" true
        (ta < ts)
  | _ -> Alcotest.fail "missing ack or leaf commit"

let test_unreliable_member_forces_late_ack () =
  (* one unreliable LRM in the subtree and the intermediate must wait *)
  let tree = three ~m:(member ~reliable:true "M") ~s:(member "S") () in
  let m, _w = run ~config:(cfg ~opts:{ no_opts with vote_reliable = true } ()) tree in
  (* only the intermediate's vote is not reliable (its subtree isn't);
     nobody's ack is elided *)
  check_counts "no elided acks" (C.basic ~n:3) m

(* --- shared log ------------------------------------------------------ *)

let test_shared_log_uses_parent_wal () =
  let tree = two ~s:(member ~shares_parent_log:true "S") () in
  let _m, w = run ~config:(cfg ~opts:{ no_opts with shared_log = true } ()) tree in
  let c = Tpc.Run.node w "C" and s = Tpc.Run.node w "S" in
  Alcotest.(check bool) "same physical log" true (c.Tpc.Run.wal == s.Tpc.Run.wal)

let test_shared_log_durability_rides_tm_force () =
  let tree = two ~s:(member ~shares_parent_log:true "S") () in
  let m, w = run ~config:(cfg ~opts:{ no_opts with shared_log = true } ()) tree in
  check_outcome "commits" (Some Committed) m;
  (* the subordinate's prepared record became durable when the coordinator
     forced its commit record; the later committed/end records stay
     buffered until the *next* force (that is the optimization) *)
  let durable_s =
    List.filter
      (fun (r : Wal.Log_record.t) -> r.node = "S" && Wal.Log_record.is_tm_record r)
      (Wal.Log.durable (Tpc.Run.node w "C").Tpc.Run.wal)
  in
  Alcotest.(check bool) "subordinate prepared record on stable storage" true
    (List.exists
       (fun (r : Wal.Log_record.t) -> r.kind = Wal.Log_record.Prepared)
       durable_s);
  let all_s =
    List.filter
      (fun (r : Wal.Log_record.t) -> r.node = "S" && Wal.Log_record.is_tm_record r)
      (Wal.Log.all_records (Tpc.Run.node w "C").Tpc.Run.wal)
  in
  Alcotest.(check int) "three subordinate records written in total" 3
    (List.length all_s)

let test_shared_log_multiple_members () =
  let tree =
    Tree
      ( member "C",
        [
          Tree (member ~shares_parent_log:true "L1", []);
          Tree (member ~shares_parent_log:true "L2", []);
        ] )
  in
  let m, _w = run ~config:(cfg ~opts:{ no_opts with shared_log = true } ()) tree in
  check_counts "two forced writes saved per sharing LRM"
    (C.with_optimization C.Shared_log_opt ~n:3 ~m:2)
    m

(* --- long locks ------------------------------------------------------ *)

let test_long_locks_coordinator_holds_longer () =
  let plain, w_plain = run ~config:(cfg ()) (two ()) in
  let ll, w_ll =
    run
      ~config:(cfg ~opts:{ no_opts with long_locks = true } ())
      (two ~s:(member ~long_locks:true "S") ())
  in
  ignore plain;
  ignore ll;
  let done_plain = Option.get (Tpc.Trace.completion_time w_plain.Tpc.Run.trace "C") in
  let done_ll = Option.get (Tpc.Trace.completion_time w_ll.Tpc.Run.trace "C") in
  Alcotest.(check bool)
    (Printf.sprintf "deferred ack delays coordinator completion (%.1f > %.1f)"
       done_ll done_plain)
    true (done_ll > done_plain)

let test_long_locks_partial_membership () =
  let tree =
    Tree
      ( member "C",
        [ Tree (member ~long_locks:true "L", []); Tree (member "S", []) ] )
  in
  let m, _w = run ~config:(cfg ~opts:{ no_opts with long_locks = true } ()) tree in
  check_counts "only the flagged member defers its ack"
    (C.with_optimization C.Long_locks_opt ~n:3 ~m:1)
    m

(* --- combinations ----------------------------------------------------- *)

let test_read_only_plus_last_agent () =
  (* the paper: a read-only initiator can delegate without the extra
     prepared force... here: RO members plus a last agent in one tree *)
  let tree =
    Tree
      ( member "C",
        [ Tree (member ~updated:false "R", []); Tree (member "LA", []) ] )
  in
  let m, w =
    run
      ~config:(cfg ~opts:{ no_opts with read_only = true; last_agent = true } ())
      tree
  in
  check_outcome "commits" (Some Committed) m;
  check_consistent "consistent" w ~txn:"txn-1" ~outcome:Committed;
  (* RO edge: 2 flows; delegation edge: 2 flows *)
  Alcotest.(check int) "four flows total" 4 m.Tpc.Metrics.flows

(* A read-only root whose only updating member is its last agent: that
   agent has not voted when the other votes are in, so the root must not
   count it as read-only and finish without it; it delegates, and the
   agent's write is applied and its lock released. *)
let test_read_only_root_plus_last_agent () =
  let tree =
    Tree
      ( member ~updated:false "C",
        [ Tree (member ~updated:false "R", []); Tree (member "LA", []) ] )
  in
  let m, w =
    run
      ~config:(cfg ~opts:{ no_opts with read_only = true; last_agent = true } ())
      tree
  in
  check_outcome "commits" (Some Committed) m;
  check_consistent "the last agent's write is applied" w ~txn:"txn-1"
    ~outcome:Committed;
  (* RO edge: 2 flows; delegation edge: 2 flows *)
  Alcotest.(check int) "four flows total" 4 m.Tpc.Metrics.flows

(* A read-only voter left phase two before any decision: asked about the
   transaction afterwards, it has no information to give, and a re-driven
   abort contradicts nothing it knows. *)
let test_read_only_voter_knows_no_outcome () =
  List.iter
    (fun protocol ->
      let name = protocol_to_string protocol in
      let tree =
        Tree (member "C", [ Tree (member "U", []); Tree (member ~updated:false "R", []) ])
      in
      let m, w =
        run ~config:(cfg ~protocol ~opts:{ no_opts with read_only = true } ()) tree
      in
      check_outcome (name ^ " commits") (Some Committed) m;
      let r = Tpc.Run.participant w "R" in
      let replies label =
        List.length
          (List.filter
             (function
               | Tpc.Trace.Deliver { src = "R"; dst = "C"; label = l; _ } -> l = label
               | _ -> false)
             (Tpc.Trace.events w.Tpc.Run.trace))
      in
      Tpc.Net.inject w.Tpc.Run.net ~src:"C" ~dst:"R"
        [ Tpc.Msg.Inquiry { txn = "txn-1" } ];
      Simkernel.Engine.run w.Tpc.Run.engine;
      Alcotest.(check int) (name ^ " no outcome claimed") 0 (replies "Outcome commit");
      Alcotest.(check int) (name ^ " no information") 1 (replies "NoInformation");
      Tpc.Net.inject w.Tpc.Run.net ~src:"C" ~dst:"R"
        [ Tpc.Msg.Decision_msg { txn = "txn-1"; outcome = Aborted; cert = None } ];
      Simkernel.Engine.run w.Tpc.Run.engine;
      Alcotest.(check int)
        (name ^ " re-driven abort admitted") 0
        (Tpc.Participant.rejected_forgeries r))
    [ Presumed_abort; Basic ]

let test_unsolicited_plus_vote_reliable () =
  let tree = two ~s:(member ~unsolicited:true ~reliable:true "S") () in
  let m, _w =
    run
      ~config:
        (cfg ~opts:{ no_opts with unsolicited_vote = true; vote_reliable = true } ())
      tree
  in
  check_outcome "commits" (Some Committed) m;
  (* vote (unsolicited) + commit, no prepare, no ack: 2 flows *)
  Alcotest.(check int) "two flows" 2 m.Tpc.Metrics.flows

let test_all_optimizations_together () =
  let tree =
    Tree
      ( member "C",
        [
          Tree (member ~updated:false "R", []);
          Tree (member ~unsolicited:true "U", []);
          Tree (member ~reliable:true "V", []);
          Tree (member ~left_out:true ~leave_out_ok:true "O", []);
          Tree (member ~shares_parent_log:true "G", []);
          Tree (member ~long_locks:true "L", []);
          Tree (member "LA", []);
        ] )
  in
  let opts =
    {
      read_only = true;
      last_agent = true;
      unsolicited_vote = true;
      leave_out = true;
      shared_log = true;
      long_locks = true;
      ack = Late_ack;
      vote_reliable = true;
      wait_for_outcome = true;
    }
  in
  let m, w = run ~config:(cfg ~opts ()) tree in
  check_outcome "everything at once still commits" (Some Committed) m;
  check_consistent "and stays consistent" w ~txn:"txn-1" ~outcome:Committed;
  (* edges: R (2 flows), U (3), V (3), O (0), G (4), L (3), LA (2) = 17 *)
  Alcotest.(check int) "flow total matches per-edge sum" 17 m.Tpc.Metrics.flows

let test_early_ack_policy () =
  (* generic early acknowledgment: the intermediate acks right after its
     own commit force, so the root can complete before the leaf acks *)
  let late, w_late = run ~config:(cfg ()) (three ()) in
  let early, w_early = run ~config:(cfg ~opts:{ no_opts with ack = Early_ack } ()) (three ()) in
  ignore w_late;
  ignore w_early;
  Alcotest.(check bool) "early ack completes sooner" true
    (Option.get early.Tpc.Metrics.completion_time
    < Option.get late.Tpc.Metrics.completion_time)

let suite =
  [
    Alcotest.test_case "Table 3 conformance grid" `Quick test_table3_conformance;
    Alcotest.test_case "Table 3 paper point (n=11, m=4)" `Quick
      test_table3_paper_point;
    Alcotest.test_case "read-only needs the optimization" `Quick
      test_read_only_needs_opt_enabled;
    Alcotest.test_case "read-only cascaded all-RO subtree" `Quick
      test_read_only_cascaded_all_ro_subtree;
    Alcotest.test_case "read-only cascaded mixed subtree" `Quick
      test_read_only_cascaded_mixed_subtree;
    Alcotest.test_case "all-read-only transaction" `Quick test_read_only_all_members;
    Alcotest.test_case "read-only early lock release" `Quick
      test_read_only_early_lock_release;
    Alcotest.test_case "read-only lock release breaks 2PL window" `Quick
      test_read_only_2pl_hazard_window;
    Alcotest.test_case "last agent hears aborts" `Quick test_last_agent_abort_reaches_agent;
    Alcotest.test_case "last agent votes no" `Quick test_last_agent_votes_no;
    Alcotest.test_case "last agent with other subordinates" `Quick
      test_last_agent_with_other_subordinates;
    Alcotest.test_case "delegation chain" `Quick test_last_agent_delegation_chain;
    Alcotest.test_case "last agent completion time" `Quick
      test_last_agent_high_latency_saving;
    Alcotest.test_case "multiple unsolicited voters" `Quick test_unsolicited_multiple;
    Alcotest.test_case "unsolicited ignored without opt" `Quick
      test_unsolicited_ignored_without_opt;
    Alcotest.test_case "leave-out keeps other members" `Quick
      test_leave_out_keeps_other_members;
    Alcotest.test_case "leave-out suspends subtree" `Quick test_leave_out_subtree;
    Alcotest.test_case "leave-out requires opt" `Quick test_leave_out_requires_opt;
    Alcotest.test_case "vote-reliable early ack (Figure 8)" `Quick
      test_vote_reliable_intermediate_early_ack;
    Alcotest.test_case "unreliable member forces late ack" `Quick
      test_unreliable_member_forces_late_ack;
    Alcotest.test_case "shared log uses parent WAL" `Quick test_shared_log_uses_parent_wal;
    Alcotest.test_case "shared log durability rides TM force" `Quick
      test_shared_log_durability_rides_tm_force;
    Alcotest.test_case "shared log multiple members" `Quick
      test_shared_log_multiple_members;
    Alcotest.test_case "long locks delay coordinator" `Quick
      test_long_locks_coordinator_holds_longer;
    Alcotest.test_case "long locks partial membership" `Quick
      test_long_locks_partial_membership;
    Alcotest.test_case "read-only + last agent" `Quick test_read_only_plus_last_agent;
    Alcotest.test_case "read-only root + last agent" `Quick
      test_read_only_root_plus_last_agent;
    Alcotest.test_case "unsolicited + vote reliable" `Quick
      test_unsolicited_plus_vote_reliable;
    Alcotest.test_case "all optimizations together" `Quick
      test_all_optimizations_together;
    Alcotest.test_case "early ack policy" `Quick test_early_ack_policy;
    Alcotest.test_case "read-only voter knows no outcome" `Quick
      test_read_only_voter_knows_no_outcome;
  ]
