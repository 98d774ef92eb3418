(* Crash/recovery tests: the failure matrix of DESIGN.md section 5.
   Crashes are injected at every protocol step, with and without restart,
   under each protocol; tests assert outcome, atomicity among live members,
   and the protocol-specific recovery behaviours (PA presumption, PN
   coordinator-driven recovery, wait-for-outcome). *)

open Tpc.Types
open Test_util

let fault node point ?restart () =
  { f_node = node; f_point = point; f_restart_after = restart }

(* After a run with faults, every *live* updated member must agree with the
   outcome; crashed-forever members are unobservable. *)
let live_consistent w ~txn ~outcome =
  List.for_all
    (fun (name, n) ->
      Tpc.Participant.is_crashed n.Tpc.Run.participant
      || (not n.Tpc.Run.profile.p_updated)
      ||
      let v = Kvstore.committed_value n.Tpc.Run.kv ("acct-" ^ name) in
      match outcome with
      | Committed -> v = Some ("upd-by-" ^ txn)
      | Aborted -> v = None)
    w.Tpc.Run.nodes

let check_live name w ~outcome =
  Alcotest.(check bool) name true (live_consistent w ~txn:"txn-1" ~outcome)

(* --- subordinate crashes -------------------------------------------- *)

let test_sub_crash_on_prepare_no_restart () =
  (* the silent member is treated as a NO vote after the timeout *)
  List.iter
    (fun protocol ->
      let config = cfg ~protocol ~faults:[ fault "S" Cp_on_prepare () ] () in
      let m, w = run ~config (two ()) in
      check_outcome (protocol_to_string protocol ^ ": silent vote aborts")
        (Some Aborted) m;
      check_live (protocol_to_string protocol ^ ": live members rolled back") w
        ~outcome:Aborted)
    [ Basic; Presumed_abort; Presumed_nothing ]

let test_sub_crash_after_prepared_before_vote () =
  (* prepared durable but vote unsent: coordinator aborts on timeout; the
     restarted subordinate finds itself in doubt and learns the abort *)
  let config =
    cfg ~faults:[ fault "S" Cp_after_prepared_log ~restart:40.0 () ] ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "aborts" (Some Aborted) m;
  check_live "restarted sub rolled back by presumption" w ~outcome:Aborted;
  Alcotest.(check (list string)) "no transaction left in doubt" []
    (Kvstore.in_doubt (Tpc.Run.kv w "S"))

let test_sub_crash_in_doubt_with_restart () =
  (* the classic in-doubt window: S restarts and inquires (PA) *)
  let config = cfg ~faults:[ fault "S" Cp_after_vote ~restart:10.0 () ] () in
  let m, w = run ~config (two ()) in
  check_outcome "commit completes" (Some Committed) m;
  check_live "restarted sub commits after inquiry" w ~outcome:Committed;
  Alcotest.(check (list string)) "in-doubt resolved" []
    (Kvstore.in_doubt (Tpc.Run.kv w "S"))

let test_sub_crash_in_doubt_basic () =
  let config =
    cfg ~protocol:Basic ~faults:[ fault "S" Cp_after_vote ~restart:10.0 () ] ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "basic also completes" (Some Committed) m;
  check_live "consistent" w ~outcome:Committed

let test_sub_crash_in_doubt_pn () =
  (* PN: the coordinator keeps re-driving the decision until acked *)
  let config =
    cfg ~protocol:Presumed_nothing
      ~faults:[ fault "S" Cp_after_vote ~restart:30.0 () ]
      ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "PN completes after re-drive" (Some Committed) m;
  check_live "consistent" w ~outcome:Committed

let test_sub_crash_after_decision_received () =
  (* S crashes with the commit decision known but not durable; prepared is
     durable, so restart leaves it in doubt and recovery commits it *)
  let config =
    cfg ~faults:[ fault "S" Cp_after_decision_received ~restart:10.0 () ] ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "commits" (Some Committed) m;
  check_live "re-delivered decision applied" w ~outcome:Committed

let test_sub_crash_before_ack_with_restart () =
  (* S committed durably but the ack was lost with the crash: the
     coordinator retries, the restarted S re-acknowledges from its log *)
  let config = cfg ~faults:[ fault "S" Cp_before_ack ~restart:30.0 () ] () in
  let m, w = run ~config (two ()) in
  check_outcome "completes" (Some Committed) m;
  check_live "consistent" w ~outcome:Committed

let test_cascaded_crash_in_doubt () =
  (* the intermediate crashes in doubt; on restart it inquires upward and
     re-drives its own subtree *)
  let config = cfg ~faults:[ fault "M" Cp_after_vote ~restart:10.0 () ] () in
  let m, w = run ~config (three ()) in
  check_outcome "three-level tree completes" (Some Committed) m;
  check_live "whole chain consistent" w ~outcome:Committed

(* --- coordinator crashes -------------------------------------------- *)

let test_coord_crash_before_decision_pa () =
  (* PA: no durable state at the coordinator; the prepared subordinate
     inquires, gets "no information" and aborts by presumption *)
  let config = cfg ~faults:[ fault "C" Cp_before_decision_log () ] () in
  let m, w = run ~config (two ()) in
  check_outcome "root never completes" None m;
  Simkernel.Engine.run w.Tpc.Run.engine;
  Alcotest.(check (list string)) "S resolved by presumed abort" []
    (Kvstore.in_doubt (Tpc.Run.kv w "S"));
  check_live "S rolled back" w ~outcome:Aborted

let test_coord_crash_before_decision_basic_blocks () =
  (* the baseline protocol can block: with the coordinator gone forever the
     prepared subordinate stays in doubt until its own inquiry is answered;
     our basic variant answers inquiries with the abort presumption after
     restart only, so without restart S eventually aborts via inquiry to a
     dead node... it must at least never commit unilaterally *)
  let config =
    cfg ~protocol:Basic ~max_retries:3
      ~faults:[ fault "C" Cp_before_decision_log () ]
      ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "no outcome at root" None m;
  Alcotest.(check (option string)) "S never applied the update" None
    (Kvstore.committed_value (Tpc.Run.kv w "S") "acct-S")

let test_coord_crash_after_commit_log_restart () =
  (* commit record durable: recovery re-drives commit to all children *)
  List.iter
    (fun protocol ->
      let config =
        cfg ~protocol ~faults:[ fault "C" Cp_after_decision_log ~restart:10.0 () ] ()
      in
      let m, w = run ~config (two ()) in
      check_outcome (protocol_to_string protocol ^ ": commit survives crash")
        (Some Committed) m;
      check_live (protocol_to_string protocol ^ ": consistent") w
        ~outcome:Committed)
    [ Basic; Presumed_abort; Presumed_nothing ]

let test_coord_crash_after_commit_log_no_restart () =
  (* coordinator never returns: the in-doubt subordinate blocks (PA keeps
     inquiring a dead node) - it must not heuristically decide on its own
     without a policy *)
  let config =
    cfg ~max_retries:3 ~faults:[ fault "C" Cp_after_decision_log () ] ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "root gone" None m;
  (* S stays blocked in doubt: the update is neither applied nor rolled
     back, and its exclusive lock is still held *)
  Alcotest.(check (option string)) "update not applied" None
    (Kvstore.committed_value (Tpc.Run.kv w "S") "acct-S");
  Alcotest.(check bool) "lock still held by the blocked transaction" false
    (Kvstore.can_lock (Tpc.Run.kv w "S") ~txn:"other" ~key:"acct-S"
       Lockmgr.Exclusive)

let test_pn_coord_crash_after_commit_pending () =
  (* PN: commit-pending durable but no outcome: recovery aborts and drives
     the subordinates to abort *)
  let config =
    cfg ~protocol:Presumed_nothing
      ~faults:[ fault "C" Cp_after_commit_pending ~restart:10.0 () ]
      ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "PN recovery aborts" (Some Aborted) m;
  check_live "subordinates aborted by coordinator recovery" w ~outcome:Aborted;
  Alcotest.(check (list string)) "nothing in doubt" []
    (Kvstore.in_doubt (Tpc.Run.kv w "S"))

let test_pn_sub_waits_for_coordinator () =
  (* PN subordinates do not inquire: with the coordinator down between
     commit-pending and decision, a prepared subordinate stays in doubt
     until the coordinator recovers *)
  let config =
    cfg ~protocol:Presumed_nothing
      ~faults:[ fault "C" Cp_after_commit_pending ~restart:120.0 () ]
      ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "resolved only after coordinator recovery" (Some Aborted) m;
  Alcotest.(check bool) "resolution happened after restart at t=120" true
    (m.Tpc.Metrics.quiesce_time > 120.0);
  check_live "consistent" w ~outcome:Aborted

(* --- retransmission ------------------------------------------------- *)

let test_decision_retransmitted_until_acked () =
  let config =
    cfg ~retry_interval:20.0
      ~faults:[ fault "S" Cp_after_decision_received ~restart:50.0 () ]
      ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "commit completes despite lost decision" (Some Committed) m;
  (* the coordinator must have sent the Commit decision more than once *)
  let commits_to_s =
    List.filter
      (function
        | Tpc.Trace.Send { src = "C"; dst = "S"; label = "Commit"; _ } -> true
        | _ -> false)
      (Tpc.Trace.events w.Tpc.Run.trace)
  in
  Alcotest.(check bool) "decision retransmitted" true (List.length commits_to_s >= 2)

let test_duplicate_decision_is_idempotent () =
  (* deliver an extra Commit after the transaction finished: the
     subordinate must re-acknowledge without reapplying anything *)
  let m, w = run ~config:(cfg ()) (two ()) in
  check_outcome "commits" (Some Committed) m;
  ignore
    (Tpc.Net.send w.Tpc.Run.net ~src:"C" ~dst:"S"
       [ Tpc.Msg.Decision_msg { txn = "txn-1"; outcome = Committed; cert = None } ]);
  Simkernel.Engine.run w.Tpc.Run.engine;
  Alcotest.(check (option string)) "value applied exactly once"
    (Some "upd-by-txn-1")
    (Kvstore.committed_value (Tpc.Run.kv w "S") "acct-S");
  (* and the duplicate was answered so the sender can forget *)
  let acks_from_s =
    List.filter
      (function
        | Tpc.Trace.Send { src = "S"; label = "Ack"; _ } -> true
        | _ -> false)
      (Tpc.Trace.events w.Tpc.Run.trace)
  in
  Alcotest.(check int) "duplicate re-acknowledged" 2 (List.length acks_from_s)

(* --- wait for outcome ------------------------------------------------ *)

let test_wait_for_outcome_returns_pending () =
  let config =
    cfg
      ~opts:{ no_opts with wait_for_outcome = true }
      ~faults:[ fault "S" Cp_before_ack () ]
      ()
  in
  let m, _w = run ~config (two ()) in
  check_outcome "commit reported" (Some Committed) m;
  Alcotest.(check bool) "with outcome-pending indication" true
    m.Tpc.Metrics.pending

let test_wait_for_outcome_background_resolution () =
  (* one attempt, then pending; the subordinate restarts later and the
     background retries resolve the transaction *)
  let config =
    cfg
      ~opts:{ no_opts with wait_for_outcome = true }
      ~faults:[ fault "S" Cp_before_ack ~restart:80.0 () ]
      ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "commit reported" (Some Committed) m;
  Alcotest.(check bool) "reported pending first" true m.Tpc.Metrics.pending;
  Alcotest.(check bool) "root completed long before the restart" true
    (Option.get m.Tpc.Metrics.completion_time < 80.0);
  check_live "background recovery converged" w ~outcome:Committed

let test_without_wfo_root_blocks_on_lost_ack () =
  (* late acknowledgment without wait-for-outcome: the root cannot complete
     until the acknowledgment arrives *)
  let config =
    cfg ~max_retries:3 ~faults:[ fault "S" Cp_before_ack () ] ()
  in
  let m, _w = run ~config (two ()) in
  check_outcome "root blocked" None m

let test_wfo_completion_faster_than_blocking () =
  let faults = [ fault "S" Cp_before_ack ~restart:200.0 () ] in
  let m_wfo, _ =
    run ~config:(cfg ~opts:{ no_opts with wait_for_outcome = true } ~faults ()) (two ())
  in
  let m_blk, _ = run ~config:(cfg ~faults ()) (two ()) in
  Alcotest.(check bool) "wait-for-outcome completes much earlier" true
    (Option.get m_wfo.Tpc.Metrics.completion_time
    < Option.get m_blk.Tpc.Metrics.completion_time)

(* --- multiple faults -------------------------------------------------- *)

let test_two_subordinates_crash () =
  let tree =
    Tree (member "C", [ Tree (member "S1", []); Tree (member "S2", []) ])
  in
  let config =
    cfg
      ~faults:
        [
          fault "S1" Cp_after_vote ~restart:10.0 ();
          fault "S2" Cp_after_decision_received ~restart:20.0 ();
        ]
      ()
  in
  let m, w = run ~config tree in
  check_outcome "both recover, commit completes" (Some Committed) m;
  check_live "consistent" w ~outcome:Committed

(* A crash point planted at a member that shares its parent's log takes
   the whole failure domain down: the parent too, so nothing runs on a log
   whose volatile tail the crash dropped.  At every point the members end
   agreeing with one another and with any outcome the root reported, and
   none is left in doubt. *)
let test_shared_log_crash_point_fails_the_domain () =
  let tree =
    Tree
      ( member "C",
        [ Tree (member ~shares_parent_log:true "S1", []); Tree (member "S2", []) ]
      )
  in
  List.iter
    (fun (label, point) ->
      let config =
        cfg ~opts:{ no_opts with shared_log = true }
          ~faults:[ fault "S1" point ~restart:30.0 () ]
          ()
      in
      let m, w = run ~config tree in
      let downs =
        List.filter_map
          (function Tpc.Trace.Crash { node; _ } -> Some node | _ -> None)
          (Tpc.Trace.events w.Tpc.Run.trace)
      in
      Alcotest.(check (list string)) (label ^ ": C fails with S1") [ "C"; "S1" ] downs;
      let agree outcome = Tpc.Run.consistent w ~txn:"txn-1" ~outcome in
      Alcotest.(check bool) (label ^ ": members agree") true
        (agree Committed || agree Aborted);
      (match m.Tpc.Metrics.outcome with
      | Some o -> check_consistent (label ^ ": reported outcome holds") w ~txn:"txn-1" ~outcome:o
      | None -> ());
      List.iter
        (fun (name, (n : Tpc.Run.node)) ->
          Alcotest.(check (list string)) (label ^ ": " ^ name ^ " not in doubt") []
            (Kvstore.in_doubt n.Tpc.Run.kv
            @ Tpc.Participant.in_doubt_txns n.Tpc.Run.participant))
        w.Tpc.Run.nodes)
    [
      ("on-prepare", Cp_on_prepare);
      ("after-vote", Cp_after_vote);
      ("after-decision-received", Cp_after_decision_received);
      ("before-ack", Cp_before_ack);
    ]

let test_coordinator_and_subordinate_crash () =
  let config =
    cfg
      ~faults:
        [
          fault "C" Cp_after_decision_log ~restart:15.0 ();
          fault "S" Cp_after_vote ~restart:30.0 ();
        ]
      ()
  in
  let m, w = run ~config (two ()) in
  check_outcome "double crash still commits" (Some Committed) m;
  check_live "consistent" w ~outcome:Committed

(* --- steps across a restart ------------------------------------------ *)

module R = Tpc.Run
module P = Tpc.Participant

let sends_between w ~src ~label ~after ~until =
  List.length
    (List.filter
       (function
         | Tpc.Trace.Send { time; src = s; label = l; _ } ->
             s = src && l = label && time > after && time <= until
         | _ -> false)
       (Tpc.Trace.events w.R.trace))

(* A step armed before a crash never resumes after the restart.  A retry
   timer: C's vote timer for txn-1 is pending when C crashes and restarts;
   C then begins txn-2, whose vote timer takes the freed step slot.  The
   stale timer comes due first and must do nothing, so txn-2's Prepare is
   retransmitted only when txn-2's own timer fires.  A force in flight: C
   crashes while its Committed record for txn-3 is being forced and
   restarts before the I/O would have completed; the outcome never
   becomes durable, no Commit leaves C, and S learns the presumed abort. *)
let test_steps_dropped_across_restart () =
  let config = { (cfg ()) with prepare_retries = 2 } in
  let w = R.setup ~config (two ()) in
  let e = w.R.engine and c = R.participant w "C" in
  P.force_crash (R.participant w "S");
  P.begin_commit c ~txn:"txn-1";
  Simkernel.Engine.run_until e 5.0;
  P.force_crash c;
  Simkernel.Engine.run_until e 6.0;
  P.force_restart c;
  Simkernel.Engine.run_until e 10.0;
  P.begin_commit c ~txn:"txn-2";
  Simkernel.Engine.run_until e 34.0;
  Alcotest.(check int) "no Prepare when the stale timer comes due" 0
    (sends_between w ~src:"C" ~label:"Prepare" ~after:10.0 ~until:34.0);
  Simkernel.Engine.run_until e 36.0;
  Alcotest.(check int) "txn-2's own timer retransmits" 1
    (sends_between w ~src:"C" ~label:"Prepare" ~after:34.0 ~until:36.0);
  let w = R.setup ~config (two ()) in
  let e = w.R.engine and c = R.participant w "C" in
  R.perform_work w ~txn:"txn-3";
  P.begin_commit c ~txn:"txn-3";
  Simkernel.Engine.run_until e 2.7;
  Alcotest.(check bool) "the Committed force is in flight" true
    (List.exists
       (fun (r : Wal.Log_record.t) -> r.kind = Wal.Log_record.Committed)
       (Wal.Log.all_records (P.log c))
    && not
         (List.exists
            (fun (r : Wal.Log_record.t) -> r.kind = Wal.Log_record.Committed)
            (Wal.Log.durable (P.log c))));
  P.force_crash c;
  Simkernel.Engine.run_until e 2.8;
  P.force_restart c;
  Simkernel.Engine.run_until e 5_000.0;
  Alcotest.(check int) "no Commit leaves C" 0
    (sends_between w ~src:"C" ~label:"Commit" ~after:0.0 ~until:5_000.0);
  Alcotest.(check (option string)) "S rolled back" None
    (Kvstore.committed_value (R.kv w "S") "acct-S");
  Alcotest.(check bool) "S resolved" false (P.is_unresolved (R.participant w "S") ~txn:"txn-3")

let suite =
  [
    Alcotest.test_case "sub crash on prepare (all protocols)" `Quick
      test_sub_crash_on_prepare_no_restart;
    Alcotest.test_case "sub crash after prepared, before vote" `Quick
      test_sub_crash_after_prepared_before_vote;
    Alcotest.test_case "sub crash in doubt, restart (PA)" `Quick
      test_sub_crash_in_doubt_with_restart;
    Alcotest.test_case "sub crash in doubt (basic)" `Quick test_sub_crash_in_doubt_basic;
    Alcotest.test_case "sub crash in doubt (PN)" `Quick test_sub_crash_in_doubt_pn;
    Alcotest.test_case "sub crash after decision received" `Quick
      test_sub_crash_after_decision_received;
    Alcotest.test_case "sub crash before ack, restart" `Quick
      test_sub_crash_before_ack_with_restart;
    Alcotest.test_case "cascaded crash in doubt" `Quick test_cascaded_crash_in_doubt;
    Alcotest.test_case "coord crash before decision (PA presumption)" `Quick
      test_coord_crash_before_decision_pa;
    Alcotest.test_case "coord crash before decision (basic blocks)" `Quick
      test_coord_crash_before_decision_basic_blocks;
    Alcotest.test_case "coord crash after commit log, restart" `Quick
      test_coord_crash_after_commit_log_restart;
    Alcotest.test_case "coord crash after commit, no restart blocks sub" `Quick
      test_coord_crash_after_commit_log_no_restart;
    Alcotest.test_case "PN commit-pending recovery aborts" `Quick
      test_pn_coord_crash_after_commit_pending;
    Alcotest.test_case "PN subordinate waits for coordinator" `Quick
      test_pn_sub_waits_for_coordinator;
    Alcotest.test_case "decision retransmission" `Quick
      test_decision_retransmitted_until_acked;
    Alcotest.test_case "duplicate decision idempotent" `Quick
      test_duplicate_decision_is_idempotent;
    Alcotest.test_case "wait-for-outcome returns pending" `Quick
      test_wait_for_outcome_returns_pending;
    Alcotest.test_case "wait-for-outcome background resolution" `Quick
      test_wait_for_outcome_background_resolution;
    Alcotest.test_case "late ack blocks without WFO" `Quick
      test_without_wfo_root_blocks_on_lost_ack;
    Alcotest.test_case "WFO completes faster than blocking" `Quick
      test_wfo_completion_faster_than_blocking;
    Alcotest.test_case "two subordinates crash" `Quick test_two_subordinates_crash;
    Alcotest.test_case "shared-log crash point fails the domain" `Quick
      test_shared_log_crash_point_fails_the_domain;
    Alcotest.test_case "coordinator and subordinate crash" `Quick
      test_coordinator_and_subordinate_crash;
    Alcotest.test_case "steps armed before a crash never resume" `Quick
      test_steps_dropped_across_restart;
  ]
