(* Protocol-conformance suite: every protocol in the registry - the
   paper's three families and anything registered later - must satisfy the
   contract {!Tpc.Protocol_intf} documents, and the registry lookups the
   CLI depends on must round-trip.  A custom protocol registered here
   end-to-end proves the pluggability claim: behavior flows entirely
   through the record, with no participant special-casing. *)

open Tpc.Types
open Test_util
module P = Tpc.Protocol

let all () = P.all ()

(* ------------------------------------------------------------------ *)
(* Registry round-trips                                                *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_flag () =
  List.iter
    (fun (impl : P.t) ->
      Alcotest.(check bool)
        (impl.P.p_flag ^ " parses to its own id")
        true
        (P.of_string impl.P.p_flag = Some impl.P.p_id))
    (all ())

let test_roundtrip_canonical_name () =
  List.iter
    (fun (impl : P.t) ->
      let name = protocol_to_string impl.P.p_id in
      Alcotest.(check bool)
        (name ^ " parses to its own id")
        true
        (P.of_string name = Some impl.P.p_id))
    (all ())

let test_case_insensitive () =
  List.iter
    (fun (impl : P.t) ->
      let shout = String.uppercase_ascii impl.P.p_flag in
      Alcotest.(check bool)
        (shout ^ " resolves case-insensitively")
        true
        (P.of_string shout = Some impl.P.p_id))
    (all ())

let test_resolve_is_identity () =
  List.iter
    (fun (impl : P.t) ->
      Alcotest.(check bool)
        (impl.P.p_flag ^ " resolve returns the registered value")
        true
        (P.resolve impl.P.p_id == impl);
      Alcotest.(check string)
        (impl.P.p_flag ^ " flag round-trips")
        impl.P.p_flag (P.flag impl.P.p_id))
    (all ())

let test_builtins_listed () =
  let flags = P.flags () in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " registered") true (List.mem f flags))
    [ "basic"; "pa"; "pn" ]

let test_unknown_name () =
  Alcotest.(check bool)
    "unknown spelling rejected" true
    (P.of_string "no-such-protocol" = None);
  Alcotest.check_raises "unregistered Custom rejected"
    (Invalid_argument
       "Protocol.resolve: no implementation registered for \"no-such-protocol\"")
    (fun () -> ignore (P.resolve (Custom "no-such-protocol")))

let test_conflicting_registration () =
  let impostor = { Tpc.Protocol_pa.protocol with P.p_id = Custom "impostor" } in
  (try
     P.register impostor;
     Alcotest.fail "registering a second protocol under \"pa\" must raise"
   with Invalid_argument _ -> ());
  (* re-registering the same value is a no-op *)
  P.register Tpc.Protocol_pa.protocol;
  Alcotest.(check bool)
    "registry unchanged" true
    (P.resolve Presumed_abort == Tpc.Protocol_pa.protocol)

(* ------------------------------------------------------------------ *)
(* Interface-contract invariants, checked for every registered protocol *)
(* ------------------------------------------------------------------ *)

let forces_committed name = function
  | P.Log_force k ->
      Alcotest.(check bool)
        (name ^ " forces the committed record")
        true
        (k = Wal.Log_record.Committed)
  | P.Log_append _ | P.Log_none ->
      Alcotest.fail (name ^ ": a commit decision must be forced before acks")

let test_vote_is_durable () =
  List.iter
    (fun (impl : P.t) ->
      let log = impl.P.p_voter_log in
      Alcotest.(check bool)
        (impl.P.p_flag ^ " voter forces at least one record")
        true (log <> []);
      Alcotest.(check bool)
        (impl.P.p_flag ^ " voter log ends with prepared")
        true
        (List.nth log (List.length log - 1) = Wal.Log_record.Prepared))
    (all ())

let test_commit_decision_is_forced () =
  List.iter
    (fun (impl : P.t) ->
      forces_committed
        (impl.P.p_flag ^ " coordinator")
        (impl.P.p_decision_log Committed);
      forces_committed
        (impl.P.p_flag ^ " subordinate")
        (impl.P.p_subordinate_decision_log Committed))
    (all ())

(* One protocol's answer to each policy question the participant asks:
   must a child confirm an abort after a YES vote, a real NO, a presumed NO
   (vote timeout) and no vote; does a subordinate acknowledge aborts at
   all; does an in-doubt subordinate inquire; what a restart does with
   four logs; does a delegator's log ([Prepared; Commit_pending]) tell it
   from a voter's; why a child's Inquiry is refused, if it is. *)
type policy = {
  abort_acks : bool list;  (* YES, real NO, presumed NO, no vote *)
  acks_aborts : bool;
  inquires : bool;
  recovery : P.recovery_action list;
  delegated : bool;
  inquiry_refusal : string option;
}

let policy_logs =
  Wal.Log_record.
    [
      [];
      [ Commit_pending ];
      [ Prepared; Commit_pending ];
      [ Committed; Commit_pending ];
    ]

let policy_of (impl : P.t) =
  let ack vote presumed_no = P.abort_ack_required impl ~vote ~presumed_no in
  let yes = Vote_yes { reliable = false; leave_out_ok = false } in
  {
    abort_acks =
      [
        ack (Some yes) false;
        ack (Some Vote_no) false;
        ack (Some Vote_no) true;
        ack None false;
      ];
    acks_aborts = P.acks_aborts impl;
    inquires = P.inquires impl;
    recovery = List.map (P.recover impl) policy_logs;
    delegated = P.delegated impl (List.nth policy_logs 2);
    inquiry_refusal =
      P.admissible impl ~src:"S" ~role:P.From_child ~known:None
        (Tpc.Msg.Inquiry { txn = "txn-1" });
  }

let presumed_abort =
  {
    abort_acks = [ false; false; false; false ];
    acks_aborts = false;
    inquires = true;
    recovery =
      [ P.Rec_none; P.Rec_none; P.Rec_in_doubt; P.Rec_redrive Committed ];
    delegated = false;
    inquiry_refusal = None;
  }

let acknowledged =
  {
    presumed_abort with
    abort_acks = [ true; false; false; false ];
    acks_aborts = true;
  }

let policy_table =
  [
    ("pa", presumed_abort);
    ("confdemo", presumed_abort);
    ("basic", acknowledged);
    ("bft", acknowledged);
    ( "pn",
      {
        abort_acks = [ true; false; true; true ];
        acks_aborts = true;
        inquires = false;
        recovery =
          [
            P.Rec_none;
            P.Rec_decide
              {
                outcome = Aborted;
                note = "PN recovery: commit-pending without outcome - aborting";
              };
            P.Rec_in_doubt;
            P.Rec_redrive Committed;
          ];
        delegated = true;
        inquiry_refusal =
          Some "rejecting inquiry from S: PN recovery is coordinator-owned";
      } );
  ]

(* A protocol that writes nothing on abort presumes abort, so it must not
   wait for abort acknowledgments nobody owes it: the [acks_aborts] row. *)
let test_policy_table () =
  List.iter
    (fun (impl : P.t) ->
      let f = impl.P.p_flag in
      match List.assoc_opt f policy_table with
      | None -> Alcotest.fail (f ^ " has no row in the policy table")
      | Some want ->
          let got = policy_of impl in
          Alcotest.(check (list bool))
            (f ^ " abort acks after YES, NO, presumed NO, no vote")
            want.abort_acks got.abort_acks;
          Alcotest.(check bool)
            (f ^ " acknowledges aborts")
            want.acks_aborts got.acks_aborts;
          Alcotest.(check bool)
            (f ^ " in-doubt subordinates inquire")
            want.inquires got.inquires;
          Alcotest.(check bool)
            (f ^ " inquires exactly when nothing is logged before Prepare")
            (impl.P.p_coordinator_log = []) got.inquires;
          Alcotest.(check bool)
            (f ^ " logless abort implies no abort acks")
            true
            (impl.P.p_decision_log Aborted <> P.Log_none || not got.acks_aborts);
          List.iteri
            (fun i (w, g) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s recovery of log %d" f i)
                true (w = g))
            (List.combine want.recovery got.recovery);
          Alcotest.(check bool)
            (f ^ " delegator told from a voter by its log")
            want.delegated got.delegated;
          Alcotest.(check (option string))
            (f ^ " refusal of a child's inquiry")
            want.inquiry_refusal got.inquiry_refusal)
    (all ())

let test_recovery_table () =
  let open Wal.Log_record in
  List.iter
    (fun (impl : P.t) ->
      let f = impl.P.p_flag in
      let recover = P.recover impl in
      Alcotest.(check bool)
        (f ^ " empty log recovers to nothing")
        true
        (recover [] = P.Rec_none);
      Alcotest.(check bool)
        (f ^ " end record closes the transaction")
        true
        (recover [ End; Committed; Prepared ] = P.Rec_none);
      Alcotest.(check bool)
        (f ^ " committed outcome is redriven")
        true
        (recover [ Committed; Prepared ] = P.Rec_redrive Committed);
      Alcotest.(check bool)
        (f ^ " aborted outcome is redriven")
        true
        (recover [ Aborted; Prepared ] = P.Rec_redrive Aborted);
      Alcotest.(check bool)
        (f ^ " bare prepared record is in doubt")
        true
        (recover [ Prepared ] = P.Rec_in_doubt);
      (* every delegator forces Prepared before it hands over the
         decision, so a restart finds it in doubt, not an interrupted
         coordinator *)
      Alcotest.(check bool)
        (f ^ " delegator's log is in doubt")
        true
        (recover [ Prepared; Commit_pending ] = P.Rec_in_doubt))
    (all ())

(* ------------------------------------------------------------------ *)
(* Live-run conformance: every registered protocol commits and aborts   *)
(* atomically on the same trees                                         *)
(* ------------------------------------------------------------------ *)

let test_every_protocol_commits () =
  List.iter
    (fun (impl : P.t) ->
      let config = default_config |> with_protocol impl.P.p_id in
      let m, w = run ~config (three ()) in
      check_outcome (impl.P.p_flag ^ " commits") (Some Committed) m;
      check_consistent
        (impl.P.p_flag ^ " commit consistent")
        w ~txn:"txn-1" ~outcome:Committed)
    (all ())

let test_every_protocol_aborts () =
  List.iter
    (fun (impl : P.t) ->
      let config = default_config |> with_protocol impl.P.p_id in
      let tree = three ~s:(member ~vote_no:true "S") () in
      let m, w = run ~config tree in
      check_outcome (impl.P.p_flag ^ " aborts on NO") (Some Aborted) m;
      check_consistent
        (impl.P.p_flag ^ " abort consistent")
        w ~txn:"txn-1" ~outcome:Aborted)
    (all ())

(* ------------------------------------------------------------------ *)
(* Regression: the CLI's --protocol pn spelling is the pre-refactor     *)
(* Presumed_nothing, byte for byte                                      *)
(* ------------------------------------------------------------------ *)

let trace_of config tree =
  let _m, w = run ~config tree in
  Tpc.Trace.to_string w.Tpc.Run.trace

let test_pn_flag_matches_variant () =
  let via_flag =
    match P.of_string "pn" with
    | Some p -> default_config |> with_protocol p
    | None -> Alcotest.fail "pn not registered"
  in
  let via_variant = default_config |> with_protocol Presumed_nothing in
  List.iter
    (fun tree ->
      Alcotest.(check string)
        "--protocol pn trace identical to Presumed_nothing"
        (trace_of via_variant tree) (trace_of via_flag tree))
    [ two (); three (); three ~s:(member ~vote_no:true "S") () ]

let test_pn_counts_match_cost_model () =
  let config =
    match P.of_string "pn" with
    | Some p -> default_config |> with_protocol p
    | None -> Alcotest.fail "pn not registered"
  in
  let m, _w = run ~config (two ()) in
  check_counts "--protocol pn matches Table 2"
    (Tpc.Cost_model.presumed_nothing ~n:2 ()) m

(* ------------------------------------------------------------------ *)
(* Pluggability end to end: a protocol registered by a client shows up  *)
(* in the CLI surface and runs through the whole stack unchanged        *)
(* ------------------------------------------------------------------ *)

let demo : P.t =
  {
    Tpc.Protocol_pa.protocol with
    P.p_id = Custom "conformance-demo";
    p_flag = "confdemo";
    p_aliases = [ "demo" ];
    p_description = "test-registered PA clone";
  }

let () = P.register demo

let test_custom_protocol_runs () =
  let id =
    match P.of_string "demo" with
    | Some p -> p
    | None -> Alcotest.fail "alias lookup failed"
  in
  Alcotest.(check bool)
    "alias and flag resolve to the same id" true
    (P.of_string "confdemo" = Some id);
  Alcotest.(check string) "flag printed for JSONL" "confdemo" (P.flag id);
  let config = default_config |> with_protocol id in
  let pa = default_config |> with_protocol Presumed_abort in
  List.iter
    (fun tree ->
      Alcotest.(check string)
        "PA clone behaves byte-identically to PA"
        (trace_of pa tree) (trace_of config tree))
    [ two (); three (); three ~s:(member ~vote_no:true "S") () ];
  let m, w = run ~config (three ()) in
  check_outcome "custom protocol commits" (Some Committed) m;
  check_consistent "custom protocol consistent" w ~txn:"txn-1"
    ~outcome:Committed

(* ------------------------------------------------------------------ *)
(* Adversary hardening: forged payloads an honest node can detect from  *)
(* topology and its own durable state are rejected, in every family     *)
(* ------------------------------------------------------------------ *)

(* Run a commit to completion, deliver [payloads] claiming to be from
   [src] at [dst], drive the engine again, and return how many were
   rejected there (every test world starts at zero). *)
let forge ~config ~src ~dst payloads =
  let m, w = run ~config (three ()) in
  check_outcome "baseline commit succeeds" (Some Committed) m;
  Tpc.Net.inject w.Tpc.Run.net ~src ~dst payloads;
  Simkernel.Engine.run w.Tpc.Run.engine;
  (Tpc.Participant.rejected_forgeries (Tpc.Run.participant w dst), w)

let test_forged_conflicting_decision_rejected () =
  List.iter
    (fun (impl : P.t) ->
      let config = default_config |> with_protocol impl.P.p_id in
      (* S durably committed txn-1; a retransmitted ABORT - even from its
         real parent M - contradicts that and must be refused *)
      let rejected, w =
        forge ~config ~src:"M" ~dst:"S"
          [ Tpc.Msg.Decision_msg { txn = "txn-1"; outcome = Aborted; cert = None } ]
      in
      Alcotest.(check int)
        (impl.P.p_flag ^ " conflicting decision rejected")
        1 rejected;
      check_consistent
        (impl.P.p_flag ^ " state unchanged after forgery")
        w ~txn:"txn-1" ~outcome:Committed)
    (all ())

let test_forged_stranger_payloads_rejected () =
  List.iter
    (fun (impl : P.t) ->
      let config = default_config |> with_protocol impl.P.p_id in
      (* in the C -> M -> S chain, S is a topology stranger to C *)
      let yes = Vote_yes { reliable = false; leave_out_ok = false } in
      let rejected, _w =
        forge ~config ~src:"S" ~dst:"C"
          [
            Tpc.Msg.Decision_msg
              { txn = "ghost-1"; outcome = Committed; cert = None };
            Tpc.Msg.Vote_msg
              {
                txn = "ghost-2";
                vote = yes;
                delegation = false;
                unsolicited = true;
                implied_ack = false;
                tag = "";
              };
            Tpc.Msg.Inquiry_reply
              { txn = "ghost-3"; outcome = Some Committed; cert = None };
          ]
      in
      Alcotest.(check int)
        (impl.P.p_flag ^ " stranger decision/vote/reply all rejected")
        3 rejected)
    (all ())

let test_forged_ack_and_downward_vote_rejected () =
  List.iter
    (fun (impl : P.t) ->
      let config = default_config |> with_protocol impl.P.p_id in
      (* M is S's parent: acks only travel upward, and the only legal
         downward vote is a delegation handoff *)
      let yes = Vote_yes { reliable = false; leave_out_ok = false } in
      let rejected, _w =
        forge ~config ~src:"M" ~dst:"S"
          [
            Tpc.Msg.Ack_msg { txn = "ghost-4"; damage = []; pending = false };
            Tpc.Msg.Vote_msg
              {
                txn = "ghost-5";
                vote = yes;
                delegation = false;
                unsolicited = false;
                implied_ack = false;
                tag = "";
              };
          ]
      in
      Alcotest.(check int)
        (impl.P.p_flag ^ " forged ack and downward vote rejected")
        2 rejected)
    (all ())

let test_pn_rejects_inquiries () =
  (* PN recovery is coordinator-owned: subordinates never inquire, so an
     Inquiry is a protocol violation under PN - and legal under PA, where
     the same message must still be admitted *)
  let inquiry = [ Tpc.Msg.Inquiry { txn = "txn-1" } ] in
  let rejected_pn, _ =
    forge
      ~config:(default_config |> with_protocol Presumed_nothing)
      ~src:"S" ~dst:"M" inquiry
  in
  Alcotest.(check int) "PN refuses a subordinate inquiry" 1 rejected_pn;
  let rejected_pa, _ =
    forge
      ~config:(default_config |> with_protocol Presumed_abort)
      ~src:"S" ~dst:"M" inquiry
  in
  Alcotest.(check int) "PA admits the same inquiry" 0 rejected_pa

(* Under PN an agent answers its own delegator, even one that is its
   static child: in Figure 7's pair S delegates t2 to C, its static
   parent.  S crashes once the delegation is sent, so C decides t2 and
   waits for S.  C admits S's inquiry about t2 and answers it, and still
   refuses S's inquiry about t1, which C delegated to S. *)
let test_pn_agent_answers_its_delegator () =
  let config =
    {
      default_config with
      protocol = Presumed_nothing;
      faults =
        [ { f_node = "S"; f_point = Cp_after_delegation; f_restart_after = None } ];
    }
  in
  let _res, w = Tpc.Run.chain ~config Tpc.Run.Chain_long_locks_last_agent ~r:2 in
  let c = Tpc.Run.participant w "C" in
  let answers () =
    List.length
      (List.filter
         (function
           | Tpc.Trace.Send { src = "C"; dst = "S"; label = "Outcome commit"; _ } ->
               true
           | _ -> false)
         (Tpc.Trace.events w.Tpc.Run.trace))
  in
  let inquire txn =
    Tpc.Net.inject w.Tpc.Run.net ~src:"S" ~dst:"C" [ Tpc.Msg.Inquiry { txn } ];
    Simkernel.Engine.run w.Tpc.Run.engine
  in
  inquire "t2";
  Alcotest.(check int) "the agent admits its delegator's inquiry" 0
    (Tpc.Participant.rejected_forgeries c);
  Alcotest.(check int) "and answers it" 1 (answers ());
  inquire "t1";
  Alcotest.(check int) "a subordinate's inquiry is still refused" 1
    (Tpc.Participant.rejected_forgeries c)

(* ------------------------------------------------------------------ *)
(* Byzantine tolerance: a decision is only actionable under an f+1      *)
(* endorsement certificate, and recovery re-validates durable ones      *)
(* ------------------------------------------------------------------ *)

let bft_id () =
  match P.of_string "bft" with
  | Some p -> p
  | None -> Alcotest.fail "bft not registered"

let mk_cert ~quorum ~txn ~outcome ~votes =
  {
    Tpc.Msg.c_endorsements =
      List.init quorum (fun r -> Tpc.Msg.endorse ~replica:r ~txn ~outcome ~votes);
  }

let test_bft_registry_round_trip () =
  let id = bft_id () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " resolves to bft") true
        (P.of_string name = Some id))
    [ "bft"; "BFT"; "byzantine"; "bft-2pc" ];
  Alcotest.(check string) "flag printed for JSONL" "bft" (P.flag id);
  Alcotest.(check bool) "bft is a certified protocol" true
    (P.certified (P.resolve id));
  List.iter
    (fun (impl : P.t) ->
      if impl.P.p_id <> id then
        Alcotest.(check bool)
          (impl.P.p_flag ^ " stays uncertified")
          false (P.certified impl))
    (all ())

let test_bft_certificate_validity () =
  let valid f c ~txn ~outcome =
    Tpc.Msg.certificate_valid ~f ~txn ~outcome c
  in
  let c = mk_cert ~quorum:2 ~txn:"t" ~outcome:Committed ~votes:"v" in
  Alcotest.(check bool) "f+1 matching endorsements valid" true
    (valid 1 c ~txn:"t" ~outcome:Committed);
  Alcotest.(check bool) "below a larger quorum invalid" false
    (valid 2 c ~txn:"t" ~outcome:Committed);
  Alcotest.(check bool) "wrong outcome invalid" false
    (valid 1 c ~txn:"t" ~outcome:Aborted);
  Alcotest.(check bool) "wrong transaction invalid" false
    (valid 1 c ~txn:"u" ~outcome:Committed);
  let e = Tpc.Msg.endorse ~replica:0 ~txn:"t" ~outcome:Committed ~votes:"v" in
  Alcotest.(check bool) "duplicate replicas don't reach quorum" false
    (valid 1 { Tpc.Msg.c_endorsements = [ e; e ] } ~txn:"t" ~outcome:Committed);
  let e' = Tpc.Msg.endorse ~replica:1 ~txn:"t" ~outcome:Committed ~votes:"w" in
  Alcotest.(check bool) "endorsements over different vote sets invalid" false
    (valid 1
       { Tpc.Msg.c_endorsements = [ e; e' ] }
       ~txn:"t" ~outcome:Committed);
  Alcotest.(check bool) "out-of-ensemble replica index doesn't count" false
    (valid 1
       {
         Tpc.Msg.c_endorsements =
           [ e; Tpc.Msg.endorse ~replica:7 ~txn:"t" ~outcome:Committed ~votes:"v" ];
       }
       ~txn:"t" ~outcome:Committed)

let test_bft_cert_string_round_trip () =
  List.iter
    (fun (quorum, outcome) ->
      let c = mk_cert ~quorum ~txn:"txn-9" ~outcome ~votes:"a=yes|b=yes" in
      match Tpc.Msg.cert_of_string (Tpc.Msg.cert_to_string c) with
      | Some c' ->
          Alcotest.(check bool) "certificate round-trips its WAL form" true
            (c = c')
      | None -> Alcotest.fail "certificate string failed to parse")
    [ (1, Committed); (2, Aborted); (4, Committed) ]

let test_bft_refuses_uncertified_decision () =
  let config = default_config |> with_protocol (bft_id ()) in
  let rejected, w =
    forge ~config ~src:"M" ~dst:"S"
      [ Tpc.Msg.Decision_msg { txn = "txn-1"; outcome = Committed; cert = None } ]
  in
  Alcotest.(check int) "uncertified duplicate decision refused" 1 rejected;
  Alcotest.(check int) "counted as a certificate refusal" 1
    (Tpc.Participant.rejected_certs (Tpc.Run.participant w "S"));
  (* a certificate below the f+1 quorum is just as dead *)
  let low = mk_cert ~quorum:1 ~txn:"txn-1" ~outcome:Committed ~votes:"v" in
  Tpc.Net.inject w.Tpc.Run.net ~src:"M" ~dst:"S"
    [ Tpc.Msg.Decision_msg { txn = "txn-1"; outcome = Committed; cert = Some low } ];
  Simkernel.Engine.run w.Tpc.Run.engine;
  Alcotest.(check int) "sub-quorum certificate refused" 2
    (Tpc.Participant.rejected_certs (Tpc.Run.participant w "S"));
  (* the above-threshold sanity case at message level: an adversary
     holding f+1 replica keys mints a valid certificate and the honest
     node admits the decision - tolerance is conditional, not absolute *)
  let full = mk_cert ~quorum:2 ~txn:"txn-1" ~outcome:Committed ~votes:"stolen" in
  Tpc.Net.inject w.Tpc.Run.net ~src:"M" ~dst:"S"
    [ Tpc.Msg.Decision_msg { txn = "txn-1"; outcome = Committed; cert = Some full } ];
  Simkernel.Engine.run w.Tpc.Run.engine;
  Alcotest.(check int) "f+1 forged endorsements defeat the check" 2
    (Tpc.Participant.rejected_certs (Tpc.Run.participant w "S"));
  check_consistent "state still consistent throughout" w ~txn:"txn-1"
    ~outcome:Committed

let test_bft_refuses_uncertified_outcome_reply () =
  let config = default_config |> with_protocol (bft_id ()) in
  let rejected, _w =
    forge ~config ~src:"M" ~dst:"S"
      [
        Tpc.Msg.Inquiry_reply
          { txn = "txn-1"; outcome = Some Committed; cert = None };
      ]
  in
  Alcotest.(check int) "uncertified outcome reply refused" 1 rejected

(* A reply that claims no outcome has nothing for a certificate to back:
   an honest member never attaches one.  Forged from S's address before
   C decides, it must be refused, or C would keep the certificate unchecked
   and ship it on its decision, which S then refuses on every retry. *)
let test_bft_refuses_certified_no_outcome_reply () =
  let config = default_config |> with_protocol (bft_id ()) in
  let w = Tpc.Run.setup ~config (two ()) in
  let bad = mk_cert ~quorum:1 ~txn:"txn-1" ~outcome:Committed ~votes:"v" in
  Tpc.Net.inject w.Tpc.Run.net ~src:"S" ~dst:"C"
    [ Tpc.Msg.Inquiry_reply { txn = "txn-1"; outcome = None; cert = Some bad } ];
  let m = Tpc.Run.commit w in
  check_outcome "the commit completes" (Some Committed) m;
  Alcotest.(check bool) "S is not left in doubt" false
    (Tpc.Participant.is_in_doubt (Tpc.Run.participant w "S") ~txn:"txn-1");
  Alcotest.(check int) "C refuses the certified no-outcome reply once" 1
    (Tpc.Participant.rejected_certs (Tpc.Run.participant w "C"));
  check_consistent "both members committed" w ~txn:"txn-1" ~outcome:Committed

let test_bft_refuses_mis_signed_vote () =
  let config = default_config |> with_protocol (bft_id ()) in
  let yes = Vote_yes { reliable = false; leave_out_ok = false } in
  let rejected, _w =
    forge ~config ~src:"S" ~dst:"M"
      [
        Tpc.Msg.Vote_msg
          {
            txn = "txn-1";
            vote = yes;
            delegation = false;
            unsolicited = true;
            implied_ack = false;
            tag = "not-the-signature";
          };
      ]
  in
  Alcotest.(check int) "vote with a wrong signature refused" 1 rejected

let test_bft_counts_match_cost_model () =
  let config = default_config |> with_protocol (bft_id ()) in
  let m, _w = run ~config (two ()) in
  check_counts "--protocol bft matches the tolerance cost row"
    (Tpc.Cost_model.bft ~f:1 ~n:2) m

let test_bft_restart_revalidates_certs () =
  let config = default_config |> with_protocol (bft_id ()) in
  let m, w = run ~config (three ()) in
  check_outcome "bft commits" (Some Committed) m;
  let s = Tpc.Run.participant w "S" in
  (* plant a corrupted durable certificate record, then crash/restart:
     recovery must refuse it (counted) while replaying the genuine ones *)
  let bogus =
    Wal.Log_record.make ~txn:"txn-1" ~node:"S" ~payload:"garbage"
      Wal.Log_record.Certificate
  in
  Wal.Log.force (Tpc.Participant.log s) bogus (fun () -> ());
  Simkernel.Engine.run w.Tpc.Run.engine;
  Tpc.Participant.force_crash s;
  Tpc.Participant.force_restart s;
  Simkernel.Engine.run w.Tpc.Run.engine;
  Alcotest.(check int) "corrupted durable certificate refused at recovery" 1
    (Tpc.Participant.rejected_certs s);
  check_consistent "recovered state consistent" w ~txn:"txn-1"
    ~outcome:Committed

(* Restart must restore the valid durable certificates, not merely refuse
   bad ones: after a crash, the subordinate's positive inquiry reply still
   carries its certificate, and its honest parent admits it. *)
let test_bft_restart_restores_certs () =
  let config = default_config |> with_protocol (bft_id ()) in
  let m, w = run ~config (three ()) in
  check_outcome "bft commits" (Some Committed) m;
  let s = Tpc.Run.participant w "S" and parent = Tpc.Run.participant w "M" in
  Tpc.Participant.force_crash s;
  Tpc.Participant.force_restart s;
  Simkernel.Engine.run w.Tpc.Run.engine;
  let replies () =
    List.length
      (List.filter
         (function
           | Tpc.Trace.Deliver { src = "S"; dst = "M"; label = "Outcome commit"; _ }
             ->
               true
           | _ -> false)
         (Tpc.Trace.events w.Tpc.Run.trace))
  in
  Alcotest.(check int) "no reply before the inquiry" 0 (replies ());
  Tpc.Net.inject w.Tpc.Run.net ~src:"M" ~dst:"S" [ Tpc.Msg.Inquiry { txn = "txn-1" } ];
  Simkernel.Engine.run w.Tpc.Run.engine;
  Alcotest.(check int) "the restarted subordinate answers" 1 (replies ());
  Alcotest.(check int) "its parent admits the reply" 0
    (Tpc.Participant.rejected_forgeries parent);
  Alcotest.(check int) "no certificate refused anywhere" 0
    (Tpc.Participant.rejected_certs parent + Tpc.Participant.rejected_certs s)

(* [node]'s own durable or volatile [Certificate] records for [txn] *)
let certificate_rows w node ~txn =
  List.filter
    (fun (r : Wal.Log_record.t) ->
      r.Wal.Log_record.txn = txn && r.Wal.Log_record.node = node
      && r.Wal.Log_record.kind = Wal.Log_record.Certificate)
    (Wal.Log.all_records (Tpc.Participant.log (Tpc.Run.participant w node)))

(* A member that ended a transaction, with no crash since, still answers a
   late inquiry with its certified outcome, and its parent admits it; a
   sub-quorum certificate row written after END is never what it sends. *)
let test_bft_ended_member_answers_inquiry () =
  let config = default_config |> with_protocol (bft_id ()) in
  let m, w = run ~config (three ()) in
  check_outcome "bft commits" (Some Committed) m;
  let s = Tpc.Run.participant w "S" and parent = Tpc.Run.participant w "M" in
  Alcotest.(check bool) "S has ended the transaction" false
    (Tpc.Participant.is_unresolved s ~txn:"txn-1");
  let replies () =
    List.length
      (List.filter
         (function
           | Tpc.Trace.Deliver { src = "S"; dst = "M"; label = "Outcome commit"; _ }
             ->
               true
           | _ -> false)
         (Tpc.Trace.events w.Tpc.Run.trace))
  in
  let inquire () =
    Tpc.Net.inject w.Tpc.Run.net ~src:"M" ~dst:"S" [ Tpc.Msg.Inquiry { txn = "txn-1" } ];
    Simkernel.Engine.run w.Tpc.Run.engine
  in
  inquire ();
  Alcotest.(check int) "the ended subordinate answers" 1 (replies ());
  let low = mk_cert ~quorum:1 ~txn:"txn-1" ~outcome:Committed ~votes:"v" in
  Wal.Log.append (Tpc.Participant.log s)
    (Wal.Log_record.make ~txn:"txn-1" ~node:"S"
       ~payload:(Tpc.Msg.cert_to_string low) Wal.Log_record.Certificate);
  inquire ();
  Alcotest.(check int) "and answers again past an invalid row" 2 (replies ());
  Alcotest.(check int) "its parent admits both replies" 0
    (Tpc.Participant.rejected_forgeries parent);
  Alcotest.(check int) "no certificate refused anywhere" 0
    (Tpc.Participant.rejected_certs parent + Tpc.Participant.rejected_certs s)

(* A genuine certified decision replayed after END is admitted and acted
   on idempotently: the member already logged that transaction's
   certificate, so it appends no second one. *)
let test_bft_replayed_decision_keeps_one_row () =
  let config = default_config |> with_protocol (bft_id ()) in
  let m, w = run ~config (three ()) in
  check_outcome "bft commits" (Some Committed) m;
  let cert =
    match certificate_rows w "S" ~txn:"txn-1" with
    | [ r ] -> Tpc.Msg.cert_of_string r.Wal.Log_record.payload
    | rows -> Alcotest.failf "S logged %d certificates, not 1" (List.length rows)
  in
  Alcotest.(check bool) "S's certificate decodes" true (cert <> None);
  Tpc.Net.inject w.Tpc.Run.net ~src:"M" ~dst:"S"
    [ Tpc.Msg.Decision_msg { txn = "txn-1"; outcome = Committed; cert } ];
  Simkernel.Engine.run w.Tpc.Run.engine;
  let s = Tpc.Run.participant w "S" in
  Alcotest.(check int) "the replay is admitted" 0
    (Tpc.Participant.rejected_forgeries s);
  Alcotest.(check int) "still one certificate row" 1
    (List.length (certificate_rows w "S" ~txn:"txn-1"));
  check_consistent "state unchanged" w ~txn:"txn-1" ~outcome:Committed

let suite =
  [
    Alcotest.test_case "flag spellings round-trip" `Quick test_roundtrip_flag;
    Alcotest.test_case "canonical names round-trip" `Quick
      test_roundtrip_canonical_name;
    Alcotest.test_case "lookups are case-insensitive" `Quick
      test_case_insensitive;
    Alcotest.test_case "resolve returns registered values" `Quick
      test_resolve_is_identity;
    Alcotest.test_case "paper's three families registered" `Quick
      test_builtins_listed;
    Alcotest.test_case "unknown names rejected" `Quick test_unknown_name;
    Alcotest.test_case "name conflicts rejected" `Quick
      test_conflicting_registration;
    Alcotest.test_case "votes are durable before YES" `Quick
      test_vote_is_durable;
    Alcotest.test_case "commit decisions are forced" `Quick
      test_commit_decision_is_forced;
    Alcotest.test_case "policy table, one row per protocol" `Quick
      test_policy_table;
    Alcotest.test_case "recovery table honours the log" `Quick
      test_recovery_table;
    Alcotest.test_case "every protocol commits atomically" `Quick
      test_every_protocol_commits;
    Alcotest.test_case "every protocol aborts atomically" `Quick
      test_every_protocol_aborts;
    Alcotest.test_case "--protocol pn equals Presumed_nothing" `Quick
      test_pn_flag_matches_variant;
    Alcotest.test_case "--protocol pn matches the cost model" `Quick
      test_pn_counts_match_cost_model;
    Alcotest.test_case "custom protocol plugs in end to end" `Quick
      test_custom_protocol_runs;
    Alcotest.test_case "forged conflicting decision rejected" `Quick
      test_forged_conflicting_decision_rejected;
    Alcotest.test_case "stranger payloads rejected" `Quick
      test_forged_stranger_payloads_rejected;
    Alcotest.test_case "forged ack and downward vote rejected" `Quick
      test_forged_ack_and_downward_vote_rejected;
    Alcotest.test_case "PN rejects subordinate inquiries" `Quick
      test_pn_rejects_inquiries;
    Alcotest.test_case "bft registry round-trip" `Quick
      test_bft_registry_round_trip;
    Alcotest.test_case "bft certificate validity rules" `Quick
      test_bft_certificate_validity;
    Alcotest.test_case "bft certificate WAL form round-trips" `Quick
      test_bft_cert_string_round_trip;
    Alcotest.test_case "bft refuses uncertified decisions" `Quick
      test_bft_refuses_uncertified_decision;
    Alcotest.test_case "bft refuses uncertified outcome replies" `Quick
      test_bft_refuses_uncertified_outcome_reply;
    Alcotest.test_case "bft refuses a certified reply without an outcome" `Quick
      test_bft_refuses_certified_no_outcome_reply;
    Alcotest.test_case "bft refuses mis-signed votes" `Quick
      test_bft_refuses_mis_signed_vote;
    Alcotest.test_case "bft matches the tolerance cost model" `Quick
      test_bft_counts_match_cost_model;
    Alcotest.test_case "bft restart re-validates durable certificates" `Quick
      test_bft_restart_revalidates_certs;
    Alcotest.test_case "bft restart restores durable certificates" `Quick
      test_bft_restart_restores_certs;
    Alcotest.test_case "bft ended member answers a late inquiry" `Quick
      test_bft_ended_member_answers_inquiry;
    Alcotest.test_case "bft replayed decision after END keeps one row" `Quick
      test_bft_replayed_decision_keeps_one_row;
    Alcotest.test_case "PN agent answers its delegator" `Quick
      test_pn_agent_answers_its_delegator;
  ]
