(* Unit tests of the vocabulary modules: tree helpers, profiles, message
   labels, metrics pretty-printing. *)

open Tpc.Types

let test_tree_size () =
  Alcotest.(check int) "singleton" 1 (tree_size (Tree (member "a", [])));
  Alcotest.(check int) "flat 5" 5 (tree_size (Workload.flat ~n:5 ()));
  Alcotest.(check int) "chain 7" 7 (tree_size (Workload.chain ~n:7 ()))

let test_tree_members () =
  let t = Tree (member "a", [ Tree (member "b", []); Tree (member "c", []) ]) in
  Alcotest.(check (list string)) "preorder names" [ "a"; "b"; "c" ]
    (List.map (fun p -> p.p_name) (tree_members t))

let test_member_defaults () =
  let p = member "x" in
  Alcotest.(check bool) "updated by default" true p.p_updated;
  Alcotest.(check bool) "not reliable" false p.p_reliable;
  Alcotest.(check bool) "not left out" false p.p_left_out;
  Alcotest.(check bool) "not unsolicited" false p.p_unsolicited;
  Alcotest.(check bool) "votes normally" false p.p_vote_no;
  Alcotest.(check bool) "own log" false p.p_shares_parent_log;
  Alcotest.(check bool) "no heuristics" true (p.p_heuristic = Heuristic_never)

let test_to_string_helpers () =
  Alcotest.(check string) "protocol" "presumed-abort"
    (protocol_to_string Presumed_abort);
  Alcotest.(check string) "outcome" "abort" (outcome_to_string Aborted);
  Alcotest.(check string) "plain yes" "yes"
    (vote_to_string (Vote_yes { reliable = false; leave_out_ok = false }));
  Alcotest.(check string) "reliable yes" "yes+reliable"
    (vote_to_string (Vote_yes { reliable = true; leave_out_ok = false }));
  Alcotest.(check string) "leave-out yes" "yes+leave-out-ok"
    (vote_to_string (Vote_yes { reliable = false; leave_out_ok = true }));
  Alcotest.(check string) "decorated yes" "yes+reliable+leave-out-ok"
    (vote_to_string (Vote_yes { reliable = true; leave_out_ok = true }));
  Alcotest.(check string) "read-only" "read-only" (vote_to_string Vote_read_only)

let test_payload_txn () =
  let payloads =
    [
      Tpc.Msg.Prepare { txn = "t"; long_locks = false; upward = false };
      Tpc.Msg.Decision_msg { txn = "t"; outcome = Committed; cert = None };
      Tpc.Msg.Ack_msg { txn = "t"; damage = []; pending = false };
      Tpc.Msg.Data { txn = "t"; info = "" };
      Tpc.Msg.Inquiry { txn = "t" };
      Tpc.Msg.Inquiry_reply { txn = "t"; outcome = None; cert = None };
    ]
  in
  List.iter
    (fun p -> Alcotest.(check string) "txn extracted" "t" (Tpc.Msg.payload_txn p))
    payloads

let test_payload_labels () =
  let lbl p = Tpc.Msg.payload_label p in
  Alcotest.(check string) "prepare" "Prepare"
    (lbl (Tpc.Msg.Prepare { txn = "t"; long_locks = false; upward = false }));
  Alcotest.(check string) "prepare long-locks" "Prepare(long-locks)"
    (lbl (Tpc.Msg.Prepare { txn = "t"; long_locks = true; upward = false }));
  Alcotest.(check string) "commit" "Commit"
    (lbl (Tpc.Msg.Decision_msg { txn = "t"; outcome = Committed; cert = None }));
  Alcotest.(check string) "abort" "Abort"
    (lbl (Tpc.Msg.Decision_msg { txn = "t"; outcome = Aborted; cert = None }));
  Alcotest.(check string) "pending ack" "Ack(pending)"
    (lbl (Tpc.Msg.Ack_msg { txn = "t"; damage = []; pending = true }));
  Alcotest.(check string) "no info" "NoInformation"
    (lbl (Tpc.Msg.Inquiry_reply { txn = "t"; outcome = None; cert = None }));
  let vote =
    Tpc.Msg.Vote_msg
      {
        txn = "t";
        vote = Vote_yes { reliable = true; leave_out_ok = false };
        delegation = true;
        unsolicited = false;
        implied_ack = true;
        tag = "";
      }
  in
  Alcotest.(check string) "decorated vote"
    "Vote yes+reliable (you decide) (ack implied)" (lbl vote)

let test_bundle_label () =
  let bundle =
    [
      Tpc.Msg.Data { txn = "t"; info = "x" };
      Tpc.Msg.Ack_msg { txn = "t"; damage = []; pending = false };
    ]
  in
  Alcotest.(check string) "piggyback join" "Data:x + Ack"
    (Tpc.Msg.bundle_label bundle)

let test_damage_ack_label () =
  let d =
    { Tpc.Msg.d_node = "s"; d_action = Committed; d_outcome = Aborted }
  in
  Alcotest.(check string) "damage count shown" "Ack(1 damaged)"
    (Tpc.Msg.payload_label
       (Tpc.Msg.Ack_msg { txn = "t"; damage = [ d ]; pending = false }))

let test_metrics_pp_smoke () =
  let m, _w = Tpc.Run.commit_tree (Tree (member "a", [ Tree (member "b", []) ])) in
  let s = Format.asprintf "%a" Tpc.Metrics.pp m in
  Alcotest.(check bool) "mentions outcome" true
    (String.length s > 0
    &&
    let rec contains i =
      i + 6 <= String.length s && (String.sub s i 6 = "commit" || contains (i + 1))
    in
    contains 0)

(* An event log interns a bundle's label once per code, so a code must
   stand for one label: over every label-distinct payload, alone and in
   pairs, equal codes give equal labels.  Free-text labels get no code. *)
let test_bundle_code () =
  let module M = Tpc.Msg in
  let txn = "t" in
  let votes =
    [ Vote_yes { reliable = false; leave_out_ok = false };
      Vote_yes { reliable = true; leave_out_ok = false };
      Vote_yes { reliable = false; leave_out_ok = true };
      Vote_yes { reliable = true; leave_out_ok = true };
      Vote_read_only; Vote_no ]
  in
  let bools = [ false; true ] in
  let payloads =
    List.map (fun long_locks -> M.Prepare { txn; long_locks; upward = false }) bools
    @ List.concat_map
        (fun vote ->
          List.concat_map
            (fun delegation ->
              List.concat_map
                (fun unsolicited ->
                  List.map
                    (fun implied_ack ->
                      M.Vote_msg
                        { txn; vote; delegation; unsolicited; implied_ack; tag = "" })
                    bools)
                bools)
            bools)
        votes
    @ List.map (fun outcome -> M.Decision_msg { txn; outcome; cert = None }) [ Committed; Aborted ]
    @ List.map (fun pending -> M.Ack_msg { txn; damage = []; pending }) bools
    @ [ M.Data { txn; info = "" }; M.Inquiry { txn };
        M.Inquiry_reply { txn; outcome = None; cert = None };
        M.Inquiry_reply { txn; outcome = Some Committed; cert = None };
        M.Inquiry_reply { txn; outcome = Some Aborted; cert = None } ]
  in
  let bundles =
    ([] :: List.map (fun p -> [ p ]) payloads)
    @ List.concat_map (fun a -> List.map (fun b -> [ a; b ]) payloads) payloads
  in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun b ->
      let code = M.bundle_code b and label = M.bundle_label b in
      Alcotest.(check bool) ("coded: " ^ label) true (code >= 0);
      match Hashtbl.find_opt seen code with
      | Some l -> Alcotest.(check string) "one label per code" l label
      | None -> Hashtbl.add seen code label)
    bundles;
  Alcotest.(check int) "every label-distinct bundle its own code"
    (List.length (List.sort_uniq compare (List.map M.bundle_label bundles)))
    (Hashtbl.length seen);
  Alcotest.(check int) "free text has no code" (-1)
    (M.bundle_code [ M.Data { txn; info = "next-txn" } ])

let suite =
  [
    Alcotest.test_case "tree size" `Quick test_tree_size;
    Alcotest.test_case "tree members preorder" `Quick test_tree_members;
    Alcotest.test_case "member defaults" `Quick test_member_defaults;
    Alcotest.test_case "to_string helpers" `Quick test_to_string_helpers;
    Alcotest.test_case "payload txn extraction" `Quick test_payload_txn;
    Alcotest.test_case "payload labels" `Quick test_payload_labels;
    Alcotest.test_case "bundle label" `Quick test_bundle_label;
    Alcotest.test_case "damage ack label" `Quick test_damage_ack_label;
    Alcotest.test_case "metrics pretty-print" `Quick test_metrics_pp_smoke;
    Alcotest.test_case "bundle code stands for one label" `Quick test_bundle_code;
  ]
