(* The causal recorder: chain/edge construction, send-deliver matching,
   binding-cause critical paths, and the telescoping guarantee that the
   per-class attribution sums exactly to end-to-end latency — both on
   hand-built graphs and on a real fixed-seed mixer run. *)

module C = Obs.Causal

let ids nodes = List.map (fun n -> n.C.cn_id) nodes
let labels hops = List.map (fun h -> h.C.h_node.C.cn_label) hops

(* -- off mode ------------------------------------------------------- *)

let test_off_records_nothing () =
  let c = C.create () in
  Alcotest.(check bool) "disabled" false (C.enabled c);
  C.record c ~txn:"t1" ~who:"a" ~time:0.0 ~seg:C.Compute "e1";
  C.send c ~txn:"t1" ~src:"a" ~dst:"b" ~time:1.0 ~label:"m";
  C.deliver c ~txn:"t1" ~src:"a" ~dst:"b" ~time:2.0 ~label:"m";
  Alcotest.(check int) "no nodes" 0 (C.node_count c);
  Alcotest.(check bool) "no path" true (C.critical_path c ~txn:"t1" = None)

(* -- chains and edges ----------------------------------------------- *)

let test_chain_edges () =
  let c = C.create ~mode:C.Graph () in
  C.record c ~txn:"t1" ~who:"a" ~time:0.0 ~seg:C.Compute "first";
  C.record c ~txn:"t1" ~who:"a" ~time:1.0 ~seg:C.Compute "second";
  C.record c ~txn:"t1" ~who:"b" ~time:2.0 ~seg:C.Compute "other chain";
  match C.txn_nodes c ~txn:"t1" with
  | [ n0; n1; n2 ] ->
      Alcotest.(check (list int)) "chain head has no cause" [] n0.C.cn_causes;
      Alcotest.(check (list int))
        "second caused by first" [ n0.C.cn_id ] n1.C.cn_causes;
      Alcotest.(check (list int))
        "chains are per (txn, who)" [] n2.C.cn_causes
  | nodes -> Alcotest.failf "expected 3 nodes, got %d" (List.length nodes)

let test_link_from () =
  let c = C.create ~mode:C.Graph () in
  C.record c ~txn:"t1" ~who:"root" ~time:0.0 ~seg:C.Compute "trigger";
  C.record c ~txn:"t1" ~who:"sub" ~time:1.0 ~link_from:"root" ~seg:C.Compute
    "unsolicited";
  match C.txn_nodes c ~txn:"t1" with
  | [ root; sub ] ->
      Alcotest.(check (list int))
        "cross-chain edge from root" [ root.C.cn_id ] sub.C.cn_causes
  | _ -> Alcotest.fail "expected 2 nodes"

let test_txn_isolation () =
  let c = C.create ~mode:C.Graph () in
  C.record c ~txn:"t1" ~who:"a" ~time:0.0 ~seg:C.Compute "t1 event";
  C.record c ~txn:"t2" ~who:"a" ~time:1.0 ~seg:C.Compute "t2 event";
  (match C.txn_nodes c ~txn:"t2" with
  | [ n ] -> Alcotest.(check (list int)) "no cross-txn cause" [] n.C.cn_causes
  | _ -> Alcotest.fail "expected 1 node");
  Alcotest.(check int) "t1 unpolluted" 1
    (List.length (C.txn_nodes c ~txn:"t1"))

(* -- send/deliver matching ------------------------------------------ *)

let test_send_deliver_match () =
  let c = C.create ~mode:C.Graph () in
  C.send c ~txn:"t1" ~src:"a" ~dst:"b" ~time:0.0 ~label:"Prepare";
  C.deliver c ~txn:"t1" ~src:"a" ~dst:"b" ~time:2.0 ~label:"Prepare";
  match C.txn_nodes c ~txn:"t1" with
  | [ s; d ] ->
      Alcotest.(check (list int))
        "delivery caused by its send" [ s.C.cn_id ] d.C.cn_causes
  | _ -> Alcotest.fail "expected 2 nodes"

let test_retransmit_matches_newest_send () =
  let c = C.create ~mode:C.Graph () in
  C.send c ~txn:"t1" ~src:"a" ~dst:"b" ~time:0.0 ~label:"Commit";
  C.send c ~txn:"t1" ~src:"a" ~dst:"b" ~time:5.0 ~label:"Commit";
  C.deliver c ~txn:"t1" ~src:"a" ~dst:"b" ~time:7.0 ~label:"Commit";
  let nodes = C.txn_nodes c ~txn:"t1" in
  match nodes with
  | [ _s0; s1; d ] ->
      (* the retransmitted copy, not the original, is the message edge;
         the chain edge from s1 to itself-prev also lands in causes *)
      Alcotest.(check bool)
        "newest send is a cause" true
        (List.mem s1.C.cn_id d.C.cn_causes)
  | _ -> Alcotest.failf "expected 3 nodes, got %d" (List.length nodes)

let test_deliver_never_matches_future_send () =
  let c = C.create ~mode:C.Graph () in
  C.send c ~txn:"t1" ~src:"a" ~dst:"b" ~time:9.0 ~label:"Commit";
  C.deliver c ~txn:"t1" ~src:"a" ~dst:"b" ~time:3.0 ~label:"Commit";
  match C.txn_nodes c ~txn:"t1" with
  | [ _; _ ] ->
      let d =
        List.find (fun n -> n.C.cn_time = 3.0) (C.txn_nodes c ~txn:"t1")
      in
      Alcotest.(check (list int)) "no acausal edge" [] d.C.cn_causes
  | _ -> Alcotest.fail "expected 2 nodes"

let test_forged_delivery_has_no_message_edge () =
  let c = C.create ~mode:C.Graph () in
  C.deliver c ~txn:"t1" ~src:"a" ~dst:"b" ~time:1.0 ~label:"Commit";
  match C.txn_nodes c ~txn:"t1" with
  | [ d ] -> Alcotest.(check (list int)) "no causes" [] d.C.cn_causes
  | _ -> Alcotest.fail "expected 1 node"

(* -- critical path -------------------------------------------------- *)

(* A two-member commit shape: root computes, sends, sub logs and votes,
   root completes.  The binding chain must route through the message
   path even though a faster local step exists on the root's chain. *)
let build_diamond () =
  let c = C.create ~mode:C.Graph () in
  C.record c ~txn:"t1" ~who:"root" ~time:0.0 ~seg:C.Compute "arrival";
  C.send c ~txn:"t1" ~src:"root" ~dst:"sub" ~time:1.0 ~label:"Prepare";
  C.deliver c ~txn:"t1" ~src:"root" ~dst:"sub" ~time:2.0 ~label:"Prepare";
  C.record c ~txn:"t1" ~who:"sub" ~time:4.0 ~seg:C.Log_wait "prepared durable";
  C.send c ~txn:"t1" ~src:"sub" ~dst:"root" ~time:4.0 ~label:"Vote";
  C.record c ~txn:"t1" ~who:"root" ~time:1.5 ~seg:C.Compute "local step";
  C.deliver c ~txn:"t1" ~src:"sub" ~dst:"root" ~time:5.0 ~label:"Vote";
  C.record c ~terminal:true ~txn:"t1" ~who:"root" ~time:5.5 ~seg:C.Compute
    "completed";
  c

let test_critical_path_follows_binding_cause () =
  let c = build_diamond () in
  match C.critical_path c ~txn:"t1" with
  | None -> Alcotest.fail "expected a path"
  | Some hops ->
      Alcotest.(check (list string))
        "binding chain routes through the subordinate"
        [
          "arrival";
          "send Prepare -> sub";
          "deliver Prepare from root";
          "prepared durable";
          "send Vote -> root";
          "deliver Vote from sub";
          "completed";
        ]
        (labels hops);
      (match hops with
      | head :: _ -> Alcotest.(check (float 0.0)) "head dt" 0.0 head.C.h_dt
      | [] -> Alcotest.fail "empty path");
      let segs = C.path_segments hops in
      Alcotest.(check (float 1e-9))
        "telescoping: buckets sum to end-to-end" 5.5 (C.segments_total segs);
      Alcotest.(check (float 1e-9)) "log-wait bucket" 2.0 segs.C.sg_log;
      Alcotest.(check (float 1e-9)) "msg-wait bucket" 2.0 segs.C.sg_msg;
      Alcotest.(check (float 1e-9)) "compute bucket" 1.5 segs.C.sg_compute

let test_terminal_preferred_over_latest () =
  let c = C.create ~mode:C.Graph () in
  C.record c ~txn:"t1" ~who:"a" ~time:0.0 ~seg:C.Compute "arrival";
  C.record c ~terminal:true ~txn:"t1" ~who:"a" ~time:2.0 ~seg:C.Compute
    "terminal";
  C.record c ~txn:"t1" ~who:"a" ~time:9.0 ~seg:C.In_doubt "late cleanup";
  match C.critical_path c ~txn:"t1" with
  | Some hops ->
      Alcotest.(check string)
        "path ends at the marked terminal" "terminal"
        (List.nth hops (List.length hops - 1)).C.h_node.C.cn_label
  | None -> Alcotest.fail "expected a path"

let test_empty_txn_has_no_path () =
  let c = C.create ~mode:C.Graph () in
  Alcotest.(check bool) "no path" true (C.critical_path c ~txn:"ghost" = None);
  Alcotest.(check (list int)) "no nodes" [] (ids (C.txn_nodes c ~txn:"ghost"))

(* -- integration: attribution accounts for all latency -------------- *)

(* The PR's acceptance criterion: on a real run, every committed
   transaction's critical-path buckets sum exactly to its end-to-end
   latency (completion - arrival). *)
let test_mixer_attribution_sums_to_latency () =
  let cfg =
    { Tpc.Mixer.default_cfg with Tpc.Mixer.txns = 30; concurrency = 6; seed = 11 }
  in
  let tree = Workload.mixer_tree ~n:4 ~opts:[] () in
  let _agg, w, summaries =
    Tpc.Mixer.run_full ~causal:C.Graph cfg tree
  in
  let checked = ref 0 in
  List.iter
    (fun s ->
      match s.Tpc.Mixer.ts_completed with
      | None -> ()
      | Some done_at ->
          let expect = done_at -. s.Tpc.Mixer.ts_arrival in
          (match C.critical_path w.Tpc.Run.causal ~txn:s.Tpc.Mixer.ts_txn with
          | None ->
              Alcotest.failf "txn %s completed but has no causal path"
                s.Tpc.Mixer.ts_txn
          | Some hops ->
              let total = C.segments_total (C.path_segments hops) in
              if Float.abs (total -. expect) > 1e-6 then
                Alcotest.failf
                  "txn %s: attribution %.9f <> end-to-end %.9f"
                  s.Tpc.Mixer.ts_txn total expect;
              incr checked))
    summaries;
  Alcotest.(check bool)
    (Printf.sprintf "checked %d completed transactions" !checked)
    true
    (!checked >= 25)

let test_mixer_graph_deterministic () =
  let cfg =
    { Tpc.Mixer.default_cfg with Tpc.Mixer.txns = 20; concurrency = 4; seed = 5 }
  in
  let tree = Workload.mixer_tree ~n:4 ~opts:[] () in
  let narrative () =
    let _, w, _ = Tpc.Mixer.run_full ~causal:C.Graph cfg tree in
    List.concat_map
      (fun i ->
        let txn = Printf.sprintf "mx-%d" i in
        List.map
          (fun n ->
            Printf.sprintf "%d %s %s %.6f %s" n.C.cn_id n.C.cn_txn n.C.cn_who
              n.C.cn_time n.C.cn_label)
          (C.txn_nodes w.Tpc.Run.causal ~txn))
      (List.init 20 (fun i -> i + 1))
  in
  Alcotest.(check (list string))
    "same seed, same graph" (narrative ()) (narrative ())

let test_mixer_off_mode_records_nothing () =
  let cfg =
    { Tpc.Mixer.default_cfg with Tpc.Mixer.txns = 10; concurrency = 2; seed = 3 }
  in
  let tree = Workload.mixer_tree ~n:4 ~opts:[] () in
  let _, w, _ = Tpc.Mixer.run_full cfg tree in
  Alcotest.(check int) "off by default" 0 (C.node_count w.Tpc.Run.causal)

(* -- the column store against the string-keyed recorder ------------- *)

(* Random event sequences go to both Obs.Causal and the string-keyed
   recorder it replaced (Causal_ref), and every query must answer alike.
   Times are small integers, so ties, deliveries before their send and
   retransmissions of one (src, dst, label) are common. *)

module Q = QCheck

let txn_names = [| "mx-1"; "mx-2"; "mx-3" |]
let member_names = [| "coord"; "sub0"; "sub1"; "sub2" |]
let msg_labels = [| "Prepare"; "Vote yes"; "Commit" |]
let event_labels = [| "arrival"; "force prepared"; "decides commit" |]
let segs = [| C.Compute; C.Log_wait; C.Msg_wait; C.Lock_wait; C.In_doubt |]

type link = No_link | Self | Chainless | Member of int

type op =
  | Record of {
      txn : int;
      who : int;
      time : int;
      seg : int;
      label : int;
      link : link;
      terminal : bool;
    }
  | Send of { txn : int; src : int; dst : int; time : int; label : int }
  | Deliver of { txn : int; src : int; dst : int; time : int; label : int }

let show_op = function
  | Record { txn; who; time; seg; label; link; terminal } ->
      Printf.sprintf "record %s %s @%d %s %S%s%s" txn_names.(txn)
        member_names.(who) time
        (C.seg_name segs.(seg))
        event_labels.(label)
        (match link with
        | No_link -> ""
        | Self -> " link=self"
        | Chainless -> " link=chainless"
        | Member m -> " link=" ^ member_names.(m))
        (if terminal then " terminal" else "")
  | Send { txn; src; dst; time; label } ->
      Printf.sprintf "send %s %s->%s @%d %S" txn_names.(txn) member_names.(src)
        member_names.(dst) time msg_labels.(label)
  | Deliver { txn; src; dst; time; label } ->
      Printf.sprintf "deliver %s %s->%s @%d %S" txn_names.(txn)
        member_names.(src) member_names.(dst) time msg_labels.(label)

let gen_op =
  let open Q.Gen in
  let* txn = int_bound 2
  and* a = int_bound 3
  and* b = int_bound 3
  and* time = int_bound 15
  and* label = int_bound 2 in
  frequency
    [
      ( 4,
        let+ seg = int_bound 4
        and+ link =
          frequency
            [
              (6, return No_link);
              (1, return Self);
              (1, return Chainless);
              (2, map (fun m -> Member m) (int_bound 3));
            ]
        and+ terminal = frequency [ (9, return false); (1, return true) ] in
        Record { txn; who = a; time; seg; label; link; terminal } );
      (3, return (Send { txn; src = a; dst = b; time; label }));
      (3, return (Deliver { txn; src = a; dst = b; time; label }));
    ]

let arb_ops ~min ~max =
  Q.make
    ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
    Q.Gen.(list_size (int_range min max) gen_op)

(* A name equal to, but not physically, the one any earlier call passed,
   so the interner's one-entry cache misses. *)
let rebuilt s = Bytes.to_string (Bytes.of_string s)

let apply c r op =
  let txn_of x = rebuilt txn_names.(x) and member m = rebuilt member_names.(m) in
  match op with
  | Record { txn; who; time; seg; label; link; terminal } ->
      let link_from =
        match link with
        | No_link -> None
        | Self -> Some (member who)
        | Chainless -> Some "sub9"
        | Member m -> Some (member m)
      in
      let time = float_of_int time and seg = segs.(seg) in
      C.record ~terminal ?link_from c ~txn:(txn_of txn) ~who:(member who) ~time
        ~seg event_labels.(label);
      Causal_ref.record ~terminal ?link_from r ~txn:(txn_of txn)
        ~who:(member who) ~time ~seg event_labels.(label)
  | Send { txn; src; dst; time; label } ->
      let time = float_of_int time and label = rebuilt msg_labels.(label) in
      C.send c ~txn:(txn_of txn) ~src:(member src) ~dst:(member dst) ~time ~label;
      Causal_ref.send r ~txn:(txn_of txn) ~src:(member src) ~dst:(member dst)
        ~time ~label
  | Deliver { txn; src; dst; time; label } ->
      let time = float_of_int time and label = rebuilt msg_labels.(label) in
      C.deliver c ~txn:(txn_of txn) ~src:(member src) ~dst:(member dst) ~time
        ~label;
      Causal_ref.deliver r ~txn:(txn_of txn) ~src:(member src)
        ~dst:(member dst) ~time ~label

let agrees_with_reference ops =
  let c = C.create ~mode:C.Graph () and r = Causal_ref.create () in
  List.iter (apply c r) ops;
  C.node_count c = Causal_ref.node_count r
  && List.for_all
       (fun txn ->
         C.txn_nodes c ~txn = Causal_ref.txn_nodes r ~txn
         && C.critical_path c ~txn = Causal_ref.critical_path r ~txn)
       ("mx-404" :: Array.to_list txn_names)

let prop_matches_reference =
  Q.Test.make ~count:500
    ~name:"column store answers like the string-keyed recorder"
    (arb_ops ~min:0 ~max:120) agrees_with_reference

(* more rows than one 4,096-row chunk holds, so queries cross chunks *)
let prop_matches_reference_across_chunks =
  Q.Test.make ~count:3
    ~name:"column store answers like the string-keyed recorder past a chunk"
    (arb_ops ~min:9_000 ~max:10_000) agrees_with_reference

(* -- writing by id against the string entry points ------------------ *)

(* The participants and the mixer write graph rows by id and kind code,
   in a log whose trace view records too; the string entry points intern
   names and write free text.  The same random ops go both ways and the
   graphs must answer alike.  The id side interns every name up front (so
   its ids differ from the string side's), writes the three event labels
   as the kinds that render them when it can, puts sends and deliveries in
   the trace view as well, and adds a trace-only row after each send,
   which the graph's node ids must skip. *)

module Ev = Obs.Events

let apply_by_id log op =
  let txn x = Ev.txn log txn_names.(x) and member m = Ev.member log member_names.(m) in
  let label text = Ev.label log text in
  let both = Ev.trace_view lor Ev.graph_view in
  match op with
  | Record { txn = x; who; time; seg; label = l; link; terminal } ->
      let time = float_of_int time in
      let flags = if terminal then Ev.terminal else 0 in
      let row kind ~peer ~label ~flags =
        Ev.emit_at log ~views:Ev.graph_view kind ~time ~txn:(txn x) ~who:(member who)
          ~peer ~label ~flags
      in
      if seg = 0 && link = No_link then
        match l with
        | 0 -> row Ev.Arrival ~peer:(-1) ~label:(-1) ~flags
        | 1 ->
            row Ev.Log_write ~peer:(-1) ~label:(-1)
              ~flags:(flags lor Ev.forced lor Ev.record Wal.Log_record.Prepared)
        | _ -> row Ev.Decide ~peer:(-1) ~label:(-1) ~flags
      else
        let peer =
          match link with
          | No_link | Chainless -> -1
          | Self -> member who
          | Member m -> member m
        in
        row Ev.Text ~peer ~label:(label event_labels.(l)) ~flags:(flags lor Ev.seg seg)
  | Send { txn = x; src; dst; time; label = l } ->
      let time = float_of_int time in
      Ev.emit_at log ~views:both Ev.Send ~time ~txn:(txn x) ~who:(member src)
        ~peer:(member dst) ~label:(label msg_labels.(l)) ~flags:Ev.protocol;
      Ev.emit_at log ~views:both Ev.Note ~time ~txn:(-1) ~who:(member src)
        ~peer:(-1) ~label:(label "trace only") ~flags:0
  | Deliver { txn = x; src; dst; time; label = l } ->
      Ev.emit_at log ~views:both Ev.Deliver ~time:(float_of_int time) ~txn:(txn x)
        ~who:(member dst) ~peer:(member src) ~label:(label msg_labels.(l)) ~flags:0

let by_id_agrees ops =
  let c = C.create ~mode:C.Graph () and log = Ev.create () in
  Ev.set_tracing log true;
  Ev.set_graphing log true;
  Array.iter (fun n -> ignore (Ev.member log n)) member_names;
  Array.iter (fun n -> ignore (Ev.txn log n)) txn_names;
  List.iter
    (fun op ->
      apply_by_id log op;
      match op with
      | Record { txn; who; time; seg; label; link; terminal } ->
          let link_from =
            match link with
            | No_link -> None
            | Self -> Some member_names.(who)
            | Chainless -> Some "sub9"
            | Member m -> Some member_names.(m)
          in
          C.record ~terminal ?link_from c ~txn:txn_names.(txn)
            ~who:member_names.(who) ~time:(float_of_int time) ~seg:segs.(seg)
            event_labels.(label)
      | Send { txn; src; dst; time; label } ->
          C.send c ~txn:txn_names.(txn) ~src:member_names.(src)
            ~dst:member_names.(dst) ~time:(float_of_int time)
            ~label:msg_labels.(label)
      | Deliver { txn; src; dst; time; label } ->
          C.deliver c ~txn:txn_names.(txn) ~src:member_names.(src)
            ~dst:member_names.(dst) ~time:(float_of_int time)
            ~label:msg_labels.(label))
    ops;
  C.node_count c = C.node_count log
  && List.for_all
       (fun txn ->
         C.txn_nodes c ~txn = C.txn_nodes log ~txn
         && C.critical_path c ~txn = C.critical_path log ~txn)
       ("mx-404" :: Array.to_list txn_names)

let prop_by_id_matches_strings =
  Q.Test.make ~count:500 ~name:"rows written by id answer like the string API"
    (arb_ops ~min:0 ~max:120) by_id_agrees

let prop_by_id_matches_strings_across_chunks =
  Q.Test.make ~count:3
    ~name:"rows written by id answer like the string API past a chunk"
    (arb_ops ~min:6_000 ~max:8_000) by_id_agrees

let suite =
  [
    Alcotest.test_case "off mode records nothing" `Quick test_off_records_nothing;
    Alcotest.test_case "chain edges" `Quick test_chain_edges;
    Alcotest.test_case "cross-chain link_from" `Quick test_link_from;
    Alcotest.test_case "transactions are isolated" `Quick test_txn_isolation;
    Alcotest.test_case "send/deliver matching" `Quick test_send_deliver_match;
    Alcotest.test_case "retransmission matches newest send" `Quick
      test_retransmit_matches_newest_send;
    Alcotest.test_case "no acausal message edge" `Quick
      test_deliver_never_matches_future_send;
    Alcotest.test_case "forged delivery has no message edge" `Quick
      test_forged_delivery_has_no_message_edge;
    Alcotest.test_case "critical path follows binding cause" `Quick
      test_critical_path_follows_binding_cause;
    Alcotest.test_case "marked terminal preferred" `Quick
      test_terminal_preferred_over_latest;
    Alcotest.test_case "empty transaction has no path" `Quick
      test_empty_txn_has_no_path;
    Alcotest.test_case "attribution sums to end-to-end latency" `Quick
      test_mixer_attribution_sums_to_latency;
    Alcotest.test_case "graph is deterministic" `Quick
      test_mixer_graph_deterministic;
    Alcotest.test_case "mixer defaults to off" `Quick
      test_mixer_off_mode_records_nothing;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_matches_reference_across_chunks;
    QCheck_alcotest.to_alcotest prop_by_id_matches_strings;
    QCheck_alcotest.to_alcotest prop_by_id_matches_strings_across_chunks;
  ]
