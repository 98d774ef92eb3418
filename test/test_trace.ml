(* The trace module: counting conventions and diagram rendering. *)

module T = Tpc.Trace

let send ?(protocol = true) ~time src dst label =
  T.Send { time; src; dst; label; protocol }

let log_write ?(rm = false) ~time node kind forced =
  T.Log_write { time; node; kind; forced; rm }

let sample () =
  let t = T.create () in
  T.record t (send ~time:0.0 "a" "b" "Prepare");
  T.record t (log_write ~time:1.0 "b" Wal.Log_record.Prepared true);
  T.record t (send ~time:1.5 "b" "a" "Vote yes");
  T.record t (log_write ~time:2.5 "a" Wal.Log_record.Committed true);
  T.record t (send ~time:3.0 "a" "b" "Commit");
  T.record t (log_write ~time:4.0 "b" Wal.Log_record.Committed true);
  T.record t (log_write ~time:4.0 "b" Wal.Log_record.End false);
  T.record t (send ~time:4.5 "b" "a" "Ack");
  T.record t (log_write ~time:5.5 "a" Wal.Log_record.End false);
  T.record t
    (T.Complete { time = 5.5; node = "a"; outcome = Tpc.Types.Committed; pending = false });
  t

let test_flow_counting () =
  let t = sample () in
  Alcotest.(check int) "four protocol flows" 4 (T.flows t);
  T.record t (send ~protocol:false ~time:6.0 "a" "b" "Data");
  Alcotest.(check int) "data flows not counted" 4 (T.flows t)

let test_write_counting () =
  let t = sample () in
  Alcotest.(check int) "five TM writes" 5 (T.tm_writes t);
  Alcotest.(check int) "three forced" 3 (T.tm_forced_writes t);
  (* resource-manager records are excluded from the paper's counts *)
  T.record t (log_write ~rm:true ~time:6.0 "b" Wal.Log_record.Rm_update false);
  Alcotest.(check int) "rm writes excluded" 5 (T.tm_writes t);
  Alcotest.(check int) "but included on demand" 6
    (T.count_log_writes ~include_rm:true t)

let test_per_node_counting () =
  let t = sample () in
  Alcotest.(check int) "a sent two flows" 2 (T.node_flows t "a");
  Alcotest.(check int) "b wrote three records" 3 (T.node_writes t "b");
  Alcotest.(check int) "b forced two" 2 (T.node_writes ~forced_only:true t "b");
  (* the paper counts protocol flows only: per-node data sends are excluded *)
  T.record t (send ~protocol:false ~time:6.0 "a" "b" "Data:txn-2");
  Alcotest.(check int) "data sends excluded per node" 2 (T.node_flows t "a")

let test_forced_only_rm_interplay () =
  let t = sample () in
  T.record t (log_write ~rm:true ~time:6.0 "b" Wal.Log_record.Rm_update true);
  (* rm:true records stay excluded even when they were forced *)
  Alcotest.(check int) "forced TM writes" 3
    (T.count_log_writes ~forced_only:true t);
  Alcotest.(check int) "forced including rm" 4
    (T.count_log_writes ~include_rm:true ~forced_only:true t);
  Alcotest.(check int) "per-node forced unaffected by rm" 2
    (T.node_writes ~forced_only:true t "b")

let test_deliver_events_neutral () =
  (* Deliver events feed the telemetry spans; none of the paper-convention
     counters may move when they are recorded *)
  let t = sample () in
  let flows = T.flows t and writes = T.tm_writes t in
  T.record t (T.Deliver { time = 1.0; src = "a"; dst = "b"; label = "Prepare" });
  Alcotest.(check int) "flows unchanged" flows (T.flows t);
  Alcotest.(check int) "writes unchanged" writes (T.tm_writes t);
  Alcotest.(check int) "node flows unchanged" 2 (T.node_flows t "a")

let test_completion_time () =
  let t = sample () in
  Alcotest.(check (option (float 1e-9))) "completion recorded" (Some 5.5)
    (T.completion_time t "a");
  Alcotest.(check (option (float 1e-9))) "no completion for b" None
    (T.completion_time t "b")

let test_events_in_order () =
  let t = sample () in
  let times = List.map T.event_time (T.events t) in
  Alcotest.(check bool) "events returned oldest first" true
    (List.sort compare times = times)

let test_clear () =
  let t = sample () in
  T.clear t;
  Alcotest.(check int) "cleared" 0 (List.length (T.events t));
  Alcotest.(check int) "flows reset" 0 (T.flows t)

(* the trace and the causal graph share one log: clearing the trace
   starts its view afresh and leaves the graph's rows alone *)
let test_clear_keeps_graph () =
  let t = T.create () in
  let log = T.log t in
  Obs.Causal.set_mode log Obs.Causal.Graph;
  Obs.Causal.record log ~txn:"t1" ~who:"a" ~time:0.0 ~seg:Obs.Causal.Compute "arrival";
  T.record t (send ~time:1.0 "a" "b" "Prepare");
  T.clear t;
  T.record t (send ~time:2.0 "a" "b" "Commit");
  Alcotest.(check int) "only the send after the clear" 1 (List.length (T.events t));
  Alcotest.(check int) "the graph keeps its node" 1 (Obs.Causal.node_count log);
  Alcotest.(check int) "and its transaction's" 1
    (List.length (Obs.Causal.txn_nodes log ~txn:"t1"))

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_diagram_rendering () =
  let t = sample () in
  let d = T.sequence_diagram t ~nodes:[ "a"; "b" ] in
  Alcotest.(check bool) "header row" true (contains d "a");
  Alcotest.(check bool) "prepare arrow" true (contains d "Prepare");
  Alcotest.(check bool) "rightward arrow head" true (contains d ">");
  Alcotest.(check bool) "leftward arrow head" true (contains d "<");
  Alcotest.(check bool) "forced write marker" true (contains d "*log committed");
  Alcotest.(check bool) "non-forced write marker" true (contains d "log end")

let test_diagram_unknown_node_ignored () =
  let t = T.create () in
  T.record t (send ~time:0.0 "ghost" "b" "Prepare");
  (* rendering with a node list that lacks "ghost" must not raise *)
  let d = T.sequence_diagram t ~nodes:[ "a"; "b" ] in
  Alcotest.(check bool) "renders without the unknown arrow" true
    (not (contains d "Prepare"))

let test_diagram_from_real_run () =
  (* end to end: a default three-member commit renders with every member's
     column and the protocol's message labels *)
  let tree = Workload.flat ~n:3 () in
  let _, world = Tpc.Run.commit_tree tree in
  let nodes = List.map (fun p -> p.Tpc.Types.p_name) (Tpc.Types.tree_members tree) in
  let d = T.sequence_diagram world.Tpc.Run.trace ~nodes in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " column present") true (contains d n))
    nodes;
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " arrow present") true (contains d label))
    [ "Prepare"; "Vote"; "Commit"; "Ack" ];
  Alcotest.(check bool) "forces marked" true (contains d "*log")

let test_to_string_lines () =
  let t = sample () in
  let lines = String.split_on_char '\n' (T.to_string t) in
  Alcotest.(check int) "one line per event" 10 (List.length lines)

(* -- the event-log view against the list recorder ------------------- *)

(* Random event sequences go to both Trace and the list recorder it
   replaced (Trace_ref), and every query must answer alike.  The trace's
   log also records causal-graph rows in between, which the trace view
   must skip, and [clear] starts the view afresh while the log keeps its
   rows. *)

module Q = QCheck

let names = [| "a"; "b"; "c"; "" |]
let labels = [| "Prepare"; "Vote yes"; "Commit"; "Ack" |]
let kinds = Wal.Log_record.[| Prepared; Committed; End; Rm_update |]
let outcomes = Tpc.Types.[| Committed; Aborted |]

type op =
  | Event of T.event
  | Count_send of bool
  | Count_write of bool
  | Graph_row of float
  | Clear

let gen_event =
  let open Q.Gen in
  let* time = map float_of_int (int_bound 20)
  and* a = int_bound 3
  and* b = int_bound 3
  and* l = int_bound 3
  and* k = int_bound 3
  and* o = int_bound 1
  and* f1 = bool
  and* f2 = bool in
  let node = names.(a) and other = names.(b) and label = labels.(l) in
  let outcome = outcomes.(o) in
  frequency
    [
      (6, return (T.Send { time; src = node; dst = other; label; protocol = f1 }));
      (6, return (T.Deliver { time; src = node; dst = other; label }));
      (3, return (T.Log_write { time; node; kind = kinds.(k); forced = f1; rm = f2 }));
      (1, return (T.Decide { time; node; outcome }));
      (1, return (T.Complete { time; node; outcome; pending = f1 }));
      (1, return (T.Heuristic { time; node; action = outcome }));
      ( 1,
        return
          (T.Damage_detected
             { time; node; reported_to = (if f1 then "" else other) }) );
      (1, return (T.Locks_released { time; node }));
      (1, return (T.Crash { time; node }));
      (1, return (T.Restart { time; node }));
      (1, return (T.Note { time; node; text = label }));
    ]

let gen_op ~clears =
  let open Q.Gen in
  frequency
    [
      (40, map (fun e -> Event e) gen_event);
      (1, map (fun p -> Count_send p) bool);
      (1, map (fun f -> Count_write f) bool);
      (3, map (fun t -> Graph_row (float_of_int t)) (int_bound 20));
      (clears, return Clear);
    ]

let show_op = function
  | Event e -> T.event_to_string e
  | Count_send p -> Printf.sprintf "count_send %b" p
  | Count_write f -> Printf.sprintf "count_tm_write %b" f
  | Graph_row t -> Printf.sprintf "graph row @%g" t
  | Clear -> "clear"

let arb gen =
  Q.make ~print:(fun ops -> String.concat "\n" (List.map show_op ops)) gen

let apply t r = function
  | Event e ->
      T.record t e;
      Trace_ref.record r e
  | Count_send protocol ->
      T.count_send t ~protocol;
      Trace_ref.count_send r ~protocol
  | Count_write forced ->
      T.count_tm_write t ~forced;
      Trace_ref.count_tm_write r ~forced
  | Graph_row time ->
      Obs.Causal.record (T.log t) ~txn:"t1" ~who:"a" ~time ~seg:Obs.Causal.Compute
        "graph only"
  | Clear ->
      T.clear t;
      Trace_ref.clear r

let agrees_with_reference ops =
  let t = T.create () and r = Trace_ref.create () in
  Obs.Causal.set_mode (T.log t) Obs.Causal.Graph;
  List.iter (apply t r) ops;
  T.events t = Trace_ref.events r
  && [ T.flows t; T.data_flows t; T.tm_writes t; T.tm_forced_writes t ]
     = Trace_ref.counters r
  && T.matched_flows t = Trace_ref.matched_flows r
  && Array.for_all
       (fun n ->
         T.node_flows t n = Trace_ref.node_flows r n
         && T.node_writes t n = Trace_ref.node_writes r n
         && T.node_writes ~forced_only:true t n
            = Trace_ref.node_writes ~forced_only:true r n
         && T.completion_time t n = Trace_ref.completion_time r n
         && T.locks_released_time t n = Trace_ref.locks_released_time r n)
       names
  && T.to_string t = Trace_ref.to_string r

let prop_matches_reference =
  Q.Test.make ~count:300 ~name:"event-log trace answers like the list recorder"
    (arb Q.Gen.(list_size (int_range 0 150) (gen_op ~clears:2)))
    agrees_with_reference

(* a clear early on, then more rows than one 4,096-row chunk holds, so
   the view starts inside one chunk and reads across the next *)
let prop_matches_reference_across_chunks =
  Q.Test.make ~count:3
    ~name:"event-log trace answers like the list recorder past a chunk"
    (arb
       Q.Gen.(
         let* before = list_size (int_range 500 1500) (gen_op ~clears:0)
         and* after = list_size (int_range 4500 6000) (gen_op ~clears:0) in
         return (before @ (Clear :: after))))
    agrees_with_reference

let suite =
  [
    Alcotest.test_case "flow counting" `Quick test_flow_counting;
    Alcotest.test_case "write counting" `Quick test_write_counting;
    Alcotest.test_case "per-node counting" `Quick test_per_node_counting;
    Alcotest.test_case "forced-only with rm records" `Quick
      test_forced_only_rm_interplay;
    Alcotest.test_case "deliver events don't move counters" `Quick
      test_deliver_events_neutral;
    Alcotest.test_case "diagram from a real run" `Quick
      test_diagram_from_real_run;
    Alcotest.test_case "completion time" `Quick test_completion_time;
    Alcotest.test_case "events in order" `Quick test_events_in_order;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "diagram rendering" `Quick test_diagram_rendering;
    Alcotest.test_case "diagram ignores unknown nodes" `Quick
      test_diagram_unknown_node_ignored;
    Alcotest.test_case "to_string lines" `Quick test_to_string_lines;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_matches_reference_across_chunks;
    Alcotest.test_case "clear keeps the graph's rows" `Quick test_clear_keeps_graph;
  ]
