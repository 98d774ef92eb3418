(* The commit ledger: what one committed transaction costs this simulator,
   end to end and layer by layer.

     ledger.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                [--trace-out FILE] [--out FILE]
     ledger.exe --smoke
     ledger.exe --compare A.jsonl B.jsonl

   A run prints one line per repetition and, as its last line, one JSON
   object with the keys correct/attempted/failed/metrics: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  Any failed
   correctness gate makes the run exit 1.  README.md defines every metric. *)

module H = Obs.Histogram

let median = Sim.median

(* quartiles as Python's statistics.quantiles(values, n=4) gives them *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  let q i =
    let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
    let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  if n < 2 then (median l, median l) else (q 1, q 3)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* -- correctness gates ---------------------------------------------------- *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

let known_violation seed = List.mem_assoc seed Spec.known_violations

(* A violating chaos cell, shrunk to its minimal plan unless the baseline
   already records it. *)
let report_violation (wl : Spec.t) seed =
  let plan =
    match List.assoc_opt seed Spec.known_violations with
    | Some p -> Faultlab.of_string p
    | None ->
        Faultlab.shrink
          ~check:(fun plan ->
            let _, v =
              Faultlab.run_case ~config:wl.config { wl.mix with seed } wl.tree plan
            in
            not (Faultlab.ok v))
          (Spec.plan_for wl ~cell:seed)
  in
  Printf.printf "chaos seed %d violates the audit (%s); replay with:\n  %s\n" seed
    (if known_violation seed then "recorded in the baseline" else "NEW")
    (Spec.replay_line wl ~seed plan)

(* The gates every repetition's counts must pass. *)
let check_counts (wl : Spec.t) (c : Sim.counts) =
  (match wl.closed_form with
  | Some cf ->
      let expect what got per =
        if got <> c.committed * per then
          fail "%s: %s = %d, closed form wants %d per commit x %d commits" wl.name
            what got per c.committed
      in
      expect "flows" c.flows cf.Tpc.Cost_model.flows;
      expect "TM writes" c.tm_writes cf.writes;
      expect "TM forced writes" c.tm_forced cf.forced;
      if c.violations > 0 then fail "%s: %d audit violations" wl.name c.violations;
      if c.unresolved > 0 then fail "%s: %d transactions never resolved" wl.name c.unresolved
  | None -> ());
  List.iter
    (fun seed -> if not (known_violation seed) then fail "%s: chaos seed %d violates the audit" wl.name seed)
    c.violated;
  if c.committed = 0 then fail "%s: nothing committed" wl.name

(* Operations that failed: violations the baseline does not record, and,
   on the fault-free workloads, transactions that never resolved. *)
let failed_ops (wl : Spec.t) (c : Sim.counts) =
  match wl.shape with
  | Spec.Batch -> c.violations + c.unresolved
  | Spec.Cells _ -> List.length (List.filter (fun s -> not (known_violation s)) c.violated)

let same_counts what (a : Sim.counts) (b : Sim.counts) =
  if a <> b then fail "%s: counts differ (events %d vs %d, digest %s vs %s)" what a.events b.events
      (Digest.to_hex a.agg_digest) (Digest.to_hex b.agg_digest)

(* Cross-check the first [first] cells' verdicts against the chaos sweep
   of [Driver.chaos_cells] at one job. *)
let cross_check (wl : Spec.t) (c : Sim.counts) ~first =
  match wl.shape with
  | Spec.Batch -> ()
  | Spec.Cells { gen; _ } ->
      let cells, _ =
        Driver.chaos_cells ~jobs:1
          {
            Driver.ch_config = wl.config;
            ch_tree = wl.tree;
            ch_mixer = wl.mix;
            ch_seed0 = 1;
            ch_seeds = first;
            ch_gen = gen;
            ch_plan = None;
            ch_broken = false;
            ch_shrink = false;
            ch_protocol_flag = Tpc.Protocol.flag wl.config.protocol;
            ch_n = Tpc.Types.tree_size wl.tree;
            ch_adversary = false;
            ch_blocking = false;
          }
      in
      let theirs =
        List.filter_map
          (fun (cc : Driver.chaos_cell) -> if cc.cc_violated then Some cc.cc_seed else None)
          cells
      in
      let ours = List.filter (fun s -> s <= first) c.violated in
      if ours <> theirs then
        fail "%s: violating seeds in 1..%d differ from Driver.chaos_cells" wl.name first

(* The workload with the full event trace and causal graphs on or off. *)
let observed (wl : Spec.t) on =
  {
    wl with
    config = Tpc.Types.with_trace_events on wl.config;
    causal = (if on then Obs.Causal.Graph else Obs.Causal.Off);
  }

(* Observability must not change the run. *)
let same_aggregates (wl : Spec.t) (on : Sim.result) (off : Sim.result) =
  if on.counts.agg_digest <> off.counts.agg_digest then
    fail "%s: aggregates differ with observability on and off" wl.name

(* The extra wall seconds per 1000 committed transactions that turning
   observability on costs, over a slice of the workload. *)
let obs_overhead (wl : Spec.t) ~seed =
  let slice =
    match wl.shape with
    | Spec.Batch -> { wl with mix = { wl.mix with txns = min wl.mix.txns 2000 } }
    | Spec.Cells c -> { wl with shape = Spec.Cells { c with count = 50 } }
  in
  let off = Sim.rep (observed slice false) ~seed and on = Sim.rep (observed slice true) ~seed in
  same_aggregates wl on off;
  (on.timing.wall -. off.timing.wall) *. 1000.0 /. float_of_int on.counts.committed

(* -- result line ------------------------------------------------------------ *)

let print_result ~attempted ~failed metrics =
  let metric (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite v then v else 0.0)
      unit
  in
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (!failures = [] && failed = 0)
      attempted failed
      (String.concat ", " (List.map metric metrics))
  in
  List.iter (Printf.printf "FAILED: %s\n") (List.rev !failures);
  print_endline line;
  line

let record_line out (wl : Spec.t) ~seed ~trace line =
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"result\": %s}\n"
        wl.name seed (if trace then 1 else 0) line;
      close_out oc)
    out

(* -- untraced run: the end-to-end metrics ------------------------------------ *)

(* The first repetition runs on a cold heap; three or more let the median
   set it aside. *)
let min_reps = 3

let untraced (wl : Spec.t) ~seed ~seconds =
  let rec loop acc elapsed =
    let (r : Sim.result) = Sim.rep ~gate:(acc = []) wl ~seed in
    Printf.printf "%s rep %d: %d/%d committed, %.3f s wall, %.0f txn/s, set-up %.5f s\n%!"
      wl.name (List.length acc + 1) r.counts.committed r.counts.txns r.timing.wall
      (float_of_int r.counts.committed /. r.timing.wall)
      r.timing.setup;
    let acc = r :: acc and elapsed = elapsed +. r.timing.wall in
    if List.length acc >= min_reps && elapsed >= seconds then List.rev acc
    else loop acc elapsed
  in
  let reps = loop [] 0.0 in
  let (first : Sim.result) = List.hd reps in
  let c = first.counts in
  List.iteri (fun i (r : Sim.result) -> same_counts (Printf.sprintf "%s rep %d" wl.name (i + 1)) c r.counts) reps;
  check_counts wl c;
  List.iter (report_violation wl) c.violated;
  cross_check wl c ~first:400;
  Printf.printf "commit latency over %d samples, lock hold over %d samples\n" c.commit_samples
    c.hold_samples;
  let per_commit x = ratio x c.committed in
  let values =
    [
      ( "txn_per_s",
        median (List.map (fun r -> float_of_int r.Sim.counts.committed /. r.timing.wall) reps) );
      ("setup_s", median (List.map (fun r -> r.Sim.timing.setup) reps));
      ("alloc_words_per_txn", c.alloc_words /. float_of_int c.committed);
      ("retained_bytes_per_txn", first.retained);
      ("events_per_txn", per_commit c.events);
      ("flows_per_commit", per_commit c.flows);
      ("forced_writes_per_commit", per_commit c.tm_forced);
      ("force_ios_per_commit", per_commit c.force_ios);
      ("commit_latency_p50_sim", c.commit_p50);
      ("commit_latency_p99_sim", c.commit_p99);
      ("lock_hold_p99_sim", c.hold_p99);
      ("commit_ratio", ratio c.committed c.txns);
      ("clean_ratio", 1.0 -. ratio (c.violations + c.unresolved) c.txns);
    ]
  in
  let metrics =
    List.map
      (fun (m : Spec.metric) -> (m.m_name, m.m_unit, List.assoc m.m_name values))
      Spec.end_to_end
  in
  let attempted = List.fold_left (fun acc r -> acc + r.Sim.counts.txns) 0 reps in
  let failed = List.fold_left (fun acc r -> acc + failed_ops wl r.Sim.counts) 0 reps in
  print_result ~attempted ~failed metrics

(* -- traced run: the per-layer metrics --------------------------------------- *)

let write_spans path spans =
  let origin = List.fold_left (fun acc (_, a, _) -> min acc a) Int64.max_int spans in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let ev (name, a, b) =
    Tpc.Json.Obj
      [
        ("name", Tpc.Json.String name);
        ("cat", Tpc.Json.String "ledger");
        ("ph", Tpc.Json.String "X");
        ("ts", Tpc.Json.Float (us a));
        ("dur", Tpc.Json.Float (us b -. us a));
        ("pid", Tpc.Json.Int 1);
        ("tid", Tpc.Json.Int 1);
      ]
  in
  let oc = open_out path in
  output_string oc
    (Tpc.Json.to_string (Tpc.Json.Obj [ ("traceEvents", Tpc.Json.List (List.map ev spans)) ]));
  close_out oc

let default_trace_out (wl : Spec.t) ~seed =
  let dir = Filename.concat "bench" (Filename.concat "ledger" "out") in
  if Sys.file_exists (Filename.dirname dir) then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Some (Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" wl.name seed))
  end
  else None

let traced (wl : Spec.t) ~seed ~trace_out =
  let timed = Sim.timed in
  (* a warm-up first, so both timed repetitions run on a warm heap *)
  ignore (Sim.rep ~gate:false wl ~seed);
  let u, s_u = timed "untraced rep" (fun () -> Sim.rep wl ~seed) in
  let tr = Sim.new_trace () in
  let t, s_t = timed "traced rep" (fun () -> Sim.rep ~trace:tr wl ~seed) in
  let c = u.counts and tm = u.timing in
  check_counts wl c;
  same_counts (wl.name ^ " traced vs untraced")
    { c with alloc_words = 0.0 }
    { t.counts with alloc_words = 0.0 };
  let lay, s_lay = Layers.replay wl c in
  let overhead, s_obs = timed "obs on vs off" (fun () -> obs_overhead wl ~seed) in
  let per x = ratio x c.committed in
  let per_1k x = 1000.0 *. ratio x c.committed in
  let loop_ns_per_txn = tm.loop *. 1e9 /. float_of_int c.committed in
  let share calls ns = calls *. ns /. loop_ns_per_txn in
  let kernel_share = share (per c.events) lay.ns_per_event
  and net_share = share (per c.deliveries) lay.ns_per_flow
  and wal_share = share (per c.wal_forced) lay.ns_per_force
  and lock_share = share (per c.acquisitions) lay.ns_per_acquire
  and kv_share = share (per c.kv_ops) lay.ns_per_op in
  let q h p = if H.count h = 0 then 0.0 else H.quantile h p in
  let mean h = if H.count h = 0 then 0.0 else H.mean h in
  let metrics =
    [
      ("simkernel.scheduled_per_txn", "count", per c.scheduled);
      ("simkernel.cancelled_per_txn", "count", per c.cancelled);
      ("simkernel.max_queue_depth", "count", float_of_int c.max_depth);
      ("simkernel.loop_s", "s", tm.loop);
      ("simkernel.step_ns_p50", "ns", q tr.steps 50.0);
      ("simkernel.step_ns_p99", "ns", q tr.steps 99.0);
      ("simkernel.ns_per_event", "ns", lay.ns_per_event);
      ("simkernel.est_share", "ratio", kernel_share);
      ("netsim.deliveries_per_txn", "count", per c.deliveries);
      ("netsim.ns_per_flow", "ns", lay.ns_per_flow);
      ("netsim.est_share", "ratio", net_share);
      ("participant.deliver_step_ns_mean", "ns", mean tr.deliver);
      ("participant.other_step_ns_mean", "ns", mean tr.other);
      ("participant.deliver_share", "ratio", H.sum tr.deliver /. H.sum tr.steps);
      ( "participant.residual_share",
        "ratio",
        1.0 -. kernel_share -. net_share -. wal_share -. lock_share -. kv_share );
      ("wal.writes_per_txn", "count", per c.wal_writes);
      ("wal.forced_per_txn", "count", per c.wal_forced);
      ("wal.force_ios_per_txn", "count", per c.wal_ios);
      ("wal.forces_per_io", "ratio", ratio c.wal_forced c.wal_ios);
      ("wal.records_retained_per_txn", "count", per c.wal_records);
      ("wal.ns_per_force", "ns", lay.ns_per_force);
      ("wal.est_share", "ratio", wal_share);
      ("lockmgr.acquisitions_per_txn", "count", per c.acquisitions);
      ("lockmgr.waits_per_txn", "count", per c.lock_waits);
      ("lockmgr.wait_mean_sim", "simtime", c.lock_wait_time /. float_of_int c.txns);
      ("lockmgr.ns_per_acquire", "ns", lay.ns_per_acquire);
      ("lockmgr.est_share", "ratio", lock_share);
      ("kvstore.ops_per_txn", "count", per c.kv_ops);
      ("kvstore.ns_per_op", "ns", lay.ns_per_op);
      ("kvstore.est_share", "ratio", kv_share);
      ("mixer.audit_s", "s", tr.mixer_audit_s);
      ("mixer.audit_share", "ratio", tr.mixer_audit_s /. tm.wall);
      ("mixer.post_s", "s", tr.post_s);
      ("run.setup_us_per_world", "us", tm.setup *. 1e6 /. float_of_int c.worlds);
      ("faultlab.inject_s", "s", tr.inject_s);
      ("faultlab.audit_s", "s", tr.faultlab_audit_s);
      ("faultlab.violated_seeds", "count", float_of_int (List.length c.violated));
      ("obs.histogram_ns_per_record", "ns", lay.histogram_ns_per_record);
      ("obs.causal_ns_per_record", "ns", lay.causal_ns_per_record);
      ("obs.overhead_s_per_1k_txn", "s", overhead);
      ("gc.major_words_per_txn", "words", tm.major_words /. float_of_int c.committed);
      ("gc.minor_collections_per_1k_txn", "count", per_1k tm.gc_minor);
      ("gc.major_collections_per_1k_txn", "count", per_1k tm.gc_major);
      ("bench.trace_overhead_ratio", "ratio", t.timing.wall /. tm.wall);
    ]
  in
  let trace_out = if trace_out = None then default_trace_out wl ~seed else trace_out in
  Option.iter
    (fun path ->
      write_spans path ((s_u :: s_t :: s_obs :: s_lay) @ tr.spans);
      Printf.printf "spans written to %s\n" path)
    trace_out;
  print_result ~attempted:(c.txns + t.counts.txns) ~failed:(failed_ops wl c) metrics

(* -- smoke: counts and gates only, no timing --------------------------------- *)

(* Small versions of every workload: the plain batches traced against
   untraced, pa-observed (2000 txns) against the same run with
   observability off, and chaos cells 1..400 against [Driver.chaos_cells]
   and the recorded violations. *)
let smoke () =
  List.iter
    (fun (wl : Spec.t) ->
      let before = List.length !failures in
      let wl =
        match (wl.shape, wl.causal) with
        | Spec.Batch, Obs.Causal.Off -> { wl with mix = { wl.mix with txns = 500 } }
        | Spec.Batch, Obs.Causal.Graph -> { wl with mix = { wl.mix with txns = 2000 } }
        | Spec.Cells c, _ -> { wl with shape = Spec.Cells { c with count = 400 } }
      in
      let u = Sim.rep wl ~seed:7 in
      check_counts wl u.counts;
      (match (wl.shape, wl.causal) with
      | Spec.Batch, Obs.Causal.Off ->
          let t = Sim.rep ~trace:(Sim.new_trace ()) wl ~seed:7 in
          same_counts (wl.name ^ " traced vs untraced")
            { u.counts with alloc_words = 0.0 }
            { t.counts with alloc_words = 0.0 }
      | Spec.Batch, Obs.Causal.Graph -> same_aggregates wl u (Sim.rep (observed wl false) ~seed:7)
      | Spec.Cells _, _ ->
          cross_check wl u.counts ~first:400;
          if u.counts.violated <> List.map fst Spec.known_violations then
            fail "%s: violating seeds %s, baseline records %s" wl.name
              (String.concat "," (List.map string_of_int u.counts.violated))
              (String.concat "," (List.map (fun (s, _) -> string_of_int s) Spec.known_violations)));
      Printf.printf "smoke %-13s %s: %d worlds, %d/%d committed, %d events, %d flows\n%!"
        wl.name
        (if List.length !failures = before then "ok" else "FAILED")
        u.counts.worlds u.counts.committed u.counts.txns u.counts.events u.counts.flows)
    Spec.all;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev !failures);
  if !failures <> [] then exit 1

(* -- compare two sets of runs ------------------------------------------------ *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let get path j key =
  match Tpc.Json.member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing %S" path key)

(* (workload, seed, metric -> value) for every untraced run in a set *)
let load_set path =
  List.filter_map
    (fun line ->
      let j = Tpc.Json.parse line in
      if Tpc.Json.to_int_opt (get path j "trace") <> Some 0 then None
      else
        let metrics =
          match get path (get path j "result") "metrics" with
          | Tpc.Json.Obj l ->
              List.filter_map
                (fun (k, v) -> Option.map (fun x -> (k, x)) (Tpc.Json.to_float_opt (get path v "value")))
                l
          | _ -> []
        in
        Some
          ( Option.value ~default:"" (Tpc.Json.to_string_opt (get path j "workload")),
            Option.value ~default:0 (Tpc.Json.to_int_opt (get path j "seed")),
            metrics ))
    (read_lines path)

let bounds () =
  let j = Tpc.Json.parse (String.concat "\n" (read_lines "BENCHMARK.json")) in
  match Tpc.Json.member "end_to_end" j with
  | Some (Tpc.Json.List l) ->
      List.filter_map
        (fun m ->
          match (Tpc.Json.member "name" m, Tpc.Json.member "bound" m) with
          | Some (Tpc.Json.String n), Some b -> Option.map (fun b -> (n, b)) (Tpc.Json.to_float_opt b)
          | _ -> None)
        l
  | _ -> failwith "BENCHMARK.json: no end_to_end list"

let judge (m : Spec.metric) ~bound a b =
  (* [worse x y]: y is worse than x *)
  let worse x y = match m.m_better with Spec.Lower -> y > x | Spec.Higher -> y < x in
  let pairs = List.filter_map (fun (s, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt s b)) a in
  if pairs = [] then Unresolved
  else if m.m_exact then
    if List.for_all (fun (x, y) -> x = y) pairs then Same
    else if List.exists (fun (x, y) -> worse x y) pairs then Worse
    else Better
  else
    let va = List.map snd a and vb = List.map snd b in
    let ma = median va and mb = median vb in
    let sign = match m.m_better with Spec.Lower -> 1.0 | Spec.Higher -> -1.0 in
    let change = sign *. (mb -. ma) /. Float.abs ma in
    let q1, q3 = quartiles va in
    let spread = (q3 -. q1) /. Float.abs ma in
    let all_better = List.for_all (fun y -> List.for_all (fun x -> worse y x) va) vb in
    let wins = List.length (List.filter (fun (x, y) -> worse y x) pairs) in
    if change > bound then Worse
    else if spread > bound && not all_better then Unresolved
    else if -.change > spread && 10 * wins >= 9 * List.length pairs then Better
    else Same

let compare_sets path_a path_b =
  let a = load_set path_a and b = load_set path_b in
  let bounds = bounds () in
  let values set wl name =
    List.filter_map
      (fun (w, seed, ms) -> if w = wl then Option.map (fun v -> (seed, v)) (List.assoc_opt name ms) else None)
      set
  in
  let worse = ref 0 in
  Printf.printf "%-13s %-25s %-10s %14s %14s %8s\n" "workload" "metric" "verdict" "A median"
    "B median" "change";
  List.iter
    (fun (wl : Spec.t) ->
      List.iter
        (fun (m : Spec.metric) ->
          let va = values a wl.name m.m_name and vb = values b wl.name m.m_name in
          if va <> [] || vb <> [] then begin
            let bound = Option.value ~default:0.0 (List.assoc_opt m.m_name bounds) in
            let v = judge m ~bound va vb in
            if v = Worse then incr worse;
            let ma = median (List.map snd va) and mb = median (List.map snd vb) in
            Printf.printf "%-13s %-25s %-10s %14.6g %14.6g %+7.2f%%\n" wl.name m.m_name
              (verdict_name v) ma mb
              (100.0 *. (mb -. ma) /. Float.abs ma)
          end)
        Spec.end_to_end)
    Spec.all;
  if !worse > 0 then exit 1

(* -- command line --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10.0 and trace = ref 0 in
  let trace_out = ref None and out = ref None in
  let mode = ref `Run in
  let set_compare a = mode := `Compare (a, "") in
  let specs =
    [
      ("--workload", Arg.Set_string workload,
       " " ^ String.concat "|" (List.map (fun (w : Spec.t) -> w.name) Spec.all));
      ("--seed", Arg.Set_int seed, "N workload seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S timed seconds per run, at least three repetitions (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--trace-out", Arg.String (fun p -> trace_out := Some p), "FILE Perfetto JSON of the traced run's spans");
      ("--out", Arg.String (fun p -> out := Some p), "FILE append the result line, tagged, to FILE");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " counts and correctness gates only, no timing");
      ("--compare", Arg.String set_compare, "A.jsonl B.jsonl judge set B against set A with the BENCHMARK.json bounds");
    ]
  in
  let anon p =
    match !mode with
    | `Compare (a, "") -> mode := `Compare (a, p)
    | _ -> raise (Arg.Bad ("unexpected argument " ^ p))
  in
  let usage = "ledger.exe --workload W [--seed N] [--seconds S] [--trace 0|1] | --smoke | --compare A B" in
  Arg.parse (Arg.align specs) anon usage;
  match !mode with
  | `Smoke -> smoke ()
  | `Compare (a, b) ->
      if b = "" then (prerr_endline usage; exit 2);
      compare_sets a b
  | `Run -> (
      match Spec.find !workload with
      | None ->
          prerr_endline usage;
          exit 2
      | Some _ when !trace <> 0 && !trace <> 1 ->
          prerr_endline usage;
          exit 2
      | Some wl ->
          let line =
            if !trace = 1 then traced wl ~seed:!seed ~trace_out:!trace_out
            else untraced wl ~seed:!seed ~seconds:!seconds
          in
          record_line !out wl ~seed:!seed ~trace:(!trace = 1) line;
          if !failures <> [] then exit 1)
