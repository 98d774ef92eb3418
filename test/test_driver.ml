(* The multicore driver: sweep and chaos fan-outs must be byte-identical
   whatever the job count — lines, event JSONL, repro hints, and the
   merged telemetry registry alike. *)

open Tpc.Types
module F = Faultlab

let sweep_params ~events =
  {
    Driver.sw_config = default_config;
    sw_sets = [ []; [ `Read_only ]; [ `Last_agent; `Early_ack ] ];
    sw_concurrencies = [ 1; 4 ];
    sw_n = 4;
    sw_mixer = { Tpc.Mixer.default_cfg with Tpc.Mixer.txns = 80 };
    sw_events = events;
    sw_blocking = false;
  }

let chaos_params ?(broken = false) ?plan ~seeds () =
  let config =
    {
      default_config with
      retry_interval = 25.0;
      max_retries = 8;
      prepare_retries = 2;
      retry_backoff = 2.0;
    }
  in
  let tree =
    Tree
      ( member "coord",
        [
          Tree (member "sub0", []);
          Tree (member "sub1", []);
          Tree (member "sub2", []);
        ] )
  in
  {
    Driver.ch_config = config;
    ch_tree = tree;
    ch_mixer = { Tpc.Mixer.default_cfg with Tpc.Mixer.txns = 60; concurrency = 6 };
    ch_seed0 = 11;
    ch_seeds = seeds;
    ch_gen = F.default_gen;
    ch_plan = plan;
    ch_broken = broken;
    ch_shrink = true;
    ch_protocol_flag = "pa";
    ch_n = 4;
    ch_adversary = false;
    ch_blocking = false;
  }

(* a mid-workload crash+restart that the amnesiac restart turns into a
   reliable, shrinkable violation (same fixture as the chaos tests) *)
let violating_plan =
  [
    F.Drop { at = 20.0; src = "coord"; dst = "sub2"; nth = 3 };
    F.Jitter { at = 40.0; src = "sub1"; dst = "coord"; amp = 2.0 };
    F.Crash { at = 150.0; node = "sub0"; restart_after = Some 60.0 };
    F.Drop { at = 200.0; src = "sub2"; dst = "sub1"; nth = 1 };
    F.Partition { at = 260.0; a = "sub1"; b = "sub2"; heal_after = Some 30.0 };
  ]

let registry_fingerprint reg =
  String.concat "\n"
    (List.map
       (fun (k, h) ->
         Printf.sprintf "%s:n=%d,sum=%.9g,max=%.9g" k (Obs.Histogram.count h)
           (Obs.Histogram.sum h) (Obs.Histogram.max_value h))
       (Obs.Registry.histograms reg))

let check_lines = Alcotest.(check (list string))

let test_sweep_byte_identical () =
  let run jobs =
    Driver.sweep_cells ~jobs (sweep_params ~events:true)
  in
  let cells1, reg1 = run 1 in
  let cells4, reg4 = run 4 in
  check_lines "cell lines identical"
    (List.map (fun c -> c.Driver.sc_line) cells1)
    (List.map (fun c -> c.Driver.sc_line) cells4);
  check_lines "event JSONL identical"
    (List.map (fun c -> c.Driver.sc_events) cells1)
    (List.map (fun c -> c.Driver.sc_events) cells4);
  Alcotest.(check string) "merged registry identical"
    (registry_fingerprint reg1) (registry_fingerprint reg4);
  Alcotest.(check int) "grid size" 6 (List.length cells1)

let test_sweep_counter_mode_same_lines () =
  (* dropping the event timeline must not change any reported metric *)
  let lines events =
    let cells, _ = Driver.sweep_cells ~jobs:1 (sweep_params ~events) in
    List.map (fun c -> c.Driver.sc_line) cells
  in
  check_lines "counter-only trace mode reports the same metrics"
    (lines true) (lines false)

let test_chaos_byte_identical () =
  let run jobs = Driver.chaos_cells ~jobs (chaos_params ~seeds:10 ()) in
  let cells1, reg1 = run 1 in
  let cells4, reg4 = run 4 in
  check_lines "verdict lines identical"
    (List.map (fun c -> c.Driver.cc_line) cells1)
    (List.map (fun c -> c.Driver.cc_line) cells4);
  Alcotest.(check (list int)) "seed order is canonical"
    (List.init 10 (fun i -> 11 + i))
    (List.map (fun c -> c.Driver.cc_seed) cells1);
  Alcotest.(check string) "merged registry identical"
    (registry_fingerprint reg1) (registry_fingerprint reg4)

let test_chaos_violation_identical () =
  (* a violating seed must produce the same verdict, minimized plan and
     repro hint whatever the job count *)
  let params =
    chaos_params ~broken:true ~plan:violating_plan ~seeds:4 ()
  in
  let run jobs = fst (Driver.chaos_cells ~jobs params) in
  let cells1 = run 1 and cells4 = run 4 in
  Alcotest.(check bool) "fixture violates" true
    (List.exists (fun c -> c.Driver.cc_violated) cells1);
  List.iter2
    (fun c1 c4 ->
      Alcotest.(check string) "line" c1.Driver.cc_line c4.Driver.cc_line;
      Alcotest.(check (option string)) "repro hint"
        c1.Driver.cc_repro c4.Driver.cc_repro;
      if c1.Driver.cc_violated then
        Alcotest.(check bool) "violating cell carries a repro hint" true
          (c1.Driver.cc_repro <> None))
    cells1 cells4

let test_blocking_block_identical_across_jobs () =
  (* the per-cell blocking summaries come from per-world registries merged
     at fan-in, so the emitted block must not depend on the job count, and
     switching it on must only append — never perturb — the line *)
  let chaos jobs =
    let cells, _ =
      Driver.chaos_cells ~jobs
        { (chaos_params ~seeds:6 ()) with Driver.ch_blocking = true }
    in
    List.map (fun c -> c.Driver.cc_line) cells
  in
  let lines1 = chaos 1 in
  check_lines "chaos blocking lines identical" lines1 (chaos 2);
  List.iter
    (fun line ->
      Alcotest.(check bool) "verdict line carries the blocking block" true
        (match Tpc.Json.member "blocking" (Tpc.Json.parse line) with
        | Some _ -> true
        | None -> false))
    lines1;
  let sweep jobs =
    let cells, _ =
      Driver.sweep_cells ~jobs
        { (sweep_params ~events:false) with Driver.sw_blocking = true }
    in
    List.map (fun c -> c.Driver.sc_line) cells
  in
  check_lines "sweep blocking lines identical" (sweep 1) (sweep 2)

let suite =
  [
    Alcotest.test_case "sweep jobs=4 byte-identical to jobs=1" `Quick
      test_sweep_byte_identical;
    Alcotest.test_case "blocking block identical across jobs" `Quick
      test_blocking_block_identical_across_jobs;
    Alcotest.test_case "counter-only trace mode same metrics" `Quick
      test_sweep_counter_mode_same_lines;
    Alcotest.test_case "chaos jobs=4 byte-identical to jobs=1" `Quick
      test_chaos_byte_identical;
    Alcotest.test_case "chaos violation identical across jobs" `Quick
      test_chaos_violation_identical;
  ]
