(* tpc_sim: command-line driver for the 2PC simulator.

   Subcommands:
     run       - one distributed commit over a chosen tree/protocol/options
     tables    - the paper's Tables 1-4 and the BFT rows, each simulated
                 row checked against its paper figure
     figures   - render the paper's figures as sequence diagrams
     chain     - Table 4 style chained-transaction streams
     group     - group-commit sweep
     claims    - the paper's behavioural claims (lock release, commit
                 share, contention, last-agent crossover, crash recovery,
                 ablation)
     crash     - a commit with an injected crash, showing recovery
     sweep     - concurrent throughput sweep (one JSON line per cell)
     explain   - causal narrative + critical-path latency attribution for
                 one transaction of a deterministic mixer run
     chaos     - seeded fault-schedule sweep with fault-aware audit and
                 schedule shrinking (one JSONL verdict per seed) *)

open Cmdliner
open Tpc.Types

(* --- shared argument parsing ---------------------------------------- *)

(* Parsing goes through the protocol registry, so a protocol registered
   with [Tpc.Protocol.register] is immediately selectable by name. *)
let protocol_conv =
  let parse s =
    match Tpc.Protocol.of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown protocol %S (%s)" s
               (String.concat "|" (Tpc.Protocol.flags ()))))
  in
  let print ppf p = Format.pp_print_string ppf (protocol_to_string p) in
  Arg.conv (parse, print)

let protocol_arg =
  let doc =
    "Commit protocol: basic, pa (presumed abort), pn (presumed nothing), or \
     the name of any registered protocol."
  in
  Arg.(value & opt protocol_conv Presumed_abort & info [ "p"; "protocol" ] ~doc)

let opt_names = List.map opt_to_string all_opts

let opts_arg =
  let doc =
    "Enable optimizations, a comma-separated list (repeatable; under \
     $(b,sweep) each -O is one optimization set): "
    ^ String.concat ", " opt_names ^ "."
  in
  Arg.(value & opt_all string [] & info [ "O"; "enable" ] ~doc)

(* One -O value: a comma-separated list of optimization names, where an
   unknown name is a usage error.  The single source of truth for the
   names is Types.opt_of_string: the CLI, bench and tests all parse
   through it. *)
let parse_opt_set cmd s =
  String.split_on_char ',' s
  |> List.filter (fun x -> x <> "")
  |> List.map (fun name ->
         match opt_of_string name with
         | Some o -> o
         | None ->
             Printf.eprintf "tpc_sim %s: unknown optimization %S (one of %s)\n"
               cmd name
               (String.concat ", " opt_names);
             exit 2)

let build_opts cmd names = List.concat_map (parse_opt_set cmd) names

let n_arg =
  let doc = "Number of members in the commit tree." in
  Arg.(value & opt int 5 & info [ "n"; "members" ] ~doc)

let f_arg =
  let doc =
    "Replica fault tolerance for certified protocols (bft): the decision \
     maker runs 2f+1 coordinator replicas and a decision is only valid \
     with a certificate of at least f+1 matching endorsements.  Ignored \
     by the paper's three (uncertified) families."
  in
  Arg.(value & opt int 1 & info [ "f" ] ~doc ~docv:"F")

let m_arg =
  let doc = "Number of members following the enabled optimization." in
  Arg.(value & opt int 0 & info [ "m" ] ~doc)

let shape_arg =
  let doc = "Tree shape: flat, chain or random." in
  Arg.(value & opt string "flat" & info [ "shape" ] ~doc)

let seed_arg =
  let doc = "Random seed (random tree shape)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let latency_arg =
  let doc = "Network latency between members (virtual time units)." in
  Arg.(value & opt float 1.0 & info [ "latency" ] ~doc)

let trace_arg =
  let doc = "Print the full event trace." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_out_arg =
  let doc =
    "Write the run as Chrome trace-event JSON (openable in Perfetto or \
     chrome://tracing): one track per node, one span per 2PC phase."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")

let events_arg =
  let doc =
    "Write every trace event as one JSON object per line (JSONL); see \
     EXPERIMENTS.md for the schema."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~doc ~docv:"FILE")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let diagram_arg =
  let doc = "Render the message-sequence diagram." in
  Arg.(value & flag & info [ "diagram" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the experiment runner (default: the machine's \
     recommended domain count).  Results are collected per-cell and \
     emitted in canonical order, so the output is byte-identical to \
     --jobs 1."
  in
  Arg.(
    value
    & opt int (Parallel.recommended_jobs ())
    & info [ "j"; "jobs" ] ~doc ~docv:"N")

let blocking_arg =
  let doc =
    "Append a \"blocking\" block to every JSON line: count/p50/p99 of the \
     in-doubt residence, blocked-lock hold and heuristic-exposure windows \
     observed in that cell (deterministic, byte-identical across --jobs)."
  in
  Arg.(value & flag & info [ "blocking" ] ~doc)

(* --- run -------------------------------------------------------------- *)

let write_telemetry ~tree world trace_out events_out =
  (match trace_out with
  | Some path ->
      write_file path
        (Tpc.Json.to_string
           (Tpc.Telemetry.chrome_trace world.Tpc.Run.trace ~tree));
      Printf.eprintf "wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n"
        path
  | None -> ());
  match events_out with
  | Some path ->
      write_file path (Tpc.Telemetry.events_to_jsonl world.Tpc.Run.trace);
      Printf.eprintf "wrote event JSONL to %s\n" path
  | None -> ()

let make_tree shape seed n opt m =
  match (shape, opt) with
  | "chain", _ -> Workload.chain ~n ()
  | "random", _ -> Workload.random_tree ~seed ~n ()
  | _, Some o when m > 0 -> Workload.table3_tree o ~n ~m
  | _, _ -> Workload.flat ~n ()

let pick_cost_opt opts =
  let on o = List.mem (o : opt) opts in
  if on `Read_only then Some Tpc.Cost_model.Read_only_opt
  else if on `Last_agent then Some Tpc.Cost_model.Last_agent_opt
  else if on `Unsolicited_vote then Some Tpc.Cost_model.Unsolicited_vote_opt
  else if on `Leave_out then Some Tpc.Cost_model.Leave_out_opt
  else if on `Shared_log then Some Tpc.Cost_model.Shared_log_opt
  else if on `Long_locks then Some Tpc.Cost_model.Long_locks_opt
  else if on `Vote_reliable then Some Tpc.Cost_model.Vote_reliable_opt
  else if on `Wait_for_outcome then Some Tpc.Cost_model.Wait_for_outcome_opt
  else None

(* A mixer run needs at least one transaction and one concurrent slot:
   zero transactions makes the mixer raise, and zero concurrency divides
   chaos's fault horizon by zero, planning every fault at infinity. *)
let require_mixer_counts cmd ~txns ~concurrency =
  if txns < 1 then (
    Printf.eprintf "tpc_sim %s: --txns must be at least 1\n" cmd;
    exit 2);
  if concurrency < 1 then (
    Printf.eprintf "tpc_sim %s: -c must be at least 1\n" cmd;
    exit 2)

(* A delay is a finite, non-negative number of time units: the engine
   refuses a negative one, and nan or inf would run nonsense. *)
let require_delay cmd flag d =
  if not (Float.is_finite d && d >= 0.0) then (
    Printf.eprintf "tpc_sim %s: %s must be finite and >= 0\n" cmd flag;
    exit 2)

(* A count of events, or of worker domains, below [least]; checked before
   any domain starts. *)
let require_at_least cmd flag least n =
  if n < least then (
    Printf.eprintf "tpc_sim %s: %s must be >= %d\n" cmd flag least;
    exit 2)

let run_cmd protocol opt_names n m f shape seed latency show_trace show_diagram
    trace_out events_out =
  if not (List.mem shape [ "flat"; "chain"; "random" ]) then (
    Printf.eprintf "tpc_sim run: unknown --shape %S (flat, chain or random)\n"
      shape;
    exit 2);
  require_delay "run" "--latency" latency;
  if n < 1 then (
    Printf.eprintf "tpc_sim: -n must be at least 1\n";
    exit 2);
  if m < 0 || m >= n then
    if m <> 0 then (
      Printf.eprintf "tpc_sim: -m must satisfy 0 <= m < n\n";
      exit 2);
  if f < 0 then (
    Printf.eprintf "tpc_sim: --f must be non-negative\n";
    exit 2);
  let opts = build_opts "run" opt_names in
  let config =
    default_config |> with_protocol protocol |> with_opts opts
    |> with_latency latency |> with_bft_f f
  in
  let tree = make_tree shape seed n (pick_cost_opt opts) m in
  let metrics, world = Tpc.Run.commit_tree ~config tree in
  Format.printf "%a@." Tpc.Metrics.pp metrics;
  if show_diagram then begin
    let nodes = List.map (fun p -> p.p_name) (tree_members tree) in
    Format.printf "@.%s@." (Tpc.Trace.sequence_diagram world.Tpc.Run.trace ~nodes)
  end;
  if show_trace then
    Format.printf "@.%s@." (Tpc.Trace.to_string world.Tpc.Run.trace);
  write_telemetry ~tree world trace_out events_out

let run_term =
  Term.(
    const run_cmd $ protocol_arg $ opts_arg $ n_arg $ m_arg $ f_arg $ shape_arg
    $ seed_arg $ latency_arg $ trace_arg $ diagram_arg $ trace_out_arg
    $ events_arg)

(* --- paper results: tables, group and claims ------------------------------ *)

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

let counts_s c = Format.asprintf "%a" Tpc.Cost_model.pp_counts c

(* Tables 1-4 and the BFT rows.  Every simulated row is printed beside its
   paper (or closed-form) figure and marked ok or MISMATCH; any mismatch
   exits 1, so the golden runs of this command fail with it. *)
let tables_cmd n m f r =
  if n < 1 then (
    Printf.eprintf "tpc_sim tables: -n must be at least 1\n";
    exit 2);
  if m < 0 || m >= n then (
    Printf.eprintf "tpc_sim tables: -m must satisfy 0 <= m < n\n";
    exit 2);
  if f < 0 then (
    Printf.eprintf "tpc_sim tables: -f must be non-negative\n";
    exit 2);
  if r < 1 then (
    Printf.eprintf "tpc_sim tables: -r must be at least 1\n";
    exit 2);
  let mismatches = ref 0 in
  let mark ok =
    if ok then "ok"
    else (
      incr mismatches;
      "MISMATCH")
  in
  section "Table 1. Advantages and Disadvantages of 2PC Optimizations";
  List.iter
    (fun (row : Tpc.Cost_model.table1_row) ->
      Format.printf "%s@." row.t1_optimization;
      List.iter (Format.printf "    + %s@.") row.advantages;
      List.iter (Format.printf "    - %s@.") row.disadvantages)
    Tpc.Cost_model.table1;
  section "Table 2. Logging and network traffic of 2PC optimizations";
  Format.printf
    "flows, log writes, forced writes: coordinator | subordinate@.@.";
  Format.printf "%-24s %-18s %s@." "2PC type" "simulated" "paper";
  let sides ((c : Tpc.Cost_model.side), (s : Tpc.Cost_model.side)) =
    Printf.sprintf "%d,%d,%d | %d,%d,%d" c.s_flows c.s_writes c.s_forced
      s.s_flows s.s_writes s.s_forced
  in
  List.iter
    (fun (row : _ Workload.row) ->
      Format.printf "%-24s %-18s %-18s %s@." row.label (sides row.simulated)
        (sides row.paper)
        (mark (row.simulated = row.paper)))
    (Workload.table2_rows ());
  section
    (Printf.sprintf
       "Table 3. Logging and Message Costs for Optimizations (n = %d, m = %d)"
       n m);
  Format.printf "%-24s %-33s %s@." "2PC type" "simulated (f,w,fw)"
    "paper formula (f,w,fw)";
  List.iter
    (fun (row : _ Workload.row) ->
      Format.printf "%-24s %-33s %-33s %s@." row.label (counts_s row.simulated)
        (counts_s row.paper)
        (mark (row.simulated = row.paper)))
    (Workload.table3_rows ~n ~m);
  section
    (Printf.sprintf
       "Table 4. Logging and Message Costs for Long-Locks (r = %d chained \
        transactions, 2 members)"
       r);
  Format.printf "%-34s %-33s %-33s %-14s %s@." "2PC type"
    "simulated (f,w,fw)" "paper (f,w,fw)" "lock-time/txn" "txn/100t";
  List.iter
    (fun ((row : _ Workload.row), (res : Tpc.Run.chain_result)) ->
      Format.printf "%-34s %-33s %-33s %-14.1f %-10.1f %s@." row.label
        (counts_s row.simulated) (counts_s row.paper)
        res.mean_coordinator_lock_time
        (100.0 *. float_of_int r /. res.duration)
        (mark (row.simulated = row.paper)))
    (Workload.table4_rows ~r);
  (* the resilience-vs-cost frontier: what certified (Byzantine-tolerant)
     commit adds on top of the same tree, simulated beside the closed form *)
  (match Tpc.Protocol.of_string "bft" with
  | None -> ()
  | Some p ->
      section
        (Printf.sprintf "Byzantine tolerance (n = %d, 2f+1 coordinator replicas)"
           n);
      Format.printf "%-24s %-33s %s@." "protocol" "simulated (f,w,fw)"
        "closed form (f,w,fw)";
      List.iter
        (fun f ->
          let config = default_config |> with_protocol p |> with_bft_f f in
          let metrics, _w = Tpc.Run.commit_tree ~config (Workload.flat ~n ()) in
          let simulated = Tpc.Metrics.counts metrics
          and closed = Tpc.Cost_model.bft ~f ~n in
          Format.printf "%-24s %-33s %-33s %s@."
            (Printf.sprintf "BFT commit (f=%d)" f)
            (counts_s simulated) (counts_s closed)
            (mark (simulated = closed)))
        (List.sort_uniq compare [ 0; 1; f ]));
  if !mismatches > 0 then (
    Printf.eprintf "tpc_sim tables: %d row(s) differ from the paper\n"
      !mismatches;
    exit 1)

let tables_term =
  let r_arg =
    Arg.(value & opt int 12 & info [ "r" ] ~doc:"Chained transactions (Table 4).")
  in
  Term.(const tables_cmd $ n_arg $ m_arg $ f_arg $ r_arg)

(* --- figures ------------------------------------------------------------ *)

let figures_cmd which =
  let all = Tpc.Scenarios.all () in
  let selected =
    match which with
    | None -> all
    | Some id ->
        List.filter (fun sc -> sc.Tpc.Scenarios.sc_id = "figure-" ^ id) all
  in
  if selected = [] then (
    Printf.eprintf "tpc_sim: no such figure (use 1-8)\n";
    exit 2)
  else List.iter (fun sc -> print_string (Tpc.Scenarios.render sc)) selected

let figures_term =
  let which =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "figure" ] ~doc:"Figure number (1-8); default: all.")
  in
  Term.(const figures_cmd $ which)

(* --- chain --------------------------------------------------------------- *)

let chain_cmd mode r latency =
  let mode =
    match mode with
    | "basic" -> Tpc.Run.Chain_basic
    | "long-locks" -> Tpc.Run.Chain_long_locks
    | "long-locks-last-agent" -> Tpc.Run.Chain_long_locks_last_agent
    | other ->
        Printf.eprintf
          "tpc_sim chain: unknown mode %S (basic, long-locks or \
           long-locks-last-agent)\n"
          other;
        exit 2
  in
  if r < 1 then (
    Printf.eprintf "tpc_sim chain: -r must be at least 1\n";
    exit 2);
  require_delay "chain" "--latency" latency;
  let res, _world =
    Tpc.Run.chain ~config:(default_config |> with_latency latency) mode ~r
  in
  Format.printf
    "%s: r=%d  flows=%d (+%d data)  writes=%d  forced=%d  duration=%.1f  \
     lock-time/txn=%.1f@."
    (Tpc.Run.chain_mode_to_string mode)
    r res.Tpc.Run.flows res.Tpc.Run.data_flows res.Tpc.Run.writes
    res.Tpc.Run.forced res.Tpc.Run.duration
    res.Tpc.Run.mean_coordinator_lock_time

let chain_term =
  let mode =
    Arg.(
      value & opt string "long-locks"
      & info [ "mode" ] ~doc:"basic, long-locks or long-locks-last-agent.")
  in
  let r = Arg.(value & opt int 12 & info [ "r" ] ~doc:"Transactions.") in
  Term.(const chain_cmd $ mode $ r $ latency_arg)

(* --- group commit --------------------------------------------------------- *)

let group_cmd n sizes =
  if n < 1 then (
    Printf.eprintf "tpc_sim group: -n must be at least 1\n";
    exit 2);
  if List.exists (fun m -> m < 1) sizes then (
    Printf.eprintf "tpc_sim group: every group size must be at least 1\n";
    exit 2);
  Format.printf "%-8s %-12s %-12s %-10s %-14s %s@." "group" "requests" "I/Os"
    "saved" "paper 3n/2m" "mean commit latency";
  List.iter
    (fun m ->
      let r = Tpc.Run.group_commit ~n ~group_size:m () in
      Format.printf "%-8d %-12d %-12d %-10d %-14.1f %.2f@." m
        r.Tpc.Run.gc_force_requests r.Tpc.Run.gc_force_ios
        r.Tpc.Run.gc_saved_ios r.Tpc.Run.gc_paper_saving
        r.Tpc.Run.gc_mean_commit_latency)
    sizes

let group_term =
  let n = Arg.(value & opt int 96 & info [ "n" ] ~doc:"Concurrent transactions.") in
  let sizes =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16; 32 ]
      & info [ "sizes" ] ~doc:"Group sizes to sweep.")
  in
  Term.(const group_cmd $ n $ sizes)

(* --- claims ------------------------------------------------------------------ *)

(* The paper's behavioural claims, one table each: lock release time,
   commit's share of a transaction, waits behind held locks, the
   last-agent crossover, recovery after a coordinator crash, and each
   optimization alone on one mixed tree.  Deterministic, so a golden pins
   every number. *)

let mixed_tree =
  Tree
    ( member "C",
      [
        Tree (member "U1", []);
        Tree (member "U2", []);
        Tree (member ~updated:false "R1", []);
        Tree (member ~updated:false "R2", []);
      ] )

let lock_time () =
  section "Resource lock time: mean/max lock-release time by optimization";
  Format.printf "%-26s %-10s %-14s %s@." "variant" "latency" "mean release"
    "max release";
  let run label latency opts =
    let config = default_config |> with_latency latency |> with_opts opts in
    let m, _w = Tpc.Run.commit_tree ~config mixed_tree in
    Format.printf "%-26s %-10.0f %-14.2f %.2f@." label latency
      (Option.value ~default:nan m.Tpc.Metrics.mean_lock_release)
      (Option.value ~default:nan m.Tpc.Metrics.max_lock_release)
  in
  List.iter
    (fun latency ->
      run "baseline" latency [];
      run "read-only" latency [ `Read_only ];
      run "early ack" latency [ `Early_ack ];
      run "last agent" latency [ `Last_agent ])
    [ 1.0; 5.0; 20.0 ];
  Format.printf
    "@.Shape check: read-only releases earliest (voters unlock in phase \
     one); higher network latency widens every gap.@."

let commit_share () =
  section
    "Commit cost share (Section 1): commit processing as a fraction of the \
     transaction";
  Format.printf "%-10s %-16s %-16s %s@." "latency" "work time" "commit time"
    "share";
  (* the paper: updating one record, commit is ~1/3 of the local transaction;
     distribution makes the relative cost higher.  Model: work phase = read +
     write + think (fixed), commit phase = measured by the simulator. *)
  let work_time = 11.0 in
  List.iter
    (fun latency ->
      let config = default_config |> with_latency latency in
      let m, _w = Tpc.Run.commit_tree ~config (Workload.pair ()) in
      let commit_time = Option.value ~default:nan m.Tpc.Metrics.completion_time in
      Format.printf "%-10.1f %-16.1f %-16.1f %.0f%%@." latency work_time
        commit_time
        (100.0 *. commit_time /. (work_time +. commit_time)))
    [ 0.1; 1.0; 5.0; 20.0 ];
  Format.printf
    "@.Shape check: at local-system latencies the commit is roughly a third \
     of the transaction; as members move apart the commit dominates - the \
     paper's case for optimizing the normal path.@."

let contention () =
  section
    "Lock contention: intruder transactions wanting a key the distributed \
     transaction holds at a subordinate";
  Format.printf "%-34s %-12s %s@." "configuration" "mean wait" "max wait";
  let run label ?(updated = true) opts latency =
    let tree = Workload.pair ~s:(member ~updated "S") () in
    let config = default_config |> with_opts opts |> with_latency latency in
    let r = Workload.contention_experiment ~config ~victim:"S" tree in
    Format.printf "%-34s %-12.2f %.2f@." label r.Workload.ct_mean_wait
      r.Workload.ct_max_wait
  in
  run "baseline, latency 1" [] 1.0;
  run "read-only voter, latency 1" ~updated:false [ `Read_only ] 1.0;
  run "baseline, latency 5" [] 5.0;
  run "read-only voter, latency 5" ~updated:false [ `Read_only ] 5.0;
  Format.printf
    "@.Shape check: the read-only voter releases its locks at the vote, so \
     intruders barely wait; under the baseline they wait out the whole \
     decision phase, and distribution (higher latency) amplifies the gap - \
     Section 1's 'reducing the wait time of other transactions'.@."

(* "the last-agent optimization that reduces message flows to one agent
   conflicts with the optimization inherent in preparing multiple agents
   concurrently" - delegation serializes the far partner's round trip
   after everyone else's phase one.  With a slow far partner delegation
   wins; with symmetric latencies the parallel baseline can finish sooner.
   Sweep the far partner's latency and find the crossover. *)
let last_agent_crossover () =
  section
    "Last-agent crossover: completion time vs far-partner latency (3 local \
     members + 1 far member)";
  let tree =
    Tree
      ( member "C",
        [
          Tree (member "L1", []);
          Tree (member "L2", []);
          Tree (member "far", []);
        ] )
  in
  let completion opts far_latency =
    let config = default_config |> with_opts opts in
    let w = Tpc.Run.setup ~config tree in
    Tpc.Net.set_latency w.Tpc.Run.net "C" "far" far_latency;
    let m = Tpc.Run.commit w in
    Option.value ~default:nan m.Tpc.Metrics.completion_time
  in
  Format.printf "%-14s %-16s %-16s %s@." "far latency" "baseline done"
    "last-agent done" "winner";
  List.iter
    (fun far ->
      let base = completion [] far in
      let la = completion [ `Last_agent ] far in
      Format.printf "%-14.1f %-16.1f %-16.1f %s@." far base la
        (if la < base then "last agent"
         else if la > base then "baseline"
         else "tie"))
    [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ];
  Format.printf
    "@.Shape check: with a fast far partner the serialized delegation \
     costs more than it saves; past the crossover the single slow round \
     trip dominates and the last agent wins - exactly the paper's guidance \
     to 'prepare the closest located partners first'.@."

let failure_cases () =
  section
    "Failure cases: time until every member reaches the outcome (coordinator \
     crashes, restarts after 40)";
  let run_case label protocol point =
    let config =
      default_config
      |> with_protocol protocol
      |> with_retries ~interval:20.0 ~max:default_config.max_retries
      |> with_faults
           [ { f_node = "C"; f_point = point; f_restart_after = Some 40.0 } ]
    in
    let m, _w = Tpc.Run.commit_tree ~config (Workload.pair ()) in
    Format.printf "%-44s outcome=%-8s app-done=%-8s all-quiet=%.1f@." label
      (match m.Tpc.Metrics.outcome with
      | Some o -> outcome_to_string o
      | None -> "blocked")
      (match m.Tpc.Metrics.completion_time with
      | Some t -> Printf.sprintf "%.1f" t
      | None -> "-")
      m.Tpc.Metrics.quiesce_time
  in
  run_case "PA, crash before decision logged" Presumed_abort
    Cp_before_decision_log;
  run_case "PN, crash before decision logged" Presumed_nothing
    Cp_before_decision_log;
  run_case "basic, crash before decision logged" Basic Cp_before_decision_log;
  run_case "PA, crash after commit logged" Presumed_abort Cp_after_decision_log;
  run_case "PN, crash after commit logged" Presumed_nothing
    Cp_after_decision_log;
  Format.printf
    "@.Shape check: under PA the coordinator that logged nothing simply \
     forgets (subordinates abort by presumption; the root application \
     never completes), while PN's commit-pending record lets the recovered \
     coordinator finish the protocol and report - the paper's reliability \
     tradeoff between the two families.@."

let ablation_tree =
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

let ablation () =
  section "Ablation: one 8-member mixed tree, optimizations toggled one at a time";
  Format.printf "%-26s %-33s %s@." "enabled" "counts (f,w,fw)" "completion";
  let run label opts =
    let config = default_config |> with_opts opts in
    let m, _w = Tpc.Run.commit_tree ~config ablation_tree in
    Format.printf "%-26s %-33s %.1f@." label
      (counts_s (Tpc.Metrics.counts m))
      (Option.value ~default:nan m.Tpc.Metrics.completion_time)
  in
  run "none (baseline)" [];
  run "read-only" [ `Read_only ];
  run "last-agent" [ `Last_agent ];
  run "unsolicited-vote" [ `Unsolicited_vote ];
  run "leave-out" [ `Leave_out ];
  run "vote-reliable" [ `Vote_reliable ];
  run "shared-log" [ `Shared_log ];
  run "long-locks" [ `Long_locks ];
  run "all together" (List.filter (fun o -> o <> `Early_ack) all_opts)

let claims_cmd () =
  lock_time ();
  commit_share ();
  contention ();
  last_agent_crossover ();
  failure_cases ();
  ablation ()

let claims_term = Term.(const claims_cmd $ const ())

(* --- sweep ------------------------------------------------------------------ *)

(* Concurrency x optimization-set sweep over the concurrent workload engine.
   Emits one JSON line per cell so future runs can be tracked as a
   machine-readable trajectory (BENCH_mixer.json).  Cells fan out across
   --jobs worker domains and fan in by index, so stdout and the events
   file are byte-identical whatever the job count; the wall-clock engine
   profile (nondeterministic by nature) only ever goes to stderr. *)
let sweep_cmd protocol opt_sets concurrencies n f txns keyspace update_prob
    read_prob interarrival lock_timeout seed group events_out blocking progress
    jobs =
  if n < 2 then (
    Printf.eprintf "tpc_sim sweep: -n must be at least 2\n";
    exit 2);
  if txns < 1 then (
    Printf.eprintf "tpc_sim sweep: --txns must be at least 1\n";
    exit 2);
  if List.exists (fun c -> c < 1) concurrencies then (
    Printf.eprintf "tpc_sim sweep: concurrency must be >= 1\n";
    exit 2);
  if keyspace < 1 then (
    Printf.eprintf "tpc_sim sweep: --keyspace must be at least 1\n";
    exit 2);
  require_at_least "sweep" "--jobs" 1 jobs;
  require_delay "sweep" "--lock-timeout" lock_timeout;
  require_delay "sweep" "--interarrival" interarrival;
  let require_prob flag p =
    if not (p >= 0.0 && p <= 1.0) then (
      Printf.eprintf "tpc_sim sweep: %s must lie in [0, 1]\n" flag;
      exit 2)
  in
  require_prob "--update-prob" update_prob;
  require_prob "--read-prob" read_prob;
  if update_prob +. read_prob > 1.0 then (
    Printf.eprintf "tpc_sim sweep: --update-prob and --read-prob must sum to at most 1\n";
    exit 2);
  (* baseline first, then each requested set (a set may be a comma-separated
     combination, e.g. -O read-only,shared-log) *)
  let sets = [] :: List.map (parse_opt_set "sweep") opt_sets in
  let total_cells = List.length sets * List.length concurrencies in
  let cells_done = ref 0 in
  let started = Simkernel.Monotonic.now_ns () in
  let params =
    {
      Driver.sw_config =
        (default_config |> with_protocol protocol |> with_bft_f f
        |> (match group with
           | Some (size, timeout) -> with_group_commit ~size ~timeout
           | None -> Fun.id)
        (* let deferred acks fall back no earlier than a typical
           inter-arrival gap: real arrivals carry them first *)
        |> with_implied_ack_delay
             (Float.max default_config.implied_ack_delay interarrival));
      sw_sets = sets;
      sw_concurrencies = concurrencies;
      sw_n = n;
      sw_mixer =
        {
          Tpc.Mixer.concurrency = 1;
          txns;
          keyspace;
          update_prob;
          read_prob;
          base_interarrival = interarrival;
          lock_timeout;
          seed;
        };
      sw_events = events_out <> None;
      sw_blocking = blocking;
    }
  in
  let progress_fn =
    if progress then
      Some
        (fun label ->
          incr cells_done;
          Printf.eprintf "sweep: %d/%d cells done (%s) %.1fs elapsed\n%!"
            !cells_done total_cells label
            (Simkernel.Monotonic.elapsed_seconds ~since:started))
    else None
  in
  let cells, _registry = Driver.sweep_cells ?progress:progress_fn ~jobs params in
  let events_chan = Option.map open_out events_out in
  List.iter
    (fun (cell : Driver.sweep_cell) ->
      print_endline cell.Driver.sc_line;
      Option.iter
        (fun oc -> output_string oc cell.Driver.sc_events)
        events_chan)
    cells;
  Option.iter close_out events_chan

let sweep_term =
  let concurrencies =
    Arg.(
      value
      & opt (list int) [ 1; 4; 16 ]
      & info [ "c"; "concurrency" ]
          ~doc:"Concurrency levels to sweep (comma-separated).")
  in
  let txns =
    Arg.(value & opt int 100 & info [ "txns" ] ~doc:"Transactions per cell.")
  in
  let keyspace =
    Arg.(
      value & opt int 8
      & info [ "keyspace" ] ~doc:"Keys per member (smaller = more contention).")
  in
  let update_prob =
    Arg.(
      value & opt float 0.6
      & info [ "update-prob" ] ~doc:"Per member: probability of one update.")
  in
  let read_prob =
    Arg.(
      value & opt float 0.25
      & info [ "read-prob" ] ~doc:"Per member: probability of one read.")
  in
  let interarrival =
    Arg.(
      value & opt float 30.0
      & info [ "interarrival" ]
          ~doc:"Mean inter-arrival time at concurrency 1.")
  in
  let lock_timeout =
    Arg.(
      value & opt float 120.0
      & info [ "lock-timeout" ] ~doc:"Abort after waiting this long for locks.")
  in
  let group =
    Arg.(
      value
      & opt (some (pair int float)) None
      & info [ "group" ]
          ~doc:"Group commit as SIZE,TIMEOUT (e.g. --group 16,2.0).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Report sweep progress on stderr: one line per completed cell \
             with cells done / total and elapsed wall time.")
  in
  Term.(
    const sweep_cmd $ protocol_arg $ opts_arg $ concurrencies $ n_arg $ f_arg
    $ txns $ keyspace $ update_prob $ read_prob $ interarrival $ lock_timeout
    $ seed_arg $ group $ events_arg $ blocking_arg $ progress $ jobs_arg)

(* --- explain ---------------------------------------------------------------- *)

(* Re-run one deterministic mixer workload with the causal recorder on and
   walk one transaction's event graph: the full narrative, the critical
   path (every hop annotated with the wait class of the interval it ends),
   and the per-class attribution whose buckets sum - exactly - to the
   transaction's end-to-end latency. *)
let explain_cmd protocol opt_names n txns concurrency seed txn_id =
  if n < 2 then (
    Printf.eprintf "tpc_sim explain: -n must be at least 2\n";
    exit 2);
  require_mixer_counts "explain" ~txns ~concurrency;
  let opts = build_opts "explain" opt_names in
  let config =
    default_config |> with_protocol protocol |> with_opts opts
    |> with_trace_events false
  in
  let cfg = { Tpc.Mixer.default_cfg with txns; concurrency; seed } in
  let tree = Workload.mixer_tree ~n ~opts () in
  let _agg, w, summaries =
    Tpc.Mixer.run_full ~config ~causal:Obs.Causal.Graph cfg tree
  in
  let causal = w.Tpc.Run.causal in
  match List.find_opt (fun s -> s.Tpc.Mixer.ts_txn = txn_id) summaries with
  | None ->
      Printf.eprintf
        "tpc_sim explain: no transaction %S in this run (transactions are \
         mx-1 .. mx-%d)\n"
        txn_id txns;
      exit 1
  | Some s ->
      let outcome =
        match s.Tpc.Mixer.ts_outcome with
        | Some o -> outcome_to_string o
        | None -> "unresolved"
      in
      Printf.printf "transaction %s: %s%s\n" txn_id outcome
        (if s.Tpc.Mixer.ts_timed_out then " (lock-wait timeout)" else "");
      let e2e =
        Option.map
          (fun c -> c -. s.Tpc.Mixer.ts_arrival)
          s.Tpc.Mixer.ts_completed
      in
      (match e2e with
      | Some d ->
          Printf.printf
            "  arrival %.2f   completion %.2f   end-to-end latency %.2f\n"
            s.Tpc.Mixer.ts_arrival
            (Option.get s.Tpc.Mixer.ts_completed)
            d
      | None -> Printf.printf "  arrival %.2f   never completed\n" s.Tpc.Mixer.ts_arrival);
      let nodes = Obs.Causal.txn_nodes causal ~txn:txn_id in
      Printf.printf "\ncausal narrative (%d events):\n" (List.length nodes);
      List.iter
        (fun (cn : Obs.Causal.node) ->
          Printf.printf "  %8.2f  %-10s %s\n" cn.Obs.Causal.cn_time
            cn.Obs.Causal.cn_who cn.Obs.Causal.cn_label)
        nodes;
      (match Obs.Causal.critical_path causal ~txn:txn_id with
      | None -> Printf.printf "\nno causal events recorded for %s\n" txn_id
      | Some hops ->
          Printf.printf "\ncritical path (%d hops, binding cause at each step):\n"
            (List.length hops);
          List.iter
            (fun { Obs.Causal.h_node = cn; h_dt } ->
              Printf.printf "  +%8.2f  [%-9s] %-10s %s\n" h_dt
                (Obs.Causal.seg_name cn.Obs.Causal.cn_seg)
                cn.Obs.Causal.cn_who cn.Obs.Causal.cn_label)
            hops;
          let segs = Obs.Causal.path_segments hops in
          let total = Obs.Causal.segments_total segs in
          Printf.printf "\ncritical-path attribution:\n";
          List.iter
            (fun (name, v) ->
              Printf.printf "  %-10s %10.2f  %5.1f%%\n" name v
                (if total > 0.0 then 100.0 *. v /. total else 0.0))
            (Obs.Causal.segments_list segs);
          Printf.printf "  %-10s %10.2f" "total" total;
          (match e2e with
          | Some d -> Printf.printf "  (end-to-end %.2f)\n" d
          | None -> Printf.printf "\n"))

let explain_term =
  let txns =
    Arg.(value & opt int 100 & info [ "txns" ] ~doc:"Transactions to run.")
  in
  let concurrency =
    Arg.(value & opt int 8 & info [ "c"; "concurrency" ] ~doc:"Concurrency level.")
  in
  let txn_id =
    Arg.(
      value & opt string "mx-1"
      & info [ "txn" ] ~docv:"ID"
          ~doc:"Transaction to explain (mx-1 .. mx-TXNS).")
  in
  Term.(
    const explain_cmd $ protocol_arg $ opts_arg $ n_arg $ txns $ concurrency
    $ seed_arg $ txn_id)

(* --- stats ------------------------------------------------------------------ *)

(* Sim-kernel profiling: run one mixer cell and report what the discrete-event
   engine did (events processed/scheduled/cancelled, queue-depth high-water
   mark, wall-clock time). *)
let stats_cmd protocol opt_names n txns concurrency seed =
  if n < 2 then (
    Printf.eprintf "tpc_sim stats: -n must be at least 2\n";
    exit 2);
  require_mixer_counts "stats" ~txns ~concurrency;
  let opts = build_opts "stats" opt_names in
  let config = default_config |> with_protocol protocol |> with_opts opts in
  let cfg = { Tpc.Mixer.default_cfg with txns; concurrency; seed } in
  let tree = Workload.mixer_tree ~n ~opts () in
  let agg, w = Tpc.Mixer.run ~config cfg tree in
  let s = Simkernel.Engine.stats w.Tpc.Run.engine in
  let open Simkernel.Engine in
  Format.printf
    "mixer: label=%s n=%d txns=%d concurrency=%d committed=%d aborted=%d@."
    agg.Tpc.Metrics.Agg.label n txns concurrency
    agg.Tpc.Metrics.Agg.committed agg.Tpc.Metrics.Agg.aborted;
  Format.printf "engine:@.";
  Format.printf "  agenda             %s@."
    (agenda_name w.Tpc.Run.engine);
  Format.printf "  arena capacity     %d slots@."
    (arena_capacity w.Tpc.Run.engine);
  Format.printf "  event kinds        %s@."
    (String.concat ", " (kind_names w.Tpc.Run.engine));
  Format.printf "  events processed   %d@." s.events_processed;
  Format.printf "  events scheduled   %d@." s.events_scheduled;
  Format.printf "  events cancelled   %d@." s.events_cancelled;
  Format.printf "  max queue depth    %d@." s.max_queue_depth;
  Format.printf "  wall seconds       %.6f@." s.wall_seconds;
  Format.printf "  events/second      %.0f@."
    (if s.wall_seconds > 0.0 then
       float_of_int s.events_processed /. s.wall_seconds
     else 0.0)

let stats_term =
  let txns =
    Arg.(value & opt int 1000 & info [ "txns" ] ~doc:"Transactions to run.")
  in
  let concurrency =
    Arg.(value & opt int 8 & info [ "c"; "concurrency" ] ~doc:"Concurrency level.")
  in
  Term.(
    const stats_cmd $ protocol_arg $ opts_arg $ n_arg $ txns $ concurrency
    $ seed_arg)

(* --- crash ----------------------------------------------------------------- *)

let point_conv =
  let table =
    [
      ("on-prepare", Cp_on_prepare);
      ("after-prepared", Cp_after_prepared_log);
      ("after-vote", Cp_after_vote);
      ("before-decision-log", Cp_before_decision_log);
      ("after-decision-log", Cp_after_decision_log);
      ("after-decision-received", Cp_after_decision_received);
      ("before-ack", Cp_before_ack);
      ("after-commit-pending", Cp_after_commit_pending);
    ]
  in
  let parse s =
    match List.assoc_opt s table with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown crash point %S (%s)" s
               (String.concat "|" (List.map fst table))))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (fst (List.find (fun (_, q) -> q = p) table))
  in
  Arg.conv (parse, print)

(* Post-run recovery validation: when the crashed node restarts, recovery
   must fully resolve the transaction - no member may stay in doubt, no
   member's data may contradict the root's reported outcome, and the logs
   must not carry both commit and abort evidence.  Violations exit 1 so
   scripts and CI can gate on `tpc_sim crash`. *)
let check_crash_recovery ~restarted (world : Tpc.Run.world) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if restarted then
    List.iter
      (fun (name, (n : Tpc.Run.node)) ->
        if Tpc.Net.is_up world.Tpc.Run.net name then begin
          (match Kvstore.in_doubt n.Tpc.Run.kv with
          | [] -> ()
          | txns ->
              fail "%s: still in doubt after recovery (%s)" name
                (String.concat ", " txns));
          match Tpc.Participant.in_doubt_txns n.Tpc.Run.participant with
          | [] -> ()
          | txns ->
              fail "%s: protocol state still blocked (%s)" name
                (String.concat ", " txns)
        end)
      world.Tpc.Run.nodes;
  (match world.Tpc.Run.outcome with
  | Some o when restarted ->
      if not (Tpc.Run.consistent world ~txn:"txn-1" ~outcome:o) then
        fail "member state contradicts the root's %s report"
          (outcome_to_string o)
  | Some _ | None -> ());
  if Tpc.Mixer.Audit.(divergence (scan world [])) > 0 then
    fail "divergence: both commit and abort evidence in the logs";
  !failures

let crash_cmd protocol node point restart trace_out events_out =
  Option.iter (require_delay "crash" "--restart-after") restart;
  if not (List.mem node [ "coord"; "c1"; "c2" ]) then (
    Printf.eprintf
      "tpc_sim: --node must be one of coord, c1, c2 (the three-member chain)\n";
    exit 2);
  let config =
    default_config |> with_protocol protocol
    |> with_retries ~interval:25.0 ~max:default_config.max_retries
    |> with_faults [ { f_node = node; f_point = point; f_restart_after = restart } ]
  in
  let tree = Workload.chain ~n:3 () in
  let metrics, world = Tpc.Run.commit_tree ~config tree in
  Format.printf "%a@.@.%s@." Tpc.Metrics.pp metrics
    (Tpc.Trace.to_string world.Tpc.Run.trace);
  write_telemetry ~tree world trace_out events_out;
  match check_crash_recovery ~restarted:(restart <> None) world with
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "tpc_sim crash: BAD RECOVERY: %s\n")
        (List.rev failures);
      exit 1

let crash_term =
  let node =
    Arg.(value & opt string "c1" & info [ "node" ] ~doc:"Node to crash (coord, c1, c2).")
  in
  let point =
    Arg.(
      value & opt point_conv Cp_after_vote
      & info [ "at" ] ~doc:"Crash point in the protocol.")
  in
  let restart =
    Arg.(
      value
      & opt (some float) None
      & info [ "restart-after" ] ~doc:"Restart delay; omit for a permanent crash.")
  in
  Term.(
    const crash_cmd $ protocol_arg $ node $ point $ restart $ trace_out_arg
    $ events_arg)

(* --- chaos ------------------------------------------------------------------ *)

let chaos_cmd protocol opt_names n f seeds seed0 txns concurrency crashes
    partitions drops jitters horizon adversary equivocations vote_flips
    forgeries forced_heuristics replays corruptions group gc_target plan_str
    broken no_shrink out blocking jobs =
  if n < 2 then (
    Printf.eprintf "tpc_sim chaos: -n must be at least 2\n";
    exit 2);
  if seeds < 1 then (
    Printf.eprintf "tpc_sim chaos: --seeds must be at least 1\n";
    exit 2);
  require_mixer_counts "chaos" ~txns ~concurrency;
  if f < 0 then (
    Printf.eprintf "tpc_sim chaos: --f must be non-negative\n";
    exit 2);
  if gc_target && group = None then (
    Printf.eprintf "tpc_sim chaos: --gc-target needs --group SIZE,TIMEOUT\n";
    exit 2);
  require_at_least "chaos" "--jobs" 1 jobs;
  (* 0 asks for the automatic horizon; inf would plan every fault there *)
  require_delay "chaos" "--horizon" horizon;
  List.iter
    (fun (flag, n) -> require_at_least "chaos" flag 0 n)
    [
      ("--crashes", crashes); ("--partitions", partitions); ("--drops", drops);
      ("--jitters", jitters); ("--equivocations", equivocations);
      ("--vote-flips", vote_flips); ("--forgeries", forgeries);
      ("--forced-heuristics", forced_heuristics); ("--replays", replays);
      ("--corrupt-replicas", corruptions);
    ];
  let opts = build_opts "chaos" opt_names in
  let config =
    default_config |> with_protocol protocol |> with_opts opts
    |> with_bft_f f
    |> (match group with
       | Some (size, timeout) -> with_group_commit ~size ~timeout
       | None -> Fun.id)
    |> with_retries ~interval:25.0 ~max:8
    |> with_prepare_retries 2 |> with_retry_backoff 2.0
  in
  let tree = Workload.mixer_tree ~n ~opts () in
  let horizon =
    if horizon > 0.0 then horizon
    else
      (* cover the arrival window: faults beyond it hit a drained complex *)
      float_of_int txns
      *. Tpc.Mixer.default_cfg.Tpc.Mixer.base_interarrival
      /. float_of_int concurrency
  in
  (* any explicit adversarial count implies --adversary; bare --adversary
     gets a default mix of two of each adversarial kind *)
  let adversary =
    adversary || equivocations > 0 || vote_flips > 0 || forgeries > 0
    || forced_heuristics > 0 || replays > 0 || corruptions > 0
  in
  let gen_cfg =
    { Faultlab.default_gen with crashes; partitions; drops; jitters; horizon }
  in
  let gen_cfg =
    if not adversary then gen_cfg
    else if
      equivocations + vote_flips + forgeries + forced_heuristics + replays
      + corruptions
      = 0
    then
      (* the PR7 default mix, byte-identical plans: replays and replica
         corruptions only appear when asked for explicitly *)
      {
        gen_cfg with
        Faultlab.equivocations = 2;
        vote_flips = 2;
        forgeries = 2;
        forced_heuristics = 2;
      }
    else
      {
        gen_cfg with
        Faultlab.equivocations = equivocations;
        vote_flips;
        forgeries;
        forced_heuristics;
        replays;
        corruptions;
      }
  in
  let gen_cfg =
    {
      gen_cfg with
      Faultlab.corrupt_domain = (2 * f) + 1;
      gc_align =
        (if gc_target then Option.map (fun (_, timeout) -> timeout) group
         else None);
    }
  in
  let fixed_plan =
    match plan_str with
    | Some s -> (
        try Some (Faultlab.of_string s)
        with Invalid_argument msg ->
          Printf.eprintf "tpc_sim chaos: %s\n" msg;
          exit 2)
    | None -> None
  in
  let params =
    {
      Driver.ch_config = config;
      ch_tree = tree;
      ch_mixer = { Tpc.Mixer.default_cfg with txns; concurrency; seed = seed0 };
      ch_seed0 = seed0;
      ch_seeds = seeds;
      ch_gen = gen_cfg;
      ch_plan = fixed_plan;
      ch_broken = broken;
      ch_shrink = not no_shrink;
      ch_protocol_flag = Tpc.Protocol.flag protocol;
      ch_n = n;
      ch_adversary = adversary;
      ch_blocking = blocking;
    }
  in
  let cells, _registry = Driver.chaos_cells ~jobs params in
  (* fan-in renders in seed order: stdout/stderr match --jobs 1 exactly *)
  let out_chan = match out with Some path -> open_out path | None -> stdout in
  let violations = ref 0 in
  List.iter
    (fun (cell : Driver.chaos_cell) ->
      if cell.Driver.cc_violated then incr violations;
      Option.iter (Printf.eprintf "%s") cell.Driver.cc_repro;
      output_string out_chan (cell.Driver.cc_line ^ "\n");
      flush out_chan)
    cells;
  if out <> None then close_out out_chan;
  Printf.eprintf "tpc_sim chaos: %d/%d seeds clean (%s, n=%d, txns=%d, c=%d)\n"
    (seeds - !violations) seeds (Tpc.Protocol.flag protocol) n txns concurrency;
  (* the per-protocol row of the damage matrix: what the adversary
     achieved across the sweep, and what the honest nodes caught *)
  List.fold_left
    (fun acc (cell : Driver.chaos_cell) ->
      match (acc, cell.Driver.cc_accounting) with
      | None, a -> a
      | Some t, Some a ->
          Some
            Faultlab.
              {
                a_atomicity = t.a_atomicity + a.a_atomicity;
                a_heur_reported = t.a_heur_reported + a.a_heur_reported;
                a_heur_silent = t.a_heur_silent + a.a_heur_silent;
                a_blocked = t.a_blocked + a.a_blocked;
                a_rejected = t.a_rejected + a.a_rejected;
              }
      | Some _, None -> acc)
    None cells
  |> Option.iter (fun (t : Faultlab.accounting) ->
         let certified = Tpc.Protocol.(certified (resolve protocol)) in
         let cert_refusals =
           List.fold_left
             (fun acc (cell : Driver.chaos_cell) ->
               acc + cell.Driver.cc_cert_refusals)
             0 cells
         in
         let corrupted =
           List.fold_left
             (fun acc (cell : Driver.chaos_cell) ->
               acc + cell.Driver.cc_corrupted)
             0 cells
         in
         Printf.eprintf
           "tpc_sim chaos: adversary damage (%s, %d seeds): \
            atomicity=%d heur_reported=%d heur_silent=%d blocked=%d \
            rejected_forgeries=%d%s\n"
           (Tpc.Protocol.flag protocol) seeds t.Faultlab.a_atomicity
           t.Faultlab.a_heur_reported t.Faultlab.a_heur_silent
           t.Faultlab.a_blocked t.Faultlab.a_rejected
           (if certified then
              Printf.sprintf " cert_refusals=%d corrupted_replicas=%d f=%d"
                cert_refusals corrupted f
            else ""));
  if !violations > 0 then exit 1

let chaos_term =
  let seeds =
    Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Number of seeds to sweep.")
  in
  let txns =
    Arg.(value & opt int 150 & info [ "txns" ] ~doc:"Transactions per seed.")
  in
  let concurrency =
    Arg.(value & opt int 8 & info [ "c"; "concurrency" ] ~doc:"Concurrency level.")
  in
  let crashes =
    Arg.(value & opt int 2 & info [ "crashes" ] ~doc:"Crash events per plan.")
  in
  let partitions =
    Arg.(
      value & opt int 1 & info [ "partitions" ] ~doc:"Partition events per plan.")
  in
  let drops =
    Arg.(
      value & opt int 3
      & info [ "drops" ] ~doc:"Nth-message drop events per plan.")
  in
  let jitters =
    Arg.(
      value & opt int 2
      & info [ "jitters" ] ~doc:"Per-link delay-jitter events per plan.")
  in
  let horizon =
    Arg.(
      value & opt float 0.0
      & info [ "horizon" ]
          ~doc:
            "Fault-schedule horizon (virtual time); 0 = cover the arrival \
             window.")
  in
  let adversary =
    Arg.(
      value & flag
      & info [ "adversary" ]
          ~doc:
            "Generate adversarial events too (default two each of \
             equivocations, vote flips, forgeries and forced heuristics \
             unless overridden), emit the damage-accounting classification \
             on every verdict line, and gate on silent damage instead of \
             the benign pass/fail.")
  in
  let equivocations =
    Arg.(
      value & opt int 0
      & info [ "equivocations" ]
          ~doc:"Equivocating-coordinator events per plan (implies --adversary).")
  in
  let vote_flips =
    Arg.(
      value & opt int 0
      & info [ "vote-flips" ]
          ~doc:"In-flight vote-flip events per plan (implies --adversary).")
  in
  let forgeries =
    Arg.(
      value & opt int 0
      & info [ "forgeries" ]
          ~doc:
            "Forged prepare/decision injections per plan (implies \
             --adversary).")
  in
  let forced_heuristics =
    Arg.(
      value & opt int 0
      & info [ "forced-heuristics" ]
          ~doc:
            "Scheduled heuristic-damage events per plan (implies \
             --adversary).")
  in
  let replays =
    Arg.(
      value & opt int 0
      & info [ "replays" ]
          ~doc:
            "Stale-payload replay events per plan: re-deliver a genuine \
             earlier bundle on a live link, unmodified (implies \
             --adversary).")
  in
  let corruptions =
    Arg.(
      value & opt int 0
      & info [ "corrupt-replicas" ]
          ~doc:
            "Coordinator-replica corruption events per plan, over a \
             2f+1-replica domain: each hands the adversary one replica's \
             endorsement key.  With more than --f of them it can forge \
             decision certificates (implies --adversary).")
  in
  let group =
    Arg.(
      value
      & opt (some (pair int float)) None
      & info [ "group" ]
          ~doc:"Group commit as SIZE,TIMEOUT (e.g. --group 16,2.0).")
  in
  let gc_target =
    Arg.(
      value & flag
      & info [ "gc-target" ]
          ~doc:
            "Align every generated adversarial event to the group-commit \
             batched-force boundary (multiples of the --group TIMEOUT), so \
             faults land exactly when a batch of decisions is being \
             hardened.")
  in
  let plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ]
          ~doc:
            "Replay this exact fault plan (the compact form printed in \
             verdicts) instead of generating one per seed.")
  in
  let broken =
    Arg.(
      value & flag
      & info [ "broken-recovery" ]
          ~doc:
            "Substitute the deliberately broken amnesia restart for every \
             recovery: the audit must catch it (self-test of the harness).")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Skip schedule shrinking on violation.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write JSONL verdicts here instead of stdout.")
  in
  Term.(
    const chaos_cmd $ protocol_arg $ opts_arg $ n_arg $ f_arg $ seeds
    $ seed_arg $ txns $ concurrency $ crashes $ partitions $ drops $ jitters
    $ horizon $ adversary $ equivocations $ vote_flips $ forgeries
    $ forced_heuristics $ replays $ corruptions $ group $ gc_target $ plan
    $ broken $ no_shrink $ out $ blocking_arg $ jobs_arg)

(* --- command tree ------------------------------------------------------------- *)

(* what --help says: the Cmd.eval call below turns cmdliner's own parse
   errors into exit 2 *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:
        "when a run fails its own check: a table row that differs from the \
         paper, a bad recovery, a chaos violation, an unknown transaction.";
    Cmd.Exit.info 2 ~doc:"on a usage error.";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"on unexpected internal errors (bugs).";
  ]

let cmd name term doc = Cmd.v (Cmd.info name ~doc ~exits) term

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "tpc_sim" ~version:"1.0.0" ~exits
      ~doc:
        "Simulator for two-phase commit optimizations (Samaras, Britton, \
         Citron, Mohan; ICDE 1993)"
  in
  (* a usage error exits 2 whichever parser catches it: cmdliner's own
     parse errors (124) join the hand-written checks *)
  let code =
    Cmd.eval
      (Cmd.group ~default info
        [
          cmd "run" run_term "Run one distributed commit.";
          cmd "tables" tables_term
            "The paper's Tables 1-4 and the BFT rows, each simulated row \
             beside its paper figure; exits 1 on any mismatch.";
          cmd "figures" figures_term "Render the paper's figures.";
          cmd "chain" chain_term "Chained-transaction streams (Table 4).";
          cmd "group" group_term "Group-commit sweep.";
          cmd "claims" claims_term
            "The paper's behavioural claims: lock release, commit share, \
             lock contention, the last-agent crossover, coordinator-crash \
             recovery and a per-optimization ablation.";
          cmd "crash" crash_term "Commit with an injected crash and recovery.";
          cmd "sweep" sweep_term
            "Concurrent throughput sweep: concurrency x optimization sets, \
             one JSON line per cell.";
          cmd "explain" explain_term
            "Causal explanation of one transaction: event narrative, \
             critical path, and latency attribution (log-wait, msg-wait, \
             lock-wait, in-doubt, compute) summing to its end-to-end \
             latency.";
          cmd "stats" stats_term
            "Sim-kernel profiling: run one mixer cell and report engine \
             statistics.";
          cmd "chaos" chaos_term
            "Seeded fault-schedule sweep: crashes, partitions, drops and \
             jitter against the concurrent mixer, fault-aware audit per \
             seed (JSONL), greedy schedule shrinking on violation.";
        ])
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
