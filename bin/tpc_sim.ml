(* tpc_sim: command-line driver for the 2PC simulator.

   Subcommands:
     run       - one distributed commit over a chosen tree/protocol/options
     tables    - regenerate the paper's Tables 2, 3 and 4
     figures   - render the paper's figures as sequence diagrams
     chain     - Table 4 style chained-transaction streams
     group     - group-commit sweep
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
    "Enable an optimization (repeatable): "
    ^ String.concat ", " opt_names ^ "."
  in
  Arg.(value & opt_all string [] & info [ "O"; "enable" ] ~doc)

(* The single source of truth for optimization names is
   Types.opt_of_string: the CLI, bench and tests all parse through it. *)
let parse_opt_names ~on_unknown names =
  List.filter_map
    (fun name ->
      match opt_of_string name with
      | Some o -> Some o
      | None ->
          on_unknown name;
          None)
    names

let build_opts names =
  parse_opt_names names ~on_unknown:(fun name ->
      Printf.eprintf "warning: unknown optimization %S ignored\n" name)

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
  let opts = build_opts opt_names in
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

(* --- tables ------------------------------------------------------------ *)

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
  let pp = Tpc.Cost_model.pp_counts in
  let table3 = Workload.table3_rows ~n ~m in
  Format.printf "Table 3 (n=%d, m=%d): simulated = paper formula@.@." n m;
  List.iter
    (fun (row : Workload.row) ->
      Format.printf "  %-28s %a@." row.label pp row.paper)
    table3;
  (* the optimizations' simulated rows; the bench prints the baseline's *)
  Format.printf "@.Simulated:@.";
  List.iter
    (fun (row : Workload.row) ->
      Format.printf "  %-29s %a@." row.label pp row.simulated)
    (List.tl table3);
  (* the closed form; the bench prints the simulated column beside it *)
  Format.printf "@.Table 4 (r=%d):@." r;
  List.iter
    (fun ((row : Workload.row), _) ->
      Format.printf "  %-36s %a@." row.label pp row.paper)
    (Workload.table4_rows ~r);
  (* the resilience-vs-cost frontier: what certified (Byzantine-tolerant)
     commit adds on top of the same tree, closed form next to simulation *)
  Format.printf "@.Byzantine tolerance (n=%d): simulated = paper formula@." n;
  List.iter
    (fun f ->
      Format.printf "  %-28s %a@."
        (Printf.sprintf "BFT commit (f=%d)" f)
        Tpc.Cost_model.pp_counts (Tpc.Cost_model.bft ~f ~n))
    (List.sort_uniq compare [ 0; 1; max 0 f ]);
  (match Tpc.Protocol.of_string "bft" with
  | None -> ()
  | Some p ->
      let config = default_config |> with_protocol p |> with_bft_f f in
      let metrics, _w = Tpc.Run.commit_tree ~config (Workload.flat ~n ()) in
      Format.printf "@.Simulated:@.  %-28s %a@."
        (Printf.sprintf "BFT commit (f=%d)" f)
        Tpc.Cost_model.pp_counts
        (Tpc.Metrics.counts metrics))

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
  Format.printf "%-8s %-12s %-12s %-10s %-14s@." "group" "requests" "I/Os"
    "saved" "paper 3n/2m";
  List.iter
    (fun m ->
      let r = Tpc.Run.group_commit ~n ~group_size:m () in
      Format.printf "%-8d %-12d %-12d %-10d %-14.1f@." m
        r.Tpc.Run.gc_force_requests r.Tpc.Run.gc_force_ios
        r.Tpc.Run.gc_saved_ios r.Tpc.Run.gc_paper_saving)
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
  let parse_set s =
    String.split_on_char ',' s
    |> List.filter (fun x -> x <> "")
    |> parse_opt_names ~on_unknown:(fun name ->
           Printf.eprintf
             "tpc_sim sweep: unknown optimization %S (one of %s)\n" name
             (String.concat ", " opt_names);
           exit 2)
  in
  (* baseline first, then each requested set (a set may be a comma-separated
     combination, e.g. -O read-only,shared-log) *)
  let sets = [] :: List.map parse_set opt_sets in
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
  let opts = build_opts opt_names in
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
  let opts = build_opts opt_names in
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
  let has kind =
    List.exists
      (fun wal ->
        List.exists
          (fun (r : Wal.Log_record.t) -> r.kind = kind)
          (Wal.Log.all_records wal))
      (Tpc.Run.all_wals world)
  in
  let commit_ev = has Wal.Log_record.Committed || has Wal.Log_record.Rm_committed in
  let abort_ev = has Wal.Log_record.Aborted || has Wal.Log_record.Rm_aborted in
  if commit_ev && abort_ev then
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
      & opt (some float) (Some 30.0)
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
  let opts = build_opts opt_names in
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

let cmd name term doc = Cmd.v (Cmd.info name ~doc) term

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "tpc_sim" ~version:"1.0.0"
      ~doc:
        "Simulator for two-phase commit optimizations (Samaras, Britton, \
         Citron, Mohan; ICDE 1993)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            cmd "run" run_term "Run one distributed commit.";
            cmd "tables" tables_term "Regenerate the paper's cost tables.";
            cmd "figures" figures_term "Render the paper's figures.";
            cmd "chain" chain_term "Chained-transaction streams (Table 4).";
            cmd "group" group_term "Group-commit sweep.";
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
          ]))
