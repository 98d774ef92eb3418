(* Multicore experiment driver; see driver.mli for the contract.

   Domain-safety invariant: a cell body touches only (a) the immutable
   parameter records captured by its closure and (b) the fresh world it
   builds itself.  The tpc libraries hold no module-level mutable state
   that is written after startup (audited: the cost_model/scenarios lookup
   tables are immutable lists built at module initialization in the main
   domain, and the Protocol registry is populated at module initialization
   / before any world is built, then only read), so sharing the code
   read-only across domains is safe.  The one shared structure per batch
   is the results array, and each worker writes only its own index. *)

open Tpc.Types

type sweep_params = {
  sw_config : Tpc.Types.config;
  sw_sets : Tpc.Types.opt list list;
  sw_concurrencies : int list;
  sw_n : int;
  sw_mixer : Tpc.Mixer.cfg;
  sw_events : bool;
  sw_blocking : bool;
}

type sweep_cell = {
  sc_label : string;
  sc_concurrency : int;
  sc_line : string;
  sc_events : string;
  sc_stats : Simkernel.Engine.stats;
}

(* Only the deterministic engine counters go on the cell's stdout line;
   the wall-clock profile lives in [sc_stats] (stderr progress, bench
   reports) so that identical arguments always produce identical bytes. *)
let meta_json (s : Simkernel.Engine.stats) =
  let open Simkernel.Engine in
  Tpc.Json.Obj
    [
      ("events_processed", Tpc.Json.Int s.events_processed);
      ("events_scheduled", Tpc.Json.Int s.events_scheduled);
      ("events_cancelled", Tpc.Json.Int s.events_cancelled);
      ("max_queue_depth", Tpc.Json.Int s.max_queue_depth);
    ]

let with_meta agg_json stats =
  match agg_json with
  | Tpc.Json.Obj fields ->
      Tpc.Json.Obj (fields @ [ ("meta", meta_json stats) ])
  | other -> other

(* The blocking-window block is opt-in per harness invocation so that
   output produced before it existed stays byte-identical. *)
let with_blocking enabled reg json =
  if not enabled then json
  else
    match json with
    | Tpc.Json.Obj fields ->
        Tpc.Json.Obj (fields @ [ ("blocking", Faultlab.blocking_json reg) ])
    | other -> other

(* Per-domain scratch engine: each worker domain keeps one engine alive and
   [Engine.reset]s it between cells, so small cells stop re-paying arena and
   agenda warm-up on every world.  Safe because a cell drives its world to
   quiescence before the thunk returns (only the immutable stats snapshot
   and the per-world registry outlive it), and reset restores the exact
   fresh-create observable state.  The shrink path deliberately does NOT use
   the scratch engine: it re-runs candidate schedules while the primary
   world's engine stats are still to be read. *)
let scratch_key : Simkernel.Engine.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch_engine () =
  let r = Domain.DLS.get scratch_key in
  match !r with
  | Some e -> e
  | None ->
      let e = Simkernel.Engine.create () in
      r := Some e;
      e

(* Fan a list of cell thunks out over domains, reporting completions
   through [progress] under one lock so callers may mutate state inside. *)
let run_cells ?progress ~jobs cells =
  match progress with
  | None -> Parallel.map ~jobs (fun f -> f ()) cells
  | Some report ->
      let m = Mutex.create () in
      Parallel.map ~jobs
        (fun f ->
          let cell, label = f () in
          Mutex.lock m;
          (try report label with e -> Mutex.unlock m; raise e);
          Mutex.unlock m;
          (cell, label))
        cells

let sweep_cells ?progress ~jobs p =
  let one set concurrency () =
    let config =
      p.sw_config |> with_opts set |> with_trace_events p.sw_events
    in
    let cfg = { p.sw_mixer with Tpc.Mixer.concurrency } in
    let tree = Workload.mixer_tree ~n:p.sw_n ~opts:set () in
    let agg, w = Tpc.Mixer.run ~config ~scratch:(scratch_engine ()) cfg tree in
    let stats = Simkernel.Engine.stats w.Tpc.Run.engine in
    let line =
      Tpc.Json.to_string
        (with_meta
           (with_blocking p.sw_blocking w.Tpc.Run.registry
              (Tpc.Metrics.Agg.to_json_value agg))
           stats)
    in
    let events =
      if p.sw_events then
        Tpc.Json.to_string
          (Tpc.Json.Obj
             [
               ("type", Tpc.Json.String "cell");
               ("label", Tpc.Json.String agg.Tpc.Metrics.Agg.label);
               ("concurrency", Tpc.Json.Int concurrency);
               ("seed", Tpc.Json.Int cfg.Tpc.Mixer.seed);
             ])
        ^ "\n"
        ^ Tpc.Telemetry.events_to_jsonl w.Tpc.Run.trace
      else ""
    in
    let cell =
      {
        sc_label = agg.Tpc.Metrics.Agg.label;
        sc_concurrency = concurrency;
        sc_line = line;
        sc_events = events;
        sc_stats = stats;
      }
    in
    ((cell, w.Tpc.Run.registry), Printf.sprintf "%s c=%d" cell.sc_label concurrency)
  in
  let thunks =
    List.concat_map
      (fun set -> List.map (fun c -> one set c) p.sw_concurrencies)
      p.sw_sets
  in
  let results = run_cells ?progress ~jobs thunks in
  (* fan-in in input order: the merged registry is deterministic too *)
  let global = Obs.Registry.create () in
  let cells =
    List.map
      (fun ((cell, reg), _label) ->
        Obs.Registry.merge ~into:global reg;
        cell)
      results
  in
  (cells, global)

type chaos_params = {
  ch_config : Tpc.Types.config;
  ch_tree : Tpc.Types.tree;
  ch_mixer : Tpc.Mixer.cfg;
  ch_seed0 : int;
  ch_seeds : int;
  ch_gen : Faultlab.gen_cfg;
  ch_plan : Faultlab.plan option;
  ch_broken : bool;
  ch_shrink : bool;
  ch_protocol_flag : string;
  ch_n : int;
  ch_adversary : bool;
  ch_blocking : bool;
}

type chaos_cell = {
  cc_seed : int;
  cc_violated : bool;
  cc_line : string;
  cc_repro : string option;
  cc_stats : Simkernel.Engine.stats;
  cc_accounting : Faultlab.accounting option;
  cc_cert_refusals : int;
  cc_corrupted : int;
}

(* The shortest decimal form of [x] that parses back to [x] exactly *)
let exact_float x =
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec x in
    if prec >= 17 || float_of_string s = x then s else go (prec + 1)
  in
  go 1

let chaos_cells ?progress ~jobs p =
  let nodes = Faultlab.tree_nodes p.ch_tree in
  let config = p.ch_config |> with_trace_events false in
  (* Adversary mode is explicit (--adversary generated plans) or inferred
     from a fixed plan's content, so a pasted adversarial repro replays
     under the same classified audit that produced it. *)
  let adversary =
    p.ch_adversary
    ||
    match p.ch_plan with
    | Some plan -> Faultlab.is_adversarial plan
    | None -> false
  in
  (* Under a certified protocol the adversarial tolerance is conditional:
     atomicity violations are "the measurement" only above the quorum
     threshold.  With at most [f] corrupted replicas the certificate rule
     guarantees atomicity outright, so any violation there is a failed
     guarantee, not a data point. *)
  let certified =
    Tpc.Protocol.certified (Tpc.Protocol.resolve config.Tpc.Types.protocol)
  in
  let bft_f = max 0 config.Tpc.Types.bft_f in
  let bft_gate plan (acc : Faultlab.accounting) =
    certified
    && Faultlab.corrupted_replicas plan <= bft_f
    && acc.Faultlab.a_atomicity > 0
  in
  let one seed () =
    let cfg = { p.ch_mixer with Tpc.Mixer.seed } in
    let plan =
      match p.ch_plan with
      | Some plan -> plan
      | None -> Faultlab.gen ~seed ~nodes p.ch_gen
    in
    let scratch = scratch_engine () in
    let agg, v, acc_opt, w =
      if adversary then
        let agg, v, acc, w =
          Faultlab.run_case_adversarial ~config ~broken_recovery:p.ch_broken
            ~scratch cfg p.ch_tree plan
        in
        (agg, v, Some acc, w)
      else
        let agg, v, w =
          Faultlab.run_case_full ~config ~broken_recovery:p.ch_broken ~scratch
            cfg p.ch_tree plan
        in
        (agg, v, None, w)
    in
    let violated =
      match acc_opt with
      | Some acc -> (not (Faultlab.adversarial_ok v acc)) || bft_gate plan acc
      | None -> not (Faultlab.ok v)
    in
    let cert_refusals =
      if certified then
        List.fold_left
          (fun n node ->
            n + Tpc.Participant.rejected_certs (Tpc.Run.participant w node))
          0 nodes
      else 0
    in
    let minimized =
      if violated && p.ch_shrink then begin
        let check candidate =
          if adversary then
            let _, v', acc', _ =
              Faultlab.run_case_adversarial ~config
                ~broken_recovery:p.ch_broken cfg p.ch_tree candidate
            in
            (not (Faultlab.adversarial_ok v' acc')) || bft_gate candidate acc'
          else
            let _, v' =
              Faultlab.run_case ~config ~broken_recovery:p.ch_broken cfg
                p.ch_tree candidate
            in
            not (Faultlab.ok v')
        in
        Some (Faultlab.shrink ~check plan)
      end
      else None
    in
    let repro =
      Option.map
        (fun small ->
          Printf.sprintf
            "tpc_sim chaos: seed %d VIOLATION; minimized to %d event(s); \
             replay with:\n\
            \  tpc_sim chaos --protocol %s -n %d --seed %d --seeds 1 --txns \
             %d -c %d%s%s%s%s%s --plan '%s'\n"
            seed (List.length small) p.ch_protocol_flag p.ch_n seed
            cfg.Tpc.Mixer.txns cfg.Tpc.Mixer.concurrency
            (String.concat ""
               (List.map
                  (fun o -> " -O " ^ opt_to_string o)
                  (opts_to_list config.opts)))
            (match config.group_commit with
            | Some { Wal.Log.size; timeout } ->
                Printf.sprintf " --group %d,%s" size (exact_float timeout)
            | None -> "")
            (if p.ch_broken then " --broken-recovery" else "")
            (if adversary then " --adversary" else "")
            (if certified then Printf.sprintf " -f %d" bft_f else "")
            (Faultlab.to_string small))
        minimized
    in
    let line =
      Tpc.Json.Obj
        ([
           ("seed", Tpc.Json.Int seed);
           ("protocol", Tpc.Json.String p.ch_protocol_flag);
           ("plan", Tpc.Json.String (Faultlab.to_string plan));
           ("ok", Tpc.Json.Bool (not violated));
           ("committed", Tpc.Json.Int agg.Tpc.Metrics.Agg.committed);
           ("aborted", Tpc.Json.Int agg.Tpc.Metrics.Agg.aborted);
         ]
        @ List.map
            (fun (k, c) -> (k, Tpc.Json.Int c))
            (Faultlab.verdict_fields v)
        @ (match acc_opt with
          | Some acc ->
              List.map
                (fun (k, c) -> (k, Tpc.Json.Int c))
                (Faultlab.accounting_fields acc)
          | None -> [])
        @ (if certified then
             [
               ("f", Tpc.Json.Int bft_f);
               ( "corrupted_replicas",
                 Tpc.Json.Int (Faultlab.corrupted_replicas plan) );
               ("cert_refusals", Tpc.Json.Int cert_refusals);
             ]
           else [])
        @ (if p.ch_blocking then
             [ ("blocking", Faultlab.blocking_json w.Tpc.Run.registry) ]
           else [])
        @
        match minimized with
        | Some small ->
            [ ("minimized", Tpc.Json.String (Faultlab.to_string small)) ]
        | None -> [])
    in
    let cell =
      {
        cc_seed = seed;
        cc_violated = violated;
        cc_line = Tpc.Json.to_string line;
        cc_repro = repro;
        cc_stats = Simkernel.Engine.stats w.Tpc.Run.engine;
        cc_accounting = acc_opt;
        cc_cert_refusals = cert_refusals;
        cc_corrupted = Faultlab.corrupted_replicas plan;
      }
    in
    ((cell, w.Tpc.Run.registry), Printf.sprintf "seed %d" seed)
  in
  let thunks = List.init p.ch_seeds (fun i -> one (p.ch_seed0 + i)) in
  let results = run_cells ?progress ~jobs thunks in
  let global = Obs.Registry.create () in
  let cells =
    List.map
      (fun ((cell, reg), _label) ->
        Obs.Registry.merge ~into:global reg;
        cell)
      results
  in
  (cells, global)
