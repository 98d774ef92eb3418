(* The ledger's workloads and metric vocabulary.

   Every workload is a closed batch: a fixed input made from the workload
   seed, processed as fast as the host allows (the mixer's arrivals are
   open-loop in simulated time only).  Each one stresses a different set of
   layers, so a change to one layer should move the workloads that exercise
   it and leave the others alone; README.md has the full map. *)

open Tpc.Types

type shape =
  | Batch  (** one mixer world per repetition, arrivals drawn from the seed *)
  | Cells of { count : int; gen : Faultlab.gen_cfg }
      (** chaos: [count] small worlds, fault plan and arrivals of cell [k]
          both drawn from seed [k] exactly as [tpc_sim chaos] does *)

type t = {
  name : string;
  config : config;
  tree : tree;
  mix : Tpc.Mixer.cfg;  (** [seed] is replaced per run (or per cell) *)
  causal : Obs.Causal.mode;
  shape : shape;
  closed_form : Tpc.Cost_model.counts option;
      (** fault-free workloads: (flows, writes, forced) every commit must
          cost, from the paper's closed forms *)
}

let bft =
  match Tpc.Protocol.of_string "bft" with
  | Some p -> p
  | None -> failwith "ledger: the bft protocol is not registered"

let mixer ~txns ~concurrency ~keyspace =
  { Tpc.Mixer.default_cfg with txns; concurrency; keyspace }

let counter_only = default_config |> with_trace_events false

(* PA on an 8-member flat tree with no lock contention: the paper's commit
   hot path (participant, netsim, kernel) and nothing else. *)
let pa_wide =
  {
    name = "pa-wide";
    config = counter_only;
    tree = Workload.flat ~n:8 ();
    mix = mixer ~txns:10_000 ~concurrency:16 ~keyspace:100_000;
    causal = Obs.Causal.Off;
    shape = Batch;
    closed_form = Some (Tpc.Cost_model.basic ~n:8);
  }

let all =
  [
    pa_wide;
    (* pa-wide's tree and mix under BFT (f=1): the certificate path adds
       flows, forces and allocation on top of the same hot path *)
    {
      pa_wide with
      name = "bft-wide";
      config = counter_only |> with_protocol bft |> with_bft_f 1;
      mix = mixer ~txns:9_000 ~concurrency:16 ~keyspace:100_000;
      closed_form = Some (Tpc.Cost_model.bft ~f:1 ~n:8);
    };
    (* PN on 5 members over 16 hot keys with group commit 8/2.0: busy lock
       queues, timeout aborts and batched forces *)
    {
      name = "pn-hot-group";
      config =
        counter_only
        |> with_protocol Presumed_nothing
        |> with_group_commit ~size:8 ~timeout:2.0;
      tree = Workload.flat ~n:5 ();
      mix = mixer ~txns:20_000 ~concurrency:16 ~keyspace:16;
      causal = Obs.Causal.Off;
      shape = Batch;
      closed_form = Some (Tpc.Cost_model.presumed_nothing ~n:5 ());
    };
    (* pa-wide with the full event trace and causal graphs on: the only
       workload that pays for observability *)
    {
      pa_wide with
      name = "pa-observed";
      config = default_config |> with_trace_events true;
      mix = mixer ~txns:3_000 ~concurrency:16 ~keyspace:100_000;
      causal = Obs.Causal.Graph;
    };
    (* 4000 small PA worlds under seeded crashes, partitions, drops and
       jitter: recovery, retransmission and per-world set-up costs *)
    {
      name = "chaos-cells";
      config =
        counter_only
        |> with_retries ~interval:25.0 ~max:8
        |> with_prepare_retries 2 |> with_retry_backoff 2.0;
      tree = Workload.mixer_tree ~n:4 ~opts:[] ();
      mix = mixer ~txns:60 ~concurrency:6 ~keyspace:Tpc.Mixer.default_cfg.keyspace;
      causal = Obs.Causal.Off;
      shape =
        Cells { count = 4000; gen = { Faultlab.default_gen with horizon = 300.0 } };
      closed_form = None;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The chaos seeds the baseline already knows to violate the audit, with
   the minimized plan.  Seed 309 is a real recovery bug (a committed
   transaction missing at a restarted member under PA), recorded here so
   the benchmark runs clean until a correctness change fixes it; any other
   violating seed fails the run. *)
let known_violations =
  [
    ( 309,
      "crash@88.178:sub0:+21.552,part@100.456:coord|sub2:+206.843,crash@125.633:sub0:+62.857"
    );
  ]

let replay_line wl ~seed plan =
  Printf.sprintf
    "tpc_sim chaos --protocol %s -n %d --seed %d --seeds 1 --txns %d -c %d \
     --plan '%s'"
    (Tpc.Protocol.flag wl.config.protocol)
    (tree_size wl.tree) seed wl.mix.txns wl.mix.concurrency
    (Faultlab.to_string plan)

(* The cell seeds of one repetition.  A chaos run always covers seeds
   1..count, the range whose violations are recorded above; the workload
   seed only rotates the order the cells run in. *)
let cell_seeds wl ~seed =
  match wl.shape with
  | Batch -> [ seed ]
  | Cells { count; _ } ->
      let start = Simkernel.Det_rng.int (Simkernel.Det_rng.create ~seed) count in
      List.init count (fun i -> ((start + i) mod count) + 1)

let plan_for wl ~cell =
  match wl.shape with
  | Batch -> []
  | Cells { gen; _ } -> Faultlab.gen ~seed:cell ~nodes:(Faultlab.tree_nodes wl.tree) gen

(* -- metrics ------------------------------------------------------------ *)

type direction = Lower | Higher

type metric = {
  m_name : string;
  m_unit : string;
  m_better : direction;
  m_exact : bool;
      (** a count that repeats exactly for a given seed: [--compare] pairs
          runs by seed and calls any change worse or better, never same *)
}

let metric ?(exact = false) ?(better = Lower) m_name m_unit =
  { m_name; m_unit; m_better = better; m_exact = exact }

let end_to_end =
  [
    metric "txn_per_s" "1/s" ~better:Higher;
    metric "setup_s" "s";
    metric "alloc_words_per_txn" "words";
    metric "retained_bytes_per_txn" "B";
    metric "events_per_txn" "count" ~exact:true;
    metric "flows_per_commit" "count" ~exact:true;
    metric "forced_writes_per_commit" "count" ~exact:true;
    metric "force_ios_per_commit" "count" ~exact:true;
    metric "commit_latency_p50_sim" "simtime" ~exact:true;
    metric "commit_latency_p99_sim" "simtime" ~exact:true;
    metric "lock_hold_p99_sim" "simtime" ~exact:true;
    metric "commit_ratio" "ratio" ~exact:true ~better:Higher;
    metric "clean_ratio" "ratio" ~exact:true ~better:Higher;
  ]
