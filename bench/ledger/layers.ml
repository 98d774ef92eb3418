(* Isolated replays: each layer driven alone through its public functions,
   shaped like the workload (node set, keyspace, concurrency, group-commit
   configuration, queue depth), to price one call of it in nanoseconds.
   Each figure is the median of three timed blocks.

   The replays overlap: netsim's and the WAL's include the engine steps that
   complete a delivery or an I/O, and kvstore's includes its own lock table
   and log appends.  README.md lists what that means for the shares. *)

module E = Simkernel.Engine
module Rng = Simkernel.Det_rng

type t = {
  ns_per_event : float;
  ns_per_flow : float;
  ns_per_force : float;
  ns_per_acquire : float;
  ns_per_op : float;
  histogram_ns_per_record : float;
  causal_ns_per_record : float;
}

(* [block ()] does some calls and returns how many; ns per call, median of
   three blocks after one untimed warm-up block. *)
let ns_per_call ?(reset = ignore) block =
  ignore (block ());
  reset ();
  Sim.median
    (List.init 3 (fun _ ->
         let t0 = Sim.now_ns () in
         let calls = block () in
         let ns = Int64.to_float (Int64.sub (Sim.now_ns ()) t0) in
         reset ();
         ns /. float_of_int calls))

(* The kernel: [depth] far-future events spread over the run's simulated
   span sit on the agenda (the pending arrivals; each one that fires goes
   back a span ahead, so the depth holds), while a hold set of
   [concurrency] near events - one network or log delay ahead - keeps
   rescheduling itself. *)
let kernel ~depth ~span ~concurrency =
  let e = E.create () in
  let rng = Rng.create ~seed:1 in
  let far = ref (E.register_kind e ~name:"idle" (fun _ _ _ _ -> ())) in
  far :=
    E.register_kind e ~name:"far" (fun _ _ _ _ ->
        ignore (E.schedule_flat e ~delay:span ~kind:!far ~a0:0 ~a1:0 ~a2:0));
  let far = !far in
  for _ = 1 to depth do
    ignore (E.schedule_flat e ~delay:(Rng.float rng span) ~kind:far ~a0:0 ~a1:0 ~a2:0)
  done;
  let near = ref far in
  near :=
    E.register_kind e ~name:"near" (fun i _ _ _ ->
        let delay = if i land 1 = 0 then 1.0 else 0.5 in
        ignore (E.schedule_flat e ~delay ~kind:!near ~a0:(i + 1) ~a1:0 ~a2:0));
  for i = 1 to concurrency do
    ignore (E.schedule_flat e ~delay:0.0 ~kind:!near ~a0:i ~a1:0 ~a2:0)
  done;
  let steps = 200_000 in
  ns_per_call (fun () ->
      for _ = 1 to steps do
        ignore (E.step e)
      done;
      steps)

(* The network: the root exchanging one empty bundle each way with every
   subordinate, [concurrency] exchanges in flight, each delivered by the
   engine. *)
let netsim ~nodes ~concurrency =
  let e = E.create () in
  let net = Tpc.Net.create e ~default_latency:1.0 () in
  List.iter (fun n -> Tpc.Net.add_node net n (fun ~src:_ _ -> ())) nodes;
  let root = List.hd nodes and subs = Array.of_list (List.tl nodes) in
  let rounds = 2000 in
  ns_per_call (fun () ->
      for r = 1 to rounds do
        for i = 1 to concurrency do
          let sub = subs.((r + i) mod Array.length subs) in
          ignore (Tpc.Net.send net ~src:root ~dst:sub []);
          ignore (Tpc.Net.send net ~src:sub ~dst:root [])
        done;
        E.run e
      done;
      2 * rounds * concurrency)

(* The log: [concurrency] forced writes outstanding at a time under the
   workload's group-commit configuration, each batch run to durability. *)
let wal ~group ~concurrency =
  let e = E.create () in
  let log = Wal.Log.create e ~node:"n" ~config:{ Wal.Log.io_latency = 0.5; group } () in
  let record = Wal.Log_record.make ~txn:"t" ~node:"n" Wal.Log_record.Prepared in
  let rounds = 4000 in
  ns_per_call
    ~reset:(fun () -> ignore (Wal.Log.compact log ~keep:(fun _ -> false)))
    (fun () ->
      for _ = 1 to rounds do
        for _ = 1 to concurrency do
          Wal.Log.force log record ignore
        done;
        E.run e
      done;
      rounds * concurrency)

let names prefix n = Array.init n (fun i -> prefix ^ string_of_int i)

(* One lock table: every transaction takes one key (one member's share of
   a mixer transaction), exclusive with the workload's update share;
   [concurrency] transactions hold locks at once and the oldest releases
   when a newer one arrives or queues. *)
let lockmgr ~keyspace ~concurrency ~update_share =
  let lm = Lockmgr.create (E.create ()) in
  let keys = names "k" keyspace and txns = names "t" 4096 in
  let rng = Rng.create ~seed:2 in
  let holders = Queue.create () in
  let n = 100_000 in
  ns_per_call (fun () ->
      for i = 1 to n do
        let txn = txns.(i land 4095) in
        let mode = if Rng.float rng 1.0 < update_share then Lockmgr.Exclusive else Lockmgr.Shared in
        let granted = ref false in
        Lockmgr.acquire lm ~txn ~key:keys.(Rng.int rng keyspace) mode ~granted:(fun () ->
            granted := true;
            Queue.push txn holders);
        if (Queue.length holders >= concurrency || not !granted) && not (Queue.is_empty holders)
        then Lockmgr.release_all lm ~txn:(Queue.pop holders)
      done;
      Queue.iter (fun txn -> Lockmgr.release_all lm ~txn) holders;
      Queue.clear holders;
      n)

(* One resource manager: a transaction's put (or get), prepare and commit
   on the shared-log path, uncontended. *)
let kvstore ~keyspace ~update_share =
  let e = E.create () in
  let wal = Wal.Log.create e ~node:"n" () in
  let kv = Kvstore.create e ~name:"n.rm" ~wal () in
  let keys = names "k" keyspace and txns = names "t" 4096 in
  let rng = Rng.create ~seed:3 in
  let n = 50_000 in
  ns_per_call
    ~reset:(fun () ->
      Wal.Log.flush wal ignore;
      E.run e;
      ignore (Wal.Log.compact wal ~keep:(fun _ -> false)))
    (fun () ->
      for i = 1 to n do
        let txn = txns.(i land 4095) and key = keys.(Rng.int rng keyspace) in
        if Rng.float rng 1.0 < update_share then
          Kvstore.put_async kv ~txn ~key ~value:txn ~granted:ignore
        else Kvstore.get_async kv ~txn ~key ~granted:ignore;
        Kvstore.prepare kv ~txn ~force:false ignore;
        Kvstore.commit kv ~txn ~force:false ignore
      done;
      3 * n)

let histogram () =
  let rng = Rng.create ~seed:4 in
  let samples = Array.init 4096 (fun _ -> Rng.exponential rng ~mean:5.0) in
  let h = Obs.Histogram.create () in
  let n = 500_000 in
  ns_per_call (fun () ->
      for i = 1 to n do
        Obs.Histogram.record h samples.(i land 4095)
      done;
      n)

(* A causal graph recording a 2PC's worth of events per transaction
   across the workload's members. *)
let causal ~nodes =
  let nodes = Array.of_list nodes in
  let txns = names "t" 1000 in
  let per_txn = 4 * Array.length nodes in
  ns_per_call (fun () ->
      let c = Obs.Causal.create ~mode:Obs.Causal.Graph () in
      Array.iteri
        (fun t txn ->
          for k = 0 to per_txn - 1 do
            Obs.Causal.record c ~txn ~who:nodes.(k mod Array.length nodes)
              ~time:(float_of_int (t + k)) ~seg:Obs.Causal.Msg_wait "deliver"
          done)
        txns;
      Array.length txns * per_txn)

let replay (wl : Spec.t) (counts : Sim.counts) =
  let timed = Sim.timed in
  let nodes = Faultlab.tree_nodes wl.tree in
  let mix = wl.mix in
  let update_share = mix.update_prob /. (mix.update_prob +. mix.read_prob) in
  let concurrency = mix.concurrency in
  let span = float_of_int mix.txns *. mix.base_interarrival /. float_of_int concurrency in
  let ns_per_event, s1 =
    timed "replay simkernel" (fun () -> kernel ~depth:counts.max_depth ~span ~concurrency)
  in
  let ns_per_flow, s2 = timed "replay netsim" (fun () -> netsim ~nodes ~concurrency) in
  let ns_per_force, s3 =
    timed "replay wal" (fun () -> wal ~group:wl.config.group_commit ~concurrency)
  in
  let ns_per_acquire, s4 =
    timed "replay lockmgr" (fun () ->
        lockmgr ~keyspace:mix.keyspace ~concurrency ~update_share)
  in
  let ns_per_op, s5 =
    timed "replay kvstore" (fun () -> kvstore ~keyspace:mix.keyspace ~update_share)
  in
  let histogram_ns_per_record, s6 = timed "replay obs.histogram" histogram in
  let causal_ns_per_record, s7 = timed "replay obs.causal" (fun () -> causal ~nodes) in
  ( {
      ns_per_event;
      ns_per_flow;
      ns_per_force;
      ns_per_acquire;
      ns_per_op;
      histogram_ns_per_record;
      causal_ns_per_record;
    },
    [ s1; s2; s3; s4; s5; s6; s7 ] )
