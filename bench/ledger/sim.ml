(* Running one repetition of a workload: every world of the batch built,
   run and audited through the public layer APIs, with the exact counts,
   host timings and (in a traced repetition) per-step timings read from
   outside. *)

module E = Simkernel.Engine
module H = Obs.Histogram
module Run = Tpc.Run

let now_ns = Simkernel.Monotonic.now_ns
let span_s a b = Int64.to_float (Int64.sub b a) /. 1e9

(* [f ()] and the span it took, named for the Perfetto file *)
let timed name f =
  let t0 = now_ns () in
  let v = f () in
  (v, (name, t0, now_ns ()))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host-independent counts of one repetition: they repeat exactly for a
   given workload and seed, on any machine. *)
type counts = {
  worlds : int;
  txns : int;
  committed : int;
  unresolved : int;  (** transactions whose outcome never reached the mixer *)
  violations : int;  (** sum of the fault-aware audit's violation counters *)
  violated : int list;  (** cell seeds whose audit failed, ascending *)
  events : int;
  scheduled : int;
  cancelled : int;
  max_depth : int;
  flows : int;
  tm_writes : int;
  tm_forced : int;
  force_ios : int;
  deliveries : int;
  wal_writes : int;
  wal_forced : int;
  wal_ios : int;
  wal_records : int;  (** records still held by the logs at the end *)
  acquisitions : int;
  lock_waits : int;
  lock_wait_time : float;
  kv_ops : int;
  commit_samples : int;
  commit_p50 : float;
  commit_p99 : float;
  hold_samples : int;
  hold_p99 : float;
  alloc_words : float;  (** minor-heap words allocated by the timed calls *)
  agg_digest : string;  (** digest of every world's [Agg.to_json], in order *)
}

(* Host timings of one repetition, in seconds. *)
type timing = {
  wall : float;  (** the timed calls: [Mixer.run_full], plus the chaos audit *)
  setup : float;  (** [Mixer.run_full] call to its [inject] callback *)
  loop : float;  (** the engine's own host time inside its event loop *)
  gc_minor : int;  (** collections and major-heap words over the whole repetition *)
  gc_major : int;
  major_words : float;
}

(* What a traced repetition measures besides the counts. *)
type trace = {
  steps : H.t;  (** ns per engine step *)
  deliver : H.t;  (** ns per step that delivered a message *)
  other : H.t;  (** ns per other step *)
  mutable inject_s : float;
  mutable post_s : float;
  mutable mixer_audit_s : float;
  mutable faultlab_audit_s : float;
  mutable spans : (string * int64 * int64) list;  (** name, start, stop *)
}

let new_trace () =
  {
    steps = H.create ();
    deliver = H.create ();
    other = H.create ();
    inject_s = 0.0;
    post_s = 0.0;
    mixer_audit_s = 0.0;
    faultlab_audit_s = 0.0;
    spans = [];
  }

let span tr name a b = tr.spans <- (name, a, b) :: tr.spans

(* Drive the event loop one [Engine.step] at a time, timing each step and
   classifying it as a delivery when the network's received total rose. *)
let drive tr (w : Run.world) =
  let names = List.map fst w.Run.nodes in
  let received () =
    List.fold_left (fun acc n -> acc + Tpc.Net.received_by w.Run.net n) 0 names
  in
  let t_loop = now_ns () in
  let seen = ref (received ()) in
  let rec loop () =
    let t = now_ns () in
    if E.step w.Run.engine then begin
      let dt = Int64.to_float (Int64.sub (now_ns ()) t) in
      let r = received () in
      H.record tr.steps dt;
      H.record (if r > !seen then tr.deliver else tr.other) dt;
      seen := r;
      loop ()
    end
  in
  loop ();
  span tr "loop" t_loop (now_ns ())

let violation_count v =
  List.fold_left
    (fun acc (k, c) -> if k = "unresolved" || k = "in_doubt" then acc else acc + c)
    0 (Faultlab.verdict_fields v)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Everything one finished world contributes to the counts, plus its
   commit-latency and lock-hold histograms. *)
let world_counts ~cell (agg : Tpc.Metrics.Agg.t) (w : Run.world) summaries
    (verdict : Faultlab.verdict option) =
  let st = E.stats w.Run.engine in
  let nodes = w.Run.nodes in
  let wals = Run.all_wals w in
  let wal f = sum (fun l -> f (Wal.Log.stats l)) wals in
  let members = List.length nodes in
  let items = sum (fun (s : Tpc.Mixer.txn_summary) -> List.length s.ts_items) summaries in
  let aborted_items =
    sum
      (fun (s : Tpc.Mixer.txn_summary) ->
        if s.ts_outcome = Some Tpc.Types.Aborted then List.length s.ts_items else 0)
      summaries
  in
  let find = Obs.Registry.find_histogram w.Run.registry in
  ( {
        worlds = 1;
        txns = agg.txns;
        committed = agg.committed;
        unresolved =
          sum (fun (s : Tpc.Mixer.txn_summary) -> if s.ts_completed = None then 1 else 0) summaries;
        violations =
          (match verdict with
          | Some v -> violation_count v
          | None -> agg.consistency_violations);
        violated =
          (match verdict with Some v when not (Faultlab.ok v) -> [ cell ] | _ -> []);
        events = st.events_processed;
        scheduled = st.events_scheduled;
        cancelled = st.events_cancelled;
        max_depth = st.max_queue_depth;
        flows = Tpc.Trace.flows w.Run.trace;
        tm_writes = Tpc.Trace.tm_writes w.Run.trace;
        tm_forced = Tpc.Trace.tm_forced_writes w.Run.trace;
        force_ios = agg.force_ios;
        deliveries = sum (fun (n, _) -> Tpc.Net.received_by w.Run.net n) nodes;
        wal_writes = wal (fun s -> s.Wal.Log.writes);
        wal_forced = wal (fun s -> s.Wal.Log.forced_writes);
        wal_ios = wal (fun s -> s.Wal.Log.force_ios);
        wal_records = sum (fun l -> List.length (Wal.Log.all_records l)) wals;
        acquisitions =
          sum (fun (_, (n : Run.node)) -> (Lockmgr.stats (Kvstore.locks n.kv)).acquisitions) nodes;
        lock_waits = agg.lock_waits;
        lock_wait_time = agg.lock_wait_mean *. float_of_int agg.txns;
        (* derived, not counted: Kvstore keeps no operation counter.  Each
           planned item is one put/get, each committed member one prepare
           and one commit, each item of a lock-timeout abort one abort *)
        kv_ops = items + (2 * members * agg.committed) + aborted_items;
        commit_samples = 0;
        commit_p50 = 0.0;
        commit_p99 = 0.0;
        hold_samples = 0;
        hold_p99 = 0.0;
        alloc_words = 0.0;
        agg_digest = Digest.string (Tpc.Metrics.Agg.to_json agg);
      },
    find "mixer/commit_latency",
    find "mixer/lock_hold" )

let zero =
  {
    worlds = 0; txns = 0; committed = 0; unresolved = 0;
    violations = 0; violated = []; events = 0; scheduled = 0; cancelled = 0;
    max_depth = 0; flows = 0; tm_writes = 0; tm_forced = 0; force_ios = 0;
    deliveries = 0; wal_writes = 0; wal_forced = 0; wal_ios = 0;
    wal_records = 0; acquisitions = 0; lock_waits = 0; lock_wait_time = 0.0;
    kv_ops = 0; commit_samples = 0; commit_p50 = 0.0; commit_p99 = 0.0;
    hold_samples = 0; hold_p99 = 0.0; alloc_words = 0.0; agg_digest = "";
  }

let add a b =
  {
    worlds = a.worlds + b.worlds;
    txns = a.txns + b.txns;
    committed = a.committed + b.committed;
    unresolved = a.unresolved + b.unresolved;
    violations = a.violations + b.violations;
    violated = a.violated @ b.violated;
    events = a.events + b.events;
    scheduled = a.scheduled + b.scheduled;
    cancelled = a.cancelled + b.cancelled;
    max_depth = max a.max_depth b.max_depth;
    flows = a.flows + b.flows;
    tm_writes = a.tm_writes + b.tm_writes;
    tm_forced = a.tm_forced + b.tm_forced;
    force_ios = a.force_ios + b.force_ios;
    deliveries = a.deliveries + b.deliveries;
    wal_writes = a.wal_writes + b.wal_writes;
    wal_forced = a.wal_forced + b.wal_forced;
    wal_ios = a.wal_ios + b.wal_ios;
    wal_records = a.wal_records + b.wal_records;
    acquisitions = a.acquisitions + b.acquisitions;
    lock_waits = a.lock_waits + b.lock_waits;
    lock_wait_time = a.lock_wait_time +. b.lock_wait_time;
    kv_ops = a.kv_ops + b.kv_ops;
    commit_samples = 0; commit_p50 = 0.0; commit_p99 = 0.0;
    hold_samples = 0; hold_p99 = 0.0;
    alloc_words = a.alloc_words +. b.alloc_words;
    agg_digest = Digest.string (a.agg_digest ^ b.agg_digest);
  }

type result = {
  counts : counts;
  timing : timing;
  retained : float;
      (** live-heap bytes per committed transaction that one finished
          world holds through a full major collection *)
}

let live_words () = (Gc.stat ()).Gc.live_words

(* Live-heap growth of one finished world kept reachable through a full
   major collection, in bytes per committed transaction. *)
let retained_of ~live0 committed keep =
  Gc.full_major ();
  let live1 = live_words () in
  ignore (Sys.opaque_identity keep);
  float_of_int ((live1 - live0) * (Sys.word_size / 8))
  /. float_of_int (max 1 committed)

(* A chaos world is small: its footprint is measured on the first cell,
   run on a fresh engine so the figure covers everything it holds. *)
let chaos_retained (wl : Spec.t) =
  let plan = Spec.plan_for wl ~cell:1 in
  Gc.compact ();
  let live0 = live_words () in
  let agg, w, summaries =
    Tpc.Mixer.run_full ~config:wl.config ~causal:wl.causal
      ~inject:(Faultlab.inject plan) { wl.mix with seed = 1 } wl.tree
  in
  retained_of ~live0 agg.Tpc.Metrics.Agg.committed (w, summaries)

(* One repetition, after a [Gc.compact].  [trace] switches to the traced
   variant: the bench drives the event loop itself inside [inject] and
   times the phases around each call.  [gate] (default [true]) runs the
   fault-aware audit and measures the retained heap on a batch workload;
   later repetitions of a run skip both, since their counts must equal the
   first's anyway (the mixer's own audit still runs inside every call).
   Counts are summed in canonical cell order, so they do not depend on the
   order the cells ran in. *)
let rep ?trace ?(gate = true) (wl : Spec.t) ~seed =
  let cells = Spec.cell_seeds wl ~seed in
  let chaos = match wl.shape with Spec.Cells _ -> true | Spec.Batch -> false in
  let scratch = if chaos then Some (E.create ()) else None in
  let parts = Hashtbl.create (List.length cells) in
  let wall = ref 0.0 and setup = ref 0.0 and loop = ref 0.0 in
  let alloc = ref 0.0 and retained = ref 0.0 in
  let commit_h = H.create () and hold_h = H.create () in
  Gc.compact ();
  let live0 = live_words () in
  let gc0 = Gc.quick_stat () in
  List.iter
    (fun cell ->
      let plan = Spec.plan_for wl ~cell in
      let t_inject = ref 0L and t_ran = ref 0L in
      let inject w =
        t_inject := now_ns ();
        Faultlab.inject plan w;
        match trace with
        | None -> ()
        | Some tr ->
            let t = now_ns () in
            tr.inject_s <- tr.inject_s +. span_s !t_inject t;
            span tr "inject" !t_inject t;
            drive tr w;
            t_ran := now_ns ()
      in
      let mix = { wl.mix with seed = cell } in
      let minor0 = Gc.minor_words () in
      let t0 = now_ns () in
      let agg, w, summaries =
        Tpc.Mixer.run_full ~config:wl.config ~causal:wl.causal ?scratch ~inject
          mix wl.tree
      in
      let t1 = now_ns () in
      let minor1 = Gc.minor_words () in
      (* chaos times its audit as part of each cell; the batch
         workloads run the same audit as an untimed gate *)
      let verdict =
        if chaos || gate then Some (Faultlab.audit w summaries) else None
      in
      let t2 = now_ns () in
      let minor2 = Gc.minor_words () in
      alloc := !alloc +. (if chaos then minor2 else minor1) -. minor0;
      wall := !wall +. span_s t0 (if chaos then t2 else t1);
      setup := !setup +. span_s t0 !t_inject;
      loop := !loop +. (E.stats w.Run.engine).wall_seconds;
      Option.iter
        (fun tr ->
          span tr "setup" t0 !t_inject;
          span tr "post" !t_ran t1;
          span tr "audit.faultlab" t1 t2;
          tr.post_s <- tr.post_s +. span_s !t_ran t1;
          tr.faultlab_audit_s <- tr.faultlab_audit_s +. span_s t1 t2;
          let a = now_ns () in
          ignore (Tpc.Mixer.Audit.breakdown w summaries);
          let b = now_ns () in
          span tr "audit.mixer" a b;
          tr.mixer_audit_s <- tr.mixer_audit_s +. span_s a b;
          span tr (Printf.sprintf "world %d" cell) t0 b)
        trace;
      let wc, ch, hh = world_counts ~cell agg w summaries verdict in
      Option.iter (fun h -> H.merge ~into:commit_h h) ch;
      Option.iter (fun h -> H.merge ~into:hold_h h) hh;
      Hashtbl.replace parts cell wc;
      if gate && not chaos then
        retained := retained_of ~live0 agg.committed (w, summaries))
    cells;
  let gc1 = Gc.quick_stat () in
  if gate && chaos then retained := chaos_retained wl;
  let counts =
    List.fold_left
      (fun acc cell -> add acc (Hashtbl.find parts cell))
      zero (List.sort compare cells)
  in
  let q h p = if H.count h = 0 then 0.0 else H.quantile h p in
  {
    counts =
      {
        counts with
        alloc_words = !alloc;
        commit_samples = H.count commit_h;
        commit_p50 = q commit_h 50.0;
        commit_p99 = q commit_h 99.0;
        hold_samples = H.count hold_h;
        hold_p99 = q hold_h 99.0;
      };
    timing =
      {
        wall = !wall;
        setup = !setup;
        loop = !loop;
        gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
        gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
        major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
      };
    retained = !retained;
  }
