(* The steady-state commit path pays only for what its run reads.  A
   counter-only trace must count exactly what a full trace counts; the
   allocation-free membership predicates must agree with the list-building
   views they replace at every step of a faulty run; fixed counter-only
   PA and BFT worlds must stay under allocation ceilings; and the same
   worlds, BFT's also after a restart, under retained-heap ceilings. *)

open Tpc.Types
module E = Simkernel.Engine
module M = Tpc.Mixer
module P = Tpc.Participant
module T = Tpc.Trace

let bft =
  match Tpc.Protocol.of_string "bft" with
  | Some p -> p
  | None -> failwith "the bft protocol is not registered"

let protocols =
  [ ("basic", Basic); ("pa", Presumed_abort); ("pn", Presumed_nothing); ("bft", bft) ]

let opt_sets =
  [ []; [ `Read_only ]; [ `Last_agent ]; [ `Long_locks ];
    [ `Read_only; `Last_agent; `Long_locks ] ]

let counters tr = [ T.flows tr; T.data_flows tr; T.tm_writes tr; T.tm_forced_writes tr ]

let config protocol opts ~events =
  default_config |> with_protocol protocol |> with_opts opts
  |> with_trace_events events

(* One read-only member and one long-locks member, so each switch has
   something to act on in a single commit. *)
let commit_tree =
  Workload.flat ~n:5
    ~decorate:(fun i p ->
      match i with
      | 0 -> { p with p_updated = false }
      | 1 -> { p with p_long_locks = true }
      | _ -> p)
    ()

let test_counter_only_counts protocol () =
  List.iter
    (fun opts ->
      let label what =
        Printf.sprintf "%s [%s]" what
          (String.concat "+" (List.map opt_to_string opts))
      in
      let commit events =
        let config = config protocol opts ~events in
        let _, w = Tpc.Run.commit_tree ~config commit_tree in
        counters w.Tpc.Run.trace
      in
      Alcotest.(check (list int)) (label "commit_tree") (commit true) (commit false);
      let mix events =
        let cfg = { M.default_cfg with M.txns = 200; concurrency = 4; seed = 3 } in
        let config = config protocol opts ~events in
        let _, w = M.run ~config cfg (Workload.mixer_tree ~opts ()) in
        counters w.Tpc.Run.trace
      in
      Alcotest.(check (list int)) (label "mixer") (mix true) (mix false))
    opt_sets

(* Step seeded chaos worlds one event at a time and compare every O(1)
   predicate with the list view it stands for, for every transaction at
   every member.  Half the worlds delegate to a last agent, so delegators
   awaiting their agent are covered too; the [seen] tally checks that each
   predicate was actually true somewhere. *)
let test_predicates_agree () =
  let seen = Array.make 4 0 in
  let txns = 40 in
  let agree idx name expected actual =
    if actual <> expected then
      Alcotest.failf "%s disagrees with its list view (list says %b)" name expected;
    if actual then seen.(idx) <- seen.(idx) + 1
  in
  let world (opts, seed) =
    let tree = Workload.mixer_tree ~n:4 ~opts () in
    let config =
      default_config |> with_opts opts |> with_trace_events false
      |> with_retries ~interval:25.0 ~max:8
      |> with_prepare_retries 2 |> with_retry_backoff 2.0
    in
    let plan =
      Faultlab.gen ~seed ~nodes:(Faultlab.tree_nodes tree)
        { Faultlab.default_gen with horizon = 300.0 }
    in
    let check (w : Tpc.Run.world) =
      List.iter
        (fun (_, (n : Tpc.Run.node)) ->
          let p = n.Tpc.Run.participant and kv = n.Tpc.Run.kv in
          let locks = Kvstore.locks kv in
          let unresolved = P.unresolved_txns p
          and in_doubt = P.in_doubt_txns p
          and kv_in_doubt = Kvstore.in_doubt kv
          and holding = Lockmgr.holding_txns locks in
          for i = 1 to txns do
            let txn = "mx-" ^ string_of_int i in
            agree 0 "Participant.is_unresolved"
              (List.mem_assoc txn unresolved) (P.is_unresolved p ~txn);
            agree 1 "Participant.is_in_doubt" (List.mem txn in_doubt)
              (P.is_in_doubt p ~txn);
            agree 2 "Kvstore.is_in_doubt" (List.mem txn kv_in_doubt)
              (Kvstore.is_in_doubt kv ~txn);
            agree 3 "Lockmgr.holds_any" (List.mem txn holding)
              (Lockmgr.holds_any locks ~txn)
          done)
        w.Tpc.Run.nodes
    in
    let inject w =
      Faultlab.inject plan w;
      check w;
      while E.step w.Tpc.Run.engine do
        check w
      done
    in
    ignore
      (M.run_full ~config ~inject
         { M.default_cfg with M.txns; concurrency = 6; seed }
         tree)
  in
  List.iter
    (fun seed ->
      world ([], seed);
      world ([ `Last_agent ], seed))
    [ 1; 2; 3; 4; 5; 6 ];
  Array.iteri
    (fun i n ->
      if n = 0 then Alcotest.failf "predicate %d was never true: vacuous check" i)
    seen

(* Allocation gate: minor-heap words per committed transaction of a fixed
   world (the ledger's pa-wide, bft-wide and pa-observed shape, 500
   transactions), with the fault watchdog armed by an empty plan as in the
   ledger.  [run_full] includes the end-of-run aggregation and audit, so
   they are gated too.  The count is deterministic for one compiler
   version; on OCaml 5.1, the version CI pins, counter-only PA allocates
   1,406.8 words and BFT (f=1) 1,509.6; PA with trace events on and the
   causal graph recording 1,408.5, and with trace events on and the graph
   off (the path of [tpc_sim run] and [sweep --events]) 1,407.5 (1,407.6,
   1,510.4, 1,409.2 and 1,408.3 under TPC_AGENDA=heap).  With
   [Hashtbl.Make] behind the per-transaction tables, the reap watchdog
   firing after every commit and leave-out's bookkeeping run without
   leave-out, the four read 1,612.0, 1,713.9, 1,613.9 and 1,612.9.  Each
   ceiling sits about 5% above its heap figure, so an allocation
   regression on the commit path - PA's or the certificate path's - in
   the audit or in the observability hooks fails here before it reaches
   the benchmark.
   The event log's and the write-ahead logs' full chunks are allocated on
   the major heap, so this counts their per-row cost, not their storage;
   the footprint gate below prices the storage. *)
let alloc_ceilings =
  [
    ("pa", Presumed_abort, false, false, 1480.0);
    ("bft", bft, false, false, 1590.0);
    ("pa with trace and causal graph", Presumed_abort, true, true, 1480.0);
    ("pa with trace, graph off", Presumed_abort, true, false, 1480.0);
  ]

let test_alloc_ceiling (protocol, trace, graph, ceiling) () =
  (* bft runs at the default f=1, as in the ledger *)
  let config =
    default_config |> with_protocol protocol |> with_trace_events trace
  in
  let causal = if graph then Obs.Causal.Graph else Obs.Causal.Off in
  let cfg =
    { M.default_cfg with M.txns = 500; concurrency = 16; keyspace = 100_000; seed = 1 }
  in
  let tree = Workload.flat ~n:8 () in
  let before = Gc.minor_words () in
  let agg, _, _ =
    M.run_full ~config ~causal ~inject:(Faultlab.inject []) cfg tree
  in
  let committed = agg.Tpc.Metrics.Agg.committed in
  let words = (Gc.minor_words () -. before) /. float_of_int committed in
  Printf.printf "words per committed transaction: %.1f (ceiling %.0f)\n" words
    ceiling;
  Alcotest.(check int) "every transaction committed" 500 committed;
  if words > ceiling then
    Alcotest.failf "%.1f words per committed transaction exceeds the ceiling %.0f"
      words ceiling

(* Footprint gate: live-heap words per committed transaction that the
   counter-only PA and BFT worlds of the allocation gate still hold after
   a full major collection, with the world and its summaries reachable -
   what the ledger's [retained_bytes_per_txn] measures, on a smaller
   world.  The write-ahead logs' rows, the event log, the name tables and
   the stores are most of it; the driver's per-transaction records are
   not, since the mixer lets go of them once the run is over, and neither
   are BFT's certificates, which a member drops when it ends the
   transaction.  Deterministic for one compiler version: on OCaml 5.1, PA
   retains 272.2 words and BFT (f=1) 326.6 (272.6 and 327.0 under
   TPC_AGENDA=heap), and each ceiling sits about 5% above the heap
   figure as it stood at 273.4 and 327.3.  The event arena is a small part: a cancelled timer frees its
   slot at once, so the world's arena holds 256 slots; when each one held
   its slot until its time, the arena took 4,096 and PA retained 341.6.
   A BFT member that kept every certificate until it crashed retained
   458.6.  The last case crashes every member of the quiesced BFT world,
   restarts them all and runs the world to quiescence again: restart
   re-validates every durable certificate but keeps only those of
   transactions the member has not ended, so it retains 351.4 words
   (351.7 under TPC_AGENDA=heap); a member that kept every certificate
   it restored retained 691.8 (699.8) with the larger arena. *)
let retained_ceilings =
  [ ("pa", Presumed_abort, false, 288.0); ("bft", bft, false, 344.0);
    ("bft, every member restarted", bft, true, 370.0) ]

let test_retained_ceiling (protocol, restart, retained_ceiling) () =
  let config = default_config |> with_protocol protocol |> with_trace_events false in
  let cfg =
    { M.default_cfg with M.txns = 500; concurrency = 16; keyspace = 100_000; seed = 1 }
  in
  let tree = Workload.flat ~n:8 () in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let agg, w, summaries =
    M.run_full ~config ~inject:(Faultlab.inject []) cfg tree
  in
  if restart then begin
    let members =
      List.map (fun (_, (n : Tpc.Run.node)) -> n.Tpc.Run.participant) w.Tpc.Run.nodes
    in
    List.iter P.force_crash members;
    List.iter P.force_restart members;
    E.run w.Tpc.Run.engine
  end;
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity (w, summaries));
  let committed = agg.Tpc.Metrics.Agg.committed in
  let words = float_of_int (live1 - live0) /. float_of_int committed in
  Printf.printf "live words per committed transaction: %.1f (ceiling %.0f)\n" words
    retained_ceiling;
  Alcotest.(check int) "every transaction committed" 500 committed;
  if words > retained_ceiling then
    Alcotest.failf "%.1f live words per committed transaction exceed the ceiling %.0f"
      words retained_ceiling

(* The agenda holds what is due, not the whole run: arrivals come from a
   stream whose next element alone is on the agenda, and a cancelled timer
   leaves the agenda at once, so a long run's event arena is sized by the
   events live at once.  Pre-scheduled, 10,000 arrivals took a 16,384-slot
   arena; streamed, with cancelled timers left until their time, 4,096. *)
let arena_ceiling = 256

let test_arena_follows_concurrency () =
  let config = default_config |> with_protocol Presumed_abort |> with_trace_events false in
  let cfg =
    { M.default_cfg with M.txns = 10_000; concurrency = 16; keyspace = 100_000; seed = 1 }
  in
  let agg, w, _ =
    M.run_full ~config ~inject:(Faultlab.inject []) cfg (Workload.flat ~n:8 ())
  in
  let slots = E.arena_capacity w.Tpc.Run.engine in
  Printf.printf "arena capacity: %d slots (ceiling %d)\n" slots arena_ceiling;
  Alcotest.(check int) "every transaction committed" 10_000 agg.Tpc.Metrics.Agg.committed;
  if slots > arena_ceiling then
    Alcotest.failf "a 10,000-transaction world took %d arena slots, past %d" slots
      arena_ceiling

let suite =
  List.map
    (fun (name, p) ->
      Alcotest.test_case ("counter-only counts match full trace: " ^ name) `Quick
        (test_counter_only_counts p))
    protocols
  @ [
      Alcotest.test_case "O(1) predicates agree with list views" `Quick
        test_predicates_agree;
    ]
  @ List.map
      (fun (name, protocol, trace, graph, ceiling) ->
        Alcotest.test_case ("allocation ceiling per transaction: " ^ name) `Quick
          (test_alloc_ceiling (protocol, trace, graph, ceiling)))
      alloc_ceilings
  @ List.map
      (fun (name, protocol, restart, ceiling) ->
        Alcotest.test_case ("retained heap ceiling per transaction: " ^ name) `Quick
          (test_retained_ceiling (protocol, restart, ceiling)))
      retained_ceilings
  @ [
      Alcotest.test_case "event arena follows concurrency, not run length" `Quick
        test_arena_follows_concurrency;
    ]
