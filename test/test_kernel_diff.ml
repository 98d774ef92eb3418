(* Differential kernel tests: the timing-wheel agenda and the binary-heap
   oracle must be observationally identical.  Random op schedules (near and
   far horizons, same-time bursts, interleaved cancels, run_until horizons,
   flat and closure events, streams and resets) drive one engine of each
   kind; fire order, [step]'s answers, clocks, stats counters and arena
   capacities must match exactly, and a stream must match its elements
   scheduled up front.  Plus the Negative_delay / cancel-after-fire edge
   cases and the Engine.reset reuse guarantees. *)

module E = Simkernel.Engine
module Q = QCheck

let qtest = QCheck_alcotest.to_alcotest
let check = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- random op schedules --------------------------------------------- *)

type op =
  | Sched of float  (* closure event after a near-future delay *)
  | Sched_far of float  (* beyond the wheel's direct horizon *)
  | Sched_flat of float  (* flat event, registered kind *)
  | Burst of int * float  (* same-instant FIFO group *)
  | Cancel of int  (* cancel the i-th handle issued so far (mod count) *)
  | Run_until of float  (* advance by a horizon *)
  | Step  (* fire exactly one event *)
  | Stream of float * float list
      (* a stream: its first element's offset from now, then the gaps *)
  | Reset

let op_print = function
  | Sched d -> Printf.sprintf "sched %g" d
  | Sched_far d -> Printf.sprintf "far %g" d
  | Sched_flat d -> Printf.sprintf "flat %g" d
  | Burst (k, d) -> Printf.sprintf "burst %d@%g" k d
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Run_until h -> Printf.sprintf "run_until +%g" h
  | Step -> "step"
  | Stream (start, gaps) ->
      Printf.sprintf "stream +%g [%s]" start
        (String.concat "," (List.map (Printf.sprintf "%g") gaps))
  | Reset -> "reset"

(* a stream's gaps: often 0, so its elements share a time *)
let gen_gap =
  Q.Gen.(
    frequency
      [
        (3, return 0.0);
        (4, map (fun d -> float_of_int d /. 4.0) (int_range 1 40));
        (1, map float_of_int (int_range 2000 9000));
      ])

let gen_op =
  Q.Gen.(
    frequency
      [
        (4, map (fun d -> Sched (float_of_int d /. 8.0)) (int_range 0 160));
        (1, map (fun d -> Sched_far (float_of_int d)) (int_range 2000 60_000));
        (3, map (fun d -> Sched_flat (float_of_int d /. 4.0)) (int_range 0 64));
        ( 2,
          map2
            (fun k d -> Burst (k, float_of_int d /. 2.0))
            (int_range 2 6) (int_range 0 30) );
        (2, map (fun i -> Cancel i) (int_range 0 1000));
        (1, map (fun h -> Run_until (float_of_int h /. 2.0)) (int_range 0 100));
        (1, return Step);
        ( 2,
          map2
            (fun start gaps -> Stream (start, gaps))
            gen_gap
            (list_size (int_range 0 40) gen_gap) );
        (1, return Reset);
      ])

let gen_ops =
  Q.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    Q.Gen.(list_size (int_range 1 200) gen_op)

(* Drive one engine through [ops] and return everything observable: the
   exact fire log (event id @ clock, and each [Step]'s answer), [pending]
   after every op, the final clock and the stats counters, plus the
   arena's capacity.  A [Stream] while the last one still has an element
   to fire is skipped; [pre]
   schedules a stream's elements with [schedule_flat_at] up front instead
   of handing them to [Engine.stream].  The stream's handler answers its
   elements as a mixer arrival does: a flat timer at delay 0 (a zero lock
   timeout), a closure at the same instant, or a later flat event. *)
let apply ?(pre = false) agenda ops =
  let e = E.create ~agenda () in
  let log = Buffer.create 1024 in
  let n = ref 0 in
  let handles = ref [] in
  (* newest first; a reset keeps them, so stale handles get cancelled *)
  let left = ref 0 in  (* elements of the last stream still to fire *)
  let fired what id =
    Buffer.add_string log (Printf.sprintf "%s%d@%h;" what id (E.now e))
  in
  (* a reset forgets the kinds, so each life registers its own *)
  let register () =
    let flat = E.register_kind e ~name:"diff.flat" (fun a0 _ _ _ -> fired "f" a0) in
    let element =
      E.register_kind e ~name:"diff.stream" (fun i _ _ _ ->
          fired "s" i;
          decr left;
          match i mod 3 with
          | 0 -> ignore (E.schedule_flat e ~delay:0.0 ~kind:flat ~a0:(-i) ~a1:0 ~a2:0)
          | 1 -> ignore (E.schedule_at e ~time:(E.now e) (fun () -> fired "c" i))
          | _ ->
              ignore
                (E.schedule_flat e ~delay:(float_of_int i /. 8.0) ~kind:flat
                   ~a0:(1000 + i) ~a1:0 ~a2:0))
    in
    (flat, element)
  in
  let kinds = ref (register ()) in
  let sched_closure delay =
    let id = !n in
    incr n;
    handles := E.schedule e ~delay (fun () -> fired "c" id) :: !handles
  in
  List.iter
    (fun op ->
      (match op with
      | Sched d | Sched_far d -> sched_closure d
      | Sched_flat d ->
          let id = !n in
          incr n;
          handles :=
            E.schedule_flat e ~delay:d ~kind:(fst !kinds) ~a0:id ~a1:0 ~a2:0
            :: !handles
      | Burst (k, d) ->
          for _ = 1 to k do
            sched_closure d
          done
      | Cancel i -> (
          match !handles with
          | [] -> ()
          | hs -> E.cancel e (List.nth hs (i mod List.length hs)))
      | Run_until h -> E.run_until e (E.now e +. h)
      | Step -> Buffer.add_string log (if E.step e then "step;" else "idle;")
      | Stream (start, gaps) ->
          if !left = 0 then begin
            let times = Array.make (List.length gaps + 1) (E.now e +. start) in
            List.iteri (fun i gap -> times.(i + 1) <- times.(i) +. gap) gaps;
            left := Array.length times;
            let kind = snd !kinds in
            if pre then
              Array.iteri
                (fun i time ->
                  ignore (E.schedule_flat_at e ~time ~kind ~a0:i ~a1:0 ~a2:0))
                times
            else E.stream e ~kind times
          end
      | Reset ->
          E.reset e;
          left := 0;
          kinds := register ());
      Buffer.add_string log (Printf.sprintf "|%d " (E.pending e)))
    ops;
  E.run e;
  let s = E.stats e in
  ( ( Buffer.contents log,
      E.now e,
      ( s.E.events_processed,
        s.E.events_scheduled,
        s.E.events_cancelled,
        s.E.max_queue_depth ),
      E.pending e ),
    E.arena_capacity e )

let differ what (al, at, astats, ap) (bl, bt, bstats, bp) =
  if al <> bl then Q.Test.fail_reportf "%s: fire logs differ:\n%s\nvs\n%s" what al bl;
  if at <> bt then Q.Test.fail_reportf "%s: clocks differ: %h vs %h" what at bt;
  (if astats <> bstats then
     let a1, a2, a3, a4 = astats and b1, b2, b3, b4 = bstats in
     Q.Test.fail_reportf "%s: stats differ: (%d,%d,%d,%d) vs (%d,%d,%d,%d)" what
       a1 a2 a3 a4 b1 b2 b3 b4);
  if ap <> bp then Q.Test.fail_reportf "%s: pending differ: %d vs %d" what ap bp

(* Both agendas free a cancelled slot at once, so they hold the same
   slots and grow the arena alike. *)
let prop_wheel_matches_heap =
  Q.Test.make ~count:300 ~name:"wheel and heap agendas are indistinguishable"
    gen_ops (fun ops ->
      let wheel, wheel_cap = apply `Wheel ops and heap, heap_cap = apply `Heap ops in
      differ "wheel vs heap" wheel heap;
      if wheel_cap <> heap_cap then
        Q.Test.fail_reportf "wheel vs heap: arenas differ: %d vs %d slots" wheel_cap
          heap_cap;
      true)

(* A stream must be indistinguishable from scheduling its elements with
   [schedule_flat_at] up front, on either agenda, and its arena no
   larger. *)
let prop_stream_matches_prescheduling =
  Q.Test.make ~count:300
    ~name:"a stream fires as its elements scheduled up front would"
    gen_ops (fun ops ->
      List.iter
        (fun (agenda, name) ->
          let pre, pre_cap = apply ~pre:true agenda ops in
          let streamed, cap = apply agenda ops in
          differ name streamed pre;
          if cap > pre_cap then
            Q.Test.fail_reportf "%s: the stream's arena grew to %d slots, past %d"
              name cap pre_cap)
        [ (`Wheel, "wheel"); (`Heap, "heap") ];
      true)

(* --- edge cases, run on both agendas --------------------------------- *)

let on_both f () =
  f `Wheel;
  f `Heap

let test_negative_delay agenda =
  let e = E.create ~agenda () in
  (match E.schedule e ~delay:(-1.5) (fun () -> ()) with
  | exception E.Negative_delay d ->
      Alcotest.(check (float 0.0)) "payload is the offending delay" (-1.5) d
  | _ -> Alcotest.fail "negative delay accepted");
  ignore (E.schedule e ~delay:5.0 (fun () -> ()));
  E.run e;
  match E.schedule_at e ~time:2.0 (fun () -> ()) with
  | exception E.Negative_delay d ->
      Alcotest.(check (float 0.0)) "payload is time - now" (-3.0) d
  | _ -> Alcotest.fail "past absolute time accepted"

let test_cancel_after_fire agenda =
  let e = E.create ~agenda () in
  let hits = ref 0 in
  let h = E.schedule e ~delay:1.0 (fun () -> incr hits) in
  ignore (E.schedule e ~delay:2.0 (fun () -> incr hits));
  E.run e;
  check "both fired" 2 !hits;
  E.cancel e h;
  (* no-op: the slot may have been recycled, the stamp protects it *)
  let s = E.stats e in
  check "cancel after fire not counted" 0 s.E.events_cancelled;
  ignore (E.schedule e ~delay:1.0 (fun () -> incr hits));
  E.cancel e h;
  E.run e;
  check "recycled slot unharmed by stale cancel" 3 !hits

let test_self_cancel_in_handler agenda =
  let e = E.create ~agenda () in
  let fired = ref false in
  let h = ref None in
  h :=
    Some
      (E.schedule e ~delay:1.0 (fun () ->
           (* cancelling yourself while firing must be a no-op *)
           Option.iter (E.cancel e) !h;
           fired := true));
  E.run e;
  Alcotest.(check bool) "handler ran" true !fired;
  check "self-cancel not counted" 0 (E.stats e).E.events_cancelled

(* --- flat events ------------------------------------------------------ *)

let test_flat_args agenda =
  let e = E.create ~agenda () in
  let seen = ref [] in
  let k =
    E.register_kind e ~name:"args" (fun a0 a1 a2 _ -> seen := (a0, a1, a2) :: !seen)
  in
  ignore (E.schedule_flat e ~delay:1.0 ~kind:k ~a0:7 ~a1:(-3) ~a2:max_int);
  ignore (E.schedule_flat_at e ~time:2.0 ~kind:k ~a0:1 ~a1:2 ~a2:3);
  E.run e;
  Alcotest.(check (list (triple int int int)))
    "arg slots delivered verbatim"
    [ (7, -3, max_int); (1, 2, 3) ]
    (List.rev !seen)

let test_kind_names agenda =
  let e = E.create ~agenda () in
  ignore (E.register_kind e ~name:"alpha" (fun _ _ _ _ -> ()));
  ignore (E.register_kind e ~name:"beta" (fun _ _ _ _ -> ()));
  Alcotest.(check (list string))
    "closure pseudo-kind first, then registration order"
    [ "closure"; "alpha"; "beta" ] (E.kind_names e)

(* --- reset / reuse ---------------------------------------------------- *)

let test_reset_restores_fresh_state agenda =
  let e = E.create ~agenda () in
  for i = 0 to 499 do
    ignore (E.schedule e ~delay:(float_of_int i) (fun () -> ()))
  done;
  E.run e;
  let cap = E.arena_capacity e in
  Alcotest.(check bool) "arena grew" true (cap > 256);
  E.reset e;
  checkf "clock back to zero" 0.0 (E.now e);
  check "no pending" 0 (E.pending e);
  check "counters zeroed" 0 (E.stats e).E.events_processed;
  check "kinds cleared" 1 (List.length (E.kind_names e));
  Alcotest.(check bool)
    "capacity kept across reset" true
    (E.arena_capacity e = cap)

let test_reset_defuses_old_handles agenda =
  let e = E.create ~agenda () in
  let h = E.schedule e ~delay:5.0 (fun () -> Alcotest.fail "stale event fired") in
  E.reset e;
  E.cancel e h;
  (* defused: neither cancels a live slot nor counts *)
  check "stale cancel not counted" 0 (E.stats e).E.events_cancelled;
  let hits = ref 0 in
  ignore (E.schedule e ~delay:1.0 (fun () -> incr hits));
  E.cancel e h;
  E.run e;
  check "post-reset events unaffected by stale handles" 1 !hits

(* Events still pending at a reset must not come back: the next life
   schedules into the same buckets and sees only its own events. *)
let test_reset_drops_pending_events agenda =
  let e = E.create ~agenda () in
  let delays = [ 1.0; 2.5; 7.0; 40.0; 4000.0 ] in
  List.iter
    (fun d ->
      ignore (E.schedule e ~delay:d (fun () -> Alcotest.fail "stale event fired")))
    delays;
  E.reset e;
  let fired = ref [] in
  let at d = ignore (E.schedule e ~delay:d (fun () -> fired := d :: !fired)) in
  (* takes the slot of the first pending event *)
  at 90.0;
  List.iter at delays;
  E.run e;
  Alcotest.(check (list (float 0.0)))
    "only this life's events fire, in time order"
    [ 1.0; 2.5; 7.0; 40.0; 90.0; 4000.0 ]
    (List.rev !fired)

(* A reset in the middle of a run, with fired or cancelled (free) and
   pending slots of every kind spread over the arena and a stream half
   consumed, defuses every handle of the old life.  The next
   life takes every slot of the arena, so a live slot the reset did not
   free would be cancelled by its stale handle. *)
let test_mid_run_reset agenda =
  let e = E.create ~agenda () in
  let kind = E.register_kind e ~name:"old" (fun _ _ _ _ -> ()) in
  let old =
    List.init 150 (fun i ->
        let delay = float_of_int (i mod 40) in
        if i mod 2 = 0 then E.schedule_flat e ~delay ~kind ~a0:i ~a1:0 ~a2:0
        else E.schedule e ~delay (fun () -> ()))
  in
  List.iteri (fun i h -> if i mod 3 = 0 then E.cancel e h) old;
  E.stream e ~kind (Array.init 60 (fun i -> float_of_int i /. 2.0));
  E.run_until e 20.0;
  Alcotest.(check bool) "the reset comes mid-run" true (E.pending e > 0);
  let cap = E.arena_capacity e in
  E.reset e;
  check "arena capacity kept" cap (E.arena_capacity e);
  let fired = ref 0 in
  let kind = E.register_kind e ~name:"new" (fun _ _ _ _ -> incr fired) in
  for i = 1 to cap do
    ignore (E.schedule_flat e ~delay:1.0 ~kind ~a0:i ~a1:0 ~a2:0)
  done;
  check "every slot reused, none added" cap (E.arena_capacity e);
  List.iter (E.cancel e) old;
  check "no stale handle cancelled a new event" 0 (E.stats e).E.events_cancelled;
  E.run e;
  check "every new event fired, and only they" cap !fired;
  check "processed" cap (E.stats e).E.events_processed

(* A run on a recycled engine must be byte-identical to a run on a fresh
   one: same event order, same clocks, same stats.  This is the driver's
   per-domain world-recycling guarantee (Run.setup ~scratch). *)
let test_reused_engine_byte_identical agenda =
  (* the same little self-rescheduling world, fresh vs recycled *)
  let build e =
    let log = Buffer.create 256 in
    let kref = ref None in
    let k =
      E.register_kind e ~name:"trace" (fun a0 _ _ _ ->
          Buffer.add_string log (Printf.sprintf "%d@%h;" a0 (E.now e));
          if a0 < 40 then
            Option.iter
              (fun k ->
                ignore
                  (E.schedule_flat e
                     ~delay:(float_of_int (1 + (a0 mod 5)))
                     ~kind:k ~a0:(a0 + 1) ~a1:0 ~a2:0))
              !kref)
    in
    kref := Some k;
    ignore (E.schedule_flat e ~delay:0.5 ~kind:k ~a0:0 ~a1:0 ~a2:0);
    ignore (E.schedule e ~delay:3.25 (fun () -> Buffer.add_string log "c;"));
    E.run e;
    let s = E.stats e in
    ( Buffer.contents log,
      E.now e,
      (s.E.events_processed, s.E.events_scheduled, s.E.events_cancelled,
       s.E.max_queue_depth) )
  in
  let fresh = E.create ~agenda () in
  let first = build fresh in
  (* dirty the engine further, then recycle it *)
  ignore (E.schedule fresh ~delay:99.0 (fun () -> ()));
  E.reset fresh;
  let reused = build fresh in
  let fresh2 = build (E.create ~agenda ()) in
  Alcotest.(check bool) "recycled run = its own fresh run" true (reused = first);
  Alcotest.(check bool) "fresh engine agrees too" true (fresh2 = first)

(* A full simulation world on a recycled engine produces the identical
   aggregate JSON line and engine counters.  The engine's first world names
   more transactions than the second, and other ones, so ids the second
   world draws would clash with stale names had the reset kept any. *)
let test_reused_world_byte_identical () =
  let tree = Workload.mixer_tree ~n:3 ~opts:[] () in
  let cfg = { Tpc.Mixer.default_cfg with Tpc.Mixer.txns = 25 } in
  let line w agg =
    ( Tpc.Json.to_string (Tpc.Metrics.Agg.to_json_value agg),
      (let s = Simkernel.Engine.stats w.Tpc.Run.engine in
       ( s.Simkernel.Engine.events_processed,
         s.Simkernel.Engine.events_scheduled,
         s.Simkernel.Engine.events_cancelled,
         s.Simkernel.Engine.max_queue_depth )) )
  in
  let agg1, w1 = Tpc.Mixer.run cfg tree in
  let fresh = line w1 agg1 in
  (* a first world of forty sequential commits under other names *)
  let w0 = Tpc.Run.setup tree in
  for i = 1 to 40 do
    ignore (Tpc.Run.commit ~txn:("warm-" ^ string_of_int i) w0)
  done;
  let ids = Simkernel.Engine.ids w0.Tpc.Run.engine in
  check "the first world interned its names" 40 (Simkernel.Ids.count ids);
  (* recycle its engine for the mixer world, then that one's again *)
  let agg2, w2 = Tpc.Mixer.run ~scratch:w0.Tpc.Run.engine cfg tree in
  let reused = line w2 agg2 in
  Alcotest.(check bool)
    "world on recycled engine is byte-identical to fresh" true (fresh = reused);
  check "the second world interned only its own" 25 (Simkernel.Ids.count ids);
  let agg3, w3 = Tpc.Mixer.run ~scratch:w2.Tpc.Run.engine cfg tree in
  Alcotest.(check bool)
    "and so is the next world on it" true (fresh = line w3 agg3)

let suite =
  [
    qtest prop_wheel_matches_heap;
    qtest prop_stream_matches_prescheduling;
    Alcotest.test_case "negative delay (both agendas)" `Quick
      (on_both test_negative_delay);
    Alcotest.test_case "cancel after fire (both agendas)" `Quick
      (on_both test_cancel_after_fire);
    Alcotest.test_case "self-cancel inside handler (both agendas)" `Quick
      (on_both test_self_cancel_in_handler);
    Alcotest.test_case "flat events carry int args (both agendas)" `Quick
      (on_both test_flat_args);
    Alcotest.test_case "kind names (both agendas)" `Quick
      (on_both test_kind_names);
    Alcotest.test_case "reset restores fresh state (both agendas)" `Quick
      (on_both test_reset_restores_fresh_state);
    Alcotest.test_case "reset defuses outstanding handles (both agendas)"
      `Quick
      (on_both test_reset_defuses_old_handles);
    Alcotest.test_case "recycled engine byte-identical (both agendas)" `Quick
      (on_both test_reused_engine_byte_identical);
    Alcotest.test_case "recycled world byte-identical" `Quick
      test_reused_world_byte_identical;
    Alcotest.test_case "reset drops pending events (both agendas)" `Quick
      (on_both test_reset_drops_pending_events);
    Alcotest.test_case "mid-run reset defuses every live slot (both agendas)"
      `Quick (on_both test_mid_run_reset);
  ]
