(* Tests of the discrete-event engine: ordering, determinism, cancellation. *)

module E = Simkernel.Engine

let check = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let test_initial_time () =
  let e = E.create () in
  checkf "clock starts at zero" 0.0 (E.now e)

let test_schedule_and_run () =
  let e = E.create () in
  let hits = ref [] in
  ignore (E.schedule e ~delay:2.0 (fun () -> hits := 2 :: !hits));
  ignore (E.schedule e ~delay:1.0 (fun () -> hits := 1 :: !hits));
  ignore (E.schedule e ~delay:3.0 (fun () -> hits := 3 :: !hits));
  E.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !hits);
  checkf "clock at last event" 3.0 (E.now e)

let test_fifo_ties () =
  let e = E.create () in
  let hits = ref [] in
  for i = 1 to 5 do
    ignore (E.schedule e ~delay:1.0 (fun () -> hits := i :: !hits))
  done;
  E.run e;
  Alcotest.(check (list int)) "same-time events run FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !hits)

let test_nested_scheduling () =
  let e = E.create () in
  let hits = ref [] in
  ignore
    (E.schedule e ~delay:1.0 (fun () ->
         hits := "a" :: !hits;
         ignore (E.schedule e ~delay:1.0 (fun () -> hits := "c" :: !hits))));
  ignore (E.schedule e ~delay:1.5 (fun () -> hits := "b" :: !hits));
  E.run e;
  Alcotest.(check (list string)) "nested events interleave by time"
    [ "a"; "b"; "c" ] (List.rev !hits)

let test_cancel () =
  let e = E.create () in
  let fired = ref false in
  let ev = E.schedule e ~delay:1.0 (fun () -> fired := true) in
  E.cancel e ev;
  E.run e;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_cancel_is_idempotent () =
  let e = E.create () in
  let ev = E.schedule e ~delay:1.0 (fun () -> ()) in
  E.cancel e ev;
  E.cancel e ev;
  check "pending zero after double cancel" 0 (E.pending e)

let test_cancel_one_of_many () =
  let e = E.create () in
  let hits = ref 0 in
  let _ = E.schedule e ~delay:1.0 (fun () -> incr hits) in
  let ev = E.schedule e ~delay:1.0 (fun () -> incr hits) in
  let _ = E.schedule e ~delay:1.0 (fun () -> incr hits) in
  E.cancel e ev;
  E.run e;
  check "two of three fire" 2 !hits

let test_pending () =
  let e = E.create () in
  check "empty agenda" 0 (E.pending e);
  ignore (E.schedule e ~delay:1.0 (fun () -> ()));
  ignore (E.schedule e ~delay:2.0 (fun () -> ()));
  check "two pending" 2 (E.pending e);
  ignore (E.step e);
  check "one left after step" 1 (E.pending e)

let test_run_until () =
  let e = E.create () in
  let hits = ref 0 in
  ignore (E.schedule e ~delay:1.0 (fun () -> incr hits));
  ignore (E.schedule e ~delay:5.0 (fun () -> incr hits));
  E.run_until e 3.0;
  check "only early event ran" 1 !hits;
  checkf "clock advanced to horizon" 3.0 (E.now e);
  E.run e;
  check "late event runs afterwards" 2 !hits

let test_run_until_boundary_inclusive () =
  let e = E.create () in
  let hits = ref 0 in
  ignore (E.schedule e ~delay:3.0 (fun () -> incr hits));
  E.run_until e 3.0;
  check "event exactly at horizon runs" 1 !hits

let test_step_empty () =
  let e = E.create () in
  Alcotest.(check bool) "step on empty returns false" false (E.step e)

let test_negative_delay_rejected () =
  let e = E.create () in
  Alcotest.check_raises "negative delay" (E.Negative_delay (-1.0)) (fun () ->
      ignore (E.schedule e ~delay:(-1.0) (fun () -> ())))

let test_schedule_at_past_rejected () =
  let e = E.create () in
  ignore (E.schedule e ~delay:5.0 (fun () -> ()));
  E.run e;
  Alcotest.check_raises "past absolute time" (E.Negative_delay (-2.0)) (fun () ->
      ignore (E.schedule_at e ~time:3.0 (fun () -> ())))

let test_zero_delay_runs_now_not_reentrant () =
  let e = E.create () in
  let hits = ref [] in
  ignore
    (E.schedule e ~delay:0.0 (fun () ->
         ignore (E.schedule e ~delay:0.0 (fun () -> hits := "inner" :: !hits));
         hits := "outer" :: !hits));
  E.run e;
  Alcotest.(check (list string)) "zero-delay events are deferred, not reentrant"
    [ "outer"; "inner" ] (List.rev !hits)

let test_many_events_heap_growth () =
  let e = E.create () in
  let count = ref 0 in
  for i = 0 to 999 do
    ignore (E.schedule e ~delay:(float_of_int (999 - i)) (fun () -> incr count))
  done;
  E.run e;
  check "all thousand events fired" 1000 !count;
  checkf "clock at max delay" 999.0 (E.now e)

(* The flat cycle allocates nothing but a new clock box when time
   advances.  On a warmed engine (arena and sorted run already at size),
   a thousand [schedule_flat] calls with one preboxed delay allocate no
   word, and firing the thousand events, which share one time, allocates
   the one clock box plus [run]'s own few words. *)
let test_flat_cycle_allocation () =
  let e = E.create ~agenda:`Wheel () in
  let fired = ref 0 in
  let kind = E.register_kind e ~name:"count" (fun _ _ _ _ -> incr fired) in
  let delay = 1.0 in
  let batch () =
    for i = 1 to 1000 do
      ignore (E.schedule_flat e ~delay ~kind ~a0:i ~a1:0 ~a2:0)
    done
  in
  batch ();
  E.run e;
  let before = Gc.minor_words () in
  batch ();
  let scheduling = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  E.run e;
  let firing = Gc.minor_words () -. before in
  Printf.printf "scheduling: %.0f words; firing: %.0f words\n" scheduling firing;
  check "every event fired" 2000 !fired;
  Alcotest.(check (float 0.0)) "words allocated by 1,000 schedules" 0.0 scheduling;
  if firing /. 1000.0 >= 0.1 then
    Alcotest.failf "firing 1,000 same-time events allocated %.0f words" firing

(* A cancel takes the event off the agenda and frees its slot at once, on
   either agenda.  Ten rounds of 1,000 flat timers at delay 150, each
   cancelled before time moves, reuse the first round's slots and leave
   nothing to step over.  Left in place until their time, the cancelled
   timers took a 16,384-slot arena and [step] answered [true] with nothing
   pending. *)
let test_cancel_frees_slot agenda =
  let e = E.create ~agenda () in
  let kind =
    E.register_kind e ~name:"timer" (fun _ _ _ _ -> Alcotest.fail "a cancelled timer fired")
  in
  for _ = 1 to 10 do
    let timers =
      Array.init 1000 (fun i -> E.schedule_flat e ~delay:150.0 ~kind ~a0:i ~a1:0 ~a2:0)
    in
    Array.iter (E.cancel e) timers
  done;
  let slots = E.arena_capacity e in
  if slots > 1024 then
    Alcotest.failf "10 rounds of 1,000 cancelled timers took %d arena slots" slots;
  check "nothing pending" 0 (E.pending e);
  check "every cancel counted" 10_000 (E.stats e).E.events_cancelled;
  Alcotest.(check bool) "step finds nothing to fire" false (E.step e);
  check "nothing fired" 0 (E.stats e).E.events_processed

(* One cancel in each place an event can sit on the wheel: the imminent
   sorted run (delay 0, from inside a handler), the head and the middle of
   a ring bucket's chain (delay 150; the newest event heads the chain), a
   bucket holding that event alone (delay 40) and the overflow past the
   wheel's horizon (delay 5,000).  The rest fire in (time, seq) order, on
   either agenda. *)
let test_cancel_in_every_place agenda =
  let e = E.create ~agenda () in
  let fired = ref [] in
  let kind = E.register_kind e ~name:"mark" (fun a0 _ _ _ -> fired := a0 :: !fired) in
  let at delay a0 = E.schedule_flat e ~delay ~kind ~a0 ~a1:0 ~a2:0 in
  let trigger =
    E.register_kind e ~name:"trigger" (fun _ _ _ _ ->
        let imminent = Array.init 3 (fun i -> at 0.0 (1 + i)) in
        E.cancel e imminent.(1))
  in
  ignore (E.schedule_flat e ~delay:1.0 ~kind:trigger ~a0:0 ~a1:0 ~a2:0);
  let chain = Array.init 5 (fun i -> at 150.0 (10 + i)) in
  let alone = at 40.0 30 in
  let far = Array.init 3 (fun i -> at 5000.0 (20 + i)) in
  E.cancel e chain.(4);
  E.cancel e chain.(2);
  E.cancel e alone;
  E.cancel e far.(1);
  check "the trigger and five marks pending" 6 (E.pending e);
  E.run e;
  Alcotest.(check (list int)) "the others fire in (time, seq) order"
    [ 1; 3; 10; 11; 13; 20; 22 ] (List.rev !fired);
  check "five cancelled" 5 (E.stats e).E.events_cancelled

let on_both f () =
  f `Wheel;
  f `Heap

(* A stream refuses times that decrease or precede now, and a second
   stream while the first has an element left; an empty one does
   nothing, and one whose last element fired makes way for the next. *)
let test_stream_contract () =
  let e = E.create () in
  let seen = ref [] in
  let kind = E.register_kind e ~name:"element" (fun i _ _ _ -> seen := i :: !seen) in
  let refused what times =
    match E.stream e ~kind times with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "stream accepted %s" what
  in
  refused "a decreasing time" [| 1.0; 2.0; 1.5 |];
  refused "a nan" [| 1.0; nan |];
  E.stream e ~kind [||];
  check "an empty stream schedules nothing" 0 (E.pending e);
  E.stream e ~kind [| 1.0; 1.0; 3.0 |];
  check "every element pending at once" 3 (E.pending e);
  refused "a second stream" [| 4.0 |];
  E.run_until e 2.0;
  check "the last element still pending" 1 (E.pending e);
  refused "a second stream mid-way" [| 5.0 |];
  E.run e;
  refused "a time before now" [| 1.0 |];
  E.stream e ~kind [| 5.0 |];
  E.run e;
  Alcotest.(check (list int)) "elements fire in order, with their index"
    [ 0; 1; 2; 0 ] (List.rev !seen);
  checkf "clock at the last element" 5.0 (E.now e)

let suite =
  [
    Alcotest.test_case "initial time" `Quick test_initial_time;
    Alcotest.test_case "schedule and run in time order" `Quick test_schedule_and_run;
    Alcotest.test_case "FIFO on equal timestamps" `Quick test_fifo_ties;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "cancel idempotent" `Quick test_cancel_is_idempotent;
    Alcotest.test_case "cancel one of many at same time" `Quick test_cancel_one_of_many;
    Alcotest.test_case "pending count" `Quick test_pending;
    Alcotest.test_case "run_until horizon" `Quick test_run_until;
    Alcotest.test_case "run_until inclusive boundary" `Quick test_run_until_boundary_inclusive;
    Alcotest.test_case "step on empty agenda" `Quick test_step_empty;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "absolute time in past rejected" `Quick test_schedule_at_past_rejected;
    Alcotest.test_case "zero delay not reentrant" `Quick test_zero_delay_runs_now_not_reentrant;
    Alcotest.test_case "heap growth under load" `Quick test_many_events_heap_growth;
    Alcotest.test_case "flat cycle allocates only the clock" `Quick
      test_flat_cycle_allocation;
    Alcotest.test_case "stream contract" `Quick test_stream_contract;
    Alcotest.test_case "a cancel frees its slot at once (both agendas)" `Quick
      (on_both test_cancel_frees_slot);
    Alcotest.test_case "a cancel in every place an event sits (both agendas)"
      `Quick (on_both test_cancel_in_every_place);
  ]
