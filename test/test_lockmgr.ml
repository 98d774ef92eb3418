(* Tests of the lock manager: compatibility, queueing, fairness, deadlock
   detection, hold-time statistics. *)

module E = Simkernel.Engine
module L = Lockmgr

let mk () =
  let e = E.create () in
  (e, L.create e)

let test_shared_compatible () =
  let _e, l = mk () in
  Alcotest.(check bool) "t1 S" true (L.try_acquire l ~txn:"t1" ~key:"k" L.Shared);
  Alcotest.(check bool) "t2 S" true (L.try_acquire l ~txn:"t2" ~key:"k" L.Shared)

let test_exclusive_conflicts () =
  let _e, l = mk () in
  Alcotest.(check bool) "t1 X" true (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive);
  Alcotest.(check bool) "t2 X blocked" false
    (L.try_acquire l ~txn:"t2" ~key:"k" L.Exclusive);
  Alcotest.(check bool) "t2 S blocked" false
    (L.try_acquire l ~txn:"t2" ~key:"k" L.Shared)

let test_shared_blocks_exclusive () =
  let _e, l = mk () in
  Alcotest.(check bool) "t1 S" true (L.try_acquire l ~txn:"t1" ~key:"k" L.Shared);
  Alcotest.(check bool) "t2 X blocked" false
    (L.try_acquire l ~txn:"t2" ~key:"k" L.Exclusive)

let test_reacquire_held () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive);
  Alcotest.(check bool) "re-acquire X" true
    (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive);
  Alcotest.(check bool) "weaker S over X" true
    (L.try_acquire l ~txn:"t1" ~key:"k" L.Shared);
  Alcotest.(check (option bool)) "still exclusive"
    (Some true)
    (Option.map (fun m -> m = L.Exclusive) (L.holds l ~txn:"t1" ~key:"k"))

let test_upgrade_sole_holder () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Shared);
  Alcotest.(check bool) "sole-holder upgrade" true
    (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive)

let test_upgrade_blocked_by_other_reader () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Shared);
  ignore (L.try_acquire l ~txn:"t2" ~key:"k" L.Shared);
  Alcotest.(check bool) "upgrade blocked" false
    (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive)

let test_release_wakes_waiter () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive);
  let granted = ref false in
  L.acquire l ~txn:"t2" ~key:"k" L.Exclusive ~granted:(fun () -> granted := true);
  Alcotest.(check bool) "queued" false !granted;
  Alcotest.(check int) "one waiting" 1 (L.waiting l);
  L.release_all l ~txn:"t1";
  Alcotest.(check bool) "granted after release" true !granted;
  Alcotest.(check int) "no waiters" 0 (L.waiting l)

let test_fifo_queue_order () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive);
  let order = ref [] in
  L.acquire l ~txn:"t2" ~key:"k" L.Exclusive ~granted:(fun () ->
      order := "t2" :: !order;
      L.release_all l ~txn:"t2");
  L.acquire l ~txn:"t3" ~key:"k" L.Exclusive ~granted:(fun () ->
      order := "t3" :: !order;
      L.release_all l ~txn:"t3");
  L.release_all l ~txn:"t1";
  Alcotest.(check (list string)) "waiters wake FIFO" [ "t2"; "t3" ]
    (List.rev !order)

let test_no_barging_past_queue () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Shared);
  L.acquire l ~txn:"t2" ~key:"k" L.Exclusive ~granted:(fun () -> ());
  (* t3's shared request is compatible with t1's grant but must not barge
     past t2's queued exclusive request *)
  Alcotest.(check bool) "shared cannot barge" false
    (L.try_acquire l ~txn:"t3" ~key:"k" L.Shared)

let test_shared_waiters_wake_together () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive);
  let woke = ref 0 in
  L.acquire l ~txn:"t2" ~key:"k" L.Shared ~granted:(fun () -> incr woke);
  L.acquire l ~txn:"t3" ~key:"k" L.Shared ~granted:(fun () -> incr woke);
  L.release_all l ~txn:"t1";
  Alcotest.(check int) "both shared waiters granted" 2 !woke

let test_release_all_multiple_keys () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k1" L.Exclusive);
  ignore (L.try_acquire l ~txn:"t1" ~key:"k2" L.Exclusive);
  L.release_all l ~txn:"t1";
  Alcotest.(check bool) "k1 free" true (L.try_acquire l ~txn:"t2" ~key:"k1" L.Exclusive);
  Alcotest.(check bool) "k2 free" true (L.try_acquire l ~txn:"t2" ~key:"k2" L.Exclusive)

let test_holders () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Shared);
  ignore (L.try_acquire l ~txn:"t2" ~key:"k" L.Shared);
  let hs = L.holders l ~key:"k" |> List.map fst |> List.sort compare in
  Alcotest.(check (list string)) "both holders listed" [ "t1"; "t2" ] hs

let test_hold_time_statistics () =
  let e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive);
  ignore (E.schedule e ~delay:4.0 (fun () -> L.release_all l ~txn:"t1"));
  E.run e;
  let s = L.stats l in
  Alcotest.(check int) "one acquisition" 1 s.L.acquisitions;
  Alcotest.(check (float 1e-9)) "held for 4.0" 4.0 s.L.total_hold_time;
  Alcotest.(check (float 1e-9)) "max is 4.0" 4.0 s.L.max_hold_time;
  Alcotest.(check (float 1e-9)) "per-txn time" 4.0 (L.txn_lock_time l ~txn:"t1")

let test_wait_for_cycle_detection () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"a" L.Exclusive);
  ignore (L.try_acquire l ~txn:"t2" ~key:"b" L.Exclusive);
  L.acquire l ~txn:"t1" ~key:"b" L.Exclusive ~granted:(fun () -> ());
  L.acquire l ~txn:"t2" ~key:"a" L.Exclusive ~granted:(fun () -> ());
  match L.wait_for_cycles l with
  | [ cycle ] ->
      Alcotest.(check (list string)) "t1/t2 deadlock" [ "t1"; "t2" ]
        (List.sort compare cycle)
  | cycles ->
      Alcotest.failf "expected one cycle, got %d" (List.length cycles)

let test_no_false_deadlock () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"a" L.Exclusive);
  L.acquire l ~txn:"t2" ~key:"a" L.Exclusive ~granted:(fun () -> ());
  Alcotest.(check int) "simple wait is not a deadlock" 0
    (List.length (L.wait_for_cycles l))

let test_three_way_cycle () =
  let _e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"a" L.Exclusive);
  ignore (L.try_acquire l ~txn:"t2" ~key:"b" L.Exclusive);
  ignore (L.try_acquire l ~txn:"t3" ~key:"c" L.Exclusive);
  L.acquire l ~txn:"t1" ~key:"b" L.Exclusive ~granted:(fun () -> ());
  L.acquire l ~txn:"t2" ~key:"c" L.Exclusive ~granted:(fun () -> ());
  L.acquire l ~txn:"t3" ~key:"a" L.Exclusive ~granted:(fun () -> ());
  Alcotest.(check int) "one three-way cycle" 1 (List.length (L.wait_for_cycles l))

let test_reset_stats () =
  let e, l = mk () in
  ignore (L.try_acquire l ~txn:"t1" ~key:"k" L.Exclusive);
  ignore (E.schedule e ~delay:1.0 (fun () -> L.release_all l ~txn:"t1"));
  E.run e;
  L.reset_stats l;
  Alcotest.(check int) "acquisitions reset" 0 (L.stats l).L.acquisitions;
  Alcotest.(check (float 1e-9)) "hold time reset" 0.0 (L.stats l).L.total_hold_time

(* --- model check against a naive reference ------------------------- *)

(* The lock manager's contract restated as plainly as possible: per key,
   an unordered grant list and a FIFO queue, with the same compatibility,
   upgrade and no-barging rules.  Random acquire/try_acquire/release_all
   schedules must leave both answering holds/holders/waiting/holds_any
   identically after every step - which also covers the real table
   dropping a key's entry once its last grant and waiter are gone and
   re-creating it on the next request. *)
module Model = struct
  type t = {
    grants : (string, (string * L.mode) list) Hashtbl.t;
    queues : (string, (string * L.mode) list) Hashtbl.t;  (* head first *)
  }

  let create () = { grants = Hashtbl.create 4; queues = Hashtbl.create 4 }
  let get tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)

  let can_grant grants ~txn mode =
    match List.assoc_opt txn grants with
    | Some held ->
        mode = L.Shared || held = L.Exclusive
        || List.for_all (fun (o, _) -> o = txn) grants
    | None -> List.for_all (fun (_, m) -> mode = L.Shared && m = L.Shared) grants

  let grant m ~txn ~key mode =
    let gs = get m.grants key in
    let mode =
      match List.assoc_opt txn gs with
      | Some held when mode = L.Shared -> held
      | _ -> mode
    in
    Hashtbl.replace m.grants key ((txn, mode) :: List.remove_assoc txn gs)

  let try_acquire m ~txn ~key mode =
    let gs = get m.grants key in
    if get m.queues key <> [] && not (List.mem_assoc txn gs) then false
    else if can_grant gs ~txn mode then begin
      grant m ~txn ~key mode;
      true
    end
    else false

  let acquire m ~txn ~key mode =
    if not (try_acquire m ~txn ~key mode) then
      Hashtbl.replace m.queues key (get m.queues key @ [ (txn, mode) ])

  let rec pump m key =
    match get m.queues key with
    | (txn, mode) :: rest when can_grant (get m.grants key) ~txn mode ->
        Hashtbl.replace m.queues key rest;
        grant m ~txn ~key mode;
        pump m key
    | _ -> ()

  let release_all m ~txn =
    Hashtbl.fold
      (fun key gs acc -> if List.mem_assoc txn gs then key :: acc else acc)
      m.grants []
    |> List.iter (fun key ->
           Hashtbl.replace m.grants key (List.remove_assoc txn (get m.grants key));
           pump m key)

  let holds m ~txn ~key = List.assoc_opt txn (get m.grants key)
  let holders m ~key = List.sort compare (get m.grants key)
  let waiting m = Hashtbl.fold (fun _ q acc -> acc + List.length q) m.queues 0

  let holds_any m ~txn =
    Hashtbl.fold (fun _ gs acc -> acc || List.mem_assoc txn gs) m.grants false
end

type lock_op =
  | Acquire of string * string * L.mode
  | Try of string * string * L.mode
  | Release of string

let txns = [ "t1"; "t2"; "t3"; "t4" ]
let keys = [ "a"; "b"; "c" ]
let mode_str = function L.Shared -> "S" | L.Exclusive -> "X"

let lock_op_print = function
  | Acquire (t, k, m) -> Printf.sprintf "acquire %s %s %s" t k (mode_str m)
  | Try (t, k, m) -> Printf.sprintf "try %s %s %s" t k (mode_str m)
  | Release t -> "release " ^ t

let gen_lock_ops =
  let open QCheck.Gen in
  let request f =
    map3 f (oneofl txns) (oneofl keys) (oneofl [ L.Shared; L.Exclusive ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map lock_op_print ops))
    (list_size (int_range 1 60)
       (frequency
          [
            (3, request (fun t k m -> Acquire (t, k, m)));
            (2, request (fun t k m -> Try (t, k, m)));
            (2, map (fun t -> Release t) (oneofl txns));
          ]))

let prop_matches_model =
  QCheck.Test.make ~count:300 ~name:"lock manager matches a naive model"
    gen_lock_ops (fun ops ->
      let _e, l = mk () in
      let m = Model.create () in
      let holders_of key = List.sort compare (L.holders l ~key) in
      List.for_all
        (fun op ->
          let same_answer =
            match op with
            | Acquire (txn, key, mode) ->
                L.acquire l ~txn ~key mode ~granted:(fun () -> ());
                Model.acquire m ~txn ~key mode;
                true
            | Try (txn, key, mode) ->
                L.try_acquire l ~txn ~key mode = Model.try_acquire m ~txn ~key mode
            | Release txn ->
                L.release_all l ~txn;
                Model.release_all m ~txn;
                true
          in
          same_answer
          && L.waiting l = Model.waiting m
          && List.for_all (fun key -> holders_of key = Model.holders m ~key) keys
          && List.for_all
               (fun txn ->
                 L.holds_any l ~txn = Model.holds_any m ~txn
                 && List.for_all
                      (fun key -> L.holds l ~txn ~key = Model.holds m ~txn ~key)
                      keys)
               txns)
        ops)

let suite =
  [
    Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
    Alcotest.test_case "exclusive conflicts" `Quick test_exclusive_conflicts;
    Alcotest.test_case "shared blocks exclusive" `Quick test_shared_blocks_exclusive;
    Alcotest.test_case "re-acquire held" `Quick test_reacquire_held;
    Alcotest.test_case "upgrade sole holder" `Quick test_upgrade_sole_holder;
    Alcotest.test_case "upgrade blocked by other reader" `Quick
      test_upgrade_blocked_by_other_reader;
    Alcotest.test_case "release wakes waiter" `Quick test_release_wakes_waiter;
    Alcotest.test_case "FIFO queue order" `Quick test_fifo_queue_order;
    Alcotest.test_case "no barging past queue" `Quick test_no_barging_past_queue;
    Alcotest.test_case "shared waiters wake together" `Quick
      test_shared_waiters_wake_together;
    Alcotest.test_case "release_all multiple keys" `Quick
      test_release_all_multiple_keys;
    Alcotest.test_case "holders" `Quick test_holders;
    Alcotest.test_case "hold time statistics" `Quick test_hold_time_statistics;
    Alcotest.test_case "wait-for cycle detection" `Quick test_wait_for_cycle_detection;
    Alcotest.test_case "no false deadlock" `Quick test_no_false_deadlock;
    Alcotest.test_case "three-way cycle" `Quick test_three_way_cycle;
    Alcotest.test_case "reset stats" `Quick test_reset_stats;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]
