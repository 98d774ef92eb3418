(* Tests of the write-ahead log: force semantics, crash behaviour, group
   commit batching, statistics. *)

module E = Simkernel.Engine
module L = Wal.Log
module R = Wal.Log_record

let rec_kinds log = List.map (fun (r : R.t) -> r.kind) (L.durable log)

let mk ?(config = L.default_config) () =
  let e = E.create () in
  (e, L.create e ~node:"n" ~config ())

let record kind = R.make ~txn:"t1" ~node:"n" kind

let test_append_is_volatile () =
  let _e, log = mk () in
  L.append log (record R.End);
  Alcotest.(check int) "nothing durable yet" 0 (List.length (L.durable log));
  Alcotest.(check int) "but visible in all_records" 1
    (List.length (L.all_records log))

let test_force_hardens () =
  let e, log = mk () in
  let done_ = ref false in
  L.force log (record R.Committed) (fun () -> done_ := true);
  Alcotest.(check bool) "continuation waits for the I/O" false !done_;
  E.run e;
  Alcotest.(check bool) "continuation ran" true !done_;
  Alcotest.(check (list string)) "record durable" [ "committed" ]
    (rec_kinds log |> List.map R.kind_to_string)

let test_force_covers_earlier_appends () =
  let e, log = mk () in
  L.append log (record R.Prepared);
  L.force log (record R.Committed) (fun () -> ());
  E.run e;
  Alcotest.(check int) "both records durable after one force" 2
    (List.length (L.durable log))

let test_crash_loses_buffer () =
  let e, log = mk () in
  L.force log (record R.Prepared) (fun () -> ());
  E.run e;
  L.append log (record R.Committed);
  L.crash log;
  Alcotest.(check (list string)) "only forced record survives" [ "prepared" ]
    (rec_kinds log |> List.map R.kind_to_string);
  Alcotest.(check int) "volatile tail gone from all_records" 1
    (List.length (L.all_records log))

let test_crash_drops_inflight_force () =
  let e, log = mk () in
  let done_ = ref false in
  L.force log (record R.Committed) (fun () -> done_ := true);
  L.crash log;
  E.run e;
  Alcotest.(check bool) "in-flight continuation dropped" false !done_;
  Alcotest.(check int) "record not durable" 0 (List.length (L.durable log))

let test_io_latency () =
  let e, log = mk () in
  let at = ref nan in
  L.force log (record R.Committed) (fun () -> at := E.now e);
  E.run e;
  Alcotest.(check (float 1e-9)) "force completes after io_latency" 0.5 !at

let test_stats_counts () =
  let e, log = mk () in
  L.append log (record R.Prepared);
  L.force log (record R.Committed) (fun () -> ());
  L.append log (record R.End);
  E.run e;
  let s = L.stats log in
  Alcotest.(check int) "three writes" 3 s.L.writes;
  Alcotest.(check int) "one forced write" 1 s.L.forced_writes;
  Alcotest.(check int) "one physical I/O" 1 s.L.force_ios

let test_reset_stats () =
  let e, log = mk () in
  L.force log (record R.Committed) (fun () -> ());
  E.run e;
  L.reset_stats log;
  let s = L.stats log in
  Alcotest.(check int) "writes reset" 0 s.L.writes;
  Alcotest.(check int) "ios reset" 0 s.L.force_ios;
  Alcotest.(check int) "durable records kept" 1 (List.length (L.durable log))

let test_records_for_filters_by_txn () =
  let e, log = mk () in
  L.force log (R.make ~txn:"a" ~node:"n" R.Committed) (fun () -> ());
  L.force log (R.make ~txn:"b" ~node:"n" R.Committed) (fun () -> ());
  E.run e;
  Alcotest.(check int) "one record for txn a" 1
    (List.length (L.records_for log ~txn:"a"))

let test_flush_without_record () =
  let e, log = mk () in
  L.append log (record R.Prepared);
  let done_ = ref false in
  L.flush log (fun () -> done_ := true);
  E.run e;
  Alcotest.(check bool) "flush continuation ran" true !done_;
  Alcotest.(check int) "appended record durable" 1 (List.length (L.durable log))

let test_flush_on_clean_log_is_immediate () =
  let _e, log = mk () in
  let done_ = ref false in
  L.flush log (fun () -> done_ := true);
  Alcotest.(check bool) "nothing to flush: immediate" true !done_

let group_config size timeout =
  { L.io_latency = 0.5; group = Some { L.size; timeout } }

let test_group_commit_batches_by_size () =
  let e, log = mk ~config:(group_config 3 100.0) () in
  let done_count = ref 0 in
  for _ = 1 to 3 do
    L.force log (record R.Committed) (fun () -> incr done_count)
  done;
  E.run e;
  Alcotest.(check int) "all three continuations ran" 3 !done_count;
  Alcotest.(check int) "one physical I/O for the batch" 1 (L.stats log).L.force_ios;
  Alcotest.(check int) "three forced writes recorded" 3
    (L.stats log).L.forced_writes

let test_group_commit_timeout_flushes_partial_batch () =
  let e, log = mk ~config:(group_config 10 2.0) () in
  let done_ = ref false in
  L.force log (record R.Committed) (fun () -> done_ := true);
  E.run_until e 1.0;
  Alcotest.(check bool) "still waiting for the group" false !done_;
  E.run e;
  Alcotest.(check bool) "timer flushed the partial batch" true !done_;
  Alcotest.(check int) "one I/O" 1 (L.stats log).L.force_ios

let test_group_commit_multiple_batches () =
  let e, log = mk ~config:(group_config 2 100.0) () in
  for _ = 1 to 6 do
    L.force log (record R.Committed) (fun () -> ())
  done;
  E.run e;
  Alcotest.(check int) "six requests, three I/Os" 3 (L.stats log).L.force_ios

let test_group_commit_crash_drops_batch () =
  let e, log = mk ~config:(group_config 5 100.0) () in
  let done_ = ref false in
  L.force log (record R.Committed) (fun () -> done_ := true);
  L.crash log;
  E.run e;
  Alcotest.(check bool) "batched continuation dropped on crash" false !done_;
  Alcotest.(check int) "record lost" 0 (List.length (L.durable log))

let test_group_commit_delays_commit () =
  (* Table 1's group-commit disadvantage: individual transactions wait. *)
  let e1, solo = mk () in
  let t_solo = ref nan in
  L.force solo (record R.Committed) (fun () -> t_solo := E.now e1);
  E.run e1;
  let e2, grouped = mk ~config:(group_config 8 4.0) () in
  let t_grouped = ref nan in
  L.force grouped (record R.Committed) (fun () -> t_grouped := E.now e2);
  E.run e2;
  Alcotest.(check bool)
    (Printf.sprintf "grouped commit (%.1f) waits longer than solo (%.1f)"
       !t_grouped !t_solo)
    true (!t_grouped > !t_solo)

let test_order_preserved () =
  let e, log = mk () in
  L.append log (record R.Prepared);
  L.force log (record R.Committed) (fun () -> ());
  L.append log (record R.End);
  L.force log (record R.Agent) (fun () -> ());
  E.run e;
  Alcotest.(check (list string)) "log order is append order"
    [ "prepared"; "committed"; "end"; "agent" ]
    (List.map R.kind_to_string (rec_kinds log))

(* --- compaction keeps forces in flight -------------------------------- *)

(* X's force completes at 0.5 and its continuation compacts X away; Y's,
   issued at 0.1, completes at 0.6.  Z, appended at 0.55 and never
   forced, must stay volatile: Y's I/O covered the log only up to Y. *)
let test_compact_keeps_inflight_marks () =
  let e, log = mk () in
  L.force log (R.make ~txn:"x" ~node:"n" R.Committed) (fun () ->
      ignore (L.compact log ~keep:(fun _ -> false)));
  ignore
    (E.schedule e ~delay:0.1 (fun () ->
         L.force log (R.make ~txn:"y" ~node:"n" R.Committed) ignore));
  ignore
    (E.schedule e ~delay:0.55 (fun () ->
         L.append log (R.make ~txn:"z" ~node:"n" ~payload:"undo" R.Rm_update)));
  E.run e;
  let txns l = List.map (fun (r : R.t) -> r.txn) l in
  Alcotest.(check (list string)) "only y is durable" [ "y" ] (txns (L.durable log));
  L.crash log;
  Alcotest.(check (list string)) "the unforced z dies in the crash" [ "y" ]
    (txns (L.all_records log))

(* Compaction drops more records than follow the mark of a force in
   flight: the force must not harden past the end of the log. *)
let test_compact_no_phantom_records () =
  let e, log = mk ~config:(group_config 2 1.0) () in
  L.force log (R.make ~txn:"x" ~node:"n" R.Committed) ignore;
  L.force log (R.make ~txn:"x" ~node:"n" R.End) (fun () ->
      ignore (L.compact log ~keep:(fun _ -> false)));
  ignore
    (E.schedule e ~delay:0.1 (fun () ->
         L.force log (R.make ~txn:"y" ~node:"n" R.Prepared) ignore;
         L.force log (R.make ~txn:"y" ~node:"n" R.Committed) ignore));
  E.run e;
  let durable = L.durable log and all = L.all_records log in
  Alcotest.(check int) "durable is no longer than the log" (List.length all)
    (List.length durable);
  Alcotest.(check (list string)) "no phantom record" [ "y"; "y" ]
    (List.map (fun (r : R.t) -> r.txn) durable)

(* --- the packed log against the record-array reference ---------------- *)

(* Writes, forces, flushes, I/O ticks, crashes and compactions applied to
   the packed log and to Wal_ref, each on its own engine: after every step
   both must show the same records (all, durable, per transaction), the
   same statistics, and have resumed the same waiters in the same order.
   The packed log's waiters mix step tokens ([force_row], resumed through
   each writer's handler) with the closures [force] and [flush] wrap; the
   reference waits on closures only. *)
type op =
  | Append of int * int * int * int  (* txn, writer, kind, payload *)
  | Force of int * int * int * int
  | Force_row of int * int * int  (* txn, writer, kind: a step token *)
  | Flush
  | Tick of int  (* tenths of a time unit *)
  | Crash
  | Compact of int  (* salt of the keep predicate *)

let txn_names = [| "t0"; "t1"; "t2"; "mx-3" |]
let writer_names = [| "n"; "n.rm"; "sub"; "sub.rm" |]
let payloads =
  [|
    ""; ""; "P2:k13:v:mx-1"; "x";
    String.make 40_000 'a'; String.make 30_000 'd';
    String.make 70_000 'b'; String.make 66_000 'c';
  |]

let show_op = function
  | Append (x, w, k, p) -> Printf.sprintf "append %d %d %d %d" x w k p
  | Force (x, w, k, p) -> Printf.sprintf "force %d %d %d %d" x w k p
  | Force_row (x, w, k) -> Printf.sprintf "force_row %d %d %d" x w k
  | Flush -> "flush"
  | Tick d -> Printf.sprintf "tick %d" d
  | Crash -> "crash"
  | Compact s -> Printf.sprintf "compact %d" s

let gen_case =
  let open QCheck.Gen in
  let record f =
    map
      (fun (x, w, k, p) -> f x w k p)
      (quad (int_bound 3) (int_bound 3) (int_bound (R.codes - 1))
         (frequency [ (12, int_bound 3); (2, int_range 4 7) ]))
  in
  pair
    (opt (pair (int_range 1 4) (int_range 1 20)))
    (list_size (int_range 1 80)
       (frequency
          [
            (6, record (fun x w k p -> Append (x, w, k, p)));
            (3, record (fun x w k p -> Force (x, w, k, p)));
            (3, record (fun x w k _ -> Force_row (x, w, k)));
            (1, return Flush);
            (5, map (fun d -> Tick d) (int_range 1 8));
            (1, return Crash);
            (2, map (fun s -> Compact s) (int_bound 1000));
          ]))

let arb_case =
  QCheck.make
    ~print:(fun (group, ops) ->
      (match group with
      | None -> "no group commit"
      | Some (size, t) -> Printf.sprintf "group %d/%d" size t)
      ^ ": " ^ String.concat "; " (List.map show_op ops))
    gen_case

let show_record (r : R.t) =
  Printf.sprintf "%s@%s %s %d" r.txn r.node (R.kind_to_string r.kind)
    (String.length r.payload)

let model_agrees (group, ops) =
  let config =
    {
      L.io_latency = 0.5;
      group =
        Option.map
          (fun (size, t) -> { L.size; timeout = float_of_int t /. 10.0 })
          group;
    }
  in
  let e = E.create () and e' = E.create () in
  let log = L.create e ~node:"n" ~config () in
  let ref_log = Wal_ref.create e' ~node:"n" ~config () in
  let fired = ref [] and fired' = ref [] in
  (* a token is the index of the step that forced it *)
  Array.iter
    (fun name ->
      L.on_durable log ~writer:(L.writer log name) (fun token ->
          fired := string_of_int token :: !fired))
    writer_names;
  let make x w k p =
    R.make ~txn:txn_names.(x) ~node:writer_names.(w) ~payload:payloads.(p)
      (R.of_code k)
  in
  let keep salt (r : R.t) =
    Hashtbl.hash (r.txn, r.node, R.code r.kind, r.payload, salt) land 1 = 0
  in
  let check step =
    let agree what show a b =
      if a <> b then
        QCheck.Test.fail_reportf "after %s: %s is %s, the reference says %s"
          step what (show a) (show b)
    in
    let records l = String.concat "; " (List.map show_record l) in
    agree "all_records" records (L.all_records log) (Wal_ref.all_records ref_log);
    agree "durable" records (L.durable log) (Wal_ref.durable ref_log);
    Array.iter
      (fun txn ->
        agree ("records_for " ^ txn) records (L.records_for log ~txn)
          (Wal_ref.records_for ref_log ~txn))
      txn_names;
    let stats (s : L.stats) =
      Printf.sprintf "%d/%d/%d" s.writes s.forced_writes s.force_ios
    in
    agree "stats" stats (L.stats log) (Wal_ref.stats ref_log);
    agree "the waiters resumed" (String.concat ",") !fired !fired'
  in
  List.iteri
    (fun i op ->
      let tag = string_of_int i in
      (match op with
      | Append (x, w, k, p) ->
          L.append log (make x w k p);
          Wal_ref.append ref_log (make x w k p)
      | Force (x, w, k, p) ->
          L.force log (make x w k p) (fun () -> fired := tag :: !fired);
          Wal_ref.force ref_log (make x w k p) (fun () -> fired' := tag :: !fired')
      | Force_row (x, w, k) ->
          L.force_row log
            ~txn:(Simkernel.Ids.intern (E.ids e) txn_names.(x))
            ~writer:(L.writer log writer_names.(w))
            (R.of_code k) i;
          Wal_ref.force ref_log (make x w k 0) (fun () -> fired' := tag :: !fired')
      | Flush ->
          L.flush log (fun () -> fired := tag :: !fired);
          Wal_ref.flush ref_log (fun () -> fired' := tag :: !fired')
      | Tick d ->
          E.run_until e (E.now e +. (float_of_int d /. 10.0));
          E.run_until e' (E.now e' +. (float_of_int d /. 10.0))
      | Crash ->
          L.crash log;
          Wal_ref.crash ref_log
      | Compact salt ->
          let n = L.compact log ~keep:(keep salt) in
          let n' = Wal_ref.compact ref_log ~keep:(keep salt) in
          if n <> n' then
            QCheck.Test.fail_reportf "after %s: compact dropped %d, the reference %d"
              (show_op op) n n');
      check (Printf.sprintf "step %d (%s)" i (show_op op)))
    ops;
  E.run e;
  E.run e';
  check "the final I/Os";
  true

let test_model =
  QCheck.Test.make ~count:300 ~name:"packed log agrees with the record-array reference"
    arb_case model_agrees

let suite =
  [
    Alcotest.test_case "append is volatile" `Quick test_append_is_volatile;
    Alcotest.test_case "force hardens" `Quick test_force_hardens;
    Alcotest.test_case "force covers earlier appends" `Quick
      test_force_covers_earlier_appends;
    Alcotest.test_case "crash loses buffer" `Quick test_crash_loses_buffer;
    Alcotest.test_case "crash drops in-flight force" `Quick
      test_crash_drops_inflight_force;
    Alcotest.test_case "io latency" `Quick test_io_latency;
    Alcotest.test_case "stats counts" `Quick test_stats_counts;
    Alcotest.test_case "reset stats" `Quick test_reset_stats;
    Alcotest.test_case "records_for filters" `Quick test_records_for_filters_by_txn;
    Alcotest.test_case "flush without record" `Quick test_flush_without_record;
    Alcotest.test_case "flush on clean log immediate" `Quick
      test_flush_on_clean_log_is_immediate;
    Alcotest.test_case "group commit batches by size" `Quick
      test_group_commit_batches_by_size;
    Alcotest.test_case "group commit timeout flush" `Quick
      test_group_commit_timeout_flushes_partial_batch;
    Alcotest.test_case "group commit multiple batches" `Quick
      test_group_commit_multiple_batches;
    Alcotest.test_case "group commit crash drops batch" `Quick
      test_group_commit_crash_drops_batch;
    Alcotest.test_case "group commit delays individual commit" `Quick
      test_group_commit_delays_commit;
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "compaction keeps forces in flight" `Quick
      test_compact_keeps_inflight_marks;
    Alcotest.test_case "compaction leaves no phantom record" `Quick
      test_compact_no_phantom_records;
    QCheck_alcotest.to_alcotest test_model;
  ]
