(* The Parallel combinator: ordered fan-in, deterministic exception
   choice, in-caller jobs=1 fallback, independent batches. *)

let check_ints = Alcotest.(check (list int))

let test_map_ordering () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  check_ints "jobs=4 preserves input order" expect
    (Parallel.map ~jobs:4 (fun x -> x * x) xs);
  check_ints "jobs=1 matches" expect (Parallel.map ~jobs:1 (fun x -> x * x) xs)

let test_empty_and_singleton () =
  check_ints "empty list" [] (Parallel.map ~jobs:4 (fun x -> x) []);
  check_ints "singleton" [ 7 ] (Parallel.map ~jobs:4 (fun x -> x + 1) [ 6 ])

exception Boom of int

let test_exception_lowest_index () =
  (* several items fail; the re-raised exception must always be the one
     from the lowest failing index, whatever domain got there first *)
  let run () =
    Parallel.map ~jobs:4
      (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
      (List.init 32 Fun.id)
  in
  for _ = 1 to 5 do
    match run () with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> Alcotest.(check int) "lowest failing index" 2 i
  done

let test_jobs1_in_calling_domain () =
  let self = Domain.self () in
  let domains = Parallel.map ~jobs:1 (fun _ -> Domain.self ()) [ 1; 2; 3 ] in
  List.iter
    (fun d ->
      Alcotest.(check bool) "jobs=1 runs in the calling domain" true (d = self))
    domains

let test_batches_around_a_raise () =
  let a = Parallel.map ~jobs:3 (fun x -> x + 1) [ 1; 2; 3 ] in
  (* a batch that raises leaves nothing behind for the next batch *)
  (try ignore (Parallel.map ~jobs:3 (fun _ -> raise Exit) [ 0; 1; 2 ])
   with Exit -> ());
  let b = Parallel.map ~jobs:3 string_of_int [ 4; 5 ] in
  check_ints "first batch" [ 2; 3; 4 ] a;
  Alcotest.(check (list string)) "post-exception batch" [ "4"; "5" ] b

let test_jobs_clamped () =
  let self = Domain.self () in
  List.iter
    (fun jobs ->
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d runs in the calling domain" jobs)
            true (d = self))
        (Parallel.map ~jobs (fun _ -> Domain.self ()) [ 1; 2 ]))
    [ 0; -3 ];
  Alcotest.(check bool) "recommended_jobs positive" true
    (Parallel.recommended_jobs () >= 1)

let suite =
  [
    Alcotest.test_case "map ordering" `Quick test_map_ordering;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
    Alcotest.test_case "lowest-index exception" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "jobs=1 in calling domain" `Quick
      test_jobs1_in_calling_domain;
    Alcotest.test_case "batches around a raising one" `Quick
      test_batches_around_a_raise;
    Alcotest.test_case "jobs clamping" `Quick test_jobs_clamped;
  ]
