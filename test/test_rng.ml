(* Tests of the deterministic RNG. *)

module R = Simkernel.Det_rng

let test_determinism () =
  let a = R.create ~seed:42 and b = R.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same seed, same stream" (R.int a 1000) (R.int b 1000)
  done

let test_seed_sensitivity () =
  let a = R.create ~seed:1 and b = R.create ~seed:2 in
  let xs = List.init 20 (fun _ -> R.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> R.int b 1_000_000) in
  Alcotest.(check bool) "different seeds diverge" true (xs <> ys)

let test_int_bounds () =
  let r = R.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = R.int r 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_int_covers_range () =
  let r = R.create ~seed:3 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(R.int r 8) <- true
  done;
  Alcotest.(check bool) "all 8 buckets hit" true (Array.for_all (fun x -> x) seen)

let test_float_bounds () =
  let r = R.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = R.float r 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_split_independence () =
  let parent = R.create ~seed:5 in
  let child = R.split parent in
  let xs = List.init 20 (fun _ -> R.int parent 1_000_000) in
  let ys = List.init 20 (fun _ -> R.int child 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_exponential_positive () =
  let r = R.create ~seed:11 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "exponential sample > 0" true
      (R.exponential r ~mean:3.0 > 0.0)
  done

let test_exponential_mean () =
  let r = R.create ~seed:13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. R.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sample mean %.2f close to 4.0" mean)
    true
    (abs_float (mean -. 4.0) < 0.2)

let test_shuffle_is_permutation () =
  let r = R.create ~seed:17 in
  let arr = Array.init 50 (fun i -> i) in
  R.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle preserves elements"
    (Array.init 50 (fun i -> i))
    sorted

let test_pick_member () =
  let r = R.create ~seed:19 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let v = R.pick r arr in
    Alcotest.(check bool) "pick returns a member" true
      (Array.exists (fun x -> x = v) arr)
  done

let test_bool_both_values () =
  let r = R.create ~seed:23 in
  let t = ref false and f = ref false in
  for _ = 1 to 200 do
    if R.bool r then t := true else f := true
  done;
  Alcotest.(check bool) "both booleans occur" true (!t && !f)

(* The stream itself, read once and written down: a seed's first draws of
   each kind, a split-off stream's, and the parent's after the split.  Any
   change to how the state is kept or stepped must leave every run of the
   simulator where it was, so these values must never move. *)
let pinned =
  [
    ( 0,
      4073552104164651883,
      0x1.b9e279aa86e58p-2,
      0x1.d109d798cb9c7p+1,
      1407461662504689358,
      0x1.47cd21c1847a9p-1,
      490437550606523686 );
    ( 1,
      2612804094800205616,
      0x1.7dd71b42cb1ddp-1,
      0x1.e21d7bedcd632p-6,
      1132654443127496440,
      0x1.807cd75f81b81p-1,
      2048809309281742190 );
    ( 42,
      3419864383188818853,
      0x1.477f199d93378p-3,
      0x1.472950897cfc1p+0,
      919073589568351552,
      0x1.ebb5cccae4594p-2,
      175383196535490812 );
  ]

let test_pinned_stream () =
  let exact = Alcotest.testable (fun ppf f -> Format.fprintf ppf "%h" f) Float.equal in
  List.iter
    (fun (seed, i, f, e, split_i, split_f, after_i) ->
      let what kind = Printf.sprintf "seed %d: %s" seed kind in
      let r = R.create ~seed in
      Alcotest.(check int) (what "int") i (R.int r max_int);
      Alcotest.check exact (what "float") f (R.float r 1.0);
      Alcotest.check exact (what "exponential") e (R.exponential r ~mean:1.0);
      let c = R.split r in
      Alcotest.(check int) (what "split int") split_i (R.int c max_int);
      Alcotest.check exact (what "split float") split_f (R.float c 1.0);
      Alcotest.(check int) (what "int after split") after_i (R.int r max_int))
    pinned

(* [below] and [arrivals] stand for draws a caller used to make with
   [float] and [exponential]: they must return what those compares and
   sums gave, to the last bit, and leave the stream where those calls
   left it. *)
let test_draw_helpers_match () =
  let exact = Alcotest.testable (fun ppf f -> Format.fprintf ppf "%h" f) Float.equal in
  List.iter
    (fun seed ->
      let a = R.create ~seed and b = R.create ~seed in
      List.iter
        (fun (p, q) ->
          for _ = 1 to 200 do
            let u = R.float b 1.0 in
            let expected = if u < p then 0 else if u < q then 1 else 2 in
            Alcotest.(check int) (Printf.sprintf "seed %d: below" seed) expected
              (R.below a p q)
          done)
        [ (0.6, 0.85); (0.0, 0.5); (0.3, 0.3); (1.0, 1.0) ];
      List.iter
        (fun (n, mean) ->
          let times = Array.make n nan in
          R.arrivals a ~mean times;
          let at = ref 0.0 in
          for i = 0 to n - 1 do
            Alcotest.check exact (Printf.sprintf "seed %d: arrival %d" seed i) !at
              times.(i);
            at := !at +. R.exponential b ~mean
          done)
        [ (60, 3.75); (1, 1.875); (0, 2.0); (500, 0.0) ];
      Alcotest.(check int) (Printf.sprintf "seed %d: the stream moved on alike" seed)
        (R.int b max_int) (R.int a max_int))
    [ 0; 1; 42 ]

(* Neither helper hands a float back, so neither boxes one. *)
let test_draw_helpers_allocate_nothing () =
  let r = R.create ~seed:3 in
  let times = Array.make 1000 0.0 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    if R.below r 0.6 0.85 = 0 then incr hits
  done;
  R.arrivals r ~mean:2.0 times;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "some draws fall below" true (!hits > 0);
  Alcotest.(check (float 0.0)) "words allocated by 1,000 draws of each" 0.0 words

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "pick returns a member" `Quick test_pick_member;
    Alcotest.test_case "bool takes both values" `Quick test_bool_both_values;
    Alcotest.test_case "pinned stream" `Quick test_pinned_stream;
    Alcotest.test_case "below and arrivals draw as float and exponential"
      `Quick test_draw_helpers_match;
    Alcotest.test_case "below and arrivals allocate nothing" `Quick
      test_draw_helpers_allocate_nothing;
  ]
