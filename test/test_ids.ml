(* The flat tables behind Simkernel.Ids, against Stdlib.Hashtbl.  Random
   sequences of replace, remove, find, mem, fold and reset must leave both
   answering alike after every step.  The keys are chosen so that probe
   runs form and wrap: many int keys share a home slot at every capacity
   up to 64, and the ones just below a multiple of 64 (-1 among them) sit
   at the last slot, so their runs wrap past the end and a removal's
   shift crosses it.  A sequence holds up to 40 keys, so a table grows
   from its 4 slots in the middle of it.  The string keys include the
   empty string and a one-NUL string, the content of the private mark of
   a free slot. *)

module Ids = Simkernel.Ids
module Q = QCheck

type 'k op =
  | Replace of 'k * int
  | Remove of 'k
  | Find of 'k
  | Mem of 'k
  | Fold
  | Reset

let show key = function
  | Replace (k, v) -> Printf.sprintf "replace %s %d" (key k) v
  | Remove k -> "remove " ^ key k
  | Find k -> "find " ^ key k
  | Mem k -> "mem " ^ key k
  | Fold -> "fold"
  | Reset -> "reset"

let ops_gen key =
  let open Q.Gen in
  list_size (int_range 0 300)
    (frequency
       [
         (6, map2 (fun k v -> Replace (k, v)) key (int_range 0 1000));
         (4, map (fun k -> Remove k) key);
         (3, map (fun k -> Find k) key);
         (2, map (fun k -> Mem k) key);
         (1, return Fold);
         (1, return Reset);
       ])

let int_key =
  Q.Gen.(
    frequency
      [
        (3, int_range 0 40);
        (2, map (fun i -> 64 * i) (int_range 0 5));
        (2, map (fun i -> (64 * i) - 1) (int_range 0 5));
        (1, return (-1));
      ])

let string_key =
  let names = Array.init 40 (fun i -> "mx-" ^ string_of_int i) in
  Q.Gen.(
    frequency
      [ (8, map (fun i -> names.(i)) (int_range 0 39)); (1, return ""); (1, return "\000") ])

(* The dummy is -1 and every bound value is at least 0, so [find]'s answer
   tells a miss from a hit. *)
module Check (T : Ids.S) = struct
  let run ops =
    let t = T.create ~dummy:(-1) in
    let r = Hashtbl.create 4 in
    let bindings () =
      List.sort compare (T.fold (fun k v acc -> (k, v) :: acc) t [])
      = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) r [])
    in
    List.for_all
      (fun op ->
        let same =
          match op with
          | Replace (k, v) ->
              T.replace t k v;
              Hashtbl.replace r k v;
              true
          | Remove k ->
              T.remove t k;
              Hashtbl.remove r k;
              true
          | Find k -> T.find t k = Option.value (Hashtbl.find_opt r k) ~default:(-1)
          | Mem k -> T.mem t k = Hashtbl.mem r k
          | Fold -> bindings ()
          | Reset ->
              T.reset t;
              Hashtbl.reset r;
              true
        in
        same && T.length t = Hashtbl.length r)
      ops
    && bindings ()
end

module Check_int = Check (Ids.Tbl)
module Check_string = Check (Ids.Str_tbl)

let prop_int =
  Q.Test.make ~count:500 ~name:"Ids.Tbl answers like Hashtbl"
    (Q.make ~print:(fun ops -> String.concat "; " (List.map (show string_of_int) ops))
       (ops_gen int_key))
    Check_int.run

let prop_string =
  Q.Test.make ~count:500 ~name:"Ids.Str_tbl answers like Hashtbl"
    (Q.make
       ~print:(fun ops -> String.concat "; " (List.map (show String.escaped) ops))
       (ops_gen string_key))
    Check_string.run

(* Keys 3, 7 and 11 all start their probe at slot 3 of the first 4 slots,
   so 7 and 11 wrap to slots 0 and 1.  Removing 3 shifts both back across
   the end; removing 7 then leaves 11 at its home. *)
let test_shift_wraps () =
  let t = Ids.Tbl.create ~dummy:"" in
  List.iter (fun k -> Ids.Tbl.replace t k (string_of_int k)) [ 3; 7; 11 ];
  Ids.Tbl.remove t 3;
  Alcotest.(check (list string)) "after removing 3" [ ""; "7"; "11" ]
    (List.map (Ids.Tbl.find t) [ 3; 7; 11 ]);
  Ids.Tbl.remove t 7;
  Alcotest.(check (list string)) "after removing 7" [ ""; ""; "11" ]
    (List.map (Ids.Tbl.find t) [ 3; 7; 11 ]);
  Alcotest.(check int) "one binding left" 1 (Ids.Tbl.length t)

(* A removed value is not kept alive: the slot a removal frees gets the
   dummy back, whether or not an entry shifted out of it.  Keys 5 and 9
   share home slot 1: removing 5 shifts 9 back into slot 1 and frees slot
   2, and removing 9 then frees slot 1. *)
let test_remove_frees_value () =
  let t = Ids.Tbl.create ~dummy:(ref 0) in
  let values = Weak.create 2 in
  let bind i k =
    let v = ref k in
    Weak.set values i (Some v);
    Ids.Tbl.replace t k v
  in
  bind 0 5;
  bind 1 9;
  Ids.Tbl.replace t 6 (ref 6);
  Ids.Tbl.remove t 5;
  Ids.Tbl.remove t 9;
  Gc.full_major ();
  Alcotest.(check bool) "5's value was collected" false (Weak.check values 0);
  Alcotest.(check bool) "9's value was collected" false (Weak.check values 1);
  Alcotest.(check int) "6 stays bound" 6 !(Ids.Tbl.find t 6)

(* On a warmed table (grown to its working size once), a thousand
   insert/remove cycles allocate nothing, for either key kind.  When the
   id table was [Hashtbl.Make], each insert allocated a 4-word bucket. *)
let test_no_allocation () =
  let ints = Array.init 64 (fun i -> i * 3) in
  let strings = Array.init 64 (fun i -> "mx-" ^ string_of_int i) in
  let cycles (type k) (module T : Ids.S with type key = k) (keys : k array) =
    let t = T.create ~dummy:(-1) in
    Array.iteri (fun i k -> T.replace t k i) keys;
    Array.iter (T.remove t) keys;
    T.replace t keys.(0) 0;
    let before = Gc.minor_words () in
    for i = 1 to 1000 do
      let k = keys.(i land 63) in
      T.replace t k i;
      if i land 63 <> 0 then T.remove t k
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "only the first key stays bound" 1 (T.length t);
    words
  in
  let int_words = cycles (module Ids.Tbl) ints in
  let string_words = cycles (module Ids.Str_tbl) strings in
  Printf.printf "1,000 insert/remove cycles: Tbl %.0f words, Str_tbl %.0f words\n"
    int_words string_words;
  Alcotest.(check (float 0.0)) "Tbl words" 0.0 int_words;
  Alcotest.(check (float 0.0)) "Str_tbl words" 0.0 string_words

let suite =
  [
    QCheck_alcotest.to_alcotest prop_int;
    QCheck_alcotest.to_alcotest prop_string;
    Alcotest.test_case "a removal's shift wraps past the end" `Quick test_shift_wraps;
    Alcotest.test_case "a removed value is not kept alive" `Quick test_remove_frees_value;
    Alcotest.test_case "insert and remove allocate nothing" `Quick test_no_allocation;
  ]
