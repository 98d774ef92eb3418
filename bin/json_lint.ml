(* json_lint: validate tpc_sim JSON artifacts.

   Usage: json_lint FILE...

   Files ending in .jsonl are checked line by line (every non-empty line
   must parse); anything else must parse as one JSON document.  All
   parsing goes through Tpc.Json.parse — the same parser the test suite
   round-trips through — so CI catches any drift between what the
   simulator emits and what the tooling can read.

   Chaos verdict lines (those carrying both "plan" and "seed") get a
   schema check on top of well-formedness: every benign verdict counter
   must be present as a non-negative integer, and the adversarial
   damage-classification fields — emitted only under `--adversary` — must
   appear as a complete non-negative block whenever any one of them
   appears; the same all-or-none rule applies to the certified-protocol
   fields (f, corrupted_replicas, cert_refusals) a `--protocol bft` line
   carries.  Any line carrying a "blocking" block (emitted under
   `--blocking` by sweep and chaos) must have all three windows
   (in_doubt, blocked_lock, heur_exposure), each with a non-negative
   integer count and non-negative p50/p99.  Exits 1 on the first
   malformed input. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* the benign verdict counters every chaos line carries *)
let verdict_fields =
  [
    "committed_missing";
    "aborted_applied";
    "bad_value";
    "divergence";
    "wal_divergence";
    "leaked_locks";
    "engine_pending";
    "unresolved";
    "in_doubt";
  ]

(* the damage-classification block emitted under --adversary *)
let accounting_fields =
  [
    "atomicity_violations";
    "heur_damage_reported";
    "heur_damage_silent";
    "blocked";
    "rejected_forgeries";
  ]

(* the certified-protocol block emitted when the protocol carries
   decision certificates (--protocol bft) *)
let certificate_fields = [ "f"; "corrupted_replicas"; "cert_refusals" ]

let check_blocking path lineno json =
  match Tpc.Json.member "blocking" json with
  | None -> ()
  | Some block ->
      List.iter
        (fun w ->
          match Tpc.Json.member w block with
          | None ->
              fail "%s:%d: blocking block missing window %S" path lineno w
          | Some win ->
              (match Tpc.Json.member "count" win with
              | Some v
                when (match Tpc.Json.to_int_opt v with
                     | Some n -> n >= 0
                     | None -> false) ->
                  ()
              | _ ->
                  fail
                    "%s:%d: blocking window %S needs a non-negative integer \
                     \"count\""
                    path lineno w);
              List.iter
                (fun q ->
                  match Tpc.Json.member q win with
                  | Some v
                    when (match Tpc.Json.to_float_opt v with
                         | Some x -> x >= 0.0
                         | None -> false) ->
                      ()
                  | _ ->
                      fail
                        "%s:%d: blocking window %S needs a non-negative \
                         number %S"
                        path lineno w q)
                [ "p50"; "p99" ])
        Faultlab.blocking_windows

let nonneg_int where path lineno json field =
  match Tpc.Json.member field json with
  | None -> fail "%s:%d: chaos verdict missing %s field %S" path lineno where field
  | Some v -> (
      match Tpc.Json.to_int_opt v with
      | Some n when n >= 0 -> ()
      | _ ->
          fail "%s:%d: chaos verdict field %S must be a non-negative integer"
            path lineno field)

let check_chaos_line path lineno json =
  match (Tpc.Json.member "plan" json, Tpc.Json.member "seed" json) with
  | Some _, Some _ ->
      List.iter (nonneg_int "benign" path lineno json) verdict_fields;
      if List.exists (fun f -> Tpc.Json.member f json <> None) accounting_fields
      then
        List.iter (nonneg_int "adversarial" path lineno json) accounting_fields;
      if
        List.exists (fun f -> Tpc.Json.member f json <> None) certificate_fields
      then
        List.iter (nonneg_int "certificate" path lineno json) certificate_fields
  | _ -> ()

let check_line path lineno json =
  check_chaos_line path lineno json;
  (* any line may carry a blocking block (sweep cells and chaos verdicts) *)
  check_blocking path lineno json

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_jsonl path =
  let lines = String.split_on_char '\n' (read_file path) in
  let checked = ref 0 in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        (try
           let json = Tpc.Json.parse line in
           check_line path (i + 1) json
         with Tpc.Json.Parse_error msg ->
           fail "%s:%d: JSON parse error: %s" path (i + 1) msg);
        incr checked
      end)
    lines;
  Printf.printf "%s: OK (%d lines)\n" path !checked

let check_json path =
  (try ignore (Tpc.Json.parse (read_file path))
   with Tpc.Json.Parse_error msg -> fail "%s: JSON parse error: %s" path msg);
  Printf.printf "%s: OK\n" path

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then fail "usage: json_lint FILE...";
  List.iter
    (fun path ->
      if not (Sys.file_exists path) then fail "%s: no such file" path;
      if Filename.check_suffix path ".jsonl" then check_jsonl path
      else check_json path)
    paths
