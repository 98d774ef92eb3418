(* The chaos engine itself: fault plans round-trip through their compact
   string form, identical seeds and plans replay bit-identically, healthy
   sweeps audit clean, and a deliberately broken recovery is both caught
   by the fault-aware audit and shrunk to a small repro. *)

open Tpc.Types
module F = Faultlab
module M = Tpc.Mixer

let chaos_config protocol =
  {
    default_config with
    protocol;
    retry_interval = 25.0;
    max_retries = 8;
    prepare_retries = 2;
    retry_backoff = 2.0;
  }

let tree () =
  Tree
    ( member "coord",
      [
        Tree (member "sub0", []);
        Tree (member "sub1", []);
        Tree (member "sub2", []);
      ] )

let mixer_cfg ?(txns = 60) ?(seed = 11) () =
  { M.default_cfg with txns; concurrency = 6; seed }

(* --- plan serialization ----------------------------------------------- *)

let test_plan_round_trip () =
  let nodes = F.tree_nodes (tree ()) in
  for seed = 1 to 20 do
    let plan = F.gen ~seed ~nodes F.default_gen in
    let s = F.to_string plan in
    Alcotest.(check string)
      (Printf.sprintf "seed %d round-trips" seed)
      s
      (F.to_string (F.of_string s))
  done

let test_plan_forms_parse () =
  let s = "crash@10:sub0:+25.5,crash@20:sub1:-,part@30:coord|sub2:+8,part@40:sub0|sub1:-,drop@50:coord>sub0:3,jit@60:sub1>coord:2.75" in
  Alcotest.(check string) "every event form parses and reprints" s
    (F.to_string (F.of_string s));
  Alcotest.(check int) "six events" 6 (List.length (F.of_string s))

(* --- determinism ------------------------------------------------------- *)

let test_identical_replay () =
  (* same seed, same plan: the aggregate must be bit-identical across two
     fresh runs - the property the shrinker and seed replay depend on *)
  let t = tree () in
  let plan = F.gen ~seed:7 ~nodes:(F.tree_nodes t) F.default_gen in
  let run () =
    F.run_case ~config:(chaos_config Presumed_abort) (mixer_cfg ()) t plan
  in
  let agg1, v1 = run () in
  let agg2, v2 = run () in
  Alcotest.(check string) "bit-identical aggregate JSON"
    (Tpc.Metrics.Agg.to_json agg1)
    (Tpc.Metrics.Agg.to_json agg2);
  Alcotest.(check (list (pair string int))) "identical verdict"
    (F.verdict_fields v1) (F.verdict_fields v2)

(* --- healthy sweeps audit clean ---------------------------------------- *)

let test_sweep_clean protocol () =
  for seed = 1 to 8 do
    let t = tree () in
    let plan = F.gen ~seed ~nodes:(F.tree_nodes t) F.default_gen in
    let _agg, v =
      F.run_case ~config:(chaos_config protocol) (mixer_cfg ~seed ()) t plan
    in
    if not (F.ok v) then
      Alcotest.failf "seed %d (%s) violated: %s" seed
        (protocol_to_string protocol)
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s=%d" k n)
              (F.verdict_fields v)))
  done

(* --- broken recovery is caught and shrunk ------------------------------ *)

let test_broken_recovery_caught_and_shrunk () =
  let t = tree () in
  (* a mid-workload crash+restart buried in irrelevant noise events *)
  let plan =
    [
      F.Drop { at = 20.0; src = "coord"; dst = "sub2"; nth = 3 };
      F.Jitter { at = 40.0; src = "sub1"; dst = "coord"; amp = 2.0 };
      F.Crash { at = 150.0; node = "sub0"; restart_after = Some 60.0 };
      F.Drop { at = 200.0; src = "sub2"; dst = "sub1"; nth = 1 };
      F.Partition { at = 260.0; a = "sub1"; b = "sub2"; heal_after = Some 30.0 };
    ]
  in
  let fails p =
    let _agg, v =
      F.run_case
        ~config:(chaos_config Presumed_abort)
        ~broken_recovery:true (mixer_cfg ()) t p
    in
    not (F.ok v)
  in
  Alcotest.(check bool) "amnesiac restart violates the audit" true (fails plan);
  let small = F.shrink ~check:fails plan in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 3 events (got %d)" (List.length small))
    true
    (List.length small <= 3);
  Alcotest.(check bool) "minimized plan still reproduces" true (fails small);
  (* with recovery intact the very same schedule audits clean *)
  let _agg, v =
    F.run_case ~config:(chaos_config Presumed_abort) (mixer_cfg ()) t plan
  in
  Alcotest.(check bool) "correct recovery passes the same schedule" true
    (F.ok v)

(* --- adversarial fault vocabulary -------------------------------------- *)

let adversarial_gen =
  {
    F.default_gen with
    F.equivocations = 2;
    vote_flips = 2;
    forgeries = 2;
    forced_heuristics = 2;
  }

let test_adversarial_forms_parse () =
  let s =
    "equiv@10:coord:2,flip@20:sub0>coord:1,forge@30:sub1>coord:prepare,forge@40:coord>sub2:commit,forge@50:coord>sub0:abort,heur@60:sub1:commit,heur@70:sub2:abort"
  in
  Alcotest.(check string)
    "every adversarial event form parses and reprints" s
    (F.to_string (F.of_string s));
  Alcotest.(check int) "seven events" 7 (List.length (F.of_string s));
  Alcotest.(check bool) "recognized as adversarial" true
    (F.is_adversarial (F.of_string s));
  Alcotest.(check bool) "benign plans stay benign" false
    (F.is_adversarial (F.of_string "crash@10:sub0:+25.5"))

let test_adversarial_gen_round_trip () =
  let nodes = F.tree_nodes (tree ()) in
  for seed = 0 to 15 do
    let plan = F.gen ~seed ~nodes adversarial_gen in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d generates adversarial events" seed)
      true (F.is_adversarial plan);
    Alcotest.(check string)
      (Printf.sprintf "seed %d adversarial plan round-trips" seed)
      (F.to_string plan)
      (F.to_string (F.of_string (F.to_string plan)))
  done

let test_adversarial_draws_dont_disturb_benign () =
  (* with the adversarial counts at zero the generator must reproduce the
     pre-adversary plans byte for byte - the CI byte-identity guarantee *)
  let nodes = F.tree_nodes (tree ()) in
  for seed = 0 to 15 do
    let benign = F.gen ~seed ~nodes F.default_gen in
    let adv = F.gen ~seed ~nodes adversarial_gen in
    Alcotest.(check string)
      (Printf.sprintf "seed %d benign prefix identical" seed)
      (F.to_string benign)
      (F.to_string (List.filter (fun e -> not (F.is_adversarial_event e)) adv))
  done

let test_adversarial_replay_identical () =
  let t = tree () in
  let plan = F.gen ~seed:5 ~nodes:(F.tree_nodes t) adversarial_gen in
  let run () =
    let agg, v, acc, _w =
      F.run_case_adversarial
        ~config:(chaos_config Presumed_abort)
        (mixer_cfg ()) t plan
    in
    (Tpc.Metrics.Agg.to_json agg, F.verdict_fields v, F.accounting_fields acc)
  in
  let agg1, v1, a1 = run () in
  let agg2, v2, a2 = run () in
  Alcotest.(check string) "bit-identical aggregate JSON" agg1 agg2;
  Alcotest.(check (list (pair string int))) "identical verdict" v1 v2;
  Alcotest.(check (list (pair string int))) "identical damage accounting" a1 a2

let test_adversarial_sweep_classified protocol () =
  (* every seed must classify cleanly: atomicity violations and reported
     damage are the measurement; silent damage and broken worlds are not
     tolerated under any protocol *)
  let t = tree () in
  for seed = 0 to 11 do
    let plan = F.gen ~seed ~nodes:(F.tree_nodes t) adversarial_gen in
    let _agg, v, acc, _w =
      F.run_case_adversarial ~config:(chaos_config protocol) (mixer_cfg ()) t
        plan
    in
    if not (F.adversarial_ok v acc) then
      Alcotest.failf "seed %d (%s) silent damage or broken world: %s / %s" seed
        (protocol_to_string protocol)
        (String.concat ","
           (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c)
              (F.verdict_fields v)))
        (String.concat ","
           (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c)
              (F.accounting_fields acc)))
  done

let test_adversarial_shrink_deterministic () =
  (* an adversarial schedule that fails the adversarial audit (broken
     recovery under an adversarial mix) shrinks, and the minimized plan
     replays bit-identically - the repro-paste guarantee *)
  let t = tree () in
  let plan = F.gen ~seed:42 ~nodes:(F.tree_nodes t) adversarial_gen in
  let case p =
    let _agg, v, acc, _w =
      F.run_case_adversarial
        ~config:(chaos_config Presumed_abort)
        ~broken_recovery:true (mixer_cfg ()) t p
    in
    (v, acc)
  in
  let fails p =
    let v, acc = case p in
    not (F.adversarial_ok v acc)
  in
  Alcotest.(check bool) "broken recovery fails the adversarial audit" true
    (fails plan);
  let small = F.shrink ~check:fails plan in
  Alcotest.(check bool) "shrinking kept the violation" true (fails small);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk below the full plan (%d < %d)" (List.length small)
       (List.length plan))
    true
    (List.length small < List.length plan);
  (* the minimized plan round-trips through its string form and replays
     identically, verdict and accounting both *)
  let reparsed = F.of_string (F.to_string small) in
  let v1, a1 = case small in
  let v2, a2 = case reparsed in
  Alcotest.(check (list (pair string int)))
    "reparsed repro: identical verdict" (F.verdict_fields v1)
    (F.verdict_fields v2);
  Alcotest.(check (list (pair string int)))
    "reparsed repro: identical accounting" (F.accounting_fields a1)
    (F.accounting_fields a2)

(* --- replay faults and the BFT adversary budget ------------------------ *)

let bft_gen =
  {
    adversarial_gen with
    F.replays = 2;
    corruptions = 1;
    corrupt_domain = 3 (* 2f+1 with f=1 *);
  }

let test_replay_forms_parse () =
  let s = "replay@10:coord>sub0:2,replay@20:sub1>sub2:1,corrupt@30:0:-,corrupt@40:2:-" in
  Alcotest.(check string) "replay and corrupt forms parse and reprint" s
    (F.to_string (F.of_string s));
  Alcotest.(check bool) "recognized as adversarial" true
    (F.is_adversarial (F.of_string s));
  Alcotest.(check int) "two distinct corrupted replicas" 2
    (F.corrupted_replicas (F.of_string s));
  Alcotest.(check int) "duplicates count once" 1
    (F.corrupted_replicas (F.of_string "corrupt@5:1:-,corrupt@9:1:-"))

let test_replay_draws_after_legacy () =
  (* replays and corruptions are drawn after every PR7 draw, so both the
     benign prefix and the legacy adversarial wave stay byte-identical *)
  let nodes = F.tree_nodes (tree ()) in
  let second_wave = function
    | F.Replay _ | F.Corrupt_replica _ -> true
    | _ -> false
  in
  for seed = 0 to 15 do
    let legacy = F.gen ~seed ~nodes adversarial_gen in
    let extended = F.gen ~seed ~nodes bft_gen in
    Alcotest.(check string)
      (Printf.sprintf "seed %d legacy plan is a sub-plan" seed)
      (F.to_string legacy)
      (F.to_string (List.filter (fun e -> not (second_wave e)) extended));
    Alcotest.(check bool)
      (Printf.sprintf "seed %d drew the second wave" seed)
      true
      (List.exists second_wave extended)
  done

let test_replays_absorbed protocol () =
  (* genuine stale payloads re-delivered on live links: every legacy
     protocol must refuse or idempotently absorb them *)
  let t = tree () in
  let gen = { F.default_gen with F.replays = 3 } in
  for seed = 0 to 7 do
    let plan = F.gen ~seed ~nodes:(F.tree_nodes t) gen in
    let _agg, v, acc, _w =
      F.run_case_adversarial ~config:(chaos_config protocol) (mixer_cfg ()) t
        plan
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d (%s) replays absorbed" seed
         (protocol_to_string protocol))
      true
      (F.adversarial_ok v acc && acc.F.a_atomicity = 0)
  done

let test_gc_align_is_pure_retiming () =
  let nodes = F.tree_nodes (tree ()) in
  let aligned_gen = { bft_gen with F.gc_align = Some 4.0 } in
  let at = function
    | F.Crash { at; _ }
    | F.Partition { at; _ }
    | F.Drop { at; _ }
    | F.Jitter { at; _ }
    | F.Equivocate { at; _ }
    | F.Flip_vote { at; _ }
    | F.Forge { at; _ }
    | F.Force_heuristic { at; _ }
    | F.Replay { at; _ }
    | F.Corrupt_replica { at; _ } ->
        at
  in
  for seed = 0 to 15 do
    let plain = F.gen ~seed ~nodes bft_gen in
    let aligned = F.gen ~seed ~nodes aligned_gen in
    Alcotest.(check int)
      (Printf.sprintf "seed %d same event count" seed)
      (List.length plain) (List.length aligned);
    Alcotest.(check string)
      (Printf.sprintf "seed %d benign events untouched" seed)
      (F.to_string (List.filter (fun e -> not (F.is_adversarial_event e)) plain))
      (F.to_string
         (List.filter (fun e -> not (F.is_adversarial_event e)) aligned));
    List.iter
      (fun e ->
        if F.is_adversarial_event e then
          Alcotest.(check bool)
            (Printf.sprintf "seed %d event at %.3f on a force boundary" seed
               (at e))
            true
            (at e >= 4.0 && Float.rem (at e) 4.0 = 0.0))
      aligned
  done

let bft_config () = chaos_config (Custom "bft") (* default_config has f=1 *)

let test_bft_sub_threshold_guarantee () =
  (* the tentpole claim: with at most f corrupted replicas, the full
     adversarial mix plus replays achieves zero atomicity violations and
     zero silent damage - certificates hold the commit tree together *)
  let t = tree () in
  for seed = 0 to 9 do
    let plan = F.gen ~seed ~nodes:(F.tree_nodes t) bft_gen in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d stays below threshold" seed)
      true
      (F.corrupted_replicas plan <= 1);
    let _agg, v, acc, _w =
      F.run_case_adversarial ~config:(bft_config ()) (mixer_cfg ()) t plan
    in
    if not (F.adversarial_ok v acc && acc.F.a_atomicity = 0) then
      Alcotest.failf "seed %d broke the sub-threshold guarantee: %s" seed
        (String.concat ","
           (List.map
              (fun (k, c) -> Printf.sprintf "%s=%d" k c)
              (F.accounting_fields acc)))
  done

let test_bft_above_threshold_violates () =
  (* the gate isn't vacuous: hand the adversary the whole ensemble (3 > f)
     and some schedule in the range does inflict an atomicity violation *)
  let t = tree () in
  let gen = { bft_gen with F.corruptions = 3 } in
  let violations = ref 0 in
  for seed = 0 to 19 do
    let plan = F.gen ~seed ~nodes:(F.tree_nodes t) gen in
    if F.corrupted_replicas plan > 1 then begin
      let _agg, _v, acc, _w =
        F.run_case_adversarial ~config:(bft_config ()) (mixer_cfg ()) t plan
      in
      violations := !violations + acc.F.a_atomicity
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "above-threshold corruption violated somewhere (%d)"
       !violations)
    true (!violations > 0)

(* --- every audit counter can fire ---------------------------------------- *)

(* A finished fault-free world with commits, lock-timeout aborts and
   overwritten keys: four members over four hot keys, tampered with through
   public APIs one way at a time.  Each tampering must move exactly one of
   the six atomicity counters, to a known value. *)
let audit_counters =
  [ "committed_missing"; "aborted_applied"; "bad_value"; "divergence";
    "wal_divergence"; "leaked_locks" ]

let finished_world () =
  let _, w, summaries =
    M.run_full ~config:(chaos_config Presumed_abort)
      { M.default_cfg with txns = 80; concurrency = 16; keyspace = 4;
        lock_timeout = 20.0; seed = 5 }
      (tree ())
  in
  (w, summaries)

let read_counters (w, summaries) =
  let fields = F.verdict_fields (F.audit w summaries) in
  let b = M.Audit.breakdown w summaries in
  (* the mixer's own audit agrees with the chaos audit's copy of it *)
  Alcotest.(check (list int)) "Mixer.Audit.breakdown matches Faultlab.audit"
    [ b.M.Audit.committed_missing; b.aborted_applied; b.bad_value ]
    (List.map
       (fun c -> List.assoc c fields)
       [ "committed_missing"; "aborted_applied"; "bad_value" ]);
  List.map (fun c -> (c, List.assoc c fields)) audit_counters

let wal_of w name = (Tpc.Run.node w name).Tpc.Run.wal
let kv_of w name = Tpc.Run.kv w name

let has_record wal (pred : Wal.Log_record.t -> bool) =
  List.exists pred (Wal.Log.all_records wal)

let update_items (x : M.txn_summary) =
  List.filter_map
    (fun (it : M.item) ->
      match it.M.it_op with
      | M.Op_update { key } -> Some (it.M.it_node, key)
      | M.Op_read _ -> None)
    x.M.ts_items

let first what f summaries =
  match List.find_map f summaries with
  | Some found -> found
  | None -> Alcotest.failf "the world has no %s" what

(* drop exactly the durable records [drop] selects from [wal] *)
let compact_away wal ~expect drop =
  Alcotest.(check int) "records compacted away" expect
    (Wal.Log.compact wal ~keep:(fun r -> not (drop r)))

(* A commit whose key a later commit overwrote at some member: losing its
   [Rm_committed] record there leaves the replayed store unchanged. *)
let lose_commit_record (w, summaries) =
  let txn, node =
    first "overwritten commit" (fun (x : M.txn_summary) ->
        if x.M.ts_outcome <> Some Committed then None
        else
          List.find_map
            (fun (node, key) ->
              let kv = kv_of w node in
              if Kvstore.committed_value kv key <> Some (M.txn_value x.M.ts_txn)
              then Some (x.M.ts_txn, node)
              else None)
            (update_items x))
      summaries
  in
  let rm = Kvstore.name (kv_of w node) in
  compact_away (wal_of w node) ~expect:1 (fun r ->
      r.Wal.Log_record.txn = txn && r.node = rm && r.kind = Wal.Log_record.Rm_committed)

(* A lock-timeout abort whose lock was never granted at some member: turn
   its abort records into one resource manager's commit there.  Nothing
   else changes: no write was logged there to replay, and no abort
   evidence is left to diverge from. *)
let abort_becomes_commit (w, summaries) =
  let txn, node =
    first "abort that never wrote" (fun (x : M.txn_summary) ->
        if x.M.ts_outcome <> Some Aborted then None
        else
          List.find_map
            (fun (node, _) ->
              let rm = Kvstore.name (kv_of w node) in
              if
                has_record (wal_of w node) (fun r ->
                    r.txn = x.M.ts_txn && r.node = rm
                    && r.kind = Wal.Log_record.Rm_update)
              then None
              else Some (x.M.ts_txn, node))
            (update_items x))
      summaries
  in
  let aborts_of (r : Wal.Log_record.t) =
    r.txn = txn && r.kind = Wal.Log_record.Rm_aborted
  in
  List.iter
    (fun wal ->
      let n = List.length (List.filter aborts_of (Wal.Log.all_records wal)) in
      compact_away wal ~expect:n aborts_of)
    (Tpc.Run.all_wals w);
  Wal.Log.append (wal_of w node)
    (Wal.Log_record.make ~txn ~node:(Kvstore.name (kv_of w node))
       Wal.Log_record.Rm_committed)

(* a committed transaction's value, committed at a member under a key the
   transaction never wrote there *)
let foreign_value (w, summaries) =
  let txn, node, key =
    first "committed update" (fun (x : M.txn_summary) ->
        match (x.M.ts_outcome, update_items x) with
        | Some Committed, (node, key) :: _ ->
            let other = List.find (fun (n, _) -> n <> node) w.Tpc.Run.nodes in
            if List.mem (fst other, key) (update_items x) then None
            else Some (x.M.ts_txn, fst other, key)
        | _ -> None)
      summaries
  in
  let kv = kv_of w node in
  Alcotest.(check bool) "tamper lock granted" true
    (Kvstore.put kv ~txn:"tamper" ~key ~value:(M.txn_value txn));
  Kvstore.commit kv ~txn:"tamper" ~force:false ignore

(* a commit that one log also records as aborted *)
let stray_abort_record (w, summaries) =
  let txn =
    first "commit" (fun (x : M.txn_summary) ->
        if x.M.ts_outcome = Some Committed then Some x.M.ts_txn else None)
      summaries
  in
  Wal.Log.append (wal_of w "coord")
    (Wal.Log_record.make ~txn ~node:"coord" Wal.Log_record.Aborted)

(* a store that loses its committed values without recovering them *)
let store_forgets (w, _) = Kvstore.crash (kv_of w "sub1")

(* a grant no transaction state accounts for *)
let stray_lock (w, _) =
  Alcotest.(check bool) "stray lock granted" true
    (Lockmgr.try_acquire (Kvstore.locks (kv_of w "sub2")) ~txn:"stray" ~key:"k0"
       Lockmgr.Exclusive)

let test_each_audit_counter_fires () =
  let clean = read_counters (finished_world ()) in
  List.iter
    (fun (c, n) -> Alcotest.(check int) ("untampered " ^ c) 0 n)
    clean;
  List.iter
    (fun (counter, expected, tamper) ->
      let world = finished_world () in
      tamper world;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "only %s fires" counter)
        (List.map (fun c -> (c, if c = counter then expected else 0)) audit_counters)
        (read_counters world))
    [
      ("committed_missing", 1, lose_commit_record);
      ("aborted_applied", 1, abort_becomes_commit);
      ("bad_value", 1, foreign_value);
      ("divergence", 1, stray_abort_record);
      ("wal_divergence", 1, store_forgets);
      ("leaked_locks", 1, stray_lock);
    ]

(* --- each damage class fires alone ---------------------------------------- *)

(* The damage accounting of a finished world, checked against the
   record-list reference. *)
let read_damage (w, summaries) =
  let fields = F.accounting_fields (F.account w summaries) in
  Alcotest.(check (list (pair string int)))
    "Faultlab.account matches the reference"
    (F.accounting_fields (Audit_ref.account w summaries))
    fields;
  fields

(* a committed transaction and a subordinate it updated *)
let commit_at_subordinate summaries =
  first "commit updating a subordinate"
    (fun (x : M.txn_summary) ->
      if x.M.ts_outcome <> Some Committed then None
      else
        List.find_map
          (fun (node, _) -> if node <> "coord" then Some (x.M.ts_txn, node) else None)
          (update_items x))
    summaries

let append w node ~txn ~writer kind =
  Wal.Log.append (wal_of w node) (Wal.Log_record.make ~txn ~node:writer kind)

(* The member durably records an abort of the commit, then a heuristic
   abort after it: it was told what it did, so no honest party sees damage,
   and its abort contradicts the commit. *)
let told_what_it_did (w, summaries) =
  let txn, node = commit_at_subordinate summaries in
  append w node ~txn ~writer:node Wal.Log_record.Aborted;
  append w node ~txn ~writer:node Wal.Log_record.Heuristic_abort

(* a heuristic abort of the commit, reported to the coordinator's console
   on a late acknowledgment *)
let heuristic_reported (w, summaries) =
  let txn, node = commit_at_subordinate summaries in
  append w node ~txn ~writer:node Wal.Log_record.Heuristic_abort;
  Tpc.Net.inject w.Tpc.Run.net ~src:node ~dst:"coord"
    [
      Tpc.Msg.Ack_msg
        {
          txn;
          damage = [ { Tpc.Msg.d_node = node; d_action = Aborted; d_outcome = Committed } ];
          pending = false;
        };
    ];
  Simkernel.Engine.run w.Tpc.Run.engine

(* The store aborts the commit, and its member logs the heuristic abort
   that explains it only afterwards; no console hears of it. *)
let heuristic_silent (w, summaries) =
  let txn, node = commit_at_subordinate summaries in
  append w node ~txn ~writer:(Kvstore.name (kv_of w node)) Wal.Log_record.Rm_aborted;
  append w node ~txn ~writer:node Wal.Log_record.Heuristic_abort

(* a store left in doubt: a prepared write, recovered across a crash *)
let store_in_doubt (w, _) =
  let kv = kv_of w "sub1" in
  Alcotest.(check bool) "tamper lock granted" true
    (Kvstore.put kv ~txn:"tamper" ~key:"k0" ~value:"tamper");
  Kvstore.prepare kv ~txn:"tamper" ~force:true ignore;
  Simkernel.Engine.run w.Tpc.Run.engine;
  Kvstore.crash kv;
  Kvstore.recover kv

let test_each_damage_class_fires () =
  let clean = read_damage (finished_world ()) in
  List.iter (fun (c, n) -> Alcotest.(check int) ("untampered " ^ c) 0 n) clean;
  List.iter
    (fun (class_, tamper) ->
      let world = finished_world () in
      tamper world;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "only %s fires" class_)
        (List.map (fun (c, _) -> (c, if c = class_ then 1 else 0)) clean)
        (read_damage world))
    [
      ("atomicity_violations", told_what_it_did);
      ("heur_damage_reported", heuristic_reported);
      ("heur_damage_silent", heuristic_silent);
      ("blocked", store_in_doubt);
    ]

(* --- the row-reading audits against the record-list reference --------- *)

(* Mixer.Audit, Faultlab.audit and Faultlab.account read the logs' rows
   and keep their evidence by transaction id; Audit_ref is the code they
   replaced, reading record lists keyed by name.  Every verdict must
   agree: on benign, broken-recovery and adversarial cells of all three
   protocols, and on the ledger's chaos cell 309, which fails the audit.
   Answers the reference's verdict and accounting. *)
let audits_agree ~label ?(broken_recovery = false) config mix tree plan =
  let _, w, s =
    M.run_full ~config ~inject:(F.inject ~broken_recovery plan) mix tree
  in
  let show fields =
    String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) fields)
  in
  let breakdown (b : M.Audit.breakdown) =
    [
      ("committed_missing", b.committed_missing);
      ("aborted_applied", b.aborted_applied);
      ("bad_value", b.bad_value);
    ]
  in
  let check what a b = Alcotest.(check string) (label ^ ": " ^ what) (show b) (show a) in
  check "breakdown"
    (breakdown (M.Audit.breakdown w s))
    (breakdown (Audit_ref.Mixer_audit.breakdown w s));
  Alcotest.(check int) (label ^ ": divergence")
    (Audit_ref.Mixer_audit.divergence (Audit_ref.Mixer_audit.scan w s))
    (M.Audit.divergence (M.Audit.scan w s));
  let verdict = Audit_ref.audit w s and accounting = Audit_ref.account w s in
  check "verdict" (F.verdict_fields (F.audit w s)) (F.verdict_fields verdict);
  check "accounting"
    (F.accounting_fields (F.account w s))
    (F.accounting_fields accounting);
  (verdict, accounting)

let test_audits_match_reference () =
  let t = tree () in
  let nodes = F.tree_nodes t in
  (* what the cases found, so the comparison is known not to be vacuous *)
  let failed = ref 0 and diverged = ref 0 and damaged = ref 0 in
  let tally (v, (a : F.accounting)) =
    if not (F.ok v) then incr failed;
    if v.F.v_divergence > 0 then incr diverged;
    if a.a_heur_reported + a.a_heur_silent > 0 then incr damaged
  in
  List.iter
    (fun protocol ->
      let config = chaos_config protocol in
      let name = protocol_to_string protocol in
      (* seed 229 forges a transaction that only a heuristic commit
         commits, and that something aborts *)
      List.iter
        (fun seed ->
          let mix = mixer_cfg ~seed () in
          let label what = Printf.sprintf "%s seed %d %s" name seed what in
          if seed < 6 then begin
            let plan = F.gen ~seed ~nodes F.default_gen in
            tally (audits_agree ~label:(label "benign") config mix t plan);
            tally
              (audits_agree ~label:(label "broken recovery")
                 ~broken_recovery:true config mix t plan)
          end;
          tally
            (audits_agree ~label:(label "adversarial") config mix t
               (F.gen ~seed ~nodes adversarial_gen)))
        (List.init 32 Fun.id @ [ 229 ]))
    [ Basic; Presumed_abort; Presumed_nothing ];
  (* the ledger's chaos-cells configuration, cell 309 *)
  let cells_tree = Workload.mixer_tree ~n:4 ~opts:[] () in
  let config =
    default_config |> with_trace_events false
    |> with_retries ~interval:25.0 ~max:8
    |> with_prepare_retries 2 |> with_retry_backoff 2.0
  in
  let plan =
    F.gen ~seed:309 ~nodes:(F.tree_nodes cells_tree)
      { F.default_gen with horizon = 300.0 }
  in
  let mix = { M.default_cfg with txns = 60; concurrency = 6; seed = 309 } in
  tally (audits_agree ~label:"chaos cell 309" config mix cells_tree plan);
  (* the cells of test/golden/chaos-damage.sh: seeds 42..61 of
     `tpc_sim chaos --txns 40` per protocol and adversary mode *)
  let cli_tree = Workload.mixer_tree ~n:5 ~opts:[] () in
  let gen = { F.default_gen with horizon = 150.0 } in
  let adversary =
    { gen with F.equivocations = 2; vote_flips = 2; forgeries = 2; forced_heuristics = 2 }
  in
  let modes =
    [
      ("--adversary", false, adversary);
      ("--adversary --broken-recovery", true, adversary);
      ("--forced-heuristics 6", false, { gen with F.forced_heuristics = 6 });
    ]
  in
  List.iter
    (fun (protocol, modes) ->
      let config = chaos_config protocol |> with_trace_events false in
      List.iter
        (fun (mode, broken_recovery, gen) ->
          for seed = 42 to 61 do
            let label =
              Printf.sprintf "%s %s seed %d" (protocol_to_string protocol) mode seed
            in
            tally
              (audits_agree ~label ~broken_recovery config
                 { M.default_cfg with txns = 40; concurrency = 8; seed }
                 cli_tree
                 (F.gen ~seed ~nodes:(F.tree_nodes cli_tree) gen))
          done)
        modes)
    [
      (Basic, modes);
      (Presumed_abort, modes);
      (Presumed_nothing, modes);
      ( Custom "bft",
        modes
        @ [
            ( "--equivocations 3 --corrupt-replicas 3",
              false,
              { gen with F.equivocations = 3; corruptions = 3 } );
          ] );
    ];
  Alcotest.(check bool) "some case fails the audit" true (!failed > 0);
  Alcotest.(check bool) "some case diverges" true (!diverged > 0);
  Alcotest.(check bool) "some case has heuristic damage" true (!damaged > 0)

(* Plans no run could mean: a horizon that is negative, nan or inf (every
   fault at infinity), or a negative count of any event kind. *)
let test_impossible_plans_rejected () =
  let nodes = [ "coord"; "sub0"; "sub1" ] and g = F.default_gen in
  let rejects (what, cfg) =
    match F.gen ~seed:1 ~nodes cfg with
    | _ -> Alcotest.failf "gen accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  List.iter rejects
    [
      ("horizon inf", { g with F.horizon = infinity });
      ("horizon nan", { g with F.horizon = nan });
      ("horizon -5", { g with F.horizon = -5.0 });
      ("crashes -1", { g with F.crashes = -1 });
      ("partitions -1", { g with F.partitions = -1 });
      ("drops -1", { g with F.drops = -1 });
      ("jitters -1", { g with F.jitters = -1 });
      ("equivocations -1", { g with F.equivocations = -1 });
      ("vote_flips -1", { g with F.vote_flips = -1 });
      ("forgeries -1", { g with F.forgeries = -1 });
      ("forced_heuristics -1", { g with F.forced_heuristics = -1 });
      ("replays -1", { g with F.replays = -1 });
      ("corruptions -1", { g with F.corruptions = -1 });
    ];
  (* the edges stay legal: everything at time 0, or nothing at all *)
  Alcotest.(check bool) "horizon 0 plans its faults" true
    (F.gen ~seed:1 ~nodes { g with F.horizon = 0.0 } <> []);
  Alcotest.(check int) "zero counts plan nothing" 0
    (List.length
       (F.gen ~seed:1 ~nodes
          { g with F.crashes = 0; partitions = 0; drops = 0; jitters = 0 }))

(* Members on one shared log fail together: one crash of a shared-log
   subordinate once ran the log's crash under its live parent, losing the
   parent's volatile records and forces in flight.  The run is the replay
   line `chaos -n 5 --seed 81 --txns 100 -c 8 -O shared-log --plan
   'crash@197.293:sub1:+345.482'`, which reported committed_missing 8 and
   wal_divergence 4. *)
let test_shared_log_crash_fails_the_domain () =
  let opts = [ `Shared_log ] in
  let config =
    chaos_config Presumed_abort |> with_opts opts |> with_trace_events false
  in
  let tree = Workload.mixer_tree ~n:5 ~opts () in
  let plan = F.of_string "crash@197.293:sub1:+345.482" in
  let _agg, v =
    F.run_case ~config
      { M.default_cfg with txns = 100; concurrency = 8; seed = 81 }
      tree plan
  in
  Alcotest.(check (list (pair string int)))
    "clean verdict"
    (List.map (fun (k, _) -> (k, 0)) (F.verdict_fields v))
    (F.verdict_fields v)

(* A voter that answered read-only left before the decision, so it must
   not answer an inquiry with an outcome.  In this plan coord delegates to
   sub2, the delegation is lost and coord crashes; restarted, coord asks
   its children.  sub1 voted read-only, and used to answer commit, which
   coord adopted although sub2 never decided (divergence 1,
   committed_missing 1 under pa and basic). *)
let test_read_only_voter_claims_no_outcome () =
  let opts = [ `Read_only; `Last_agent ] in
  let tree = Workload.mixer_tree ~n:4 ~opts () in
  let plan = F.of_string "drop@40.104:coord>sub2:1,crash@63.307:coord:+67.176" in
  List.iter
    (fun protocol ->
      let config =
        chaos_config protocol |> with_opts opts |> with_trace_events false
      in
      let _agg, v =
        F.run_case ~config
          { M.default_cfg with txns = 60; concurrency = 6; seed = 183 }
          tree plan
      in
      let field k = List.assoc k (F.verdict_fields v) in
      let name = protocol_to_string protocol in
      Alcotest.(check int) (name ^ " divergence") 0 (field "divergence");
      Alcotest.(check int)
        (name ^ " committed_missing") 0 (field "committed_missing");
      Alcotest.(check bool) (name ^ " audit passes") true (F.ok v))
    [ Presumed_abort; Basic ]

let suite =
  [
    Alcotest.test_case "plan round-trips" `Quick test_plan_round_trip;
    Alcotest.test_case "all event forms parse" `Quick test_plan_forms_parse;
    Alcotest.test_case "identical seed+plan replays bit-identically" `Quick
      test_identical_replay;
    Alcotest.test_case "PA sweep audits clean" `Quick
      (test_sweep_clean Presumed_abort);
    Alcotest.test_case "PN sweep audits clean" `Quick
      (test_sweep_clean Presumed_nothing);
    Alcotest.test_case "broken recovery caught and shrunk" `Quick
      test_broken_recovery_caught_and_shrunk;
    Alcotest.test_case "each audit counter fires alone" `Quick
      test_each_audit_counter_fires;
    Alcotest.test_case "adversarial event forms parse" `Quick
      test_adversarial_forms_parse;
    Alcotest.test_case "adversarial plans generate and round-trip" `Quick
      test_adversarial_gen_round_trip;
    Alcotest.test_case "adversarial draws leave benign plans untouched" `Quick
      test_adversarial_draws_dont_disturb_benign;
    Alcotest.test_case "adversarial run replays bit-identically" `Quick
      test_adversarial_replay_identical;
    Alcotest.test_case "Basic adversarial sweep classifies cleanly" `Quick
      (test_adversarial_sweep_classified Basic);
    Alcotest.test_case "PA adversarial sweep classifies cleanly" `Quick
      (test_adversarial_sweep_classified Presumed_abort);
    Alcotest.test_case "PN adversarial sweep classifies cleanly" `Quick
      (test_adversarial_sweep_classified Presumed_nothing);
    Alcotest.test_case "adversarial shrink is deterministic and replayable"
      `Quick test_adversarial_shrink_deterministic;
    Alcotest.test_case "replay and corrupt forms parse" `Quick
      test_replay_forms_parse;
    Alcotest.test_case "second-wave draws leave legacy plans untouched" `Quick
      test_replay_draws_after_legacy;
    Alcotest.test_case "Basic absorbs replays" `Quick
      (test_replays_absorbed Basic);
    Alcotest.test_case "PA absorbs replays" `Quick
      (test_replays_absorbed Presumed_abort);
    Alcotest.test_case "PN absorbs replays" `Quick
      (test_replays_absorbed Presumed_nothing);
    Alcotest.test_case "gc alignment retimes only adversarial events" `Quick
      test_gc_align_is_pure_retiming;
    Alcotest.test_case "bft sub-threshold guarantee holds" `Quick
      test_bft_sub_threshold_guarantee;
    Alcotest.test_case "bft above-threshold corruption violates" `Quick
      test_bft_above_threshold_violates;
    Alcotest.test_case "audits agree with the record-list reference" `Quick
      test_audits_match_reference;
    Alcotest.test_case "impossible plans rejected" `Quick
      test_impossible_plans_rejected;
    Alcotest.test_case "shared-log crash takes its log-mates down" `Quick
      test_shared_log_crash_fails_the_domain;
    Alcotest.test_case "each damage class fires alone" `Quick
      test_each_damage_class_fires;
    Alcotest.test_case "read-only voter claims no outcome" `Quick
      test_read_only_voter_claims_no_outcome;
  ]
