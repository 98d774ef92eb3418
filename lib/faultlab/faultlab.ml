(* Deterministic chaos engine: seeded fault plans, execution against a
   live mixer world, fault-aware acceptance audit, greedy schedule
   shrinking.  See faultlab.mli for the contract. *)

type forge_kind = Forge_prepare | Forge_commit | Forge_abort

type event =
  | Crash of { at : float; node : string; restart_after : float option }
  | Partition of {
      at : float;
      a : string;
      b : string;
      heal_after : float option;
    }
  | Drop of { at : float; src : string; dst : string; nth : int }
  | Jitter of { at : float; src : string; dst : string; amp : float }
  (* adversarial vocabulary: a Byzantine relay and a rogue operator *)
  | Equivocate of { at : float; node : string; count : int }
  | Flip_vote of { at : float; src : string; dst : string; nth : int }
  | Forge of { at : float; src : string; dst : string; kind : forge_kind }
  | Force_heuristic of { at : float; node : string; action : Tpc.Types.outcome }
  | Replay of { at : float; src : string; dst : string; count : int }
  (* corrupt one coordinator replica of the BFT ensemble: from [at] on, the
     adversary holds that replica's signing key.  Only with f+1 distinct
     corrupted replicas can it mint a valid decision certificate. *)
  | Corrupt_replica of { at : float; replica : int }

type plan = event list

let is_adversarial_event = function
  | Equivocate _ | Flip_vote _ | Forge _ | Force_heuristic _ | Replay _
  | Corrupt_replica _ ->
      true
  | Crash _ | Partition _ | Drop _ | Jitter _ -> false

let is_adversarial plan = List.exists is_adversarial_event plan

(* Distinct BFT coordinator replicas this plan corrupts: the [f]-threshold
   comparison the chaos gate runs ("corrupted <= f implies zero atomicity
   violations") is against this static count. *)
let corrupted_replicas plan =
  List.length
    (List.sort_uniq compare
       (List.filter_map
          (function Corrupt_replica { replica; _ } -> Some replica | _ -> None)
          plan))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* Generated times are quantized to 1ms (see [norm]), so %.12g prints them
   exactly and the printed plan replays the identical schedule. *)
let fl x = Printf.sprintf "%.12g" x

let opt_delay = function Some d -> "+" ^ fl d | None -> "-"

let forge_kind_to_string = function
  | Forge_prepare -> "prepare"
  | Forge_commit -> "commit"
  | Forge_abort -> "abort"

let action_to_string = function
  | Tpc.Types.Committed -> "commit"
  | Tpc.Types.Aborted -> "abort"

let event_to_string = function
  | Crash { at; node; restart_after } ->
      Printf.sprintf "crash@%s:%s:%s" (fl at) node (opt_delay restart_after)
  | Partition { at; a; b; heal_after } ->
      Printf.sprintf "part@%s:%s|%s:%s" (fl at) a b (opt_delay heal_after)
  | Drop { at; src; dst; nth } ->
      Printf.sprintf "drop@%s:%s>%s:%d" (fl at) src dst nth
  | Jitter { at; src; dst; amp } ->
      Printf.sprintf "jit@%s:%s>%s:%s" (fl at) src dst (fl amp)
  | Equivocate { at; node; count } ->
      Printf.sprintf "equiv@%s:%s:%d" (fl at) node count
  | Flip_vote { at; src; dst; nth } ->
      Printf.sprintf "flip@%s:%s>%s:%d" (fl at) src dst nth
  | Forge { at; src; dst; kind } ->
      Printf.sprintf "forge@%s:%s>%s:%s" (fl at) src dst
        (forge_kind_to_string kind)
  | Force_heuristic { at; node; action } ->
      Printf.sprintf "heur@%s:%s:%s" (fl at) node (action_to_string action)
  | Replay { at; src; dst; count } ->
      Printf.sprintf "replay@%s:%s>%s:%d" (fl at) src dst count
  | Corrupt_replica { at; replica } ->
      Printf.sprintf "corrupt@%s:%d:-" (fl at) replica

let to_string plan = String.concat "," (List.map event_to_string plan)

let bad s = invalid_arg (Printf.sprintf "Faultlab.of_string: malformed %S" s)

let parse_float s tok = match float_of_string_opt s with
  | Some f -> f
  | None -> bad tok

let parse_delay s tok =
  if s = "-" then None
  else if String.length s > 1 && s.[0] = '+' then
    Some (parse_float (String.sub s 1 (String.length s - 1)) tok)
  else bad tok

let split2 sep s tok =
  match String.index_opt s sep with
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> bad tok

let parse_event tok =
  let kind, rest = split2 '@' tok tok in
  match String.split_on_char ':' rest with
  | [ at; spec; arg ] -> (
      let at = parse_float at tok in
      match kind with
      | "crash" -> Crash { at; node = spec; restart_after = parse_delay arg tok }
      | "part" ->
          let a, b = split2 '|' spec tok in
          Partition { at; a; b; heal_after = parse_delay arg tok }
      | "drop" ->
          let src, dst = split2 '>' spec tok in
          let nth = match int_of_string_opt arg with
            | Some n when n >= 1 -> n
            | _ -> bad tok
          in
          Drop { at; src; dst; nth }
      | "jit" ->
          let src, dst = split2 '>' spec tok in
          Jitter { at; src; dst; amp = parse_float arg tok }
      | "equiv" ->
          let count = match int_of_string_opt arg with
            | Some n when n >= 1 -> n
            | _ -> bad tok
          in
          Equivocate { at; node = spec; count }
      | "flip" ->
          let src, dst = split2 '>' spec tok in
          let nth = match int_of_string_opt arg with
            | Some n when n >= 1 -> n
            | _ -> bad tok
          in
          Flip_vote { at; src; dst; nth }
      | "forge" ->
          let src, dst = split2 '>' spec tok in
          let kind = match arg with
            | "prepare" -> Forge_prepare
            | "commit" -> Forge_commit
            | "abort" -> Forge_abort
            | _ -> bad tok
          in
          Forge { at; src; dst; kind }
      | "heur" ->
          let action = match arg with
            | "commit" -> Tpc.Types.Committed
            | "abort" -> Tpc.Types.Aborted
            | _ -> bad tok
          in
          Force_heuristic { at; node = spec; action }
      | "replay" ->
          let src, dst = split2 '>' spec tok in
          let count = match int_of_string_opt arg with
            | Some n when n >= 1 -> n
            | _ -> bad tok
          in
          Replay { at; src; dst; count }
      | "corrupt" ->
          if arg <> "-" then bad tok;
          let replica = match int_of_string_opt spec with
            | Some n when n >= 0 -> n
            | _ -> bad tok
          in
          Corrupt_replica { at; replica }
      | _ -> bad tok)
  | _ -> bad tok

let of_string s =
  if s = "" then []
  else List.map parse_event (String.split_on_char ',' s)

(* ------------------------------------------------------------------ *)
(* Seeded generation                                                   *)
(* ------------------------------------------------------------------ *)

type gen_cfg = {
  crashes : int;
  partitions : int;
  drops : int;
  jitters : int;
  horizon : float;
  restart_prob : float;
  mean_downtime : float;
  mean_partition : float;
  jitter_amp : float;
  (* adversarial event counts; all default 0, and their draws come after
     every benign draw, so benign plans are byte-identical to pre-adversary
     faultlab for the same seed *)
  equivocations : int;
  vote_flips : int;
  forgeries : int;
  forced_heuristics : int;
  (* the second adversarial generation wave, drawn strictly after the
     first so plans generated with these at zero/None stay byte-identical
     to earlier faultlab for the same seed *)
  replays : int;
  corruptions : int;  (* distinct BFT replicas to corrupt, capped at domain *)
  corrupt_domain : int;  (* replica index space: 2f+1 for the target f *)
  gc_align : float option;
      (* targeted schedule: snap every adversarial event time to the
         nearest multiple of this group-commit flush window, so faults
         land exactly at the batched-force boundary.  Pure post-draw
         retiming - zero RNG draws consumed *)
}

let default_gen =
  {
    crashes = 2;
    partitions = 1;
    drops = 3;
    jitters = 2;
    horizon = 2000.0;
    restart_prob = 0.8;
    mean_downtime = 150.0;
    mean_partition = 120.0;
    jitter_amp = 4.0;
    equivocations = 0;
    vote_flips = 0;
    forgeries = 0;
    forced_heuristics = 0;
    replays = 0;
    corruptions = 0;
    corrupt_domain = 3;
    gc_align = None;
  }

let norm x = Float.round (x *. 1000.0) /. 1000.0

let event_time = function
  | Crash { at; _ } | Partition { at; _ } | Drop { at; _ } | Jitter { at; _ }
  | Equivocate { at; _ } | Flip_vote { at; _ } | Forge { at; _ }
  | Force_heuristic { at; _ } | Replay { at; _ } | Corrupt_replica { at; _ } ->
      at

let sort_plan plan =
  List.sort
    (fun a b ->
      match compare (event_time a) (event_time b) with
      | 0 -> compare (event_to_string a) (event_to_string b)
      | c -> c)
    plan

let gen ~seed ~nodes cfg =
  if nodes = [] then invalid_arg "Faultlab.gen: empty node list";
  if not (Float.is_finite cfg.horizon && cfg.horizon >= 0.0) then
    invalid_arg "Faultlab.gen: horizon must be finite and >= 0";
  if
    cfg.crashes < 0 || cfg.partitions < 0 || cfg.drops < 0 || cfg.jitters < 0
    || cfg.equivocations < 0 || cfg.vote_flips < 0 || cfg.forgeries < 0
    || cfg.forced_heuristics < 0 || cfg.replays < 0 || cfg.corruptions < 0
  then invalid_arg "Faultlab.gen: event counts must be >= 0";
  let rng = Simkernel.Det_rng.create ~seed in
  let arr = Array.of_list nodes in
  let pick () = Simkernel.Det_rng.pick rng arr in
  let pick_pair () =
    (* distinct endpoints; the caller guarantees >= 2 nodes *)
    let a = pick () in
    let rec other () =
      let b = pick () in
      if b = a then other () else b
    in
    (a, other ())
  in
  let at () = norm (Simkernel.Det_rng.float rng cfg.horizon) in
  let delay ~mean =
    if Simkernel.Det_rng.float rng 1.0 < cfg.restart_prob then
      Some (norm (1.0 +. Simkernel.Det_rng.exponential rng ~mean))
    else None
  in
  let evs = ref [] in
  let push e = evs := e :: !evs in
  for _ = 1 to cfg.crashes do
    push
      (Crash
         {
           at = at ();
           node = pick ();
           restart_after = delay ~mean:cfg.mean_downtime;
         })
  done;
  if Array.length arr >= 2 then begin
    for _ = 1 to cfg.partitions do
      let a, b = pick_pair () in
      push (Partition { at = at (); a; b; heal_after = delay ~mean:cfg.mean_partition })
    done;
    for _ = 1 to cfg.drops do
      let src, dst = pick_pair () in
      push (Drop { at = at (); src; dst; nth = 1 + Simkernel.Det_rng.int rng 4 })
    done;
    for _ = 1 to cfg.jitters do
      let src, dst = pick_pair () in
      let amp = norm (0.5 +. Simkernel.Det_rng.float rng (Float.max 0.0 (cfg.jitter_amp -. 0.5))) in
      push (Jitter { at = at (); src; dst; amp })
    done
  end;
  (* adversarial draws strictly after every benign draw: a plan generated
     with all adversarial counts at zero consumes the identical RNG prefix
     and is byte-identical to one from the pre-adversary generator *)
  for _ = 1 to cfg.equivocations do
    push
      (Equivocate
         { at = at (); node = pick (); count = 1 + Simkernel.Det_rng.int rng 3 })
  done;
  if Array.length arr >= 2 then begin
    for _ = 1 to cfg.vote_flips do
      let src, dst = pick_pair () in
      push (Flip_vote { at = at (); src; dst; nth = 1 + Simkernel.Det_rng.int rng 3 })
    done;
    for _ = 1 to cfg.forgeries do
      let src, dst = pick_pair () in
      let kind =
        match Simkernel.Det_rng.int rng 3 with
        | 0 -> Forge_prepare
        | 1 -> Forge_commit
        | _ -> Forge_abort
      in
      push (Forge { at = at (); src; dst; kind })
    done
  end;
  for _ = 1 to cfg.forced_heuristics do
    let action =
      if Simkernel.Det_rng.int rng 2 = 0 then Tpc.Types.Committed
      else Tpc.Types.Aborted
    in
    push (Force_heuristic { at = at (); node = pick (); action })
  done;
  (* second adversarial wave: replays, then replica corruptions - again
     strictly after every earlier draw, so PR7-era adversarial plans stay
     byte-identical for the same seed when these counts are zero *)
  if Array.length arr >= 2 then
    for _ = 1 to cfg.replays do
      let src, dst = pick_pair () in
      push (Replay { at = at (); src; dst; count = 1 + Simkernel.Det_rng.int rng 2 })
    done;
  let domain = max 1 cfg.corrupt_domain in
  let chosen : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  for _ = 1 to min cfg.corruptions domain do
    let when_ = at () in
    let rec fresh () =
      let r = Simkernel.Det_rng.int rng domain in
      if Hashtbl.mem chosen r then fresh () else r
    in
    let r = fresh () in
    Hashtbl.replace chosen r ();
    push (Corrupt_replica { at = when_; replica = r })
  done;
  (* targeted scheduling: retime adversarial events onto the group-commit
     flush boundary.  Post-draw, so alignment never perturbs the RNG
     stream; benign events keep their natural times. *)
  let aligned =
    match cfg.gc_align with
    | Some w when w > 0.0 ->
        let snap at = norm (Float.max w (Float.round (at /. w) *. w)) in
        List.map
          (fun e ->
            if not (is_adversarial_event e) then e
            else
              match e with
              | Equivocate r -> Equivocate { r with at = snap r.at }
              | Flip_vote r -> Flip_vote { r with at = snap r.at }
              | Forge r -> Forge { r with at = snap r.at }
              | Force_heuristic r -> Force_heuristic { r with at = snap r.at }
              | Replay r -> Replay { r with at = snap r.at }
              | Corrupt_replica r -> Corrupt_replica { r with at = snap r.at }
              | Crash _ | Partition _ | Drop _ | Jitter _ -> e)
          !evs
    | _ -> !evs
  in
  sort_plan aligned

let tree_nodes tree =
  List.map (fun (p : Tpc.Types.profile) -> p.p_name) (Tpc.Types.tree_members tree)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let flip_outcome = function
  | Tpc.Types.Committed -> Tpc.Types.Aborted
  | Tpc.Types.Aborted -> Tpc.Types.Committed

let flip_vote = function
  | Tpc.Types.Vote_yes _ -> Tpc.Types.Vote_no
  | Tpc.Types.Vote_no -> Tpc.Types.Vote_yes { reliable = false; leave_out_ok = false }
  | Tpc.Types.Vote_read_only -> Tpc.Types.Vote_read_only

let cell tbl key init =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = ref init in
      Hashtbl.replace tbl key r;
      r

let inject ?(broken_recovery = false) ?(jitter_seed = 0x5eed) plan
    (w : Tpc.Run.world) =
  let engine = w.Tpc.Run.engine in
  let net = w.Tpc.Run.net in
  let sched_at ~at f = ignore (Simkernel.Engine.schedule_at engine ~time:at f) in
  let sched_after ~delay f =
    ignore (Simkernel.Engine.schedule engine ~delay f)
  in
  let known name = List.mem_assoc name w.Tpc.Run.nodes in
  let jit_amps : (string * string, float) Hashtbl.t = Hashtbl.create 4 in
  if List.exists (function Jitter _ -> true | _ -> false) plan then begin
    let jrng = Simkernel.Det_rng.create ~seed:jitter_seed in
    Tpc.Net.set_jitter net
      (Some
         (fun ~src ~dst ->
           match Hashtbl.find_opt jit_amps (src, dst) with
           | Some amp -> Simkernel.Det_rng.float jrng amp
           | None -> 0.0))
  end;
  (* BFT replica corruption: the set of coordinator-replica signing keys
     the adversary holds right now, filled in by [Corrupt_replica] events
     as they fire.  Only with a full f+1 quorum of corrupted replicas can
     it mint a certificate that validates - below that threshold every
     forged or equivocated decision is uncertifiable and honest BFT
     members refuse it. *)
  let corrupted : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let f = max 0 w.Tpc.Run.cfg.Tpc.Types.bft_f in
  let forged_cert ~txn ~outcome =
    if Hashtbl.length corrupted < f + 1 then None
    else
      let replicas =
        List.filteri
          (fun i _ -> i <= f)
          (List.sort compare
             (Hashtbl.fold (fun r () acc -> r :: acc) corrupted []))
      in
      Some
        {
          Tpc.Msg.c_endorsements =
            List.map
              (fun replica ->
                Tpc.Msg.endorse ~replica ~txn ~outcome ~votes:"forged")
              replicas;
        }
  in
  (* The Byzantine relay: one netsim mutator serves equivocation (flip the
     next [count] outcomes this node announces, so different members hear
     different decisions), in-flight vote flipping (the [nth] vote on a
     link, counted like [drop_nth], turns YES into NO or NO into YES) and
     the replay tap (remember the last bundle seen per link so [Replay]
     can re-deliver genuine stale traffic).  Installed only when the plan
     needs it, so benign plans leave the network untouched.  A flipped
     vote keeps its stale signature tag and an equivocated decision keeps
     its stale certificate unless the adversary can re-sign - exactly the
     power a real Byzantine relay has. *)
  let equiv_left : (string, int ref) Hashtbl.t = Hashtbl.create 4 in
  let votes_seen : (string * string, int ref) Hashtbl.t = Hashtbl.create 4 in
  let flip_targets : (string * string, int list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let last_bundle : (string * string, Tpc.Msg.payload list) Hashtbl.t =
    Hashtbl.create 8
  in
  let wants_replay =
    List.exists (function Replay _ -> true | _ -> false) plan
  in
  if
    List.exists
      (function Equivocate _ | Flip_vote _ | Replay _ -> true | _ -> false)
      plan
  then
    Tpc.Net.set_mutator net
      (Some
         (fun ~src ~dst payloads ->
           let out =
             List.map
               (fun (p : Tpc.Msg.payload) ->
                 match p with
                 | Tpc.Msg.Decision_msg { txn; outcome; cert } -> (
                     match Hashtbl.find_opt equiv_left src with
                     | Some n when !n > 0 ->
                         decr n;
                         let outcome = flip_outcome outcome in
                         let cert =
                           match forged_cert ~txn ~outcome with
                           | Some c -> Some c
                           | None -> cert
                         in
                         Tpc.Msg.Decision_msg { txn; outcome; cert }
                     | _ -> p)
                 | Tpc.Msg.Vote_msg v ->
                     let seen = cell votes_seen (src, dst) 0 in
                     incr seen;
                     let targets = cell flip_targets (src, dst) [] in
                     if List.mem !seen !targets then begin
                       targets := List.filter (fun n -> n <> !seen) !targets;
                       Tpc.Msg.Vote_msg { v with vote = flip_vote v.vote }
                     end
                     else p
                 | _ -> p)
               payloads
           in
           if wants_replay then Hashtbl.replace last_bundle (src, dst) out;
           out))
  else ();
  let forge_seq = ref 0 in
  List.iter
    (function
      | Crash { at; node; restart_after } ->
          if known node then
            sched_at ~at (fun () ->
                (* the member's failure domain (its log-mates) fails and
                   restarts with it, in tree order *)
                let down =
                  List.filter
                    (fun p -> not (Tpc.Participant.is_crashed p))
                    (Tpc.Participant.failure_domain (Tpc.Run.participant w node))
                in
                if down <> [] then begin
                  List.iter Tpc.Participant.force_crash down;
                  match restart_after with
                  | None -> ()
                  | Some d ->
                      sched_after ~delay:d (fun () ->
                          List.iter
                            (fun p ->
                              if Tpc.Participant.is_crashed p then
                                if broken_recovery then
                                  Tpc.Participant.force_restart_amnesia p
                                else Tpc.Participant.force_restart p)
                            down)
                end)
      | Partition { at; a; b; heal_after } ->
          if known a && known b && a <> b then
            sched_at ~at (fun () ->
                Tpc.Net.partition net a b;
                match heal_after with
                | None -> ()
                | Some d -> sched_after ~delay:d (fun () -> Tpc.Net.heal net a b))
      | Drop { at; src; dst; nth } ->
          if known src && known dst && src <> dst then
            sched_at ~at (fun () -> Tpc.Net.drop_nth net ~src ~dst ~nth)
      | Jitter { at; src; dst; amp } ->
          sched_at ~at (fun () -> Hashtbl.replace jit_amps (src, dst) amp)
      | Equivocate { at; node; count } ->
          if known node then
            sched_at ~at (fun () ->
                let c = cell equiv_left node 0 in
                c := !c + count)
      | Flip_vote { at; src; dst; nth } ->
          if known src && known dst && src <> dst then
            sched_at ~at (fun () ->
                (* like [drop_nth]: the nth vote counted from activation *)
                let seen = !(cell votes_seen (src, dst) 0) in
                let targets = cell flip_targets (src, dst) [] in
                targets := (seen + nth) :: !targets)
      | Forge { at; src; dst; kind } ->
          if known src && known dst && src <> dst then begin
            (* ghost ids are assigned in plan order at scheduling time, so
               the same plan string always forges the same transactions *)
            let ghost = Printf.sprintf "forged-%d" !forge_seq in
            incr forge_seq;
            sched_at ~at (fun () ->
                let payload =
                  match kind with
                  | Forge_prepare ->
                      (* a stale/wrong-txn-id prepare retransmission *)
                      Tpc.Msg.Prepare
                        { txn = ghost; long_locks = false; upward = false }
                  | Forge_commit | Forge_abort ->
                      (* a forged decision targets whatever the victim is
                         actually blocked on - the adversary reads the
                         wire, so it knows which transactions are in
                         doubt; with nothing in doubt it replays a stale
                         decision for a ghost transaction *)
                      let txn =
                        let n = List.assoc dst w.Tpc.Run.nodes in
                        match
                          Tpc.Participant.in_doubt_txns n.Tpc.Run.participant
                        with
                        | t :: _ -> t
                        | [] -> (
                            match
                              List.sort compare (Kvstore.in_doubt n.Tpc.Run.kv)
                            with
                            | t :: _ -> t
                            | [] -> ghost)
                      in
                      let outcome =
                        match kind with
                        | Forge_commit -> Tpc.Types.Committed
                        | _ -> Tpc.Types.Aborted
                      in
                      (* the forgery carries a valid certificate exactly
                         when the adversary holds an f+1 quorum of replica
                         keys; below the threshold it is uncertified and
                         BFT members refuse it *)
                      Tpc.Msg.Decision_msg
                        { txn; outcome; cert = forged_cert ~txn ~outcome }
                in
                Tpc.Net.inject net ~src ~dst [ payload ])
          end
      | Force_heuristic { at; node; action } ->
          if known node then
            sched_at ~at (fun () ->
                let p = Tpc.Run.participant w node in
                List.iter
                  (fun txn -> Tpc.Participant.force_heuristic p ~txn action)
                  (Tpc.Participant.in_doubt_txns p))
      | Replay { at; src; dst; count } ->
          (* genuine stale re-delivery: whatever bundle last crossed this
             link is injected again, verbatim - no forged content, just
             duplicated history.  Honest protocols must absorb duplicates
             idempotently; nothing to replay (quiet link) is a no-op. *)
          if known src && known dst && src <> dst then
            sched_at ~at (fun () ->
                match Hashtbl.find_opt last_bundle (src, dst) with
                | Some payloads ->
                    for _ = 1 to count do
                      Tpc.Net.inject net ~src ~dst payloads
                    done
                | None -> ())
      | Corrupt_replica { at; replica } ->
          sched_at ~at (fun () -> Hashtbl.replace corrupted replica ()))
    plan

(* ------------------------------------------------------------------ *)
(* Fault-aware acceptance check                                        *)
(* ------------------------------------------------------------------ *)

type verdict = {
  v_committed_missing : int;
  v_aborted_applied : int;
  v_bad_value : int;
  v_divergence : int;
  v_wal_divergence : int;
  v_leaked_locks : int;
  v_engine_pending : int;
  v_unresolved : int;
  v_in_doubt : int;
}

let ok v =
  v.v_committed_missing = 0 && v.v_aborted_applied = 0 && v.v_bad_value = 0
  && v.v_divergence = 0 && v.v_wal_divergence = 0 && v.v_leaked_locks = 0
  && v.v_engine_pending = 0

let verdict_fields v =
  [
    ("committed_missing", v.v_committed_missing);
    ("aborted_applied", v.v_aborted_applied);
    ("bad_value", v.v_bad_value);
    ("divergence", v.v_divergence);
    ("wal_divergence", v.v_wal_divergence);
    ("leaked_locks", v.v_leaked_locks);
    ("engine_pending", v.v_engine_pending);
    ("unresolved", v.v_unresolved);
    ("in_doubt", v.v_in_doubt);
  ]

let verdict (w : Tpc.Run.world) ev =
  let b = Tpc.Mixer.Audit.check ev in
  let net = w.Tpc.Run.net in
  (* agreement: no transaction may carry both commit and abort evidence
     anywhere in the complex's logs (heuristic records included: the chaos
     profiles never arm heuristics, so any conflict is a protocol bug) *)
  let divergence = Tpc.Mixer.Audit.divergence ev in
  let wal_divergence = ref 0 in
  let leaked = ref 0 in
  let unresolved_count = ref 0 in
  let in_doubt_count = ref 0 in
  List.iter
    (fun (name, (n : Tpc.Run.node)) ->
      if Tpc.Net.is_up net name then begin
        let kv = n.Tpc.Run.kv in
        let p = n.Tpc.Run.participant in
        (* recovery faithful to the log: the store must equal a pure replay
           of this member's records (catches recoveries that forget durable
           decisions, e.g. force_restart_amnesia) *)
        let expected =
          Kvstore.replay_bindings n.Tpc.Run.wal ~node:(Kvstore.name kv)
        in
        if Kvstore.committed_bindings kv <> expected then incr wal_divergence;
        (* lock hygiene: a grant still held here is legitimate only while
           its transaction is still blocked on this member (in doubt, or
           otherwise short of END in the protocol state) *)
        let unresolved = Tpc.Participant.unresolved_txns p in
        let in_doubt = Kvstore.in_doubt kv in
        unresolved_count := !unresolved_count + List.length unresolved;
        in_doubt_count :=
          !in_doubt_count
          + List.length (Tpc.Participant.in_doubt_txns p)
          + List.length in_doubt;
        List.iter
          (fun txn ->
            if
              (not (List.mem txn in_doubt))
              && not (List.mem_assoc txn unresolved)
            then incr leaked)
          (Lockmgr.holding_txns (Kvstore.locks kv))
      end)
    w.Tpc.Run.nodes;
  {
    v_committed_missing = b.Tpc.Mixer.Audit.committed_missing;
    v_aborted_applied = b.Tpc.Mixer.Audit.aborted_applied;
    v_bad_value = b.Tpc.Mixer.Audit.bad_value;
    v_divergence = divergence;
    v_wal_divergence = !wal_divergence;
    v_leaked_locks = !leaked;
    v_engine_pending = Simkernel.Engine.pending w.Tpc.Run.engine;
    v_unresolved = !unresolved_count;
    v_in_doubt = !in_doubt_count;
  }

let audit w summaries = verdict w (Tpc.Mixer.Audit.scan w summaries)

(* ------------------------------------------------------------------ *)
(* Damage accounting (adversarial audit)                               *)
(* ------------------------------------------------------------------ *)

type accounting = {
  a_atomicity : int;
  a_heur_reported : int;
  a_heur_silent : int;
  a_blocked : int;
  a_rejected : int;
}

let accounting_fields a =
  [
    ("atomicity_violations", a.a_atomicity);
    ("heur_damage_reported", a.a_heur_reported);
    ("heur_damage_silent", a.a_heur_silent);
    ("blocked", a.a_blocked);
    ("rejected_forgeries", a.a_rejected);
  ]

(* ------------------------------------------------------------------ *)
(* Blocking windows                                                    *)
(* ------------------------------------------------------------------ *)

let blocking_windows = [ "in_doubt"; "blocked_lock"; "heur_exposure" ]

let blocking_json reg =
  Tpc.Json.Obj
    (List.map
       (fun name ->
         let fields =
           match Obs.Registry.find_histogram reg ("blocking/" ^ name) with
           | Some h when Obs.Histogram.count h > 0 ->
               [
                 ("count", Tpc.Json.Int (Obs.Histogram.count h));
                 ("p50", Tpc.Json.Float (Obs.Histogram.quantile h 50.0));
                 ("p99", Tpc.Json.Float (Obs.Histogram.quantile h 99.0));
               ]
           | _ ->
               [
                 ("count", Tpc.Json.Int 0);
                 ("p50", Tpc.Json.Float 0.0);
                 ("p99", Tpc.Json.Float 0.0);
               ]
         in
         (name, Tpc.Json.Obj fields))
       blocking_windows)

(* Classify the divergence in one scan's evidence.  Ground truth per
   transaction is the root's announced outcome when there is one (a vote
   flipped to YES makes the root commit - that commit IS the decision the
   protocol reached; the flipped voter's unilateral abort is the
   violation), else strong durable evidence, else the outcome some member
   resolved its heuristic against (a presumed abort can leave no durable
   record, but its damage report names it).  A transaction with none was
   never decided - a ghost the adversary forged into existence - and a
   heuristic on it is not (yet) damage: its member stays blocked. *)
let damage (w : Tpc.Run.world) ev (v : verdict) =
  let module A = Tpc.Mixer.Audit in
  (* atomicity violation: strong evidence of the opposite of the decision
     the protocol really reached - two coordinations durably disagreeing,
     or an equivocation victim durably believing the flipped decision.  A
     contradicting side that is heuristic only is heuristic damage: an
     operator overrode the protocol, which did not disagree with itself. *)
  let atomicity = ref 0 in
  for id = 0 to A.txns ev - 1 do
    match A.outcome ev id with
    | Some Committed when A.strong ev id Aborted -> incr atomicity
    | Some Aborted when A.strong ev id Committed -> incr atomicity
    | _ -> ()
  done;
  (* A damage report reaches an operator console at the damaged member
     itself and, on acks, at coordinators.  A damaged member still in
     doubt has not learned the outcome yet (it is blocked, and owes its
     report), and a down one reports at recovery - the benign audit's
     excuses.  What remains silent is the auditable bug class: an up
     member that resolved (or forgot) a contradicting heuristic with no
     console anywhere recording it.  A member told that its heuristic
     matched had the resolving decision flipped in flight by an
     equivocator: no honest party can see damage there, and its durable
     outcome is an atomicity violation, counted above. *)
  let reported = ref 0 and silent = ref 0 in
  List.iter
    (fun (h : A.heuristic) ->
      let reports =
        List.concat_map
          (fun (_, (n : Tpc.Run.node)) ->
            List.filter
              (fun (txn, _) -> String.equal txn h.h_txn)
              (Tpc.Participant.damage_seen n.Tpc.Run.participant))
          w.Tpc.Run.nodes
      in
      let truth =
        match (A.outcome ev h.h_id, List.rev reports) with
        | (Some _ as o), _ -> o
        | None, (_, d) :: _ -> Some d.Tpc.Msg.d_outcome
        | None, [] -> None
      in
      match truth with
      | Some o when o <> h.h_action && h.h_told <> Some h.h_action ->
          if
            List.exists
              (fun (_, (d : Tpc.Msg.damage_report)) ->
                String.equal d.d_node h.h_member && d.d_action = h.h_action)
              reports
          then incr reported
          else if
            Tpc.Net.is_up w.Tpc.Run.net h.h_member
            && not
                 (Tpc.Participant.is_in_doubt
                    (Tpc.Run.participant w h.h_member)
                    ~txn:h.h_txn)
          then incr silent
      | _ -> ())
    (A.heuristics ev);
  {
    a_atomicity = !atomicity;
    a_heur_reported = !reported;
    a_heur_silent = !silent;
    a_blocked = v.v_in_doubt;
    a_rejected =
      List.fold_left
        (fun acc (_, (n : Tpc.Run.node)) ->
          acc + Tpc.Participant.rejected_forgeries n.Tpc.Run.participant)
        0 w.Tpc.Run.nodes;
  }

let account w summaries =
  let ev = Tpc.Mixer.Audit.scan w summaries in
  damage w ev (verdict w ev)

(* Under an adversary, atomicity violations and reported heuristic damage
   are the measurement, not a harness failure; what must never happen is
   damage nobody heard about, or a broken world (store diverging from its
   log, leaked locks, a wedged engine). *)
let adversarial_ok (v : verdict) (a : accounting) =
  a.a_heur_silent = 0 && v.v_wal_divergence = 0 && v.v_leaked_locks = 0
  && v.v_engine_pending = 0

let run_case_full ?config ?(broken_recovery = false) ?jitter_seed ?scratch mix
    tree plan =
  let agg, w, summaries =
    Tpc.Mixer.run_full ?config
      ~inject:(inject ~broken_recovery ?jitter_seed plan)
      ?scratch mix tree
  in
  (agg, audit w summaries, w)

let run_case ?config ?broken_recovery ?jitter_seed mix tree plan =
  let agg, v, _w = run_case_full ?config ?broken_recovery ?jitter_seed mix tree plan in
  (agg, v)

let run_case_adversarial ?config ?(broken_recovery = false) ?jitter_seed
    ?scratch mix tree plan =
  let agg, w, summaries =
    Tpc.Mixer.run_full ?config
      ~inject:(inject ~broken_recovery ?jitter_seed plan)
      ?scratch mix tree
  in
  let ev = Tpc.Mixer.Audit.scan w summaries in
  let v = verdict w ev in
  (agg, v, damage w ev v, w)

(* ------------------------------------------------------------------ *)
(* Schedule shrinking                                                  *)
(* ------------------------------------------------------------------ *)

let shrink ~check plan =
  if not (check plan) then plan
  else
    let rec pass p =
      let rec try_each before = function
        | [] -> None
        | e :: rest ->
            let candidate = List.rev_append before rest in
            if check candidate then Some candidate
            else try_each (e :: before) rest
      in
      match try_each [] p with Some smaller -> pass smaller | None -> p
    in
    pass plan
