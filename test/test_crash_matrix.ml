(* Exhaustive single-fault matrix: every protocol x crash point x crashing
   node x restart/no-restart over three small worlds.  Complements the
   sampled qcheck property with full coverage of the paper's failure
   windows.

   - a three-member chain C -> M -> S, one transaction (144 cells);
   - Figure 6: C -> S under last agent, one transaction (108 cells);
   - Figure 7's alternating pair: t1 and t2 over C -> S under long locks
     and last agent, run as [Run.chain] runs it, S deciding t1 and C
     deciding t2 (108 cells).

   The two last-agent worlds add the delegator's crash point,
   [Cp_after_delegation]; the chain never delegates.

   Invariants checked for each transaction of each cell:
   - the run quiesces (all retry/inquiry chains are bounded);
   - live members whose fate is decided never disagree;
   - an outcome reported to the coordinator's application is consistent
     with every decided member's data;
   - an in-doubt member never applies its update unilaterally;
   - after a restart, every live member ends decided: neither its store
     nor its protocol state is left in doubt.

   Known violations are pinned per cell and transaction, and a pinned
   transaction must keep failing, so that the fix has to flip it.  When a
   last agent crashes before logging its decision and restarts, the
   retransmitted delegation reaches a store whose unforced update record
   died with it; the store answers read-only, the agent votes YES and
   commits without the write (the lost write of ROADMAP item 1, reached
   through delegation). *)

open Tpc.Types
module R = Tpc.Run

let crash_points =
  [
    Cp_on_prepare;
    Cp_after_prepared_log;
    Cp_after_vote;
    Cp_before_decision_log;
    Cp_after_decision_log;
    Cp_after_decision_received;
    Cp_before_ack;
    Cp_after_commit_pending;
  ]

let point_name = function
  | Cp_on_prepare -> "on-prepare"
  | Cp_after_prepared_log -> "after-prepared"
  | Cp_after_vote -> "after-vote"
  | Cp_before_decision_log -> "before-decision-log"
  | Cp_after_decision_log -> "after-decision-log"
  | Cp_after_decision_received -> "after-decision-received"
  | Cp_before_ack -> "before-ack"
  | Cp_after_commit_pending -> "after-commit-pending"
  | Cp_after_delegation -> "after-delegation"

(* One finished cell: the world, its transactions, the key each member
   writes for a transaction, and the outcome each transaction's
   coordinator reported to its application. *)
type cell = {
  w : R.world;
  txns : string list;
  key : txn:string -> string -> string;
  reported : string -> outcome option;
}

let config protocol node point restart =
  {
    default_config with
    protocol;
    retry_interval = 25.0;
    max_retries = 10;
    faults =
      [
        {
          f_node = node;
          f_point = point;
          f_restart_after = (if restart then Some 15.0 else None);
        };
      ];
  }

(* One transaction from the static root, run to a bounded horizon. *)
let single_txn ~txn config tree =
  let w = R.setup ~config tree in
  R.perform_work w ~txn;
  Tpc.Participant.begin_commit (R.participant w w.R.root) ~txn;
  Simkernel.Engine.run_until w.R.engine 50_000.0;
  {
    w;
    txns = [ txn ];
    key = (fun ~txn:_ name -> "acct-" ^ name);
    reported = (fun _ -> w.R.outcome);
  }

let cascade config =
  single_txn ~txn:"txn-1" config
    (Tree (member "C", [ Tree (member "M", [ Tree (member "S", []) ]) ]))

let figure6 config =
  single_txn ~txn:"t1"
    { config with opts = opts_of_list [ `Last_agent ] }
    (Tree (member "C", [ Tree (member "S", []) ]))

let pair config =
  let res, w = R.chain ~config R.Chain_long_locks_last_agent ~r:2 in
  {
    w;
    txns = [ "t1"; "t2" ];
    key = (fun ~txn _ -> txn);
    reported = (fun txn -> List.assoc_opt txn res.R.outcomes);
  }

(* Every invariant the cell breaks, as readable lines: the cell's own,
   then each transaction's. *)
let violations ~restart c =
  let pending = Simkernel.Engine.pending c.w.R.engine in
  let quiesce =
    if pending = 0 then [] else [ Printf.sprintf "%d events pending" pending ]
  in
  let per_txn txn =
    let applied (name, (n : R.node)) =
      Kvstore.committed_value n.R.kv (c.key ~txn name) <> None
    in
    let live =
      List.filter
        (fun (_, (n : R.node)) -> not (Tpc.Participant.is_crashed n.R.participant))
        c.w.R.nodes
    in
    let in_doubt, decided =
      List.partition
        (fun (_, (n : R.node)) -> Kvstore.is_in_doubt n.R.kv ~txn)
        live
    in
    let decided = List.map (fun m -> (fst m, applied m)) decided in
    List.filter_map
      (fun m ->
        if applied m then
          Some (Printf.sprintf "%s: in-doubt %s applied its update" txn (fst m))
        else None)
      in_doubt
    @ List.filter_map
        (fun (name, (n : R.node)) ->
          if
            restart
            && (Kvstore.is_in_doubt n.R.kv ~txn
               || Tpc.Participant.is_in_doubt n.R.participant ~txn)
          then Some (Printf.sprintf "%s: %s still in doubt after a restart" txn name)
          else None)
        live
    (* a live member left permanently ignorant of a commit (its upstream
       link died and never came back) may lawfully sit on nothing-applied
       state; that only happens without a restart *)
    @ (match decided with
      | (_, x) :: rest
        when restart && not (List.for_all (fun (_, y) -> y = x) rest) ->
          [
            Printf.sprintf "%s: decided members diverged: %s" txn
              (String.concat ", "
                 (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) decided));
          ]
      | _ -> [])
    @
    match c.reported txn with
    | Some o when restart ->
        List.filter_map
          (fun (name, applied) ->
            if applied = (o = Committed) then None
            else
              Some
                (Printf.sprintf "%s: %s does not match the reported %s" txn name
                   (outcome_to_string o)))
          decided
    | _ -> []
  in
  (quiesce, List.map (fun txn -> (txn, per_txn txn)) c.txns)

(* Run every cell of one world at [points].  [known ~node ~point ~txn]
   pins a violation of [txn] in the cells where [node] crashes at [point]
   and restarts; a pinned transaction must fail, and every other must
   pass.  All mismatches are reported together. *)
let matrix ~world ~nodes ~points ~known protocol =
  let bad = ref [] in
  List.iter
    (fun node ->
      List.iter
        (fun point ->
          List.iter
            (fun restart ->
              let label =
                Printf.sprintf "%s/%s@%s/%s" (protocol_to_string protocol) node
                  (point_name point)
                  (if restart then "restart" else "down")
              in
              let quiesce, per_txn =
                violations ~restart (world (config protocol node point restart))
              in
              if quiesce <> [] then
                bad := (label ^ ": " ^ String.concat "; " quiesce) :: !bad;
              List.iter
                (fun (txn, found) ->
                  if restart && known ~node ~point ~txn then begin
                    if found = [] then
                      bad :=
                        Printf.sprintf "%s: pinned violation of %s gone" label txn
                        :: !bad
                  end
                  else if found <> [] then
                    bad := (label ^ ": " ^ String.concat "; " found) :: !bad)
                per_txn)
            [ true; false ])
        points)
    nodes;
  if !bad <> [] then Alcotest.fail (String.concat "\n" (List.rev !bad))

let protocols = [ Basic; Presumed_abort; Presumed_nothing ]

let case protocol =
  Alcotest.test_case (protocol_to_string protocol) `Slow (fun () ->
      matrix ~world:cascade ~nodes:[ "C"; "M"; "S" ] ~points:crash_points
        ~known:(fun ~node:_ ~point:_ ~txn:_ -> false)
        protocol)

let last_agent_case name ~world ~known =
  Alcotest.test_case name `Slow (fun () ->
      List.iter
        (matrix ~world ~nodes:[ "C"; "S" ]
           ~points:(crash_points @ [ Cp_after_delegation ])
           ~known)
        protocols)

(* Figure 6: C delegates t1 to S, and S crashing before it logs its
   decision loses its write (item 1). *)
let figure6_known ~node ~point ~txn:_ =
  node = "S" && point = Cp_before_decision_log

(* The pair: C delegates t1 to S, and S delegates t2 to C.  Each agent
   crashing before it logs its decision loses its write (item 1): S on
   t1, C on t2.  So does C crashing after it delegates t1: it restarts
   with t2's write lost and commits t2 as its last agent without it. *)
let pair_known ~node ~point ~txn =
  match (node, point, txn) with
  | "S", Cp_before_decision_log, "t1"
  | "C", (Cp_before_decision_log | Cp_after_delegation), "t2" ->
      true
  | _ -> false

let suite =
  List.map case protocols
  @ [
      last_agent_case "figure-6 last agent" ~world:figure6 ~known:figure6_known;
      last_agent_case "alternating last-agent pair" ~world:pair
        ~known:pair_known;
    ]
