(* The paper's long-locks case study (Section 4, "Long Locks"): banks
   reconciling their accounts at the end of the day - "a large number of
   short transactions with small delays between them" over an expensive
   network link.

   This example runs the same 240-transaction reconciliation stream three
   ways and shows the paper's Table 4 tradeoff: long locks (and long locks
   combined with last agent) cut network flows by 25% and 62.5%, at the
   price of the initiating bank's records staying locked longer.

   Run with: dune exec examples/banking_reconciliation.exe *)

module R = Tpc.Run

let reconcile mode =
  (* an expensive inter-bank link: 4 time units each way *)
  let config = Tpc.Types.(default_config |> with_latency 4.0) in
  fst (R.chain ~config mode ~r:240)

let () =
  let basic = reconcile R.Chain_basic in
  let long_locks = reconcile R.Chain_long_locks in
  let combined = reconcile R.Chain_long_locks_last_agent in

  Format.printf
    "End-of-day reconciliation: 240 chained transactions between two banks@.@.";
  Format.printf "%-28s %10s %10s %10s %14s@." "variant" "flows" "writes"
    "forced" "lock-time/txn";
  let row label (r : R.chain_result) =
    Format.printf "%-28s %10d %10d %10d %14.1f@." label r.flows r.writes
      r.forced r.mean_coordinator_lock_time
  in
  row "basic 2PC" basic;
  row "long locks" long_locks;
  row "long locks + last agent" combined;

  let saved a b = 100.0 *. float_of_int (a - b) /. float_of_int a in
  Format.printf
    "@.Long locks saves %.1f%% of the flows; adding last agent saves %.1f%%.@."
    (saved basic.flows long_locks.flows)
    (saved basic.flows combined.flows);
  Format.printf
    "The price (Table 1): the initiating bank's records stay locked %.1fx \
     longer under long locks than under basic 2PC.@."
    (long_locks.mean_coordinator_lock_time /. basic.mean_coordinator_lock_time);

  (* Table 4's published example is r = 12; regenerate it for reference. *)
  Format.printf "@.Paper's Table 4 (r = 12):@.";
  List.iter
    (fun (label, c) ->
      Format.printf "  %-36s %a@." label Tpc.Cost_model.pp_counts c)
    (Tpc.Cost_model.table4 ~r:12)
