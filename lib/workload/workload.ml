(** Workload generators: commit-tree shapes and member-property mixes for the
    benches and the randomized tests.

    The paper's Table 3 analyses a transaction with [n] members of which [m]
    follow one optimization; these helpers build such trees in the shapes
    the analysis assumes (flat: every member a direct subordinate of the
    coordinator) and in the shapes the peer-to-peer discussion motivates
    (chains of cascaded coordinators, bushy random trees). *)

open Tpc.Types

(* ------------------------------------------------------------------ *)
(* Deterministic tree shapes                                           *)
(* ------------------------------------------------------------------ *)

(** Flat commit tree: a coordinator with [n-1] leaf subordinates.
    [decorate i p] may adjust the profile of subordinate [i] (0-based). *)
let flat ?(decorate = fun _ p -> p) ~n () =
  if n < 1 then invalid_arg "Workload.flat: n must be at least 1";
  Tree
    ( member "coord",
      List.init (n - 1) (fun i ->
          Tree (decorate i (member (Printf.sprintf "sub%d" i)), [])) )

(** Chain of cascaded coordinators: coord -> c1 -> c2 -> ... -> c[n-1]. *)
let chain ?(decorate = fun _ p -> p) ~n () =
  if n < 1 then invalid_arg "Workload.chain: n must be at least 1";
  let rec build i =
    if i >= n then []
    else [ Tree (decorate i (member (Printf.sprintf "c%d" i)), build (i + 1)) ]
  in
  Tree (member "coord", build 1)

(** Flat tree whose last [m] subordinates form a delegation chain hanging
    off the coordinator: the Table 3 shape for the last-agent row (each
    last agent picks one of its subordinates as its own last agent). *)
let flat_with_delegation_chain ~n ~m () =
  if m >= n then invalid_arg "Workload.flat_with_delegation_chain: m < n required";
  let rec agents i =
    if i >= m then []
    else [ Tree (member (Printf.sprintf "agent%d" i), agents (i + 1)) ]
  in
  let leaves =
    List.init (n - 1 - m) (fun i -> Tree (member (Printf.sprintf "sub%d" i), []))
  in
  Tree (member "coord", leaves @ agents 0)

(** Uniform random tree over [n] members with maximum fanout [fanout];
    deterministic in [seed]. *)
let random_tree ?(fanout = 4) ~seed ~n () =
  if n < 1 then invalid_arg "Workload.random_tree: n must be at least 1";
  let rng = Simkernel.Det_rng.create ~seed in
  (* attach each new member under a uniformly chosen existing member that
     still has fanout room *)
  let children = Array.make n [] in
  let counts = Array.make n 0 in
  for i = 1 to n - 1 do
    let rec pick () =
      let j = Simkernel.Det_rng.int rng i in
      if counts.(j) < fanout then j else pick ()
    in
    let parent = pick () in
    counts.(parent) <- counts.(parent) + 1;
    children.(parent) <- i :: children.(parent)
  done;
  let name i = if i = 0 then "coord" else Printf.sprintf "m%d" i in
  let rec build i =
    Tree (member (name i), List.map build (List.rev children.(i)))
  in
  build 0

(* ------------------------------------------------------------------ *)
(* Property mixes (the "m members follow the optimization" decorations) *)
(* ------------------------------------------------------------------ *)

let first_m ~m f i p = if i < m then f p else p

let read_only_mix ~m = first_m ~m (fun p -> { p with p_updated = false })
let reliable_mix ~m = first_m ~m (fun p -> { p with p_reliable = true })
let unsolicited_mix ~m = first_m ~m (fun p -> { p with p_unsolicited = true })

let leave_out_mix ~m =
  first_m ~m (fun p -> { p with p_left_out = true; p_leave_out_ok = true })

let shared_log_mix ~m = first_m ~m (fun p -> { p with p_shares_parent_log = true })
let long_locks_mix ~m = first_m ~m (fun p -> { p with p_long_locks = true })

(** The Table 3 tree for one optimization: n members, m of them using it. *)
let table3_tree (opt : Tpc.Cost_model.optimization) ~n ~m =
  match opt with
  | Tpc.Cost_model.Read_only_opt -> flat ~decorate:(read_only_mix ~m) ~n ()
  | Tpc.Cost_model.Last_agent_opt -> flat_with_delegation_chain ~n ~m ()
  | Tpc.Cost_model.Unsolicited_vote_opt ->
      flat ~decorate:(unsolicited_mix ~m) ~n ()
  | Tpc.Cost_model.Leave_out_opt -> flat ~decorate:(leave_out_mix ~m) ~n ()
  | Tpc.Cost_model.Vote_reliable_opt -> flat ~decorate:(reliable_mix ~m) ~n ()
  | Tpc.Cost_model.Wait_for_outcome_opt -> flat ~n ()
  | Tpc.Cost_model.Shared_log_opt -> flat ~decorate:(shared_log_mix ~m) ~n ()
  | Tpc.Cost_model.Long_locks_opt -> flat ~decorate:(long_locks_mix ~m) ~n ()

(** The protocol switch that activates one Table 3 optimization. *)
let table3_opt_variant (opt : Tpc.Cost_model.optimization) : opt =
  match opt with
  | Tpc.Cost_model.Read_only_opt -> `Read_only
  | Tpc.Cost_model.Last_agent_opt -> `Last_agent
  | Tpc.Cost_model.Unsolicited_vote_opt -> `Unsolicited_vote
  | Tpc.Cost_model.Leave_out_opt -> `Leave_out
  | Tpc.Cost_model.Vote_reliable_opt -> `Vote_reliable
  | Tpc.Cost_model.Wait_for_outcome_opt -> `Wait_for_outcome
  | Tpc.Cost_model.Shared_log_opt -> `Shared_log
  | Tpc.Cost_model.Long_locks_opt -> `Long_locks

(** Run the Table 3 experiment for one optimization and return the
    simulated counts. *)
let run_table3 ?(protocol = Presumed_abort) opt ~n ~m =
  (* with m=0 nobody follows the optimization: switch it off entirely (the
     last-agent switch would otherwise delegate to an arbitrary member) *)
  let opts = if m = 0 then [] else [ table3_opt_variant opt ] in
  let config = default_config |> with_protocol protocol |> with_opts opts in
  let metrics, _w = Tpc.Run.commit_tree ~config (table3_tree opt ~n ~m) in
  Tpc.Metrics.counts metrics

(** Coordinator [C] with one subordinate [S]: Table 2's two members. *)
let pair ?(c = member "C") ?(s = member "S") () = Tree (c, [ Tree (s, []) ])

type 'a row = { label : string; simulated : 'a; paper : 'a }

(* Each Table 2 row's protocol, switches and member properties, under the
   label it has in [Tpc.Cost_model.table2]. *)
let table2_scenarios =
  [
    ("Basic 2PC", default_config |> with_protocol Basic, pair ());
    ("PN", default_config |> with_protocol Presumed_nothing, pair ());
    ("PA, Commit case", default_config, pair ());
    ("PA, Abort case", default_config, pair ~s:(member ~vote_no:true "S") ());
    ( "PA, Read-Only case",
      default_config |> with_opts [ `Read_only ],
      pair ~c:(member ~updated:false "C") ~s:(member ~updated:false "S") () );
    ("PA & Last-Agent", default_config |> with_opts [ `Last_agent ], pair ());
    ( "PA & Unsolicited Vote",
      default_config |> with_opts [ `Unsolicited_vote ],
      pair ~s:(member ~unsolicited:true "S") () );
    ( "PA & Leave-Out",
      default_config |> with_opts [ `Leave_out; `Read_only ],
      pair
        ~c:(member ~updated:false "C")
        ~s:(member ~left_out:true ~leave_out_ok:true "S")
        () );
    ( "PA & Vote Reliable",
      default_config |> with_opts [ `Vote_reliable ],
      pair ~s:(member ~reliable:true "S") () );
    ( "PA & Wait For Outcome",
      default_config |> with_opts [ `Wait_for_outcome ],
      pair () );
    ( "PA & Shared Logs",
      default_config |> with_opts [ `Shared_log ],
      pair ~s:(member ~shares_parent_log:true "S") () );
    ( "PA & Long Locks",
      default_config |> with_opts [ `Long_locks ],
      pair ~s:(member ~long_locks:true "S") () );
  ]

let table2_rows () =
  List.map
    (fun (label, config, tree) ->
      let _m, w = Tpc.Run.commit_tree ~config tree in
      let trace = w.Tpc.Run.trace in
      let side node : Tpc.Cost_model.side =
        {
          s_flows = Tpc.Trace.node_flows trace node;
          s_writes = Tpc.Trace.node_writes trace node;
          s_forced = Tpc.Trace.node_writes ~forced_only:true trace node;
        }
      in
      let p =
        List.find
          (fun (r : Tpc.Cost_model.table2_row) -> r.t2_label = label)
          Tpc.Cost_model.table2
      in
      {
        label;
        simulated = (side "C", side "S");
        paper = (p.coordinator, p.subordinate);
      })
    table2_scenarios

let table3_rows ~n ~m =
  let basic, _w = Tpc.Run.commit_tree (flat ~n ()) in
  List.map2
    (fun (label, paper) simulated -> { label; simulated; paper })
    (Tpc.Cost_model.table3 ~n ~m)
    (Tpc.Metrics.counts basic
    :: List.map (fun opt -> run_table3 opt ~n ~m) Tpc.Cost_model.all_optimizations)

let table4_rows ~r =
  List.map2
    (fun (label, paper) mode ->
      let c, _w = Tpc.Run.chain mode ~r in
      let simulated : Tpc.Cost_model.counts =
        { flows = c.flows; writes = c.writes; forced = c.forced }
      in
      ({ label; simulated; paper }, c))
    (Tpc.Cost_model.table4 ~r)
    Tpc.Run.[ Chain_basic; Chain_long_locks; Chain_long_locks_last_agent ]

(* ------------------------------------------------------------------ *)
(* Mixer sweeps                                                        *)
(* ------------------------------------------------------------------ *)

(** Flat commit tree for a {!Tpc.Mixer} sweep: the member-property side of
    each requested optimization is applied to every subordinate (shared
    logs, long locks, reliable votes, unsolicited votes, suspendable
    servers); switches without a member property are ignored here and act
    through {!Tpc.Types.opts_of_list} alone. *)
let mixer_tree ?(n = 4) ~opts () =
  let decorate _ p =
    List.fold_left
      (fun p o ->
        match (o : opt) with
        | `Unsolicited_vote -> { p with p_unsolicited = true }
        | `Leave_out -> { p with p_leave_out_ok = true }
        | `Shared_log -> { p with p_shares_parent_log = true }
        | `Long_locks -> { p with p_long_locks = true }
        | `Vote_reliable -> { p with p_reliable = true }
        | `Read_only | `Last_agent | `Early_ack | `Wait_for_outcome -> p)
      p opts
  in
  flat ~decorate ~n ()

(* ------------------------------------------------------------------ *)
(* Lock-contention experiment                                          *)
(* ------------------------------------------------------------------ *)

type contention_result = {
  ct_intruders : int;
  ct_mean_wait : float;
  ct_max_wait : float;
  ct_commit_outcome : outcome option;
}

let contention_experiment ?(config = default_config)
    ?(arrivals = [ 0.5; 1.0; 1.5 ]) ~victim tree =
  let w = Tpc.Run.setup ~config tree in
  let engine = w.Tpc.Run.engine in
  let kv = Tpc.Run.kv w victim in
  let key = "acct-" ^ victim in
  let waits = ref [] in
  List.iteri
    (fun i arrival ->
      let txn = Printf.sprintf "intruder-%d" i in
      ignore
        (Simkernel.Engine.schedule engine ~delay:arrival (fun () ->
             let requested = Simkernel.Engine.now engine in
             Kvstore.put_async kv ~txn ~key ~value:("intr-" ^ txn)
               ~granted:(fun () ->
                 waits := (Simkernel.Engine.now engine -. requested) :: !waits;
                 (* release immediately so the next intruder can proceed *)
                 Kvstore.commit kv ~txn ~force:false (fun () -> ())))))
    arrivals;
  Tpc.Run.perform_work w ~txn:"txn-1";
  Tpc.Participant.begin_commit (Tpc.Run.participant w w.Tpc.Run.root)
    ~txn:"txn-1";
  Simkernel.Engine.run engine;
  let served = List.length !waits in
  {
    ct_intruders = served;
    ct_mean_wait =
      (if served = 0 then 0.0
       else List.fold_left ( +. ) 0.0 !waits /. float_of_int served);
    ct_max_wait = List.fold_left max 0.0 !waits;
    ct_commit_outcome = w.Tpc.Run.outcome;
  }
