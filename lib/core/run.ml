(** Orchestration: build a simulated complex for a commit tree, perform the
    work that gives each member something to commit, run the 2PC to
    quiescence, and summarize the result. *)

open Types
module Names = Hashtbl.Make (String)

type node = {
  participant : Participant.t;
  wal : Wal.Log.t;
  kv : Kvstore.t;
  profile : profile;
}

type world = {
  engine : Simkernel.Engine.t;
  net : Net.t;
  trace : Trace.t;
  registry : Obs.Registry.t;  (** telemetry: per-phase latency histograms *)
  causal : Obs.Causal.t;
      (** the causal graph: the graph view of [trace]'s log, mode [Off]
          unless enabled *)
  cfg : config;
  tree : tree;
  nodes : (string * node) list;  (** tree order, root first *)
  by_name : node Names.t;  (** [nodes] keyed by name, for [node] *)
  root : string;
  mutable outcome : outcome option;
  mutable pending : bool;
}

let node w name = Names.find w.by_name name
let participant w name = (node w name).participant
let kv w name = (node w name).kv
let root_node w = node w w.root
(* each physical log once: shared-log members reuse their parent's WAL *)
let all_wals w =
  List.rev
    (List.fold_left
       (fun acc (_, n) -> if List.memq n.wal acc then acc else n.wal :: acc)
       [] w.nodes)

let setup ?(config = default_config) ?scratch tree =
  let engine =
    match scratch with
    | Some e ->
        (* recycled engine: reset returns it to the fresh-create state while
           keeping its arrays at high-water capacity, so a driver running
           many small worlds per domain stops re-paying allocation warm-up *)
        Simkernel.Engine.reset e;
        e
    | None -> Simkernel.Engine.create ()
  in
  let net = Net.create engine ~default_latency:config.latency () in
  let trace = Trace.create ~keep_events:config.trace_events ~engine () in
  let registry = Obs.Registry.create () in
  let causal = Trace.log trace in
  let wal_config =
    { Wal.Log.io_latency = config.io_latency; group = config.group_commit }
  in
  let rec build parent parent_wal (Tree (p, children)) =
    let wal =
      match parent_wal with
      | Some w when config.opts.shared_log && p.p_shares_parent_log -> w
      | _ -> Wal.Log.create engine ~node:p.p_name ~config:wal_config ()
    in
    let kv = Kvstore.create engine ~name:(p.p_name ^ ".rm") ~wal () in
    let participant =
      Participant.create ~net ~trace ~cfg:config ~profile:p ~parent
        ~child_profiles:(List.map tree_profile children)
        ~wal ~kv
    in
    Participant.attach participant;
    Participant.set_registry participant registry;
    ((p.p_name, { participant; wal; kv; profile = p }) :: [])
    @ List.concat_map (build (Some p) (Some wal)) children
  in
  let nodes = build None None tree in
  (* members on one physical log are one system (the shared log belongs
     to a colocated resource manager): they fail and restart together *)
  List.iter
    (fun (_, n) ->
      Participant.set_failure_domain n.participant
        (List.filter_map
           (fun (_, m) -> if m.wal == n.wal then Some m.participant else None)
           nodes))
    nodes;
  let by_name = Names.create 16 in
  List.iter (fun (name, n) -> Names.replace by_name name n) nodes;
  let root = (tree_profile tree).p_name in
  let w =
    {
      engine;
      net;
      trace;
      registry;
      causal;
      cfg = config;
      tree;
      nodes;
      by_name;
      root;
      outcome = None;
      pending = false;
    }
  in
  Participant.set_on_root_complete (participant w root)
    (fun ~txn:_ outcome ~pending ->
      w.outcome <- Some outcome;
      w.pending <- pending);
  w

let perform_work w ~txn =
  List.iter
    (fun (name, n) ->
      if n.profile.p_left_out && w.cfg.opts.leave_out then ()
      else if n.profile.p_updated then
        ignore
          (Kvstore.put n.kv ~txn ~key:("acct-" ^ name)
             ~value:("upd-by-" ^ txn))
      else ignore (Kvstore.get n.kv ~txn ("acct-" ^ name)))
    w.nodes

let commit ?(txn = "txn-1") w =
  perform_work w ~txn;
  (* unsolicited voters prepare themselves spontaneously *)
  List.iter
    (fun (_, n) ->
      if
        n.profile.p_unsolicited && w.cfg.opts.unsolicited_vote
        && not (n.profile.p_left_out && w.cfg.opts.leave_out)
      then
        ignore
          (Simkernel.Engine.schedule w.engine ~delay:0.0 (fun () ->
               Participant.begin_unsolicited n.participant ~txn)))
    w.nodes;
  Participant.begin_commit (participant w w.root) ~txn;
  Simkernel.Engine.run w.engine;
  Metrics.of_run ~trace:w.trace ~wals:(all_wals w) ~root:w.root
    ~outcome:w.outcome ~pending:w.pending
    ~quiesce_time:(Simkernel.Engine.now w.engine)

let commit_tree ?config ?txn tree =
  let w = setup ?config tree in
  (commit ?txn w, w)

type work = Work_update | Work_read | Work_none

let mark_idle_subtrees w ~txn ~idle =
  let rec subtree_idle (Tree (p, children)) =
    idle p.p_name && List.for_all subtree_idle children
  in
  let marked = ref [] in
  let rec mark (Tree (p, children)) =
    List.iter
      (fun (Tree (cp, _) as child) ->
        if subtree_idle child then begin
          let parent = participant w p.p_name in
          Participant.note_idle_child parent ~txn ~child:cp.p_name;
          marked := (parent, cp.p_name) :: !marked
        end;
        mark child)
      children
  in
  if w.cfg.opts.leave_out then mark w.tree;
  !marked

let commit_sequence ?config ~work ~txns tree =
  let w = setup ?config tree in
  let run_one txn =
    Trace.clear w.trace;
    List.iter Wal.Log.reset_stats (all_wals w);
    w.outcome <- None;
    w.pending <- false;
    (* perform the assigned work *)
    let rec assign (Tree (p, children)) =
      (match work ~txn ~node:p.p_name with
      | Work_update ->
          ignore
            (Kvstore.put (kv w p.p_name) ~txn ~key:("acct-" ^ p.p_name)
               ~value:("upd-by-" ^ txn))
      | Work_read -> ignore (Kvstore.get (kv w p.p_name) ~txn ("acct-" ^ p.p_name))
      | Work_none -> ());
      List.iter assign children
    in
    assign w.tree;
    let marked =
      mark_idle_subtrees w ~txn ~idle:(fun node -> work ~txn ~node = Work_none)
    in
    (* unsolicited voters that actually worked prepare themselves *)
    List.iter
      (fun (name, n) ->
        if
          n.profile.p_unsolicited && w.cfg.opts.unsolicited_vote
          && work ~txn ~node:name <> Work_none
        then
          ignore
            (Simkernel.Engine.schedule w.engine ~delay:0.0 (fun () ->
                 Participant.begin_unsolicited n.participant ~txn)))
      w.nodes;
    Participant.begin_commit (participant w w.root) ~txn;
    Simkernel.Engine.run w.engine;
    List.iter (fun (p, _) -> Participant.clear_idle_children p ~txn) marked;
    ( txn,
      Metrics.of_run ~trace:w.trace ~wals:(all_wals w) ~root:w.root
        ~outcome:w.outcome ~pending:w.pending
        ~quiesce_time:(Simkernel.Engine.now w.engine) )
  in
  (List.map run_one txns, w)

(* ------------------------------------------------------------------ *)
(* Two-member streams: Table 4, Figure 7 and group commit              *)
(* ------------------------------------------------------------------ *)

type chain_mode = Chain_basic | Chain_long_locks | Chain_long_locks_last_agent

let chain_mode_to_string = function
  | Chain_basic -> "basic"
  | Chain_long_locks -> "long-locks"
  | Chain_long_locks_last_agent -> "long-locks+last-agent"

type chain_result = {
  flows : int;
  data_flows : int;
  writes : int;
  forced : int;
  duration : float;
  mean_coordinator_lock_time : float;
  outcomes : (string * outcome) list;
}

let stream_world ~config ~long_locks =
  setup ~config
    (Tree (member ~long_locks "C", [ Tree (member ~long_locks "S", []) ]))

(* a stream transaction writes the key named after it at both members *)
let open_stream_txn w p ~txn =
  List.iter
    (fun (_, n) -> ignore (Kvstore.put n.kv ~txn ~key:txn ~value:("upd-by-" ^ txn)))
    w.nodes;
  Participant.begin_commit p ~txn

let chain ?(config = default_config) mode ~r =
  if r < 1 then invalid_arg "Run.chain: r must be at least 1";
  let opts =
    match mode with
    | Chain_basic -> []
    | Chain_long_locks -> [ `Long_locks ]
    | Chain_long_locks_last_agent -> [ `Long_locks; `Last_agent ]
  in
  let pairs = mode = Chain_long_locks_last_agent in
  let config = config |> with_opts opts |> with_implied_ack_delay 1.0 in
  let w = stream_world ~config ~long_locks:(opts <> []) in
  let now () = Simkernel.Engine.now w.engine in
  (* a step is one transaction, or under last agent one pair *)
  let began = ref 0.0 and locked = ref 0.0 and steps = ref 0 in
  let outcomes = ref [] and last = ref 0.0 in
  let start p i =
    if (not pairs) || i mod 2 = 1 then began := now ();
    open_stream_txn w p ~txn:("t" ^ string_of_int i)
  in
  let index txn = int_of_string (String.sub txn 1 (String.length txn - 1)) in
  List.iter
    (fun (_, { participant = p; _ }) ->
      Participant.set_on_root_complete p (fun ~txn outcome ~pending:_ ->
          let i = index txn in
          outcomes := (txn, outcome) :: !outcomes;
          last := now ();
          if (not pairs) || i mod 2 = 0 || i = r then begin
            locked := !locked +. (now () -. !began);
            incr steps
          end;
          (* the next step opens once this transaction has finished here *)
          if i < r && ((not pairs) || i mod 2 = 0) then
            ignore
              (Simkernel.Engine.schedule w.engine ~delay:0.0 (fun () ->
                   start p (i + 1))));
      (* the agent deciding a pair's first transaction opens the second *)
      Participant.set_on_agent_decision p (fun ~txn _ ->
          let i = index txn in
          if pairs && i mod 2 = 1 && i < r then start p (i + 1)))
    w.nodes;
  start (root_node w).participant 1;
  Simkernel.Engine.run w.engine;
  ( {
      flows = Trace.flows w.trace;
      data_flows = Trace.data_flows w.trace;
      writes = Trace.tm_writes w.trace;
      forced = Trace.tm_forced_writes w.trace;
      duration = !last;
      mean_coordinator_lock_time = !locked /. float_of_int (max 1 !steps);
      outcomes = List.rev !outcomes;
    },
    w )

type group_result = {
  gc_transactions : int;
  gc_force_requests : int;
  gc_force_ios : int;
  gc_saved_ios : int;
  gc_paper_saving : float;
  gc_mean_commit_latency : float;
}

let group_commit ?(timeout = 5.0) ~n ~group_size () =
  if n < 1 then invalid_arg "Run.group_commit: n must be at least 1";
  let config =
    if group_size <= 1 then default_config
    else with_group_commit ~size:group_size ~timeout default_config
  in
  let w = stream_world ~config ~long_locks:false in
  let c = (root_node w).participant and now () = Simkernel.Engine.now w.engine in
  let started = Names.create n and completed = ref 0 and latency = ref 0.0 in
  Participant.set_on_root_complete c (fun ~txn _ ~pending:_ ->
      incr completed;
      latency := !latency +. (now () -. Names.find started txn));
  for i = 1 to n do
    let txn = "g" ^ string_of_int i in
    ignore
      (Simkernel.Engine.schedule w.engine ~delay:(float_of_int (i - 1) *. 0.1)
         (fun () ->
           Names.replace started txn (now ());
           open_stream_txn w c ~txn))
  done;
  Simkernel.Engine.run w.engine;
  let sum f =
    List.fold_left (fun acc l -> acc + f (Wal.Log.stats l)) 0 (all_wals w)
  in
  let requests = sum (fun s -> s.Wal.Log.forced_writes) in
  let ios = sum (fun s -> s.Wal.Log.force_ios) in
  {
    gc_transactions = !completed;
    gc_force_requests = requests;
    gc_force_ios = ios;
    gc_saved_ios = requests - ios;
    gc_paper_saving = Cost_model.group_commit_saving ~n ~m:(max 1 group_size);
    gc_mean_commit_latency = !latency /. float_of_int (max 1 !completed);
  }

let committed_states w =
  List.map (fun (name, n) -> (name, Kvstore.committed_bindings n.kv)) w.nodes

let consistent w ~txn ~outcome =
  List.for_all
    (fun (name, n) ->
      if (not n.profile.p_updated) || (n.profile.p_left_out && w.cfg.opts.leave_out)
      then true
      else
        let v = Kvstore.committed_value n.kv ("acct-" ^ name) in
        match outcome with
        | Committed -> v = Some ("upd-by-" ^ txn)
        | Aborted -> v = None)
    w.nodes
