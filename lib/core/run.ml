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
  causal : Obs.Causal.t;  (** causal event graph; mode [Off] unless enabled *)
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

(** Build the simulated complex: one participant, WAL and resource manager
    per tree member.  A member with [p_shares_parent_log] reuses its
    parent's WAL (the shared-log optimization). *)
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
  let trace = Trace.create ~keep_events:config.trace_events () in
  let registry = Obs.Registry.create () in
  let causal = Obs.Causal.create () in
  let wal_config =
    { Wal.Log.io_latency = config.io_latency; group = config.group_commit }
  in
  let rec build parent parent_wal (Tree (p, children)) =
    let wal =
      match parent_wal with
      | Some w when config.opts.shared_log && p.p_shares_parent_log -> w
      | _ -> Wal.Log.create engine ~node:p.p_name ~config:wal_config ()
    in
    let kv = Kvstore.create engine ~name:(p.p_name ^ ".rm") ~wal ~reliable:p.p_reliable () in
    let participant =
      Participant.create ~engine ~net ~trace ~cfg:config ~profile:p ~parent
        ~child_profiles:(List.map tree_profile children)
        ~wal ~kv
    in
    Participant.attach participant;
    Participant.set_registry participant registry;
    Participant.set_causal participant causal;
    ((p.p_name, { participant; wal; kv; profile = p }) :: [])
    @ List.concat_map (build (Some p.p_name) (Some wal)) children
  in
  let nodes = build None None tree in
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

(** Give every member work to do under its declared profile: updated
    members write one record (exclusive lock held until the 2PC releases
    it), read-only members read one (shared lock), left-out members stay
    suspended and touch nothing. *)
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

(** Run one distributed commit to quiescence. *)
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

(** Convenience: set up and commit in one step. *)
let commit_tree ?config ?txn tree =
  let w = setup ?config tree in
  (commit ?txn w, w)

(** What one member does during one transaction of a sequence. *)
type work = Work_update | Work_read | Work_none

(** Tell each parent which child subtrees did no work in [txn] ([idle]
    judges one member), returning the marked [(parent, child)] pairs so the
    caller can clear each parent's marks once [txn] finishes.  The marks
    only matter under leave-out, so without it nothing is marked. *)
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

(** Run several transactions through the same complex, with a per-member,
    per-transaction work assignment.  This is where the dynamic
    OK-TO-LEAVE-OUT protocol lives: a member whose committed YES vote
    carried the leave-out flag is suspended, and if the workload gives its
    whole subtree nothing to do in the next transaction, its parent leaves
    it out of that commit entirely.

    Returns per-transaction metrics (the shared trace is cleared between
    transactions so each metrics record covers one commit). *)
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

(** All committed key/value state across live members: used by tests to
    check atomicity (every member agrees on the outcome's effects). *)
let committed_states w =
  List.map (fun (name, n) -> (name, Kvstore.committed_bindings n.kv)) w.nodes

(** True when every updated member's data reflects [outcome] (commit: the
    update is visible; abort: it is not). *)
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
