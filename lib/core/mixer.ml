(** Concurrent multi-transaction throughput engine.

    Drives N overlapping transactions through one {!Run.world} as an
    open-loop arrival process on the shared {!Simkernel.Engine}: commit
    trees per transaction drawn from a deterministic seeded RNG, keys from
    a contended keyspace so {!Lockmgr} waits and timeout aborts actually
    happen, group commit batching force I/Os across transactions, and
    long-locks/implied acknowledgments piggybacking on genuinely-next
    transactions ({!Participant.flush_piggybacks}) instead of the synthetic
    think-time timer. *)

open Types
module E = Simkernel.Engine
module Names = Run.Names

type op = Op_update of { key : string } | Op_read of { key : string }
type item = { it_node : string; it_op : op }

type cfg = {
  concurrency : int;  (** open-loop arrival-rate multiplier *)
  txns : int;  (** transactions to submit *)
  keyspace : int;  (** keys per member: smaller = more contention *)
  update_prob : float;  (** per member: P(update one key) *)
  read_prob : float;  (** per member: P(read one key); rest = idle *)
  base_interarrival : float;
      (** mean inter-arrival at concurrency 1; the effective mean is
          [base_interarrival /. concurrency] *)
  lock_timeout : float;  (** give up waiting for locks after this long *)
  seed : int;
}

let default_cfg =
  {
    concurrency = 1;
    txns = 100;
    keyspace = 8;
    update_prob = 0.6;
    read_prob = 0.25;
    base_interarrival = 30.0;
    lock_timeout = 120.0;
    seed = 1;
  }

(* Per-transaction bookkeeping on the mixer side. *)
type txn_rec = {
  x_txn : string;
  x_arrival : float;
  x_items : item list;  (** tree order: locks are acquired in this order *)
  mutable x_commit_started : float option;
  mutable x_completed : float option;
  mutable x_outcome : outcome option;
  mutable x_timed_out : bool;  (** gave up waiting for locks *)
  mutable x_timer : E.event;
      (** the lock-wait timeout until the commit starts, then the reap
          watchdog until the root reports Committed; else [E.no_event] *)
  mutable x_waits : int;
  mutable x_wait_time : float;
}

(* What the driver knew about one transaction when the run went quiet:
   enough for a fault-aware audit to reconstruct ground truth without
   reaching back into the mixer's internal bookkeeping. *)
type txn_summary = {
  ts_txn : string;
  ts_items : item list;
  ts_outcome : outcome option;
      (** what the root reported to the driver; [None] = never reported
          (possible when faults killed the coordinator) *)
  ts_commit_started : bool;
  ts_timed_out : bool;
  ts_arrival : float;
  ts_completed : float option;
      (** when the driver learned the outcome; [None] = never resolved *)
}

let txn_value txn = "v:" ^ txn
let value_owner v =
  if String.length v > 2 && v.[0] = 'v' && v.[1] = ':' then
    Some (String.sub v 2 (String.length v - 2))
  else None

let label_of_opts opts =
  match opts_to_list opts with
  | [] -> "baseline"
  | l -> String.concat "+" (List.map opt_to_string l)

let rec has_item name = function
  | [] -> false
  | it :: rest -> String.equal it.it_node name || has_item name rest

let node_has_work x name = has_item name x.x_items

(* ------------------------------------------------------------------ *)
(* End-of-run consistency audit                                        *)
(* ------------------------------------------------------------------ *)

(* Atomicity/consistency are checked at quiescence rather than per
   completion: with vote-reliable implied acks or early acks the root can
   report a commit before subordinates have applied it.

   The audit is fault-aware.  Under injected crashes and partitions the
   driver's view ([ts_outcome]) is not ground truth: the coordinator may
   have made a decision durable and died before reporting it.  Ground
   truth is therefore derived from the durable evidence (any TM [Committed]
   or RM [Rm_committed] record commits the transaction; no such record
   anywhere means it aborted or never decided), and a member is excused
   from the committed-everywhere obligation only while it is {e down} or
   legitimately {e in doubt} - never merely slow, because the audit runs at
   engine quiescence. *)
module Audit = struct
  type breakdown = {
    committed_missing : int;
        (** committed txn not applied at an up, not-in-doubt updated member *)
    aborted_applied : int;
        (** abort/undecided txn durably applied, or its value visible *)
    bad_value : int;
        (** a committed binding not owned by a committed writer of that key *)
  }

  let total b = b.committed_missing + b.aborted_applied + b.bad_value

  type heuristic = {
    h_member : string;
    h_txn : string;
    h_id : int;
    h_action : outcome;
    mutable h_told : outcome option;
  }

  (* What the driver and the logs say about the transactions, indexed by
     id in the engine's name table. *)
  type evidence = {
    ev_world : Run.world;
    ev_summaries : txn_summary array;
        (** by id; [no_summary] where only the logs name it *)
    ev_flags : Bytes.t;  (** by id: the bits below *)
    ev_applied : string list array;
        (** by id: resource managers with an [Rm_committed] record for it *)
    ev_heuristics : heuristic list;
  }

  (* By id: some record commits (aborts) it; some member logged a
     heuristic for it.  Without a heuristic record, strong evidence is
     any commit (abort) record; with one, the second look sets a strong
     bit of its own. *)
  let commits = 1
  let aborts = 2
  let heuristic = 4
  let bit = function Committed -> commits | Aborted -> aborts
  let strong_bit o = bit o lsl 3

  let no_summary =
    {
      ts_txn = "";
      ts_items = [];
      ts_outcome = None;
      ts_commit_started = false;
      ts_timed_out = false;
      ts_arrival = 0.0;
      ts_completed = None;
    }

  let[@inline] has flags id f = Char.code (Bytes.unsafe_get flags id) land f <> 0
  let[@inline] flag ev id f = has ev.ev_flags id f

  (* whether any transaction from [id] on carries [f], building nothing *)
  let rec any flags f id =
    id < Bytes.length flags && (has flags id f || any flags f (id + 1))

  let mark flags id f =
    Bytes.unsafe_set flags id
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get flags id) lor f))

  (* the outcome a commit or abort record gives, heuristic or not *)
  let outcome_of = function
    | Wal.Log_record.Committed | Wal.Log_record.Rm_committed
    | Wal.Log_record.Heuristic_commit ->
        Committed
    | _ -> Aborted

  (* The second look, taken only once the first pass found a heuristic
     record.  Each heuristic record is a decision: a member logs at most
     one per transaction, since restart restores a durable one and a crash
     drops one still volatile.  Then every log's records of those
     transactions are read again for strong evidence, leaving out a
     member's store records with its decision's action, and for what each
     member's TM records told it. *)
  let read_heuristics w flags =
    let rows f =
      List.iter
        (fun log ->
          for i = 0 to Wal.Log.rows log - 1 do
            f log (Wal.Log.row_kind log i) (Wal.Log.row_txn log i)
              (Wal.Log.writer_name log (Wal.Log.row_writer log i))
          done)
        (Run.all_wals w)
    in
    let taken = ref [] in
    let find id member =
      List.find_opt (fun h -> h.h_id = id && String.equal h.h_member member) !taken
    in
    rows (fun log kind id member ->
        match kind with
        | Wal.Log_record.Heuristic_commit | Wal.Log_record.Heuristic_abort ->
            let h_txn = Wal.Log.txn_name log id and h_action = outcome_of kind in
            taken :=
              { h_member = member; h_txn; h_id = id; h_action; h_told = None }
              :: !taken
        | _ -> ());
    (* a decision explains its member's store records with its action *)
    let explains id store o h =
      h.h_id = id && h.h_action = o
      && String.equal store (Kvstore.name (Run.kv w h.h_member))
    in
    rows (fun _ kind id writer ->
        if has flags id heuristic then
          match kind with
          | Wal.Log_record.Committed | Wal.Log_record.Aborted ->
              let o = outcome_of kind in
              mark flags id (strong_bit o);
              Option.iter (fun h -> h.h_told <- Some o) (find id writer)
          | Wal.Log_record.Rm_committed | Wal.Log_record.Rm_aborted ->
              let o = outcome_of kind in
              if not (List.exists (explains id writer o) !taken) then
                mark flags id (strong_bit o)
          | _ -> ());
    !taken

  (* One slot per id, then one pass over each physical log's rows:
     scanning per transaction would be quadratic in the run length, and
     rebuilding records would cost more than the checks.  A transaction
     no layer named (every member it needed was down) is named here, so
     every summary has a slot. *)
  let scan w summaries =
    let ids = Simkernel.Engine.ids w.Run.engine in
    List.iter
      (fun x ->
        if Simkernel.Ids.find ids x.ts_txn < 0 then
          ignore (Simkernel.Ids.intern ids x.ts_txn))
      summaries;
    let n = Simkernel.Ids.count ids in
    let by_id = Array.make n no_summary in
    List.iter (fun x -> by_id.(Simkernel.Ids.find ids x.ts_txn) <- x) summaries;
    let flags = Bytes.make n '\000' in
    let applied = Array.make n [] in
    List.iter
      (fun wal ->
        for i = 0 to Wal.Log.rows wal - 1 do
          match Wal.Log.row_kind wal i with
          | Wal.Log_record.Rm_committed ->
              let id = Wal.Log.row_txn wal i in
              mark flags id commits;
              applied.(id) <-
                Wal.Log.writer_name wal (Wal.Log.row_writer wal i) :: applied.(id)
          | Wal.Log_record.Committed ->
              mark flags (Wal.Log.row_txn wal i) commits
          | Wal.Log_record.Rm_aborted | Wal.Log_record.Aborted ->
              mark flags (Wal.Log.row_txn wal i) aborts
          | Wal.Log_record.Heuristic_commit ->
              mark flags (Wal.Log.row_txn wal i) (commits lor heuristic)
          | Wal.Log_record.Heuristic_abort ->
              mark flags (Wal.Log.row_txn wal i) (aborts lor heuristic)
          | Wal.Log_record.Rm_update | Wal.Log_record.Rm_prepared
          | Wal.Log_record.Checkpoint | Wal.Log_record.Commit_pending
          | Wal.Log_record.Prepared | Wal.Log_record.End
          | Wal.Log_record.Agent | Wal.Log_record.Certificate ->
              ()
        done)
      (Run.all_wals w);
    {
      ev_world = w;
      ev_summaries = by_id;
      ev_flags = flags;
      ev_applied = applied;
      ev_heuristics =
        (if any flags heuristic 0 then read_heuristics w flags else []);
    }

  let divergence ev =
    let n = ref 0 in
    for id = 0 to Bytes.length ev.ev_flags - 1 do
      if flag ev id commits && flag ev id aborts then incr n
    done;
    !n

  let txns ev = Bytes.length ev.ev_flags
  let heuristics ev = ev.ev_heuristics

  let strong ev id o =
    flag ev id (if flag ev id heuristic then strong_bit o else bit o)

  let outcome ev id =
    match ev.ev_summaries.(id).ts_outcome with
    | Some _ as o -> o
    | None ->
        if strong ev id Committed then Some Committed
        else if strong ev id Aborted then Some Aborted
        else None

  let rec updates ~node ~key = function
    | [] -> false
    | { it_node; it_op = Op_update { key = k } } :: rest ->
        (String.equal it_node node && String.equal k key)
        || updates ~node ~key rest
    | { it_op = Op_read _; _ } :: rest -> updates ~node ~key rest

  (* ground truth: the root's report when there is one, else the durable
     record is the decision *)
  let committed ev x id =
    match x.ts_outcome with
    | Some Committed -> true
    | Some Aborted -> false
    | None -> flag ev id commits

  (* A member is excused from having applied an outcome while the
     transaction is in doubt there: blocked awaiting its coordinator
     (live state), rebuilt in-doubt by crash recovery (KV state), or
     awaiting a delegated decision. *)
  let in_doubt_at (n : Run.node) txn =
    Kvstore.is_in_doubt n.Run.kv ~txn
    || Participant.is_in_doubt n.Run.participant ~txn

  let check ev =
    let w = ev.ev_world in
    let committed_missing = ref 0 in
    let aborted_applied = ref 0 in
    let bad_value = ref 0 in
    let check_txn id x =
      let committed = committed ev x id in
      let applied = ev.ev_applied.(id) in
      List.iter
        (fun it ->
          match it.it_op with
          | Op_read _ -> ()
          | Op_update { key } ->
              let n = Run.node w it.it_node in
              let applied = List.mem (Kvstore.name n.Run.kv) applied in
              if committed then begin
                (* every member the txn updated must have applied it,
                   unless it is down or still legitimately blocked *)
                if
                  (not applied)
                  && Net.is_up w.Run.net it.it_node
                  && not (in_doubt_at n x.ts_txn)
                then incr committed_missing
              end
              else begin
                (* no member may have applied any part of it *)
                if applied then incr aborted_applied;
                if
                  Kvstore.committed_value n.Run.kv key
                  = Some (txn_value x.ts_txn)
                then incr aborted_applied
              end)
        x.ts_items
    in
    Array.iteri
      (fun id x -> if x != no_summary then check_txn id x)
      ev.ev_summaries;
    (* every committed binding must belong to a committed transaction that
       actually wrote it there *)
    List.iter
      (fun (name, n) ->
        Kvstore.iter_committed n.Run.kv (fun key v ->
            match value_owner v with
            | None -> ()  (* pre-loaded or foreign value *)
            | Some owner -> (
                let ids = Simkernel.Engine.ids ev.ev_world.Run.engine in
                let id = Simkernel.Ids.find ids owner in
                let x =
                  if id >= 0 && id < Array.length ev.ev_summaries then
                    ev.ev_summaries.(id)
                  else no_summary
                in
                if
                  not
                    (x != no_summary && committed ev x id
                    && updates ~node:name ~key x.ts_items)
                then incr bad_value)))
      w.Run.nodes;
    {
      committed_missing = !committed_missing;
      aborted_applied = !aborted_applied;
      bad_value = !bad_value;
    }

  let breakdown w summaries = check (scan w summaries)
end

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let validate cfg =
  let fail what = invalid_arg ("Mixer.run: " ^ what) in
  let delay x = Float.is_finite x && x >= 0.0 in
  let prob p = p >= 0.0 && p <= 1.0 in
  if cfg.txns <= 0 then fail "txns must be positive";
  if cfg.keyspace < 1 then fail "keyspace must be at least 1";
  if not (delay cfg.lock_timeout) then fail "lock_timeout must be finite and >= 0";
  if not (delay cfg.base_interarrival) then
    fail "base_interarrival must be finite and >= 0";
  if not (prob cfg.update_prob && prob cfg.read_prob) then
    fail "update_prob and read_prob must lie in [0, 1]";
  if cfg.update_prob +. cfg.read_prob > 1.0 then
    fail "update_prob and read_prob must sum to at most 1"

let run_full ?(config = default_config) ?inject ?(causal = Obs.Causal.Off)
    ?scratch cfg tree =
  validate cfg;
  let w = Run.setup ~config ?scratch tree in
  let engine = w.Run.engine in
  let reg = w.Run.registry in
  let log = w.Run.causal in
  Obs.Causal.set_mode log causal;
  let graphing () = Obs.Events.graphing log in
  (* Driver-side causal events live on the root's process chain: the
     arrival, every lock grant and the commit trigger precede the root
     participant's own first event there, so each transaction's graph is
     connected from arrival to terminal.  Each is one graph row of the
     world's log; callers test [graphing] before computing its ids. *)
  let mark x kind ~who ~peer ~label ~flags =
    Obs.Events.emit log kind ~txn:(Obs.Events.txn log x.x_txn)
      ~who:(Obs.Events.member log who) ~peer ~label ~flags
  in
  (* Latency distributions stream into bounded log-bucketed histograms as
     transactions finish: memory stays proportional to the dynamic range of
     the data, not to [cfg.txns], so multi-million-transaction sweeps are
     safe.  [Metrics.percentile] remains the exact reference these
     approximate (within one bucket). *)
  let h_commit = Obs.Registry.histogram reg "mixer/commit_latency" in
  let h_hold = Obs.Registry.histogram reg "mixer/lock_hold" in
  let h_wait = Obs.Registry.histogram reg "mixer/lock_wait" in
  let rng = Simkernel.Det_rng.create ~seed:cfg.seed in
  (* Each transaction's bookkeeping, by name and by arrival index.  The
     handlers and hooks below reach it through these cells, which the end
     of the run empties: a finished world keeps only its summaries. *)
  let records : txn_rec Names.t ref = ref (Names.create cfg.txns) in
  let by_idx : txn_rec option array ref = ref (Array.make (cfg.txns + 1) None) in
  let outstanding = ref 0 in
  let arrived = ref 0 in
  (* deferred long-locks / last-agent acks ride the next real arrival *)
  let flush_all () =
    List.iter
      (fun (_, n) -> Participant.flush_piggybacks n.Run.participant)
      w.Run.nodes
  in
  let maybe_done () =
    if !arrived = cfg.txns && !outstanding = 0 then
      (* nothing genuinely-next is coming: release the stragglers *)
      flush_all ()
  in
  let finish x outcome =
    if x.x_completed = None then begin
      x.x_completed <- Some (E.now engine);
      x.x_outcome <- Some outcome;
      (match outcome with
      | Committed ->
          (* nothing is left for the reap watchdog (below) *)
          E.cancel engine x.x_timer;
          x.x_timer <- E.no_event
      | Aborted -> ());
      if graphing () then
        mark x Obs.Events.Notified ~who:w.Run.root ~peer:(-1) ~label:(-1)
          ~flags:
            (Obs.Events.terminal
            lor (match outcome with Committed -> 0 | Aborted -> Obs.Events.abort)
            lor if x.x_timed_out then Obs.Events.timed_out else 0);
      (match (outcome, x.x_commit_started) with
      | Committed, Some s -> Obs.Histogram.record h_commit (E.now engine -. s)
      | _ -> ());
      (* drop the leave-out marks [Run.mark_idle_subtrees] left at any
         parent for this transaction *)
      if config.opts.leave_out then
        List.iter
          (fun (_, n) ->
            Participant.clear_idle_children n.Run.participant ~txn:x.x_txn)
          w.Run.nodes;
      decr outstanding;
      maybe_done ()
    end
  in
  Participant.set_on_root_complete
    (Run.participant w w.Run.root)
    (fun ~txn outcome ~pending:_ ->
      match Names.find !records txn with
      | x -> finish x outcome
      | exception Not_found -> ());
  (* -- work plans -------------------------------------------------- *)
  (* one item per member that has work, in tree order; each draw is bound
     before the recursive call, so the RNG is read in member order *)
  let read_below = cfg.update_prob +. cfg.read_prob in
  let rec plan = function
    | [] -> []
    | (name, _) :: rest -> (
        match Simkernel.Det_rng.below rng cfg.update_prob read_below with
        | 2 -> plan rest
        | choice ->
            let key = "k" ^ string_of_int (Simkernel.Det_rng.int rng cfg.keyspace) in
            let it_op = if choice = 0 then Op_update { key } else Op_read { key } in
            let it = { it_node = name; it_op } in
            it :: plan rest)
  in
  (* A node its parent will leave out (marked idle there, and suspended)
     must not receive an unsolicited-vote trigger; every other unsolicited
     member must, or the vote timer will presume NO from it. *)
  let left_out idle name =
    List.exists
      (fun (parent, child) ->
        child = name && Participant.is_suspended parent ~child)
      idle
  in
  let trigger_unsolicited x idle =
    if config.opts.unsolicited_vote then
      List.iter
        (fun (name, n) ->
          if n.Run.profile.p_unsolicited && not (left_out idle name) then
            ignore
              (E.schedule engine ~delay:0.0 (fun () ->
                   if graphing () then
                     mark x Obs.Events.Unsolicited ~who:name
                       ~peer:(Obs.Events.member log w.Run.root) ~label:(-1)
                       ~flags:0;
                   Participant.begin_unsolicited n.Run.participant ~txn:x.x_txn)))
        w.Run.nodes
  in
  (* -- abort before commit: lock-wait timeout or node crash -------- *)
  let release_everywhere x =
    List.iter
      (fun it ->
        (* a down member has no volatile state to release (its lock table
           died with it); sending it work would only pollute its log *)
        if Net.is_up w.Run.net it.it_node then
          Kvstore.abort (Run.kv w it.it_node) ~txn:x.x_txn (fun () -> ()))
      x.x_items
  in
  (* Fail a transaction that has not yet entered the commit protocol:
     lock-wait timeout, a needed member crashing under it, or a dead
     coordinator.  Transactions already inside 2PC are the protocol's
     problem, not the driver's. *)
  let fail_txn x =
    if x.x_commit_started = None && x.x_completed = None then begin
      E.cancel engine x.x_timer;
      x.x_timer <- E.no_event;
      x.x_timed_out <- true;
      release_everywhere x;
      finish x Aborted
    end
  in
  (* Arrivals, lock-wait timeouts and the branch-abandonment watchdog are
     the driver's per-transaction event classes; each schedules flat (kind
     + txn index) so the steady-state workload allocates no event
     closures.  [by_idx] maps the index back. *)
  let timeout_kind =
    E.register_kind engine ~name:"mixer.lock_timeout" (fun i _ _ _ ->
        match !by_idx.(i) with Some x -> fail_txn x | None -> ())
  in
  (* Branch abandonment, armed whenever [inject] is given (a fault plan,
     even an empty one): a member that entered a commit's write phase but
     was never asked to vote - its coordinator died or was cut off before
     Prepare reached it - would hold its locks forever, because no protocol
     state exists there to drive a resolution.  Before voting an RM is free
     to abort unilaterally (Section 2), so a watchdog reaps such branches:
     still up, not blocked in any protocol state, yet still holding work for
     the transaction.  A member that voted is in doubt (or otherwise
     unresolved) and is deliberately left alone.  It runs once per
     committing transaction, so its membership tests build nothing, and
     [finish] cancels it when the root reports Committed: every member
     with work has voted by then, so each is in doubt or has applied the
     commit and released its locks, and the reap would find nothing. *)
  let rec reap txn = function
    | [] -> ()
    | it :: rest ->
        let name = it.it_node in
        if Net.is_up w.Run.net name then begin
          let n = Run.node w name in
          let kv = n.Run.kv in
          let blocked =
            Kvstore.is_in_doubt kv ~txn
            || Participant.is_unresolved n.Run.participant ~txn
          in
          let holding =
            Kvstore.is_updated kv ~txn
            || Lockmgr.holds_any (Kvstore.locks kv) ~txn
          in
          if (not blocked) && holding then
            Kvstore.abandon kv ~txn (fun () -> ())
        end;
        reap txn rest
  in
  (* keyed by the transaction's id, which the commit has just interned *)
  let ids = E.ids engine in
  let reap_kind =
    E.register_kind engine ~name:"mixer.reap" (fun id _ _ _ ->
        match Names.find !records (Simkernel.Ids.name ids id) with
        | x -> reap x.x_txn x.x_items
        | exception Not_found -> ())
  in
  (* A crash fails every pre-commit transaction that touched (or was about
     to touch) the dead node: its write set and lock grants are gone, so
     letting the commit proceed would silently lose the update. *)
  List.iter
    (fun (name, n) ->
      Participant.set_on_crash n.Run.participant (fun () ->
          Names.iter
            (fun _ x -> if node_has_work x name then fail_txn x)
            !records))
    w.Run.nodes;
  (* -- commit ------------------------------------------------------ *)
  let start_commit x =
    E.cancel engine x.x_timer;
    x.x_timer <- E.no_event;
    if not x.x_timed_out then begin
      if Participant.is_crashed (Run.participant w w.Run.root) then
        (* nobody is alive to coordinate *)
        fail_txn x
      else begin
        x.x_commit_started <- Some (E.now engine);
        if graphing () then
          mark x Obs.Events.Commit_requested ~who:w.Run.root ~peer:(-1)
            ~label:(-1) ~flags:0;
        let idle =
          if config.opts.leave_out then
            Run.mark_idle_subtrees w ~txn:x.x_txn ~idle:(fun name ->
                not (node_has_work x name))
          else []
        in
        trigger_unsolicited x idle;
        Participant.begin_commit (Run.participant w w.Run.root) ~txn:x.x_txn;
        if inject <> None then
          x.x_timer <-
            E.schedule_flat engine ~delay:cfg.lock_timeout ~kind:reap_kind
              ~a0:(Simkernel.Ids.find ids x.x_txn) ~a1:0 ~a2:0
      end
    end
  in
  (* -- lock acquisition, one item at a time in tree order ---------- *)
  let granted x it ~waited =
    if graphing () then
      let key = match it.it_op with Op_update { key } | Op_read { key } -> key in
      mark x Obs.Events.Lock_granted ~who:w.Run.root
        ~peer:(Obs.Events.member log it.it_node)
        ~label:(Obs.Events.text log key)
        ~flags:(Obs.Events.seg (if waited then 3 else 0))
  in
  (* Each lock is first asked for with a try-now call; only a request that
     must queue builds a continuation, and the queue then grants it.
     [value] is the transaction's one value string, shared by every
     store it updates. *)
  let rec acquire x value items =
    match items with
    | [] -> start_commit x
    | ({ it_node; it_op } as it) :: rest ->
        if not (Net.is_up w.Run.net it_node) then
          (* the member is down right now: fail fast rather than doing work
             a restart would silently forget *)
          fail_txn x
        else begin
          let kv = Run.kv w it_node in
          let txn = x.x_txn in
          let now =
            match it_op with
            | Op_update { key } -> Kvstore.put kv ~txn ~key ~value
            | Op_read { key } ->
                Lockmgr.try_acquire (Kvstore.locks kv) ~txn ~key Lockmgr.Shared
          in
          if now then proceed x value it rest kv ~waited:false
          else begin
            let requested = E.now engine in
            let after_grant () =
              let waited = E.now engine -. requested in
              if waited > 1e-9 then begin
                x.x_waits <- x.x_waits + 1;
                x.x_wait_time <- x.x_wait_time +. waited;
                Obs.Histogram.record h_wait waited
              end;
              proceed x value it rest kv ~waited:(waited > 1e-9)
            in
            match it_op with
            | Op_update { key } ->
                Kvstore.put_async kv ~txn ~key ~value ~granted:after_grant
            | Op_read { key } ->
                Kvstore.get_async kv ~txn ~key ~granted:(fun _ -> after_grant ())
          end
        end
  and proceed x value it rest kv ~waited =
    granted x it ~waited;
    if x.x_timed_out then
      (* granted after we gave up: let it go again *)
      Kvstore.abort kv ~txn:x.x_txn (fun () -> ())
    else acquire x value rest
  in
  (* -- arrivals ---------------------------------------------------- *)
  let arrive i =
    (* this transaction's data exchange carries any deferred acks: the
       "genuinely-next transaction" of the long-locks design *)
    flush_all ();
    let txn = "mx-" ^ string_of_int i in
    let x =
      {
        x_txn = txn;
        x_arrival = E.now engine;
        x_items = plan w.Run.nodes;
        x_commit_started = None;
        x_completed = None;
        x_outcome = None;
        x_timed_out = false;
        x_timer = E.no_event;
        x_waits = 0;
        x_wait_time = 0.0;
      }
    in
    Names.replace !records txn x;
    !by_idx.(i) <- Some x;
    incr arrived;
    incr outstanding;
    if graphing () then
      mark x Obs.Events.Arrival ~who:w.Run.root ~peer:(-1) ~label:(-1) ~flags:0;
    x.x_timer <-
      E.schedule_flat engine ~delay:cfg.lock_timeout ~kind:timeout_kind ~a0:i
        ~a1:0 ~a2:0;
    acquire x (txn_value txn) x.x_items
  in
  (* The arrival times are drawn before anything runs, so the plan draws
     see the RNG where they always did.  The world is new, so its clock
     reads 0 and each time is the offset itself.  The engine keeps only
     the next arrival on its agenda, and transaction [i + 1] arrives with
     the stream's element [i]. *)
  let arrive_kind =
    E.register_kind engine ~name:"mixer.arrive" (fun i _ _ _ -> arrive (i + 1))
  in
  let times = Array.make cfg.txns 0.0 in
  Simkernel.Det_rng.arrivals rng
    ~mean:(cfg.base_interarrival /. float_of_int (max 1 cfg.concurrency))
    times;
  E.stream engine ~kind:arrive_kind times;
  (* the fault plan (if any) schedules its crashes, partitions, drops and
     jitter activations onto the same engine before anything runs *)
  (match inject with Some f -> f w | None -> ());
  E.run engine;
  (* -- aggregate --------------------------------------------------- *)
  (* the stream fires in index order, so this is arrival order *)
  let all = List.filter_map Fun.id (Array.to_list !by_idx) in
  let summaries =
    List.map
      (fun x ->
        {
          ts_txn = x.x_txn;
          ts_items = x.x_items;
          ts_outcome = x.x_outcome;
          ts_commit_started = x.x_commit_started <> None;
          ts_timed_out = x.x_timed_out;
          ts_arrival = x.x_arrival;
          ts_completed = x.x_completed;
        })
      all
  in
  (* One pass counts outcomes, waits and completions, and streams each
     committed transaction's lock hold into the histogram; lock holds are
     only known once the lock manager has seen the releases.  A hold sums
     its members in name order, as it always has, so the float sum is the
     same to the last bit. *)
  let members =
    Array.of_list
      (List.map
         (fun (name, n) -> (name, Kvstore.locks n.Run.kv))
         (List.sort (fun (a, _) (b, _) -> compare a b) w.Run.nodes))
  in
  let committed = ref 0 and aborted = ref 0 and total_waits = ref 0 in
  let last_completion = ref 0.0 and total_wait_time = ref 0.0 in
  List.iter
    (fun x ->
      (match x.x_outcome with
      | Some Committed ->
          incr committed;
          if x.x_items <> [] then begin
            let hold = ref 0.0 in
            for j = 0 to Array.length members - 1 do
              let name, locks = members.(j) in
              if has_item name x.x_items then
                hold := !hold +. Lockmgr.txn_lock_time locks ~txn:x.x_txn
            done;
            Obs.Histogram.record h_hold !hold
          end
      | Some Aborted -> incr aborted
      | None -> ());
      (match x.x_completed with
      | Some c -> last_completion := max !last_completion c
      | None -> ());
      total_waits := !total_waits + x.x_waits;
      total_wait_time := !total_wait_time +. x.x_wait_time)
    all;
  let committed = !committed and aborted = !aborted in
  let total_waits = !total_waits and total_wait_time = !total_wait_time in
  let last_completion = !last_completion in
  let duration = last_completion in
  let flows = Trace.flows w.Run.trace in
  let data_flows = Trace.data_flows w.Run.trace in
  let force_ios =
    List.fold_left
      (fun acc wal -> acc + (Wal.Log.stats wal).Wal.Log.force_ios)
      0 (Run.all_wals w)
  in
  let q h p = if Obs.Histogram.count h = 0 then 0.0 else Obs.Histogram.quantile h p in
  let hist_mean h = if Obs.Histogram.count h = 0 then 0.0 else Obs.Histogram.mean h in
  let phase_latency =
    List.filter_map
      (fun (name, h) ->
        let prefix = "phase/" in
        let pl = String.length prefix in
        if String.length name > pl && String.sub name 0 pl = prefix then
          Some (String.sub name pl (String.length name - pl), Obs.Histogram.summary h)
        else None)
      (Obs.Registry.histograms reg)
  in
  let ratio = Metrics.Agg.ratio in
  let agg =
    {
      Metrics.Agg.label = label_of_opts config.opts;
      concurrency = cfg.concurrency;
      txns = cfg.txns;
      committed;
      aborted;
      duration;
      throughput = (if duration > 0.0 then ratio (float_of_int committed) 1 /. duration else 0.0);
      abort_rate = ratio (float_of_int aborted) cfg.txns;
      commit_latency_p50 = q h_commit 50.0;
      commit_latency_p95 = q h_commit 95.0;
      commit_latency_p99 = q h_commit 99.0;
      commit_latency_mean = hist_mean h_commit;
      lock_hold_p50 = q h_hold 50.0;
      lock_hold_p95 = q h_hold 95.0;
      lock_hold_p99 = q h_hold 99.0;
      lock_wait_mean = ratio total_wait_time cfg.txns;
      lock_waits = total_waits;
      flows;
      data_flows;
      flows_per_commit = ratio (float_of_int flows) committed;
      tm_writes = Trace.tm_writes w.Run.trace;
      tm_forced = Trace.tm_forced_writes w.Run.trace;
      force_ios;
      force_ios_per_commit = ratio (float_of_int force_ios) committed;
      consistency_violations = Audit.total (Audit.breakdown w summaries);
      phase_latency;
    }
  in
  (* The summaries hold all the driver knew.  Its handlers and hooks stay
     installed in the world, so empty what they reach: at quiescence every
     transaction has started its commit or finished, which a crash hook
     would only skip, and a completion after the run would reach no
     summary either. *)
  records := Names.create 1;
  by_idx := [||];
  (agg, w, summaries)

let run ?config ?scratch cfg tree =
  let agg, w, _ = run_full ?config ?scratch cfg tree in
  (agg, w)
