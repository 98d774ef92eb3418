(** Per-node 2PC state machine: the protocol-agnostic plumbing.

    One participant is a transaction manager plus its local resource manager
    (a {!Kvstore.t}).  This module owns everything the commit protocols
    share - timers, retransmission with backoff, crash/restart/amnesia,
    piggyback deferral, phase telemetry, the Section 4 optimizations -
    driven entirely by network deliveries, log-force completions and timers
    on the shared virtual clock.  Everything protocol-specific (what Basic
    2PC, Presumed Abort and Presumed Nothing do differently) is delegated
    to the {!Protocol_intf.t} resolved from the configuration at {!create}
    time, so a protocol registered with {!Protocol.register} runs on this
    plumbing unchanged.

    The protocol follows the message/logging schedules of the paper's
    figures; DESIGN.md section 3 states the exact counting conventions the
    implementation reproduces. *)

open Types
module Ids = Simkernel.Ids
module Names = Hashtbl.Make (String)

type phase =
  | Ph_idle
  | Ph_voting        (* collecting local vote and children's votes *)
  | Ph_in_doubt      (* voted YES, awaiting the decision *)
  | Ph_delegated     (* sent YES-with-delegation to the last agent *)
  | Ph_deciding      (* outcome chosen, logging it *)
  | Ph_propagating   (* outcome durable, awaiting acknowledgments *)
  | Ph_ended

type child = {
  ch_profile : profile;
  mutable ch_vote : vote option;
  mutable ch_implied_ack : bool;
      (* the child declared its acknowledgment implied (reliable leaf) *)
  mutable ch_acked : bool;
  mutable ch_presumed_no : bool;
      (* vote timeout presumed NO: the member never actually said NO *)
  mutable ch_last_agent : bool;
  mutable ch_pending : bool;  (* wait-for-outcome: resolution in background *)
  mutable ch_retries : int;
  mutable ch_retry : int;  (* the pending ack retry's step slot, -1 for none *)
}

let make_child p ~vote ~implied_ack =
  {
    ch_profile = p;
    ch_vote = vote;
    ch_implied_ack = implied_ack;
    ch_acked = false;
    ch_presumed_no = false;
    ch_last_agent = false;
    ch_pending = false;
    ch_retries = 0;
    ch_retry = -1;
  }

(* Whether every child vouches for its subtree: voted YES declaring itself
   reliable (or, with [leave_out], OK-TO-LEAVE-OUT), voted read-only, or is
   the last agent, which decides instead of voting up.  The protected
   variables of a YES aggregate this way up the tree. *)
let rec children_vouch ~leave_out = function
  | [] -> true
  | ch :: rest ->
      (ch.ch_last_agent
      ||
      match ch.ch_vote with
      | Some (Vote_yes { reliable; leave_out_ok }) ->
          if leave_out then leave_out_ok else reliable
      | Some Vote_read_only -> true
      | Some Vote_no | None -> false)
      && children_vouch ~leave_out rest

let rec names_member name = function
  | [] -> false
  | (p : profile) :: rest -> String.equal p.p_name name || names_member name rest

let rec find_child name = function
  | [] -> raise Not_found
  | ch :: rest -> if String.equal ch.ch_profile.p_name name then ch else find_child name rest

let has_child name l = match find_child name l with _ -> true | exception Not_found -> false

type txn_state = {
  txn : string;
  tid : int;  (* [txn]'s id in the engine's name table *)
  mutable phase : phase;
  mutable phase_since : float;
      (* when [phase] was entered; feeds the per-phase latency histograms *)
  mutable parent : string option;   (* who sent us Prepare / delegation *)
  mutable delegator : string option; (* parent that handed us the decision *)
  mutable children : child list;    (* participating children this txn *)
  mutable local_vote : vote option;
  mutable outcome : outcome option;
  mutable decision_durable : bool;
  mutable long_locks_requested : bool;
  mutable sent_vote_reliable : bool; (* we voted YES+reliable: elide our ack *)
  mutable sent_vote : vote option;   (* the vote we sent up, for duplicate-Prepare re-sends *)
  mutable acked_up : bool;
  mutable damage : Msg.damage_report list;
  mutable pending : bool;
  mutable heuristic_action : outcome option;
  mutable vote_timer : int;  (* a pending timer's step slot, -1 for none *)
  mutable heuristic_timer : int;
  mutable indoubt_timer : int;
  mutable delegation_timer : int;
  mutable awaiting_implied_ack : bool; (* END deferred until next-txn data *)
  mutable logged_tm : bool;
      (* this node wrote a TM record for the txn: answers "does END have
         anything to mark" without rescanning the whole log *)
  mutable indoubt_entered : float option;
      (* when this node last entered Ph_in_doubt and has not yet released
         its locks: feeds the "blocking/blocked_lock" window histogram *)
  mutable heuristic_at : float option;
      (* when a heuristic decision was taken here, until the real outcome
         arrives: feeds the "blocking/heur_exposure" window histogram *)
}

(* A payload bundle owed to [d_dst]: a long-locks ack or implied ack
   waiting for the next transaction's data, or a held last-agent decision.
   [flush_piggybacks] (a concurrent driver's next real arrival) sends it
   early; otherwise a timer at [implied_ack_delay] simulates the think-time
   data message, reproducing the single-transaction behaviour. *)
type deferred = {
  d_id : int;  (* its piggyback timer's step names it by this id *)
  d_dst : string;
  d_payloads : Msg.payload list;
  d_rides : bool;  (* leads the next bundle to [d_dst] (see [rides]) *)
  mutable d_sent : bool;
}

let outcome_bit = function Committed -> 0 | Aborted -> 1
let bit_outcome b = if b = 0 then Committed else Aborted
let bit b = if b then 1 else 0

type t = {
  name : string;
  profile : profile;
  cfg : config;
  proto : Protocol_intf.t;  (* resolved from [cfg.protocol] at creation *)
  evidence : Protocol_intf.evidence;
  ops : Protocol_intf.ops Lazy.t;
      (* the capability record protocol hooks act through, built on first use *)
  engine : Simkernel.Engine.t;
  net : Net.t;
  log : Wal.Log.t;
  wid : int;  (* this transaction manager's writer id in [log] *)
  kv : Kvstore.t;
  trace : Trace.t;
  parent : profile option;  (* static parent *)
  child_profiles : profile list;  (* static immediate children *)
  ids : Ids.t;  (* the engine's name table: transactions are keyed by id *)
  txns : txn_state Ids.Tbl.t;  (* live transactions, by id *)
  mutable ended : Bytes.t;
      (* finished transactions' outcomes, for idempotent replies: one
         [ended_code] byte per id, ['\000'] while not ended *)
  faults : (crash_point, fault) Hashtbl.t;
  fired_faults : (crash_point, unit) Hashtbl.t;
  mutable crashed : bool;
  mutable epoch : int;
  mutable on_root_complete : (txn:string -> outcome -> pending:bool -> unit) option;
  mutable on_agent_decision : (txn:string -> outcome -> unit) option;
  mutable opened : int;  (* id of the transaction last begun here *)
  mutable on_crash : (unit -> unit) option;
      (* workload-driver hook fired after volatile state is wiped *)
  mutable domain : t list;
      (* the members that fail with this one, itself included, in tree
         order: itself and the members sharing its log *)
  hists : Obs.Registry.handles;
      (* the per-phase residence and blocking-window histograms, named as
         [hist_names]; they record nothing until a registry is attached *)
  events : Obs.Events.t;
      (* the trace's log, which the causal graph reads too: each hook
         below writes one row, gated by the log's views, so a world with
         both views off pays one test per potential event *)
  mutable mid : int;  (* this member's id in [events], once it records *)
  suspended_children : unit Names.t;
      (* children whose last committed YES carried OK-TO-LEAVE-OUT: they are
         suspended awaiting data and may be left out of the next transaction *)
  idle_children : string list Ids.Tbl.t;
      (* txn id -> the children that exchanged no data with us in that
         transaction (set by the workload driver before commit begins) *)
  mutable deferred : deferred list;
  mutable deferrals : int;  (* bundles ever deferred here: the next one's id *)
  mutable rejected : int;
      (* payloads refused by the protocol's admissibility check (forgeries
         an honest node can detect); survives restarts - the counter models
         the operator's tally, not volatile state *)
  mutable damage_seen : (string * Msg.damage_report) list;
      (* heuristic-damage reports that reached this node's operator, as
         (txn, report); populated where the protocol says reports stop
         (immediate coordinator for PA/basic, root for PN) *)
  steps : txn_state Step.arena;  (* pending steps' slots; a crash frees them *)
  retry_delays : float list;
      (* [retry_delay] for attempts 0 to 6.  A list holds each float boxed,
         where a [float array] would unbox it, so arming a retry passes
         the engine a ready box and allocates none. *)
}

(* The registry histograms a member records into: one per phase, in
   constructor order, then the three blocking windows.  Constants, so a
   transition builds no string; a phase's own name is the part after
   "phase/". *)
let hist_names =
  [|
    "phase/idle"; "phase/voting"; "phase/in-doubt"; "phase/delegated";
    "phase/decision"; "phase/phase-two"; "phase/ended";
    "blocking/in_doubt"; "blocking/blocked_lock"; "blocking/heur_exposure";
  |]

let phase_slot = function
  | Ph_idle -> 0
  | Ph_voting -> 1
  | Ph_in_doubt -> 2
  | Ph_delegated -> 3
  | Ph_deciding -> 4
  | Ph_propagating -> 5
  | Ph_ended -> 6

let in_doubt_slot = 7
let blocked_lock_slot = 8
let heur_exposure_slot = 9

let blank_state ~txn ~tid ~since =
  {
    txn;
    tid;
    phase = Ph_idle;
    phase_since = since;
    parent = None;
    delegator = None;
    children = [];
    local_vote = None;
    outcome = None;
    decision_durable = false;
    long_locks_requested = false;
    sent_vote_reliable = false;
    sent_vote = None;
    acked_up = false;
    damage = [];
    pending = false;
    heuristic_action = None;
    vote_timer = -1;
    heuristic_timer = -1;
    indoubt_timer = -1;
    delegation_timer = -1;
    awaiting_implied_ack = false;
    logged_tm = false;
    indoubt_entered = None;
    heuristic_at = None;
  }

(* The filler of free step slots, and the state of steps that have none *)
let no_state = blank_state ~txn:"" ~tid:(-1) ~since:0.0

(* [ch]'s position in [children] counted from the tail, which a vote
   materializing a child at the head leaves alone; [child_at] inverts it *)
let rec tail_index ch = function
  | [] -> -1
  | c :: rest -> if c == ch then List.length rest else tail_index ch rest

let child_at children i = List.nth children (List.length children - 1 - i)

let last_agent = List.find (fun ch -> ch.ch_last_agent)

(* [engaged], keeping each child whose vote arrived before the Prepare *)
let rec keep_early early = function
  | [] -> []
  | ch :: rest ->
      let ch = try find_child ch.ch_profile.p_name early with Not_found -> ch in
      ch :: keep_early early rest

let name t = t.name
let kv t = t.kv
let log t = t.log
let is_crashed t = t.crashed
let set_on_root_complete t f = t.on_root_complete <- Some f
let set_on_agent_decision t f = t.on_agent_decision <- Some f
let set_on_crash t f = t.on_crash <- Some f
let failure_domain t = t.domain
let set_failure_domain t members = t.domain <- members
let set_registry t reg = Obs.Registry.attach t.hists reg

(* The workload driver declares, per transaction, which immediate children
   exchanged no data with this member; a child that is both idle and
   suspended (its previous committed YES said OK-TO-LEAVE-OUT) is left out
   of the commit entirely. *)
let idle_in t ~txn =
  match Ids.Tbl.find t.idle_children (Ids.find t.ids txn) with
  | children -> children
  | exception Not_found -> []

let note_idle_child t ~txn ~child =
  Ids.Tbl.replace t.idle_children (Ids.intern t.ids txn)
    (child :: idle_in t ~txn)

let clear_idle_children t ~txn =
  Ids.Tbl.remove t.idle_children (Ids.find t.ids txn)

let is_suspended t ~child = Names.mem t.suspended_children child

(* Finished transactions, one byte per id: a finished fact costs no table
   entry.  The known outcomes are shared constants, so answering one
   allocates nothing. *)
let ended_code = function Committed -> '\001' | Aborted -> '\002'
let known_committed = Some Committed
let known_aborted = Some Aborted

let ended_byte t id =
  if id >= 0 && id < Bytes.length t.ended then Bytes.unsafe_get t.ended id
  else '\000'

(* [txn]'s outcome if it ended here, else [None] *)
let ended_outcome t ~txn =
  match ended_byte t (Ids.find t.ids txn) with
  | '\001' -> known_committed
  | '\002' -> known_aborted
  | _ -> None

let is_ended t ~txn = ended_byte t (Ids.find t.ids txn) <> '\000'

(* [txn]'s live state; raises [Not_found] when there is none, so a hit
   allocates nothing *)
let find_txn t txn = Ids.Tbl.find t.txns (Ids.find t.ids txn)

let set_ended t id outcome =
  let n = Bytes.length t.ended in
  if id >= n then begin
    let bigger = Bytes.make (max (id + 1) (max 64 (2 * n))) '\000' in
    Bytes.blit t.ended 0 bigger 0 n;
    t.ended <- bigger
  end;
  Bytes.set t.ended id (ended_code outcome)

let now t = Simkernel.Engine.now t.engine

let arm t st ~delay kind arg = Step.arm t.steps ~epoch:t.epoch ~delay st kind arg

(* Retransmission period for the [attempt]-th retry: exponential backoff by
   [retry_backoff], with the exponent capped at 6, so every attempt from
   the seventh on waits [retry_interval *. retry_backoff ** 6.] (64x the
   interval at multiplier 2).  The default multiplier of 1.0 reproduces
   the classic fixed-period schedule exactly.  The seven periods are
   computed once per member, as [retry_delays]. *)
let retry_delays (cfg : config) =
  List.init 7 (fun attempt ->
      cfg.retry_interval *. (cfg.retry_backoff ** float_of_int attempt))

let retry_delay (t : t) attempt = List.nth t.retry_delays (min attempt 6)

(* ------------------------------------------------------------------ *)
(* Event rows                                                          *)
(* ------------------------------------------------------------------ *)

(* Each event is one row of the log, in the trace, the causal graph or
   both, as the log's views say.  With both off nothing reads an event
   back, so producers test [recording] (or [tracing], for trace-only
   kinds) and build nothing; the two kinds that move the paper's counters
   are counted directly instead.  A row takes ids the member holds: its
   own ([me]), the transaction's [tid], a peer's found by pointer. *)
let tracing t = Trace.keeps_events t.trace
let recording t = Obs.Events.recording t.events

let me t =
  if t.mid < 0 then t.mid <- Obs.Events.member t.events t.name;
  t.mid

(* [name]'s id for a row: interned when the graph records it, else looked
   up, so a trace-only run leaves the engine's table as it was.  A row
   with no transaction (-1) stays out of the graph. *)
let row_txn t name =
  if Obs.Events.graphing t.events then Ids.intern t.ids name
  else Ids.find t.ids name

let payloads_txn t = function
  | p :: _ -> row_txn t (Msg.payload_txn p)
  | [] -> -1

let note t text = if tracing t then Trace.note t.trace ~who:(me t) text

(* A graph-only step of [st]'s transaction on this member's chain. *)
let mark t st kind =
  if Obs.Events.graphing t.events then
    Obs.Events.emit t.events kind ~txn:st.tid ~who:(me t) ~peer:(-1) ~label:(-1)
      ~flags:0

let observe t slot v = Obs.Registry.observe_at t.hists slot v

(* ------------------------------------------------------------------ *)
(* Phase telemetry                                                     *)
(* ------------------------------------------------------------------ *)

let phase_name ph =
  let h = hist_names.(phase_slot ph) in
  String.sub h 6 (String.length h - 6)

(* Every phase transition goes through here: the residence time of the
   phase being left streams into the registry's "phase/<name>" histogram
   (idle residence is meaningless — states are created on demand). *)
let set_phase t st ph =
  if ph <> st.phase && st.phase <> Ph_idle then
    observe t (phase_slot st.phase) (now t -. st.phase_since);
  if ph <> st.phase then begin
    (* Blocking-window accounting: the in-doubt residence is the window
       during which this member can neither commit nor abort (Gray &
       Lamport's blocking window); the lock-hostage window it opens closes
       later, when [apply_local] actually releases the locks. *)
    if st.phase = Ph_in_doubt then
      observe t in_doubt_slot (now t -. st.phase_since);
    if ph = Ph_in_doubt && st.indoubt_entered = None then
      st.indoubt_entered <- Some (now t)
  end;
  st.phase_since <- now t;
  st.phase <- ph

(* ------------------------------------------------------------------ *)
(* Messaging                                                           *)
(* ------------------------------------------------------------------ *)

(* Application [Data], with at most [Ack]s riding it, is a data flow;
   anything else makes the bundle a protocol flow. *)
let rec data_only seen = function
  | [] -> seen
  | Msg.Data _ :: rest -> data_only true rest
  | Msg.Ack_msg _ :: rest -> data_only seen rest
  | _ -> false

let bundle_is_protocol payloads = not (data_only false payloads)

let is_parent t name =
  match t.parent with Some p -> String.equal p.p_name name | None -> false

(* Whether a delegator's and its last agent's debts to each other ride the
   next flow to the partner, or wait for data. *)
let rides t = t.cfg.opts.long_locks && t.profile.p_long_locks

(* Prefix the owed payloads for [dst], oldest first; [deferred] is newest
   first. *)
let rec ride_owed ~dst payloads = function
  | [] -> payloads
  | d :: older ->
      if d.d_rides && (not d.d_sent) && String.equal d.d_dst dst then begin
        d.d_sent <- true;
        ride_owed ~dst (d.d_payloads @ payloads) older
      end
      else ride_owed ~dst payloads older

(* A bundle's label id: built and interned once per distinct bundle
   code. *)
let bundle_label_id t payloads =
  Obs.Events.coded_label t.events (Msg.bundle_code payloads) Msg.bundle_label
    payloads

(* Every send is a row when the log records and a counter bump
   otherwise.  [tid] is the id of the caller's transaction, whose payloads
   these are, or -1 from a caller that holds no state; the row looks its
   first payload's transaction up by name only then, or when owed
   payloads ride in front. *)
let send t ~tid ~dst payloads =
  let own = payloads in
  let payloads =
    match t.deferred with
    | [] -> payloads
    | deferred -> ride_owed ~dst payloads deferred
  in
  let protocol = bundle_is_protocol payloads in
  if recording t then
    Trace.send t.trace
      ~txn:(if tid >= 0 && payloads == own then tid else payloads_txn t payloads)
      ~src:(me t) ~dst:(Obs.Events.member t.events dst)
      ~label:(bundle_label_id t payloads) ~protocol
  else Trace.count_send t.trace ~protocol;
  ignore (Net.send t.net ~src:t.name ~dst payloads)

(* Every vote leaves through here, signed as the protocol signs votes. *)
let send_vote t ~tid ~dst ~txn ~delegation ~unsolicited ~implied_ack vote =
  let tag = t.evidence.ev_vote_tag ~src:t.name ~txn vote in
  send t ~tid ~dst
    [ Msg.Vote_msg { txn; vote; delegation; unsolicited; implied_ack; tag } ]

let send_decision t ~tid ~dst ~txn outcome =
  send t ~tid ~dst [ t.evidence.ev_decision ~txn outcome ]

(* Prepare flows to every child except the last agent (contacted after all
   other votes are in) and unsolicited voters (they contact us); with
   [only_silent], a retransmission, only to children whose vote has not
   arrived. *)
let send_prepare t st ~only_silent =
  List.iter
    (fun ch ->
      if
        (not (only_silent && ch.ch_vote <> None))
        && (not ch.ch_last_agent)
        && not (t.cfg.opts.unsolicited_vote && ch.ch_profile.p_unsolicited)
      then
        send t ~tid:st.tid ~dst:ch.ch_profile.p_name
          [
            Msg.Prepare
              {
                txn = st.txn;
                long_locks = t.cfg.opts.long_locks && ch.ch_profile.p_long_locks;
                upward = is_parent t ch.ch_profile.p_name;
              };
          ])
    st.children

(* Heuristic-damage reports reaching this node's operator. *)
let report_damage t ~txn reports =
  List.iter
    (fun (d : Msg.damage_report) ->
      t.damage_seen <- (txn, d) :: t.damage_seen;
      if tracing t then Trace.damage t.trace ~node:d.d_node ~reported_to:t.name)
    reports

(* ------------------------------------------------------------------ *)
(* Logging                                                             *)
(* ------------------------------------------------------------------ *)

(* Note that [txn] logged a TM record here, and answer its id for the
   log's rows (interning a name no live state holds). *)
let mark_logged t ~txn =
  match find_txn t txn with
  | st ->
      st.logged_tm <- true;
      st.tid
  | exception Not_found -> Ids.intern t.ids txn

(* The one producer of TM log-write events, as [send] is of sends. *)
let log_write t ~tid kind ~forced ~shared =
  if recording t then Trace.log_write t.trace ~txn:tid ~who:(me t) kind ~forced ~shared
  else Trace.count_tm_write t.trace ~forced

let tm_append ?payload t ~txn kind =
  let tid = mark_logged t ~txn in
  log_write t ~tid kind ~forced:false ~shared:false;
  match payload with
  | None -> Wal.Log.append_row t.log ~txn:tid ~writer:t.wid kind
  | Some p ->
      Wal.Log.append_payload t.log ~txn:tid ~writer:t.wid kind
        (Bytes.unsafe_of_string p) (String.length p)

(* [f] folded over the kinds of this node's own rows of [tid] among the
   log's first [n] rows, oldest first. *)
let fold_own t ~tid n f acc =
  let acc = ref acc in
  for i = 0 to n - 1 do
    if Wal.Log.row_txn t.log i = tid && Wal.Log.row_writer t.log i = t.wid then
      acc := f (Wal.Log.row_kind t.log i) !acc
  done;
  !acc

(* The outcome this node durably logged for [tid]: [Committed] if any
   durable [Committed] record of its own says so, else [Aborted] if one
   says that, else none. *)
let durable_outcome t ~tid =
  fold_own t ~tid (Wal.Log.durable_rows t.log)
    (fun kind known ->
      match kind with
      | Wal.Log_record.Committed -> known_committed
      | Wal.Log_record.Aborted when known = None -> known_aborted
      | _ -> known)
    None

(* The capability record protocol hooks act through.  Its closures
   check crash state and epochs themselves, so one record stays valid
   across restarts. *)
let make_ops t =
  {
    Protocol_intf.op_append = (fun ~txn ?payload kind -> tm_append ?payload t ~txn kind);
    op_note = (fun text -> note t text);
    op_votes =
      (fun ~txn ->
        match find_txn t txn with
        | st ->
            (t.name, st.local_vote)
            :: List.map (fun ch -> (ch.ch_profile.p_name, ch.ch_vote)) st.children
        | exception Not_found -> []);
    op_charge =
      (fun ~flows ~forces kind -> Trace.charge t.trace ~node:t.name ~flows ~forces kind);
  }

(* ------------------------------------------------------------------ *)
(* Crash injection                                                     *)
(* ------------------------------------------------------------------ *)

let rec crash t =
  t.crashed <- true;
  t.epoch <- t.epoch + 1;
  if tracing t then Trace.crash t.trace ~who:(me t);
  Net.crash_node t.net t.name;
  Wal.Log.crash t.log;
  Kvstore.crash t.kv;
  Ids.Tbl.reset t.txns;
  Step.reset t.steps;
  t.evidence.ev_crash ();
  (* suspension is conversation state: the sessions died with us, so the
     conservative post-crash behaviour is to re-engage everyone *)
  Names.reset t.suspended_children;
  Ids.Tbl.reset t.idle_children;
  (* undelivered piggybacked acks died with the sessions *)
  t.deferred <- [];
  match t.on_crash with Some f -> f () | None -> ()

(* [maybe_crash] returns true when the fault fired: the caller must stop. *)
and maybe_crash t point =
  (* most members have no fault planted: answer without a lookup *)
  Hashtbl.length t.faults > 0
  &&
  match Hashtbl.find_opt t.faults point with
  | Some f when not (Hashtbl.mem t.fired_faults point) ->
      Hashtbl.replace t.fired_faults point ();
      (* the whole failure domain goes down: a log-mate left running would
         lose its volatile records under it *)
      let down = List.filter (fun m -> not m.crashed) t.domain in
      List.iter crash down;
      (match f.f_restart_after with
      | Some delay ->
          (* restart is scheduled on the raw engine: the node is down, so the
             epoch guard must not apply *)
          ignore
            (Simkernel.Engine.schedule t.engine ~delay (fun () ->
                 List.iter (fun m -> if m.crashed then restart m) down))
      | None -> ());
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Steps                                                               *)
(* ------------------------------------------------------------------ *)

(* The one dispatch every wait comes back through: a timer step's event
   and a forced record's token both land here.  A step armed before the
   last crash is dropped untouched (the crash freed its slot); otherwise
   its slot is freed and the step runs on the state the slot kept. *)
and resume t ~epoch ~slot:s code =
  if Step.same_epoch epoch t.epoch && not t.crashed then begin
    let st = Step.state t.steps s and arg = Step.arg code in
    Step.release t.steps s;
    match Step.kind code with
    | Vote_timeout ->
        if st.vote_timer = s then st.vote_timer <- -1;
        vote_timeout t st arg
    | Delegation_retry ->
        if st.delegation_timer = s then st.delegation_timer <- -1;
        retry_delegation t st (last_agent st.children) ~reliable:(arg land 1 = 1)
          (arg lsr 1)
    | Ack_retry ->
        let ch = child_at st.children arg in
        if ch.ch_retry = s then ch.ch_retry <- -1;
        retry_child t st ch
    | Heuristic_timeout ->
        if st.heuristic_timer = s then st.heuristic_timer <- -1;
        take_heuristic t st (bit_outcome arg) ~injected:false
    | Indoubt_retry ->
        if st.indoubt_timer = s then st.indoubt_timer <- -1;
        retry_indoubt t st arg
    | Piggyback -> fire_deferred_id t arg t.deferred
    | Backed ->
        t.evidence.ev_backed (Lazy.force t.ops) ~txn:st.txn;
        log_outcome t st (t.proto.p_decision_log (bit_outcome arg)) ~decider:true
          ~sub:false
    | ( Coordinator_log | Voter_log | Delegation_log | Unsolicited_log
      | Outcome_log | Heuristic_log ) as kind ->
        if Obs.Events.graphing t.events then
          Obs.Events.emit t.events Obs.Events.Durable ~txn:st.tid ~who:(me t)
            ~peer:(-1) ~label:(-1) ~flags:(Obs.Events.record (Step.record code));
        forced t st kind arg
  end

(* Force TM record [kind] of [st]'s transaction; [step] goes on once it is
   durable.  Shared-log members write into the parent's log without forcing:
   durability rides on the parent TM's forces, and [step] goes on at once. *)
and tm_force t st kind step arg =
  let tid = mark_logged t ~txn:st.txn in
  if t.cfg.opts.shared_log && t.profile.p_shares_parent_log then begin
    log_write t ~tid kind ~forced:false ~shared:true;
    Wal.Log.append_row t.log ~txn:tid ~writer:t.wid kind;
    forced t st step arg
  end
  else begin
    log_write t ~tid kind ~forced:true ~shared:false;
    Wal.Log.force_row t.log ~txn:tid ~writer:t.wid kind
      (Step.token t.steps ~epoch:t.epoch st step kind arg)
  end

(* What a forced record's step does once the record is durable. *)
and forced t st step arg =
  match step with
  | Step.Unsolicited_log -> unsolicited_voted t st
  | Step.Outcome_log ->
      st.decision_durable <- true;
      if not (arg land 1 = 1 && maybe_crash t Cp_after_decision_log) then
        outcome_durable t st ~sub:(arg land 2 <> 0)
  | Step.Heuristic_log -> apply_local t st (bit_outcome arg)
  | _ -> force_records t st step ~flags:(arg land 7) (arg lsr 3)

(* Force a protocol-prescribed record list from its [i]-th record on, in
   order - what a coordinator forces before phase one, a YES voter
   before its vote leaves, a delegator before handing over the decision
   - then go on with [flags]: a coordinator's root bit, a voter's vote
   bits. *)
and force_records t st step ~flags i =
  let records =
    match step with
    | Step.Coordinator_log -> t.proto.p_coordinator_log
    | Step.Voter_log -> t.proto.p_voter_log
    | _ -> t.proto.p_delegation_log
  in
  if i < List.length records then
    tm_force t st (List.nth records i) step (((i + 1) lsl 3) lor flags)
  else
    match step with
    | Step.Coordinator_log ->
        (* at the root, a crash point once its records are durable *)
        if not (flags = 1 && records <> [] && maybe_crash t Cp_after_commit_pending)
        then start_phase1 t st
    | Step.Voter_log ->
        send_vote_up t st ~reliable:(flags land 1 = 1)
          ~leave_out_ok:(flags land 2 = 2) ~elide_ack:(flags land 4 = 4)
    | _ -> delegated t st (last_agent st.children)

(* ------------------------------------------------------------------ *)
(* Transaction state                                                   *)
(* ------------------------------------------------------------------ *)

and new_txn_state t txn =
  let st = blank_state ~txn ~tid:(Ids.intern t.ids txn) ~since:(now t) in
  Ids.Tbl.replace t.txns st.tid st;
  st

and get_or_new_txn t txn =
  match find_txn t txn with
  | st -> st
  | exception Not_found -> new_txn_state t txn

(* Children that take part in this transaction: left-out members are
   excluded entirely when the optimization is enabled. *)
and participating_children t ~txn =
  List.filter_map
    (fun p ->
      if
        t.cfg.opts.leave_out
        && (p.p_left_out
           || (Names.mem t.suspended_children p.p_name
              && List.mem p.p_name (idle_in t ~txn)))
      then begin
        note t (Printf.sprintf "leaves out suspended server %s" p.p_name);
        None
      end
      else Some (make_child p ~vote:None ~implied_ack:false))
    t.child_profiles

(* The static children a Prepare or delegation from [src] engages, minus
   [src] if the transaction was re-rooted at it. *)
and engaged_children t ~txn ~src ~rerooted =
  let children = participating_children t ~txn in
  if rerooted then
    List.filter (fun ch -> not (String.equal ch.ch_profile.p_name src)) children
  else children

(* State rebuilt from the log at restart.  The votes were lost with
   volatile state: assume every static child voted YES, so the outcome is
   re-propagated to each of them and acknowledgments are re-collected. *)
and resumed_txn_state t ~txn phase =
  let st = new_txn_state t txn in
  set_phase t st phase;
  st.parent <- Option.map (fun p -> p.p_name) t.parent;
  st.children <-
    List.map
      (fun p ->
        make_child p
          ~vote:(Some (Vote_yes { reliable = false; leave_out_ok = false }))
          ~implied_ack:false)
      t.child_profiles;
  st

(* ------------------------------------------------------------------ *)
(* Voting phase                                                        *)
(* ------------------------------------------------------------------ *)

(* Entry point at the root coordinator; below the static root the static
   parent joins as the last child (re-rooting). *)
and begin_commit t ~txn =
  let st = get_or_new_txn t txn in
  set_phase t st Ph_voting;
  st.children <- participating_children t ~txn;
  (match t.parent with
  | Some p ->
      st.children <- st.children @ [ make_child p ~vote:None ~implied_ack:false ]
  | None -> ());
  t.opened <- st.tid;
  force_records t st Step.Coordinator_log ~flags:1 0

and designate_last_agent t st =
  (* Pick the final participating child as the last agent; Run orders
     children so the highest-latency member comes last. *)
  if t.cfg.opts.last_agent then
    match List.rev st.children with
    | last :: _
      when (not (t.cfg.opts.unsolicited_vote && last.ch_profile.p_unsolicited))
           && not last.ch_profile.p_shares_parent_log ->
        last.ch_last_agent <- true
    | _ -> ()

and start_phase1 t st =
  (* any member we engage is no longer suspended *)
  List.iter
    (fun ch -> Names.remove t.suspended_children ch.ch_profile.p_name)
    st.children;
  designate_last_agent t st;
  send_prepare t st ~only_silent:false;
  start_vote_timer t st 0;
  local_prepare t st

and start_vote_timer t st attempt =
  st.vote_timer <- arm t st ~delay:(retry_delay t attempt) Step.Vote_timeout attempt

and vote_timeout t st attempt =
  if st.phase = Ph_voting then
    if attempt < t.cfg.prepare_retries then begin
      (* re-send Prepare to the silent voters before giving up: a lost
         Prepare (or lost vote) need not abort the transaction when the
         configuration allows retransmission *)
      note t "vote timeout: re-sending Prepare to silent members";
      mark t st Obs.Events.Vote_retry;
      send_prepare t st ~only_silent:true;
      start_vote_timer t st (attempt + 1)
    end
    else begin
      (* missing votes are treated as NO *)
      note t "vote timeout: presuming NO from silent members";
      mark t st Obs.Events.Presume_no;
      List.iter
        (fun ch ->
          if ch.ch_vote = None && not ch.ch_last_agent then begin
            ch.ch_vote <- Some Vote_no;
            ch.ch_presumed_no <- true
          end)
        st.children;
      maybe_all_votes_in t st
    end

(* The local resource manager's vote.  The RM's own records are non-forced:
   their durability rides on the TM's forced Prepared/Committed record in
   the same log. *)
and local_prepare t st =
  let kv_vote = Kvstore.prepare_buffered t.kv ~txn:st.txn in
  let v =
    if t.profile.p_vote_no then Vote_no
    else
      match kv_vote with
      | Kvstore.Vote_no -> Vote_no
      | Kvstore.Vote_read_only when t.cfg.opts.read_only -> Vote_read_only
      | Kvstore.Vote_read_only | Kvstore.Vote_yes ->
          Vote_yes
            {
              reliable = t.profile.p_reliable;
              leave_out_ok = t.profile.p_leave_out_ok;
            }
  in
  (* a dual-coordinator detection may already have pinned a NO *)
  if st.local_vote = None then begin
    st.local_vote <- Some v;
    maybe_all_votes_in t st
  end

and votes_missing st =
  st.local_vote = None
  || List.exists
       (fun ch -> ch.ch_vote = None && not ch.ch_last_agent)
       st.children

and maybe_all_votes_in t st =
  (* one NO suffices: abort without waiting for the stragglers *)
  let known_no =
    st.local_vote = Some Vote_no
    || List.exists (fun ch -> ch.ch_vote = Some Vote_no) st.children
  in
  if st.phase = Ph_voting && known_no then begin
    st.vote_timer <- Step.cancel t.steps st st.vote_timer;
    on_voted_no t st
  end
  else if st.phase = Ph_voting && not (votes_missing st) then begin
    st.vote_timer <- Step.cancel t.steps st st.vote_timer;
    (* every vote is in and none is NO; a last agent, asked last, has not
       answered, so it is not read-only: the node delegates to it *)
    let all_read_only =
      st.local_vote = Some Vote_read_only
      && List.for_all (fun ch -> ch.ch_vote = Some Vote_read_only) st.children
    in
    if st.delegator <> None then
      (* a delegation receiver owns the decision: even with an all-read-only
         subtree it must decide durably and report to its delegator *)
      on_all_yes t st
    else if all_read_only && st.parent <> None then vote_up_read_only t st
    else if all_read_only then
      (* the whole tree is read-only: no second phase, nothing logged *)
      complete_read_only_root t st
    else on_all_yes t st
  end

(* A subordinate subtree that did nothing but read: vote read-only, write
   nothing, release locks, and drop out of phase two. *)
and vote_up_read_only t st =
  (* trace only, as the two rows below: the graph has no node here *)
  if tracing t then Trace.locks_released t.trace ~txn:(-1) ~who:(me t);
  send_vote t ~tid:st.tid ~dst:(Option.get st.parent) ~txn:st.txn
    ~delegation:false ~unsolicited:false ~implied_ack:false Vote_read_only;
  end_txn t st Committed

and complete_read_only_root t st =
  st.outcome <- Some Committed;
  if tracing t then begin
    Trace.decide t.trace ~txn:(-1) ~who:(me t) Committed ~adopted:false;
    Trace.locks_released t.trace ~txn:(-1) ~who:(me t)
  end;
  root_complete t st Committed;
  end_txn t st Committed

and on_voted_no t st =
  (* Tell the coordinator, then abort without waiting for anyone: a NO
     voter owns its own abort. *)
  (match st.parent with
  | Some parent ->
      send_vote t ~tid:st.tid ~dst:parent ~txn:st.txn ~delegation:false
        ~unsolicited:false ~implied_ack:false Vote_no
  | None -> ());
  decide t st Aborted

and on_all_yes t st =
  let last_agent = List.find_opt (fun ch -> ch.ch_last_agent) st.children in
  match (st.parent, st.delegator, last_agent) with
  | None, None, None -> decide t st Committed (* plain root: decide *)
  | _, _, Some _ ->
      (* delegate the decision to the last agent (Figure 6): the
         delegating node must be durably prepared before giving the
         decision away; the protocol says which records make it so (PN:
         none - its commit-pending force already was the durability
         point) *)
      force_records t st Step.Delegation_log ~flags:0 0
  | Some _, None, None -> vote_yes_up t st
  | _, Some _, None ->
      (* we are a last agent that received the delegation: we decide *)
      decide t st Committed

(* A lost delegation message (or a lost decision report from the agent)
   would otherwise stall the delegator forever: it is not in doubt in the
   RM sense, just waiting.  Re-send the delegation until the agent's
   decision arrives; the agent side is idempotent (a duplicate delegation
   for an ended transaction repeats the outcome). *)
and start_delegation_timer t st ~reliable attempt =
  if attempt < t.cfg.max_retries then
    st.delegation_timer <-
      arm t st ~delay:(retry_delay t attempt) Step.Delegation_retry
        ((attempt lsl 1) lor bit reliable)

and retry_delegation t st agent ~reliable attempt =
  if st.phase = Ph_delegated then begin
    note t "delegation unanswered: re-sending to last agent";
    mark t st Obs.Events.Delegation_retry;
    send_delegation t st agent ~reliable;
    start_delegation_timer t st ~reliable (attempt + 1)
  end

and send_delegation t st agent ~reliable =
  send_vote t ~tid:st.tid ~dst:agent.ch_profile.p_name ~txn:st.txn
    ~delegation:true ~unsolicited:false ~implied_ack:false
    (Vote_yes { reliable; leave_out_ok = false })

and delegated t st agent =
  set_phase t st Ph_delegated;
  let reliable =
    t.profile.p_reliable && children_vouch ~leave_out:false st.children
  in
  send_delegation t st agent ~reliable;
  start_delegation_timer t st ~reliable 0

and vote_yes_up t st =
  (* no child is the last agent here: [on_all_yes] delegates instead *)
  let reliable =
    t.profile.p_reliable && children_vouch ~leave_out:false st.children
  in
  let leave_out_ok =
    t.profile.p_leave_out_ok && children_vouch ~leave_out:true st.children
  in
  (* A reliable *leaf* resource elides its acknowledgment entirely (its ack
     is implied); a reliable cascaded coordinator still acknowledges, merely
     early (Figure 8 shows both behaviours). *)
  let elide_ack =
    t.cfg.opts.vote_reliable && t.profile.p_reliable && st.children = []
  in
  (* The protocol prescribes what a YES voter forces before the vote may
     leave the node (PN adds its agent ack-obligation record: Table 2
     charges its subordinates four writes, three forced). *)
  force_records t st Step.Voter_log
    ~flags:(bit reliable lor (bit leave_out_ok lsl 1) lor (bit elide_ack lsl 2))
    0

and send_vote_up t st ~reliable ~leave_out_ok ~elide_ack =
  if st.phase <> Ph_voting then ()
    (* the transaction was resolved while the force was in flight
       (e.g. a dual-initiation abort): do not send a stale YES *)
  else if maybe_crash t Cp_after_prepared_log then ()
  else begin
    set_phase t st Ph_in_doubt;
    st.sent_vote_reliable <- elide_ack;
    let vote = Vote_yes { reliable; leave_out_ok } in
    st.sent_vote <- Some vote;
    send_vote t ~tid:st.tid ~dst:(Option.get st.parent) ~txn:st.txn
      ~delegation:false ~unsolicited:false ~implied_ack:elide_ack vote;
    if maybe_crash t Cp_after_vote then ()
    else begin
      start_heuristic_timer t st;
      start_indoubt_timer t st 0
    end
  end

(* Unsolicited vote (leaf server that knows it is finished): prepare
   spontaneously and send YES without waiting for Prepare. *)
and begin_unsolicited t ~txn =
  match t.parent with
  | None -> invalid_arg "unsolicited vote requires a parent"
  | Some { p_name = parent; _ } ->
      let st = get_or_new_txn t txn in
      st.parent <- Some parent;
      set_phase t st Ph_voting;
      st.children <- [];
      ignore (Kvstore.prepare_buffered t.kv ~txn);
      tm_force t st Wal.Log_record.Prepared Step.Unsolicited_log 0

and unsolicited_voted t st =
  let parent = (Option.get t.parent).p_name in
  let elide_ack = t.cfg.opts.vote_reliable && t.profile.p_reliable in
  set_phase t st Ph_in_doubt;
  st.sent_vote_reliable <- elide_ack;
  let vote = Vote_yes { reliable = t.profile.p_reliable; leave_out_ok = false } in
  st.local_vote <- Some vote;
  st.sent_vote <- st.local_vote;
  send_vote t ~tid:st.tid ~dst:parent ~txn:st.txn ~delegation:false
    ~unsolicited:true ~implied_ack:elide_ack vote;
  start_heuristic_timer t st;
  start_indoubt_timer t st 0

(* ------------------------------------------------------------------ *)
(* Decision phase                                                      *)
(* ------------------------------------------------------------------ *)

and decide t st outcome =
  set_phase t st Ph_deciding;
  st.outcome <- Some outcome;
  if recording t then
    Trace.decide t.trace ~txn:st.tid ~who:(me t) outcome ~adopted:false;
  if maybe_crash t Cp_before_decision_log then ()
  else
    (* the protocol backs the outcome before it is logged, so the outcome
       force hardens whatever it appended; backing may take a while *)
    let delay = t.evidence.ev_decide (Lazy.force t.ops) ~txn:st.txn outcome in
    if delay >= 0.0 then ignore (arm t st ~delay Step.Backed (outcome_bit outcome))
    else log_outcome t st (t.proto.p_decision_log outcome) ~decider:true ~sub:false

(* Make [st]'s outcome durable under the protocol's log discipline, then
   go on: at a subordinate ([sub]) to [subordinate_apply], else to
   [after_decision_durable].  Only the decision maker's forced write is a
   crash point. *)
and log_outcome t st discipline ~decider ~sub =
  match discipline with
  | Protocol_intf.Log_force kind ->
      tm_force t st kind Step.Outcome_log (bit decider lor (bit sub lsl 1))
  | Protocol_intf.Log_append kind ->
      (* no forced record before acknowledging (PA abort at a subordinate) *)
      tm_append t ~txn:st.txn kind;
      outcome_durable t st ~sub
  | Protocol_intf.Log_none ->
      (* nothing durable: the presumption carries the outcome (PA abort) *)
      outcome_durable t st ~sub

and outcome_durable t st ~sub =
  st.decision_durable <- true;
  if sub then subordinate_apply t st else after_decision_durable t st

(* The outcome is durable at the node that decided it, or at a delegator
   that adopted its last agent's outcome: apply it, drive phase two, and
   report it up the delegation chain if we were a last agent ourselves. *)
and after_decision_durable t st =
  let outcome = Option.get st.outcome in
  apply_local t st outcome;
  propagate_decision t st outcome;
  (match st.delegator with
  | Some up -> report_to_delegator t st ~up outcome
  | None -> ());
  maybe_finished t st

(* The agent's application hears first; if it opens a transaction toward
   the delegator, the decision rides its first flow (Figure 7's
   Commit(t1) + Vote(t2, you decide)). *)
and report_to_delegator t st ~up outcome =
  let opened = t.opened in
  Option.iter (fun f -> f ~txn:st.txn outcome) t.on_agent_decision;
  if t.opened <> opened && rides t && opened_toward t up then
    defer_piggyback t ~rides:true ~dst:up
      [ t.evidence.ev_decision ~txn:st.txn outcome ]
  else send_decision t ~tid:st.tid ~dst:up ~txn:st.txn outcome;
  st.awaiting_implied_ack <- true

and opened_toward t dst =
  match Ids.Tbl.find t.txns t.opened with
  | st -> has_child dst st.children
  | exception Not_found -> false

and apply_local t st outcome =
  (match outcome with
  | Committed -> Kvstore.commit_buffered t.kv ~txn:st.txn
  | Aborted -> Kvstore.abort t.kv ~txn:st.txn ignore);
  if recording t then Trace.locks_released t.trace ~txn:st.tid ~who:(me t);
  (* the lock-hostage window a blocked member held its data for: from
     entering in-doubt to the locks actually coming off *)
  match st.indoubt_entered with
  | Some t0 ->
      observe t blocked_lock_slot (now t -. t0);
      st.indoubt_entered <- None
  | None -> ()

and decision_recipient st ch =
  (* Commits flow to YES voters only: read-only voters left phase two, a
     delegated last agent decided the outcome itself.  Aborts additionally
     flow to members that never voted or voted NO (Table 2 charges the PA
     abort-case coordinator two flows), releasing their resources. *)
  match Option.get st.outcome with
  | Committed -> (
      (not ch.ch_last_agent)
      && match ch.ch_vote with Some (Vote_yes _) -> true | _ -> false)
  | Aborted -> (
      match ch.ch_vote with
      | Some Vote_read_only -> false
      | Some (Vote_yes _) | Some Vote_no | None -> true)

and ack_expected_from ch =
  match Option.get ch.ch_vote with
  | Vote_yes _ -> not ch.ch_implied_ack (* reliable leaf: its ack is implied *)
  | Vote_read_only | Vote_no -> false

and propagate_decision t st outcome =
  List.iter
    (fun ch ->
      if decision_recipient st ch then begin
        send_decision t ~tid:st.tid ~dst:ch.ch_profile.p_name ~txn:st.txn outcome;
        match Option.get st.outcome with
        | Committed ->
            if ack_expected_from ch then start_ack_retry t st ch
            else ch.ch_acked <- true
        | Aborted ->
            (* PA: none; PN: all but a real NO voter; basic: YES voters *)
            if
              Protocol_intf.abort_ack_required t.proto ~vote:ch.ch_vote
                ~presumed_no:ch.ch_presumed_no
            then start_ack_retry t st ch
            else ch.ch_acked <- true
      end)
    st.children;
  set_phase t st Ph_propagating;
  (* early acknowledgment upstream, if the policy allows it *)
  if st.parent <> None && not st.acked_up then begin
    if
      t.cfg.opts.ack = Early_ack
      || (t.cfg.opts.vote_reliable
         && children_vouch ~leave_out:false st.children
         && st.children <> [])
    then send_ack_up t st
  end

and start_ack_retry t st ch =
  ch.ch_retry <-
    arm t st ~delay:(retry_delay t ch.ch_retries) Step.Ack_retry
      (tail_index ch st.children)

and retry_child t st ch =
  if (not ch.ch_acked) && st.phase = Ph_propagating then begin
    ch.ch_retries <- ch.ch_retries + 1;
    if t.cfg.opts.wait_for_outcome && ch.ch_retries >= 1 && not ch.ch_pending
    then
      (* one attempt made: stop blocking, resolve in the background *)
      stop_blocking t st ch
        (Printf.sprintf "outcome pending: %s unreachable, recovery in background"
           ch.ch_profile.p_name);
    if ch.ch_retries <= t.cfg.max_retries then begin
      if Obs.Events.graphing t.events then
        Obs.Events.emit t.events Obs.Events.Ack_overdue ~txn:st.tid ~who:(me t)
          ~peer:(Obs.Events.member t.events ch.ch_profile.p_name) ~label:(-1)
          ~flags:0;
      send_decision t ~tid:st.tid ~dst:ch.ch_profile.p_name ~txn:st.txn
        (Option.get st.outcome);
      start_ack_retry t st ch
    end
    else if ch.ch_presumed_no && not ch.ch_pending then
      (* retransmissions to a member that never voted are exhausted: it is
         either gone for good or will abort unilaterally / inquire on
         restart.  Stop blocking the application; the decision stays durable
         and the transaction open (no END), so a recovering member can still
         learn the outcome by inquiry.  Completion carries the pending
         indication. *)
      stop_blocking t st ch
        (Printf.sprintf
           "acknowledgment retries exhausted: %s unresolved, decision retained"
           ch.ch_profile.p_name)
  end

and stop_blocking t st ch text =
  ch.ch_pending <- true;
  st.pending <- true;
  note t text;
  maybe_finished t st

(* ------------------------------------------------------------------ *)
(* Completion                                                          *)
(* ------------------------------------------------------------------ *)

(* Recipients of the decision still owing an acknowledgment, and those
   whose resolution continues in the background (wait-for-outcome). *)
and acks_outstanding st = exists_recipient st ~pending:false st.children

and resolving_in_background st = exists_recipient st ~pending:true st.children

and exists_recipient st ~pending = function
  | [] -> false
  | ch :: rest ->
      ((not ch.ch_acked) && ch.ch_pending = pending && decision_recipient st ch)
      || exists_recipient st ~pending rest

and maybe_finished t st =
  if st.phase = Ph_propagating && not (acks_outstanding st) then begin
    let outcome = Option.get st.outcome in
    (* wait-for-outcome: children marked pending let the commit complete,
       but the transaction stays open so background retries can still
       resolve them (the END record waits for the real acknowledgments) *)
    let background_pending = resolving_in_background st in
    match (st.parent, st.delegator) with
    | None, None ->
        (* root: tell the application, then forget *)
        if not st.acked_up then begin
          (* acked_up doubles as the "application informed" latch at the
             root, which has nobody to acknowledge to *)
          st.acked_up <- true;
          root_complete t st outcome
        end;
        if not background_pending then finish_with_end t st
    | _, Some _ ->
        (* last agent: wait for the implied acknowledgment before END *)
        if not st.awaiting_implied_ack then finish_with_end t st
    | Some _, None ->
        if st.acked_up then begin
          if not background_pending then finish_with_end t st
        end
        else if st.long_locks_requested then defer_ack_long_locks t st
        else if st.sent_vote_reliable && outcome = Committed then begin
          (* our parent elided our ack: forget immediately *)
          finish_with_end t st
        end
        else if outcome = Aborted && st.damage = [] && not (Protocol_intf.acks_aborts t.proto)
        then
          (* the presumption stands in for the acknowledgment (PA) - but
             only when there is nothing to report: heuristic damage must
             reach an operator, so a damage-bearing abort is acknowledged
             even under PA *)
          end_txn t st outcome
        else begin
          if not (maybe_crash t Cp_before_ack) then begin
            send_ack_up t st;
            if not background_pending then finish_with_end t st
          end
        end
  end

and send_ack_up t st =
  match st.parent with
  | None -> ()
  | Some parent ->
      if not st.acked_up then begin
        st.acked_up <- true;
        (* Damage reporting: PN propagates subtree damage to the root;
           PA reports only to the immediate coordinator, so the subtree
           damage list was consumed where it was received and only damage
           originating here travels up. *)
        send t ~tid:st.tid ~dst:parent
          [ Msg.Ack_msg { txn = st.txn; damage = st.damage; pending = st.pending } ]
      end

and defer_piggyback t ~rides ~dst payloads =
  let d =
    { d_id = t.deferrals; d_dst = dst; d_payloads = payloads; d_rides = rides;
      d_sent = false }
  in
  t.deferrals <- t.deferrals + 1;
  t.deferred <- d :: List.filter (fun x -> not x.d_sent) t.deferred;
  ignore (arm t no_state ~delay:t.cfg.implied_ack_delay Step.Piggyback d.d_id)

(* A bundle leaves [deferred] only once sent *)
and fire_deferred_id t id = function
  | [] -> ()
  | d :: rest -> if d.d_id = id then fire_deferred t d else fire_deferred_id t id rest

and fire_deferred t d =
  if not d.d_sent then begin
    d.d_sent <- true;
    send t ~tid:(-1) ~dst:d.d_dst d.d_payloads
  end

and defer_ack_long_locks t st =
  (* Long locks: the acknowledgment waits for the data message that begins
     the next transaction (Figure 7) *)
  if not st.acked_up then begin
    st.acked_up <- true;
    note t "long locks: ack deferred to next-transaction data";
    let parent = Option.get st.parent in
    defer_piggyback t ~rides:false ~dst:parent
      [
        Msg.Data { txn = st.txn; info = "next-txn" };
        Msg.Ack_msg { txn = st.txn; damage = st.damage; pending = st.pending };
      ];
    finish_with_end t st
  end

and root_complete t st outcome =
  if recording t then
    Trace.complete t.trace ~txn:st.tid ~who:(me t) outcome ~pending:st.pending;
  report_damage t ~txn:st.txn st.damage;
  match t.on_root_complete with
  | Some f -> f ~txn:st.txn outcome ~pending:st.pending
  | None -> ()

and finish_with_end t st =
  (* The END record marks earlier state as forgettable; a presumed-abort
     participant that logged nothing (PA abort case) has nothing to mark. *)
  (* the tracked bit answers in O(1); the log scan remains only for states
     rebuilt by crash recovery, where the bit was lost with the state *)
  let logged_anything =
    st.logged_tm
    || fold_own t ~tid:st.tid (Wal.Log.rows t.log)
         (fun kind any -> any || Wal.Log_record.is_tm_kind kind)
         false
  in
  if logged_anything then tm_append t ~txn:st.txn Wal.Log_record.End;
  (* anyone who delegated the decision owes the last agent an implied
     acknowledgment: the next transaction's data message releases its END *)
  List.iter
    (fun ch ->
      if ch.ch_last_agent && Option.get st.outcome = Committed then
        defer_piggyback t ~rides:(rides t) ~dst:ch.ch_profile.p_name
          [ Msg.Data { txn = st.txn; info = "next-txn" } ])
    st.children;
  end_txn t st (Option.get st.outcome)

and end_txn t st outcome =
  set_phase t st Ph_ended;
  st.vote_timer <- Step.cancel t.steps st st.vote_timer;
  st.heuristic_timer <- Step.cancel t.steps st st.heuristic_timer;
  st.indoubt_timer <- Step.cancel t.steps st st.indoubt_timer;
  st.delegation_timer <- Step.cancel t.steps st st.delegation_timer;
  (* OK-TO-LEAVE-OUT is a protected variable: it takes effect only if the
     transaction commits.  A child whose YES carried the flag is now
     suspended until we next send it work. *)
  if outcome = Committed then
    List.iter
      (fun ch ->
        match ch.ch_vote with
        | Some (Vote_yes { leave_out_ok = true; _ }) ->
            Names.replace t.suspended_children ch.ch_profile.p_name ()
        | _ -> ())
      st.children;
  set_ended t st.tid outcome;
  Ids.Tbl.remove t.txns st.tid

(* ------------------------------------------------------------------ *)
(* Heuristic decisions                                                 *)
(* ------------------------------------------------------------------ *)

and start_heuristic_timer t st =
  match t.profile.p_heuristic with
  | Heuristic_never -> ()
  | Heuristic_commit_after d -> arm_heuristic t st d Committed
  | Heuristic_abort_after d -> arm_heuristic t st d Aborted

and arm_heuristic t st delay action =
  st.heuristic_timer <-
    arm t st ~delay Step.Heuristic_timeout (outcome_bit action)

(* An operator overrides the protocol at an in-doubt node, on the patience
   timer or by adversarial injection: record and force the heuristic
   decision, then apply it locally.  A no-op once the doubt is resolved or
   a heuristic decision was already taken. *)
and take_heuristic t st action ~injected =
  if st.phase = Ph_in_doubt && st.heuristic_action = None then begin
    st.heuristic_action <- Some action;
    st.heuristic_at <- Some (now t);
    if recording t then
      Trace.heuristic t.trace ~txn:st.tid ~who:(me t) action ~injected;
    let kind =
      match action with
      | Committed -> Wal.Log_record.Heuristic_commit
      | Aborted -> Wal.Log_record.Heuristic_abort
    in
    tm_force t st kind Step.Heuristic_log (outcome_bit action)
  end

(* The subordinate side of recovery when the coordinator goes silent:
   PA subordinates inquire (the coordinator may have no memory of the
   transaction); PN subordinates wait for the coordinator to contact them. *)
and start_indoubt_timer t (st : txn_state) attempt =
  if t.parent = None && st.parent = None && st.children = [] then
    () (* nobody to ask: see [indoubt_targets] *)
  else if attempt > t.cfg.max_retries then
    note t "in doubt: recovery attempts exhausted, still blocked"
  else
    st.indoubt_timer <-
      arm t st ~delay:(retry_delay t attempt) Step.Indoubt_retry attempt

(* Who can resolve our doubt?  A subordinate asks its parent.  A
   parentless node in doubt with a recorded transaction parent accepted a
   Prepare from outside the static tree (dual initiation, or a forged
   ghost Prepare): whoever claimed the coordinator role owns the outcome,
   so ask exactly them - an honest claimant answers, and a forger's
   no-information reply lets the presumption resolve the doubt instead of
   blocking the whole subtree forever.  A parentless node with no
   transaction parent delegated its decision (the only other way a root
   forces Prepared): the outcome lives at a child, so inquire all of them
   - only positive knowledge resolves. *)
and indoubt_targets t (st : txn_state) =
  match t.parent with
  | Some parent -> [ parent.p_name ]
  | None -> (
      match st.parent with
      | Some claimed -> [ claimed ]
      | None -> List.map (fun ch -> ch.ch_profile.p_name) st.children)

and retry_indoubt t st attempt =
  let still_current = try find_txn t st.txn == st with Not_found -> false in
  if st.phase = Ph_in_doubt && still_current then begin
    mark t st Obs.Events.Indoubt_tick;
    if t.proto.p_inquires then inquire t st
    else if tracing t then note t (Protocol_intf.awaiting_coordinator t.proto);
    start_indoubt_timer t st (attempt + 1)
  end

(* The in-doubt rule: ask on every tick and right after a restart, if the
   protocol inquires (PN's coordinator comes to its members instead). *)
and inquire t st =
  List.iter
    (fun dst -> send t ~tid:st.tid ~dst [ Msg.Inquiry { txn = st.txn } ])
    (indoubt_targets t st)

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)
(* ------------------------------------------------------------------ *)

and handle_prepare t ~src ~txn ~long_locks ~upward =
  if is_ended t ~txn then
    (* duplicate from a recovering coordinator: repeat our forgotten state *)
    send_vote t ~tid:(-1) ~dst:src ~txn ~delegation:false ~unsolicited:false
      ~implied_ack:false Vote_no
  else begin
    let st = get_or_new_txn t txn in
    if st.phase = Ph_idle then begin
      st.parent <- Some src;
      st.long_locks_requested <- long_locks;
      set_phase t st Ph_voting;
      (* keep votes that arrived before the Prepare (unsolicited voters) *)
      st.children <-
        keep_early st.children (engaged_children t ~txn ~src ~rerooted:upward);
      if maybe_crash t Cp_on_prepare then ()
      else if st.children = [] then start_phase1 t st (* a plain voter *)
      else
        (* a cascaded coordinator runs the protocol's pre-voting logging
           too (PN logs commit-pending before propagating Prepare) *)
        force_records t st Step.Coordinator_log ~flags:0 0
    end
    else if st.parent <> Some src then begin
      (* Two participants initiated commit processing independently for the
         same transaction: two TMs would own the decision, so the
         transaction aborts (Section 3, PN design; the hazard behind the
         restricted leave-out rule of Figure 5). *)
      note t
        (Printf.sprintf "dual commit initiation detected (%s and %s): aborting"
           (match st.parent with Some p -> p | None -> t.name)
           src);
      send_vote t ~tid:st.tid ~dst:src ~txn ~delegation:false ~unsolicited:false
        ~implied_ack:false Vote_no;
      if st.phase = Ph_voting then begin
        st.local_vote <- Some Vote_no;
        maybe_all_votes_in t st
      end
    end
    else if st.phase = Ph_in_doubt then begin
      (* duplicate Prepare from our own coordinator: our YES was lost (or
         the coordinator is retransmitting); repeat the vote we sent *)
      match st.sent_vote with
      | Some vote ->
          send_vote t ~tid:st.tid ~dst:src ~txn ~delegation:false ~unsolicited:false
            ~implied_ack:st.sent_vote_reliable vote
      | None -> ()
    end
  end

and handle_vote t ~src ~txn vote ~delegation ~implied_ack =
  if delegation then handle_delegation t ~src ~txn vote
  else if is_ended t ~txn then
    (* a straggling (reordered or retransmitted) vote for a transaction we
       already finished: do not resurrect state for it *)
    ()
  else
    let st = get_or_new_txn t txn in
    (match find_child src st.children with
    | ch ->
        ch.ch_vote <- Some vote;
        ch.ch_implied_ack <- implied_ack
    | exception Not_found ->
        (* an unsolicited vote can arrive before we even know the
           transaction (our own Prepare is still on its way to us):
           remember it by materializing the child entry *)
        (match List.find_opt (fun p -> p.p_name = src) t.child_profiles with
        | Some p ->
            st.children <- make_child p ~vote:(Some vote) ~implied_ack :: st.children
        | None -> () (* vote from a stranger: drop *)));
    maybe_all_votes_in t st

(* Receiving the coordinator's own YES vote with the decision delegated to
   us: we are the last agent.  Run our own voting phase (we may have
   subordinates and may delegate further), then decide. *)
and handle_delegation t ~src ~txn vote =
  match vote with
  | Vote_no | Vote_read_only ->
      (* a delegating coordinator always votes YES *)
      ()
  | Vote_yes _ -> (
      match ended_outcome t ~txn with
      | Some outcome ->
          (* duplicate delegation: repeat the outcome *)
          send_decision t ~tid:(-1) ~dst:src ~txn outcome
      | None ->
          let st = get_or_new_txn t txn in
          if st.phase = Ph_idle then begin
            st.delegator <- Some src;
            set_phase t st Ph_voting;
            st.children <-
              engaged_children t ~txn ~src ~rerooted:(not (is_parent t src));
            start_phase1 t st
          end)

and handle_decision t ~src ~txn outcome =
  match find_txn t txn with
  | exception Not_found ->
      (* Either we finished already (coordinator retransmission) or we never
         voted (an abort reaching a not-yet-prepared member, or recovery
         contacting every static child). *)
      let first_time = not (is_ended t ~txn) in
      if first_time then set_ended t (Ids.intern t.ids txn) outcome;
      if first_time && outcome = Aborted then
        (* roll back any uncommitted work and release its locks *)
        Kvstore.abort t.kv ~txn (fun () -> ());
      (* unacknowledged aborts ride the presumption (PA); everything else
         is confirmed so that a retrying coordinator can forget the txn *)
      if outcome = Committed || Protocol_intf.acks_aborts t.proto then
        send t ~tid:(-1) ~dst:src
          [ Msg.Ack_msg { txn; damage = []; pending = false } ]
  | st -> (
      match st.phase with
      | Ph_in_doubt | Ph_voting -> subordinate_decision t st outcome
      | Ph_delegated -> delegator_decision t st outcome
      | Ph_propagating | Ph_deciding | Ph_ended | Ph_idle -> ())

(* A subordinate learns the outcome. *)
and subordinate_decision t st outcome =
  st.heuristic_timer <- Step.cancel t.steps st st.heuristic_timer;
  st.indoubt_timer <- Step.cancel t.steps st st.indoubt_timer;
  st.vote_timer <- Step.cancel t.steps st st.vote_timer;
  st.outcome <- Some outcome;
  match st.heuristic_action with
  | Some action ->
      (* the decision arrived after we lost patience *)
      resolve_heuristic t st ~action ~outcome
  | None ->
      if maybe_crash t Cp_after_decision_received then ()
      else begin
        set_phase t st Ph_deciding;
        log_outcome t st
          (t.proto.p_subordinate_decision_log outcome)
          ~decider:false ~sub:true
      end

and subordinate_apply t st =
  let outcome = Option.get st.outcome in
  apply_local t st outcome;
  propagate_decision t st outcome;
  maybe_finished t st

and resolve_heuristic t st ~action ~outcome =
  (match st.heuristic_at with
  | Some t0 ->
      observe t heur_exposure_slot (now t -. t0);
      st.heuristic_at <- None
  | None -> ());
  if action <> outcome then begin
    let report =
      { Msg.d_node = t.name; d_action = action; d_outcome = outcome }
    in
    st.damage <- report :: st.damage;
    (* the local operator console learns of the mismatch the moment it is
       detected; damage is silent only when no console anywhere hears *)
    t.damage_seen <- (st.txn, report) :: t.damage_seen;
    if st.sent_vote_reliable && tracing t then
      (* Table 1's vote-reliable disadvantage: with the ack elided there is
         no channel to report the damage; it is lost *)
      Trace.damage t.trace ~node:t.name ~reported_to:""
  end;
  tm_append t ~txn:st.txn
    (match outcome with
    | Committed -> Wal.Log_record.Committed
    | Aborted -> Wal.Log_record.Aborted);
  st.decision_durable <- true;
  set_phase t st Ph_propagating;
  (* local state already (heuristically) resolved; propagate the real
     outcome so the subtree converges and damage reports surface *)
  propagate_decision t st outcome;
  maybe_finished t st

(* The delegating coordinator hears the outcome from its last agent. *)
and delegator_decision t st outcome =
  st.delegation_timer <- Step.cancel t.steps st st.delegation_timer;
  st.outcome <- Some outcome;
  if recording t then
    Trace.decide t.trace ~txn:st.tid ~who:(me t) outcome ~adopted:true;
  set_phase t st Ph_deciding;
  log_outcome t st (t.proto.p_decision_log outcome) ~decider:false ~sub:false

and handle_ack t ~src ~txn ~damage ~pending =
  match find_txn t txn with
  | exception Not_found ->
      (* the transaction is already forgotten here (a PA coordinator ends
         an abort immediately), but a damage report arriving on a late
         acknowledgment must still reach this operator *)
      report_damage t ~txn damage
  | st -> (
      match find_child src st.children with
      | exception Not_found -> ()
      | ch ->
          if not ch.ch_acked then begin
            ch.ch_acked <- true;
            ch.ch_retry <- Step.cancel t.steps st ch.ch_retry;
            if ch.ch_pending && not pending then
              note t
                (Printf.sprintf "background recovery with %s resolved"
                   ch.ch_profile.p_name);
            if pending then st.pending <- true;
            (match damage with
            | [] -> ()
            | reports when t.proto.p_damage_to_root ->
                (* forward damage up toward the root (PN) *)
                st.damage <- reports @ st.damage
            | reports ->
                (* damage is reported to the immediate coordinator (and
                   its operator) only (PA, basic) *)
                report_damage t ~txn reports);
            maybe_finished t st
          end)

(* Application data beginning the next piece of work doubles as the implied
   acknowledgment for whatever outcome the receiver still remembers. *)
and handle_data t ~txn =
  match find_txn t txn with
  | exception Not_found -> ()
  | st ->
      if st.awaiting_implied_ack then begin
        st.awaiting_implied_ack <- false;
        if st.phase = Ph_propagating && not (acks_outstanding st) then
          finish_with_end t st
      end

and handle_inquiry t ~src ~txn =
  let reply outcome =
    send t ~tid:(-1) ~dst:src [ t.evidence.ev_reply ~txn outcome ]
  in
  match find_txn t txn with
  | st -> (
      match st.outcome with
      | Some _ as known when st.decision_durable -> reply known
      | _ ->
          (* still deciding: the normal flow will reach them - except when
             the inquirer is the very node we record as this transaction's
             coordinator.  It is asking about a decision only it (or its
             ancestors) could own: a recovered delegator polling its
             children, or a root tricked by a forged Prepare into treating
             one of its own subordinates as coordinator.  We have no
             information for it, and saying so breaks the inquiry cycle -
             the forged-Prepare victim's presumption resolves the whole
             subtree, while a delegator ignores no-information replies by
             design. *)
          if st.parent = Some src then reply None)
  | exception Not_found -> (
      match ended_outcome t ~txn with
      | Some _ as known -> reply known
      | None -> (
          (* consult the durable log; no information: PA presumes abort;
             basic 2PC's recovery answer for an unlogged coordinator is
             abort as well; PN aborts too because an interrupted
             commit-pending coordinator aborts *)
          reply (durable_outcome t ~tid:(Ids.find t.ids txn))))

and handle_inquiry_reply t ~txn outcome =
  match find_txn t txn with
  | exception Not_found -> ()
  | st ->
      if st.phase = Ph_in_doubt then begin
        match outcome with
        | None when st.parent = None ->
            (* we are a recovered delegator inquiring our children: a child
               with no information cannot absolve us - only the last agent's
               positive answer (or its own eventual decision) can.  Keep
               waiting. *)
            ()
        | _ ->
            let o = match outcome with Some o -> o | None -> Aborted in
            note t
              (match outcome with
              | Some _ -> "recovery: outcome learned by inquiry"
              | None -> "recovery: no information - presuming abort");
            subordinate_decision t st o
      end

and handle_payload t ~src = function
  | Msg.Prepare { txn; long_locks; upward } ->
      handle_prepare t ~src ~txn ~long_locks ~upward
  | Msg.Vote_msg { txn; vote; delegation; implied_ack; _ } ->
      handle_vote t ~src ~txn vote ~delegation ~implied_ack
  | Msg.Decision_msg { txn; outcome; _ } -> handle_decision t ~src ~txn outcome
  | Msg.Ack_msg { txn; damage; pending } -> handle_ack t ~src ~txn ~damage ~pending
  | Msg.Data { txn; _ } -> handle_data t ~txn
  | Msg.Inquiry { txn } -> handle_inquiry t ~src ~txn
  | Msg.Inquiry_reply { txn; outcome; _ } -> handle_inquiry_reply t ~txn outcome

(* The honest-node defense: before acting on a payload, ask the protocol
   whether an honest peer could have sent it: first by the evidence the
   payload carries, then by who [src] is in our static tree and what we
   durably know about the transaction.  A benign run never trips this (CI
   holds chaos output byte-identical); a rejection is counted and traced
   so the adversarial audit can report how many forgeries the protocol
   caught. *)
and admissible t ~src payload =
  let role =
    if is_parent t src then
      if engaged_as_child t ~src payload then Protocol_intf.From_child
      else Protocol_intf.From_parent
    else if names_member src t.child_profiles then Protocol_intf.From_child
    else Protocol_intf.From_stranger
  in
  let txn = Msg.payload_txn payload in
  let known =
    match ended_outcome t ~txn with
    | Some _ as known -> known
    | None -> (
        match find_txn t txn with
        | st when st.decision_durable -> st.outcome
        | _ | (exception Not_found) -> None)
  in
  match t.evidence.ev_check ~src payload with
  | None -> Protocol_intf.admissible t.proto ~src ~role ~known payload
  | refusal -> refusal

(* A transaction re-rooted here engaged the static parent as a child: its
   plain votes and acks, refused from a parent otherwise, come from below. *)
and engaged_as_child t ~src payload =
  match payload with
  | Msg.Vote_msg { delegation = false; txn; _ } | Msg.Ack_msg { txn; _ } -> (
      match find_txn t txn with
      | st -> has_child src st.children
      | exception Not_found -> false)
  | _ -> false

(* Act on each payload of a delivered bundle that the protocol admits. *)
and deliver_payloads t ~src = function
  | [] -> ()
  | payload :: rest ->
      (match admissible t ~src payload with
      | None ->
          t.evidence.ev_admitted (Lazy.force t.ops) payload;
          handle_payload t ~src payload
      | Some reason ->
          t.rejected <- t.rejected + 1;
          note t reason);
      deliver_payloads t ~src rest

and handler t ~src payloads =
  if not t.crashed then begin
    if recording t then
      Trace.deliver t.trace ~txn:(payloads_txn t payloads)
        ~src:(Obs.Events.member t.events src) ~dst:(me t)
        ~label:(bundle_label_id t payloads);
    deliver_payloads t ~src payloads
  end

(* ------------------------------------------------------------------ *)
(* Restart and log-driven recovery                                     *)
(* ------------------------------------------------------------------ *)

and rejoin t =
  t.crashed <- false;
  t.epoch <- t.epoch + 1;
  if tracing t then Trace.restart t.trace ~who:(me t);
  Net.restart_node t.net t.name

and restart t =
  rejoin t;
  Kvstore.recover t.kv;
  (* Reconstruct protocol obligations from this node's durable TM rows,
     keyed by name: recovery walks the table in its order, and that order
     reaches the output *)
  let log = t.log in
  let by_txn = Names.create 8 in
  for i = 0 to Wal.Log.durable_rows log - 1 do
    let kind = Wal.Log.row_kind log i in
    if Wal.Log.row_writer log i = t.wid && Wal.Log_record.is_tm_kind kind then begin
      let txn = Wal.Log.txn_name log (Wal.Log.row_txn log i) in
      let l = try Names.find by_txn txn with Not_found -> [] in
      Names.replace by_txn txn (kind :: l)
    end
  done;
  (* the protocol restores (and re-validates) the evidence it logged
     first, so decisions recovery re-drives carry it *)
  t.evidence.ev_restart (Lazy.force t.ops) log ~writer:t.wid;
  Names.iter (fun txn kinds -> recover_txn t ~txn ~kinds) by_txn

and recover_txn t ~txn ~kinds =
  match Protocol_intf.recover t.proto kinds with
  | Protocol_intf.Rec_none -> ()
      (* fully finished, or heuristic state already resolved locally *)
  | Protocol_intf.Rec_redrive outcome -> resume_propagation t ~txn outcome
  | Protocol_intf.Rec_in_doubt -> resume_in_doubt t ~txn
  | Protocol_intf.Rec_decide { outcome; note } ->
      resume_decide t ~txn ~outcome ~note

(* An outcome is durable but END is missing: some subordinate may not have
   heard it.  Re-drive phase two toward every static child. *)
and resume_propagation t ~txn outcome =
  let st = resumed_txn_state t ~txn Ph_propagating in
  st.outcome <- Some outcome;
  st.decision_durable <- true;
  note t
    (Printf.sprintf "recovery: re-driving %s of %s" (outcome_to_string outcome)
       txn);
  (* Local resource state was rebuilt by Kvstore.recover; if this node's RM
     is still in doubt it must be resolved with the known outcome. *)
  if Kvstore.is_in_doubt t.kv ~txn then apply_local t st outcome;
  if st.children = [] then begin
    (* leaf: only the upstream acknowledgment is owed *)
    send_ack_up t st;
    finish_with_end t st
  end
  else begin
    propagate_decision t st outcome;
    maybe_finished t st
  end

and resume_in_doubt t ~txn =
  let st = resumed_txn_state t ~txn Ph_in_doubt in
  (* a durable heuristic record survives the crash: the operator's override
     is still in force, and the eventual real outcome must be checked
     against it - and any damage reported - exactly as if we had never
     crashed.  (This also keeps the restarted heuristic timer from firing
     a second decision: [take_heuristic] is a no-op once an action is
     recorded.) *)
  st.heuristic_action <-
    fold_own t ~tid:st.tid (Wal.Log.durable_rows t.log)
      (fun kind action ->
        match kind with
        | Wal.Log_record.Heuristic_commit -> known_committed
        | Wal.Log_record.Heuristic_abort -> known_aborted
        | _ -> action)
      st.heuristic_action;
  note t "recovery: in doubt after restart";
  (* A parentless node with a durable Prepared record delegated its
     decision before crashing, so it asks its children, as
     [indoubt_targets] says. *)
  if t.proto.p_inquires then inquire t st;
  start_heuristic_timer t st;
  start_indoubt_timer t st 0

(* The protocol knows the outcome without anyone to ask (PN's interrupted
   commit-pending coordinator aborts): decide it now and drive the
   subordinates (coordinator-initiated recovery). *)
and resume_decide t ~txn ~outcome ~note:text =
  note t text;
  decide t (resumed_txn_state t ~txn Ph_deciding) outcome

let create ~net ~trace ~(cfg : config) ~profile ~parent ~child_profiles ~wal ~kv =
  let engine =
    match Obs.Events.engine (Trace.log trace) with
    | Some e -> e
    | None ->
        invalid_arg "Participant.create: the trace must be created with ~engine"
  in
  let faults = Hashtbl.create 4 in
  List.iter
    (fun f -> if f.f_node = profile.p_name then Hashtbl.replace faults f.f_point f)
    cfg.faults;
  let proto = Protocol.resolve cfg.protocol in
  let tref = ref None in
  let steps =
    Step.arena engine ~name:("participant.step." ^ profile.p_name) ~no_state
      (fun ~epoch ~slot code ->
        match !tref with Some t -> resume t ~epoch ~slot code | None -> ())
  in
  let wid = Wal.Log.writer wal profile.p_name in
  let t =
    {
    name = profile.p_name;
    profile;
    cfg;
    proto;
    evidence = proto.p_evidence cfg;
    ops = lazy (make_ops (Option.get !tref));
    engine;
    net;
    log = wal;
    wid;
    kv;
    trace;
    parent;
    child_profiles;
    ids = Simkernel.Engine.ids engine;
    txns = Ids.Tbl.create 4;
    ended = Bytes.empty;
    faults;
    fired_faults = Hashtbl.create 4;
    crashed = false;
    epoch = 0;
    on_root_complete = None;
    on_agent_decision = None;
    opened = -1;
    on_crash = None;
    domain = [];
    hists = Obs.Registry.handles hist_names;
    events = Trace.log trace;
    mid = -1;
    suspended_children = Names.create 4;
    idle_children = Ids.Tbl.create 4;
    deferred = [];
    deferrals = 0;
    rejected = 0;
    damage_seen = [];
    steps;
    retry_delays = retry_delays cfg;
    }
  in
  tref := Some t;
  t.domain <- [ t ];
  Wal.Log.on_durable wal ~writer:wid (Step.on_token steps);
  t

let attach t = Net.add_node t.net t.name (fun ~src payloads -> handler t ~src payloads)

let force_crash t = crash t
let force_restart t = restart t

let force_restart_amnesia t = rejoin t

let unresolved_txns t =
  Ids.Tbl.fold (fun _ st acc -> (st.txn, phase_name st.phase) :: acc) t.txns []
  |> List.sort compare

let blocked st =
  match st.phase with
  | Ph_in_doubt | Ph_delegated -> true
  | Ph_idle | Ph_voting | Ph_deciding | Ph_propagating | Ph_ended -> false

let in_doubt_txns t =
  Ids.Tbl.fold (fun _ st acc -> if blocked st then st.txn :: acc else acc) t.txns []
  |> List.sort compare

let is_unresolved t ~txn = Ids.Tbl.mem t.txns (Ids.find t.ids txn)

let is_in_doubt t ~txn =
  match find_txn t txn with
  | st -> blocked st
  | exception Not_found -> false

let flush_piggybacks t =
  if (not t.crashed) && t.deferred <> [] then begin
    List.iter (fun d -> fire_deferred t d) (List.rev t.deferred);
    t.deferred <- []
  end

let force_heuristic t ~txn action =
  if not t.crashed then
    match find_txn t txn with
    | st -> take_heuristic t st action ~injected:true
    | exception Not_found -> ()

let rejected_forgeries t = t.rejected
(* refusals counted by the protocol's own evidence check (BFT certificates) *)
let rejected_certs t = t.evidence.ev_refusals ()

let damage_seen t = List.rev t.damage_seen
