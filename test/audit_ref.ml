(* The end-of-run audits as they were before the write-ahead log became
   packed rows, kept as the reference the row-reading audits are checked
   against: Mixer.Audit keyed by transaction name, Faultlab.audit's store
   replay over record lists, and Faultlab.account's damage passes.  They
   read each log as a record list ([Wal.Log.all_records]), which builds
   the records the audits no longer build. *)

open Tpc.Mixer
module Run = Tpc.Run
module Net = Tpc.Net
module Participant = Tpc.Participant
module Names = Run.Names
module Keys = Hashtbl.Make (String)

type op = Put of string * string | Delete of string

module Mixer_audit = struct
  type breakdown = Tpc.Mixer.Audit.breakdown = {
    committed_missing : int;
    aborted_applied : int;
    bad_value : int;
  }

  let total b = b.committed_missing + b.aborted_applied + b.bad_value

  (* What the driver and the logs say about one transaction. *)
  type entry = {
    e_summary : txn_summary option;  (** [None]: only the logs name it *)
    mutable e_commits : bool;  (** some record commits it *)
    mutable e_aborts : bool;  (** some record aborts it *)
    mutable e_applied : string list;
        (** resource managers with an [Rm_committed] record for it *)
  }

  type evidence = { ev_world : Run.world; ev_txns : entry Names.t }

  let fresh e_summary =
    { e_summary; e_commits = false; e_aborts = false; e_applied = [] }

  (* One entry per summary, then one pass over each physical log's record
     arena: scanning per transaction would be quadratic in the run length,
     and copying the logs into lists would cost more than the checks. *)
  let scan w summaries =
    let txns = Names.create (max 16 (List.length summaries)) in
    List.iter (fun x -> Names.replace txns x.ts_txn (fresh (Some x))) summaries;
    let entry txn =
      match Names.find txns txn with
      | e -> e
      | exception Not_found ->
          let e = fresh None in
          Names.add txns txn e;
          e
    in
    List.iter
      (fun wal ->
        List.iter (fun (r : Wal.Log_record.t) ->
            match r.kind with
            | Wal.Log_record.Rm_committed ->
                let e = entry r.txn in
                e.e_commits <- true;
                e.e_applied <- r.node :: e.e_applied
            | Wal.Log_record.Committed | Wal.Log_record.Heuristic_commit ->
                (entry r.txn).e_commits <- true
            | Wal.Log_record.Rm_aborted | Wal.Log_record.Aborted
            | Wal.Log_record.Heuristic_abort ->
                (entry r.txn).e_aborts <- true
            | Wal.Log_record.Rm_update | Wal.Log_record.Rm_prepared
            | Wal.Log_record.Checkpoint | Wal.Log_record.Commit_pending
            | Wal.Log_record.Prepared | Wal.Log_record.End
            | Wal.Log_record.Agent | Wal.Log_record.Certificate ->
                ())
          (Wal.Log.all_records wal))
      (Run.all_wals w);
    { ev_world = w; ev_txns = txns }

  let divergence ev =
    Names.fold
      (fun _ e acc -> if e.e_commits && e.e_aborts then acc + 1 else acc)
      ev.ev_txns 0

  let rec updates ~node ~key = function
    | [] -> false
    | { it_node; it_op = Op_update { key = k } } :: rest ->
        (String.equal it_node node && String.equal k key)
        || updates ~node ~key rest
    | { it_op = Op_read _; _ } :: rest -> updates ~node ~key rest

  (* ground truth: the root's report when there is one, else the durable
     record is the decision *)
  let committed x e =
    match x.ts_outcome with
    | Some Committed -> true
    | Some Aborted -> false
    | None -> e.e_commits

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
    Names.iter
      (fun _ e ->
        match e.e_summary with
        | None -> ()
        | Some x ->
            let committed = committed x e in
            List.iter
              (fun it ->
                match it.it_op with
                | Op_read _ -> ()
                | Op_update { key } ->
                    let n = Run.node w it.it_node in
                    let applied = List.mem (Kvstore.name n.Run.kv) e.e_applied in
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
              x.ts_items)
      ev.ev_txns;
    (* every committed binding must belong to a committed transaction that
       actually wrote it there *)
    List.iter
      (fun (name, n) ->
        Kvstore.iter_committed n.Run.kv (fun key v ->
            match value_owner v with
            | None -> ()  (* pre-loaded or foreign value *)
            | Some owner -> (
                match Names.find ev.ev_txns owner with
                | { e_summary = Some x; _ } as e
                  when committed x e && updates ~node:name ~key x.ts_items ->
                    ()
                | _ | (exception Not_found) -> incr bad_value)))
      w.Run.nodes;
    {
      committed_missing = !committed_missing;
      aborted_applied = !aborted_applied;
      bad_value = !bad_value;
    }

  let breakdown w summaries = check (scan w summaries)
end

let decode_field s pos =
  let colon = String.index_from s pos ':' in
  let len = int_of_string (String.sub s pos (colon - pos)) in
  (String.sub s (colon + 1) len, colon + 1 + len)

let decode_op s =
  match s.[0] with
  | 'P' ->
      let k, pos = decode_field s 1 in
      let v, _ = decode_field s pos in
      Put (k, v)
  | 'D' ->
      let k, _ = decode_field s 1 in
      Delete k
  | _ -> invalid_arg "kvstore: corrupt rm-update payload"

let decode_snapshot s =
  let bindings = ref [] in
  let pos = ref 0 in
  while !pos < String.length s do
    let k, p = decode_field s !pos in
    let v, p = decode_field s p in
    bindings := (k, v) :: !bindings;
    pos := p
  done;
  !bindings

(* apply a write set (newest first) to [store], oldest op first *)
let rec apply_to store = function
  | [] -> ()
  | op :: older -> (
      apply_to store older;
      match op with
      | Put (k, v) -> Keys.replace store k v
      | Delete k -> Keys.remove store k)

(* the write set [pending] accumulates for [txn] during a log replay *)
let pending_ops pending txn =
  match Keys.find_opt pending txn with
  | Some l -> l
  | None ->
      let l = ref [] in
      Keys.replace pending txn l;
      l

let replay_bindings records ~node =
  let store : string Keys.t = Keys.create 64 in
  let pending : op list ref Keys.t = Keys.create 8 in
  List.iter
    (fun (r : Wal.Log_record.t) ->
      if r.node = node then
        match r.kind with
        | Wal.Log_record.Checkpoint ->
            Keys.reset store;
            List.iter (fun (k, v) -> Keys.replace store k v)
              (decode_snapshot r.payload)
        | Wal.Log_record.Rm_update ->
            let ops = pending_ops pending r.txn in
            ops := decode_op r.payload :: !ops
        | Wal.Log_record.Rm_committed ->
            (match Keys.find_opt pending r.txn with
            | Some ops -> apply_to store !ops
            | None -> ());
            Keys.remove pending r.txn
        | Wal.Log_record.Rm_aborted -> Keys.remove pending r.txn
        | Wal.Log_record.Rm_prepared | Wal.Log_record.Commit_pending
        | Wal.Log_record.Prepared | Wal.Log_record.Committed
        | Wal.Log_record.Aborted | Wal.Log_record.End | Wal.Log_record.Agent
        | Wal.Log_record.Heuristic_commit | Wal.Log_record.Heuristic_abort
        | Wal.Log_record.Certificate ->
            ())
    records;
  Keys.fold (fun k v acc -> (k, v) :: acc) store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let audit (w : Tpc.Run.world) summaries =
  let ev = Mixer_audit.scan w summaries in
  let b = Mixer_audit.check ev in
  let net = w.Tpc.Run.net in
  (* agreement: no transaction may carry both commit and abort evidence
     anywhere in the complex's logs (heuristic records included: the chaos
     profiles never arm heuristics, so any conflict is a protocol bug) *)
  let divergence = Mixer_audit.divergence ev in
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
           decisions, e.g. an amnesiac restart) *)
        let expected =
          replay_bindings
            (Wal.Log.all_records n.Tpc.Run.wal)
            ~node:(Kvstore.name kv)
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
    Faultlab.v_committed_missing = b.Mixer_audit.committed_missing;
    v_aborted_applied = b.Mixer_audit.aborted_applied;
    v_bad_value = b.Mixer_audit.bad_value;
    v_divergence = divergence;
    v_wal_divergence = !wal_divergence;
    v_leaked_locks = !leaked;
    v_engine_pending = Simkernel.Engine.pending w.Tpc.Run.engine;
    v_unresolved = !unresolved_count;
    v_in_doubt = !in_doubt_count;
  }

(* RM records are logged under "<member>.rm"; map them back to the member
   so heuristic-tainted RM evidence can be told apart from honest RM
   evidence. *)
let strip_rm n =
  if Filename.check_suffix n ".rm" then Filename.chop_suffix n ".rm" else n

let account (w : Tpc.Run.world) (summaries : Tpc.Mixer.txn_summary list) =
  let net = w.Tpc.Run.net in
  let wals = Tpc.Run.all_wals w in
  (* pass 1: where were heuristic decisions taken, and which way? *)
  let heur : (string * string, Tpc.Types.outcome) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun wal ->
      List.iter (fun (r : Wal.Log_record.t) ->
          match r.kind with
          | Wal.Log_record.Heuristic_commit ->
              Hashtbl.replace heur (r.node, r.txn) Tpc.Types.Committed
          | Wal.Log_record.Heuristic_abort ->
              Hashtbl.replace heur (r.node, r.txn) Tpc.Types.Aborted
          | _ -> ())
        (Wal.Log.all_records wal))
    wals;
  (* pass 2: per-transaction "strong" (non-heuristic) evidence.  A TM
     outcome record is always honest knowledge (resolve_heuristic appends
     the real outcome even at a damaged node); an RM record counts only
     when its member did not reach that state heuristically. *)
  let commit_strong : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let abort_strong : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* what each node was durably told the outcome was - under an
     equivocating coordinator this can be a lie, which is how heuristic
     damage gets concealed from its own member *)
  let told : (string * string, Tpc.Types.outcome) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun wal ->
      List.iter (fun (r : Wal.Log_record.t) ->
          match r.kind with
          | Wal.Log_record.Committed ->
              Hashtbl.replace told (r.node, r.txn) Tpc.Types.Committed;
              Hashtbl.replace commit_strong r.txn ()
          | Wal.Log_record.Aborted ->
              Hashtbl.replace told (r.node, r.txn) Tpc.Types.Aborted;
              Hashtbl.replace abort_strong r.txn ()
          | Wal.Log_record.Rm_committed ->
              if
                Hashtbl.find_opt heur (strip_rm r.node, r.txn)
                <> Some Tpc.Types.Committed
              then Hashtbl.replace commit_strong r.txn ()
          | Wal.Log_record.Rm_aborted ->
              if
                Hashtbl.find_opt heur (strip_rm r.node, r.txn)
                <> Some Tpc.Types.Aborted
              then Hashtbl.replace abort_strong r.txn ()
          | _ -> ())
        (Wal.Log.all_records wal))
    wals;
  (* which damage reports reached an operator console (the damaged member
     records its own detection; ack-borne copies land at coordinators) *)
  let seen : (string * string * Tpc.Types.outcome, unit) Hashtbl.t =
    Hashtbl.create 16
  in
  let report_truth : (string, Tpc.Types.outcome) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (_, (n : Tpc.Run.node)) ->
      List.iter
        (fun (txn, (d : Tpc.Msg.damage_report)) ->
          Hashtbl.replace seen (txn, d.Tpc.Msg.d_node, d.Tpc.Msg.d_action) ();
          Hashtbl.replace report_truth txn d.Tpc.Msg.d_outcome)
        (Tpc.Participant.damage_seen n.Tpc.Run.participant))
    w.Tpc.Run.nodes;
  (* ground truth per transaction: the root's announced outcome when there
     is one (a vote flipped to YES makes the root commit - that commit IS
     the decision the protocol reached; the flipped voter's unilateral
     abort is the violation), else strong durable evidence, else the
     outcome some member resolved its heuristic against (a presumed abort
     can leave no durable record, but its damage report names it).  [None]
     means nobody ever decided - a ghost transaction the adversary forged
     into existence; a heuristic on it is not (yet) damage, because there
     is no decision to contradict, and its member stays blocked. *)
  let announced : (string, Tpc.Types.outcome) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Tpc.Mixer.txn_summary) ->
      match s.Tpc.Mixer.ts_outcome with
      | Some o -> Hashtbl.replace announced s.Tpc.Mixer.ts_txn o
      | None -> ())
    summaries;
  let real_outcome txn =
    match Hashtbl.find_opt announced txn with
    | Some o -> Some o
    | None ->
        if Hashtbl.mem commit_strong txn then Some Tpc.Types.Committed
        else if Hashtbl.mem abort_strong txn then Some Tpc.Types.Aborted
        else Hashtbl.find_opt report_truth txn
  in
  (* atomicity violation: some node durably landed on the opposite of the
     decision the protocol really reached - two coordinations durably
     disagreeing, or an equivocation victim durably believing the flipped
     decision (PA aborts leave no durable record at honest members, so the
     real outcome, not abort-side evidence, anchors the test).  Divergence
     where the contradicting side is heuristic-only is heuristic damage,
     not an atomicity violation - the protocol did not disagree with
     itself, an operator overrode it. *)
  let strong_txns : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun txn () -> Hashtbl.replace strong_txns txn ()) commit_strong;
  Hashtbl.iter (fun txn () -> Hashtbl.replace strong_txns txn ()) abort_strong;
  let atomicity =
    Hashtbl.fold
      (fun txn () acc ->
        match real_outcome txn with
        | Some Tpc.Types.Committed when Hashtbl.mem abort_strong txn -> acc + 1
        | Some Tpc.Types.Aborted when Hashtbl.mem commit_strong txn -> acc + 1
        | _ -> acc)
      strong_txns 0
  in
  let blocked = ref 0 in
  let rejected = ref 0 in
  let in_doubt_at : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, (n : Tpc.Run.node)) ->
      let p = n.Tpc.Run.participant in
      rejected := !rejected + Tpc.Participant.rejected_forgeries p;
      List.iter
        (fun txn -> Hashtbl.replace in_doubt_at (name, txn) ())
        (Tpc.Participant.in_doubt_txns p);
      if Tpc.Net.is_up net name then
        blocked :=
          !blocked
          + List.length (Tpc.Participant.in_doubt_txns p)
          + List.length (Kvstore.in_doubt n.Tpc.Run.kv))
    w.Tpc.Run.nodes;
  (* Classify each heuristic decision.  Damage exists only against a real
     outcome; a damaged member still in doubt has not yet learned that
     outcome (it is counted blocked, and its report is owed at
     resolution), and a damaged member that is down reports at recovery -
     the same excuses the benign audit grants.  What remains silent is the
     auditable bug class: an up member that resolved (or forgot) a
     contradicting heuristic with no operator console anywhere recording
     it. *)
  let reported = ref 0 and silent = ref 0 in
  Hashtbl.iter
    (fun (node, txn) action ->
      match real_outcome txn with
      | None -> ()
      | Some o when action = o -> ()
      | Some _ ->
          if Hashtbl.find_opt told (node, txn) = Some action then
            (* the member was durably told its heuristic matched - an
               equivocator flipped the resolving decision in flight, so no
               honest party can see damage here.  The divergence is real
               and counted: the member's durable outcome contradicts the
               protocol's, an atomicity violation. *)
            ()
          else if Hashtbl.mem seen (txn, node, action) then incr reported
          else if
            Tpc.Net.is_up net node && not (Hashtbl.mem in_doubt_at (node, txn))
          then incr silent)
    heur;
  {
    Faultlab.a_atomicity = atomicity;
    a_heur_reported = !reported;
    a_heur_silent = !silent;
    a_blocked = !blocked;
    a_rejected = !rejected;
  }

(* Under an adversary, atomicity violations and reported heuristic damage
   are the measurement, not a harness failure; what must never happen is
   damage nobody heard about, or a broken world (store diverging from its
   log, leaked locks, a wedged engine). *)
