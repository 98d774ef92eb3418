(** The commit-protocol interface: what distinguishes one protocol family
    from another, expressed as a record of transition policies.

    {!Participant} owns everything the paper calls "the environment" -
    timers, retransmission with backoff, crash/restart/amnesia, piggyback
    deferral, telemetry spans, lock handling - and consults a {!t} at
    exactly the points where Basic 2PC, Presumed Abort and Presumed Nothing
    diverge: what to log before voting begins, how decisions reach the
    disk, which aborts need acknowledgment, where damage reports travel,
    and what a restarted node does with its log.  A new protocol (Paxos
    Commit, logless 1PC, ...) is a value of this type registered with
    {!Protocol.register}; it inherits the sweep, chaos, shrinking and
    telemetry harness unchanged. *)

open Types

(** Capabilities the plumbing hands an evidence hook, so every effect a
    hook has on the world goes through the plumbing; protocol_intf.mli
    documents each. *)
type ops = {
  op_append : txn:string -> Wal.Log_record.kind -> Bytes.t -> int -> unit;
  op_note : string -> unit;
  op_votes : txn:string -> Msg.vote_scratch -> unit;
  op_ended_row :
    'a. txn:string -> Wal.Log_record.kind -> (txn:string -> string -> 'a option) ->
    'a option;
  op_charge : flows:int -> forces:int -> Wal.Log_record.kind -> unit;
}

(** How a decision reaches the log at one role. *)
type log_discipline =
  | Log_force of Wal.Log_record.kind  (** forced write, wait for the disk *)
  | Log_append of Wal.Log_record.kind  (** non-forced write, continue *)
  | Log_none  (** write nothing (the presumption carries the outcome) *)

(** What a restarted node does with the record kinds it finds for one
    transaction in its durable log. *)
type recovery_action =
  | Rec_none  (** nothing to drive (finished, or resolved heuristically) *)
  | Rec_redrive of outcome
      (** outcome durable but END missing: re-drive phase two *)
  | Rec_in_doubt  (** prepared without outcome: resume in doubt *)
  | Rec_decide of { outcome : outcome; note : string }
      (** decide [outcome] now, tracing [note] first (PN's interrupted
          commit-pending coordinator aborts) *)

(** Where a delivered payload claims to come from, relative to this node's
    static position in the commit tree.  Honest nodes know their parent and
    immediate children; that topology (plus their own durable state) is all
    the evidence they have against forged messages - there are no
    signatures in 2PC. *)
type sender_role = From_parent | From_child | From_stranger

(** What a protocol attaches to its messages, checks on delivery and keeps
    in the log to back its decisions, once per node; protocol_intf.mli
    documents each hook.  The plumbing calls every hook unconditionally. *)
type evidence = {
  ev_vote_tag : src:string -> txn:string -> vote -> string;
  ev_decide : ops -> txn:string -> outcome -> float;
  ev_cert : ops -> txn:string -> Msg.certificate option;
  ev_check : src:string -> Msg.payload -> string option;
  ev_admitted : ops -> Msg.payload -> unit;
  ev_forget : txn:string -> unit;
  ev_crash : unit -> unit;
  ev_restart : ops -> Wal.Log.t -> writer:int -> int;
}

(** One protocol: ten fields; protocol_intf.mli documents each. *)
type t = {
  p_id : protocol;
  p_flag : string;
  p_aliases : string list;
  p_description : string;
  p_coordinator_log : Wal.Log_record.kind list;
  p_voter_log : Wal.Log_record.kind list;
  p_decision_log : outcome -> log_discipline;
  p_subordinate_decision_log : outcome -> log_discipline;
  p_damage_to_root : bool;
  p_evidence : config -> evidence;
}

(** The paper's protocols: unsigned votes, no certificates, nothing
    checked or kept. *)
let paper_evidence =
  {
    ev_vote_tag = (fun ~src:_ ~txn:_ _ -> "");
    ev_decide = (fun _ ~txn:_ _ -> -1.0);
    ev_cert = (fun _ ~txn:_ -> None);
    ev_check = (fun ~src:_ _ -> None);
    ev_admitted = (fun _ _ -> ());
    ev_forget = (fun ~txn:_ -> ());
    ev_crash = ignore;
    ev_restart = (fun _ _ ~writer:_ -> 0);
  }

let no_evidence (_ : config) = paper_evidence

let certified p = p.p_evidence != no_evidence

(* ------------------------------------------------------------------ *)
(* Rules: what the record's fields decide together                      *)
(* ------------------------------------------------------------------ *)

(* The protocol's name as its trace texts spell it, e.g. "PN" *)
let shout p = String.uppercase_ascii p.p_flag

let acks_aborts p =
  match p.p_decision_log Aborted with Log_none -> false | _ -> true

(* Only a coordinator that logs before Prepare flows can drive recovery
   itself, so its subordinates wait; otherwise they ask *)
let inquires p = p.p_coordinator_log = []

(* A delegator forces Prepared alone: it lacks a longer voter log's head *)
let delegated p kinds =
  match p.p_voter_log with k :: _ -> not (List.mem k kinds) | [] -> false

let abort_ack_required p ~vote ~presumed_no =
  acks_aborts p
  &&
  match vote with
  | Some (Vote_yes _) -> true
  | Some Vote_no when not presumed_no -> false
  | _ -> not (inquires p)

let awaiting_coordinator p =
  Printf.sprintf "in doubt: awaiting coordinator recovery (%s)" (shout p)

let recover p kinds =
  let has k = List.mem k kinds in
  if has Wal.Log_record.End then Rec_none
  else if has Wal.Log_record.Committed then Rec_redrive Committed
  else if has Wal.Log_record.Aborted then Rec_redrive Aborted
  else if has Wal.Log_record.Prepared then Rec_in_doubt
  else
    match List.find_opt has p.p_coordinator_log with
    | Some kind ->
        Rec_decide
          {
            outcome = Aborted;
            note =
              Printf.sprintf "%s recovery: %s without outcome - aborting"
                (shout p)
                (Wal.Log_record.kind_to_string kind);
          }
    | None -> Rec_none

(* A refusal reason; its first two holes are the payload's label and the
   sender.  The label is built only here, so admitting a payload - every
   delivery of a benign run - allocates nothing. *)
let refuse payload src fmt =
  Printf.ksprintf Option.some fmt (Msg.payload_label payload) src

(* The txn-id/topology validation; protocol_intf.mli says what it
   rejects and what it deliberately admits, and why. *)
let admissible p ~src ~role ~known payload =
  match (payload : Msg.payload) with
  | Msg.Inquiry _ when role <> From_parent && not (inquires p) ->
      Some
        (Printf.sprintf
           "rejecting inquiry from %s: %s recovery is coordinator-owned" src
           (shout p))
  | Msg.Prepare _ -> None
  | Msg.Decision_msg { outcome; _ } -> (
      match known with
      | Some o when o <> outcome ->
          refuse payload src
            "rejecting %s from %s: contradicts our durable %s (forgery?)"
            (outcome_to_string o)
      | Some _ -> None
      | None -> (
          match role with
          | From_parent | From_child -> None
          | From_stranger ->
              refuse payload src
                "rejecting %s from stranger %s: not our coordinator"))
  | Msg.Ack_msg _ -> (
      match role with
      | From_child -> None
      | From_parent | From_stranger ->
          refuse payload src
            "rejecting %s from %s: acknowledgments come from subordinates")
  | Msg.Vote_msg { delegation; _ } -> (
      match role with
      | From_child -> None
      | From_parent ->
          (* the only vote that legally travels downward is a delegation
             (the coordinator handing its last agent the decision); a plain
             vote from our parent is the echo of a forged Prepare we were
             tricked into cascading, and acting on it would materialize
             ghost transaction state here *)
          if delegation then None
          else
            refuse payload src
              "rejecting %s from %s: only delegation votes flow downward"
      | From_stranger ->
          refuse payload src
            "rejecting %s from stranger %s: outside the commit tree")
  | Msg.Data _ | Msg.Inquiry _ | Msg.Inquiry_reply _ -> (
      match role with
      | From_parent | From_child -> None
      | From_stranger ->
          refuse payload src
            "rejecting %s from stranger %s: outside the commit tree")
