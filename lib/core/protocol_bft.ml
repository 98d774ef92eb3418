(** Byzantine-fault-tolerant commit (after Zhao, "A Byzantine Fault
    Tolerant Distributed Commit Protocol") expressed through
    {!Protocol_intf}: the coordinator is replicated over 2f+1 replicas and
    a decision only becomes actionable when carried by a {e decision
    certificate} of at least f+1 matching endorsements over the same vote
    set.  Participants refuse uncertified or mis-certified decisions and
    votes whose signature does not match, routing them to the
    rejected-forgeries console instead of acting; restart recovery
    re-validates certificates from the WAL.

    The replica ensemble is not modelled as separate simulation nodes: the
    endorsement round is synthesized at the decision maker, which charges
    its message flows and forced writes through [op_charge] and its
    round-trip latency through [op_after], so sweeps and the paper-style
    Tables 2-4 accounting price what tolerance costs.  The adversary's
    power over the ensemble is the chaos plan's [corrupt@] events: the
    injector can only forge endorsements for corrupted replicas, so
    certificates stay unforgeable while at most f replicas are corrupt -
    the sub-threshold guarantee the chaos harness gates on. *)

open Types

(* Cost of one certified decision, beyond what the node itself logs: the
   coordinator exchanges request/endorsement with each of the 2f other
   replicas (2 * 2f flows) and each of those replicas forces its
   endorsement record (2f forced writes).  The round trip overlaps the
   replica forces, so latency is one round trip plus one force. *)
let quorum_flows ~f = 4 * f
let quorum_forces ~f = 2 * f
let quorum_delay ~cfg ~f =
  if f = 0 then 0.0 else (2.0 *. cfg.latency) +. cfg.io_latency

let certify ops ~cfg ~txn ~outcome ~votes ~k =
  let f = max 0 cfg.bft_f in
  let cert =
    {
      Msg.c_endorsements =
        List.init (f + 1) (fun r -> Msg.endorse ~replica:r ~txn ~outcome ~votes);
    }
  in
  if f = 0 then k cert
  else begin
    ops.Protocol_intf.op_note
      (Printf.sprintf "gathering decision certificate (f=%d, quorum=%d)" f
         (f + 1));
    ops.Protocol_intf.op_charge ~flows:(quorum_flows ~f)
      ~forces:(quorum_forces ~f);
    ops.Protocol_intf.op_after ~delay:(quorum_delay ~cfg ~f) (fun () -> k cert)
  end

(* Everything the standard topology check catches still applies; on top of
   it, decisions and outcome-bearing inquiry replies must carry a valid
   certificate and votes must carry a matching signature.  Certificate
   reasons start with "cert:" so the plumbing can count them separately. *)
let admissible ~cfg ~src ~role ~known payload =
  let f = max 0 cfg.bft_f in
  let reject fmt = Printf.ksprintf Option.some fmt in
  match (payload : Msg.payload) with
  | Msg.Decision_msg { txn; outcome; cert } -> (
      match cert with
      | None ->
          reject "cert: rejecting uncertified %s from %s"
            (Msg.payload_label payload) src
      | Some c ->
          if not (Msg.certificate_valid ~f ~txn ~outcome c) then
            reject
              "cert: rejecting %s from %s: certificate below the f+1=%d \
               quorum or inconsistent"
              (Msg.payload_label payload) src (f + 1)
          else Protocol_intf.standard_admissible ~src ~role ~known payload)
  | Msg.Inquiry_reply { txn; outcome = Some o; cert } -> (
      match cert with
      | None -> reject "cert: rejecting uncertified outcome reply from %s" src
      | Some c ->
          if not (Msg.certificate_valid ~f ~txn ~outcome:o c) then
            reject "cert: rejecting outcome reply from %s: invalid certificate"
              src
          else Protocol_intf.standard_admissible ~src ~role ~known payload)
  | Msg.Vote_msg { txn; vote; tag; _ } ->
      if not (String.equal tag (Msg.vote_tag ~src ~txn vote)) then
        reject "cert: rejecting %s from %s: vote signature mismatch"
          (Msg.payload_label payload) src
      else Protocol_intf.standard_admissible ~src ~role ~known payload
  | _ -> Protocol_intf.standard_admissible ~src ~role ~known payload

let protocol : Protocol_intf.t =
  {
    p_id = Custom "bft";
    p_flag = "bft";
    p_aliases = [ "byzantine"; "bft-2pc" ];
    p_description =
      "Byzantine-tolerant 2PC: 2f+1 coordinator replicas, decisions valid \
       only under an f+1 endorsement certificate";
    p_begin_commit = (fun _ops ~txn:_ ~root:_ ~has_children:_ ~k -> k ());
    p_voter_log = [ Wal.Log_record.Prepared ];
    p_delegation_log = [ Wal.Log_record.Prepared ];
    (* no presumption in either direction: both outcomes are forced
       everywhere, so an inquiry answered "no information" really does
       mean no decision was ever certified *)
    p_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      | Aborted -> Protocol_intf.Log_force Wal.Log_record.Aborted);
    p_subordinate_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      | Aborted -> Protocol_intf.Log_force Wal.Log_record.Aborted);
    p_ack_on_abort = true;
    p_abort_ack_required =
      (fun ~vote ~presumed_no:_ ->
        match vote with Some (Vote_yes _) -> true | _ -> false);
    p_damage_to_root = false;
    (* subordinate-initiated recovery as under PA: in-doubt members inquire
       and act only on certified replies *)
    p_indoubt_tick = Protocol_intf.send_inquiries;
    p_indoubt_restart = Protocol_intf.send_inquiries;
    p_recover = Protocol_intf.standard_recover;
    p_admissible = admissible;
    p_certify = Some certify;
  }
