(** Byzantine-fault-tolerant commit (after Zhao, "A Byzantine Fault
    Tolerant Distributed Commit Protocol") expressed through
    {!Protocol_intf}: the coordinator is replicated over 2f+1 replicas and
    a decision only becomes actionable when carried by a {e decision
    certificate} of at least f+1 matching endorsements over the same vote
    set.  Everything about certificates is in [evidence] below:
    signing votes, certifying decisions, caching and logging
    certificates, refusing uncertified or mis-certified decisions and
    mis-signed votes before acting (they reach the rejected-forgeries
    console too), and re-validating durable certificates at restart.

    The replica ensemble is not modelled as separate simulation nodes: the
    endorsement round is synthesized at the decision maker, which charges
    its message flows and forced writes through [op_charge] and answers
    its round-trip latency as the delay the participant waits before
    logging the outcome, so sweeps and the paper-style
    Tables 2-4 accounting price what tolerance costs.  The adversary's
    power over the ensemble is the chaos plan's [corrupt@] events: the
    injector can only forge endorsements for corrupted replicas, so
    certificates stay unforgeable while at most f replicas are corrupt -
    the sub-threshold guarantee the chaos harness gates on. *)

open Types

(* One node's certificates.  The per-txn cache is filled at the decision
   maker and on first sight of an admitted certified payload elsewhere;
   each new certificate is appended to the WAL so the next force hardens
   certificate and outcome together.  The cache holds a transaction only
   until the member ends it: after that a late request is answered from
   the member's own newest valid [Certificate] row, decoded and
   re-validated as restart does, so the cache holds what is live rather
   than everything the run has decided.  The cache dies with the node and
   restart restores it from the durable [Certificate] rows, re-validating
   each; the participant then forgets again the transactions the member
   had ended.  On top of the topology check every protocol runs,
   decisions and outcome-bearing inquiry replies must carry a valid
   certificate, a reply without an outcome none, and votes a matching
   signature; the participant counts those refusals, and the invalid
   durable certificates restart answers it refused.  So every
   certificate kept has passed the check restart re-applies. *)
let evidence cfg =
  let f = max 0 cfg.bft_f in
  let certs : (string, Msg.certificate) Hashtbl.t = Hashtbl.create 4 in
  (* certificates gathered, awaiting the endorsement round trip *)
  let backing : (string, Msg.certificate) Hashtbl.t = Hashtbl.create 4 in
  let refuse fmt = Printf.ksprintf Option.some fmt in
  (* a certificate's WAL payload is written here, and the vote set it
     covers sorted here *)
  let encoded = ref Bytes.empty in
  let votes = Msg.vote_scratch () in
  let keep (ops : Protocol_intf.ops) ~txn cert =
    Hashtbl.replace certs txn cert;
    let n = Msg.cert_size cert in
    if n > Bytes.length !encoded then
      encoded := Bytes.create (max (max 64 n) (2 * Bytes.length !encoded));
    Msg.write_cert cert !encoded;
    ops.op_append ~txn Wal.Log_record.Certificate !encoded n
  in
  let valid ~txn ~outcome c = Msg.certificate_valid ~f ~txn ~outcome c in
  (* a [Certificate] row's certificate, if it is valid for the outcome it
     names: what restart restores *)
  let restored ~txn payload =
    match Msg.cert_of_string payload with
    | Some ({ Msg.c_endorsements = e :: _ } as c)
      when valid ~txn ~outcome:e.Msg.e_outcome c ->
        Some c
    | _ -> None
  in
  (* [txn]'s certificate in the log, once the member has ended [txn] *)
  let logged (ops : Protocol_intf.ops) ~txn =
    ops.op_ended_row ~txn Wal.Log_record.Certificate restored
  in
  let held ops ~txn =
    match Hashtbl.find_opt certs txn with
    | Some _ as cert -> cert
    | None -> logged ops ~txn
  in
  (* built once here: a counter-only trace drops the note unread *)
  let gathering =
    Printf.sprintf "gathering decision certificate (f=%d, quorum=%d)" f (f + 1)
  in
  {
    Protocol_intf.ev_vote_tag = Msg.vote_tag;
    (* The replicas endorse the outcome over the vote set.  Beyond what the
       node itself logs, the coordinator exchanges request/endorsement with
       each of the 2f other replicas (2 * 2f flows) and each of those
       replicas forces its endorsement record (2f forced writes); the round
       trip overlaps the replica forces, so it adds one round trip plus one
       force of latency. *)
    ev_decide =
      (fun ops ~txn outcome ->
        match Hashtbl.find_opt backing txn with
        | Some cert ->
            (* asked again: the round trip is over *)
            Hashtbl.remove backing txn;
            keep ops ~txn cert;
            -1.0
        | None when Hashtbl.mem certs txn -> -1.0
        | None ->
            ops.op_votes ~txn votes;
            let votes = Msg.scratch_digest votes in
            let cert =
              {
                Msg.c_endorsements =
                  List.init (f + 1) (fun r ->
                      Msg.endorse ~replica:r ~txn ~outcome ~votes);
              }
            in
            if f = 0 then begin
              keep ops ~txn cert;
              -1.0
            end
            else begin
              Hashtbl.replace backing txn cert;
              ops.op_note gathering;
              ops.op_charge ~flows:(4 * f) ~forces:(2 * f)
                Wal.Log_record.Certificate;
              (2.0 *. cfg.latency) +. cfg.io_latency
            end);
    ev_cert = held;
    ev_check =
      (fun ~src payload ->
        match payload with
        | Msg.Decision_msg { cert = None; _ } ->
            refuse "rejecting uncertified %s from %s" (Msg.payload_label payload)
              src
        | Msg.Decision_msg { txn; outcome; cert = Some c }
          when not (valid ~txn ~outcome c) ->
            refuse
              "rejecting %s from %s: certificate below the f+1=%d quorum or \
               inconsistent"
              (Msg.payload_label payload) src (f + 1)
        | Msg.Inquiry_reply { outcome = Some _; cert = None; _ } ->
            refuse "rejecting uncertified outcome reply from %s" src
        | Msg.Inquiry_reply { outcome = None; cert = Some _; _ } ->
            (* no outcome to back: an honest member attaches nothing *)
            refuse "rejecting certified no-information reply from %s" src
        | Msg.Inquiry_reply { txn; outcome = Some outcome; cert = Some c }
          when not (valid ~txn ~outcome c) ->
            refuse "rejecting outcome reply from %s: invalid certificate" src
        | Msg.Vote_msg { txn; vote; tag; _ }
          when not (Msg.vote_tag_matches ~src ~txn vote tag) ->
            refuse "rejecting %s from %s: vote signature mismatch"
              (Msg.payload_label payload) src
        | _ -> None);
    ev_admitted =
      (fun ops -> function
        | Msg.Decision_msg { txn; cert = Some c; _ }
        | Msg.Inquiry_reply { txn; cert = Some c; _ } ->
            (* a stale payload after END finds the member's own row *)
            if not (Hashtbl.mem certs txn || Option.is_some (logged ops ~txn))
            then keep ops ~txn c
        | _ -> ());
    ev_forget =
      (fun ~txn ->
        Hashtbl.remove certs txn;
        Hashtbl.remove backing txn);
    ev_crash =
      (fun () ->
        Hashtbl.reset certs;
        Hashtbl.reset backing);
    ev_restart =
      (fun ops log ~writer ->
        let refused = ref 0 in
        for i = 0 to Wal.Log.durable_rows log - 1 do
          if
            Wal.Log.row_writer log i = writer
            && Wal.Log.row_kind log i = Wal.Log_record.Certificate
          then
            let txn = Wal.Log.txn_name log (Wal.Log.row_txn log i) in
            match restored ~txn (Wal.Log.row_payload log i) with
            | Some c -> Hashtbl.replace certs txn c
            | None ->
                incr refused;
                ops.op_note
                  (Printf.sprintf
                     "recovery refuses invalid durable certificate for %s" txn)
        done;
        !refused);
  }

let protocol : Protocol_intf.t =
  {
    p_id = Custom "bft";
    p_flag = "bft";
    p_aliases = [ "byzantine"; "bft-2pc" ];
    p_description =
      "Byzantine-tolerant 2PC: 2f+1 coordinator replicas, decisions valid \
       only under an f+1 endorsement certificate";
    (* nothing logged before Prepare flows: subordinate-initiated
       recovery as under PA, where in-doubt members inquire and act only
       on certified replies *)
    p_coordinator_log = [];
    p_voter_log = [ Wal.Log_record.Prepared ];
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
    p_damage_to_root = false;
    p_evidence = evidence;
  }
