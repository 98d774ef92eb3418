(** Presumed Nothing (the paper's Figure 3) expressed through
    {!Protocol_intf}: the coordinator force-logs commit-pending before any
    Prepare flows and therefore owns recovery - subordinates never
    inquire, damage reports travel to the root, and a restarted
    coordinator that finds a dangling commit-pending record aborts and
    drives its subordinates itself. *)

open Types

let protocol : Protocol_intf.t =
  {
    p_id = Presumed_nothing;
    p_flag = "pn";
    p_aliases = [];
    p_description =
      "presumed nothing: coordinator-owned recovery via commit-pending";
    (* The coordinator must remember its subordinates before any Prepare
       leaves the node *)
    p_coordinator_log = [ Wal.Log_record.Commit_pending ];
    (* subordinates durably record their acknowledgment obligation (the
       agent record) in addition to the prepared record: Table 2 charges
       them four writes, three forced *)
    p_voter_log = [ Wal.Log_record.Agent; Wal.Log_record.Prepared ];
    (* commit-pending (with the buffered RM records) is already the
       delegating coordinator's durability point *)
    p_delegation_log = [];
    p_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      | Aborted -> Protocol_intf.Log_force Wal.Log_record.Aborted);
    p_subordinate_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      | Aborted -> Protocol_intf.Log_force Wal.Log_record.Aborted);
    p_ack_on_abort = true;
    (* a silent member may be crashed holding a forced prepare whose vote
       never reached us; PN has no presumption it could fall back on, so
       the abort must be delivered and acknowledged (PA and basic members
       resolve this themselves by inquiring) *)
    p_abort_ack_required =
      (fun ~vote ~presumed_no ->
        presumed_no || match vote with Some Vote_no -> false | _ -> true);
    p_damage_to_root = true;
    p_indoubt_tick =
      (fun ops ~txn:_ ~targets:_ ->
        ops.op_note "in doubt: awaiting coordinator recovery (PN)");
    p_indoubt_restart = (fun _ops ~txn:_ ~targets:_ -> ());
    p_recover =
      (fun kinds ->
        let has k = List.mem k kinds in
        if has Wal.Log_record.End then Protocol_intf.Rec_none
        else if has Wal.Log_record.Committed then
          Protocol_intf.Rec_redrive Committed
        else if has Wal.Log_record.Aborted then
          Protocol_intf.Rec_redrive Aborted
        else if has Wal.Log_record.Prepared then Protocol_intf.Rec_in_doubt
        else if has Wal.Log_record.Commit_pending then
          (* coordinator interrupted before deciding: abort and drive the
             subordinates (coordinator-initiated recovery) *)
          Protocol_intf.Rec_decide
            {
              outcome = Aborted;
              note = "PN recovery: commit-pending without outcome - aborting";
            }
        else Protocol_intf.Rec_none);
    (* PN subordinates never inquire (recovery is coordinator-owned), so
       any Inquiry is a protocol violation PN can reject outright; the
       shared topology/known-outcome checks cover the rest *)
    p_admissible =
      (fun ~src ~role ~known payload ->
        match payload with
        | Msg.Inquiry _ ->
            Some
              (Printf.sprintf
                 "rejecting inquiry from %s: PN recovery is coordinator-owned"
                 src)
        | _ -> Protocol_intf.standard_admissible ~src ~role ~known payload);
    p_evidence = Protocol_intf.no_evidence;
  }
