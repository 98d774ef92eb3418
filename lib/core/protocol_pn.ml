(** Presumed Nothing (the paper's Figure 3) expressed through
    {!Protocol_intf}: the coordinator force-logs commit-pending before any
    Prepare flows and therefore owns recovery - subordinates never
    inquire, damage reports travel to the root, and a restarted
    coordinator that finds a dangling commit-pending record aborts and
    drives its subordinates itself.  A coordinator that delegated the
    decision to its last agent forced prepared as well: restarted, it is
    the agent's subordinate in doubt, and asks the agent. *)

open Types

let protocol : Protocol_intf.t =
  {
    p_id = Presumed_nothing;
    p_flag = "pn";
    p_aliases = [];
    p_description =
      "presumed nothing: coordinator-owned recovery via commit-pending";
    (* The coordinator must remember its subordinates before any Prepare
       leaves the node.  So subordinates never inquire: a restarted
       coordinator that finds commit-pending without an outcome aborts and
       drives them, an Inquiry from below is refused, and every member but
       a real NO voter confirms an abort. *)
    p_coordinator_log = [ Wal.Log_record.Commit_pending ];
    (* subordinates durably record their acknowledgment obligation (the
       agent record) in addition to the prepared record: Table 2 charges
       them four writes, three forced.  A delegator forces prepared alone,
       so its log tells it from a voter. *)
    p_voter_log = [ Wal.Log_record.Agent; Wal.Log_record.Prepared ];
    p_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      | Aborted -> Protocol_intf.Log_force Wal.Log_record.Aborted);
    p_subordinate_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      | Aborted -> Protocol_intf.Log_force Wal.Log_record.Aborted);
    p_damage_to_root = true;
    p_evidence = Protocol_intf.no_evidence;
  }
