(** Presumed Abort (the paper's Figure 2) expressed through
    {!Protocol_intf}: no information at the coordinator means abort, so
    aborts log nothing at the decision maker, are written lazily at
    subordinates, and are never acknowledged. *)

open Types

let protocol : Protocol_intf.t =
  {
    p_id = Presumed_abort;
    p_flag = "pa";
    p_aliases = [];
    p_description = "presumed abort: aborts unlogged at the decision maker";
    p_coordinator_log = [];
    p_voter_log = [ Wal.Log_record.Prepared ];
    p_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      (* the presumption carries the abort: a later inquiry finds no
         information and concludes abort *)
      | Aborted -> Protocol_intf.Log_none);
    p_subordinate_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      (* no forced abort record before releasing resources *)
      | Aborted -> Protocol_intf.Log_append Wal.Log_record.Aborted);
    p_damage_to_root = false;
    p_evidence = Protocol_intf.no_evidence;
  }
