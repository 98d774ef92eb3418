(** Baseline two-phase commit (the paper's Figure 1) expressed through
    {!Protocol_intf}: every decision is forced at every member, every
    abort is acknowledged, and a coordinator with no information answers
    inquiries with abort only because an unlogged decision cannot have
    committed. *)

open Types

let protocol : Protocol_intf.t =
  {
    p_id = Basic;
    p_flag = "basic";
    p_aliases = [];
    p_description = "baseline 2PC: forced decisions and acks everywhere";
    (* nothing precedes phase one: the coordinator's first write is the
       decision itself, so in-doubt members inquire.  A member that never
       voted (or said NO) cannot be in doubt: it aborts unilaterally or
       inquires, so only a YES voter confirms an abort. *)
    p_coordinator_log = [];
    p_voter_log = [ Wal.Log_record.Prepared ];
    p_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      | Aborted -> Protocol_intf.Log_force Wal.Log_record.Aborted);
    p_subordinate_decision_log =
      (function
      | Committed -> Protocol_intf.Log_force Wal.Log_record.Committed
      | Aborted -> Protocol_intf.Log_force Wal.Log_record.Aborted);
    p_damage_to_root = false;
    p_evidence = Protocol_intf.no_evidence;
  }
