(** Byzantine-fault-tolerant commit variant: 2f+1 coordinator replicas,
    decisions actionable only under a certificate of f+1 matching
    endorsements ({!Msg.certificate_valid}), vote signatures checked, and
    restart recovery re-validating certificates from the WAL.  Registered
    as ["bft"]; [f] comes from {!Types.config.bft_f}.  DESIGN.md section
    10 documents the quorum/certificate model and the f-threshold
    semantics of the chaos gate. *)

val protocol : Protocol_intf.t
