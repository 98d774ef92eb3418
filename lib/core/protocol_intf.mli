(** The commit-protocol interface: what distinguishes one protocol family
    from another, expressed as a record of transition policies.

    {!Participant} owns everything the paper calls "the environment" -
    timers, retransmission with backoff, crash/restart/amnesia, piggyback
    deferral, telemetry spans, lock handling - and consults a {!t} at
    exactly the points where Basic 2PC, Presumed Abort and Presumed Nothing
    diverge.  A new protocol is a value of this type registered with
    {!Protocol.register}; it inherits the sweep, chaos, shrinking and
    telemetry harness unchanged.  DESIGN.md "Plugging in a protocol"
    documents the contract field by field. *)

(** Capabilities the plumbing hands an {!evidence} hook.  Every effect a
    hook may have on the world goes through one of these, which is what
    keeps implementations runnable under the deterministic simulation, the
    crash injector and the trace at once.  None of them takes a
    continuation: where a protocol needs the disk or the clock, its hook
    answers data (records to force, a delay) and {!Participant} owns the
    wait, as a step it can name, order and drop at a crash. *)
type ops = {
  op_append : txn:string -> Wal.Log_record.kind -> Bytes.t -> int -> unit;
      (** [op_append ~txn kind b n] writes a TM record without forcing,
          carrying a copy of the first [n] bytes of [b] as its payload
          (none when [n = 0]); [b] may be reused at once *)
  op_note : string -> unit;  (** free-form trace note at this node *)
  op_votes : txn:string -> Msg.vote_scratch -> unit;
      (** [op_votes ~txn s] empties [s] and adds the votes this node
          decided [txn] over, one per member, its own included
          ({!Msg.add_vote}): no pair or list is built *)
  op_ended_row :
    'a. txn:string -> Wal.Log_record.kind -> (txn:string -> string -> 'a option) ->
    'a option;
      (** [op_ended_row ~txn kind decode]: once this node has ended [txn],
          the newest of its own rows of [kind] for [txn] whose payload
          [decode ~txn] accepts, decoded, scanning back from the newest
          row.  Durable rows and rows still volatile both count; a crash
          drops the volatile ones.  For a transaction not ended here it
          answers [None] at once, scanning nothing: only a request that
          comes after the node forgot the transaction ({!ev_forget}) reads
          the log. *)
  op_charge : flows:int -> forces:int -> Wal.Log_record.kind -> unit;
      (** charge synthetic protocol cost (message flows / forced writes of
          the given kind happening on unmodelled hardware, e.g. the BFT
          replica ensemble) to this node's trace counters *)
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
  | Rec_redrive of Types.outcome
      (** outcome durable but END missing: re-drive phase two *)
  | Rec_in_doubt  (** prepared without outcome: resume in doubt *)
  | Rec_decide of { outcome : Types.outcome; note : string }
      (** decide [outcome] now, tracing [note] first (PN's interrupted
          commit-pending coordinator aborts) *)

(** Where a delivered payload claims to come from, relative to the
    receiving node's static position in the commit tree.  Honest nodes know
    their parent and immediate children; that topology plus their own
    durable state is all the evidence they have against forged messages -
    there are no signatures in 2PC. *)
type sender_role = From_parent | From_child | From_stranger

(** What a protocol attaches to its messages, checks on delivery and keeps
    in the log to back its decisions, built once per node ({!t.p_evidence}).
    The paper's protocols trust the commit tree and carry nothing
    ({!no_evidence}); {!Protocol_bft} carries decision certificates and
    signed votes.  {!Participant} calls every hook unconditionally. *)
type evidence = {
  ev_vote_tag : src:string -> txn:string -> Types.vote -> string;
      (** the signature a vote from [src] carries; [""] for unsigned *)
  ev_decide : ops -> txn:string -> Types.outcome -> float;
      (** called at the decision maker after the outcome is chosen and
          before it is logged or propagated, to back the outcome: answers
          how long backing still takes, or a negative number once the
          outcome may be logged.  Otherwise the plumbing waits that long
          and asks again; a crash drops the wait, so no second ask follows
          it.  BFT gathers its endorsement quorum at the first ask,
          reading the vote set through [op_votes], and appends the
          certificate at once ([f = 0] or already certified) or at the
          second, so the outcome force hardens both. *)
  ev_cert : ops -> txn:string -> Msg.certificate option;
      (** the certificate this node attaches to a [Decision_msg] or an
          outcome-bearing [Inquiry_reply] for [txn], which
          {!Participant} builds; once the node has forgotten [txn], it
          comes from its log ([op_ended_row]) *)
  ev_check : src:string -> Msg.payload -> string option;
      (** runs before {!admissible} on every delivered payload: [Some
          reason] refuses it.  The plumbing counts the refusal toward
          {!Participant.rejected_certs} and, like any refusal, toward
          {!Participant.rejected_forgeries}, and traces [reason]. *)
  ev_admitted : ops -> Msg.payload -> unit;
      (** sees every admitted payload before the node acts on it (BFT
          caches and logs the first certificate it sees per transaction;
          for one it has ended, only when its log holds none) *)
  ev_forget : txn:string -> unit;
      (** the node ended [txn] ({!Participant}'s one place that marks a
          transaction ended), or restarted ({!ev_restart}) after ending
          it: drop what is held in memory for it.  After this, {!ev_cert}
          answers from the log.  BFT drops the certificate it cached or is
          backing. *)
  ev_crash : unit -> unit;  (** the node crashed: drop volatile state *)
  ev_restart : ops -> Wal.Log.t -> writer:int -> int;
      (** the node restarted; its own durable TM records are the log's
          durable rows ({!Wal.Log.durable_rows}) written by [writer].  Runs
          before log-driven recovery re-drives anything, so re-driven
          decisions carry whatever this restores.  Answers how many
          durable records it refused, which the plumbing counts toward
          {!Participant.rejected_certs} (BFT re-validates every durable
          certificate and refuses the invalid ones). *)
}

type t = {
  p_id : Types.protocol;
      (** the {!Types.config} value selecting this protocol *)
  p_flag : string;  (** short CLI spelling, e.g. ["pa"] *)
  p_aliases : string list;  (** further accepted spellings *)
  p_description : string;
  p_coordinator_log : Wal.Log_record.kind list;
      (** records a coordinator forces, in order, before any Prepare flows:
          the root always, a cascaded coordinator when it has children of
          its own (one without is a plain voter).  At the root the
          [Cp_after_commit_pending] crash point fires once they are
          durable, if there are any.  PN: commit-pending; others: none. *)
  p_voter_log : Wal.Log_record.kind list;
      (** records a YES voter forces, in order, before its vote may leave
          the node (PN: agent then prepared; others: prepared).  A
          delegator, under every protocol, forces prepared alone before
          handing the decision to its last agent: it becomes the agent's
          subordinate, and a restart finds it in doubt. *)
  p_decision_log : Types.outcome -> log_discipline;
      (** logging at the decision maker (root, last agent, delegator) *)
  p_subordinate_decision_log : Types.outcome -> log_discipline;
      (** logging at a subordinate that hears the outcome from above *)
  p_damage_to_root : bool;
      (** heuristic-damage reports travel up to the root (PN) rather than
          stopping at the immediate coordinator (PA, basic) *)
  p_evidence : Types.config -> evidence;
      (** builds one node's {!evidence} when the node is created;
          {!no_evidence} for the paper's three protocols *)
}

val no_evidence : Types.config -> evidence
(** The paper's protocols: unsigned votes, decisions and inquiry replies
    without certificates, no check, nothing cached, logged or forgotten.
    It answers one shared record for every member. *)

val certified : t -> bool
(** Whether the protocol backs its decisions with evidence, i.e. its
    [p_evidence] is not {!no_evidence}: under a certified protocol chaos
    runs report refusals and replica corruption and gate on the
    sub-threshold guarantee. *)

(** {1 Rules}

    What {!Participant} asks where the families diverge beyond their
    logging, answered from the record's fields.  The paper's protocols
    differ here only in what a missing log record presumes
    ([p_decision_log]) and what a coordinator logs first
    ([p_coordinator_log]), which also says whether in-doubt members
    inquire. *)

val acks_aborts : t -> bool
(** Whether subordinates acknowledge aborts: not when
    [p_decision_log Aborted] is [Log_none], whose presumption stands in
    for the acknowledgment (PA). *)

val inquires : t -> bool
(** Whether in-doubt subordinates inquire (PA, basic, BFT): not when a
    coordinator forces a [p_coordinator_log] record before any Prepare
    flows, for it can then drive recovery itself (PN's commit-pending). *)

val delegated : t -> Wal.Log_record.kind list -> bool
(** Whether a member whose durable TM record kinds for a transaction hold
    Prepared without an outcome delegated rather than voted: a delegator
    forces Prepared alone, a YES voter its whole [p_voter_log] (PN's
    delegator has no agent record).  Where a voter forces Prepared alone
    the two look alike, and the member inquires either way. *)

val abort_ack_required :
  t -> vote:Types.vote option -> presumed_no:bool -> bool
(** The coordinator's side of {!acks_aborts}, per child: must this child's
    abort notification be retried until acknowledged?  [vote] is the
    child's recorded vote ([None] = never voted); [presumed_no] marks a
    vote timeout, which is no real NO.  Only if the protocol
    {!acks_aborts}, and then if the child voted YES, or if its members do
    not inquire ({!inquires}) and it did not really vote NO: it may be
    crashed holding a forced prepare whose vote never arrived (PN: all but
    a real NO voter; basic: YES voters; PA: none). *)

val awaiting_coordinator : t -> string
(** The in-doubt rule: a member in doubt sends an {!Msg.Inquiry} to
    whoever can resolve its doubt on every tick and right after a restart
    if the protocol {!inquires}, or if it is a restarted delegator
    ({!delegated}), which asks its agent under every protocol.  Any other
    member traces this note on each tick (["in doubt: awaiting
    coordinator recovery (PN)"]) and does nothing at restart. *)

val recover : t -> Wal.Log_record.kind list -> recovery_action
(** What a restarted node does with the TM record kinds it found for one
    transaction: END means finished; a durable outcome is re-driven; a
    dangling prepare means in doubt, a delegator's included; then a
    durable [p_coordinator_log] record without outcome means a
    coordinator interrupted before deciding, which aborts and drives its
    subordinates itself (PN's commit-pending).  Anything else (including
    heuristic records, which were resolved locally when written) needs no
    driving. *)

val admissible :
  t ->
  src:string ->
  role:sender_role ->
  known:Types.outcome option ->
  Msg.payload ->
  string option
(** Validation an honest node runs on every delivered payload before
    acting on it: [None] admits the payload, [Some reason] rejects it (the
    plumbing counts the rejection toward {!Participant.rejected_forgeries}
    and traces [reason]).  It runs only on payloads {!evidence.ev_check}
    admitted.  [known] is the receiver's durable outcome for the payload's
    transaction, if any.  It never rejects anything a benign run can
    deliver - dual commit initiation (Figure 5) makes
    Prepare-from-a-stranger legal, for example.

    A protocol whose members do not inquire ({!inquires}) refuses every
    Inquiry first unless [role] is [From_parent]: a PN subordinate never
    sends one, and a restarted delegator asks from above (the participant
    reports a transaction's delegator as [From_parent], even from a static
    child).  Then the txn-id/topology checks.
    Rejects: decisions contradicting the receiver's durable outcome
    (honest coordinators never flip a decision); decisions for unknown
    transactions from topology strangers; votes, data, inquiries and
    inquiry replies from strangers; acknowledgments from anyone but a
    subordinate; non-delegation votes arriving from the receiver's own
    parent (votes flow upward - a downward one is the echo of a forged
    Prepare the receiver's parent was tricked into cascading).
    Deliberately admits: Prepare from anyone (dual commit
    initiation, Figure 5, is legal and handled by the state machine), a
    stranger's decision confirming what the receiver already decided, and
    everything from the real parent or children - a forgery from the
    coordinator's own address is indistinguishable from the genuine
    message, which is exactly the trust assumption the adversarial chaos
    matrix measures. *)
