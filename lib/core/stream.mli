(** Chained-transaction streams: the workloads behind Table 4 (long
    locks), Figure 7, and the group-commit analysis of Section 4.

    Table 4 analyses [r] transactions "with small delays between them"
    between two members; the interesting quantity is how acknowledgment
    piggybacking amortizes flows across consecutive transactions, so this
    module drives the flow/log schedule directly over two write-ahead logs
    rather than through {!Participant}.  The participant already
    piggybacks acknowledgments onto next-transaction data (see
    {!Participant.flush_piggybacks}); what it cannot yet do is Figure 7's
    pairing across alternating roles, where Commit(t1) and the delegating
    Vote(t2, you decide) travel in one flow. *)

(** The three chain schedules of Table 4:
    - {!Chain_basic}: full Prepare / Vote / Commit / Ack per transaction,
      [4r] flows;
    - {!Chain_long_locks}: the subordinate withholds its acknowledgment
      and sends it with the data message beginning the next transaction,
      [3r] protocol flows;
    - {!Chain_long_locks_last_agent} (Figure 7): transactions run in pairs
      with the peer roles alternating, three flows per pair, [3r/2]
      flows for even [r] (an odd tail transaction costs two). *)
type mode = Chain_basic | Chain_long_locks | Chain_long_locks_last_agent

val mode_to_string : mode -> string

type result = {
  flows : int;        (** protocol flows *)
  data_flows : int;   (** application-data flows carrying piggybacked acks *)
  writes : int;       (** TM log writes at both members *)
  forced : int;
  duration : float;
  mean_coordinator_lock_time : float;
      (** mean virtual time the initiating side's resources stay locked per
          transaction: the price of long locks (Table 1) *)
  trace : Trace.t;
}

val run_chain : ?latency:float -> mode -> r:int -> result
(** Run [r] chained transactions between two members under the given
    schedule.  [latency] (default 1.0) is the one-way message delay; one
    force I/O takes 0.5. *)

(** Group-commit experiment result. *)
type gc_result = {
  gc_transactions : int;  (** transactions that completed *)
  gc_force_requests : int;  (** logical forced writes issued (3 per txn) *)
  gc_force_ios : int;       (** physical force I/Os after batching *)
  gc_saved_ios : int;
  gc_paper_saving : float;  (** the paper's [3n/2m] estimate, for reference *)
  gc_mean_commit_latency : float;
      (** group commit's cost: commits wait for their batch (Table 1) *)
}

val run_group_commit :
  ?timeout:float -> n:int -> group_size:int -> unit -> gc_result
(** [n] concurrent two-member transactions whose coordinator sides share
    one log and whose subordinate sides share another ("only one member of
    each transaction resides at each node"), with the log manager batching
    force requests up to [group_size] or until [timeout] (default 5.0)
    elapses.  Transactions start 0.1 apart. *)
