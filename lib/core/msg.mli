(** Wire protocol of the commit engine.

    One network message (one {e flow} in the paper's accounting) carries a
    list of payloads: piggybacking is how the implied-acknowledgment,
    long-locks and chained-transaction optimizations avoid flows. *)

(** A heuristic decision that turned out to contradict the real outcome,
    reported upward on the acknowledgment path. *)
type damage_report = {
  d_node : string;  (** where the heuristic decision was taken *)
  d_action : Types.outcome;  (** what it unilaterally did *)
  d_outcome : Types.outcome;  (** what the transaction actually decided *)
}

(** {2 BFT decision certificates}

    The BFT commit variant ({!Protocol_bft}) replicates the coordinator
    over 2f+1 replicas; a decision is only actionable when carried by a
    certificate of at least f+1 matching endorsements over the same vote
    set.  Signatures are simulated with a deterministic digest: honest
    nodes recompute and check them, and the chaos adversary can only
    produce them for replicas it has corrupted. *)

type endorsement = {
  e_replica : int;  (** replica index in [0, 2f] *)
  e_outcome : Types.outcome;
  e_votes : string;  (** digest of the vote set the replica endorsed *)
  e_sig : string;  (** simulated signature binding replica/txn/outcome/votes *)
}

type certificate = { c_endorsements : endorsement list }

val digest : string -> string
(** Deterministic 30-bit FNV-1a digest, hex-printed. *)

val endorse :
  replica:int -> txn:string -> outcome:Types.outcome -> votes:string ->
  endorsement
(** Build one replica's endorsement, correctly signed. *)

val certificate_valid :
  f:int -> txn:string -> outcome:Types.outcome -> certificate -> bool
(** True iff the certificate is not empty, every endorsement covers the
    first one's vote set, and at least f+1 distinct replicas each have an
    endorsement that counts: its replica is in [0, 2f], it names
    [outcome] and its signature recomputes for [txn].  Endorsements that
    do not count are ignored, however many there are.  It builds
    nothing. *)

val vote_tag : src:string -> txn:string -> Types.vote -> string
(** Simulated voter signature over (voter, txn, vote); lets a BFT
    coordinator detect votes flipped in flight. *)

val vote_tag_matches : src:string -> txn:string -> Types.vote -> string -> bool
(** [vote_tag_matches ~src ~txn vote tag] is [String.equal tag (vote_tag
    ~src ~txn vote)], building nothing. *)

type vote_scratch
(** A reusable vote set, kept sorted as members are added. *)

val vote_scratch : unit -> vote_scratch

val clear_votes : vote_scratch -> unit
(** Empty the set. *)

val add_vote : vote_scratch -> string -> Types.vote option -> unit
(** [add_vote s member vote] adds one member's vote ([None]: none
    arrived), growing the arrays only when the set outgrows them. *)

val scratch_digest : vote_scratch -> string
(** Canonical digest of the vote set a decision was taken over: what the
    replica ensemble endorses, and what ties every endorsement in one
    certificate to the same evidence.  Member order does not matter.  It
    builds only the digest. *)

val votes_digest : (string * Types.vote option) list -> string
(** {!scratch_digest} of the listed (member, vote) pairs, added to a
    fresh scratch. *)

val cert_size : certificate -> int
(** The length of the certificate's WAL payload encoding. *)

val write_cert : certificate -> Bytes.t -> unit
(** Write the WAL payload encoding into the first {!cert_size} bytes,
    which must exist. *)

val cert_to_string : certificate -> string
(** The WAL payload encoding as a string, a copy of what {!write_cert}
    writes; round-trips through {!cert_of_string}. *)

val cert_of_string : string -> certificate option
(** [None] on the empty string or any malformed input. *)

type payload =
  | Prepare of {
      txn : string;
      long_locks : bool;  (** coordinator requests deferred acknowledgment *)
      upward : bool;  (** to the sender's static parent, which it engaged *)
    }
  | Vote_msg of {
      txn : string;
      vote : Types.vote;
      delegation : bool;
          (** true on the coordinator's own YES sent to a last agent: the
              receiver now owns the commit decision *)
      unsolicited : bool;
      implied_ack : bool;
          (** the voter is a reliable resource whose acknowledgment will be
              implied rather than sent (Vote Reliable, Figure 8) *)
      tag : string;
          (** simulated voter signature ({!vote_tag}); [""] under the
              non-BFT protocols, which never check it *)
    }
  | Decision_msg of {
      txn : string;
      outcome : Types.outcome;
      cert : certificate option;
          (** BFT decision certificate; [None] under the paper's protocols *)
    }
  | Ack_msg of {
      txn : string;
      damage : damage_report list;
      pending : bool;  (** wait-for-outcome: subtree resolution in progress *)
    }
  | Data of { txn : string; info : string }
      (** application data; begins work at the receiver and serves as the
          implied acknowledgment for any outcome the receiver was awaiting *)
  | Inquiry of { txn : string }
      (** PA subordinate-initiated recovery: "what happened to [txn]?" *)
  | Inquiry_reply of {
      txn : string;
      outcome : Types.outcome option;
          (** [None] = no information (PA: presume abort) *)
      cert : certificate option;
          (** certificate backing a [Some] outcome under BFT *)
    }

val payload_txn : payload -> string
(** The transaction a payload belongs to. *)

val payload_label : payload -> string
(** Human-readable label, e.g. ["Prepare(long-locks)"], ["Vote YES"] - the
    vocabulary of traces and sequence diagrams. *)

val bundle_label : payload list -> string
(** Labels of a piggybacked bundle joined with [" + "]. *)

val bundle_code : payload list -> int
(** A code that determines {!bundle_label}: equal codes, equal labels.
    [-1] when a label carries free text (a damage count, data info) or
    the bundle has more than eight payloads.  Event logs key their label
    table by it ({!Obs.Events.coded_label}), so a label is built once per
    distinct bundle, not once per message. *)
