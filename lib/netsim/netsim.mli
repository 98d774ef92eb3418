(** Virtual network for the discrete-event simulation.

    The network is functorized over the payload type so the protocol library
    defines its own message vocabulary.  A {e flow} in the paper's sense is
    one network message; a single flow may carry several piggybacked protocol
    payloads (implied acknowledgments, long-locks acknowledgments, chained
    next-transaction data), which is why [send] takes a payload {e list} and
    counts one flow.

    Delivery model: per ordered pair of nodes, messages are FIFO with a
    constant per-pair latency (default if unset).  Partitions are checked at
    send time (the sender's session breaks); a message in flight to a node
    that crashes before delivery is dropped at delivery time. *)

module Make (P : sig
  type t
end) : sig
  type t

  type handler = src:string -> P.t list -> unit

  val create : Simkernel.Engine.t -> ?default_latency:float -> unit -> t
  (** Default latency is [1.0] virtual seconds. *)

  val engine : t -> Simkernel.Engine.t

  val add_node : t -> string -> handler -> unit
  (** Register a node and its delivery handler.  Raises [Invalid_argument]
      on duplicate registration. *)

  val set_handler : t -> string -> handler -> unit
  (** Replace a node's handler (used when a node restarts with fresh state). *)

  val set_latency : t -> string -> string -> float -> unit
  (** Symmetric per-pair latency override.  Like every per-link setter
      below ({!partition}, {!heal}, {!drop_nth}), it needs both nodes
      registered and raises [Invalid_argument] otherwise: per-link state
      is keyed by node index. *)

  val latency : t -> string -> string -> float
  (** Effective base latency between two nodes: their override, else the
      default.  The default for a name that is not a registered node. *)

  val set_jitter : t -> (src:string -> dst:string -> float) option -> unit
  (** Install (or clear) a delay-jitter hook.  When set, the hook is called
      once per delivered message and its result (clamped at [0.0]) is added
      to the link's base latency.  A deterministic hook — e.g. one drawing
      from {!Simkernel.Det_rng} — keeps runs reproducible.  Note that
      variable jitter can reorder messages on a link, so the per-pair FIFO
      guarantee no longer holds while a jitter hook is installed. *)

  val set_mutator :
    t -> (src:string -> dst:string -> P.t list -> P.t list) option -> unit
  (** Install (or clear) a per-link message-mutation hook: the adversarial
      counterpart of {!set_jitter} and {!drop_nth}.  When set, every bundle
      that passes the drop check is handed to the hook before delivery is
      scheduled, and whatever the hook returns is what arrives.  The hook
      models a Byzantine relay (equivocating outcomes, flipped votes); the
      sender's own statistics and trace are untouched - it believes it sent
      the original bundle.  A pure, deterministic hook keeps runs
      reproducible.  [None] (the default) delivers bundles verbatim. *)

  val inject : t -> src:string -> dst:string -> P.t list -> unit
  (** Fabricate a delivery: [dst] receives [payloads] after the link's base
      latency with [src] as the claimed sender, but no real send happened -
      the source's sent counter, the flow count and the drop/jitter
      bookkeeping are all bypassed.  Partitions do not block it (the forger
      sits on the wire, not at the source); a crashed destination still
      drops it at delivery time.  This is how faultlab forges stale or
      wrong-transaction prepare/decision retransmissions. *)

  val send : t -> src:string -> dst:string -> P.t list -> bool
  (** Send one message (one flow) carrying the given payload bundle.
      Returns [false] if the message was lost: source or destination crashed,
      or the pair partitioned, at send time.  Lost sends still count as flows
      only when they actually left the source (partitioned/crashed-source
      sends are not counted). *)

  val partition : t -> string -> string -> unit
  val heal : t -> string -> string -> unit
  val partitioned : t -> string -> string -> bool
  (** [false] when either name is not a registered node. *)

  val drop_nth : t -> src:string -> dst:string -> nth:int -> unit
  (** Lose the [nth] message (1-based, counted from now) sent from [src] to
      [dst]: it leaves the source (and is counted as a flow) but is never
      delivered.  Used to test retransmission and presumption logic under
      lossy links. *)

  val crash_node : t -> string -> unit
  (** Mark a node down: its in-flight inbound messages are dropped at
      delivery time; subsequent sends to or from it are lost. *)

  val restart_node : t -> string -> unit

  val is_up : t -> string -> bool

  (** {2 Statistics} *)

  val flows : t -> int
  (** Total messages that left a source since the last [reset_stats]. *)

  val sent_by : t -> string -> int
  val received_by : t -> string -> int
  val reset_stats : t -> unit
end
