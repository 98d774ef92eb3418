(** Deterministic per-transaction causal event graph.

    Every interesting step of a distributed commit — a log force
    completing, a message send and its delivery, a lock grant, a vote, a
    decision, a retransmission timer firing — becomes a node tagged with
    the transaction, the acting member, the virtual time, and the
    {e wait class} ({!seg}) of the interval that ended at it.  Edges are
    cause candidates: the previous event of the same [(txn, who)] process
    chain, the matching send for a delivery, and any explicit cross-chain
    link the recorder was given.

    On top of the graph, {!critical_path} extracts the binding causal
    chain from the transaction's arrival to its terminal event — at every
    node it walks back through the cause that finished {e last}, i.e. the
    dependency actually waited for — and {!path_segments} buckets the
    chain's hop durations into log-wait / msg-wait / lock-wait /
    in-doubt / compute.  Because consecutive hops share their endpoints,
    the bucketed durations telescope: their sum is exactly the terminal
    time minus the arrival time, which is what lets a test assert that
    the attribution accounts for every unit of end-to-end latency.

    With the mode [Off] (the default) every recording entry point is an
    O(1) no-op that allocates nothing: harnesses that only need aggregate
    counters (chaos, sweeps) pay nothing and stay byte-identical.  The
    recorder is pure observation — nothing in the simulation ever reads
    the graph back.

    {b Cost.}  The graph is a view of the world's {!Events} log: a node
    is a graph row, 28 bytes in the log's chunks, and most rows are
    shared with the event trace (a send, a delivery, a log write, a
    decision, a completion, a lock release).  The participants write
    rows by id and code ({!Events.emit}).  A delivery, and a send by a
    member holding no state for its transaction, looks the transaction's
    id up by name in the engine's table first, as the mixer does for its
    rows; the mixer also stores each lock grant's key.
    Recording builds no label and links nothing: a row keeps no cause.
    A query works the causes of one transaction out from its rows in
    one pass over the log, replaying the chains and matching each
    delivery to its send as described below, and builds the {!node}
    records and their text.  The string entry points ({!record},
    {!send}, {!deliver}) intern the transaction, the members and the
    label, then write the same rows. *)

(** Wait class of the interval that ended at an event. *)
type seg =
  | Compute  (** same-instant protocol step *)
  | Log_wait  (** a forced log write's I/O completed *)
  | Msg_wait  (** a message arrived over the network *)
  | Lock_wait  (** a queued lock was granted *)
  | In_doubt  (** a blocked-window timer fired (retransmit, inquiry, heuristic) *)

val seg_name : seg -> string

type mode = Off | Graph

type node = {
  cn_id : int;  (** assigned in record order; deterministic *)
  cn_txn : string;
  cn_who : string;  (** acting member (or the client chain's node) *)
  cn_time : float;  (** virtual sim-time *)
  cn_seg : seg;
  cn_label : string;
  cn_causes : int list;  (** candidate causes; binding one picked per path *)
}

type t = Events.t
(** The graph view of an event log; a world's is its trace's log. *)

val create : ?mode:mode -> unit -> t
(** A fresh recorder on a log of its own; [mode] defaults to [Off]. *)

val mode : t -> mode

val set_mode : t -> mode -> unit
(** [Graph] makes rows written from now on join the graph. *)

val enabled : t -> bool
(** [true] unless the mode is [Off]; callers may use it to skip building
    labels for events that would be dropped anyway. *)

val record :
  ?terminal:bool ->
  ?link_from:string ->
  t ->
  txn:string ->
  who:string ->
  time:float ->
  seg:seg ->
  string ->
  unit
(** [record t ~txn ~who ~time ~seg label] appends an event to the
    [(txn, who)] process chain, caused by the chain's previous event (if
    any).  [link_from] adds the last event of [(txn, link_from)] as a
    second cause candidate — the cross-chain edge for work triggered on
    another member without a message (e.g. an unsolicited-vote trigger).
    [terminal] marks the event as the transaction's end point for
    {!critical_path} (e.g. the application learning the outcome). *)

val send :
  t -> txn:string -> src:string -> dst:string -> time:float -> label:string -> unit
(** Record a message send on the [(txn, src)] chain and remember it as
    in-flight toward [dst] so the matching {!deliver} can take it as a
    cause. *)

val deliver :
  t -> txn:string -> src:string -> dst:string -> time:float -> label:string -> unit
(** Record a delivery on the [(txn, dst)] chain, caused by both the
    chain's previous event and the matching send.  The match is the
    {e newest} unmatched send of the same [(txn, src, dst, label)] not in
    the delivery's future: under retransmission the delivered copy is most
    plausibly the latest one.  A delivery with no recorded send (a forged
    message) simply gets no message edge. *)

val node_count : t -> int

val txn_nodes : t -> txn:string -> node list
(** All events of one transaction, in (time, id) order — the narrative. *)

(** One step of a critical path: the node and the duration of the interval
    between its binding cause and itself (0 for the chain head). *)
type hop = { h_node : node; h_dt : float }

val critical_path : t -> txn:string -> hop list option
(** The binding causal chain ending at the transaction's terminal event
    (the explicitly-marked one, else the newest), oldest first.  [None]
    when the transaction recorded nothing. *)

(** Per-class totals of a path's hop durations. *)
type segments = {
  sg_log : float;
  sg_msg : float;
  sg_lock : float;
  sg_in_doubt : float;
  sg_compute : float;
}

val zero_segments : segments
val path_segments : hop list -> segments

val segments_total : segments -> float
(** Sum of all five buckets; equals [terminal time - head time] for a path
    returned by {!critical_path}. *)

val segments_list : segments -> (string * float) list
(** Stable (name, seconds) pairs for rendering, log-wait first. *)
