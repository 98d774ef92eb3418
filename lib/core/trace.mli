(** Event trace of a simulation run.

    The trace is the single source of truth for the quantities the paper
    tabulates: protocol message flows, log writes and forced log writes
    (transaction-manager records only, per the paper's counting convention),
    plus the timeline needed to render the figures as ASCII sequence
    diagrams.

    The event vocabulary stays public — consumers pattern-match on it — but
    the container is abstract.  It is the trace view of an
    {!Obs.Events} log, which the world's causal graph reads too: the
    participants write each event once, as a row of ids and codes, and
    {!events} turns the trace rows back into [event] values when a query
    reads them.

    {b Cost.}  With [keep_events:false] a trace is four counters and a
    log whose views are off: no row, no table, and the producers build
    nothing ({!keeps_events}).  With events kept, an event is one
    28-byte row in the log's 4,096-row chunks, written by the by-id
    producers below with no string built, no name hashed and nothing
    allocated; a bundle label is interned once per distinct bundle.
    {!record}, the string entry point, interns the event's names.  The
    queries below build the event list from the rows on each call:
    O(events). *)

type event =
  | Send of {
      time : float;
      src : string;
      dst : string;
      label : string;
      protocol : bool;
          (** false for application data (implied acks, next-transaction
              data): those messages are not 2PC flows *)
    }
  | Deliver of { time : float; src : string; dst : string; label : string }
  | Log_write of {
      time : float;
      node : string;
      kind : Wal.Log_record.kind;
      forced : bool;
      rm : bool;  (** resource-manager record (excluded from paper counts) *)
    }
  | Decide of { time : float; node : string; outcome : Types.outcome }
  | Complete of {
      time : float;
      node : string;
      outcome : Types.outcome;
      pending : bool;  (** wait-for-outcome: "outcome pending" indication *)
    }
  | Heuristic of { time : float; node : string; action : Types.outcome }
  | Damage_detected of {
      time : float;
      node : string;  (** damaged participant *)
      reported_to : string;  (** "" when the report is lost *)
    }
  | Locks_released of { time : float; node : string }
  | Crash of { time : float; node : string }
  | Restart of { time : float; node : string }
  | Note of { time : float; node : string; text : string }

type t

val create : ?keep_events:bool -> ?engine:Simkernel.Engine.t -> unit -> t
(** [keep_events] (default [true]): whether events are retained.  With
    [keep_events:false] only the O(1) aggregate counters ({!flows},
    {!data_flows}, {!tm_writes}, {!tm_forced_writes}) are maintained and
    {!events} stays empty — the mode for high-volume runs (sweeps, chaos)
    where no consumer ever reads the timeline.  A trace that participants
    write to needs their [engine]: its log takes the engine's clock and
    transaction ids. *)

val log : t -> Obs.Events.t
(** The log behind the trace; {!Obs.Causal} reads its graph rows. *)

val record : t -> event -> unit
(** Append [e] (its names interned) as a trace-only row. *)

val keeps_events : t -> bool
(** Whether {!record} retains events.  When it does not, a producer can
    skip building the event altogether: only [Send] and TM [Log_write]
    events move a counter, and {!count_send} / {!count_tm_write} move it
    directly. *)

val count_send : t -> protocol:bool -> unit
(** Count one message exactly as {!record} counts a [Send] with this
    [protocol] flag, without building or retaining the event. *)

val count_tm_write : t -> forced:bool -> unit
(** Count one transaction-manager log write exactly as {!record} counts a
    [Log_write] with [rm = false], without building or retaining it. *)

(** {2 Writing by id}

    The participants' producers.  Each writes one row of the log, in the
    trace and the graph as their modes say (a row without a transaction,
    [txn = -1], stays out of the graph), at the engine's time; member ids
    and label ids are the log's ({!Obs.Events.member},
    {!Obs.Events.coded_label}).  {!send} and {!log_write} also count, as
    {!count_send} and {!count_tm_write} do. *)

val send : t -> txn:int -> src:int -> dst:int -> label:int -> protocol:bool -> unit
val deliver : t -> txn:int -> src:int -> dst:int -> label:int -> unit

val log_write :
  t -> txn:int -> who:int -> Wal.Log_record.kind -> forced:bool -> shared:bool -> unit
(** A TM record; [shared]: appended to the parent's log. *)

val decide : t -> txn:int -> who:int -> Types.outcome -> adopted:bool -> unit
(** [adopted]: a delegator taking its last agent's outcome. *)

val complete : t -> txn:int -> who:int -> Types.outcome -> pending:bool -> unit
val heuristic : t -> txn:int -> who:int -> Types.outcome -> injected:bool -> unit
val locks_released : t -> txn:int -> who:int -> unit
val crash : t -> who:int -> unit
val restart : t -> who:int -> unit

val note : t -> who:int -> string -> unit
(** Stores the text ({!Obs.Events.text}). *)

val damage : t -> node:string -> reported_to:string -> unit
(** Interns the names; [reported_to = ""] when the report is lost. *)

val charge :
  t -> node:string -> flows:int -> forces:int -> Wal.Log_record.kind -> unit
(** Synthetic protocol cost: [flows] sends from [node] to its
    ["<node>!replica"] pseudo-endpoint and [forces] forced writes of the
    kind there, for machinery the simulation does not model as nodes
    (the BFT replica ensemble).  Counted like any send or write; rows
    without a transaction, so only the trace keeps them. *)

val events : t -> event list
(** Oldest first; [[]] when the trace was created with
    [keep_events:false]. *)

val clear : t -> unit
(** Starts the view afresh and resets every aggregate counter.  The
    log's rows stay: the causal graph still reads them. *)

val event_time : event -> float

(** {2 Paper-convention counting}

    {!flows}, {!data_flows}, {!tm_writes} and {!tm_forced_writes} are
    incremental counters — O(1), available in both trace modes.  The
    remaining counts scan the retained events and report 0/[None] under
    [keep_events:false]. *)

val flows : t -> int
(** Protocol message flows ([Send] with [protocol = true]). *)

val data_flows : t -> int
(** Application-data messages ([Send] with [protocol = false]). *)

val count_log_writes : ?include_rm:bool -> ?forced_only:bool -> t -> int
val tm_writes : t -> int
val tm_forced_writes : t -> int
val node_flows : t -> string -> int
val node_writes : ?forced_only:bool -> t -> string -> int
val heuristic_count : t -> int

val damage_reports : t -> (string * string) list
(** [(damaged node, reported to)] pairs, oldest first. *)

val matched_flows : t -> (int * string * string * string * float * float) list
(** Send/deliver pairs [(id, src, dst, label, sent, delivered)], oldest
    send first.  Each delivery is matched FIFO to the oldest unmatched
    send of its [(src, dst, label)] channel — the simulated network's
    per-link order — so dropped or still-in-flight sends never pair.
    Ids are deterministic (assigned in send order); they become Perfetto
    flow ids. *)

val completion_time : t -> string -> float option
val locks_released_time : t -> string -> float option

(** {2 Rendering} *)

val event_to_string : event -> string
val to_string : t -> string

val sequence_diagram : ?width:int -> t -> nodes:string list -> string
(** Render a message-sequence chart in the style of the paper's figures:
    one column per node (in [nodes] order), message arrows between columns,
    log forces marked beside the writing node. *)
