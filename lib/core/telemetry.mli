(** Span-based telemetry derived from the event trace.

    Turns a {!Trace.t} into (a) per-node 2PC phase spans with parent
    links mirroring the commit tree, exported as Chrome trace-event JSON
    that Perfetto / [chrome://tracing] open directly, and (b) structured
    JSONL event lines for offline analysis.

    Span derivation is anchor-based and total: any node that appears in
    the trace gets all five phase spans ([prepare], [voting],
    [decision], [phase-two], [ack]); phases the run skipped come out
    with zero duration.  The rows of the event log behind a trace
    ({!Trace.log}) carry a transaction id, but a {!Trace.event} still
    does not, and neither does the JSONL schema; so spans are
    meaningful for single-transaction runs (the [run] subcommand), and
    concurrent mixes get per-phase latencies from the registry
    histograms instead. *)

val phase_names : string list
(** The five span names, in protocol order:
    [["prepare"; "voting"; "decision"; "phase-two"; "ack"]]. *)

val spans : Trace.t -> tree:Types.tree -> Obs.Span.t list
(** All phase spans, nodes in depth-first tree order.  Each span's
    [sp_parent] is the node's parent in the commit tree (root: [None]). *)

val node_spans :
  ?parent:string -> Trace.event list -> string -> Obs.Span.t list option
(** Spans for a single node from a raw event list; [None] when the node
    never appears (e.g. left out of the commit). *)

val default_time_scale : float
(** Simulation-time units to Chrome-trace microseconds (1000.0: one sim
    unit renders as one millisecond). *)

val chrome_trace : ?time_scale:float -> Trace.t -> tree:Types.tree -> Json.t
(** Chrome trace-event JSON: [{"traceEvents": [...], "displayTimeUnit":
    "ms"}] with one "X" (complete) event per phase span, "M" metadata
    naming the process and one thread per node, and "i" instant events
    for decisions, completions, heuristics, crashes and restarts. *)

val event_to_json : Trace.event -> Json.t
(** One structured-event object.  Every object has ["type"] and ["time"];
    the rest is type-specific (see EXPERIMENTS.md for the full schema). *)

val events_to_jsonl : Trace.t -> string
(** The whole trace as JSONL: one {!event_to_json} line per event, oldest
    first, trailing newline ([""] for an empty trace). *)
