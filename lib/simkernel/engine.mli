(** Deterministic discrete-event simulation engine.

    All components of the reproduction (network, write-ahead log, protocol
    participants) run on top of a single virtual clock owned by an engine.
    Events scheduled for the same instant fire in scheduling order, which
    makes every simulation run fully deterministic and allows the test suite
    to assert exact message and log-write counts.

    Internally events live in a flat slot arena (no per-event closure
    record for the hot classes) ordered by one of two agenda structures:
    a calendar-queue timing wheel (the default: O(1) schedule/cancel/pop
    at near-future horizons, sorted overflow for far-future events) or
    the original binary min-heap, retained as the differential-testing
    oracle.  Both enforce the identical (time, seq) total order, so the
    choice never changes a run's results — only its speed.
    See DESIGN.md §11 for the internals. *)

type t

(** A handle to a scheduled event, usable for cancellation.  Handles are
    unboxed ints (slot + generation stamp), so holding one allocates
    nothing and a handle that outlives its event safely cancels nothing. *)
type event

val no_event : event
(** A handle that names no event: cancelling it does nothing.  A filler
    for tables of handles. *)

val create : ?agenda:[ `Wheel | `Heap ] -> unit -> t
(** A fresh engine with the clock at [0.0] and an empty agenda.  [agenda]
    picks the ordering structure; the default is [`Wheel] unless the
    [TPC_AGENDA] environment variable says [heap]. *)

val reset : t -> unit
(** Return the engine to the fresh-create state — clock zero, empty
    agenda, no {!stream}, zeroed counters, no registered kinds, no
    interned names ({!ids}) — while keeping every internal array at its
    high-water capacity.  Lets a driver recycle one engine across many
    small simulation worlds without re-paying allocation warm-up; a world
    built on a reset engine is byte-identical to one built on a fresh
    engine.  Outstanding {!event} handles from before the reset are
    defused (cancelling them is a no-op).  Its cost is one pass over the
    arena's freelist links plus a write per slot still on the agenda and
    per occupied wheel bucket: a free slot's handles went stale when it
    was freed, so it is not rewritten. *)

val now : t -> float
(** Current virtual time. *)

val ids : t -> Ids.t
(** The world's name interner.  The engine is the one per-world object
    every layer holds, so the lock manager, the stores, the participants
    and the workload driver all draw transaction ids from this one table
    and key their per-transaction state by them.  {!reset} clears it. *)

val schedule : t -> delay:float -> (unit -> unit) -> event
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay] must be
    non-negative; same-time events run in FIFO scheduling order. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event
(** Absolute-time variant of {!schedule}.  [time] must not be in the past. *)

val cancel : t -> event -> unit
(** Cancel a pending event: it leaves the agenda and its arena slot is
    freed at once, on either agenda, so the order of the other events is
    untouched and a cancelled timer holds no memory until its time.
    Cancelling an already-fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of events on the agenda, counting the elements of a {!stream}
    that wait their turn. *)

val run : t -> unit
(** Run events in time order until the agenda is empty. *)

val run_until : t -> float -> unit
(** [run_until t horizon] runs events with timestamp [<= horizon], then
    advances the clock to [horizon] (if it is ahead of the last event). *)

val step : t -> bool
(** Fire the next event: answers [true] after firing exactly one, and
    [false], firing nothing, exactly when nothing is {!pending}. *)

(** {2 Flat events}

    The dominant event classes (network delivery, WAL I/O completion,
    protocol timers) schedule an int-coded kind plus three unboxed int
    argument slots instead of a closure.  A component registers its
    handler once per engine and passes the returned {!kind} at every
    schedule site; payloads that are not ints live in the component's own
    slot arenas, indexed by an argument slot.

    Scheduling and firing a flat event allocate nothing except a new
    clock box when time advances (the clock is kept boxed, so {!now}
    allocates nothing), plus the box a caller makes for a computed delay
    or time; a constant is preboxed.  Each {!run} or {!run_until} call
    allocates a few words of its own, and arena and agenda growth stops
    once the engine reaches its high-water mark. *)

type kind
(** An int-coded event class, valid for the engine that registered it
    (until the next {!reset}). *)

type handler = int -> int -> int -> (unit -> unit) -> unit
(** [handler a0 a1 a2 thunk] receives the three int argument slots; a
    flat event carries no closure, so [thunk] does nothing
    ({!Stdlib.ignore} it). *)

val register_kind : t -> name:string -> handler -> kind
(** Install a handler for a new event kind.  [name] is observational only
    (profiling output). *)

val kind_names : t -> string list
(** Names of the registered kinds, index order, "closure" first. *)

val schedule_flat : t -> delay:float -> kind:kind -> a0:int -> a1:int -> a2:int -> event
(** Allocation-free {!schedule}: at [now +. delay] the kind's handler runs
    with the given argument slots. *)

val schedule_flat_at : t -> time:float -> kind:kind -> a0:int -> a1:int -> a2:int -> event
(** Absolute-time variant of {!schedule_flat}. *)

val stream : t -> kind:kind -> float array -> unit
(** [stream t ~kind times] stands for the [Array.length times] flat events
    that [schedule_flat_at t ~time:times.(i) ~kind ~a0:i ~a1:0 ~a2:0] would
    make if called now for each [i] in order, such as a workload's
    arrivals.  Their firing order, {!pending} and every {!stats} counter
    are exactly those of scheduling them all now, on either agenda: each
    one's sequence number is reserved now, and the ones not yet on the
    agenda count as pending.  But only the next of them sits on the
    agenda: when it fires, the engine places its successor (copying its
    time from [times], so nothing is boxed) before the handler runs.  The
    agenda and the arena therefore hold one event of the stream rather
    than all of them.

    [times] must not decrease, and its first element must not precede
    {!now}; a NaN anywhere is refused too.  The engine keeps [times] until
    it has placed the last element, then drops it, so the caller must not
    write to it meanwhile.  The events cannot be cancelled (no handle is
    returned).  One stream runs at a time: a second one while the first
    has elements left raises [Invalid_argument], as does a bad [times];
    an empty [times] does nothing.  {!reset} drops an unfinished stream. *)

(** {2 Profiling}

    Observational counters maintained by the engine itself; nothing in the
    simulation reads them back, so determinism is untouched. *)

type stats = {
  events_processed : int;  (** thunks actually fired *)
  events_scheduled : int;
      (** events scheduled by any call, each element of a {!stream}
          counted when the stream is created *)
  events_cancelled : int;  (** {!cancel} calls that hit a pending event *)
  max_queue_depth : int;
      (** high-water mark of {!pending} events.  A {!stream}'s elements
          not yet on the agenda count as pending, as its contract
          requires, so a run fed by one long stream reads about the
          stream's length here, not the agenda's own depth (which the
          arena's size, {!arena_capacity}, bounds). *)
  wall_seconds : float;
      (** host time spent inside {!run} and {!run_until} — the only
          non-virtual quantity in the simulator.  Measured on the
          monotonic clock (one timestamp pair per call), so it never
          jumps under NTP adjustment. *)
}

val stats : t -> stats

val agenda : t -> [ `Wheel | `Heap ]
(** Which agenda structure this engine runs on. *)

val agenda_name : t -> string
(** ["wheel"] or ["heap"], for profiling output. *)

val arena_capacity : t -> int
(** Current event-arena capacity in slots.  The arena holds pending events
    only: it starts small (64 slots), doubles when they outgrow it, and
    never shrinks ({!reset} keeps it). *)

exception Negative_delay of float
(** Raised by {!schedule} on a negative delay and by {!schedule_at} on a
    time before [now]. *)
