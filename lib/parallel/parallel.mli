(** Ordered one-shot fan-out/fan-in over domains.

    Built for the experiment runners: each work item owns an independent
    simulation world (engine, RNG streams, registry), so items never share
    mutable state and the only synchronization needed is handing out
    indices and collecting results.  Results are always delivered in input
    order, which is what makes [--jobs N] output byte-identical to
    [--jobs 1].

    Domain-safety invariant: the worker body must not touch module-level
    mutable state or shared channels.  The libraries under [lib/] keep all
    run state inside per-world values (audited: the cost_model/scenarios
    lookup tables are immutable lists built once at module initialization,
    in the main domain, before any domain is spawned — sharing them
    read-only across domains is safe).  Printing belongs to the caller, at
    fan-in. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the default for [--jobs]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element and returns the results
    in the order of [xs].  The calling domain works alongside
    [min jobs (List.length xs) - 1] spawned domains, all claiming indices
    from one atomic counter, and joins them before returning; [jobs <= 1]
    spawns nothing and runs every item in the caller.

    If one or more applications raise, the exception raised for the {e
    lowest} input index is re-raised in the caller (with its backtrace)
    once every item has run — deterministic regardless of scheduling. *)
