(** Named metrics registry: counters, gauges and streaming histograms.

    One registry travels with one simulation world.  All recording
    operations find-or-create, so no metric needs prior declaration;
    listing operations return name-sorted bindings so snapshots are
    deterministic. *)

type t

val create : unit -> t

(** {2 Recording} *)

val incr : t -> ?by:int -> string -> unit
(** Bump a counter ([by] defaults to 1). *)

val set_gauge : t -> string -> float -> unit

val max_gauge : t -> string -> float -> unit
(** Keep the maximum of the values seen (high-water marks). *)

val observe : t -> ?buckets_per_decade:int -> string -> float -> unit
(** Record one sample into the named {!Histogram}.  [buckets_per_decade]
    only applies when the observation creates the histogram. *)

val histogram : t -> ?buckets_per_decade:int -> string -> Histogram.t
(** Find-or-create the named histogram. *)

(** {2 Fixed histogram sets} *)

type handles
(** A fixed set of histogram names, each resolved in the attached registry
    on its first sample, so a name never observed never appears there. *)

val handles : string array -> handles
(** No registry attached yet: observing records nothing. *)

val attach : handles -> t -> unit
(** Record into [t] from now on. *)

val observe_at : handles -> int -> float -> unit
(** Record one sample into the histogram of the [i]-th name; allocates
    nothing once that histogram is resolved. *)

(** {2 Reading} *)

val counter_value : t -> string -> int
(** 0 for a counter never incremented. *)

val gauge_value : t -> string -> float option
val find_histogram : t -> string -> Histogram.t option

val counters : t -> (string * int) list
(** Name-sorted. *)

val gauges : t -> (string * float) list
val histograms : t -> (string * Histogram.t) list

(** {2 Lifecycle} *)

val merge : into:t -> t -> unit
(** Counters add, gauges keep the maximum, histograms merge pointwise
    (per-worker registries folding into a global one). *)

val clear : t -> unit
