(** Named registry of streaming histograms.

    One registry travels with one simulation world.  Lookups by name
    find-or-create, so no histogram needs prior declaration; listing
    returns name-sorted bindings so snapshots are deterministic. *)

type t

val create : unit -> t

(** {2 Recording} *)

val histogram : t -> ?buckets_per_decade:int -> string -> Histogram.t
(** Find-or-create the named histogram.  [buckets_per_decade] only
    applies when the lookup creates it. *)

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

val find_histogram : t -> string -> Histogram.t option

val histograms : t -> (string * Histogram.t) list
(** Name-sorted. *)

(** {2 Lifecycle} *)

val merge : into:t -> t -> unit
(** Histograms merge pointwise (per-worker registries folding into a
    global one). *)
