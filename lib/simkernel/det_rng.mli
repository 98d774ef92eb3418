(** Deterministic pseudo-random number generator (splitmix64).

    The simulation never consults the global [Random] state so that the same
    seed always yields the same run regardless of library initialization
    order. *)

type t

val create : seed:int -> t

val split : t -> t
(** An independent stream derived from [t]; both streams stay deterministic. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound).  The result is boxed when
    it is returned across a module, so a hot loop uses {!below} or
    {!arrivals} instead. *)

val below : t -> float -> float -> int
(** [below t p q] draws [u = float t 1.0] and is [0] when [u < p], [1]
    when [u < q] and [2] otherwise: the compares a caller would make on
    the draw, without boxing it. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (for inter-arrival
    times in workload generators). *)

val arrivals : t -> mean:float -> float array -> unit
(** [arrivals t ~mean a] fills [a] with the times of a Poisson arrival
    process that starts at [0.]: [a.(0) = 0.] and each later element adds
    one {!exponential} draw to its predecessor.  It makes [Array.length a]
    draws, the last being the gap after the final arrival, so [t] moves
    on exactly as that many {!exponential} calls would move it.  Nothing
    is boxed. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
