(** Log-bucketed streaming histogram with bounded memory.

    Samples stream in one at a time; memory is proportional to the
    {e occupied bucket range} of the data (the span from its lowest to its
    highest geometric bucket), never to the number of samples, and
    recording a sample inside that range allocates nothing.  Quantiles answer with the geometric midpoint of the
    nearest-rank bucket, so the relative error is bounded by
    [sqrt gamma - 1] where [gamma = 10^(1/buckets_per_decade)] — about 4%
    at the default resolution of 30 buckets per decade.

    The exact reference this approximates (and is tested against) is
    [Tpc.Metrics.percentile]. *)

type t

val create : ?buckets_per_decade:int -> unit -> t
(** Default resolution: 30 buckets per decade ([gamma] ≈ 1.08).
    @raise Invalid_argument if [buckets_per_decade < 1]. *)

val record : t -> float -> unit
(** Add one sample.  NaN is ignored; zeros and negatives land in a
    dedicated low bucket; [infinity] shares the top finite bucket. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** Exact (tracked outside the buckets); [nan] when empty. *)

val min_value : t -> float
(** Exact; [nan] when empty. *)

val max_value : t -> float
(** Exact; [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile t p] for [p] in percent ([0.] to [100.]), nearest-rank over
    the bucket occupancies; [nan] when empty.  Results are clamped to the
    observed [min]/[max]. *)

val bucket_count : t -> int
(** Occupied buckets, independent of {!count}.  The footprint is under
    four words per bucket of the range they span. *)

val gamma : t -> float
(** The bucket growth factor: one bucket spans [(x, gamma * x]]. *)

val resolution : t -> int
(** The [buckets_per_decade] the histogram was created with. *)

val merge : into:t -> t -> unit
(** Pointwise sum of occupancies.
    @raise Invalid_argument when resolutions differ. *)

val clear : t -> unit

(** Fixed summary for serialization. *)
type summary = {
  s_count : int;
  s_mean : float;
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
}

val summary : t -> summary
