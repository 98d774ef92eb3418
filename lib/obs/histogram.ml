(** Log-bucketed streaming histogram.

    Values are assigned to geometrically-spaced buckets: bucket [i] covers
    [(gamma^i, gamma^(i+1)]] with [gamma = 10^(1/buckets_per_decade)].
    Occupancies are counted in one int array spanning the occupied bucket
    range, so memory is proportional to that range — the dynamic range of
    the data — never to the number of recorded samples: a histogram over
    ten million commit latencies costs the same few hundred words as one
    over a thousand.  The exact side statistics live in a float array, so
    recording a sample allocates nothing once its bucket is in range.

    Quantile queries answer with the geometric midpoint of the bucket the
    nearest-rank sample falls in, so the relative error is bounded by
    [sqrt gamma - 1] (about 4% at the default resolution; the acceptance
    bound is one bucket, i.e. [gamma - 1] ≈ 8%). *)

type t = {
  buckets_per_decade : int;
  log_gamma : float;  (** log (10^(1/buckets_per_decade)) *)
  mutable counts : int array;  (** [counts.(j)]: occupancy of bucket [base + j] *)
  mutable base : int;
  mutable occupied : int;  (** nonzero entries of [counts] *)
  mutable low : int;  (** values <= low_cutoff (zeros, negatives) *)
  mutable count : int;
  stats : float array;  (** sum, min, max: unboxed, so updates allocate nothing *)
}

let sum_ = 0
let min_ = 1
let max_ = 2

(* Below this magnitude a sample lands in the dedicated low bucket: commit
   latencies of exactly zero (same-instant phases) are common and must not
   produce a bucket index of -infinity. *)
let low_cutoff = 1e-9

let create ?(buckets_per_decade = 30) () =
  if buckets_per_decade < 1 then
    invalid_arg "Histogram.create: buckets_per_decade must be positive";
  {
    buckets_per_decade;
    log_gamma = log 10.0 /. float_of_int buckets_per_decade;
    counts = [||];
    base = 0;
    occupied = 0;
    low = 0;
    count = 0;
    stats = [| 0.0; infinity; neg_infinity |];
  }

let gamma t = exp t.log_gamma
let resolution t = t.buckets_per_decade

(* +infinity shares the top finite bucket rather than indexing off the end *)
let bucket_index t v =
  int_of_float (Float.floor (log (Float.min v max_float) /. t.log_gamma))

(* geometric midpoint of bucket [i]: sqrt (gamma^i * gamma^(i+1)) *)
let bucket_mid t i = exp ((float_of_int i +. 0.5) *. t.log_gamma)

(* Widen [counts] to cover bucket [i].  A side that grows at least doubles
   the array, so a drifting range costs amortized O(1) per new bucket and
   the array stays under four times the occupied range. *)
let cover t i =
  let len = Array.length t.counts in
  if len = 0 then begin
    t.counts <- [| 0 |];
    t.base <- i
  end
  else if i < t.base || i >= t.base + len then begin
    let top = t.base + len - 1 in
    let lo = if i < t.base then Stdlib.min i (t.base - len) else t.base in
    let hi = if i > top then Stdlib.max i (top + len) else top in
    let counts = Array.make (hi - lo + 1) 0 in
    Array.blit t.counts 0 counts (t.base - lo) len;
    t.counts <- counts;
    t.base <- lo
  end

let add_to_bucket t i n =
  cover t i;
  let j = i - t.base in
  let c = t.counts.(j) in
  if c = 0 then t.occupied <- t.occupied + 1;
  t.counts.(j) <- c + n

let record t v =
  if Float.is_nan v then ()
  else begin
    t.count <- t.count + 1;
    let s = t.stats in
    s.(sum_) <- s.(sum_) +. v;
    if v < s.(min_) then s.(min_) <- v;
    if v > s.(max_) then s.(max_) <- v;
    if v <= low_cutoff then t.low <- t.low + 1
    else add_to_bucket t (bucket_index t v) 1
  end

let count t = t.count
let sum t = t.stats.(sum_)
let mean t = if t.count = 0 then nan else t.stats.(sum_) /. float_of_int t.count
let min_value t = if t.count = 0 then nan else t.stats.(min_)
let max_value t = if t.count = 0 then nan else t.stats.(max_)

let bucket_count t = t.occupied + if t.low > 0 then 1 else 0

(* Nearest-rank quantile over the bucket occupancies, mirroring the exact
   reference [Metrics.percentile]: rank = ceil (p/100 * n), 1-based. *)
let quantile t p =
  if t.count = 0 then nan
  else begin
    let lo = t.stats.(min_) and hi = t.stats.(max_) in
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      Stdlib.min t.count (Stdlib.max 1 r)
    in
    if rank <= t.low then (if lo < 0.0 then lo else 0.0)
    else begin
      (* buckets in ascending order until the rank is reached; falling off
         the end answers the maximum *)
      let rec scan j seen =
        if j = Array.length t.counts then hi
        else
          let seen = seen + t.counts.(j) in
          if seen >= rank then bucket_mid t (t.base + j) else scan (j + 1) seen
      in
      (* clamp to the observed range: the top bucket's midpoint can
         overshoot the true maximum *)
      Float.min (Float.max (scan 0 t.low) lo) hi
    end
  end

let merge ~into src =
  if into.buckets_per_decade <> src.buckets_per_decade then
    invalid_arg "Histogram.merge: resolution mismatch";
  Array.iteri
    (fun j n -> if n > 0 then add_to_bucket into (src.base + j) n)
    src.counts;
  into.low <- into.low + src.low;
  into.count <- into.count + src.count;
  let d = into.stats and s = src.stats in
  d.(sum_) <- d.(sum_) +. s.(sum_);
  if s.(min_) < d.(min_) then d.(min_) <- s.(min_);
  if s.(max_) > d.(max_) then d.(max_) <- s.(max_)

let clear t =
  t.counts <- [||];
  t.base <- 0;
  t.occupied <- 0;
  t.low <- 0;
  t.count <- 0;
  t.stats.(sum_) <- 0.0;
  t.stats.(min_) <- infinity;
  t.stats.(max_) <- neg_infinity

(** Fixed summary used by the sweep's JSON stanzas. *)
type summary = {
  s_count : int;
  s_mean : float;
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
}

let summary t =
  {
    s_count = t.count;
    s_mean = mean t;
    s_min = min_value t;
    s_max = max_value t;
    s_p50 = quantile t 50.0;
    s_p95 = quantile t 95.0;
    s_p99 = quantile t 99.0;
  }
