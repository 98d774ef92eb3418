(* The obs library: streaming histograms, the metrics registry, spans --
   and the acceptance criterion tying them to the simulator: histogram
   quantiles track the exact Metrics.percentile within one bucket on a
   >= 10k-transaction mixer run, with memory independent of the
   transaction count. *)

module H = Obs.Histogram
module R = Obs.Registry

let check_float = Alcotest.(check (float 1e-9))

(* relative error tolerance from the acceptance criterion; the histogram's
   own bound at the default resolution is sqrt(gamma) - 1 ~ 4% *)
let tolerance = 0.10

let rel_err exact approx =
  if exact = 0.0 then Float.abs approx else Float.abs (approx -. exact) /. exact

let check_quantiles_against_exact ~msg samples h =
  let sorted = Tpc.Metrics.sorted_samples samples in
  List.iter
    (fun p ->
      let exact = Tpc.Metrics.percentile_of_sorted sorted p in
      let approx = H.quantile h p in
      if rel_err exact approx > tolerance then
        Alcotest.failf "%s: p%.0f exact %.6f vs histogram %.6f (err %.1f%%)"
          msg p exact approx
          (100.0 *. rel_err exact approx))
    [ 50.0; 90.0; 95.0; 99.0 ]

(* --- histogram ------------------------------------------------------- *)

let test_quantile_accuracy () =
  (* three deterministic streams with different shapes and dynamic ranges *)
  let streams =
    [
      ( "exponential",
        let rng = Simkernel.Det_rng.create ~seed:11 in
        List.init 20_000 (fun _ -> Simkernel.Det_rng.exponential rng ~mean:7.5)
      );
      ( "uniform",
        let rng = Simkernel.Det_rng.create ~seed:13 in
        List.init 20_000 (fun _ -> 0.5 +. Simkernel.Det_rng.float rng 99.5) );
      ( "heavy-tail",
        let rng = Simkernel.Det_rng.create ~seed:17 in
        List.init 20_000 (fun _ ->
            let u = Simkernel.Det_rng.float rng 1.0 in
            0.1 /. (1.0 -. (0.999 *. u))) );
    ]
  in
  List.iter
    (fun (msg, samples) ->
      let h = H.create () in
      List.iter (H.record h) samples;
      check_quantiles_against_exact ~msg samples h)
    streams

let test_exact_side_stats () =
  let h = H.create () in
  List.iter (H.record h) [ 3.0; 1.0; 4.0; 1.5; 9.0 ];
  Alcotest.(check int) "count" 5 (H.count h);
  check_float "sum" 18.5 (H.sum h);
  check_float "mean" 3.7 (H.mean h);
  check_float "min exact" 1.0 (H.min_value h);
  check_float "max exact" 9.0 (H.max_value h)

let test_single_value_clamps () =
  let h = H.create () in
  for _ = 1 to 100 do
    H.record h 5.5
  done;
  (* clamping to the observed min/max makes a constant stream exact *)
  List.iter
    (fun p -> check_float (Printf.sprintf "p%.0f" p) 5.5 (H.quantile h p))
    [ 0.0; 50.0; 99.0; 100.0 ]

let test_empty_and_nan () =
  let h = H.create () in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (H.quantile h 50.0));
  H.record h Float.nan;
  Alcotest.(check int) "nan ignored" 0 (H.count h)

let test_low_bucket () =
  let h = H.create () in
  List.iter (H.record h) [ 0.0; -2.0; 0.0 ];
  Alcotest.(check int) "low values counted" 3 (H.count h);
  check_float "quantile reports the observed min" (-2.0) (H.quantile h 50.0)

let test_memory_independent_of_samples () =
  let record_n n =
    let rng = Simkernel.Det_rng.create ~seed:23 in
    let h = H.create () in
    for _ = 1 to n do
      H.record h (Simkernel.Det_rng.exponential rng ~mean:42.0)
    done;
    h
  in
  let small = record_n 1_000 and big = record_n 100_000 in
  (* memory is bounded by the data's dynamic range (resolution * decades
     spanned), never by the sample count *)
  let range_bound h =
    let decades = Float.log10 (H.max_value h /. H.min_value h) in
    int_of_float (ceil (float_of_int (H.resolution h) *. decades)) + 2
  in
  Alcotest.(check bool) "within the dynamic-range bound" true
    (H.bucket_count small <= range_bound small
    && H.bucket_count big <= range_bound big);
  Alcotest.(check bool) "footprint does not scale with count" true
    (H.bucket_count big <= H.count big / 100
    && H.bucket_count big < 2 * H.bucket_count small)

let test_merge_matches_combined () =
  let rng = Simkernel.Det_rng.create ~seed:29 in
  let xs = List.init 5_000 (fun _ -> Simkernel.Det_rng.exponential rng ~mean:3.0) in
  let ys = List.init 5_000 (fun _ -> Simkernel.Det_rng.exponential rng ~mean:30.0) in
  let hx = H.create () and hy = H.create () and hboth = H.create () in
  List.iter (H.record hx) xs;
  List.iter (H.record hy) ys;
  List.iter (H.record hboth) (xs @ ys);
  H.merge ~into:hx hy;
  Alcotest.(check int) "merged count" (H.count hboth) (H.count hx);
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "merged p%.0f equals combined" p)
        (H.quantile hboth p) (H.quantile hx p))
    [ 50.0; 95.0; 99.0 ]

let test_empty_percentile_extremes () =
  let h = H.create () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "empty p%.0f is nan" p)
        true
        (Float.is_nan (H.quantile h p)))
    [ 0.0; 50.0; 99.0; 100.0 ];
  Alcotest.(check int) "empty count" 0 (H.count h);
  check_float "empty sum" 0.0 (H.sum h);
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (H.mean h))

let test_single_sample () =
  let h = H.create () in
  H.record h 7.25;
  Alcotest.(check int) "one sample" 1 (H.count h);
  check_float "mean is the sample" 7.25 (H.mean h);
  check_float "min is the sample" 7.25 (H.min_value h);
  check_float "max is the sample" 7.25 (H.max_value h);
  (* every quantile of a one-sample stream clamps to that sample *)
  List.iter
    (fun p ->
      check_float (Printf.sprintf "p%.0f is the sample" p) 7.25
        (H.quantile h p))
    [ 0.0; 1.0; 50.0; 99.0; 100.0 ]

let test_merge_associative () =
  let rng = Simkernel.Det_rng.create ~seed:31 in
  let stream n mean =
    List.init n (fun _ -> Simkernel.Det_rng.exponential rng ~mean)
  in
  let xs = stream 1_000 2.0
  and ys = stream 1_000 20.0
  and zs = stream 1_000 200.0 in
  let fill s =
    let h = H.create () in
    List.iter (H.record h) s;
    h
  in
  (* merge(a, merge(b, c)) *)
  let right = fill ys in
  H.merge ~into:right (fill zs);
  let a_bc = fill xs in
  H.merge ~into:a_bc right;
  (* merge(merge(a, b), c) *)
  let ab_c = fill xs in
  H.merge ~into:ab_c (fill ys);
  H.merge ~into:ab_c (fill zs);
  Alcotest.(check int) "counts agree" (H.count a_bc) (H.count ab_c);
  check_float "sums agree" (H.sum a_bc) (H.sum ab_c);
  check_float "mins agree" (H.min_value a_bc) (H.min_value ab_c);
  check_float "maxes agree" (H.max_value a_bc) (H.max_value ab_c);
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "p%.0f agrees either grouping" p)
        (H.quantile a_bc p) (H.quantile ab_c p))
    [ 0.0; 25.0; 50.0; 95.0; 99.0; 100.0 ]

let test_merge_resolution_mismatch () =
  let a = H.create ~buckets_per_decade:10 () in
  let b = H.create ~buckets_per_decade:30 () in
  Alcotest.check_raises "resolutions must match"
    (Invalid_argument "Histogram.merge: resolution mismatch") (fun () ->
      H.merge ~into:a b)

let test_summary () =
  let h = H.create () in
  List.iter (H.record h) [ 2.0; 2.0; 2.0; 2.0 ];
  let s = H.summary h in
  Alcotest.(check int) "count" 4 s.H.s_count;
  check_float "mean" 2.0 s.H.s_mean;
  check_float "p50" 2.0 s.H.s_p50;
  check_float "p99" 2.0 s.H.s_p99

(* --- array histogram vs its hash-table predecessor ------------------- *)

(* The hash-table histogram the array one replaced, kept as the oracle: a
   bucket index -> occupancy table, with quantiles over its sorted
   bindings. *)
module Reference = struct
  type t = {
    log_gamma : float;
    counts : (int, int) Hashtbl.t;
    mutable low : int;
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create ~buckets_per_decade =
    {
      log_gamma = log 10.0 /. float_of_int buckets_per_decade;
      counts = Hashtbl.create 64;
      low = 0;
      count = 0;
      sum = 0.0;
      min = infinity;
      max = neg_infinity;
    }

  let bump t i n =
    Hashtbl.replace t.counts i
      (n + Option.value ~default:0 (Hashtbl.find_opt t.counts i))

  let record t v =
    if not (Float.is_nan v) then begin
      t.count <- t.count + 1;
      t.sum <- t.sum +. v;
      if v < t.min then t.min <- v;
      if v > t.max then t.max <- v;
      if v <= 1e-9 then t.low <- t.low + 1
      else bump t (int_of_float (Float.floor (log v /. t.log_gamma))) 1
    end

  let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count
  let min_value t = if t.count = 0 then nan else t.min
  let max_value t = if t.count = 0 then nan else t.max
  let bucket_count t = Hashtbl.length t.counts + if t.low > 0 then 1 else 0

  let quantile t p =
    if t.count = 0 then nan
    else
      let rank =
        Stdlib.min t.count
          (Stdlib.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.count))))
      in
      if rank <= t.low then if t.min < 0.0 then t.min else 0.0
      else
        let sorted =
          List.sort compare (Hashtbl.fold (fun i n acc -> (i, n) :: acc) t.counts [])
        in
        let rec find seen = function
          | [] -> t.max
          | (i, n) :: rest ->
              if seen + n >= rank then exp ((float_of_int i +. 0.5) *. t.log_gamma)
              else find (seen + n) rest
        in
        Float.min (Float.max (find t.low sorted) t.min) t.max

  let merge ~into src =
    Hashtbl.iter (fun i n -> bump into i n) src.counts;
    into.low <- into.low + src.low;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    if src.min < into.min then into.min <- src.min;
    if src.max > into.max then into.max <- src.max

  let clear t =
    Hashtbl.reset t.counts;
    t.low <- 0;
    t.count <- 0;
    t.sum <- 0.0;
    t.min <- infinity;
    t.max <- neg_infinity
end

(* bit-identical, any NaN matching any NaN *)
let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let agrees h r =
  H.count h = r.Reference.count
  && same_float (H.sum h) r.Reference.sum
  && same_float (H.min_value h) (Reference.min_value r)
  && same_float (H.max_value h) (Reference.max_value r)
  && same_float (H.mean h) (Reference.mean r)
  && H.bucket_count h = Reference.bucket_count r
  && List.for_all
       (fun p -> same_float (H.quantile h p) (Reference.quantile r p))
       [ 0.0; 1.0; 50.0; 95.0; 99.0; 100.0 ]

(* zeros, negatives, NaN, repeats of one value, and magnitudes spread
   log-uniformly over 1e-6 .. 1e6 *)
let gen_sample =
  let open QCheck.Gen in
  frequency
    [
      (1, return 0.0);
      (1, map (fun e -> -.(10.0 ** e)) (float_range (-6.0) 6.0));
      (1, return Float.nan);
      (2, oneofl [ 0.5; 2.5; 4.5; 1e-6; 1e6 ]);
      (8, map (fun e -> 10.0 ** e) (float_range (-6.0) 6.0));
    ]

let arb_streams =
  QCheck.make
    ~print:(fun (bpd, xs, ys) ->
      let show l = String.concat ", " (List.map (Printf.sprintf "%h") l) in
      Printf.sprintf "resolution %d\na: [%s]\nb: [%s]" bpd (show xs) (show ys))
    QCheck.Gen.(
      triple (oneofl [ 1; 10; 30 ])
        (list_size (int_range 0 200) gen_sample)
        (list_size (int_range 0 200) gen_sample))

let prop_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"histogram agrees with the hash-table reference" arb_streams
    (fun (buckets_per_decade, xs, ys) ->
      let fill samples =
        let h = H.create ~buckets_per_decade ()
        and r = Reference.create ~buckets_per_decade in
        List.iter
          (fun v ->
            H.record h v;
            Reference.record r v)
          samples;
        (h, r)
      in
      let ha, ra = fill xs and hb, rb = fill ys in
      let recorded = agrees ha ra && agrees hb rb in
      H.merge ~into:ha hb;
      Reference.merge ~into:ra rb;
      let merged = agrees ha ra in
      H.clear ha;
      Reference.clear ra;
      let cleared = agrees ha ra in
      (* a cleared histogram records afresh *)
      List.iter
        (fun v ->
          H.record ha v;
          Reference.record ra v)
        ys;
      recorded && merged && cleared && agrees ha ra)

(* --- registry -------------------------------------------------------- *)

let test_registry_histograms () =
  let r = R.create () in
  H.record (R.histogram r "lat") 1.0;
  H.record (R.histogram r "lat") 2.0;
  let h = R.histogram r "lat" in
  Alcotest.(check int) "histogram find-or-creates" 2 (H.count h);
  Alcotest.(check bool) "find_histogram" true (R.find_histogram r "lat" <> None);
  Alcotest.(check bool) "unknown name" true (R.find_histogram r "x" = None);
  H.record (R.histogram r "b") 1.0;
  H.record (R.histogram r "a") 1.0;
  Alcotest.(check (list string)) "name-sorted listing" [ "a"; "b"; "lat" ]
    (List.map fst (R.histograms r))

let test_registry_merge () =
  let a = R.create () and b = R.create () in
  H.record (R.histogram a "h") 1.0;
  H.record (R.histogram b "h") 10.0;
  H.record (R.histogram b "only-b") 3.0;
  R.merge ~into:a b;
  Alcotest.(check int) "histograms merge" 2 (H.count (R.histogram a "h"));
  Alcotest.(check (list string)) "missing names are created" [ "h"; "only-b" ]
    (List.map fst (R.histograms a))

(* --- span ------------------------------------------------------------ *)

let test_span_clamps () =
  let s = Obs.Span.make ~node:"n" ~start:4.0 ~stop:3.0 "x" in
  check_float "negative duration clamps to zero" 0.0 s.Obs.Span.sp_dur;
  check_float "stop" 4.0 (Obs.Span.stop s)

(* --- acceptance: histogram vs exact on a 10k-transaction mixer run --- *)

(* Uncontended baseline mix: every transaction's 2PC is identical, so the
   per-commit multiset of voting-phase residencies is known exactly from
   the default timeline (latency 1.0, io 0.5): the coordinator sits in
   voting from Prepare send (0.0) to decision (2.5); each of the two
   subordinates from Prepare delivery (1.0) to Vote send (1.5). *)
let mixer_cfg txns =
  {
    Tpc.Mixer.default_cfg with
    txns;
    concurrency = 1;
    keyspace = 64;
    seed = 7;
  }

let run_mixer txns =
  let tree = Workload.mixer_tree ~n:3 ~opts:[] () in
  Tpc.Mixer.run (mixer_cfg txns) tree

let test_mixer_histogram_matches_exact () =
  let agg, w = run_mixer 10_000 in
  Alcotest.(check int) "all 10k committed" 10_000 agg.Tpc.Metrics.Agg.committed;
  let h =
    match R.find_histogram w.Tpc.Run.registry "phase/voting" with
    | Some h -> h
    | None -> Alcotest.fail "no phase/voting histogram"
  in
  Alcotest.(check int) "one sample per member per transaction" 30_000
    (H.count h);
  let exact_per_commit = [ 2.5; 0.5; 0.5 ] in
  let exact =
    List.concat_map (fun _ -> exact_per_commit) (List.init 10_000 Fun.id)
  in
  check_quantiles_against_exact ~msg:"mixer phase/voting" exact h;
  (* the aggregate's summaries come from the same histograms *)
  let s = List.assoc "voting" agg.Tpc.Metrics.Agg.phase_latency in
  Alcotest.(check int) "agg summary count" 30_000 s.H.s_count;
  check_float "agg summary p50" (H.quantile h 50.0) s.H.s_p50

let test_mixer_histogram_memory_bound () =
  let _, w1 = run_mixer 1_000 and _, w10 = run_mixer 10_000 in
  let buckets w name =
    match R.find_histogram w.Tpc.Run.registry name with
    | Some h -> H.bucket_count h
    | None -> Alcotest.failf "no %s histogram" name
  in
  List.iter
    (fun name ->
      let b1 = buckets w1 name and b10 = buckets w10 name in
      Alcotest.(check bool)
        (name ^ ": memory independent of transaction count")
        true
        (b10 <= b1 + 10 && b10 <= 150))
    [ "mixer/commit_latency"; "mixer/lock_hold"; "phase/voting" ]

let suite =
  [
    Alcotest.test_case "quantiles track exact percentiles" `Quick
      test_quantile_accuracy;
    Alcotest.test_case "exact side statistics" `Quick test_exact_side_stats;
    Alcotest.test_case "constant stream is exact" `Quick
      test_single_value_clamps;
    Alcotest.test_case "empty and NaN handling" `Quick test_empty_and_nan;
    Alcotest.test_case "low bucket" `Quick test_low_bucket;
    Alcotest.test_case "memory independent of sample count" `Quick
      test_memory_independent_of_samples;
    Alcotest.test_case "merge equals combined stream" `Quick
      test_merge_matches_combined;
    Alcotest.test_case "empty percentile extremes" `Quick
      test_empty_percentile_extremes;
    Alcotest.test_case "single sample" `Quick test_single_sample;
    Alcotest.test_case "merge is associative" `Quick test_merge_associative;
    Alcotest.test_case "merge rejects mixed resolutions" `Quick
      test_merge_resolution_mismatch;
    Alcotest.test_case "summary" `Quick test_summary;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "registry histograms" `Quick test_registry_histograms;
    Alcotest.test_case "registry merge" `Quick test_registry_merge;
    Alcotest.test_case "span clamps negative durations" `Quick
      test_span_clamps;
    Alcotest.test_case "10k-txn mixer: histogram vs exact percentile" `Slow
      test_mixer_histogram_matches_exact;
    Alcotest.test_case "10k-txn mixer: bounded histogram memory" `Slow
      test_mixer_histogram_memory_bound;
  ]
