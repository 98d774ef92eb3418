(** Multicore experiment driver for the sweep and chaos subcommands.

    Each cell (one optimization-set × concurrency point, or one chaos
    seed) owns an independent simulation world — engine, RNG streams,
    trace, telemetry registry — so cells parallelize with no shared
    mutable state.  The driver fans cells out over domains with
    {!Parallel.map} and fans results in {e by index}, so everything it returns
    (JSON lines, verdicts, minimized repros, the merged registry) is
    byte-identical whatever [jobs] was.  Workers never print; rendering
    to channels is the caller's job, at fan-in.

    The [progress] callback is invoked as cells complete, serialized
    under an internal lock (safe to mutate caller state inside), but in
    {e completion} order, which under [jobs > 1] is not deterministic —
    it is for stderr progress reporting only. *)

(** {2 Throughput sweep} *)

type sweep_params = {
  sw_config : Tpc.Types.config;
      (** base config; each set's options are applied on top *)
  sw_sets : Tpc.Types.opt list list;
      (** cells are [sw_sets × sw_concurrencies], row-major *)
  sw_concurrencies : int list;
  sw_n : int;  (** members in each cell's mixer tree *)
  sw_mixer : Tpc.Mixer.cfg;  (** [concurrency] is overridden per cell *)
  sw_events : bool;
      (** keep full traces and render the per-cell event JSONL; [false]
          runs the cells in counter-only trace mode *)
  sw_blocking : bool;
      (** append the per-cell ["blocking"] window block
          ({!Faultlab.blocking_json}) to each JSON line; off by default so
          pre-existing sweep output stays byte-identical *)
}

type sweep_cell = {
  sc_label : string;
  sc_concurrency : int;
  sc_line : string;
      (** the cell's JSON line: metrics aggregate plus the deterministic
          engine-profile [meta] stanza *)
  sc_events : string;  (** per-cell event JSONL; [""] unless [sw_events] *)
  sc_stats : Simkernel.Engine.stats;
      (** includes the nondeterministic wall-clock profile, which is kept
          out of [sc_line] so output stays byte-identical across runs *)
}

val sweep_cells :
  ?progress:(string -> unit) ->
  jobs:int ->
  sweep_params ->
  sweep_cell list * Obs.Registry.t
(** Run every cell; cells in canonical (row-major, input) order, plus all
    per-cell telemetry registries folded into one with
    {!Obs.Registry.merge} in that same order. *)

(** {2 Chaos sweep} *)

type chaos_params = {
  ch_config : Tpc.Types.config;  (** fully built (protocol, retries, …) *)
  ch_tree : Tpc.Types.tree;
  ch_mixer : Tpc.Mixer.cfg;  (** [seed] is overridden per seed *)
  ch_seed0 : int;
  ch_seeds : int;
  ch_gen : Faultlab.gen_cfg;
  ch_plan : Faultlab.plan option;  (** replay this plan for every seed *)
  ch_broken : bool;  (** substitute the amnesiac restart (self-test) *)
  ch_shrink : bool;  (** shrink violating schedules *)
  ch_protocol_flag : string;  (** CLI spelling, for the replay hint *)
  ch_n : int;  (** CLI [-n], for the replay hint *)
  ch_adversary : bool;
      (** run the damage-accounting audit and emit its classification
          fields on every JSONL line; a seed then fails on
          {!Faultlab.adversarial_ok} (silent damage / broken world)
          instead of the benign {!Faultlab.ok}.  Forced on when [ch_plan]
          contains adversarial events, so pasted repros replay under the
          audit that produced them. *)
  ch_blocking : bool;
      (** append the per-seed ["blocking"] window block
          ({!Faultlab.blocking_json}) to each JSONL verdict line; off by
          default so pre-existing chaos output stays byte-identical *)
}

type chaos_cell = {
  cc_seed : int;
  cc_violated : bool;
  cc_line : string;  (** the seed's JSONL verdict *)
  cc_repro : string option;
      (** the stderr replay hint, when the violation was shrunk *)
  cc_stats : Simkernel.Engine.stats;
  cc_accounting : Faultlab.accounting option;
      (** the damage classification, in adversary mode only - the CLI
          folds these into the per-protocol verdict matrix *)
  cc_cert_refusals : int;
      (** decisions refused for certificate violations across the seed's
          nodes ({!Tpc.Participant.rejected_certs} summed); 0 under
          uncertified protocols *)
  cc_corrupted : int;
      (** distinct coordinator replicas the seed's plan corrupted - the
          adversary budget the sub-threshold guarantee is conditioned
          on *)
}

val chaos_cells :
  ?progress:(string -> unit) ->
  jobs:int ->
  chaos_params ->
  chaos_cell list * Obs.Registry.t
(** Run every seed; cells in seed order (canonical), registries merged in
    that order.  Chaos cells always run in counter-only trace mode:
    nothing reads the timeline, and dropping it measurably cheapens each
    of the hundreds of simulations a sweep performs. *)
