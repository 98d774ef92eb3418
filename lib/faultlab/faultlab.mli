(** Deterministic chaos engine for the concurrent 2PC mixer.

    A {e fault plan} is a list of timed events - crashes with optional
    restarts, partitions with optional heals, nth-message drops and
    per-link delay jitter - compiled from a seed and executed against a
    live {!Tpc.Mixer.run_full} on the same virtual clock as the workload.
    Everything is deterministic: the same seed and plan replay the same
    interleaving bit for bit, which is what makes the {!shrink}er's
    minimized repros and the CI smoke sweep meaningful.

    The acceptance check ({!audit}) is fault-aware: it demands atomicity
    (committed everywhere / aborted nowhere, with members excused only
    while down or legitimately in doubt), agreement (no transaction with
    both durable commit and abort evidence), recovery faithful to the log
    (each up member's store equals a pure replay of its records), no
    leaked locks and engine quiescence. *)

(** {2 Fault plans} *)

(** What a forged message claims to be. *)
type forge_kind = Forge_prepare | Forge_commit | Forge_abort

type event =
  | Crash of { at : float; node : string; restart_after : float option }
      (** crash [node] at [at]; restart (with full recovery) after
          [restart_after] if given, else stay down forever.  The event
          acts on [node]'s failure domain: every member on its physical
          log (see {!inject}) *)
  | Partition of {
      at : float;
      a : string;
      b : string;
      heal_after : float option;
    }
  | Drop of { at : float; src : string; dst : string; nth : int }
      (** lose the [nth] message (1-based, counted from [at]) on the
          [src -> dst] link *)
  | Jitter of { at : float; src : string; dst : string; amp : float }
      (** from [at] on, add uniform [0, amp) delay jitter to the link *)
  | Equivocate of { at : float; node : string; count : int }
      (** from [at] on, the next [count] decision payloads [node] sends
          have their outcome flipped in flight: different members hear
          different decisions from the same coordinator *)
  | Flip_vote of { at : float; src : string; dst : string; nth : int }
      (** flip the [nth] vote payload (1-based, counted from [at]) on the
          [src -> dst] link: YES becomes NO, NO becomes a plain YES *)
  | Forge of { at : float; src : string; dst : string; kind : forge_kind }
      (** at [at], [dst] receives a fabricated message claiming to be from
          [src]: a prepare for a ghost transaction ([Forge_prepare]), or a
          decision targeting whatever [dst] is currently blocked on (a
          ghost transaction if nothing is in doubt) *)
  | Force_heuristic of { at : float; node : string; action : Tpc.Types.outcome }
      (** at [at], every transaction in doubt at [node] is resolved
          heuristically as [action], as if an impatient operator overrode
          the protocol *)
  | Replay of { at : float; src : string; dst : string; count : int }
      (** at [at], re-deliver the last bundle that genuinely crossed the
          [src -> dst] link, [count] times - stale duplicated history, not
          forged content ([forge@] fabricates payloads that never existed).
          A no-op if the link has carried nothing yet. *)
  | Corrupt_replica of { at : float; replica : int }
      (** from [at] on, the adversary holds the signing key of BFT
          coordinator replica [replica]; with f+1 distinct corrupted
          replicas it can mint valid decision certificates, below that
          threshold its forgeries and equivocations stay uncertifiable *)

type plan = event list

val is_adversarial_event : event -> bool

val is_adversarial : plan -> bool
(** True iff the plan contains at least one adversarial event
    (equivocation, vote flip, forgery, forced heuristic, replay or replica
    corruption); such plans get the damage-accounting audit instead of the
    benign pass/fail check. *)

val corrupted_replicas : plan -> int
(** Distinct BFT coordinator replicas the plan corrupts; the chaos gate
    compares this against the configured [f] ("corrupted <= f implies zero
    atomicity violations"). *)

val to_string : plan -> string
(** Each event in a compact one-token form, joined with [","]; the empty
    plan is [""].  The forms are [crash@T:node:+D] (or [:-] for no
    restart), [part@T:a|b:+D] (or [:-]), [drop@T:src>dst:n],
    [jit@T:src>dst:amp], [equiv@T:node:k], [flip@T:src>dst:n],
    [forge@T:src>dst:kind] (kind one of [prepare]/[commit]/[abort]),
    [heur@T:node:commit|abort], [replay@T:src>dst:k] and
    [corrupt@T:idx:-]. *)

val of_string : string -> plan
(** Inverse of {!to_string}.  Raises [Invalid_argument] on malformed
    input.  Round-trips exactly: generated times are quantized so the
    printed form replays the identical schedule. *)

(** {2 Seeded generation} *)

type gen_cfg = {
  crashes : int;
  partitions : int;
  drops : int;
  jitters : int;
  horizon : float;  (** events are drawn uniformly over [0, horizon) *)
  restart_prob : float;  (** P(a crash restarts / a partition heals) *)
  mean_downtime : float;  (** mean restart delay (exponential) *)
  mean_partition : float;  (** mean heal delay (exponential) *)
  jitter_amp : float;  (** max per-link jitter amplitude *)
  equivocations : int;  (** adversarial counts; all zero in [default_gen] *)
  vote_flips : int;
  forgeries : int;
  forced_heuristics : int;
  replays : int;  (** second adversarial wave; zero in [default_gen] *)
  corruptions : int;
      (** distinct BFT replicas to corrupt, capped at [corrupt_domain] *)
  corrupt_domain : int;
      (** replica index space ([2f+1] for the target tolerance [f]); 3 in
          [default_gen] *)
  gc_align : float option;
      (** when set, every adversarial event time is snapped to the nearest
          multiple of this group-commit flush window after all draws, so
          faults land exactly at the batched-force boundary.  Pure
          post-draw retiming: it consumes no RNG draws, so the un-aligned
          plan for the same seed is unchanged.  [None] in [default_gen]. *)
}

val default_gen : gen_cfg

val gen : seed:int -> nodes:string list -> gen_cfg -> plan
(** Compile a fault plan from [seed], sorted by time.  Partition, drop,
    jitter, vote-flip, forgery and replay events need at least two nodes
    and are skipped otherwise.  Adversarial draws come strictly after
    every benign draw (and the replay/corruption wave strictly after the
    first adversarial wave), so with the adversarial counts at zero the
    generated plan is byte-identical to the pre-adversary generator's for
    the same seed.  Raises [Invalid_argument] on an empty node list, a
    horizon that is negative, nan or inf, or a negative event count. *)

val tree_nodes : Tpc.Types.tree -> string list
(** Member names of a commit tree, root first - the node universe for
    {!gen}. *)

(** {2 Execution} *)

val inject :
  ?broken_recovery:bool -> ?jitter_seed:int -> plan -> Tpc.Run.world -> unit
(** Schedule every event of the plan onto the world's engine; pass as the
    [?inject] argument of {!Tpc.Mixer.run_full}.  Crash/restart events are
    guarded (a down node is not re-crashed, an up node not re-restarted) so
    overlapping plans stay well-formed.  A crash acts on the crashed
    member's failure domain: every member that shares its write-ahead log
    (the shared-log optimization; otherwise the member alone), since
    members on one physical log are one system, the colocated resource
    manager the log belongs to.  The crash takes down, in tree order, each
    of them that is up, and its restart brings back exactly those, in the
    same order ({!Tpc.Participant.crash_domain}).  [broken_recovery] makes
    every restart amnesiac - the deliberately broken recovery the audit
    must catch.  Jitter draws come from a dedicated {!Simkernel.Det_rng}
    seeded with [jitter_seed] (default fixed), so identical plans replay
    identical delays. *)

(** {2 Fault-aware acceptance check} *)

type verdict = {
  v_committed_missing : int;
      (** committed txn absent at an up, not-in-doubt updated member *)
  v_aborted_applied : int;  (** aborted/undecided txn durably applied *)
  v_bad_value : int;  (** committed binding not owned by a committed writer *)
  v_divergence : int;
      (** txns with both durable commit and abort evidence *)
  v_wal_divergence : int;
      (** up members whose store differs from a pure replay of their log *)
  v_leaked_locks : int;
      (** grants at up members held by txns no longer blocked there *)
  v_engine_pending : int;  (** events still queued after quiescence *)
  v_unresolved : int;  (** informational: txn states short of END at up members *)
  v_in_doubt : int;  (** informational: blocked txn/member pairs *)
}

val audit : Tpc.Run.world -> Tpc.Mixer.txn_summary list -> verdict
(** The verdict of one {!Tpc.Mixer.Audit.scan} of the world's logs. *)

val ok : verdict -> bool
(** True iff every violation counter (everything except the two
    informational fields) is zero. *)

val verdict_fields : verdict -> (string * int) list
(** Field-name/value pairs, declaration order - for JSON emission. *)

val run_case :
  ?config:Tpc.Types.config ->
  ?broken_recovery:bool ->
  ?jitter_seed:int ->
  Tpc.Mixer.cfg ->
  Tpc.Types.tree ->
  plan ->
  Tpc.Metrics.Agg.t * verdict
(** Build the world, inject the plan, run to quiescence, audit. *)

val run_case_full :
  ?config:Tpc.Types.config ->
  ?broken_recovery:bool ->
  ?jitter_seed:int ->
  ?scratch:Simkernel.Engine.t ->
  Tpc.Mixer.cfg ->
  Tpc.Types.tree ->
  plan ->
  Tpc.Metrics.Agg.t * verdict * Tpc.Run.world
(** {!run_case}, also exposing the quiesced world — the parallel driver
    reads its engine stats and folds its telemetry registry into a
    sweep-wide one.  [scratch] recycles an engine from a previous world
    (see {!Tpc.Run.setup}). *)

(** {2 Damage accounting (adversarial audit)} *)

type accounting = {
  a_atomicity : int;
      (** transactions where some node's strong (non-heuristic) durable
          outcome contradicts the decision the protocol really reached -
          two halves of the tree durably disagreeing, or an equivocation
          victim durably believing the flipped decision *)
  a_heur_reported : int;
      (** heuristic decisions that contradicted the real outcome and whose
          damage report reached an operator console - the damaged member's
          own (it records the mismatch the moment it detects it) or a
          coordinator's, via acks *)
  a_heur_silent : int;
      (** damaged heuristic decisions no console anywhere recorded, at an
          up member that resolved or forgot the transaction - the lost-
          report bug class, and the one count that must stay zero even
          under an adversary.  A damaged member still in doubt has not yet
          learned the real outcome (counted {!a_blocked}; its report is
          owed at resolution), and a down member reports at recovery - the
          same excuses the benign {!audit} grants. *)
  a_blocked : int;
      (** the verdict's [v_in_doubt]: txn/member pairs in doubt at up
          members (e.g. a PN member holding a forged ghost prepare) *)
  a_rejected : int;
      (** forged payloads refused by honest nodes' admissibility checks *)
}

val account : Tpc.Run.world -> Tpc.Mixer.txn_summary list -> accounting
(** Classify every divergence in the quiesced world, from the evidence of
    one {!Tpc.Mixer.Audit.scan} and the members' consoles
    ({!Tpc.Participant.damage_seen}).  Ground truth per transaction is the
    root's announced outcome when there is one, else non-heuristic durable
    evidence, else the outcome a member resolved its heuristic against (a
    presumed abort can leave no durable record, but its damage report
    names it); a transaction with none of these was never decided at all
    - a forged ghost - and a heuristic on it is not yet damage, its member
    counting as blocked instead.  RM evidence at a node that reached that
    state heuristically does not count as honest knowledge; a TM outcome
    record always does (a damaged node logs the outcome it was told when
    it learns it - under an equivocator that can be a lie, in which case
    the member's heuristic mismatch is invisible to every honest party and
    the divergence is classified as the atomicity violation it durably
    is, not as heuristic damage). *)

val accounting_fields : accounting -> (string * int) list
(** Field-name/value pairs, declaration order - for JSON emission. *)

val blocking_windows : string list
(** The blocking-window histogram names the participants stream under the
    ["blocking/"] registry prefix: [in_doubt] (time a member sat in the
    in-doubt phase), [blocked_lock] (in-doubt entry until its locks were
    released) and [heur_exposure] (a heuristic decision until the real
    outcome arrived). *)

val blocking_json : Obs.Registry.t -> Tpc.Json.t
(** Per-window [{"count"; "p50"; "p99"}] summaries read from a world (or
    merged) registry — the JSONL ["blocking"] block.  A window with no
    samples reports zeros, so the block's shape is schema-stable. *)

val adversarial_ok : verdict -> accounting -> bool
(** The pass criterion under an adversary: atomicity violations and
    reported heuristic damage are the measurement, not a failure; what
    must never happen is silent damage or a broken world (store/log
    divergence, leaked locks, a wedged engine). *)

val run_case_adversarial :
  ?config:Tpc.Types.config ->
  ?broken_recovery:bool ->
  ?jitter_seed:int ->
  ?scratch:Simkernel.Engine.t ->
  Tpc.Mixer.cfg ->
  Tpc.Types.tree ->
  plan ->
  Tpc.Metrics.Agg.t * verdict * accounting * Tpc.Run.world
(** {!run_case_full} plus the damage accounting. *)

(** {2 Schedule shrinking} *)

val shrink : check:(plan -> bool) -> plan -> plan
(** Greedy delta-debugging: repeatedly drop single events while [check]
    (does this plan still reproduce the violation?) holds, until no single
    removal reproduces.  Returns the input unchanged when [check] fails on
    it.  [check] is called O(n{^ 2}) times. *)
