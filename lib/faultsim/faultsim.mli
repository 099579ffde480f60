open Dynmos_util
open Dynmos_core
open Dynmos_netlist
open Dynmos_sim

(** Fault simulation over netlists.

    The fault universe is the union over gates of the detectable function
    classes of each gate's fault library — valid precisely because the
    paper's model maps every physical fault of a dynamic gate to a
    combinational function.  Serial, bit-parallel (62 patterns/word) and
    deductive engines produce identical detection results (cross-checked
    in tests). *)

type site = {
  sid : int;                 (** dense site id *)
  gate : Netlist.gate;
  entry : Faultlib.entry;    (** the fault-equivalence class injected *)
  fn : Compiled.gate_fn;     (** compiled faulty function *)
}

type universe = {
  compiled : Compiled.t;
  sites : site array;
  libraries : (string * Faultlib.t) list;
}

val universe : ?electrical:Fault_map.electrical -> Netlist.t -> universe
(** Build the fault universe (one site per gate per detectable function
    class; libraries generated once per distinct cell). *)

val validate_universe : universe -> unit
(** Structural validation against the circuit: sids must be dense array
    indices, every site's gate id must exist in the compiled circuit, and
    no (gate, function class) pair may appear twice.  Raises
    [Invalid_argument] with a named description of the first violation.
    {!universe} and {!restrict_universe} validate their results; call
    this yourself when assembling or slicing a universe by hand. *)

val restrict_universe : universe -> gates:int list -> universe
(** The sub-universe containing only the fault sites of the listed gate
    ids, renumbered densely (every engine accepts the result unchanged).
    Raises [Invalid_argument] on out-of-range or duplicate gate ids. *)

val n_sites : universe -> int

val site_label : universe -> site -> string

type summary = Campaign.summary = {
  n_sites : int;
  n_patterns : int;
  first_detection : int option array;  (** per site: first detecting pattern *)
  outcome : Outcome.t;
      (** [Complete], or [Partial] with the stop cause (deadline /
          evaluation budget / interrupt) and any permanently-failed
          sites.  Detections gathered before a stop are always
          returned. *)
  patterns_done : int;
      (** patterns completed for every live site (pattern-sweep
          engines).  The site-sweep domains engine reports [n_patterns]
          when complete and [0] on a partial stop — its progress is
          [sites_done]. *)
  sites_done : int;
      (** sites whose result is final: everything except failed sites on
          a complete run; on a stopped run, the detected sites
          (pattern-sweep) or the fully-swept sites (domains engine,
          including checkpoint-preloaded ones). *)
}

val n_detected : summary -> int

val coverage : summary -> float
(** Detected fraction over the {e whole} universe — on a [Partial] run
    this is the conservative lower bound (unresolved sites count as
    undetected). *)

val coverage_of_done : summary -> float
(** Detected fraction over [sites_done] — the optimistic companion on
    partial runs; equals {!coverage} on complete, failure-free runs. *)

val undetected : universe -> summary -> site list

val coverage_curve : summary -> float array
(** [curve.(k)] = fraction of sites detected within the first [k]
    patterns (length [n_patterns + 1]). *)

val detects : universe -> site -> bool array -> bool
(** Does one pattern detect one site? *)

(** Every engine is a thin wrapper over the unified campaign driver
    ({!Campaign}): limits, checkpointing, obs accounting, fault dropping,
    supervision and the all-detected early exit are implemented exactly
    once there, so the six entry points cannot drift apart.

    Every engine takes an optional observability recorder [obs] (default
    disabled, one branch of overhead): when enabled it receives one
    ["faultsim.run"] event per run carrying the engine name, site and
    pattern counts, wall-clock time, the number of kernel evaluations
    performed ("evals") and the evaluations skipped by fault dropping or
    the all-detected early exit ("evals_saved").  Both counts follow one
    driver-level definition — {e one evaluation per live site per
    pattern unit} — so engines report identical totals on the same
    campaign (serial, deductive and concurrent sweep one pattern per
    unit; bit-parallel and the domains engine's bit-parallel inner
    kernel sweep one 62-pattern word per unit).  Gate-level work is
    reported separately: every engine carries "gate_evals" (gate or
    gate-function evaluations performed), and the injection engines add
    the gate evaluations the cone restriction avoided relative to
    whole-circuit sweeps ("gate_evals_saved") and the summed fanout-cone
    size over all sites ("cone_gates").  The recorder never changes
    results: with and without [obs], summaries are bit-identical
    (tested).

    Every engine takes [?algo]:

    - [`Cone] (default): for the injection engines ({!run_serial},
      {!run_parallel}, {!run_domain_parallel}), re-evaluate only the
      fault site's transitive fanout cone against the good-machine
      baseline ({!Compiled.eval_cone_into}), exiting immediately when
      the fault is not activated.  For the propagation engines
      ({!run_deductive}, {!run_concurrent}) — whose per-net propagation
      is already cone-local per site — skip every gate that lies in no
      live site's fanout cone (gates outside all injected cones on
      restricted universes, and, as dropping retires sites, growing
      regions of the circuit);
    - [`Full]: sweep every gate (the classical kernels).

    All combinations produce bit-identical [first_detection] (a fault
    can only influence its fanout cone); they differ only in work
    performed.

    {b Robustness} (see also {!Outcome}, {!Limits}, {!Checkpoint}):
    every engine takes [?deadline] (absolute epoch seconds),
    [?max_evals] (a gate-evaluation budget) and [?interrupt] (a polled
    cooperative stop flag).  A tripped limit stops the sweep cleanly at
    pattern-unit granularity and the summary's [outcome] records the
    cause; detections gathered so far are returned, never discarded, and
    {!coverage} is then the conservative lower bound.  Every engine also
    takes [?checkpoint] (build with {!checkpoint_ctl}): progress is
    persisted every interval and at return, and a controller carrying a
    validated resume state continues {e bit-identically} — each pattern
    is evaluated exactly once across the combined runs, in ascending
    order, so no first detection can move.

    The injection engines ({!run_serial}, {!run_parallel},
    {!run_domain_parallel}) additionally supervise per-site evaluation:
    a site whose faulty function raises is retried (bounded by
    [?max_attempts], default 3; the good-machine baseline is restored
    first) and, if it keeps raising, excluded and reported in the
    outcome's [failed_sites] — every other site's detections are
    identical to a clean run.  [?crash_hook] (default no-op, called with
    the site id before each evaluation) is the fault-injection point the
    supervision tests use.  The deductive and concurrent engines
    propagate all sites jointly through shared per-net lists, so a
    raising site cannot be isolated there; they support limits and
    checkpoints only.

    Every engine also takes [?on_progress] (default no-op), called after
    each completed unit of work — patterns for the pattern-sweep
    engines, sites for {!run_domain_parallel} — with the running
    detection count.  This is the streaming hook [dynmos serve] uses for
    partial-result responses; the callback must be cheap and must not
    raise (for the domains engine it runs under the pool's progress
    mutex, possibly from a worker domain). *)

val run_serial :
  ?drop:bool ->
  ?algo:[ `Full | `Cone ] ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?max_attempts:int ->
  ?backoff:Parallel_exec.Backoff.t ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary

val run_parallel :
  ?drop:bool ->
  ?algo:[ `Full | `Cone ] ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?max_attempts:int ->
  ?backoff:Parallel_exec.Backoff.t ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary

val run_deductive :
  ?drop:bool ->
  ?algo:[ `Full | `Cone ] ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary

val run_concurrent :
  ?drop:bool ->
  ?algo:[ `Full | `Cone ] ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary
(** Concurrent engine: per net, the list of diverged faulty machines with
    their explicit faulty values (the third classical simulator the paper
    names alongside parallel and deductive). *)

val run_ppsfp :
  ?drop:bool ->
  ?algo:[ `Full | `Cone ] ->
  ?group:int ->
  ?trace_site:(sid:int -> start:int -> unit) ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary
(** PPSFP engine: groups of [group] (default 16) fault machines
    simulated together against each 62-pattern word on a flat Bigarray
    (net x lane) word matrix — one cube decode per gate amortized over
    the whole group, unit-stride lane loops (see {!Ppsfp}).  Per word,
    every live site's own gate is probed against the good machine;
    [`Cone] packs only the activated sites into groups and sweeps each
    group's union fanout cone once, [`Full] packs every live site and
    sweeps every gate.  [first_detection] is bit-identical to
    {!run_parallel} for every [group], [algo] and [drop].  Retired
    sites are skipped by the probe, so they are never re-simulated
    ([trace_site] is the test hook observing which sites each unit
    probes).  Groups propagate jointly, so like the propagation engines
    this wrapper exposes no supervision knobs. *)

val run_domain_parallel :
  ?drop:bool ->
  ?inner:Parallel_exec.inner ->
  ?algo:[ `Full | `Cone ] ->
  ?num_domains:int ->
  ?min_work_per_domain:int ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?max_attempts:int ->
  ?backoff:Parallel_exec.Backoff.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary
(** Multicore engine: fault sites partitioned across OCaml 5 domains (a
    supervised work-stealing pool, see {!Parallel_exec.run_supervised}),
    each running the serial or bit-parallel kernel with private scratch
    state.  [first_detection] is bit-identical to {!run_serial} for
    every [num_domains], [inner], [algo] and [drop].  [num_domains]
    defaults to [Domain.recommended_domain_count ()] and is clamped to
    the number of sites and to the estimated work (one domain per
    [min_work_per_domain] gate-evaluations, see {!Parallel_exec.run});
    [inner] defaults to [Bit_parallel]; [algo] defaults to [`Cone].

    This engine sweeps sites, not patterns, so its checkpoints are
    site-mode (a done bitmap plus the done sites' detections) and cannot
    be exchanged with the pattern-sweep engines' — {!Checkpoint.Error}
    on a mode mismatch.  A failed [Domain.spawn] degrades gracefully to
    fewer domains (down to the calling one) with results unchanged. *)

val run_domain_parallel_stats :
  ?drop:bool ->
  ?inner:Parallel_exec.inner ->
  ?algo:[ `Full | `Cone ] ->
  ?num_domains:int ->
  ?min_work_per_domain:int ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?max_attempts:int ->
  ?backoff:Parallel_exec.Backoff.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary * Parallel_exec.stats
(** {!run_domain_parallel} plus the scheduling statistics (per-domain
    jobs/evals/busy/steal, spawn and join cost, effective domain
    count). *)

val random_patterns :
  ?weights:float array -> Prng.t -> n_inputs:int -> count:int -> bool array array
(** Weighted random patterns ([weights.(i)] = probability input [i] is 1;
    default uniform 0.5).  Raises [Invalid_argument] when [n_inputs] or
    [count] is negative, when [weights] has fewer than [n_inputs]
    entries, or when any weight is outside [0, 1]. *)

val max_exhaustive_inputs : int
(** Largest input count {!exhaustive_patterns} accepts (24: past that the
    table no longer fits in memory, and [1 lsl n] eventually overflows). *)

val exhaustive_patterns : int -> bool array array
(** All [2^n] patterns in row order.  Raises [Invalid_argument] when [n]
    is negative or exceeds {!max_exhaustive_inputs}. *)

(** {1 Checkpointing}

    Campaign digests pin a checkpoint file to the exact circuit, fault
    universe and pattern set that produced it; resuming against anything
    else is refused ({!Checkpoint.Error}).  The digests cover campaign
    identity only — engine choice, domain count and [drop] are free to
    differ between the producing and resuming runs (pattern-sweep
    checkpoints are interchangeable among serial / bit-parallel /
    deductive / concurrent; the domains engine uses site-mode
    checkpoints). *)

val circuit_digest : universe -> string
val universe_digest : universe -> string
val patterns_digest : bool array array -> string

val checkpoint_ctl :
  path:string ->
  interval:int ->
  ?resume:bool ->
  ?prng_state:string ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  universe ->
  bool array array ->
  Checkpoint.ctl
(** Build the checkpoint controller to pass as [?checkpoint] to any
    engine: computes the campaign digests and, when [resume] is true and
    [path] (or its [.bak] sibling) exists, loads and validates the saved
    state — falling back to the [.bak] when the primary is corrupt or
    missing, see {!Checkpoint.load_or_backup} (a {e missing} pair under
    [resume] is a fresh start, not an error — a campaign killed before
    its first tick left nothing behind).  Stale temp files from crashed
    writers are cleaned up on creation.  [interval] is in completed
    pattern-units (patterns for the pattern-sweep engines, sites for the
    domains engine).  [prng_state] (a {!Prng.save} token) is stored for
    diagnostics; resume regenerates patterns from the seed and validates
    them via the pattern digest.  [chaos] is threaded into every write
    (the [ckpt.write] / [ckpt.fsync] / [ckpt.rename] points). *)
