open Dynmos_sim

(** PPSFP: the parallel-pattern x parallel-fault kernel.

    Fault machines are simulated G at a time ("lanes") against each
    62-pattern word, with all mutable state in a flat (net x lane)
    Bigarray word matrix ({!Compiled.word_matrix}): one cube-cover
    decode per gate is amortized over the whole group and the lane loop
    is unit-stride.  Lanes are packed by activation: per pattern unit
    the kernel probes every live site's own faulty gate against the good
    machine (one scalar gate evaluation per site), packs only the
    activated sites, in gate order, into groups of G lanes, and sweeps
    each group's union fanout cone once ([`Cone]; [`Full] packs every
    live site and sweeps every gate), diffing each lane over the swept
    primary-output gates.  A site that is not activated in a unit costs
    one probe and no lane.  First detections are bit-identical to the
    bit-parallel engine (frozen fixtures and a QCheck differential pin
    this).  Nothing is allocated per unit or per group.

    The kernel is generic over the fault universe: a site is any
    (gate, faulty function) pair, so cell-level fault classes beyond
    stuck-ats plug in unchanged.  {!Faultsim.run_ppsfp} is the public
    wrapper over {!Campaign.run_patterns}. *)

type fsite = {
  sid : int;                (** dense site id (index into the driver's arrays) *)
  gate : int;               (** gate id of the fault site *)
  fn : Compiled.gate_fn;    (** compiled faulty function *)
}

val default_group : int
(** Default fault-group size (16). *)

val kernel :
  ?group:int ->
  ?trace_site:(sid:int -> start:int -> unit) ->
  algo:[ `Full | `Cone ] ->
  Compiled.t ->
  fsite array ->
  bool array array ->
  Kernel.t
(** Build the PPSFP kernel for {!Campaign.run_patterns}.  [sites] must
    be in ascending [sid] = non-decreasing gate order (the order
    {!Faultsim.universe} produces).  [group] is the lane count G of the
    word matrix (raises [Invalid_argument] when < 1): larger groups
    amortize the per-gate decode over more machines, but each group
    sweeps the union of its lanes' cones, so a wider group sweeps more
    gates per lane, and the matrix working set grows as G x n_nets
    words.  Retired sites (dropped or failed) are skipped by the probe
    and never re-simulated; [trace_site], called once per live site
    probed per pattern unit, is the test hook pinning that. *)
