open Dynmos_sim
module Obs = Dynmos_obs.Obs

(* PPSFP: parallel-pattern x parallel-fault simulation.

   The bit-parallel engine packs 62 patterns into one machine word but
   still walks fault sites one at a time, re-entering the cube-decode
   loop per site per gate.  This kernel adds the second parallel axis: a
   *group* of G fault machines is simulated together against one pattern
   word, with all mutable state in a flat (net x lane) Bigarray word
   matrix (Compiled.word_matrix).  One cube-cover decode per gate is
   amortized over the whole group and the lane loop is unit-stride.

   Lanes are packed by *activation*, per pattern unit:

   1. evaluate the good machine into an ordinary scratch array;
   2. probe every live site's own faulty gate as a scalar against the
      good values (a machine's inputs at its own gate are upstream of
      the fault, hence good) — one gate evaluation per site, the same
      dominant saving the bit-parallel cone kernel gets per site;
   3. pack only the activated sites, in gate order, into groups of G
      lanes ([`Full] packs every live site) — a machine whose fault is
      not activated equals the good machine and cannot be detected in
      this unit, so no lane is spent on it;
   4. copy every net's good word into the matrix once, then per group
      stamp the union fanout cone ([`Full]: every gate), sweep the
      stamped gates in ascending (= topological) order with
      [Compiled.eval_fn_rows], substituting each machine's probed
      faulty word into its own lane at its own gate, diff each lane
      against the good machine over the swept primary-output gates (the
      lowest set bit of the masked diff is the first detecting pattern)
      and restore the swept rows to the good words for the next group.

   Correctness: every row outside the swept cone holds the good word, and
   machine l is evaluated with true gate functions everywhere except its
   own gate, so by induction over the topological order its lane equals
   the good machine outside the fanout cone of its fault and the
   whole-circuit faulty machine inside it.  The PO diff is therefore
   bit-identical to the bit-parallel engine's — the frozen fixtures and
   the QCheck differential pin this.

   Fault dropping needs no compaction step: the probe skips retired
   (dropped or failed) sites, so groups are re-formed from the live,
   activated set every unit at the cost of one pass over the sites.
   Nothing is allocated per unit or per group.  The kernel propagates
   each group jointly, so like the deductive/concurrent engines it
   exposes no per-site supervision. *)

type fsite = { sid : int; gate : int; fn : Compiled.gate_fn }

let word_bits = 62

let algo_name = function `Full -> "full" | `Cone -> "cone"

let default_group = 16

let kernel ?(group = default_group) ?trace_site ~algo compiled (sites : fsite array)
    (patterns : bool array array) =
  if group < 1 then
    invalid_arg (Fmt.str "Ppsfp.kernel: group size must be >= 1 (got %d)" group);
  let n = Array.length sites in
  let n_inputs = Compiled.n_inputs compiled in
  let n_nets = Compiled.n_nets compiled in
  let n_gates = Compiled.n_gates compiled in
  let cgates = Compiled.gates compiled in
  let total = Array.length patterns in
  let width = group in
  let full = algo = `Full in
  (* All buffers live for the whole campaign: the word matrix, the
     good-machine scratch, the packed PI words, the unit's packed site
     indices with their probed faulty words, per-lane diff words, the
     grouped-eval accumulator and the union-cone stamps (a fresh stamp
     value per group, so they are never cleared). *)
  let matrix = Compiled.make_word_matrix compiled ~width in
  let scratch = Compiled.make_scratch compiled in
  let words = Array.make n_inputs 0 in
  let packed = Array.make (max 1 n) 0 in
  let fw = Array.make (max 1 n) 0 in
  let diff = Array.make width 0 in
  let tmp = Array.make width 0 in
  let stamp = Array.make (max 1 n_gates) (-1) in
  let cur = ref 0 in
  (* Lanes are [packed.(first .. first + glen - 1)], non-decreasing gate. *)
  let sweep_group (ctx : Kernel.ctx) ~start ~mask ~first ~glen =
    incr cur;
    let c = !cur in
    let lo = if full then 0 else sites.(packed.(first)).gate in
    let hi = ref (if full then n_gates - 1 else lo) in
    if not full then
      for l = first to first + glen - 1 do
        let g0 = sites.(packed.(l)).gate in
        (* A stamped gate's cone is inside the cone that stamped it. *)
        if stamp.(g0) <> c then begin
          let cone = Compiled.fanout_cone compiled g0 in
          for i = 0 to Array.length cone - 1 do
            stamp.(cone.(i)) <- c
          done;
          let last = cone.(Array.length cone - 1) in
          if last > !hi then hi := last
        end
      done;
    let op = ref first in
    let swept = ref 0 in
    for g = lo to !hi do
      if full || stamp.(g) = c then begin
        let cg = cgates.(g) in
        Compiled.eval_fn_rows cg.Compiled.fn cg.Compiled.ins matrix ~width
          ~out:cg.Compiled.out ~tmp;
        incr swept;
        while !op < first + glen && sites.(packed.(!op)).gate = g do
          Bigarray.Array1.unsafe_set matrix
            ((cg.Compiled.out * width) + !op - first)
            fw.(!op);
          incr op
        done
      end
    done;
    ctx.Kernel.work := !(ctx.Kernel.work) + (!swept * glen);
    (* Diff the swept PO rows; restore the swept rows to the good words
       ([`Full] rewrites every gate row from the PIs, so skips it). *)
    Array.fill diff 0 glen 0;
    for g = lo to !hi do
      if full || stamp.(g) = c then begin
        let out = cgates.(g).Compiled.out in
        let base = out * width in
        let good = scratch.(out) in
        if Compiled.gate_is_po compiled g then
          for l = 0 to glen - 1 do
            diff.(l) <- diff.(l) lor (Bigarray.Array1.unsafe_get matrix (base + l) lxor good)
          done;
        if not full then Compiled.matrix_fill_row matrix ~width ~net:out good
      end
    done;
    for l = 0 to glen - 1 do
      let d = diff.(l) land mask in
      let sid = sites.(packed.(first + l)).sid in
      if d <> 0 && ctx.Kernel.first.(sid) = None then begin
        let j = ref 0 in
        while (d lsr !j) land 1 = 0 do
          incr j
        done;
        ctx.Kernel.detect ~sid ~pat:(start + !j)
      end
    done
  in
  let run_unit (ctx : Kernel.ctx) ~start ~len =
    Array.fill words 0 n_inputs 0;
    for j = 0 to len - 1 do
      let p = patterns.(start + j) in
      for i = 0 to n_inputs - 1 do
        if p.(i) then words.(i) <- words.(i) lor (1 lsl j)
      done
    done;
    let mask = if len >= word_bits then max_int else (1 lsl len) - 1 in
    Compiled.eval_words_into compiled ~scratch words;
    (* Probe every live site; the probed word doubles as the lane's
       override value during the sweep. *)
    let n_packed = ref 0 in
    let probed = ref 0 in
    for i = 0 to n - 1 do
      let s = sites.(i) in
      if not (ctx.Kernel.failed.(s.sid) || ctx.Kernel.dropped.(s.sid)) then begin
        (match trace_site with None -> () | Some f -> f ~sid:s.sid ~start);
        let cg = cgates.(s.gate) in
        let w = Compiled.eval_fn_from s.fn cg.Compiled.ins scratch in
        incr probed;
        if full || w <> scratch.(cg.Compiled.out) then begin
          packed.(!n_packed) <- i;
          fw.(!n_packed) <- w;
          incr n_packed
        end
      end
    done;
    ctx.Kernel.work := !(ctx.Kernel.work) + !probed;
    if !n_packed > 0 then begin
      for net = 0 to n_nets - 1 do
        Compiled.matrix_fill_row matrix ~width ~net scratch.(net)
      done;
      let first = ref 0 in
      while !first < !n_packed do
        let glen = min width (!n_packed - !first) in
        sweep_group ctx ~start ~mask ~first:!first ~glen;
        first := !first + glen
      done
    end
  in
  let cone_gates =
    Array.fold_left
      (fun acc s -> acc + Array.length (Compiled.fanout_cone compiled s.gate))
      0 sites
  in
  let obs_fields (t : Kernel.totals) =
    [
      ("algo", Obs.String (algo_name algo));
      ("group", Obs.Int group);
      ("gate_evals", Obs.Int t.Kernel.work);
      ( "gate_evals_saved",
        Obs.Int (((t.Kernel.evals + t.Kernel.evals_saved) * n_gates) - t.Kernel.work) );
      ("cone_gates", Obs.Int cone_gates);
    ]
  in
  {
    Kernel.name = "ppsfp";
    unit_len = (fun ~start -> min word_bits (total - start));
    units_remaining = (fun ~start -> (total - start + word_bits - 1) / word_bits);
    run_unit;
    obs_fields;
  }
