open Dynmos_util
open Dynmos_cell
open Dynmos_core
open Dynmos_netlist
open Dynmos_faultsim
open Dynmos_circuits

(* Tests for fault simulation: universe construction and the agreement of
   the serial, bit-parallel and deductive engines — which is itself a
   reproduction artefact: the paper's point is that dynamic-MOS faults stay
   combinational so classical injection machinery applies. *)

let check = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let fig9_u () = Faultsim.universe (Generators.fig9_network ())

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_universe_fig9 () =
  let u = fig9_u () in
  (* one gate, ten detectable function classes *)
  check_i "ten sites" 10 (Faultsim.n_sites u);
  check_i "one library" 1 (List.length u.Faultsim.libraries);
  let labels = Array.to_list (Array.map (Faultsim.site_label u) u.Faultsim.sites) in
  check "labels carry members" true (List.exists (fun l -> contains l "CMOS-2") labels)

let test_universe_shares_libraries () =
  let nl = Generators.and_tree ~technology:Technology.Domino_cmos 8 in
  let u = Faultsim.universe nl in
  (* many gates, few distinct cells *)
  check "fewer libraries than gates" true
    (List.length u.Faultsim.libraries < Netlist.n_gates nl);
  check "sites = gates x classes" true (Faultsim.n_sites u > Netlist.n_gates nl)

let test_detects () =
  let u = fig9_u () in
  (* site for class 2 ("a open": u = d*e): detected by any vector where
     a*(b+c) = 1 and d*e = 0. *)
  let site =
    Array.to_list u.Faultsim.sites
    |> List.find (fun s -> s.Faultsim.entry.Faultlib.class_id = 2)
  in
  check "11000 detects a-open" true (Faultsim.detects u site [| true; true; false; false; false |]);
  check "00011 does not" false (Faultsim.detects u site [| false; false; false; true; true |])

(* All engines — serial, bit-parallel, deductive, concurrent, PPSFP and
   the two domain-parallel kernels, each injection engine under both the
   full and the cone-restricted algorithm — must produce identical
   first_detection.  The reference is the classical whole-circuit serial
   kernel. *)
let engines_agree u patterns =
  let s1 = Faultsim.run_serial ~drop:false ~algo:`Full u patterns in
  let agree s = s.Faultsim.first_detection = s1.Faultsim.first_detection in
  agree (Faultsim.run_serial ~drop:false ~algo:`Cone u patterns)
  && agree (Faultsim.run_parallel ~drop:false ~algo:`Full u patterns)
  && agree (Faultsim.run_parallel ~drop:false ~algo:`Cone u patterns)
  && agree (Faultsim.run_deductive ~drop:false ~algo:`Full u patterns)
  && agree (Faultsim.run_deductive ~drop:false ~algo:`Cone u patterns)
  && agree (Faultsim.run_concurrent ~drop:false ~algo:`Full u patterns)
  && agree (Faultsim.run_concurrent ~drop:false ~algo:`Cone u patterns)
  && agree (Faultsim.run_ppsfp ~drop:false ~algo:`Full ~group:4 u patterns)
  && agree (Faultsim.run_ppsfp ~drop:false ~algo:`Cone ~group:4 u patterns)
  && List.for_all
       (fun (inner, algo) ->
         agree
           (Faultsim.run_domain_parallel ~drop:false ~inner ~algo ~min_work_per_domain:0 u
              patterns))
       [
         (Parallel_exec.Bit_parallel, `Full);
         (Parallel_exec.Bit_parallel, `Cone);
         (Parallel_exec.Serial, `Full);
         (Parallel_exec.Serial, `Cone);
       ]

let test_engines_agree_fig9 () =
  let u = fig9_u () in
  let patterns = Faultsim.exhaustive_patterns 5 in
  check "serial = parallel = deductive = concurrent" true (engines_agree u patterns)

let test_engines_agree_benchmarks () =
  let prng = Prng.create 11 in
  List.iter
    (fun nl ->
      let u = Faultsim.universe nl in
      let patterns =
        Faultsim.random_patterns prng
          ~n_inputs:(List.length (Netlist.inputs nl))
          ~count:100
      in
      check (Netlist.name nl) true (engines_agree u patterns))
    [
      Generators.c17 ~style:`Static ();
      Generators.c17 ~style:`Domino ();
      Generators.carry_chain ~technology:Technology.Domino_cmos 6;
      Generators.parity ~style:`Domino 4;
      Generators.random_monotone ~seed:3 ~n_inputs:6 ~n_gates:12
        ~technology:Technology.Domino_cmos ();
    ]

(* Cross-engine differential suite: pattern-count edge cases around the
   62-bit word boundary, and multi-output circuits. *)
let test_engines_agree_edge_counts () =
  let u = Faultsim.universe (Generators.ripple_adder ~style:`Domino 2) in
  let n_in = List.length (Netlist.inputs (Generators.ripple_adder ~style:`Domino 2)) in
  let prng = Prng.create 7 in
  List.iter
    (fun count ->
      let pats = Faultsim.random_patterns prng ~n_inputs:n_in ~count in
      check (Fmt.str "%d patterns" count) true (engines_agree u pats))
    [ 0; 1; 61; 62; 63; 124; 125 ]

let test_engines_agree_multi_output () =
  let prng = Prng.create 29 in
  List.iter
    (fun nl ->
      let u = Faultsim.universe nl in
      check
        (Fmt.str "%s (%d outputs)" (Netlist.name nl) (List.length (Netlist.outputs nl)))
        true
        (List.length (Netlist.outputs nl) > 1
        && engines_agree u
             (Faultsim.random_patterns prng
                ~n_inputs:(List.length (Netlist.inputs nl))
                ~count:80))
    )
    [
      Generators.ripple_adder ~style:`Domino 3;
      Generators.decoder ~style:`Domino 3;
      Generators.random_monotone ~seed:13 ~n_inputs:7 ~n_gates:15
        ~technology:Technology.Domino_cmos ();
    ]

(* --- Fanout-cone structural analysis ----------------------------------------- *)

module Compiled = Dynmos_sim.Compiled

(* An explicitly reconvergent circuit: g1 fans out along two paths (g2,
   g3) that reconverge at g4, and g2 is additionally tapped as a second
   primary output — the shape where naive difference propagation goes
   wrong and the cone kernel must still match whole-circuit injection. *)
let reconvergent_netlist () =
  let and2 = Stdcells.and_gate 2 Technology.Domino_cmos in
  let or2 = Stdcells.or_gate 2 Technology.Domino_cmos in
  let b = Netlist.Builder.create "reconv" in
  let a = Netlist.Builder.input b "a" in
  let c = Netlist.Builder.input b "c" in
  let g1 = Netlist.Builder.add b and2 ~inputs:[ a; c ] ~output:"g1" in
  let g2 = Netlist.Builder.add b or2 ~inputs:[ g1; a ] ~output:"g2" in
  let g3 = Netlist.Builder.add b and2 ~inputs:[ g1; c ] ~output:"g3" in
  let g4 = Netlist.Builder.add b or2 ~inputs:[ g2; g3 ] ~output:"g4" in
  Netlist.Builder.output b g2;
  Netlist.Builder.output b g4;
  Netlist.Builder.finish b

let test_cone_reconvergent () =
  let nl = reconvergent_netlist () in
  let c = Compiled.compile nl in
  (* g1 (gate id 0) influences every gate through two reconvergent paths
     and reaches both primary outputs. *)
  check "g1 cone is everything" true (Compiled.fanout_cone c 0 = [| 0; 1; 2; 3 |]);
  check_i "g1 reaches both POs" 2 (Array.length (Compiled.reachable_outputs c 0));
  (* g3 (id 2) only feeds g4: one reachable output. *)
  check "g3 cone" true (Compiled.fanout_cone c 2 = [| 2; 3 |]);
  check_i "g3 reaches one PO" 1 (Array.length (Compiled.reachable_outputs c 2));
  check_i "max cone" 4 (Compiled.max_cone_size c);
  (* and the engines agree on it, exhaustively *)
  let u = Faultsim.universe nl in
  check "engines agree on reconvergent circuit" true
    (engines_agree u (Faultsim.exhaustive_patterns 2))

(* Reconvergence at scale: every differential engine pair on random
   monotone circuits (they contain shared fanout by construction). *)
let test_cone_reconvergent_random () =
  let prng = Prng.create 59 in
  List.iter
    (fun seed ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs:8 ~n_gates:30
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:100 in
      check (Fmt.str "seed %d" seed) true (engines_agree u pats))
    [ 2; 21; 77 ]

(* Cone restriction on the propagation engines specifically: full vs
   cone must match on reconvergent shapes under both drop settings —
   dropping retires sites mid-run, which is exactly when a stale
   active-gate count would make the cone kernel skip a gate some live
   fault still needs. *)
let test_propagation_cone_differential () =
  let circuits =
    [
      reconvergent_netlist ();
      Generators.random_monotone ~seed:21 ~n_inputs:8 ~n_gates:30
        ~technology:Technology.Domino_cmos ();
    ]
  in
  let prng = Prng.create 97 in
  List.iter
    (fun nl ->
      let u = Faultsim.universe nl in
      let n_in = List.length (Netlist.inputs nl) in
      let pats = Faultsim.random_patterns prng ~n_inputs:n_in ~count:100 in
      List.iter
        (fun (name, run) ->
          List.iter
            (fun drop ->
              let full = run ~drop ~algo:`Full u pats in
              let cone = run ~drop ~algo:`Cone u pats in
              check
                (Fmt.str "%s %s drop=%b" (Netlist.name nl) name drop)
                true
                (full.Faultsim.first_detection = cone.Faultsim.first_detection))
            [ false; true ])
        [
          ("deductive", fun ~drop ~algo u p -> Faultsim.run_deductive ~drop ~algo u p);
          ("concurrent", fun ~drop ~algo u p -> Faultsim.run_concurrent ~drop ~algo u p);
        ])
    circuits

(* --- Domain-parallel layer -------------------------------------------------- *)

(* Same results for every domain count, for both inner kernels.  The
   tests disable the work clamp (min_work_per_domain:0) so small test
   circuits genuinely run on several domains. *)
let test_domain_counts_equal () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 6 in
  let u = Faultsim.universe nl in
  let prng = Prng.create 41 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:90
  in
  let reference = Faultsim.run_serial ~drop:false u pats in
  List.iter
    (fun inner ->
      List.iter
        (fun n ->
          let s =
            Faultsim.run_domain_parallel ~drop:false ~inner ~num_domains:n
              ~min_work_per_domain:0 u pats
          in
          check (Fmt.str "num_domains=%d" n) true
            (s.Faultsim.first_detection = reference.Faultsim.first_detection))
        [ 1; 2; 4 ])
    [ Parallel_exec.Serial; Parallel_exec.Bit_parallel ]

(* Dropping only skips work after a site's first detection: summaries with
   and without dropping are identical, for any domain count. *)
let test_domain_drop_semantics () =
  let nl = Generators.c17 ~style:`Domino () in
  let u = Faultsim.universe nl in
  let prng = Prng.create 43 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:100
  in
  List.iter
    (fun n ->
      let with_drop =
        Faultsim.run_domain_parallel ~drop:true ~num_domains:n ~min_work_per_domain:0 u pats
      in
      let without =
        Faultsim.run_domain_parallel ~drop:false ~num_domains:n ~min_work_per_domain:0 u pats
      in
      check (Fmt.str "drop invariant, num_domains=%d" n) true
        (with_drop.Faultsim.first_detection = without.Faultsim.first_detection);
      check (Fmt.str "matches serial, num_domains=%d" n) true
        (with_drop.Faultsim.first_detection
        = (Faultsim.run_serial ~drop:true u pats).Faultsim.first_detection))
    [ 1; 3 ]

let test_domain_empty_universe () =
  (* More domains than sites, and zero patterns, must both be safe. *)
  let u = fig9_u () in
  let s = Faultsim.run_domain_parallel ~num_domains:8 ~min_work_per_domain:0 u [||] in
  check_i "no patterns" 0 s.Faultsim.n_patterns;
  check "nothing detected" true (Array.for_all (( = ) None) s.Faultsim.first_detection);
  let pats = Faultsim.exhaustive_patterns 5 in
  let s = Faultsim.run_domain_parallel ~num_domains:32 ~min_work_per_domain:0 u pats in
  check "32 domains, 10 sites" true
    (s.Faultsim.first_detection = (Faultsim.run_serial u pats).Faultsim.first_detection)

let test_exhaustive_full_coverage () =
  (* Every site of the fig9 universe is detectable (library excluded the
     redundant ones), so exhaustive patterns reach 100%. *)
  let u = fig9_u () in
  let s = Faultsim.run_parallel u (Faultsim.exhaustive_patterns 5) in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 (Faultsim.coverage s);
  check_i "all detected" (Faultsim.n_sites u) (Faultsim.n_detected s);
  check "no undetected" true (Faultsim.undetected u s = [])

let test_more_patterns_dont_hurt () =
  let u = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
  let prng = Prng.create 5 in
  let n_in = Dynmos_sim.Compiled.n_inputs u.Faultsim.compiled in
  let pats = Faultsim.random_patterns prng ~n_inputs:n_in ~count:64 in
  let half = Array.sub pats 0 32 in
  let c1 = Faultsim.coverage (Faultsim.run_parallel u half) in
  let c2 = Faultsim.coverage (Faultsim.run_parallel u pats) in
  check "monotone coverage" true (c2 >= c1)

let test_coverage_curve () =
  let u = fig9_u () in
  let pats = Faultsim.exhaustive_patterns 5 in
  let s = Faultsim.run_parallel u pats in
  let curve = Faultsim.coverage_curve s in
  check_i "curve length" (Array.length pats + 1) (Array.length curve);
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 curve.(0);
  Alcotest.(check (float 1e-9)) "ends at coverage" (Faultsim.coverage s)
    curve.(Array.length curve - 1);
  let monotone = ref true in
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then monotone := false
  done;
  check "monotone" true !monotone

let test_drop_consistency () =
  (* With fault dropping the achieved *set* of detected faults is the
     same; first_detection may only be earlier or equal. *)
  let u = Faultsim.universe (Generators.carry_chain ~technology:Technology.Domino_cmos 5) in
  let prng = Prng.create 19 in
  let pats = Faultsim.random_patterns prng ~n_inputs:11 ~count:80 in
  let with_drop = Faultsim.run_parallel ~drop:true u pats in
  let without = Faultsim.run_parallel ~drop:false u pats in
  check "same detection set" true
    (Array.for_all2
       (fun a b -> (a = None) = (b = None))
       with_drop.Faultsim.first_detection without.Faultsim.first_detection);
  check "same first pattern" true
    (with_drop.Faultsim.first_detection = without.Faultsim.first_detection)

let test_weighted_patterns () =
  let prng = Prng.create 23 in
  let w = [| 0.9; 0.1 |] in
  let pats = Faultsim.random_patterns ~weights:w prng ~n_inputs:2 ~count:2000 in
  let count i = Array.fold_left (fun acc p -> if p.(i) then acc + 1 else acc) 0 pats in
  let f0 = float_of_int (count 0) /. 2000.0 in
  let f1 = float_of_int (count 1) /. 2000.0 in
  check "input 0 mostly 1" true (f0 > 0.85 && f0 < 0.95);
  check "input 1 mostly 0" true (f1 > 0.05 && f1 < 0.15)

let test_exhaustive_patterns () =
  let pats = Faultsim.exhaustive_patterns 3 in
  check_i "8 patterns" 8 (Array.length pats);
  check "row 5 = 101" true (pats.(5) = [| true; false; true |])

(* --- Pattern-generator validation ------------------------------------------- *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_exhaustive_bounds () =
  check "negative raises" true (raises_invalid (fun () -> Faultsim.exhaustive_patterns (-1)));
  check "beyond the bound raises" true
    (raises_invalid (fun () ->
         Faultsim.exhaustive_patterns (Faultsim.max_exhaustive_inputs + 1)));
  check "62 would overflow, raises (not shifts)" true
    (raises_invalid (fun () -> Faultsim.exhaustive_patterns 62));
  check_i "zero inputs = one empty pattern" 1 (Array.length (Faultsim.exhaustive_patterns 0))

let test_random_patterns_validation () =
  let prng = Prng.create 1 in
  check "negative n_inputs raises" true
    (raises_invalid (fun () -> Faultsim.random_patterns prng ~n_inputs:(-1) ~count:4));
  check "negative count raises" true
    (raises_invalid (fun () -> Faultsim.random_patterns prng ~n_inputs:2 ~count:(-1)));
  check "short weights raises" true
    (raises_invalid (fun () ->
         Faultsim.random_patterns ~weights:[| 0.5 |] prng ~n_inputs:3 ~count:4));
  check "weight > 1 raises" true
    (raises_invalid (fun () ->
         Faultsim.random_patterns ~weights:[| 0.5; 1.5 |] prng ~n_inputs:2 ~count:4));
  check "nan weight raises" true
    (raises_invalid (fun () ->
         Faultsim.random_patterns ~weights:[| Float.nan; 0.5 |] prng ~n_inputs:2 ~count:4));
  (* the error message must name the problem, not just "index out of bounds" *)
  (match Faultsim.random_patterns ~weights:[| 0.5 |] prng ~n_inputs:3 ~count:4 with
  | exception Invalid_argument msg ->
      check "message names weights" true (contains msg "weights")
  | _ -> Alcotest.fail "expected Invalid_argument");
  (* boundary probabilities 0 and 1 are legal and deterministic *)
  let pats = Faultsim.random_patterns ~weights:[| 0.0; 1.0 |] prng ~n_inputs:2 ~count:8 in
  check "p=0 always false / p=1 always true" true
    (Array.for_all (fun p -> (not p.(0)) && p.(1)) pats)

(* --- Universe validation and restriction ------------------------------------ *)

let invalid_msg f =
  match f () with
  | exception Invalid_argument msg -> msg
  | _ -> Alcotest.fail "expected Invalid_argument"

(* [validate_universe] catches hand-assembled universes that would make
   the engines index out of bounds or double-count detections. *)
let test_validate_universe () =
  let u = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
  Faultsim.validate_universe u;  (* the constructor's output is valid *)
  let copy () = { u with Faultsim.sites = Array.map Fun.id u.Faultsim.sites } in
  (* non-dense sid *)
  let broken = copy () in
  broken.Faultsim.sites.(0) <- { broken.Faultsim.sites.(0) with Faultsim.sid = 5 };
  let msg = invalid_msg (fun () -> Faultsim.validate_universe broken) in
  check "names the sid" true (contains msg "sid");
  (* duplicate (gate, class) pair — sids stay dense *)
  let broken = copy () in
  broken.Faultsim.sites.(1) <- { broken.Faultsim.sites.(0) with Faultsim.sid = 1 };
  let msg = invalid_msg (fun () -> Faultsim.validate_universe broken) in
  check "names the duplicate site" true (contains msg "duplicate");
  (* gate id outside the compiled circuit *)
  let broken = copy () in
  let s0 = broken.Faultsim.sites.(0) in
  broken.Faultsim.sites.(0) <-
    { s0 with Faultsim.gate = { s0.Faultsim.gate with Netlist.id = 99 } };
  let msg = invalid_msg (fun () -> Faultsim.validate_universe broken) in
  check "names the gate id" true (contains msg "gate")

let test_restrict_universe () =
  let nl = Generators.c17 ~style:`Domino () in
  let u = Faultsim.universe nl in
  let gates = [ 0; 2 ] in
  let ru = Faultsim.restrict_universe u ~gates in
  check "fewer sites" true (Faultsim.n_sites ru < Faultsim.n_sites u);
  check "only the listed gates" true
    (Array.for_all (fun s -> List.mem s.Faultsim.gate.Netlist.id gates) ru.Faultsim.sites);
  (* result is valid by construction: dense sids, in-range gates *)
  Faultsim.validate_universe ru;
  (* detections on the sub-universe match the corresponding sites of a
     full-universe run, pattern for pattern *)
  let prng = Prng.create 7 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:32
  in
  let full = Faultsim.run_serial ~drop:false u pats in
  let sub = Faultsim.run_serial ~drop:false ru pats in
  Array.iter
    (fun s ->
      let key s = (s.Faultsim.gate.Netlist.id, s.Faultsim.entry.Faultlib.class_id) in
      let orig =
        Array.to_list u.Faultsim.sites |> List.find (fun o -> key o = key s)
      in
      check "restricted detection matches full run" true
        (sub.Faultsim.first_detection.(s.Faultsim.sid)
        = full.Faultsim.first_detection.(orig.Faultsim.sid)))
    ru.Faultsim.sites;
  (* bad gate lists are named errors *)
  check "out-of-range gate raises" true
    (raises_invalid (fun () -> Faultsim.restrict_universe u ~gates:[ 0; 99 ]));
  check "negative gate raises" true
    (raises_invalid (fun () -> Faultsim.restrict_universe u ~gates:[ -1 ]));
  check "duplicate gate raises" true
    (raises_invalid (fun () -> Faultsim.restrict_universe u ~gates:[ 1; 1 ]));
  check "empty restriction is legal" true
    (Faultsim.n_sites (Faultsim.restrict_universe u ~gates:[]) = 0)

(* --- PPSFP ------------------------------------------------------------------- *)

(* Group size is a pure performance knob: every G — including 1, a
   non-divisor of the site count, and one exceeding the whole universe —
   reproduces the bit-parallel engine's first_detection under both
   algorithms and both drop settings. *)
let test_ppsfp_group_sizes () =
  let nl =
    Generators.random_monotone ~seed:21 ~n_inputs:8 ~n_gates:30
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let prng = Prng.create 83 in
  let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:100 in
  let reference = Faultsim.run_parallel ~drop:false u pats in
  List.iter
    (fun group ->
      List.iter
        (fun (drop, algo, aname) ->
          let s = Faultsim.run_ppsfp ~drop ~algo ~group u pats in
          check
            (Fmt.str "group=%d algo=%s drop=%b" group aname drop)
            true
            (s.Faultsim.first_detection = reference.Faultsim.first_detection))
        [
          (false, `Cone, "cone");
          (false, `Full, "full");
          (true, `Cone, "cone");
          (true, `Full, "full");
        ])
    [ 1; 3; 16; 64; 1000 ];
  check "group 0 raises" true
    (raises_invalid (fun () -> Faultsim.run_ppsfp ~group:0 u pats))

(* Fault dropping retires a site from the activation probe: once a site
   is detected it is never simulated again.  [trace_site] fires once per
   live site probed per 62-pattern unit (groups are re-packed from the
   activated live sites every unit, so there is no separate compaction
   step), and the recorded unit starts pin the retirement exactly: a
   detected site's last trace is the unit containing its first
   detection, an undetected site is traced in every unit, and no
   (site, unit) pair repeats. *)
let test_ppsfp_compaction_never_resimulates () =
  let nl =
    Generators.random_monotone ~seed:3 ~n_inputs:8 ~n_gates:30
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let prng = Prng.create 89 in
  let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:200 in
  let traces : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let trace_site ~sid ~start =
    Hashtbl.replace traces sid
      (start :: Option.value ~default:[] (Hashtbl.find_opt traces sid))
  in
  let s = Faultsim.run_ppsfp ~drop:true ~group:7 ~trace_site u pats in
  let n_units = (Array.length pats + 61) / 62 in
  Hashtbl.iter
    (fun sid starts ->
      check
        (Fmt.str "site %d traced at most once per unit" sid)
        true
        (List.length (List.sort_uniq compare starts) = List.length starts))
    traces;
  Array.iteri
    (fun sid first ->
      let starts = Option.value ~default:[] (Hashtbl.find_opt traces sid) in
      match first with
      | Some p ->
          let detecting_unit = p - (p mod 62) in
          check (Fmt.str "site %d simulated in its detecting unit" sid) true
            (List.mem detecting_unit starts);
          check (Fmt.str "site %d retired after detection" sid) true
            (List.for_all (fun st -> st <= detecting_unit) starts)
      | None ->
          check (Fmt.str "undetected site %d simulated in every unit" sid) true
            (List.length starts = n_units))
    s.Faultsim.first_detection;
  check "compaction changes no detections" true
    (s.Faultsim.first_detection
    = (Faultsim.run_ppsfp ~drop:false ~group:7 u pats).Faultsim.first_detection)

(* Scale differential: on the thousand-gate catalog circuit at a ragged
   pattern count (150 = two full words and a 26-pattern tail), every
   engine shape that packs or shards sites differently reproduces the
   bit-parallel engine's first detections under both drop settings. *)
let test_scale_differential () =
  let nl = match Catalog.find "rand1k" with Ok nl -> nl | Error e -> Alcotest.fail e in
  let u = Faultsim.universe nl in
  let pats = Faultsim.random_patterns (Prng.create 97) ~n_inputs:32 ~count:150 in
  List.iter
    (fun drop ->
      let reference = (Faultsim.run_parallel ~drop u pats).Faultsim.first_detection in
      List.iter
        (fun (name, run) ->
          check (Fmt.str "%s drop=%b = bit-parallel" name drop) true
            ((run ()).Faultsim.first_detection = reference))
        ([
           ("ppsfp G=16 full", fun () -> Faultsim.run_ppsfp ~drop ~algo:`Full ~group:16 u pats);
           ("deductive", fun () -> Faultsim.run_deductive ~drop u pats);
           ("concurrent", fun () -> Faultsim.run_concurrent ~drop u pats);
         ]
        @ List.map
            (fun group ->
              ( Fmt.str "ppsfp G=%d cone" group,
                fun () -> Faultsim.run_ppsfp ~drop ~algo:`Cone ~group u pats ))
            [ 1; 16; 64 ]
        @ List.map
            (fun n ->
              ( Fmt.str "domains x%d" n,
                fun () ->
                  Faultsim.run_domain_parallel ~drop ~num_domains:n ~min_work_per_domain:0 u
                    pats ))
            [ 1; 2 ]))
    [ true; false ]

(* Restricted universes (arbitrary site subsets, still ascending sid /
   non-decreasing gate order) go through the same kernel. *)
let test_ppsfp_restricted_universe () =
  let nl =
    Generators.random_monotone ~seed:21 ~n_inputs:8 ~n_gates:30
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let ru = Faultsim.restrict_universe u ~gates:[ 0; 5; 7; 13; 22 ] in
  let prng = Prng.create 91 in
  let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:90 in
  let reference = Faultsim.run_parallel ~drop:false ru pats in
  List.iter
    (fun (algo, aname) ->
      check (Fmt.str "restricted universe, %s" aname) true
        ((Faultsim.run_ppsfp ~drop:false ~algo ~group:4 ru pats).Faultsim.first_detection
        = reference.Faultsim.first_detection))
    [ (`Cone, "cone"); (`Full, "full") ]

(* The word-matrix primitives against the scalar evaluator: sweeping a
   whole circuit with [eval_fn_rows] (fast paths included) must leave
   every lane equal to an independent [eval_words_into] run on that
   lane's input words, and the scalar [eval_fn_in_matrix] path must
   agree with the grouped rows. *)
let test_word_matrix_matches_scalar () =
  let nl =
    Generators.random_monotone ~seed:17 ~n_inputs:6 ~n_gates:20
      ~technology:Technology.Domino_cmos ()
  in
  let c = Compiled.compile nl in
  let width = 5 in
  let m = Compiled.make_word_matrix c ~width in
  let prng = Prng.create 93 in
  let n_in = Compiled.n_inputs c in
  let lane_inputs =
    Array.init width (fun _ -> Array.init n_in (fun _ -> Prng.bits62 prng))
  in
  for net = 0 to n_in - 1 do
    for lane = 0 to width - 1 do
      Bigarray.Array1.set m ((net * width) + lane) lane_inputs.(lane).(net)
    done
  done;
  let tmp = Array.make width 0 in
  let gates = Compiled.gates c in
  Array.iter
    (fun g ->
      Compiled.eval_fn_rows g.Compiled.fn g.Compiled.ins m ~width ~out:g.Compiled.out
        ~tmp)
    gates;
  let scratch = Compiled.make_scratch c in
  for lane = 0 to width - 1 do
    Compiled.eval_words_into c ~scratch lane_inputs.(lane);
    for net = 0 to Compiled.n_nets c - 1 do
      check_i
        (Fmt.str "lane %d net %d" lane net)
        scratch.(net)
        (Bigarray.Array1.get m ((net * width) + lane))
    done
  done;
  Array.iter
    (fun g ->
      for lane = 0 to width - 1 do
        check_i "eval_fn_in_matrix agrees with eval_fn_rows"
          (Bigarray.Array1.get m ((g.Compiled.out * width) + lane))
          (Compiled.eval_fn_in_matrix g.Compiled.fn g.Compiled.ins m ~width ~lane)
      done)
    gates;
  Compiled.matrix_fill_row m ~width ~net:0 12345;
  for lane = 0 to width - 1 do
    check_i "matrix_fill_row broadcasts" 12345 (Bigarray.Array1.get m lane)
  done;
  check "width 0 raises" true
    (raises_invalid (fun () -> Compiled.make_word_matrix c ~width:0))

(* --- Observability ---------------------------------------------------------- *)

module Obs = Dynmos_obs.Obs

(* With and without a recorder, every engine produces bit-identical
   summaries: observation must never change results. *)
let test_obs_parity () =
  let u = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
  let prng = Prng.create 47 in
  let pats =
    Faultsim.random_patterns prng
      ~n_inputs:(Dynmos_sim.Compiled.n_inputs u.Faultsim.compiled)
      ~count:90
  in
  let engines =
    [
      ("serial", fun obs -> Faultsim.run_serial ~obs u pats);
      ("parallel", fun obs -> Faultsim.run_parallel ~obs u pats);
      ("deductive", fun obs -> Faultsim.run_deductive ~obs u pats);
      ("concurrent", fun obs -> Faultsim.run_concurrent ~obs u pats);
      ( "domains",
        fun obs ->
          Faultsim.run_domain_parallel ~num_domains:2 ~min_work_per_domain:0 ~obs u pats );
    ]
  in
  List.iter
    (fun (name, run) ->
      let sink, fetch = Obs.memory_sink () in
      let observed = run (Obs.make sink) in
      let plain = run Obs.disabled in
      check (name ^ ": identical summaries") true
        (observed.Faultsim.first_detection = plain.Faultsim.first_detection);
      check (name ^ ": emitted a run event") true
        (List.exists (fun e -> e.Obs.ev = "faultsim.run") (fetch ())))
    engines

let field_int e name =
  match List.assoc_opt name e.Obs.fields with Some (Obs.Int n) -> Some n | _ -> None

let run_event fetch =
  match List.filter (fun e -> e.Obs.ev = "faultsim.run") (fetch ()) with
  | [ e ] -> e
  | l -> Alcotest.fail (Fmt.str "expected exactly one faultsim.run event, got %d" (List.length l))

(* The per-domain counters must reconcile with the serial engine: same
   kernel (Serial inner), same drop setting -> same number of faulty-
   machine evaluations, no matter how many domains did the work. *)
let test_obs_eval_reconciliation () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 6 in
  let u = Faultsim.universe nl in
  let prng = Prng.create 53 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:70
  in
  List.iter
    (fun drop ->
      let sink, fetch = Obs.memory_sink () in
      ignore (Faultsim.run_serial ~drop ~obs:(Obs.make sink) u pats);
      let serial_evals = Option.get (field_int (run_event fetch) "evals") in
      if not drop then
        check_i "no-drop serial evals = sites x patterns"
          (Faultsim.n_sites u * Array.length pats)
          serial_evals;
      List.iter
        (fun n ->
          let _, st =
            Faultsim.run_domain_parallel_stats ~drop ~inner:Parallel_exec.Serial ~num_domains:n
              ~min_work_per_domain:0 u pats
          in
          check_i
            (Fmt.str "domains(%d) drop=%b evals = serial evals" n drop)
            serial_evals
            (Parallel_exec.stats_evals st);
          let per_domain_sum =
            Array.fold_left
              (fun acc d -> acc + d.Parallel_exec.evals)
              0 st.Parallel_exec.per_domain
          in
          check_i "per-domain tallies sum to total" serial_evals per_domain_sum;
          let jobs_sum =
            Array.fold_left
              (fun acc d -> acc + d.Parallel_exec.jobs_claimed)
              0 st.Parallel_exec.per_domain
          in
          check_i "every job claimed exactly once" st.Parallel_exec.n_jobs jobs_sum)
        [ 1; 2; 3 ])
    [ false; true ]

(* The unified driver owns one accounting definition — one kernel
   evaluation per live site per pattern unit — so every per-pattern
   engine must report the SAME evals/evals_saved totals for the same
   campaign: the numbers are a property of the campaign, not of the
   kernel.  Bit-parallel units are 62-pattern words, so its totals
   scale by the chunk count instead. *)
let test_unified_accounting_totals () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 6 in
  let u = Faultsim.universe nl in
  let prng = Prng.create 67 in
  let n_in = List.length (Netlist.inputs nl) in
  let pats = Faultsim.random_patterns prng ~n_inputs:n_in ~count:100 in
  let totals run =
    let sink, fetch = Obs.memory_sink () in
    ignore (run (Obs.make sink));
    let e = run_event fetch in
    (Option.get (field_int e "evals"), Option.get (field_int e "evals_saved"))
  in
  List.iter
    (fun drop ->
      let se, ss = totals (fun obs -> Faultsim.run_serial ~drop ~obs u pats) in
      check_i
        (Fmt.str "drop=%b: serial accounts the full workload" drop)
        (Faultsim.n_sites u * Array.length pats)
        (se + ss);
      List.iter
        (fun (name, run) ->
          let e, s = totals (run ~drop) in
          check_i (Fmt.str "drop=%b: %s evals = serial evals" drop name) se e;
          check_i (Fmt.str "drop=%b: %s evals_saved = serial evals_saved" drop name) ss s)
        [
          ("deductive", fun ~drop obs -> Faultsim.run_deductive ~drop ~obs u pats);
          ("concurrent", fun ~drop obs -> Faultsim.run_concurrent ~drop ~obs u pats);
        ];
      let chunks = (Array.length pats + 61) / 62 in
      let pe, ps = totals (fun obs -> Faultsim.run_parallel ~drop ~obs u pats) in
      check_i
        (Fmt.str "drop=%b: parallel accounts sites x chunks" drop)
        (Faultsim.n_sites u * chunks)
        (pe + ps);
      if not drop then
        check_i "no-drop parallel evals = sites x chunks" (Faultsim.n_sites u * chunks) pe)
    [ false; true ]

(* Cone vs full bookkeeping: identical kernel-invocation counts and
   results, strictly fewer gate evaluations for the cone on a circuit
   with meaningful structure. *)
let test_cone_gate_evals () =
  let nl =
    Generators.random_monotone ~seed:3 ~n_inputs:8 ~n_gates:30
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let prng = Prng.create 61 in
  let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:100 in
  List.iter
    (fun (name, run) ->
      let measure algo =
        let sink, fetch = Obs.memory_sink () in
        ignore (run algo (Obs.make sink));
        let e = run_event fetch in
        ( Option.get (field_int e "evals"),
          Option.get (field_int e "gate_evals"),
          Option.get (field_int e "gate_evals_saved") )
      in
      let e_cone, g_cone, s_cone = measure `Cone in
      let e_full, g_full, s_full = measure `Full in
      check_i (name ^ ": same kernel invocations") e_full e_cone;
      check (name ^ ": cone does strictly fewer gate evals") true (g_cone < g_full);
      check_i (name ^ ": full sweeps every gate") (e_full * Netlist.n_gates nl) g_full;
      (* both account against the same total workload *)
      check_i (name ^ ": accounting totals agree") (g_full + s_full) (g_cone + s_cone))
    [
      ("serial", fun algo obs -> Faultsim.run_serial ~drop:false ~algo ~obs u pats);
      ("parallel", fun algo obs -> Faultsim.run_parallel ~drop:false ~algo ~obs u pats);
    ]

(* All-detected early exit: once every site is detected under drop, the
   remaining patterns are skipped, yet (a) results equal the no-drop run
   and (b) evals + evals_saved still accounts for the full
   sites x patterns (or sites x chunks) workload. *)
let test_early_exit_accounting () =
  let u = fig9_u () in
  (* exhaustive fig9 reaches full coverage within the first 32 vectors;
     doubling the set to 64 patterns (2 bit-parallel chunks) guarantees
     there is a wholly-redundant tail for the early exit to skip *)
  let pats = Faultsim.exhaustive_patterns 5 in
  let pats = Array.append pats pats in
  let totals =
    [
      ("serial", (fun obs -> Faultsim.run_serial ~obs u pats), Faultsim.n_sites u * 64);
      ("parallel", (fun obs -> Faultsim.run_parallel ~obs u pats), Faultsim.n_sites u * 2);
    ]
  in
  List.iter
    (fun (name, run, expected_total) ->
      let sink, fetch = Obs.memory_sink () in
      let s = run (Obs.make sink) in
      let e = run_event fetch in
      let evals = Option.get (field_int e "evals") in
      let saved = Option.get (field_int e "evals_saved") in
      check_i (name ^ ": evals + saved = full workload") expected_total (evals + saved);
      check (name ^ ": exit actually saved work") true (saved > 0);
      check (name ^ ": detections match no-drop") true
        (s.Faultsim.first_detection
        = (Faultsim.run_serial ~drop:false u pats).Faultsim.first_detection))
    totals;
  (* deductive and concurrent also stop early and report the saving *)
  List.iter
    (fun (name, run) ->
      let sink, fetch = Obs.memory_sink () in
      let s = run true (Obs.make sink) in
      let saved = Option.get (field_int (run_event fetch) "evals_saved") in
      check (name ^ ": early exit saved work") true (saved > 0);
      check (name ^ ": detections match no-drop") true
        (s.Faultsim.first_detection = (run false Obs.disabled).Faultsim.first_detection))
    [
      ("deductive", fun drop obs -> Faultsim.run_deductive ~drop ~obs u pats);
      ("concurrent", fun drop obs -> Faultsim.run_concurrent ~drop ~obs u pats);
    ]

(* Deductive dropping must also cut the per-gate propagation work:
   dropped sites are excluded from candidate filtering, so a multi-output
   circuit (where lists stay populated after a first detection) performs
   strictly fewer eval_fn calls under drop. *)
let test_deductive_drop_saves_evals () =
  let nl = Generators.ripple_adder ~style:`Domino 3 in
  let u = Faultsim.universe nl in
  let prng = Prng.create 67 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:100
  in
  List.iter
    (fun (name, run) ->
      let evals drop =
        let sink, fetch = Obs.memory_sink () in
        ignore (run drop (Obs.make sink));
        Option.get (field_int (run_event fetch) "evals")
      in
      check (name ^ ": dropping cuts evals") true (evals true < evals false))
    [
      ("deductive", fun drop obs -> Faultsim.run_deductive ~drop ~obs u pats);
      ("concurrent", fun drop obs -> Faultsim.run_concurrent ~drop ~obs u pats);
    ]

(* The domain clamp: requested domains are a ceiling, cut down to the
   job count and (by default) to the estimated work. *)
let test_domain_clamp () =
  let u = fig9_u () in
  (* 10 sites *)
  let pats = Faultsim.exhaustive_patterns 5 in
  let eff ?min_work_per_domain n =
    let _, st =
      Faultsim.run_domain_parallel_stats ?min_work_per_domain ~num_domains:n u pats
    in
    st.Parallel_exec.effective_domains
  in
  check_i "job clamp: 32 requested, 10 sites" 10 (eff ~min_work_per_domain:0 32);
  check_i "no clamp below job count" 4 (eff ~min_work_per_domain:0 4);
  (* fig9 x 32 patterns is far below the default work threshold: the
     engine must refuse to spawn extra domains for it. *)
  check_i "work clamp collapses a tiny workload" 1 (eff 8);
  let _, st =
    Faultsim.run_domain_parallel_stats ~num_domains:8 ~min_work_per_domain:0 u pats
  in
  check_i "requested recorded" 8 st.Parallel_exec.requested_domains;
  check "work estimate positive" true (st.Parallel_exec.work_estimate > 0)


(* --- Robustness: supervision, limits, checkpoint/resume ---------------------- *)

(* A crash hook that raises for one victim site the first [transients]
   times that site comes up for evaluation.  Keyed on the site id and
   counted atomically, so it serves both the serial engines (hook called
   per pattern) and the domain pool (hook called per job evaluation,
   possibly from several domains). *)
let crashing_hook ~victim ~transients =
  let hits = Atomic.make 0 in
  fun sid ->
    if sid = victim then
      if Atomic.fetch_and_add hits 1 < transients then failwith "injected crash"

let always_crashing ~victim =
  fun sid -> if sid = victim then failwith "injected permanent crash"

let robustness_fixture () =
  let nl =
    Generators.random_monotone ~seed:3 ~n_inputs:8 ~n_gates:30
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let prng = Prng.create 71 in
  let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:100 in
  (u, pats)

let supervised_engines =
  [
    ( "serial/cone",
      fun ~crash_hook u pats ->
        Faultsim.run_serial ~drop:false ~algo:`Cone ~crash_hook u pats );
    ( "serial/full",
      fun ~crash_hook u pats ->
        Faultsim.run_serial ~drop:false ~algo:`Full ~crash_hook u pats );
    ( "parallel/cone",
      fun ~crash_hook u pats ->
        Faultsim.run_parallel ~drop:false ~algo:`Cone ~crash_hook u pats );
    ( "domains/cone",
      fun ~crash_hook u pats ->
        Faultsim.run_domain_parallel ~drop:false ~algo:`Cone ~num_domains:2
          ~min_work_per_domain:0 ~crash_hook u pats );
    ( "domains/full",
      fun ~crash_hook u pats ->
        Faultsim.run_domain_parallel ~drop:false ~algo:`Full ~num_domains:2
          ~min_work_per_domain:0 ~crash_hook u pats );
  ]

(* A site that crashes transiently (fewer times than the attempt budget)
   is retried and the whole summary — including the victim — is
   bit-identical to a clean run, with a [Complete] outcome.  The cone
   variants also exercise the baseline-restore path: a corrupted good
   machine would change *other* sites' results. *)
let test_transient_crash_recovered () =
  let u, pats = robustness_fixture () in
  let clean = Faultsim.run_serial ~drop:false ~algo:`Full u pats in
  let victim = Faultsim.n_sites u / 2 in
  List.iter
    (fun (name, run) ->
      let s = run ~crash_hook:(crashing_hook ~victim ~transients:2) u pats in
      check (name ^ ": complete outcome") true (Outcome.is_complete s.Faultsim.outcome);
      check (name ^ ": bit-identical to clean run") true
        (s.Faultsim.first_detection = clean.Faultsim.first_detection))
    supervised_engines

(* A site that keeps crashing is excluded and reported; every other
   site's detections are identical to the clean run and never lost. *)
let test_permanent_crash_isolated () =
  let u, pats = robustness_fixture () in
  let clean = Faultsim.run_serial ~drop:false ~algo:`Full u pats in
  let victim = 3 in
  List.iter
    (fun (name, run) ->
      let s = run ~crash_hook:(always_crashing ~victim) u pats in
      (match s.Faultsim.outcome with
      | Outcome.Partial { Outcome.failed_sites = [ (sid, msg) ]; stopped = None } ->
          check_i (name ^ ": victim reported") victim sid;
          check (name ^ ": message survives") true (contains msg "injected permanent")
      | _ -> Alcotest.fail (name ^ ": expected exactly one failed site"));
      check (name ^ ": victim slot unset") true (s.Faultsim.first_detection.(victim) = None);
      check (name ^ ": other sites unharmed") true
        (Array.for_all
           (fun i -> i = victim || s.Faultsim.first_detection.(i) = clean.Faultsim.first_detection.(i))
           (Array.init (Faultsim.n_sites u) Fun.id));
      check_i (name ^ ": sites_done excludes victim") (Faultsim.n_sites u - 1)
        s.Faultsim.sites_done;
      check_i (name ^ ": exit code 2") 2 (Outcome.exit_code s.Faultsim.outcome))
    supervised_engines

(* Every engine under every limit kind stops cleanly with the right
   cause, keeps the detections gathered so far (each a verbatim prefix
   fact of the reference run), and reports coverage as a lower bound. *)
type limited_run =
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  Faultsim.universe ->
  bool array array ->
  Faultsim.summary

let limited_engines : (string * limited_run) list =
  [
    ( "serial",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_serial ?deadline ?max_evals ?interrupt u pats );
    ( "parallel",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_parallel ?deadline ?max_evals ?interrupt u pats );
    ( "deductive",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_deductive ?deadline ?max_evals ?interrupt u pats );
    ( "concurrent",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_concurrent ?deadline ?max_evals ?interrupt u pats );
    ( "domains",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_domain_parallel ~num_domains:2 ~min_work_per_domain:0 ?deadline
          ?max_evals ?interrupt u pats );
  ]

let check_partial name reference expected_cause (s : Faultsim.summary) =
  (match s.Faultsim.outcome with
  | Outcome.Partial { Outcome.stopped = Some c; failed_sites = [] } ->
      check (name ^ ": stop cause") true (c = expected_cause)
  | o -> Alcotest.fail (Fmt.str "%s: expected a stopped partial, got %s" name (Outcome.to_string o)));
  (* nothing invented: every detection the partial run reports is the
     reference run's detection for that site *)
  check (name ^ ": detections are a subset of the reference") true
    (Array.for_all2
       (fun p r -> p = None || p = r)
       s.Faultsim.first_detection reference.Faultsim.first_detection);
  check (name ^ ": coverage is a lower bound") true
    (Faultsim.coverage s <= Faultsim.coverage reference);
  check_i (name ^ ": exit code 2") 2 (Outcome.exit_code s.Faultsim.outcome)

let test_deadline_partial () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false ~algo:`Full u pats in
  let past = Unix.gettimeofday () -. 1.0 in
  List.iter
    (fun (name, (run : limited_run)) ->
      check_partial name reference Outcome.Deadline (run ~deadline:past u pats))
    limited_engines

let test_max_evals_partial () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false ~algo:`Full u pats in
  List.iter
    (fun (name, (run : limited_run)) ->
      let s = run ~max_evals:50 u pats in
      check_partial name reference Outcome.Max_evals s;
      check (name ^ ": stopped before the end") true
        (s.Faultsim.patterns_done < Array.length pats))
    limited_engines

let test_interrupt_partial () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false ~algo:`Full u pats in
  List.iter
    (fun (name, (run : limited_run)) ->
      check_partial name reference Outcome.Interrupted
        (run ~interrupt:(fun () -> true) u pats))
    limited_engines

(* An unreachable limit changes nothing: outcome stays [Complete] and the
   summary is bit-identical to the unlimited run. *)
let test_lax_limits_are_free () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false ~algo:`Full u pats in
  List.iter
    (fun (name, (run : limited_run)) ->
      let s =
        run ~deadline:(Unix.gettimeofday () +. 3600.0) ~max_evals:max_int
          ~interrupt:(fun () -> false) u pats
      in
      check (name ^ ": complete") true (Outcome.is_complete s.Faultsim.outcome);
      check (name ^ ": identical results") true
        (s.Faultsim.first_detection = reference.Faultsim.first_detection);
      check_i (name ^ ": exit code 0") 0 (Outcome.exit_code s.Faultsim.outcome))
    limited_engines

(* --- Checkpoint/resume ------------------------------------------------------- *)

let with_temp_checkpoint f =
  let path = Filename.temp_file "dynmos_ckpt" ".dat" in
  Sys.remove path;
  (* engines write it themselves (atomic rename) *)
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* Interrupt a campaign partway, then resume from the checkpoint file:
   the combined runs must be bit-identical to one uninterrupted run, the
   resumed run must be [Complete], and no pattern may be evaluated twice
   (checked through the evals counter for the serial engine). *)
let test_checkpoint_resume_serial () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false u pats in
  List.iter
    (fun algo ->
      with_temp_checkpoint @@ fun path ->
      let ctl = Faultsim.checkpoint_ctl ~path ~interval:7 u pats in
      let s1 = Faultsim.run_serial ~drop:false ~algo ~max_evals:400 ~checkpoint:ctl u pats in
      check "first leg stopped" true (not (Outcome.is_complete s1.Faultsim.outcome));
      check "first leg left a checkpoint" true (Sys.file_exists path);
      let ctl2 = Faultsim.checkpoint_ctl ~path ~interval:7 ~resume:true u pats in
      let s2 = Faultsim.run_serial ~drop:false ~algo ~checkpoint:ctl2 u pats in
      check "resumed leg complete" true (Outcome.is_complete s2.Faultsim.outcome);
      check "combined = uninterrupted" true
        (s2.Faultsim.first_detection = reference.Faultsim.first_detection))
    [ `Cone; `Full ]

let test_checkpoint_resume_domains () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false u pats in
  with_temp_checkpoint @@ fun path ->
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:3 u pats in
  let s1 =
    Faultsim.run_domain_parallel ~drop:false ~num_domains:2 ~min_work_per_domain:0
      ~max_evals:400 ~checkpoint:ctl u pats
  in
  check "first leg stopped" true (not (Outcome.is_complete s1.Faultsim.outcome));
  check "sites-mode progress recorded" true (s1.Faultsim.sites_done < Faultsim.n_sites u);
  let ctl2 = Faultsim.checkpoint_ctl ~path ~interval:3 ~resume:true u pats in
  let s2 =
    Faultsim.run_domain_parallel ~drop:false ~num_domains:2 ~min_work_per_domain:0
      ~checkpoint:ctl2 u pats
  in
  check "resumed leg complete" true (Outcome.is_complete s2.Faultsim.outcome);
  check "combined = uninterrupted" true
    (s2.Faultsim.first_detection = reference.Faultsim.first_detection)

let raises_checkpoint_error f =
  match f () with exception Checkpoint.Error _ -> true | _ -> false

(* Digest pinning: a checkpoint written for one campaign must refuse to
   resume another circuit or pattern set; a pattern-mode file must refuse
   a sites-sweep engine. *)
let test_checkpoint_validation () =
  let u, pats = robustness_fixture () in
  with_temp_checkpoint @@ fun path ->
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:5 u pats in
  ignore (Faultsim.run_serial ~drop:false ~checkpoint:ctl u pats);
  check "resume with other patterns refused" true
    (raises_checkpoint_error (fun () ->
         let prng = Prng.create 999 in
         let other = Faultsim.random_patterns prng ~n_inputs:8 ~count:100 in
         Faultsim.checkpoint_ctl ~path ~interval:5 ~resume:true u other));
  check "resume with another circuit refused" true
    (raises_checkpoint_error (fun () ->
         let u2 = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
         Faultsim.checkpoint_ctl ~path ~interval:5 ~resume:true u2 pats));
  (* mode mismatch: the file is pattern-mode, the domains engine sweeps sites *)
  let ctl2 = Faultsim.checkpoint_ctl ~path ~interval:5 ~resume:true u pats in
  check "pattern-mode file refused by the sites-sweep engine" true
    (raises_checkpoint_error (fun () ->
         Faultsim.run_domain_parallel ~num_domains:1 ~min_work_per_domain:0
           ~checkpoint:ctl2 u pats))

(* A crash-torn checkpoint (truncated mid-write would only ever be the
   .tmp file thanks to the atomic rename, but disks corrupt too) is
   detected by the checksum trailer and reported as truncation, never
   parsed into a half-resumed campaign. *)
let test_checkpoint_truncation_detected () =
  let u, pats = robustness_fixture () in
  with_temp_checkpoint @@ fun path ->
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:5 u pats in
  ignore (Faultsim.run_serial ~drop:false ~checkpoint:ctl u pats);
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 17));
  close_out oc;
  match Checkpoint.load path with
  | exception Checkpoint.Error msg ->
      check "reported as truncation/corruption" true
        (contains msg "truncated" || contains msg "checksum")
  | _ -> Alcotest.fail "truncated checkpoint must not load"

(* QCheck: checkpoint round-trip on random circuits — stop a campaign
   with a tiny evaluation budget, resume from the file, and the combined
   detections are bit-identical to an uninterrupted run, for both
   injection algorithms and for the sites-sweep domains engine. *)
let qcheck_checkpoint_roundtrip =
  QCheck2.Test.make ~name:"checkpoint resume is bit-identical" ~count:15
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 4 8))
    (fun (seed, n_inputs) ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs ~n_gates:15
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let prng = Prng.create seed in
      let pats = Faultsim.random_patterns prng ~n_inputs ~count:60 in
      let reference = Faultsim.run_serial ~drop:false u pats in
      let roundtrip run =
        with_temp_checkpoint @@ fun path ->
        let ctl = Faultsim.checkpoint_ctl ~path ~interval:2 u pats in
        ignore (run ~max_evals:(Some 60) ~checkpoint:ctl u pats);
        let ctl2 = Faultsim.checkpoint_ctl ~path ~interval:2 ~resume:true u pats in
        let s = run ~max_evals:None ~checkpoint:ctl2 u pats in
        Outcome.is_complete s.Faultsim.outcome
        && s.Faultsim.first_detection = reference.Faultsim.first_detection
      in
      List.for_all roundtrip
        [
          (fun ~max_evals ~checkpoint u pats ->
            Faultsim.run_serial ~drop:false ~algo:`Cone ?max_evals ~checkpoint u pats);
          (fun ~max_evals ~checkpoint u pats ->
            Faultsim.run_serial ~drop:false ~algo:`Full ?max_evals ~checkpoint u pats);
          (fun ~max_evals ~checkpoint u pats ->
            Faultsim.run_parallel ~drop:false ~algo:`Cone ?max_evals ~checkpoint u pats);
          (fun ~max_evals ~checkpoint u pats ->
            Faultsim.run_domain_parallel ~drop:false ~num_domains:2 ~min_work_per_domain:0
              ?max_evals ~checkpoint u pats);
        ])

(* --- Diagnosis ------------------------------------------------------------- *)

let test_diagnosis_dictionary () =
  let u = fig9_u () in
  let pats = Faultsim.exhaustive_patterns 5 in
  let dict = Diagnosis.dictionary u pats in
  (* the exhaustive dictionary resolves every class down to itself *)
  Array.iter
    (fun site ->
      match Diagnosis.diagnose_site dict site with
      | [ s ] -> check_i "unique diagnosis" site.Faultsim.sid s.Faultsim.sid
      | l -> Alcotest.fail (Fmt.str "ambiguous diagnosis (%d candidates)" (List.length l)))
    u.Faultsim.sites;
  (* the fault-free machine is recognized as such *)
  let good = Array.map (fun p -> Diagnosis.pack_outputs (Dynmos_sim.Compiled.eval u.Faultsim.compiled p)) pats in
  check "fault-free recognized" true (Diagnosis.looks_fault_free dict good);
  check "fault-free diagnoses to nothing" true (Diagnosis.diagnose dict good = [])

let test_diagnosis_distinguishable () =
  (* The Section-5 table's classes are mutually distinguishable — that is
     what makes them *classes*. *)
  let u = fig9_u () in
  check "fig9 classes pairwise distinguishable" true (Diagnosis.pairwise_distinguishable u);
  (* two specific classes and their separating pattern *)
  let site_of cid =
    Array.to_list u.Faultsim.sites
    |> List.find (fun s -> s.Faultsim.entry.Faultlib.class_id = cid)
  in
  match Diagnosis.distinguishing_pattern u (site_of 9) (site_of 10) with
  | Some _ -> check "stuck-0 vs stuck-1 separable" true true
  | None -> Alcotest.fail "expected distinguishing pattern"

let test_diagnosis_groups () =
  let u = fig9_u () in
  (* With a single pattern, most classes are indistinguishable; groups
     must partition all sites. *)
  let dict1 = Diagnosis.dictionary u [| [| true; true; false; false; false |] |] in
  let groups = Diagnosis.equivalence_groups dict1 in
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  check_i "partition covers all sites" (Faultsim.n_sites u) total;
  check "coarser than exhaustive" true (List.length groups < Faultsim.n_sites u)

let test_diagnosing_patterns () =
  let u = fig9_u () in
  let pats, groups = Diagnosis.diagnosing_patterns u in
  (* greedy adaptive set: a handful of vectors fully separates the 10
     classes of fig9 (they are pairwise distinguishable) *)
  check "all groups singleton" true (List.for_all (fun g -> List.length g = 1) groups);
  check "compact set" true (Array.length pats <= 10);
  (* and it really diagnoses *)
  let dict = Diagnosis.dictionary u pats in
  Array.iter
    (fun site ->
      match Diagnosis.diagnose_site dict site with
      | [ s ] -> check_i "unique" site.Faultsim.sid s.Faultsim.sid
      | _ -> Alcotest.fail "ambiguous under diagnosing set")
    u.Faultsim.sites

(* --- Propagation engines (flat fault-list kernels) --------------------------- *)

let gate_evals_of run =
  let sink, fetch = Obs.memory_sink () in
  ignore (run (Obs.make sink));
  Option.get (field_int (run_event fetch) "gate_evals")

(* The propagation kernels' work counter is part of their contract: one
   unit per candidate or local-site evaluation of a live site.  Pinned to
   the figures of the set/map-based kernels the flat-pool kernels
   replaced, so a rewrite that changes the algorithm (not just its cost
   per evaluation) fails here. *)
let test_propagation_gate_evals_pinned () =
  let nl = match Catalog.find "rand60" with Ok nl -> nl | Error e -> Alcotest.fail e in
  let u = Faultsim.universe nl in
  let pats = Faultsim.random_patterns (Prng.create 71) ~n_inputs:12 ~count:200 in
  List.iter
    (fun (drop, expected) ->
      List.iter
        (fun (algo_name, algo) ->
          check_i
            (Fmt.str "deductive drop=%b %s" drop algo_name)
            expected
            (gate_evals_of (fun obs -> Faultsim.run_deductive ~drop ~algo ~obs u pats));
          check_i
            (Fmt.str "concurrent drop=%b %s" drop algo_name)
            expected
            (gate_evals_of (fun obs -> Faultsim.run_concurrent ~drop ~algo ~obs u pats)))
        [ ("cone", `Cone); ("full", `Full) ])
    [ (true, 25273); (false, 97610) ]

(* rand1k without dropping carries more list entries per pattern than
   the fault-list pool's initial capacity (one entry per net), so the
   pool grows mid-pattern; results must not notice. *)
let test_propagation_pool_growth () =
  let nl = match Catalog.find "rand1k" with Ok nl -> nl | Error e -> Alcotest.fail e in
  let u = Faultsim.universe nl in
  let pats = Faultsim.random_patterns (Prng.create 71) ~n_inputs:32 ~count:124 in
  let reference = (Faultsim.run_parallel ~drop:false u pats).Faultsim.first_detection in
  check "deductive = bit-parallel" true
    ((Faultsim.run_deductive ~drop:false u pats).Faultsim.first_detection = reference);
  check "concurrent = bit-parallel" true
    ((Faultsim.run_concurrent ~drop:false u pats).Faultsim.first_detection = reference)

(* QCheck: deductive, concurrent and bit-parallel give equal first
   detections on random layered circuits.  A window >= 2 lets a gate draw
   several inputs from a shared upstream region, so reconvergent fanout
   puts one site on several inputs of a gate (multi-bit input masks). *)
let qcheck_propagation_differential =
  QCheck2.Test.make ~name:"deductive = concurrent = bit-parallel on layered circuits"
    ~count:25
    QCheck2.Gen.(
      pair (pair (int_range 1 1000) (int_range 2 8)) (triple (int_range 2 10) (int_range 1 5) (int_range 2 4)))
    (fun ((seed, n_inputs), (width, depth, window)) ->
      let nl =
        Generators.random_layered ~seed ~n_inputs ~width ~depth ~window
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let pats = Faultsim.random_patterns (Prng.create seed) ~n_inputs ~count:70 in
      let reference = (Faultsim.run_parallel ~drop:false u pats).Faultsim.first_detection in
      List.for_all
        (fun (drop, algo) ->
          (Faultsim.run_deductive ~drop ~algo u pats).Faultsim.first_detection = reference
          && (Faultsim.run_concurrent ~drop ~algo u pats).Faultsim.first_detection = reference
          && (Faultsim.run_parallel ~drop ~algo u pats).Faultsim.first_detection = reference)
        [ (false, `Cone); (false, `Full); (true, `Cone); (true, `Full) ])

(* QCheck: structural properties of the compile-time fanout analysis on
   random circuits — every cone starts with its own gate, is strictly
   ascending (= topologically ordered, since gate ids are a topological
   order), is transitively closed over the consumer relation, and
   reachable_outputs is exactly the set of POs driven from cone gates. *)
let qcheck_cone_structure =
  QCheck2.Test.make ~name:"fanout cones closed, ordered, PO-consistent" ~count:30
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 4 8))
    (fun (seed, n_inputs) ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs ~n_gates:15
          ~technology:Technology.Domino_cmos ()
      in
      let c = Compiled.compile nl in
      let n_g = Compiled.n_gates c in
      let n_in = Compiled.n_inputs c in
      let cg = Compiled.gates c in
      let po = Compiled.po_indices c in
      let sorted a =
        let a = Array.copy a in
        Array.sort compare a;
        a
      in
      let ok = ref true in
      let widest = ref 0 in
      for g0 = 0 to n_g - 1 do
        let cone = Compiled.fanout_cone c g0 in
        widest := max !widest (Array.length cone);
        if Array.length cone = 0 || cone.(0) <> g0 then ok := false;
        for i = 1 to Array.length cone - 1 do
          if cone.(i) <= cone.(i - 1) then ok := false
        done;
        let mem = Array.make n_g false in
        Array.iter (fun g -> mem.(g) <- true) cone;
        (* closure: any gate consuming a cone member's output is a member *)
        Array.iter
          (fun g ->
            let out = cg.(g).Compiled.out in
            Array.iteri
              (fun h ch ->
                if Array.exists (( = ) out) ch.Compiled.ins && not mem.(h) then ok := false)
              cg)
          cone;
        (* reachable outputs = the PO positions driven by cone gates *)
        let expected = ref [] in
        Array.iteri
          (fun k p -> if p >= n_in && mem.(p - n_in) then expected := k :: !expected)
          po;
        if
          sorted (Compiled.reachable_outputs c g0)
          <> sorted (Array.of_list !expected)
        then ok := false
      done;
      !ok && !widest = Compiled.max_cone_size c)

(* QCheck: PPSFP differential — first detections equal the bit-parallel
   engine's on random circuits x random group sizes, for both algorithms
   and both drop settings. *)
let qcheck_ppsfp_differential =
  QCheck2.Test.make ~name:"ppsfp = bit-parallel on random circuits x group sizes"
    ~count:25
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 4 8) (int_range 1 12))
    (fun (seed, n_inputs, group) ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs ~n_gates:14
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let prng = Prng.create (seed + group) in
      let pats = Faultsim.random_patterns prng ~n_inputs ~count:70 in
      let reference = Faultsim.run_parallel ~drop:false u pats in
      List.for_all
        (fun (drop, algo) ->
          (Faultsim.run_ppsfp ~drop ~algo ~group u pats).Faultsim.first_detection
          = reference.Faultsim.first_detection)
        [ (false, `Cone); (false, `Full); (true, `Cone); (true, `Full) ])

(* QCheck: engine agreement on random monotone circuits and patterns. *)
let qcheck_engines =
  QCheck2.Test.make ~name:"engines agree on random circuits" ~count:20
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 4 8))
    (fun (seed, n_inputs) ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs ~n_gates:10
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let prng = Prng.create seed in
      let pats = Faultsim.random_patterns prng ~n_inputs ~count:50 in
      engines_agree u pats)

let () =
  Alcotest.run "faultsim"
    [
      ( "universe",
        [
          Alcotest.test_case "fig9 sites" `Quick test_universe_fig9;
          Alcotest.test_case "library sharing" `Quick test_universe_shares_libraries;
          Alcotest.test_case "single detection" `Quick test_detects;
          Alcotest.test_case "structural validation" `Quick test_validate_universe;
          Alcotest.test_case "gate restriction" `Quick test_restrict_universe;
        ] );
      ( "engines",
        [
          Alcotest.test_case "agree on fig9 (exhaustive)" `Quick test_engines_agree_fig9;
          Alcotest.test_case "agree on benchmarks" `Quick test_engines_agree_benchmarks;
          Alcotest.test_case "agree at word-boundary pattern counts" `Quick
            test_engines_agree_edge_counts;
          Alcotest.test_case "agree on multi-output circuits" `Quick
            test_engines_agree_multi_output;
          Alcotest.test_case "exhaustive full coverage" `Quick test_exhaustive_full_coverage;
          Alcotest.test_case "coverage monotone in patterns" `Quick test_more_patterns_dont_hurt;
          Alcotest.test_case "fault dropping consistent" `Quick test_drop_consistency;
        ] );
      ( "fanout-cone",
        [
          Alcotest.test_case "reconvergent circuit" `Quick test_cone_reconvergent;
          Alcotest.test_case "reconvergent random circuits" `Quick test_cone_reconvergent_random;
          Alcotest.test_case "propagation engines: cone = full" `Quick
            test_propagation_cone_differential;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "gate_evals pinned on rand60" `Quick
            test_propagation_gate_evals_pinned;
          Alcotest.test_case "fault-list pool growth on rand1k" `Quick
            test_propagation_pool_growth;
          QCheck_alcotest.to_alcotest qcheck_propagation_differential;
        ] );
      ( "domain-parallel",
        [
          Alcotest.test_case "equal across domain counts" `Quick test_domain_counts_equal;
          Alcotest.test_case "drop/no-drop identical" `Quick test_domain_drop_semantics;
          Alcotest.test_case "degenerate shapes" `Quick test_domain_empty_universe;
        ] );
      ( "ppsfp",
        [
          Alcotest.test_case "group sizes all agree" `Quick test_ppsfp_group_sizes;
          Alcotest.test_case "compaction never re-simulates" `Quick
            test_ppsfp_compaction_never_resimulates;
          Alcotest.test_case "restricted universes" `Quick test_ppsfp_restricted_universe;
          Alcotest.test_case "rand1k: all engines = bit-parallel" `Quick
            test_scale_differential;
          Alcotest.test_case "word matrix = scalar evaluator" `Quick
            test_word_matrix_matches_scalar;
        ] );
      ( "results",
        [
          Alcotest.test_case "coverage curve" `Quick test_coverage_curve;
          Alcotest.test_case "weighted patterns" `Quick test_weighted_patterns;
          Alcotest.test_case "exhaustive patterns" `Quick test_exhaustive_patterns;
        ] );
      ( "validation",
        [
          Alcotest.test_case "exhaustive bounds" `Quick test_exhaustive_bounds;
          Alcotest.test_case "random_patterns arguments" `Quick test_random_patterns_validation;
        ] );
      ( "observability",
        [
          Alcotest.test_case "obs on/off parity" `Quick test_obs_parity;
          Alcotest.test_case "eval counters reconcile with serial" `Quick
            test_obs_eval_reconciliation;
          Alcotest.test_case "unified totals across engines" `Quick
            test_unified_accounting_totals;
          Alcotest.test_case "cone cuts gate evals, not invocations" `Quick test_cone_gate_evals;
          Alcotest.test_case "all-detected early exit accounting" `Quick
            test_early_exit_accounting;
          Alcotest.test_case "deductive/concurrent dropping cuts evals" `Quick
            test_deductive_drop_saves_evals;
          Alcotest.test_case "domain clamp" `Quick test_domain_clamp;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "transient crashes recovered" `Quick
            test_transient_crash_recovered;
          Alcotest.test_case "permanent crashes isolated" `Quick
            test_permanent_crash_isolated;
          Alcotest.test_case "deadline stops cleanly" `Quick test_deadline_partial;
          Alcotest.test_case "eval budget stops cleanly" `Quick test_max_evals_partial;
          Alcotest.test_case "interrupt stops cleanly" `Quick test_interrupt_partial;
          Alcotest.test_case "lax limits change nothing" `Quick test_lax_limits_are_free;
          Alcotest.test_case "checkpoint/resume serial" `Quick test_checkpoint_resume_serial;
          Alcotest.test_case "checkpoint/resume domains" `Quick
            test_checkpoint_resume_domains;
          Alcotest.test_case "checkpoint digests pin the campaign" `Quick
            test_checkpoint_validation;
          Alcotest.test_case "truncated checkpoint detected" `Quick
            test_checkpoint_truncation_detected;
        ] );
      ( "diagnosis",
        [
          Alcotest.test_case "exhaustive dictionary" `Quick test_diagnosis_dictionary;
          Alcotest.test_case "pairwise distinguishable" `Quick test_diagnosis_distinguishable;
          Alcotest.test_case "equivalence groups" `Quick test_diagnosis_groups;
          Alcotest.test_case "adaptive diagnosing set" `Quick test_diagnosing_patterns;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_engines;
          QCheck_alcotest.to_alcotest qcheck_ppsfp_differential;
          QCheck_alcotest.to_alcotest qcheck_cone_structure;
          QCheck_alcotest.to_alcotest qcheck_checkpoint_roundtrip;
        ] );
    ]
