(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus two extensions (see EXPERIMENTS.md, index E1..E16) and
   times the core computations with Bechamel (one Test.make per
   experiment).

   Usage:
     dune exec bench/main.exe                    run every experiment
     dune exec bench/main.exe -- e5 e8           run selected experiments
     dune exec bench/main.exe -- --no-bechamel   skip the timing suite
     dune exec bench/main.exe -- e17 --tiny      E17 CI smoke (small sizes) *)

open Dynmos_util
open Dynmos_expr
open Dynmos_cell
open Dynmos_core
open Dynmos_netlist
open Dynmos_sim
open Dynmos_faultsim
open Dynmos_protest
open Dynmos_atpg
open Dynmos_circuits
module Chaos = Dynmos_chaos.Chaos

let pf = Format.printf

let header id title = pf "@.==== %s: %s ====@." (String.uppercase_ascii id) title

(* ---------------------------------------------------------------------- *)
(* E1 — Fig. 1: the faulty static CMOS NOR function table                  *)
(* ---------------------------------------------------------------------- *)

let e1 () =
  let nor = Stdcells.fig1_nor in
  let fault = Fault.Network_open 1 in
  pf "Static CMOS NOR, pull-down transistor of input A open.@.";
  pf "  A B | Z(t+d) good | Z(t+d) faulty@.";
  List.iter
    (fun (a, b) ->
      let good = snd (Charge_sim.static_step nor Charge_sim.static_initial [ a; b ]) in
      let f0 =
        snd
          (Charge_sim.static_step ~fault nor { Charge_sim.out = Charge_sim.Driven false } [ a; b ])
      in
      let f1 =
        snd
          (Charge_sim.static_step ~fault nor { Charge_sim.out = Charge_sim.Driven true } [ a; b ])
      in
      let faulty = if Logic.equal f0 f1 then String.make 1 (Logic.to_char f0) else "Z(t)" in
      pf "  %d %d |      %c      |     %s@." (Bool.to_int a) (Bool.to_int b) (Logic.to_char good)
        faulty)
    [ (false, false); (false, true); (true, false); (true, true) ];
  pf "  paper column: 1, 0, Z(t), 0 — sequential behaviour at A=1,B=0.@."

(* ---------------------------------------------------------------------- *)
(* E2 — Fig. 2: performance degradation by a stuck-closed pull-up          *)
(* ---------------------------------------------------------------------- *)

let e2 () =
  let inv = Stdcells.fig2_inverter in
  pf "Static CMOS inverter, T1 (pull-up) permanently closed; behaviour vs@.";
  pf "resistance ratio R(T1)/R(T2):@.";
  pf "  %8s | %-14s | %s@." "ratio" "classification" "effect";
  List.iter
    (fun ratio ->
      let electrical =
        {
          Fault_map.default_electrical with
          Fault_map.r_inverter_p = ratio;
          r_inverter_n = 1.0;
          delay_factor = Float.max 1.5 (2.0 *. ratio);
        }
      in
      match Fault_map.map ~electrical inv (Fault.Pullup_closed 1) with
      | Fault_map.Combinational f when Truth_table.equal_exprs f Expr.true_ ->
          pf "  %8.2f | %-14s | output stuck high (pull-up wins the fight)@." ratio "s1-z"
      | Fault_map.Combinational f ->
          pf "  %8.2f | %-14s | faulty function z = %s@." ratio "combinational"
            (Expr.to_string f)
      | Fault_map.Contention { resolves_to; factor; _ } ->
          pf "  %8.2f | %-14s | pull-down inverter z = %s, t_HL x%.1f@." ratio "degradation"
            (Expr.to_string resolves_to) factor
      | Fault_map.Delay { factor; _ } -> pf "  %8.2f | %-14s | x%.1f slower@." ratio "delay" factor
      | Fault_map.Sequential _ -> pf "  %8.2f | %-14s |@." ratio "sequential")
    [ 0.1; 0.2; 0.45; 1.0; 2.0; 5.0; 10.0 ];
  pf "  paper: R(T1) > R(T2) turns the gate into a pull down inverter with a@.";
  pf "  longer high-to-low delay; only a timing-aware model can test it.@."

(* ---------------------------------------------------------------------- *)
(* E3 — Section 3: the dynamic nMOS fault classes nMOS-1 .. nMOS-(2n+2)    *)
(* ---------------------------------------------------------------------- *)

let classify cell logical =
  match logical with
  | Fault_map.Combinational f ->
      if Truth_table.equal_exprs f Expr.false_ then "s0-z"
      else if Truth_table.equal_exprs f Expr.true_ then "s1-z"
      else Fmt.str "%s = %s" (Cell.output cell) (Minimize.minimize_to_string f)
  | Fault_map.Delay { observed_as = None; _ } -> "delay (possibly undetectable)"
  | Fault_map.Delay { observed_as = Some f; _ } ->
      Fmt.str "delay, seen as %s = %s at max speed" (Cell.output cell)
        (Minimize.minimize_to_string f)
  | Fault_map.Sequential _ -> "SEQUENTIAL"
  | Fault_map.Contention _ -> "contention"

let e3 () =
  let cell = Stdcells.nand 3 Technology.Dynamic_nmos in
  pf "Dynamic nMOS gate (Fig. 6), n = 3, T = a*b*c, z = !T.@.";
  pf "  %-10s %-26s %s@." "label" "fault" "logical effect";
  List.iter
    (fun f ->
      pf "  %-10s %-26s %s@."
        (Option.value ~default:"-" (Fault.paper_label cell f))
        (Fault.describe cell f)
        (classify cell (Fault_map.map cell f)))
    (Fault.enumerate cell);
  let seq =
    List.filter (fun f -> not (Charge_sim.nmos_combinational ~fault:f cell)) (Fault.enumerate cell)
  in
  pf "  charge-level check: %d of %d faults sequential (paper claims 0).@." (List.length seq)
    (List.length (Fault.enumerate cell));
  let open_class = classify cell (Fault_map.map cell Fault.Precharge_open) in
  let closed_class = classify cell (Fault_map.map cell Fault.Precharge_closed) in
  pf "  precharge open -> %s, precharge closed -> %s (same class: %b)@." open_class closed_class
    (String.equal open_class closed_class)

(* ---------------------------------------------------------------------- *)
(* E4 — Section 3: the domino CMOS fault classes CMOS-1 .. CMOS-4          *)
(* ---------------------------------------------------------------------- *)

let e4 () =
  let cell = Stdcells.fig9 in
  let dump label electrical =
    pf "  [%s devices]@." label;
    List.iter
      (fun f ->
        pf "    %-8s %-18s %s@."
          (Option.value ~default:"-" (Fault.paper_label cell f))
          (Fault.describe cell f)
          (classify cell (Fault_map.map ~electrical cell f)))
      [
        Fault.Evaluate_closed;
        Fault.Evaluate_open;
        Fault.Precharge_closed;
        Fault.Precharge_open;
        Fault.Inverter_p_open;
        Fault.Inverter_n_open;
        Fault.Inverter_p_closed;
        Fault.Inverter_n_closed;
      ]
  in
  pf "Domino CMOS gate (Fig. 4) clocking and inverter faults:@.";
  dump "strong restoring" Fault_map.default_electrical;
  dump "weak restoring" Fault_map.weak_electrical;
  let seq =
    List.filter
      (fun f -> not (Charge_sim.domino_combinational ~fault:f cell))
      (Fault.enumerate cell)
  in
  pf "  charge-level check over all %d faults: %d sequential (paper claims 0).@."
    (List.length (Fault.enumerate cell))
    (List.length seq)

(* ---------------------------------------------------------------------- *)
(* E5 — Section 5: the Fig. 9 fault-class table                            *)
(* ---------------------------------------------------------------------- *)

let e5 () =
  let lib = Faultlib.generate Stdcells.fig9 in
  Faultlib.pp_table Format.std_formatter lib;
  pf "  (paper: 10 distinguishable classes; class 3 = {b,c closed},@.";
  pf "   class 7 = {d,e open}, class 9 = {CMOS-2, CMOS-3}, class 10 = CMOS-4)@."

(* ---------------------------------------------------------------------- *)
(* E6 — PROTEST: signal probability estimation                             *)
(* ---------------------------------------------------------------------- *)

let e6 () =
  pf "Estimated (independence assumption) vs exact signal probabilities:@.";
  pf "  %-18s %8s %9s %9s@." "circuit" "nets" "max err" "mean err";
  List.iter
    (fun nl ->
      let c = Compiled.compile nl in
      let w = Array.make (Compiled.n_inputs c) 0.5 in
      let max_err, mean_err = Signal_prob.estimator_error c ~pi_weights:w in
      pf "  %-18s %8d %9.4f %9.4f@." (Netlist.name nl) (Compiled.n_nets c) max_err mean_err)
    [
      Generators.and_tree ~technology:Technology.Domino_cmos 8;
      Generators.carry_chain ~technology:Technology.Domino_cmos 6;
      Generators.c17 ~style:`Static ();
      Generators.c17 ~style:`Domino ();
      Generators.parity ~style:`Domino 5;
      Generators.ripple_adder ~style:`Domino 2;
    ];
  pf "  fan-out-free circuits are exact; reconvergence introduces the error.@."

(* ---------------------------------------------------------------------- *)
(* E7 — PROTEST: detection probabilities and necessary test length          *)
(* ---------------------------------------------------------------------- *)

let e7 () =
  pf "Necessary random-test length for a demanded confidence:@.";
  pf "  %-18s %6s %9s | %8s %8s %8s@." "circuit" "faults" "p_min" "c=0.99" "c=0.999" "c=0.9999";
  List.iter
    (fun nl ->
      let u = Faultsim.universe nl in
      let w = Array.make (Compiled.n_inputs u.Faultsim.compiled) 0.5 in
      let probs = Detect_prob.exact u ~pi_weights:w in
      let p_min = Array.fold_left Float.min 1.0 probs in
      let len c = Test_length.required_length ~confidence:c probs in
      pf "  %-18s %6d %9.5f | %8d %8d %8d@." (Netlist.name nl) (Faultsim.n_sites u) p_min
        (len 0.99) (len 0.999) (len 0.9999))
    [
      Generators.fig9_network ();
      Generators.c17 ~style:`Domino ();
      Generators.carry_chain ~technology:Technology.Domino_cmos 6;
      Generators.ripple_adder ~style:`Domino 2;
      Generators.wide_and ~technology:Technology.Domino_cmos 12;
    ]

(* ---------------------------------------------------------------------- *)
(* E8 — PROTEST: optimized input signal probabilities                       *)
(* ---------------------------------------------------------------------- *)

let e8 () =
  pf "Test length at uniform p=0.5 vs PROTEST-optimized probabilities@.";
  pf "(confidence 0.999):@.";
  pf "  %-18s %10s %10s %10s@." "circuit" "uniform" "optimized" "reduction";
  List.iter
    (fun (nl, objective) ->
      let u = Faultsim.universe nl in
      let r = Optimize.run ~objective ~confidence:0.999 u in
      match (r.Optimize.initial_length, r.Optimize.optimized_length) with
      | Some a, Some b ->
          pf "  %-18s %10d %10d %9.0fx@." (Netlist.name nl) a b
            (float_of_int a /. float_of_int (max 1 b))
      | _ -> pf "  %-18s (undetectable fault)@." (Netlist.name nl))
    [
      (Generators.wide_and ~technology:Technology.Domino_cmos 8, Optimize.Exact);
      (Generators.wide_and ~technology:Technology.Domino_cmos 12, Optimize.Exact);
      (Generators.wide_and ~technology:Technology.Domino_cmos 16, Optimize.Estimated);
      (Generators.carry_chain ~technology:Technology.Domino_cmos 8, Optimize.Estimated);
    ];
  pf "  paper: 'the necessary test length can be reduced by orders of@.";
  pf "  magnitudes' — the wide-AND family shows the >= 100x shape.@."

(* ---------------------------------------------------------------------- *)
(* E9 — Assumptions A1/A2                                                   *)
(* ---------------------------------------------------------------------- *)

let e9 () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 6 in
  let c = Compiled.compile nl in
  let n_in = Compiled.n_inputs c in
  let n_nets = Compiled.n_nets c in
  pf "A2 requires every node charged and discharged at least once.@.";
  pf "Probability (100 trials) that k uniform random patterns achieve it@.";
  pf "on the %d-net domino carry chain:@." n_nets;
  let prng = Prng.create 2718 in
  List.iter
    (fun k ->
      let success = ref 0 in
      for _ = 1 to 100 do
        let seen1 = Array.make n_nets false in
        let seen0 = Array.make n_nets false in
        for _ = 1 to k do
          let pi = Array.init n_in (fun _ -> Prng.bool prng) in
          let nets = Compiled.eval_nets c pi in
          Array.iteri (fun i v -> if v then seen1.(i) <- true else seen0.(i) <- true) nets
        done;
        let all = ref true in
        for i = 0 to n_nets - 1 do
          if not (seen1.(i) && seen0.(i)) then all := false
        done;
        if !all then incr success
      done;
      pf "  k = %4d : %3d%%@." k !success)
    [ 2; 4; 8; 16; 32; 64 ];
  let u = Faultsim.universe nl in
  let r = Podem.generate_set u in
  let doubled = Podem.schedule_double r.Podem.vectors in
  let seen1 = Array.make n_nets false and seen0 = Array.make n_nets false in
  Array.iter
    (fun pi ->
      let nets = Compiled.eval_nets c pi in
      Array.iteri (fun i v -> if v then seen1.(i) <- true else seen0.(i) <- true) nets)
    doubled;
  let all = Array.for_all2 (fun a b -> a && b) seen1 seen0 in
  pf "  PODEM set (%d vectors) applied twice satisfies A2: %b@."
    (Array.length r.Podem.vectors) all

(* ---------------------------------------------------------------------- *)
(* E10 — random vs deterministic test ("as efficient as ATPG")              *)
(* ---------------------------------------------------------------------- *)

let e10 () =
  let nl = Generators.wide_and ~technology:Technology.Domino_cmos 12 in
  let u = Faultsim.universe nl in
  let n_in = Compiled.n_inputs u.Faultsim.compiled in
  let report = Protest.analyze ~confidence:0.999 ~optimize:true nl in
  let opt_weights =
    match report.Protest.optimization with
    | Some o -> o.Optimize.optimized_weights
    | None -> Array.make n_in 0.5
  in
  let podem = Podem.generate_set u in
  let budgets = [ 8; 32; 128; 512; 2048; 8192 ] in
  pf "Fault coverage vs pattern count on %s (%d sites):@." (Netlist.name nl)
    (Faultsim.n_sites u);
  pf "  %8s | %14s %16s %8s@." "patterns" "uniform random" "optimized random" "PODEM";
  let prng_u = Prng.create 5 in
  let prng_o = Prng.create 5 in
  let uniform = Faultsim.random_patterns prng_u ~n_inputs:n_in ~count:8192 in
  let optimized =
    Faultsim.random_patterns ~weights:opt_weights prng_o ~n_inputs:n_in ~count:8192
  in
  List.iter
    (fun k ->
      let cov pats n = Faultsim.coverage (Faultsim.run_parallel u (Array.sub pats 0 n)) in
      let podem_cov =
        let n = min k (Array.length podem.Podem.vectors) in
        Faultsim.coverage (Faultsim.run_parallel u (Array.sub podem.Podem.vectors 0 n))
      in
      pf "  %8d | %13.1f%% %15.1f%% %7.1f%%@." k
        (100.0 *. cov uniform k)
        (100.0 *. cov optimized k)
        (100.0 *. podem_cov))
    budgets;
  pf "  PODEM set size: %d vectors.  The deterministic set is far shorter, but@."
    (Array.length podem.Podem.vectors);
  pf "  optimized random reaches full coverage orders of magnitude before@.";
  pf "  uniform random — and needs no search, only the weighted generator.@."

(* ---------------------------------------------------------------------- *)
(* E11 — fault library generation speed                                     *)
(* ---------------------------------------------------------------------- *)

let library_cells =
  [
    Stdcells.and_gate 2 Technology.Domino_cmos;
    Stdcells.or_gate 3 Technology.Domino_cmos;
    Stdcells.fig9;
    Stdcells.ao ~groups:[ 2; 2; 2 ] Technology.Domino_cmos;
    Stdcells.ao ~groups:[ 3; 3; 2 ] Technology.Domino_cmos;
    Stdcells.oa ~groups:[ 3; 3; 3; 3 ] Technology.Domino_cmos;
  ]

let e11 () =
  pf "Fault library generation ('a few seconds for a normal sized gate,@.";
  pf "less than 12 transistors of the switching net' on 1986 hardware):@.";
  pf "  %-14s %11s %7s %7s %12s@." "cell" "transistors" "faults" "classes" "time";
  List.iter
    (fun cell ->
      (* Wall clock, like every other timing in this harness (Sys.time is
         CPU time and disagrees once domains are involved). *)
      let t0 = Unix.gettimeofday () in
      let reps = 50 in
      let lib = ref (Faultlib.generate cell) in
      for _ = 2 to reps do
        lib := Faultlib.generate cell
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
      pf "  %-14s %11d %7d %7d %9.3f ms@." (Cell.name cell) (Cell.n_transistors cell)
        !lib.Faultlib.n_faults (Faultlib.n_classes !lib) (1000.0 *. dt))
    library_cells;
  pf "  (timing distributions in the Bechamel section below)@."

(* ---------------------------------------------------------------------- *)
(* E12 — Fig. 5: no races and spikes in domino networks                     *)
(* ---------------------------------------------------------------------- *)

let e12 () =
  pf "Transition counting, same function in both styles, 64 input changes:@.";
  pf "  %-10s | %13s %13s | %13s %13s@." "function" "static trans" "static glitch"
    "domino trans" "domino glitch";
  List.iter
    (fun (name, bn) ->
      let n = Boolnet.n_inputs bn in
      let cs = Compiled.compile (Boolnet.to_static bn) in
      let sim = Event_sim.create cs in
      Event_sim.settle sim (Array.make n false);
      let st = ref 0 and sg = ref 0 in
      for row = 0 to 63 do
        let pi = Array.init n (fun i -> ((row * 37) lsr i) land 1 = 1) in
        let tr, _ = Event_sim.apply sim pi in
        st := !st + Event_sim.total_gate_transitions sim tr;
        sg := !sg + Event_sim.glitch_count tr
      done;
      let cd = Compiled.compile (Boolnet.to_domino_dual_rail bn) in
      let dt = ref 0 and dg = ref 0 in
      for row = 0 to 63 do
        let pi = Array.init n (fun i -> ((row * 37) lsr i) land 1 = 1) in
        let tr, _ = Event_sim.domino_evaluate cd (Boolnet.dual_rail_vector bn pi) in
        Array.iteri
          (fun i t ->
            if i >= Compiled.n_inputs cd then begin
              dt := !dt + t;
              if t > 1 then incr dg
            end)
          tr
      done;
      pf "  %-10s | %13d %13d | %13d %13d@." name !st !sg !dt !dg)
    [
      ("parity6", Generators.parity_boolnet 6);
      ("adder2", Generators.ripple_adder_boolnet 2);
      ("mux2", Generators.mux_tree_boolnet 2);
      ("c17", Generators.c17_boolnet ());
    ];
  pf "  domino glitch count is structurally zero: monotone evaluation@.";
  pf "  ('races and spikes cannot occur', Fig. 5).@."

(* ---------------------------------------------------------------------- *)
(* E13 — Section 4(b): leakage measurement vs at-speed self test            *)
(* ---------------------------------------------------------------------- *)

let e13 () =
  pf "One bridging fault (stuck-closed precharge) somewhere on the die.@.";
  pf "IDDQ measures the *whole* chip; the BILBO partition tests the faulty@.";
  pf "8-cell block at its own speed regardless of chip size:@.";
  pf "  %11s | %10s %12s | %s@." "transistors" "IDDQ rate" "false alarms" "block self test";
  let prng = Prng.create 31 in
  (* The faulty block is the same in every chip size: an 8-cell carry
     chain tested at its own clock. *)
  let block = Compiled.compile (Generators.carry_chain ~technology:Technology.Domino_cmos 8) in
  let delays = Timing.nominal_delays block in
  let propagate =
    Array.of_list
      (List.map
         (fun nm -> nm.[0] = 'c' || nm.[0] = 'p')
         (Netlist.inputs (Compiled.netlist block)))
  in
  let period = Timing.critical_path block delays propagate in
  let bist =
    Dynmos_bist.Selftest.test_delay_fault ~seed:3 block ~n_cycles:400 ~gate_id:0 ~factor:4.0
      ~period
  in
  List.iter
    (fun n ->
      let nl = Generators.carry_chain ~technology:Technology.Domino_cmos n in
      let c = Compiled.compile nl in
      let pi = Array.make (Compiled.n_inputs c) true in
      let rate = Power.detection_rate prng c ~faulty_gate:(Some 0) pi in
      let fp = Power.detection_rate prng c ~faulty_gate:None pi in
      pf "  %11d | %9.0f%% %11.1f%% | detected %b@." (Netlist.n_transistors nl)
        (100.0 *. rate) (100.0 *. fp) bist.Dynmos_bist.Selftest.detected)
    [ 8; 32; 128; 512; 2048 ];
  pf "  paper: 'it is hard to prove whether one faulty conducting path within@.";
  pf "  a large scaled integrated circuit leads to a significant and computable@.";
  pf "  rise of the power dissipation' — the IDDQ rate collapses with die size@.";
  pf "  while the at-speed block self test is size-independent.@."

(* ---------------------------------------------------------------------- *)
(* E14 — random tests satisfy A1/A2 "per se"                                *)
(* ---------------------------------------------------------------------- *)

let e14 () =
  let nl = Generators.c17 ~style:`Domino () in
  let u = Faultsim.universe nl in
  let c = u.Faultsim.compiled in
  let n_in = Compiled.n_inputs c in
  let n_nets = Compiled.n_nets c in
  let prng = Prng.create 99 in
  let trials = 200 in
  let total = ref 0 in
  for _ = 1 to trials do
    let seen1 = Array.make n_nets false and seen0 = Array.make n_nets false in
    let k = ref 0 in
    let done_ = ref false in
    while not !done_ do
      incr k;
      let pi = Array.init n_in (fun _ -> Prng.bool prng) in
      let nets = Compiled.eval_nets c pi in
      Array.iteri (fun i v -> if v then seen1.(i) <- true else seen0.(i) <- true) nets;
      done_ := Array.for_all2 (fun a b -> a && b) seen1 seen0
    done;
    total := !total + !k
  done;
  let mean_a2 = float_of_int !total /. float_of_int trials in
  let probs = Detect_prob.exact u ~pi_weights:(Array.make n_in 0.5) in
  let mean_detect =
    Array.fold_left (fun acc p -> acc +. Test_length.expected_first_detection p) 0.0 probs
    /. float_of_int (Array.length probs)
  in
  let slowest =
    Array.fold_left
      (fun acc p -> Float.max acc (Test_length.expected_first_detection p))
      0.0 probs
  in
  pf "Mean patterns until A2 holds (every node charged+discharged): %.1f@." mean_a2;
  pf "Mean expected first detection over faults: %.1f patterns@." mean_detect;
  pf "Slowest fault's expected first detection: %.1f patterns@." slowest;
  pf "  -> by the time any fault is expected to be caught, A1/A2 already@.";
  pf "  hold: 'random tests satisfy the assumptions A1 and A2 per se'.@."

(* ---------------------------------------------------------------------- *)
(* E15 (extension) — the cost of testing static CMOS: two-pattern tests    *)
(* ---------------------------------------------------------------------- *)

let e15 () =
  pf "Test applications per cell for the same switching function realized@.";
  pf "in static CMOS (stuck-opens need ordered two-pattern tests) and in@.";
  pf "domino CMOS (every fault class needs one vector):@.";
  pf "  %-10s | %10s %9s | %9s %9s@." "function" "seq faults" "pairs" "static" "domino";
  List.iter
    (fun (name, static_cell, dynamic_cell) ->
      let cmp = Two_pattern.compare_cells ~static_cell ~dynamic_cell in
      pf "  %-10s | %10d %9d | %9d %9d@." name cmp.Two_pattern.sequential_faults
        cmp.Two_pattern.two_pattern_tests cmp.Two_pattern.static_applications
        cmp.Two_pattern.dynamic_applications)
    [
      ("nor2", Stdcells.nor 2 Technology.Static_cmos, Stdcells.or_gate 2 Technology.Domino_cmos);
      ("nand3", Stdcells.nand 3 Technology.Static_cmos, Stdcells.and_gate 3 Technology.Domino_cmos);
      ( "aoi22",
        Stdcells.ao ~groups:[ 2; 2 ] Technology.Static_cmos,
        Stdcells.ao ~groups:[ 2; 2 ] Technology.Domino_cmos );
      ( "oai33",
        Stdcells.oa ~groups:[ 3; 3 ] Technology.Static_cmos,
        Stdcells.oa ~groups:[ 3; 3 ] Technology.Domino_cmos );
    ];
  pf "  ('static' counts one vector per combinational class plus an ordered@.";
  pf "  pair per stuck-open; pairs are additionally invalidated by scan@.";
  pf "  shifting, so they must be delivered back to back.)@."

(* ---------------------------------------------------------------------- *)
(* E16 (extension) — diagnosis: the classes are distinguishable            *)
(* ---------------------------------------------------------------------- *)

let e16 () =
  let u = Faultsim.universe (Generators.fig9_network ()) in
  pf "The Section-5 classes as a diagnosis dictionary (fig9):@.";
  pf "  pairwise distinguishable: %b@." (Diagnosis.pairwise_distinguishable u);
  let pats, groups = Diagnosis.diagnosing_patterns u in
  pf "  adaptive diagnosing set: %d patterns fully separate %d classes@."
    (Array.length pats) (Faultsim.n_sites u);
  pf "  final ambiguity groups: %d (all singletons: %b)@." (List.length groups)
    (List.for_all (fun g -> List.length g = 1) groups);
  Array.iteri
    (fun i p ->
      pf "    pattern %d: %s@." (i + 1)
        (String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list p))))
    pats;
  (* a worked diagnosis *)
  let dict = Diagnosis.dictionary u pats in
  let site = u.Faultsim.sites.(2) in
  (match Diagnosis.diagnose_site dict site with
  | [ s ] ->
      pf "  injected %s -> diagnosed %s@."
        (Faultsim.site_label u site)
        (Faultsim.site_label u s)
  | l -> pf "  diagnosis ambiguous (%d candidates)@." (List.length l));
  pf "  (the paper's 'distinguishable fault classes', operationalized)@."

(* ---------------------------------------------------------------------- *)
(* E17 (extension) — fault-simulation engine throughput and domain scaling *)
(* ---------------------------------------------------------------------- *)

(* Times every fault-simulation engine on generated circuits of increasing
   size and emits machine-readable BENCH_faultsim.json so the performance
   trajectory of the hot path is tracked from PR to PR.  Wall-clock time
   (not Sys.time: CPU time sums over domains and would hide any speedup);
   drop disabled so the workload is size-stable.

   Methodology: one warmup iteration (touches the caches, triggers any
   lazy compilation) followed by at least five timed repetitions; the
   JSON records median, min and max so a noisy host is visible as spread
   instead of silently biasing a single sample.  Domain-scaling entries
   record both the requested and the effective domain count: the pool
   clamps tiny workloads to one domain (see Parallel_exec), so a
   single-site-per-domain workload reports speedup ~1.0 instead of the
   spawn-cost collapse. *)

let tiny_mode = ref false
(* --tiny: CI smoke — small circuits, few patterns, same code path. *)

let bench_circuits () =
  let full =
    [
      (* fig9 is the deliberate tiny workload: a handful of sites, so
         every multi-domain request exercises the job/work clamps. *)
      ("fig9", Generators.fig9_network (), 128, [ 1; 2; 4; 16 ]);
      ("carry8", Generators.carry_chain ~technology:Technology.Domino_cmos 8, 128, [ 1; 2; 4 ]);
      ("carry16", Generators.carry_chain ~technology:Technology.Domino_cmos 16, 128, [ 1; 2; 4 ]);
      ( "rand60",
        Generators.random_monotone ~seed:7 ~n_inputs:12 ~n_gates:60
          ~technology:Technology.Domino_cmos (),
        128,
        [ 1; 2; 4 ] );
      ( "rand120",
        Generators.random_monotone ~seed:7 ~n_inputs:16 ~n_gates:120
          ~technology:Technology.Domino_cmos (),
        128,
        [ 1; 2; 4 ] );
    ]
  in
  if not !tiny_mode then full
  else
    (* rand60 stays in the smoke (at 32 patterns) so CI can assert the
       cone-vs-full eval reduction on a random circuit. *)
    List.filter_map
      (fun (name, nl, _, doms) ->
        match name with
        | "fig9" | "carry8" -> Some (name, nl, 16, doms)
        | "rand60" -> Some (name, nl, 32, doms)
        | _ -> None)
      full

type timing = { median : float; t_min : float; t_max : float; reps : int }

(* Gate evaluations one engine run performs, read off the engine's own
   "faultsim.run" obs event (the unit the cone restriction reduces;
   kernel-invocation counts are identical between algorithms by
   construction). *)
let gate_evals_of run =
  let module Obs = Dynmos_obs.Obs in
  let mem, fetch = Obs.memory_sink () in
  let obs = Obs.make mem in
  ignore (Sys.opaque_identity (run obs));
  List.fold_left
    (fun acc e ->
      if e.Obs.ev = "faultsim.run" then
        match List.assoc_opt "gate_evals" e.Obs.fields with Some (Obs.Int n) -> n | _ -> acc
      else acc)
    0 (fetch ())

let timing_of samples =
  let reps = Array.length samples in
  Array.sort Float.compare samples;
  { median = samples.(reps / 2); t_min = samples.(0); t_max = samples.(reps - 1); reps }

let time_reps ?(warmup = 1) ?(reps = 5) f =
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let samples = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    samples.(i) <- Unix.gettimeofday () -. t0
  done;
  timing_of samples

(* Interleaved timing of competing runs: one warmup of each, then [reps]
   rounds that time every run once in turn, so a slow phase of a shared
   host lands on every side of the comparison instead of biasing one. *)
let time_interleaved ?(reps = 7) runs =
  List.iter (fun f -> ignore (Sys.opaque_identity (f ()))) runs;
  let runs = Array.of_list runs in
  let samples = Array.map (fun _ -> Array.make reps 0.0) runs in
  for i = 0 to reps - 1 do
    Array.iteri
      (fun k f ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        samples.(k).(i) <- Unix.gettimeofday () -. t0)
      runs
  done;
  Array.to_list (Array.map timing_of samples)

let e17 () =
  let reps = 5 in
  pf "Engine throughput (patterns/s, drop disabled, wall clock, median of %d@." reps;
  pf "after 1 warmup) and domain scaling; recommended_domain_count = %d.@."
    (Domain.recommended_domain_count ());
  if !tiny_mode then pf "  (--tiny: reduced circuits and pattern counts)@.";
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Fmt.str
       "  \"env\": {\"recommended_domains\": %d, \"ocaml_version\": \"%s\", \"word_size\": %d, \
        \"os_type\": \"%s\", \"word_bits\": %d},\n"
       (Domain.recommended_domain_count ())
       Sys.ocaml_version Sys.word_size Sys.os_type Parallel_exec.word_bits);
  Buffer.add_string buf
    (Fmt.str "  \"timing\": {\"warmup\": 1, \"reps\": %d, \"statistic\": \"median\"},\n" reps);
  Buffer.add_string buf "  \"algo_evals_unit\": \"gate_evaluations\",\n";
  Buffer.add_string buf "  \"circuits\": [\n";
  let circuits = bench_circuits () in
  let n_circuits = List.length circuits in
  List.iteri
    (fun ci (name, nl, count, domain_counts) ->
      let u = Faultsim.universe nl in
      let prng = Prng.create 17 in
      let pats =
        Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count
      in
      pf "  %-10s %3d gates, %4d sites, %d patterns:@." name (Netlist.n_gates nl)
        (Faultsim.n_sites u) count;
      let pps t = float_of_int count /. Float.max 1e-9 t.median in
      let entry label t extra =
        pf "    %-26s %8.4f s [%0.4f..%0.4f]  %10.0f patterns/s%s@." label t.median t.t_min
          t.t_max (pps t) extra
      in
      let t_serial = time_reps ~reps (fun () -> Faultsim.run_serial ~drop:false u pats) in
      entry "serial" t_serial "";
      let t_bitpar = time_reps ~reps (fun () -> Faultsim.run_parallel ~drop:false u pats) in
      entry "bit-parallel" t_bitpar "";
      (* One stats-bearing run per (inner, n) reveals the effective domain
         count the clamp settled on; the timed runs then use the exact
         same configuration. *)
      let scaling inner =
        List.map
          (fun n ->
            let _, st =
              Faultsim.run_domain_parallel_stats ~drop:false ~inner ~num_domains:n u pats
            in
            let t =
              time_reps ~reps (fun () ->
                  Faultsim.run_domain_parallel ~drop:false ~inner ~num_domains:n u pats)
            in
            (n, st.Parallel_exec.effective_domains, t))
          domain_counts
      in
      let dom_bit = scaling Parallel_exec.Bit_parallel in
      let dom_ser = scaling Parallel_exec.Serial in
      let t1_of results =
        match List.find_opt (fun (n, _, _) -> n = 1) results with
        | Some (_, _, t) -> t.median
        | None -> (match results with (_, _, t) :: _ -> t.median | [] -> 1.0)
      in
      let report label results =
        let t1 = t1_of results in
        List.iter
          (fun (n, eff, t) ->
            entry
              (Fmt.str "%s x%d (eff %d)" label n eff)
              t
              (Fmt.str "  (speedup %.2fx)" (t1 /. t.median)))
          results
      in
      report "domains/bit-parallel" dom_bit;
      report "domains/serial" dom_ser;
      (* Cone vs full side by side on the single-domain engines: same
         patterns, bit-identical results; "evals" in the JSON counts
         *gate evaluations*, the unit the cone restriction reduces. *)
      let algo_pair engine_label run =
        List.map
          (fun (aname, algo) ->
            let ge = gate_evals_of (fun obs -> run algo (Some obs)) in
            let t = time_reps ~reps (fun () -> run algo None) in
            entry (Fmt.str "%s/%s" engine_label aname) t (Fmt.str "  (%d gate-evals)" ge);
            (aname, ge, t))
          [ ("cone", `Cone); ("full", `Full) ]
      in
      let algo_serial =
        algo_pair "serial" (fun algo obs -> Faultsim.run_serial ~drop:false ~algo ?obs u pats)
      in
      let algo_bitpar =
        algo_pair "bit-parallel" (fun algo obs ->
            Faultsim.run_parallel ~drop:false ~algo ?obs u pats)
      in
      (* The propagation engines' cone mode skips gates outside every
         live fault's fanout cone — measured with dropping on, because
         the restriction only bites as detected sites retire (with no
         dropping every gate stays inside some live site's cone).
         Their per-fault "evals" are identical between algorithms by
         construction — a gate no live fault reaches evaluates no
         faults either way — so the cone's win here is the skipped
         per-gate sweep overhead, i.e. wall-clock only. *)
      let algo_deductive =
        algo_pair "deductive" (fun algo obs ->
            Faultsim.run_deductive ~drop:true ~algo ?obs u pats)
      in
      let algo_concurrent =
        algo_pair "concurrent" (fun algo obs ->
            Faultsim.run_concurrent ~drop:true ~algo ?obs u pats)
      in
      let algo_ppsfp =
        algo_pair "ppsfp" (fun algo obs -> Faultsim.run_ppsfp ~drop:false ~algo ?obs u pats)
      in
      let json_timing t =
        Fmt.str
          "\"seconds_median\": %.6f, \"seconds_min\": %.6f, \"seconds_max\": %.6f, \"reps\": %d, \
           \"patterns_per_s\": %.1f"
          t.median t.t_min t.t_max t.reps (pps t)
      in
      (* Checkpoint overhead (rand60 only): the identical serial sweep
         with a checkpoint controller at the default interval (1000
         pattern-units: interval-gated ticks, a write every 1000
         patterns, one finalize write).  Measured on a campaign long
         enough for the interval to amortize the ~0.3 ms file write —
         checkpointing exists for long runs; on a 5 ms sweep the single
         finalize write alone would be ~6% and say nothing about the
         steady state.  The robustness tax is budgeted at < 2%; the JSON
         records the measured figure so regressions show up in the
         artifact diff. *)
      let checkpoint_json =
        if name <> "rand60" then ""
        else begin
          let ck_count = if !tiny_mode then 512 else 4096 in
          let prng = Prng.create 17 in
          let ck_pats =
            Faultsim.random_patterns prng
              ~n_inputs:(List.length (Netlist.inputs nl))
              ~count:ck_count
          in
          let t_plain =
            time_reps ~reps (fun () -> Faultsim.run_serial ~drop:false u ck_pats)
          in
          let path = Filename.temp_file "dynmos_bench_ckpt" ".dat" in
          let t_ckpt =
            time_reps ~reps (fun () ->
                let ctl = Faultsim.checkpoint_ctl ~path ~interval:1000 u ck_pats in
                Faultsim.run_serial ~drop:false ~checkpoint:ctl u ck_pats)
          in
          if Sys.file_exists path then Sys.remove path;
          let overhead =
            (t_ckpt.median -. t_plain.median) /. Float.max 1e-9 t_plain.median
          in
          let pps t = float_of_int ck_count /. Float.max 1e-9 t.median in
          pf "    %-26s %8.4f s [%0.4f..%0.4f]  %10.0f patterns/s  (%d patterns, overhead %+.2f%%)@."
            "serial+checkpoint" t_ckpt.median t_ckpt.t_min t_ckpt.t_max (pps t_ckpt) ck_count
            (100.0 *. overhead);
          let json_ck t =
            Fmt.str
              "\"seconds_median\": %.6f, \"seconds_min\": %.6f, \"seconds_max\": %.6f, \
               \"reps\": %d, \"patterns_per_s\": %.1f"
              t.median t.t_min t.t_max t.reps (pps t)
          in
          Fmt.str
            ",\n     \"checkpoint\": {\"interval\": 1000, \"patterns\": %d, \"without\": \
             {%s}, \"with\": {%s}, \"overhead_pct\": %.2f}"
            ck_count (json_ck t_plain) (json_ck t_ckpt) (100.0 *. overhead)
        end
      in
      (* Chaos-layer overhead (rand60 only): what arming the injection
         registry costs the serial hot loop when the tapped point is not
         configured (a spec whose only configured point the pattern
         engines never tap).  Two figures go into the artifact:

         - [overhead_pct]: end-to-end paired comparison, sides timed
           back to back within each rep so throttling/GC bursts hit
           both.  Informational only — single-rep noise on this class
           of box is ±5%, far above the figure it tries to resolve.
         - [derived_overhead_pct]: the gated number.  Time the tap
           itself in a tight loop for each registry (an unconfigured
           point executes identical instructions under both), scale
           the per-tap delta by the sweep's Exec_job tap count, and
           divide by the sweep's wall clock.  Resolves ~0.1% where the
           end-to-end ratio resolves ~5%.  Budget < 1%; CI gates on
           this field. *)
      let chaos_json =
        if name <> "rand60" then ""
        else begin
          let cn_count = if !tiny_mode then 2048 else 4096 in
          let cn_spec = "cache.insert=fail_prob:0,seed=1" in
          let prng = Prng.create 17 in
          let cn_pats =
            Faultsim.random_patterns prng
              ~n_inputs:(List.length (Netlist.inputs nl))
              ~count:cn_count
          in
          let inert =
            match Chaos.of_spec cn_spec with Ok c -> c | Error e -> failwith e
          in
          let run_off () = ignore (Faultsim.run_serial ~drop:false u cn_pats) in
          let run_armed () =
            ignore (Faultsim.run_serial ~drop:false ~chaos:inert u cn_pats)
          in
          run_off ();
          run_armed ();
          let ratios = Array.make reps 0.0 in
          let off_min = ref infinity and armed_min = ref infinity in
          for i = 0 to reps - 1 do
            let t0 = Unix.gettimeofday () in
            run_off ();
            let t1 = Unix.gettimeofday () in
            run_armed ();
            let t2 = Unix.gettimeofday () in
            let off = t1 -. t0 and armed = t2 -. t1 in
            off_min := Float.min !off_min off;
            armed_min := Float.min !armed_min armed;
            ratios.(i) <- armed /. Float.max 1e-9 off
          done;
          Array.sort compare ratios;
          let overhead = ratios.(reps / 2) -. 1.0 in
          let tap_loops = 20_000_000 in
          let time_taps c =
            let best = ref infinity in
            for _ = 1 to 3 do
              let t0 = Unix.gettimeofday () in
              for _ = 1 to tap_loops do
                Chaos.tap c Chaos.Exec_job
              done;
              best := Float.min !best (Unix.gettimeofday () -. t0)
            done;
            !best /. float_of_int tap_loops
          in
          let tap_off = time_taps Chaos.disabled in
          let tap_armed = time_taps inert in
          (* drop:false serial sweep taps Exec_job once per site per
             pattern. *)
          let taps_per_sweep = float_of_int (Faultsim.n_sites u * cn_count) in
          let derived =
            (tap_armed -. tap_off) *. taps_per_sweep /. Float.max 1e-9 !off_min
          in
          pf
            "    %-26s %8.4f s armed vs %8.4f s disabled  (%d patterns, end-to-end %+.2f%%)@."
            "serial+chaos(inert)" !armed_min !off_min cn_count (100.0 *. overhead);
          pf
            "    %-26s %8.2f ns armed vs %8.2f ns disabled per tap (derived overhead %+.3f%%)@."
            "chaos tap (unconfigured)" (1e9 *. tap_armed) (1e9 *. tap_off)
            (100.0 *. derived);
          Fmt.str
            ",\n     \"chaos\": {\"spec\": \"%s\", \"patterns\": %d, \"disabled_s\": %.6f, \
             \"armed_inert_s\": %.6f, \"overhead_pct\": %.2f, \"tap_ns_disabled\": %.3f, \
             \"tap_ns_armed\": %.3f, \"derived_overhead_pct\": %.3f}"
            cn_spec cn_count !off_min !armed_min (100.0 *. overhead) (1e9 *. tap_off)
            (1e9 *. tap_armed) (100.0 *. derived)
        end
      in
      let json_engine name t = Fmt.str "\"%s\": {%s}" name (json_timing t) in
      (* A clamped request (effective < requested) never ran on the asked
         domain count, so a speedup figure would compare two identical
         configurations and read as a scaling plateau; mark it instead. *)
      let json_scaled prefix results =
        let t1 = t1_of results in
        List.map
          (fun (n, eff, t) ->
            let verdict =
              if eff < n then "\"clamped\": true"
              else Fmt.str "\"speedup_vs_1\": %.3f" (t1 /. t.median)
            in
            Fmt.str
              "\"%s_%d\": {%s, %s, \"requested_domains\": %d, \
               \"effective_domains\": %d}"
              prefix n (json_timing t) verdict n eff)
          results
      in
      let json_algos label results =
        Fmt.str "\"%s\": {%s}" label
          (String.concat ", "
             (List.map
                (fun (aname, ge, t) ->
                  Fmt.str "\"%s\": {%s, \"evals\": %d, \"gate_evals_per_s\": %.1f}" aname
                    (json_timing t) ge
                    (float_of_int ge /. Float.max 1e-9 t.median))
                results))
      in
      Buffer.add_string buf
        (Fmt.str
           "    {\"name\": \"%s\", \"gates\": %d, \"sites\": %d, \"patterns\": %d,\n     \
            \"engines\": {%s},\n     \"algos\": {%s}%s%s}%s\n"
           name (Netlist.n_gates nl) (Faultsim.n_sites u) count
           (String.concat ", "
              ([ json_engine "serial" t_serial; json_engine "bit_parallel" t_bitpar ]
              @ json_scaled "domains_bit_parallel" dom_bit
              @ json_scaled "domains_serial" dom_ser))
           (String.concat ", "
              [
                json_algos "serial" algo_serial;
                json_algos "bit_parallel" algo_bitpar;
                json_algos "deductive" algo_deductive;
                json_algos "concurrent" algo_concurrent;
                json_algos "ppsfp" algo_ppsfp;
              ])
           checkpoint_json chaos_json
           (if ci = n_circuits - 1 then "" else ",")))
    circuits;
  Buffer.add_string buf "  ],\n";
  (* --- PPSFP vs bit-parallel: the wall-clock headline block ----------
     The figure of merit is time to the same answer, so the headline is
     bit-parallel's median seconds over ppsfp's for the identical job
     (cone on both sides), with every rep interleaved across the
     competing runs; gate-evals/s stays as a diagnostic only (ppsfp's
     counter includes every lane it sweeps, so it rewards wasted work).
     Both drop settings, on rand60 and the thousand-gate rand1k (rand1k
     at full size under --tiny too, so CI gates the ratio where ppsfp is
     meant to win). *)
  let ppsfp_specs = [ ("rand60", if !tiny_mode then 256 else 500); ("rand1k", 500) ] in
  let ppsfp_groups = [ 4; Ppsfp.default_group; 64 ] in
  let ppsfp_reps = 7 in
  pf "  --- ppsfp vs bit-parallel (cone; headline: bit-parallel s / ppsfp s at G=%d,@."
    Ppsfp.default_group;
  pf "      median of %d interleaved reps; gate-evals/s diagnostic) ---@." ppsfp_reps;
  let json_t t =
    Fmt.str
      "\"seconds_median\": %.6f, \"seconds_min\": %.6f, \"seconds_max\": %.6f, \"reps\": %d"
      t.median t.t_min t.t_max t.reps
  in
  let ppsfp_entries =
    List.concat_map
      (fun (name, count) ->
        let nl = match Catalog.find name with Ok nl -> nl | Error m -> failwith m in
        let u = Faultsim.universe nl in
        let prng = Prng.create 17 in
        let pats =
          Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count
        in
        List.map
          (fun drop ->
            pf "  %-10s %4d gates, %5d sites, %d patterns, drop %b:@." name
              (Netlist.n_gates nl) (Faultsim.n_sites u) count drop;
            let runs =
              ("bit-parallel/cone", fun obs -> Faultsim.run_parallel ~drop ~algo:`Cone ?obs u pats)
              :: List.map
                   (fun g ->
                     ( Fmt.str "ppsfp/cone G=%d" g,
                       fun obs -> Faultsim.run_ppsfp ~drop ~algo:`Cone ~group:g ?obs u pats ))
                   ppsfp_groups
            in
            let gate_evals = List.map (fun (_, run) -> gate_evals_of (fun obs -> run (Some obs))) runs in
            let timings =
              time_interleaved ~reps:ppsfp_reps (List.map (fun (_, run) () -> run None) runs)
            in
            let t_bp = List.hd timings in
            let rows =
              List.map2
                (fun ((label, _), ge) t ->
                  let geps = float_of_int ge /. Float.max 1e-9 t.median in
                  let speedup = t_bp.median /. Float.max 1e-9 t.median in
                  pf "    %-26s %8.4f s [%0.4f..%0.4f]  %5.2fx wall  %11.4g gate-evals/s@." label
                    t.median t.t_min t.t_max speedup geps;
                  (t, ge, geps, speedup))
                (List.combine runs gate_evals) timings
            in
            let bp_row = List.hd rows in
            let groups = List.combine ppsfp_groups (List.tl rows) in
            let _, (_, _, _, headline) =
              List.find (fun (g, _) -> g = Ppsfp.default_group) groups
            in
            let best_g, (_, _, _, best) =
              List.fold_left
                (fun ((_, (_, _, _, br)) as acc) ((_, (_, _, _, r)) as cand) ->
                  if r > br then cand else acc)
                (List.hd groups) groups
            in
            pf "    headline: ppsfp G=%d runs at %.2fx bit-parallel wall-clock (best G=%d: %.2fx)@."
              Ppsfp.default_group headline best_g best;
            let t, ge, geps, _ = bp_row in
            Fmt.str
              "    {\"name\": \"%s\", \"drop\": %b, \"patterns\": %d, \"sites\": %d,\n     \
               \"bit_parallel\": {%s, \"gate_evals\": %d, \"gate_evals_per_s\": %.1f},\n     \
               \"groups\": [%s],\n     \
               \"headline\": {\"group\": %d, \"speedup_wall\": %.3f, \"best_group\": %d, \
               \"best_speedup_wall\": %.3f}}"
              name drop count (Faultsim.n_sites u) (json_t t) ge geps
              (String.concat ", "
                 (List.map
                    (fun (g, (t, ge, geps, r)) ->
                      Fmt.str
                        "{\"group\": %d, %s, \"gate_evals\": %d, \"gate_evals_per_s\": %.1f, \
                         \"speedup_wall\": %.3f}"
                        g (json_t t) ge geps r)
                    groups))
              Ppsfp.default_group headline best_g best)
          [ true; false ])
      ppsfp_specs
  in
  Buffer.add_string buf
    (Fmt.str
       "  \"ppsfp\": {\"algo\": \"cone\", \"statistic\": \"median\", \"reps\": %d, \
        \"interleaved\": true, \"headline\": \"speedup_wall\", \"circuits\": [\n%s\n  ]},\n"
       ppsfp_reps
       (String.concat ",\n" ppsfp_entries));
  (* --- Durability: the robustness tax and restart behaviour ------------
     What a durable serve pays per job over the bare sweep: a journal
     admit/done pair (fsync'd) plus a checkpoint controller at the
     default interval, timed against the identical plain run on a
     campaign long enough for the interval to amortize the file writes.
     Budget < 2%; the JSON records the measured figure so regressions
     show up in the artifact diff.  The restart pair times a full server
     boot plus first response on the same data dir: the cold boot
     executes the campaign, the warm boot answers from the rehydrated
     persistent cache with zero gate evaluations. *)
  let durability_json =
    let module Journal = Dynmos_server.Journal in
    let module Server = Dynmos_server.Server in
    let module Sjson = Dynmos_server.Json in
    let name = "rand60" in
    let count = if !tiny_mode then 512 else 4096 in
    let nl = match Catalog.find name with Ok nl -> nl | Error m -> failwith m in
    let u = Faultsim.universe nl in
    let prng = Prng.create 17 in
    let pats =
      Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count
    in
    pf "  --- durability (journal + checkpoint tax; cold vs warm restart) ---@.";
    let json_t t =
      Fmt.str
        "\"seconds_median\": %.6f, \"seconds_min\": %.6f, \"seconds_max\": %.6f, \
         \"reps\": %d, \"patterns_per_s\": %.1f"
        t.median t.t_min t.t_max t.reps
        (float_of_int count /. Float.max 1e-9 t.median)
    in
    let temp_dir () =
      let d = Filename.temp_file "dynmos_bench_dur" "" in
      Sys.remove d;
      Unix.mkdir d 0o700;
      d
    in
    let rec rm_rf p =
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
    in
    let t_plain = time_reps ~reps (fun () -> Faultsim.run_serial ~drop:false u pats) in
    let dir = temp_dir () in
    let journal = Journal.open_ (Filename.concat dir "journal") in
    let ck_path = Filename.concat dir "job.ckpt" in
    let envelope =
      Fmt.str {|{"op":"run","circuit":"%s","patterns":%d,"seed":17}|} name count
    in
    let t_durable =
      time_reps ~reps (fun () ->
          let jid = Journal.append_admit journal ~envelope in
          let ctl = Faultsim.checkpoint_ctl ~path:ck_path ~interval:1000 u pats in
          let s = Faultsim.run_serial ~drop:false ~checkpoint:ctl u pats in
          Journal.append_done journal ~jid ~status:"ok";
          s)
    in
    Journal.close journal;
    rm_rf dir;
    let overhead =
      (t_durable.median -. t_plain.median) /. Float.max 1e-9 t_plain.median
    in
    pf "    %-26s %8.4f s plain vs %8.4f s durable  (%d patterns, overhead %+.2f%%)@."
      "serial+journal+checkpoint" t_plain.median t_durable.median count (100.0 *. overhead);
    let data_dir = temp_dir () in
    let config =
      { Server.default_config with Server.executors = 1; data_dir = Some data_dir }
    in
    let req = Fmt.str {|{"circuit":"%s","patterns":%d,"seed":17}|} name count in
    let serve_one () =
      let t = Server.create ~config () in
      Server.wait_recovery t;
      let sent = ref false in
      let resp = ref "" in
      let input () =
        if !sent then None
        else begin
          sent := true;
          Some req
        end
      in
      ignore (Server.serve t ~input ~output:(fun s -> resp := s) () : Server.stop);
      Server.shutdown t;
      !resp
    in
    let time_once f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (Unix.gettimeofday () -. t0, r)
    in
    let cold_s, _ = time_once serve_one in
    let warm_s, warm_resp = time_once serve_one in
    rm_rf data_dir;
    let warm_cached =
      match Sjson.parse warm_resp with
      | Ok v -> ( match Sjson.member "cached" v with Some (Sjson.Bool b) -> b | _ -> false)
      | Error _ -> false
    in
    pf "    %-26s %8.4f s cold vs %8.4f s warm  (warm cached: %b, %.1fx)@."
      "restart boot+first-response" cold_s warm_s warm_cached
      (cold_s /. Float.max 1e-9 warm_s);
    Fmt.str
      "  \"durability\": {\"circuit\": \"%s\", \"patterns\": %d, \"interval\": 1000,\n   \
       \"plain\": {%s}, \"durable\": {%s}, \"overhead_pct\": %.2f,\n   \
       \"restart\": {\"cold_s\": %.6f, \"warm_s\": %.6f, \"warm_cached\": %b, \
       \"speedup\": %.1f}}\n"
      name count (json_t t_plain) (json_t t_durable) (100.0 *. overhead) cold_s warm_s
      warm_cached
      (cold_s /. Float.max 1e-9 warm_s)
  in
  Buffer.add_string buf durability_json;
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_faultsim.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "  wrote BENCH_faultsim.json@."

(* ---------------------------------------------------------------------- *)
(* Bechamel timing suite: one Test.make per experiment                      *)
(* ---------------------------------------------------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let nor = Stdcells.fig1_nor in
  let dyn_nand = Stdcells.nand 3 Technology.Dynamic_nmos in
  let fig9 = Stdcells.fig9 in
  let carry6 = Compiled.compile (Generators.carry_chain ~technology:Technology.Domino_cmos 6) in
  let c17d = Generators.c17 ~style:`Domino () in
  let u_c17 = Faultsim.universe c17d in
  let w_c17 = Array.make (Compiled.n_inputs u_c17.Faultsim.compiled) 0.5 in
  let wide8 = Faultsim.universe (Generators.wide_and ~technology:Technology.Domino_cmos 8) in
  let parity_bn = Generators.parity_boolnet 6 in
  let parity_dom = Compiled.compile (Boolnet.to_domino_dual_rail parity_bn) in
  let big_cell = Stdcells.oa ~groups:[ 3; 3; 3; 3 ] Technology.Domino_cmos in
  let prng = Prng.create 12 in
  let pats64 =
    Faultsim.random_patterns prng ~n_inputs:(Compiled.n_inputs u_c17.Faultsim.compiled) ~count:64
  in
  let delays = Timing.nominal_delays carry6 in
  let pi_carry = Array.make (Compiled.n_inputs carry6) true in
  let w_carry = Array.make (Compiled.n_inputs carry6) 0.5 in
  [
    Test.make ~name:"e1_fig1_static_step"
      (Staged.stage (fun () ->
           ignore
             (Charge_sim.static_step ~fault:(Fault.Network_open 1) nor Charge_sim.static_initial
                [ true; false ])));
    Test.make ~name:"e2_fig2_ratio_map"
      (Staged.stage (fun () ->
           ignore (Fault_map.map Stdcells.fig2_inverter (Fault.Pullup_closed 1))));
    Test.make ~name:"e3_nmos_class_mapping"
      (Staged.stage (fun () ->
           List.iter (fun f -> ignore (Fault_map.map dyn_nand f)) (Fault.enumerate dyn_nand)));
    Test.make ~name:"e4_domino_combinationality"
      (Staged.stage (fun () ->
           ignore (Charge_sim.domino_combinational ~fault:Fault.Precharge_open fig9)));
    Test.make ~name:"e5_fig9_library"
      (Staged.stage (fun () -> ignore (Faultlib.generate fig9)));
    Test.make ~name:"e6_signal_prob_propagate"
      (Staged.stage (fun () -> ignore (Signal_prob.propagate carry6 ~pi_weights:w_carry)));
    Test.make ~name:"e7_detect_prob_exact_c17"
      (Staged.stage (fun () -> ignore (Detect_prob.exact u_c17 ~pi_weights:w_c17)));
    Test.make ~name:"e8_optimize_wide8"
      (Staged.stage (fun () ->
           ignore
             (Optimize.optimize ~objective:Optimize.Estimated ~confidence:0.99 wide8
                (Array.make 8 0.5))));
    Test.make ~name:"e9_a2_eval_nets"
      (Staged.stage (fun () -> ignore (Compiled.eval_nets carry6 pi_carry)));
    Test.make ~name:"e10_parallel_faultsim_64"
      (Staged.stage (fun () -> ignore (Faultsim.run_parallel ~drop:false u_c17 pats64)));
    Test.make ~name:"e11_library_12T"
      (Staged.stage (fun () -> ignore (Faultlib.generate big_cell)));
    Test.make ~name:"e12_domino_evaluate"
      (Staged.stage (fun () ->
           ignore
             (Event_sim.domino_evaluate parity_dom
                (Boolnet.dual_rail_vector parity_bn [| true; false; true; false; true; false |]))));
    Test.make ~name:"e13_at_speed_sample"
      (Staged.stage (fun () -> ignore (Timing.at_speed_sample carry6 delays ~period:6.0 pi_carry)));
    Test.make ~name:"e14_podem_c17"
      (Staged.stage (fun () -> ignore (Podem.generate u_c17 u_c17.Faultsim.sites.(0))));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  pf "@.==== Bechamel timing suite (one test per experiment) ====@.";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let tests = Test.make_grouped ~name:"dynmos" ~fmt:"%s %s" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  pf "  %-36s %14s@." "experiment kernel" "time/run";
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, v) ->
         match Analyze.OLS.estimates v with
         | Some [ est ] ->
             let pretty =
               if est > 1e6 then Fmt.str "%8.2f ms" (est /. 1e6)
               else if est > 1e3 then Fmt.str "%8.2f us" (est /. 1e3)
               else Fmt.str "%8.0f ns" est
             in
             pf "  %-36s %14s@." name pretty
         | _ -> pf "  %-36s %14s@." name "n/a")

(* ---------------------------------------------------------------------- *)

let experiments =
  [
    ("e1", "Fig. 1 - faulty static CMOS NOR function table", e1);
    ("e2", "Fig. 2 - performance degradation by a faulty transistor", e2);
    ("e3", "Section 3 - dynamic nMOS fault classes", e3);
    ("e4", "Section 3 - domino CMOS fault classes CMOS-1..4", e4);
    ("e5", "Section 5 - the Fig. 9 fault-class table", e5);
    ("e6", "PROTEST - signal probability estimation", e6);
    ("e7", "PROTEST - detection probabilities and test length", e7);
    ("e8", "PROTEST - optimized input signal probabilities", e8);
    ("e9", "Assumptions A1/A2", e9);
    ("e10", "Random vs deterministic test", e10);
    ("e11", "Fault library generation speed", e11);
    ("e12", "Fig. 5 - no races and spikes in domino", e12);
    ("e13", "Section 4(b) - leakage vs at-speed self test", e13);
    ("e14", "Random tests satisfy A1/A2 per se", e14);
    ("e15", "Extension - two-pattern cost of static CMOS vs domino", e15);
    ("e16", "Extension - the fault classes as a diagnosis dictionary", e16);
    ("e17", "Extension - fault-simulation throughput and domain scaling", e17);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_bechamel = List.mem "--no-bechamel" args in
  tiny_mode := List.mem "--tiny" args;
  let selected = List.filter (fun a -> String.length a < 2 || a.[0] <> '-') args in
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (id, _, _) -> List.mem id selected) experiments
  in
  if to_run = [] then begin
    pf "unknown experiment(s); available: %s@."
      (String.concat " " (List.map (fun (id, _, _) -> id) experiments));
    exit 1
  end;
  List.iter
    (fun (id, title, run) ->
      header id title;
      run ())
    to_run;
  if (not no_bechamel) && selected = [] then run_bechamel ()
