(* Host-speed calibration.

   The benchmark runs on a shared host whose speed for this kind of work
   drifts by up to 1.9x over tens of seconds, the same for every engine
   and workload.  A fixed kernel of the same kind as a fault-simulation
   job is timed between jobs: bit-parallel evaluation of a random gate
   DAG, plus single-site faulty re-evaluations, allocating fresh value
   arrays as the engines do.  Every time metric is scaled by
   [reference_s] over the median kernel time measured during the run.  Over
   100 s of the same job on a 2-CPU host, the job's 20-run medians moved
   with a coefficient of variation of 0.073 and 0.124 in two phases;
   their ratios to the kernel's medians moved by 0.033 and 0.036.

   The kernel is the benchmark's own code, not the program's, so a
   change that makes the program faster does not move it.  It starts
   from a collected heap, so the garbage a job leaves does not move it
   either. *)

let n_inputs = 32
let n_gates = 6000
let words = 25
let faults_per_word = 8

(* Fan-ins and gate kinds, fixed once. *)
let circuit =
  lazy
    (let g = Random.State.make [| 7 |] in
     let fanin () = Array.init n_gates (fun i -> if i < n_inputs then 0 else Random.State.int g i) in
     let a = fanin () in
     let b = fanin () in
     (a, b, Array.init n_gates (fun _ -> Random.State.int g 4)))

let eval (fa, fb, op) v ~from =
  for i = from to n_gates - 1 do
    let a = v.(fa.(i)) and b = v.(fb.(i)) in
    v.(i) <-
      (match op.(i) with 0 -> a land b | 1 -> a lor b | 2 -> a lxor b | _ -> lnot (a land b))
  done

let kernel () =
  let c = Lazy.force circuit in
  let g = Random.State.make [| 11 |] in
  let acc = ref 0 in
  for _ = 1 to words do
    let v = Array.make n_gates 0 in
    for i = 0 to n_inputs - 1 do
      v.(i) <- Random.State.bits g
    done;
    eval c v ~from:n_inputs;
    for f = 0 to faults_per_word - 1 do
      let site = n_inputs + (f * 733 mod (n_gates - n_inputs)) in
      let w = Array.copy v in
      w.(site) <- lnot w.(site);
      eval c w ~from:(site + 1);
      acc := !acc lxor w.(n_gates - 1)
    done
  done;
  !acc

(* One timed run of the kernel, in seconds. *)
let sample () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

let samples n = List.init n (fun _ -> sample ())

(* About the kernel's median time on the 2-CPU development host.  Scaled
   times read as seconds at that speed. *)
let reference_s = 0.020

(* The factor that brings times measured beside [samples] to the
   reference speed. *)
let factor samples = reference_s /. Stats.median samples
