(* The in-process campaign workloads: a job list of (circuit, patterns,
   drop, engine) tuples run back to back by one caller, each timed as a
   CLI user pays for it — universe build, pattern generation and the
   engine run. *)

open Dynmos_util
open Dynmos_cell
open Dynmos_netlist
open Dynmos_sim
open Dynmos_faultsim
open Dynmos_circuits
open Perfbench_core
module Obs = Dynmos_obs.Obs

let engine_name = Dynmos_server.Protocol.engine_name

(* The catalog's rand1k shape. *)
type shape = { inputs : int; width : int; depth : int; window : int }

let shape_1k = { inputs = 32; width = 100; depth = 10; window = 8 }

(* A job runs [reps] times back to back in every pass; each run is one
   latency sample. *)
type job = {
  circuit : int;
  patterns : int;
  drop : bool;
  engine : Dynmos_server.Protocol.engine;
  reps : int;
}

type workload = { name : string; shapes : shape array; jobs : job list }

(* One run of a domains job takes up to four times another run of it on
   a 2-CPU host, where the single-domain engines vary by a fifth; so a
   domains job runs three times a pass, to give its median more
   samples. *)
let grid ~circuits ~patterns ~drop engines =
  List.concat_map
    (fun circuit ->
      List.map
        (fun engine -> { circuit; patterns; drop; engine; reps = (if engine = `Domains then 3 else 1) })
        engines)
    circuits

(* Dictionaries of 2 to 9 pattern words on the 1k circuits, so that the
   job latencies spread over a range: with one size, the median job sat
   on the step between two engines' job times and jumped from run to
   run.  The propagation engines cannot build a dictionary of hundreds
   of patterns in a benchmark's time (5-8 s per 1k job at 1000
   patterns), so they build the first three 1k circuits' dictionaries
   for one pattern word. *)
let campaign_nodrop =
  {
    name = "campaign-nodrop";
    shapes = Array.make 8 shape_1k;
    jobs =
      List.concat_map
        (fun c ->
          grid ~circuits:[ c ] ~patterns:(62 * (c + 2)) ~drop:false
            [ `Parallel; `Ppsfp; `Domains ])
        (List.init 8 Fun.id)
      @ grid ~circuits:[ 0; 1; 2 ] ~patterns:62 ~drop:false [ `Deductive; `Concurrent ];
  }

(* Everything a job needs: one netlist and one pattern seed per circuit,
   so every engine running a circuit gets the same patterns — the same
   job.  The workload seed decides the patterns.  The netlists come from
   a fixed circuit seed, a fixed suite like the catalog's rand1k: when
   the seed drew the circuits too, their testability, and with it how
   much work dropping saves, changed from seed to seed. *)
type inputs = { netlists : Netlist.t array; pattern_seeds : int array }

let circuit_seed = 20251017

let build_inputs w ~seed =
  let g = Prng.create circuit_seed in
  let circuit_seeds = Array.map (fun _ -> Prng.int g 1_000_000_000) w.shapes in
  let g = Prng.create seed in
  let pattern_seeds = Array.map (fun _ -> Prng.int g 1_000_000_000) w.shapes in
  let netlists =
    Array.mapi
      (fun i s ->
        Generators.random_layered ~seed:circuit_seeds.(i) ~n_inputs:s.inputs ~width:s.width
          ~depth:s.depth ~window:s.window ~technology:Technology.Domino_cmos ())
      w.shapes
  in
  { netlists; pattern_seeds }

let job_key j = Printf.sprintf "c%d.p%d" j.circuit j.patterns

(* One job, as a user runs it.  [spans] is the traced run's recorder;
   when it is on, the engine also gets an obs recorder.  The untraced run
   goes through the same code with both off. *)
(* Whole passes every untraced run makes: with one, campaign-nodrop's
   18 job samples put the tail below the median. *)
let min_whole_passes = 3

let calib_every_s = 3.

(* Set-up rounds per run; [setup_s] is their median. *)
let setup_rounds = 9

type outcome = {
  summary : Faultsim.summary;
  wall_s : float;
  events : Obs.event list;  (* the engine's faultsim.run event, traced runs only *)
  domain_stats : Parallel_exec.stats option;
}

let run_job ?(spans = Spans.create false) ?(jid = 0) inputs j =
  let nl = inputs.netlists.(j.circuit) in
  (* Start every job from a collected heap, as a fresh CLI process does,
     so that one job's garbage is not collected on the next one's clock. *)
  Gc.full_major ();
  let mem, fetch = Obs.memory_sink () in
  let obs = if Spans.enabled spans then Obs.make mem else Obs.disabled in
  let drop = j.drop in
  let t0 = Unix.gettimeofday () in
  let summary, domain_stats =
    Spans.span spans ~job:jid "job" (fun parent ->
        let u = Spans.span spans ~parent ~job:jid "core.universe" (fun _ -> Faultsim.universe nl) in
        let pats =
          Spans.span spans ~parent ~job:jid "util.patterns" (fun _ ->
              Faultsim.random_patterns
                (Prng.create inputs.pattern_seeds.(j.circuit))
                ~n_inputs:(List.length (Netlist.inputs nl))
                ~count:j.patterns)
        in
        Spans.span spans ~parent ~job:jid ("faultsim." ^ engine_name j.engine) (fun _ ->
            match j.engine with
            | `Serial -> (Faultsim.run_serial ~drop ~obs u pats, None)
            | `Parallel -> (Faultsim.run_parallel ~drop ~obs u pats, None)
            | `Ppsfp -> (Faultsim.run_ppsfp ~drop ~obs u pats, None)
            | `Deductive -> (Faultsim.run_deductive ~drop ~obs u pats, None)
            | `Concurrent -> (Faultsim.run_concurrent ~drop ~obs u pats, None)
            | `Domains when Spans.enabled spans ->
                let s, st = Faultsim.run_domain_parallel_stats ~drop ~obs u pats in
                (s, Some st)
            | `Domains -> (Faultsim.run_domain_parallel ~drop u pats, None)))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    summary;
    wall_s;
    events = fetch ();
    domain_stats;
  }

(* The layers a job calls into only indirectly, timed standalone on the
   job's own netlist and patterns: compilation, and the fault-free sweep
   over the job's 62-pattern words. *)
let time_sim_layers spans ~jid inputs j =
  let nl = inputs.netlists.(j.circuit) in
  let c = Spans.span spans ~job:jid "sim.compile" (fun _ -> Compiled.compile nl) in
  let n_in = Compiled.n_inputs c in
  let pats =
    Faultsim.random_patterns
      (Prng.create inputs.pattern_seeds.(j.circuit))
      ~n_inputs:n_in ~count:j.patterns
  in
  let wb = Parallel_exec.word_bits in
  let words =
    Array.init
      ((j.patterns + wb - 1) / wb)
      (fun w ->
        Array.init n_in (fun i ->
            let word = ref 0 in
            for b = 0 to min wb (j.patterns - (w * wb)) - 1 do
              if pats.((w * wb) + b).(i) then word := !word lor (1 lsl b)
            done;
            !word))
  in
  let scratch = Compiled.make_scratch c in
  Spans.span spans ~job:jid "sim.good_sweep" (fun _ ->
      Array.iter (fun pi -> Compiled.eval_words_into c ~scratch pi) words)

(* --- reference digests ------------------------------------------------------ *)

let refs_path w = Filename.concat "perfbench/refs" (w.name ^ ".txt")

(* Lines "SEED KEY DIGEST"; the digests the serial engine produced. *)
let load_refs w ~seed =
  let tbl = Hashtbl.create 16 in
  (match open_in (refs_path w) with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            while true do
              match String.split_on_char ' ' (String.trim (input_line ic)) with
              | [ s; key; d ] when int_of_string_opt s = Some seed -> Hashtbl.replace tbl key d
              | _ -> ()
            done
          with End_of_file -> ()));
  tbl

let unique_keys w =
  List.sort_uniq compare
    (List.map (fun j -> (j.circuit, j.patterns)) w.jobs)

let gen_refs w ~seed =
  let inputs = build_inputs w ~seed in
  List.iter
    (fun (circuit, patterns) ->
      let j = { circuit; patterns; drop = true; engine = `Serial; reps = 1 } in
      let o = run_job inputs j in
      Printf.printf "%d %s %s\n%!" seed (job_key j)
        (Check.digest_first_detection o.summary.Faultsim.first_detection))
    (unique_keys w)

(* --- the run ---------------------------------------------------------------- *)

let event_int (o : outcome) k =
  List.fold_left
    (fun acc e ->
      if e.Obs.ev = "faultsim.run" then acc + Option.value ~default:0 (Obs.int_field e k) else acc)
    0 o.events

let record_counts (acc : Metrics.Acc.t) j (o : outcome) =
  let add = Metrics.Acc.add acc in
  let e = "faultsim." ^ engine_name j.engine in
  List.iter (fun k -> add (e ^ "." ^ k) (float (event_int o k))) [ "gate_evals"; "evals"; "evals_saved" ];
  add "faultsim.detected" (float (Faultsim.n_detected o.summary));
  add "faultsim.sites" (float o.summary.Faultsim.n_sites);
  Option.iter
    (fun (st : Parallel_exec.stats) ->
      let busy = Array.map (fun d -> d.Parallel_exec.busy_s) st.per_domain in
      let n = float (Array.length busy) in
      let mean = Array.fold_left ( +. ) 0. busy /. n in
      add "faultsim.domains.jobs" 1.;
      add "faultsim.domains.domains_sum" (float st.effective_domains);
      add "faultsim.domains.prepare_s" st.prepare_s;
      add "faultsim.domains.spawn_join_s" (st.spawn_s +. st.join_s);
      add "faultsim.domains.imbalance_sum"
        (if mean > 0. then Array.fold_left Float.max 0. busy /. mean else 1.))
    o.domain_stats

(* The worst share of a traced job's wall time that its layer spans do
   not cover: the check that the per-layer numbers add up. *)
let unaccounted spans =
  let all = Spans.spans spans in
  let self = Spans.self_time all in
  List.fold_left
    (fun acc (s : Spans.span) ->
      if s.name = "job" && s.t1 > s.t0 then Float.max acc (self s /. (s.t1 -. s.t0)) else acc)
    0. all

let run w ~seed ~seconds ~trace =
  let refs = load_refs w ~seed in
  let agreement = Check.agreement () in
  (* A seed with reference digests must have one for every job. *)
  let check j o =
    let key = job_key j in
    match Hashtbl.find_opt refs key with
    | None when Hashtbl.length refs > 0 -> Check.Error ("no reference digest for " ^ key)
    | expected -> Check.summary ~agreement ~key ~expected o.summary
  in
  (* Set-up: the circuits, then one job so that lazy initialisation is
     paid before timing starts; repeated so that its median is steady. *)
  let setup_spans = Spans.create trace in
  let setup_layers = Metrics.Acc.create () in
  (* Only the first round's circuits are kept: with a copy per round held
     for the whole run, five rounds made the live heap five times larger,
     and every heap reset and every job's major collections paid for
     marking it. *)
  let kept = ref None in
  let setup_host = ref [] in
  let setups =
    List.init setup_rounds (fun _ ->
        setup_host := Calib.sample () :: !setup_host;
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let inputs =
          Spans.span setup_spans ~job:0 "circuits.build" (fun _ -> build_inputs w ~seed)
        in
        let built = Unix.gettimeofday () -. t0 in
        let j = List.hd w.jobs in
        let o = run_job inputs j in
        if Option.is_none !kept then kept := Some inputs;
        (built +. o.wall_s, check j o))
  in
  Metrics.add_span_times setup_layers setup_spans;
  let inputs = Option.get !kept in
  let jid = ref 0 in
  let t_start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t_start in
  let first = Array.make (List.length w.jobs) 0. in
  (* Returns the pass and whether it ran to the end.  The first
     [min_whole_passes] passes always run whole, even past [seconds] on a
     slow host.  After them an untraced job starts only if, going by its
     first-pass time, it ends within [seconds]; so the last pass may stop
     part way. *)
  let one_pass ~n_done =
    let p = Metrics.new_pass () in
    let spans = Spans.create true in
    (* A calibration block at the pass's start and then every
       [calib_every_s]. *)
    let last_calib = ref neg_infinity in
    let sample i j =
      let o = run_job inputs j in
      p.jobs <-
        { key = i; engine = engine_name j.engine; latency = o.wall_s;
          sites = o.summary.Faultsim.n_sites; patterns = j.patterns }
        :: p.jobs;
      p.verdicts <- check j o :: p.verdicts;
      o.wall_s
    in
    let untraced i j =
      if Unix.gettimeofday () -. !last_calib >= calib_every_s then begin
        p.host <- Calib.samples 3 @ p.host;
        last_calib := Unix.gettimeofday ()
      end;
      let t = List.fold_left (fun acc _ -> acc +. sample i j) 0. (List.init j.reps Fun.id) in
      if n_done = 0 then first.(i) <- t
    in
    let traced j =
      incr jid;
      let o = run_job ~spans ~jid:!jid inputs j in
      p.verdicts <- check j o :: p.verdicts;
      record_counts p.layers j o;
      o.wall_s
    in
    let pair i j =
      (* Alternate which side of the pair runs first. *)
      let t, u =
        if i mod 2 = 0 then
          let u = sample i j in
          (traced j, u)
        else
          let t = traced j in
          (t, sample i j)
      in
      p.traced_wall <- p.traced_wall +. t;
      p.untraced_wall <- p.untraced_wall +. u;
      time_sim_layers spans ~jid:!jid inputs j
    in
    let rec go i = function
      | [] -> true
      | j :: rest ->
          if trace then (pair i j; go (i + 1) rest)
          else if n_done < min_whole_passes || elapsed () +. first.(i) <= float seconds then begin
            untraced i j;
            go (i + 1) rest
          end
          else false
    in
    let complete = go 0 w.jobs in
    p.complete <- complete;
    (* One caller: the measured wall time is the jobs' own, without the
       heap resets and answer checks between them. *)
    p.wall <- List.fold_left (fun a (j : Metrics.job) -> a +. j.latency) 0. p.jobs;
    p.rss_mb <- Report.peak_rss_mb None;
    if trace then begin
      Metrics.add_span_times p.layers spans;
      Metrics.Acc.set p.layers "circuits.build_s" (Metrics.Acc.get setup_layers "circuits.build_s" /. float (List.length setups));
      Metrics.Acc.set p.layers "bench.job_unaccounted_frac" (unaccounted spans);
      Metrics.finish_layers p.layers
    end;
    ((p, spans), complete)
  in
  let rec loop acc =
    let n = List.length acc in
    let more =
      if trace then n = 0 || elapsed () +. (elapsed () /. float n) <= float seconds
      else n < min_whole_passes || elapsed () < float seconds
    in
    if not more then List.rev acc
    else
      match one_pass ~n_done:n with
      | ((p, _) as r), true -> loop (if p.jobs = [] && not trace then acc else r :: acc)
      | ((p, _) as r), false -> List.rev (if p.jobs = [] then acc else r :: acc)
  in
  let passes = loop [] in
  {
    Metrics.passes = List.map fst passes;
    setups = List.map fst setups;
    setup_host = !setup_host;
    setup_verdicts = List.map snd setups;
    spans = setup_spans :: List.map snd passes;
  }
