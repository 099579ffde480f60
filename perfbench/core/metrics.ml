(* The metric catalogue and the reduction of a run's passes to it.  Both
   workload kinds fill the same [pass] records; every metric named here is
   reported on every workload, and a layer a workload does not exercise
   reports 0. *)

let engines = [ "serial"; "parallel"; "ppsfp"; "domains"; "deductive"; "concurrent" ]

(* Engines with a time-to-coverage headline (serial runs only on serve,
   where it is the default engine). *)
let ttc_engines = [ "parallel"; "ppsfp"; "domains"; "deductive"; "concurrent" ]

let end_to_end =
  [ ("setup_s", "s") ]
  @ List.map (fun e -> ("ttc_s." ^ e, "s")) ttc_engines
  @ [
      ("job_p50_s", "s");
      ("job_tail_s", "s");
      ("pairs_per_s", "1/s");
      ("ok_frac", "frac");
      ("peak_rss_mb", "MB");
    ]

let per_layer =
  [
    ("circuits.build_s", "s");
    ("core.universe_s", "s");
    ("sim.compile_s", "s");
    ("sim.good_sweep_s", "s");
    ("util.patterns_s", "s");
  ]
  @ List.concat_map
      (fun e ->
        let p = "faultsim." ^ e in
        [
          (p ^ ".busy_s", "s");
          (p ^ ".gate_evals", "count");
          (p ^ ".drop_saved_frac", "frac");
          (p ^ ".gate_evals_per_s", "1/s");
        ])
      engines
  @ [
      ("faultsim.coverage", "frac");
      ("faultsim.domains.effective_domains", "count");
      ("faultsim.domains.prepare_s", "s");
      ("faultsim.domains.spawn_join_s", "s");
      ("faultsim.domains.busy_imbalance", "ratio");
      ("server.exec_s.p50", "s");
      ("server.overhead_s.p50", "s");
      ("server.overhead_s.tail", "s");
      ("server.cache_hit_frac", "frac");
      ("server.journal_appends", "count");
      ("server.journal_fsyncs", "count");
      ("server.cache_persisted", "count");
      ("server.circuits_cached", "count");
      ("server.journal.append_s", "s");
      ("server.parse_s", "s");
      ("server.rejected", "count");
      ("obs.trace_overhead_frac", "frac");
      ("bench.job_unaccounted_frac", "frac");
    ]

(* Named sums for one pass. *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 32
  let get (t : t) k = Option.value ~default:0. (Hashtbl.find_opt t k)
  let add (t : t) k v = Hashtbl.replace t k (get t k +. v)
  let set (t : t) k v = Hashtbl.replace t k v
end

(* One run of a job.  [key] names the job within the workload's job
   list: the same key in every pass is the same job. *)
type job = { key : int; engine : string; latency : float; sites : int; patterns : int }

(* One pass over a workload's job list.  Untraced jobs feed the
   end-to-end metrics; traced jobs feed [layers]. *)
type pass = {
  mutable jobs : job list;
  mutable verdicts : Check.verdict list;
  mutable wall : float;  (* time the pass's untraced work took *)
  mutable complete : bool;  (* false for a last pass cut short by the clock *)
  mutable rss_mb : float;
  layers : Acc.t;
  mutable traced_wall : float;
  mutable untraced_wall : float;
  mutable host : float list;  (* calibration kernel times taken during the pass *)
}

let new_pass () =
  {
    jobs = [];
    verdicts = [];
    wall = 0.;
    complete = true;
    rss_mb = nan;
    layers = Acc.create ();
    traced_wall = 0.;
    untraced_wall = 0.;
    host = [];
  }

(* Layer self times from one traced pass's spans: span "core.universe"
   feeds metric "core.universe_s", and an engine's span
   "faultsim.<engine>" feeds "faultsim.<engine>.busy_s". *)
let add_span_times (acc : Acc.t) spans =
  List.iter
    (fun (name, self, _count) ->
      let metric =
        if String.length name > 9 && String.sub name 0 9 = "faultsim." then name ^ ".busy_s"
        else name ^ "_s"
      in
      Acc.add acc metric self)
    (Spans.self_times spans)

(* Per-engine ratios derived from the pass's summed counts. *)
let finish_layers (acc : Acc.t) =
  List.iter
    (fun e ->
      let p = "faultsim." ^ e in
      let evals = Acc.get acc (p ^ ".evals") and saved = Acc.get acc (p ^ ".evals_saved") in
      if evals +. saved > 0. then Acc.set acc (p ^ ".drop_saved_frac") (saved /. (evals +. saved));
      let busy = Acc.get acc (p ^ ".busy_s") in
      if busy > 0. then Acc.set acc (p ^ ".gate_evals_per_s") (Acc.get acc (p ^ ".gate_evals") /. busy))
    engines;
  let sites = Acc.get acc "faultsim.sites" in
  if sites > 0. then Acc.set acc "faultsim.coverage" (Acc.get acc "faultsim.detected" /. sites);
  let dj = Acc.get acc "faultsim.domains.jobs" in
  if dj > 0. then begin
    Acc.set acc "faultsim.domains.effective_domains" (Acc.get acc "faultsim.domains.domains_sum" /. dj);
    Acc.set acc "faultsim.domains.busy_imbalance" (Acc.get acc "faultsim.domains.imbalance_sum" /. dj)
  end

let tail_note (t : Stats.tail option) =
  match t with
  | None -> "too few jobs for a tail"
  | Some t ->
      Printf.sprintf "p%.1f of %d jobs, %d beyond" t.Stats.pct t.Stats.n t.Stats.beyond

(* What a workload's run hands to [summarise]. *)
type run = {
  passes : pass list;
  setups : float list;  (* set-up times, seconds *)
  setup_host : float list;  (* calibration kernel times taken beside them *)
  setup_verdicts : Check.verdict list;  (* answers checked during set-up *)
  spans : Spans.t list;  (* traced runs only *)
}

type summary = {
  metrics : Report.metric list;
  attempted : int;
  failures : Check.verdict list;
  notes : string list;  (* human-readable lines printed before the result *)
}

let summarise ~trace { passes; setups; setup_host; setup_verdicts; _ } =
  let verdicts = setup_verdicts @ List.concat_map (fun p -> p.verdicts) passes in
  let med f = Stats.median (List.map f passes) in
  let values, notes =
    if not trace then begin
      (* Every time is first brought to the reference host speed with the
         median of all the run's kernel times: a pass's own median, or the
         few kernel times nearest a job, moved more than the jobs did.  A
         job's latency is then its median over the passes, so a stall
         that hits one run of it moves neither the sums nor the
         distribution.  Every distinct job gives one sample. *)
      let host = setup_host @ List.concat_map (fun p -> p.host) passes in
      let factor = Calib.factor host in
      let jobs =
        List.concat_map (fun p -> List.map (fun j -> { j with latency = j.latency *. factor }) p.jobs) passes
      in
      let lat_of =
        List.sort_uniq compare (List.map (fun j -> (j.engine, j.key)) jobs)
        |> List.map (fun (e, k) ->
               ( e,
                 Stats.median
                   (List.filter_map (fun j -> if j.key = k then Some j.latency else None) jobs) ))
      in
      let lat = List.map snd lat_of in
      let tail = Stats.tail lat in
      let ttc e = List.fold_left (fun acc (e', l) -> if e' = e then acc +. l else acc) 0. lat_of in
      (* Throughput per pass, from whole passes only: a pass cut short
         ran only the head of the job list. *)
      let whole = List.filter (fun p -> p.complete) passes in
      let rate p =
        Stats.pairs_per_s
          (List.map (fun j -> (j.sites, j.patterns)) p.jobs)
          ~wall_s:(p.wall *. factor)
      in
      let values =
        [ ("setup_s", Stats.median setups *. factor) ]
        @ List.map (fun e -> ("ttc_s." ^ e, ttc e)) ttc_engines
        @ [
            ("job_p50_s", Stats.median lat);
            ("job_tail_s", match tail with Some t -> t.Stats.value | None -> nan);
            ("pairs_per_s", Stats.median (List.map rate whole));
            ("ok_frac", 1. -. Check.failed_frac verdicts);
            ("peak_rss_mb", med (fun p -> p.rss_mb));
          ]
      in
      ( values,
        [
          Printf.sprintf "set-up samples (s, unscaled): %s"
            (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
          Printf.sprintf "host speed factor %.4f: reference %.4f s over the median of %d kernel runs"
            factor Calib.reference_s (List.length host);
          Printf.sprintf "passes: %d (%d whole); job latency: one sample per job, its median over the passes; job_tail_s is %s"
            (List.length passes) (List.length whole) (tail_note tail);
        ] )
    end
    else begin
      let overhead =
        let t = List.fold_left (fun a p -> a +. p.traced_wall) 0. passes
        and u = List.fold_left (fun a p -> a +. p.untraced_wall) 0. passes in
        if u > 0. then (t /. u) -. 1. else 0.
      in
      let values =
        List.map
          (fun (name, _) ->
            if name = "obs.trace_overhead_frac" then (name, overhead)
            else (name, med (fun p -> Acc.get p.layers name)))
          per_layer
      in
      (values, [ Printf.sprintf "traced passes: %d" (List.length passes) ])
    end
  in
  let catalogue = if trace then per_layer else end_to_end in
  {
    metrics = List.map (fun (name, unit_) -> Report.metric name unit_ (List.assoc name values)) catalogue;
    attempted = List.length verdicts;
    failures = List.filter (fun v -> not (Check.is_ok v)) verdicts;
    notes;
  }
