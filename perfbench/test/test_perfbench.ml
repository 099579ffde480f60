(* Tests of the benchmark's own arithmetic and answer checks. *)

open Perfbench_core
open Dynmos_faultsim
module Json = Dynmos_server.Json

let feq = Alcotest.(check (float 1e-9))

let test_tail () =
  let xs = List.init 100 (fun i -> float (i + 1)) in
  (match Stats.tail xs with
  | Some t ->
      feq "value: the 90th smallest" 90. t.Stats.value;
      feq "percentile" 90. t.Stats.pct;
      Alcotest.(check int) "sample count" 100 t.Stats.n;
      Alcotest.(check int) "samples beyond" 10 t.Stats.beyond;
      Alcotest.(check int) "exactly that many above it" 10
        (List.length (List.filter (fun x -> x > t.Stats.value) xs))
  | None -> Alcotest.fail "100 samples have a tail");
  (match Stats.tail (List.init 11 (fun i -> float (10 - i))) with
  | Some t ->
      feq "11 samples: the minimum, unsorted input" 0. t.Stats.value;
      Alcotest.(check int) "11 samples counted" 11 t.Stats.n
  | None -> Alcotest.fail "11 samples have a tail");
  Alcotest.(check bool) "10 samples leave none beyond" true (Stats.tail (List.init 10 float) = None)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float (i + 1))) in
  feq "q1" 2.75 q1;
  feq "q2" 5.5 q2;
  feq "q3" 8.25 q3;
  feq "median" 4.75 (Stats.median [ 3.; 10.; 1.; 5.5; 7.; 4. ]);
  feq "spread" ((8.25 -. 2.75) /. 5.5) (Stats.spread (List.init 10 (fun i -> float (i + 1))))

let test_pairs_per_s () =
  feq "sum of sites x patterns over wall time" 1000.
    (Stats.pairs_per_s [ (10, 100); (5, 200) ] ~wall_s:2.);
  (* A pass's job samples aggregate the same way. *)
  let p = Metrics.new_pass () in
  p.Metrics.jobs <-
    [
      { Metrics.key = 0; engine = "parallel"; latency = 0.5; sites = 10; patterns = 100 };
      { Metrics.key = 1; engine = "ppsfp"; latency = 0.5; sites = 5; patterns = 200 };
    ];
  p.Metrics.wall <- 2.;
  p.Metrics.rss_mb <- 1.;
  p.Metrics.verdicts <- [ Check.Ok; Check.Ok ];
  (* A host at the reference speed leaves the times as measured. *)
  p.Metrics.host <- [ Calib.reference_s ];
  let s =
    Metrics.summarise ~trace:false
      { Metrics.passes = [ p; p ]; setups = [ 0.1 ]; setup_host = [ Calib.reference_s ]; setup_verdicts = []; spans = [] }
  in
  let get n = (List.find (fun m -> m.Report.name = n) s.Metrics.metrics).Report.value in
  feq "two passes: 4000 pairs over 4 s" 1000. (get "pairs_per_s");
  feq "ttc sums the engine's jobs" 0.5 (get "ttc_s.parallel");
  feq "ok_frac" 1. (get "ok_frac")

(* A run's times are brought to the reference host speed, then a job's
   latency is its median over the passes. *)
let test_job_latency () =
  let pass ~latency ~host =
    let p = Metrics.new_pass () in
    p.Metrics.jobs <- [ { Metrics.key = 0; engine = "parallel"; latency; sites = 10; patterns = 100 } ];
    p.Metrics.wall <- latency;
    p.Metrics.rss_mb <- 1.;
    p.Metrics.host <- host;
    p.Metrics.verdicts <- [ Check.Ok ];
    p
  in
  let r = Calib.reference_s in
  let s =
    Metrics.summarise ~trace:false
      {
        Metrics.passes =
          [
            (* A host at half speed, and a stall in the second pass. *)
            pass ~latency:0.2 ~host:[ 2. *. r ];
            pass ~latency:2.0 ~host:[ 2. *. r; 0.5 *. r ];
            pass ~latency:0.2 ~host:[ 2. *. r ];
          ];
        setups = [ 0.4 ];
        setup_host = [ 2. *. r ];
        setup_verdicts = [];
        spans = [];
      }
  in
  let get n = (List.find (fun m -> m.Report.name = n) s.Metrics.metrics).Report.value in
  feq "the stall does not move the job's latency" 0.1 (get "ttc_s.parallel");
  feq "median job" 0.1 (get "job_p50_s");
  feq "set-up scaled alike" 0.2 (get "setup_s");
  feq "pairs per scaled second, median over passes" 10000. (get "pairs_per_s")

let c17_summary () =
  let nl = Dynmos_circuits.Generators.c17 ~style:`Domino () in
  let u = Faultsim.universe nl in
  let n_inputs = List.length (Dynmos_netlist.Netlist.inputs nl) in
  let pats = Faultsim.random_patterns (Dynmos_util.Prng.create 3) ~n_inputs ~count:64 in
  Faultsim.run_parallel u pats

let test_flipped_detection () =
  let s = c17_summary () in
  let d = Check.digest_first_detection s.Faultsim.first_detection in
  let ok = Check.summary ~agreement:(Check.agreement ()) ~key:"k" ~expected:(Some d) s in
  Alcotest.(check bool) "the reference itself passes" true (Check.is_ok ok);
  let fd = Array.copy s.Faultsim.first_detection in
  fd.(0) <- (match fd.(0) with None -> Some 0 | Some p -> Some (p + 1));
  let flipped = { s with Faultsim.first_detection = fd } in
  let bad = Check.summary ~agreement:(Check.agreement ()) ~key:"k" ~expected:(Some d) flipped in
  Alcotest.(check bool) "one flipped entry misses the reference" false (Check.is_ok bad);
  feq "and raises failed_frac" 0.5 (Check.failed_frac [ ok; bad ]);
  (* Without a reference, engines that ran the same job must agree. *)
  let agreement = Check.agreement () in
  let first = Check.summary ~agreement ~key:"k" ~expected:None s in
  let second = Check.summary ~agreement ~key:"k" ~expected:None flipped in
  Alcotest.(check bool) "first engine sets the digest" true (Check.is_ok first);
  Alcotest.(check bool) "a disagreeing engine fails" false (Check.is_ok second)

let test_served () =
  let ok_line cached detected =
    Printf.sprintf
      {|{"line":1,"status":"ok","detected":%d,"sites":20,"patterns":256,"dt_s":0.01,"cached":%b}|}
      detected cached
  in
  let v ?(repeat = false) l = (Check.served ~expected_detected:7 ~repeat l).Check.verdict in
  Alcotest.(check bool) "matching answer" true (Check.is_ok (v (ok_line false 7)));
  Alcotest.(check bool) "wrong detected count" false (Check.is_ok (v (ok_line false 6)));
  Alcotest.(check bool) "repeat answered from cache" true (Check.is_ok (v ~repeat:true (ok_line true 7)));
  Alcotest.(check bool) "repeat not from cache" false (Check.is_ok (v ~repeat:true (ok_line false 7)));
  let partial = v {|{"line":2,"status":"partial","detected":7,"sites":20}|} in
  Alcotest.(check bool) "partial fails" false (Check.is_ok partial);
  feq "a partial response raises failed_frac" 0.5 (Check.failed_frac [ v (ok_line false 7); partial ]);
  Alcotest.(check bool) "overloaded is a rejection" true
    (match v {|{"line":3,"status":"overloaded"}|} with Check.Rejected _ -> true | _ -> false)

let test_self_time () =
  let t = Spans.create true in
  Spans.add t ~job:1 "outer" ~t0:0. ~t1:10.;
  let parent = (List.hd (Spans.spans t)).Spans.id in
  Spans.add t ~parent ~job:1 "a" ~t0:1. ~t1:3.;
  Spans.add t ~parent ~job:1 "b" ~t0:2. ~t1:5.;
  (* Another recorder's spans do not count as children. *)
  let other = Spans.create true in
  Spans.add other ~job:2 "c" ~t0:0. ~t1:1.;
  match Spans.self_times (Spans.concat [ t; other ]) with
  | [ ("outer", outer, 1); ("a", a, 1); ("b", b, 1); ("c", c, 1) ] ->
      feq "parent minus the union of its children" 6. outer;
      feq "leaf a" 2. a;
      feq "leaf b" 3. b;
      feq "leaf c" 1. c
  | _ -> Alcotest.fail "unexpected span names"

(* BENCHMARK.json names exactly the metrics the benchmark prints. *)
let test_catalogue () =
  let j =
    match Json.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let names key =
    match Json.member key j with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.String n), Some (Json.String u) -> (n, u)
            | _ -> Alcotest.fail "metric without name/unit")
          l
    | _ -> Alcotest.fail ("no " ^ key)
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Metrics.end_to_end (names "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Metrics.per_layer (names "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "pairs_per_s" `Quick test_pairs_per_s;
          Alcotest.test_case "job latency" `Quick test_job_latency;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
      ( "check",
        [
          Alcotest.test_case "flipped first detection" `Quick test_flipped_detection;
          Alcotest.test_case "serve responses" `Quick test_served;
        ] );
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json" `Quick test_catalogue ]);
    ]
