(* The serve-durable workload: the real [dynmos serve --socket --data-dir]
   process, fresh state each pass, driven by one closed-loop client
   connection (one outstanding request) over catalog circuits.
   Jobs are small, so the server's own layers — parse, journal, queue,
   cache, persist — carry a large share of each request's latency. *)

open Dynmos_util
open Dynmos_netlist
open Dynmos_faultsim
open Perfbench_core
module Json = Dynmos_server.Json
module Protocol = Dynmos_server.Protocol
module Journal = Dynmos_server.Journal
module Server = Dynmos_server.Server
module Catalog = Dynmos_circuits.Catalog

let server_exe = "_build/default/bin/dynmos_cli.exe"

let small_circuits =
  [|
    "c17-domino"; "carry8"; "carry16"; "adder3-domino"; "parity6-domino"; "decoder3-domino";
    "mux3-domino"; "wideand12"; "rand20"; "rand60";
  |]

let pattern_counts = [| 256; 512; 1024; 2048; 4096 |]

(* Per small circuit: serial five times (as a request without "engine",
   the serve default — a third of the requests), every other engine
   twice.  rand1k appears only on the injection engines: serial and the
   propagation engines take seconds there. *)
let slots =
  List.init 5 (fun _ -> None)
  @ List.concat_map
      (fun e -> [ Some e; Some e ])
      [ "parallel"; "ppsfp"; "domains"; "deductive"; "concurrent" ]

let rand1k_slots = [ "parallel"; "ppsfp"; "domains"; "parallel"; "ppsfp"; "domains" ]

type req = {
  id : int;
  circuit : string;
  patterns : int;
  seed : int;
  engine : string option;
  repeat : bool;  (* an exact copy of an earlier request *)
}

let engine_label r = Option.value ~default:"serial" r.engine

let line r =
  Json.to_string
    (Json.Obj
       ([
          ("op", Json.String "run");
          ("id", Json.Int r.id);
          ("circuit", Json.String r.circuit);
          ("patterns", Json.Int r.patterns);
          ("seed", Json.Int r.seed);
        ]
       @ match r.engine with Some e -> [ ("engine", Json.String e) ] | None -> []))

(* The connection's request list.  A quarter of the requests repeat an
   earlier one exactly, after it, so that the original has completed and
   the repeat must hit the cache.

   The workload seed decides every request's patterns.  The rest — the
   menu below, its order and which requests repeat — comes from a fixed
   shape seed, so that every seed asks the same mix in the same order.
   Each engine meets every pattern count on every fifth circuit. *)
let shape_seed = 20251017

let generate ~seed =
  let g = Prng.create shape_seed in
  let menu =
    List.concat
      (List.mapi
         (fun ci circuit ->
           List.mapi
             (fun si engine ->
               (circuit, engine, pattern_counts.((ci + si) mod Array.length pattern_counts)))
             slots)
         (Array.to_list small_circuits))
    @ List.map (fun e -> ("rand1k", Some e, 1024)) rand1k_slots
  in
  let pattern_seeds = Prng.create seed in
  let uniques =
    Array.of_list
      (List.map
         (fun (circuit, engine, patterns) ->
           let seed = Prng.int pattern_seeds 1_000_000_000 in
           { id = 0; circuit; patterns; seed; engine; repeat = false })
         menu)
  in
  Prng.shuffle g uniques;
  let n = Array.length uniques in
  let chosen = Array.init n Fun.id in
  Prng.shuffle g chosen;
  let repeated = Array.make n false in
  Array.iteri (fun k i -> if k < n / 3 then repeated.(i) <- true) chosen;
  (* Position keys: original k at 2k; a repeat after it at 2q+1. *)
  let keyed =
    List.concat
      (List.init n (fun k ->
           let orig = (2 * k, uniques.(k)) in
           if repeated.(k) then
             let q = k + Prng.int g (n - k) in
             [ orig; ((2 * q) + 1, { (uniques.(k)) with repeat = true }) ]
           else [ orig ]))
  in
  List.stable_sort (fun (a, _) (b, _) -> compare a b) keyed
  |> List.mapi (fun i (_, r) -> { r with id = i + 1 })

(* Detected counts computed in this process with the bit-parallel engine
   on the same universe and patterns the server builds. *)
let references reqs =
  let universes = Hashtbl.create 16 and refs = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let key = (r.circuit, r.patterns, r.seed) in
      if not (Hashtbl.mem refs key) then begin
        let u =
          match Hashtbl.find_opt universes r.circuit with
          | Some u -> u
          | None ->
              let nl = match Catalog.find r.circuit with Ok nl -> nl | Error e -> failwith e in
              let u = Faultsim.universe nl in
              Hashtbl.add universes r.circuit u;
              u
        in
        let nl = Dynmos_sim.Compiled.netlist u.Faultsim.compiled in
        let pats =
          Faultsim.random_patterns (Prng.create r.seed)
            ~n_inputs:(List.length (Netlist.inputs nl))
            ~count:r.patterns
        in
        Hashtbl.add refs key (Faultsim.n_detected (Faultsim.run_parallel u pats))
      end)
    reqs;
  fun r -> Hashtbl.find refs (r.circuit, r.patterns, r.seed)

(* --- the server process --------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let connect ~pid sock =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "dynmos serve exited before accepting connections");
        if Unix.gettimeofday () > deadline then failwith "dynmos serve did not start";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let conn_of fd = { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let ask c l =
  output_string c.oc (l ^ "\n");
  flush c.oc;
  input_line c.ic

(* Stop the server and wait for it: a drain on SIGTERM, a kill if the
   drain does not finish. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

type served = { req : req; t_send : float; t_recv : float; check : Check.served }

type pass_result = {
  setup_s : float;
  wall_s : float;
  served : served list;
  stats : Json.t;
  rss_mb : float;
  trace_events : Json.t list;
}

let serve_pass ~base ~trace ~expected reqs =
  let sock = base ^ ".sock" and data = base ^ ".d" and trace_file = base ^ ".trace.jsonl" in
  List.iter rm_rf [ sock; data; trace_file ];
  let args =
    [ server_exe; "serve"; "--socket"; sock; "--data-dir"; data ]
    @ if trace then [ "--trace"; trace_file ] else []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process server_exe (Array.of_list args) devnull devnull Unix.stderr in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      stop pid;
      List.iter rm_rf [ sock; data; trace_file ])
    (fun () ->
      let control = conn_of (connect ~pid sock) in
      let pong = ask control {|{"op":"ping"}|} in
      let setup_s = Unix.gettimeofday () -. t0 in
      if Json.member "status" (Result.get_ok (Json.parse pong)) <> Some (Json.String "pong") then
        failwith ("ping answered " ^ pong);
      (* A broken connection fails every request it still had to send. *)
      let t_start = Unix.gettimeofday () in
      let served =
        let c = conn_of (connect ~pid sock) in
        let broken = ref None in
        let served =
          List.rev
            (List.fold_left
               (fun acc r ->
                 let t_send = Unix.gettimeofday () in
                 let check =
                   match !broken with
                   | Some m -> Check.unanswered m
                   | None -> (
                       match ask c (line r) with
                       | resp -> Check.served ~expected_detected:(expected r) ~repeat:r.repeat resp
                       | exception ((End_of_file | Sys_error _ | Unix.Unix_error _) as e) ->
                           let m = "connection lost: " ^ Printexc.to_string e in
                           broken := Some m;
                           Check.unanswered m)
                 in
                 { req = r; t_send; t_recv = Unix.gettimeofday (); check } :: acc)
               [] reqs)
        in
        Unix.close c.fd;
        served
      in
      let wall_s = Unix.gettimeofday () -. t_start in
      let stats = Result.get_ok (Json.parse (ask control {|{"op":"stats"}|})) in
      let rss_mb = Report.peak_rss_mb (Some pid) in
      Unix.close control.fd;
      stop pid;
      let trace_events =
        if not trace then []
        else
          In_channel.with_open_text trace_file In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter_map (fun l -> Result.to_option (Json.parse l))
      in
      { setup_s; wall_s; served; stats; rss_mb; trace_events })

(* --- per-layer numbers --------------------------------------------------- *)

let num = function Some (Json.Int i) -> float i | Some (Json.Float f) -> f | _ -> 0.

let engine_counts (acc : Metrics.Acc.t) events =
  List.iter
    (fun e ->
      if Json.member "ev" e = Some (Json.String "faultsim.run") then
        match Json.member "engine" e with
        | Some (Json.String name) ->
            let p = "faultsim." ^ name in
            Metrics.Acc.add acc (p ^ ".busy_s") (num (Json.member "dt_s" e));
            List.iter
              (fun k -> Metrics.Acc.add acc (p ^ "." ^ k) (num (Json.member k e)))
              [ "gate_evals"; "evals"; "evals_saved" ]
        | _ -> ())
    events

let server_layers (acc : Metrics.Acc.t) (r : pass_result) =
  let set = Metrics.Acc.set acc in
  let ok = List.filter (fun s -> Check.is_ok s.check.verdict) r.served in
  let exec = List.filter_map (fun s -> if s.check.cached then None else Some s.check.dt_s) ok in
  let overhead =
    List.map
      (fun s -> s.t_recv -. s.t_send -. if s.check.cached then 0. else s.check.dt_s)
      ok
  in
  if exec <> [] then set "server.exec_s.p50" (Stats.median exec);
  if overhead <> [] then set "server.overhead_s.p50" (Stats.median overhead);
  Option.iter (fun t -> set "server.overhead_s.tail" t.Stats.value) (Stats.tail overhead);
  if ok <> [] then
    set "server.cache_hit_frac"
      (float (List.length (List.filter (fun s -> s.check.cached) ok)) /. float (List.length ok));
  set "server.rejected"
    (float
       (List.length
          (List.filter (fun s -> match s.check.verdict with Check.Rejected _ -> true | _ -> false) r.served)));
  List.iter
    (fun k -> set ("server." ^ k) (num (Json.member k r.stats)))
    [ "journal_appends"; "journal_fsyncs"; "cache_persisted"; "circuits_cached" ];
  engine_counts acc r.trace_events;
  (* Coverage over the answered requests, cache hits included. *)
  set "faultsim.sites" (float (List.fold_left (fun a s -> a + s.check.sites) 0 ok));
  set "faultsim.detected" (float (List.fold_left (fun a s -> a + s.check.detected) 0 ok))

(* The protocol parser and the journal, timed standalone on this pass's
   request lines. *)
let time_standalone spans ~dir lines =
  let limits =
    {
      Protocol.max_patterns = Server.default_config.Server.max_patterns;
      max_seconds = Server.default_config.Server.max_seconds;
      max_request_evals = Server.default_config.Server.max_request_evals;
    }
  in
  let parsed =
    Spans.span spans ~job:0 "server.parse" (fun _ ->
        List.map (Protocol.parse_request ~limits ~known_circuit:Catalog.mem) lines)
  in
  let runs = List.filter_map (function Ok (Protocol.Run r) -> Some r | _ -> None) parsed in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let j = Journal.open_ (Filename.concat dir "journal") in
  Fun.protect
    ~finally:(fun () ->
      Journal.close j;
      rm_rf dir)
    (fun () ->
      Spans.span spans ~job:0 "server.journal.append" (fun _ ->
          List.iter
            (fun r ->
              let jid = Journal.append_admit j ~envelope:(Protocol.run_envelope r) in
              Journal.append_done j ~jid ~status:"ok")
            runs));
  List.length runs

let run ~out_dir ~seed ~seconds ~trace =
  let reqs = generate ~seed in
  let expected = references reqs in
  let lines = List.map line reqs in
  let k = ref 0 in
  let pass ~trace =
    incr k;
    let base = Printf.sprintf "%s/serve-%d-%d" out_dir (Unix.getpid ()) !k in
    serve_pass ~base ~trace ~expected reqs
  in
  let fill (p : Metrics.pass) (r : pass_result) =
    p.verdicts <- List.map (fun s -> s.check.Check.verdict) r.served @ p.verdicts
  in
  let pairs = ref 0 in
  let one () =
    let p = Metrics.new_pass () in
    if not trace then begin
      (* The kernel runs while no server does, just before and after the
         pass. *)
      let before = Calib.samples 5 in
      let r = pass ~trace:false in
      p.host <- before @ Calib.samples 5;
      fill p r;
      p.jobs <-
        List.map
          (fun s ->
            {
              Metrics.key = s.req.id;
              engine = engine_label s.req;
              latency = s.t_recv -. s.t_send;
              sites = s.check.sites;
              patterns = s.req.patterns;
            })
          r.served;
      p.wall <- r.wall_s;
      p.rss_mb <- r.rss_mb;
      (p, r.setup_s, None)
    end
    else begin
      (* A traced and an untraced server, alternating which runs first. *)
      incr pairs;
      let traced_first = !pairs mod 2 = 0 in
      let a = pass ~trace:traced_first in
      let b = pass ~trace:(not traced_first) in
      let t, u = if traced_first then (a, b) else (b, a) in
      fill p t;
      fill p u;
      p.traced_wall <- t.wall_s;
      p.untraced_wall <- u.wall_s;
      let spans = Spans.create true in
      List.iter
        (fun s -> Spans.add spans ~job:s.req.id "serve.request" ~t0:s.t_send ~t1:s.t_recv)
        t.served;
      let n_runs = time_standalone spans ~dir:(Printf.sprintf "%s/journal-%d" out_dir (Unix.getpid ())) lines in
      Metrics.add_span_times p.layers spans;
      Metrics.Acc.set p.layers "server.journal.append_s"
        (Metrics.Acc.get p.layers "server.journal.append_s" /. float (max 1 n_runs));
      server_layers p.layers t;
      Metrics.finish_layers p.layers;
      (p, t.setup_s, Some spans)
    end
  in
  let t_start = Unix.gettimeofday () in
  let rec loop acc =
    let elapsed = Unix.gettimeofday () -. t_start in
    let n = List.length acc in
    if n > 0 && elapsed +. (elapsed /. float n) > float seconds then List.rev acc
    else loop (one () :: acc)
  in
  let results = loop [] in
  {
    Metrics.passes = List.map (fun (p, _, _) -> p) results;
    setups = List.map (fun (_, s, _) -> s) results;
    setup_host = List.concat_map (fun (p, _, _) -> p.Metrics.host) results;
    setup_verdicts = [];
    spans = List.filter_map (fun (_, _, s) -> s) results;
  }
