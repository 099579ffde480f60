(* Time-to-coverage benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1
     perfbench gen-refs --workload W --seed N
     perfbench compare RESULTS.jsonl [RESULTS.jsonl]

   Runs one workload, checks every answer, prints one line per metric and
   then, as the last line, the JSON result.  Every result is also appended
   with its environment stamp to perfbench/_out/results.jsonl.  Run from
   the repository root (perfbench/run.sh builds first).  See
   perfbench/README.md. *)

open Perfbench_core

let out_dir = "perfbench/_out"

let usage () =
  prerr_endline
    "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n\
    \       perfbench gen-refs --workload W --seed N\n\
    \       perfbench compare RESULTS.jsonl [RESULTS.jsonl]\n\
     workloads: campaign-nodrop serve-durable";
  exit 2

let rec flags acc = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      flags ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let flag fl k = match List.assoc_opt k fl with Some v -> v | None -> usage ()

let int_flag fl k =
  match int_of_string_opt (flag fl k) with Some n when n >= 0 -> n | _ -> usage ()

let campaign_of = function
  | "campaign-nodrop" -> Some Campaign_wl.campaign_nodrop
  | _ -> None

let print_run ~workload ~seed ~seconds ~trace (s : Metrics.summary) spans =
  List.iter print_endline s.notes;
  if trace then begin
    let path = Printf.sprintf "%s/trace-%s-%d.jsonl" out_dir workload seed in
    let merged = Spans.concat spans in
    Spans.write_jsonl merged path;
    Printf.printf "spans written to %s\n%-28s %12s %8s\n" path "span" "self_s" "count";
    List.iter (fun (name, self, n) -> Printf.printf "%-28s %12.6f %8d\n" name self n) (Spans.self_times merged)
  end;
  List.iter (fun m -> Printf.printf "%-40s %16.6g %s\n" m.Report.name m.Report.value m.Report.unit_) s.metrics;
  let failed = List.length s.failures in
  let correct = failed = 0 in
  let result = Report.result_json ~correct ~attempted:s.attempted ~failed s.metrics in
  Report.append_record (Filename.concat out_dir "results.jsonl")
    (Report.record ~workload ~seed ~seconds ~trace result);
  print_endline (Dynmos_server.Json.to_string result);
  correct

let bench fl =
  let workload = flag fl "workload" in
  let seed = int_flag fl "seed" and seconds = int_flag fl "seconds" in
  let trace = match flag fl "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let run =
    match campaign_of workload with
    | Some w -> Campaign_wl.run w ~seed ~seconds ~trace
    | None when workload = "serve-durable" -> Serve_wl.run ~out_dir ~seed ~seconds ~trace
    | None -> usage ()
  in
  let summary = Metrics.summarise ~trace run in
  List.iter (fun v -> prerr_endline ("FAILED: " ^ Check.describe v)) summary.failures;
  if not (print_run ~workload ~seed ~seconds ~trace summary run.spans) then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  match List.tl (Array.to_list Sys.argv) with
  | "gen-refs" :: rest -> (
      let fl = flags [] rest in
      match campaign_of (flag fl "workload") with
      | Some w -> Campaign_wl.gen_refs w ~seed:(int_flag fl "seed")
      | None -> usage ())
  | "compare" :: files -> (
      try Report.compare_files files
      with Failure m ->
        prerr_endline m;
        exit 2)
  | args -> bench (flags [] args)
