(* Result records: the one-line result the benchmark prints last, the
   environment stamp saved beside it, and the comparison of two sets of
   saved records. *)

module Json = Dynmos_server.Json

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
             metrics) );
    ]

(* What a timing depends on besides the code: results measured under
   different stamps are not comparable. *)
let env_keys = [ "nproc"; "recommended_domain_count"; "ocaml" ]

let stamp () =
  let env k default = match Sys.getenv_opt k with Some v when v <> "" -> v | _ -> default in
  [
    ("nproc", Json.String (env "PERFBENCH_NPROC" "unknown"));
    ("recommended_domain_count", Json.String (string_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.String Sys.ocaml_version);
    ("commit", Json.String (env "PERFBENCH_COMMIT" "unknown"));
    ("dirty", Json.String (env "PERFBENCH_DIRTY" "unknown"));
  ]

(* High-water resident set of a process, in MB (Linux [VmHWM]). *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let record ~workload ~seed ~seconds ~trace result =
  Json.Obj
    [
      ("stamp", Json.Obj (stamp ()));
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
      ("result", result);
    ]

let append_record path record =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string record ^ "\n"))

let load_records path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> go acc
        | l -> (
            match Json.parse l with
            | Ok j -> go (j :: acc)
            | Error e -> failwith (Printf.sprintf "%s: bad record: %s" path e))
      in
      go [])

let field path j = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let env_of r =
  List.map (fun k -> (k, field [ "stamp"; k ] r)) env_keys @ [ ("seconds", field [ "seconds" ] r) ]

(* Group (workload, metric) -> values, in first-seen order. *)
let samples records =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun r ->
      let w = match field [ "workload" ] r with Some (Json.String w) -> w | _ -> "?" in
      match field [ "result"; "metrics" ] r with
      | Some (Json.Obj ms) ->
          List.iter
            (fun (name, m) ->
              let v =
                match Json.member "value" m with
                | Some (Json.Float f) -> Some f
                | Some (Json.Int i) -> Some (float i)
                | _ -> None
              in
              let u = match Json.member "unit" m with Some (Json.String u) -> u | _ -> "" in
              Option.iter
                (fun v ->
                  let k = (w, name, u) in
                  if not (Hashtbl.mem tbl k) then order := k :: !order;
                  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
                v)
            ms
      | _ -> ())
    records;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

let describe_spread vs =
  if List.length vs < 2 then "n<2" else Printf.sprintf "%.3f" (Stats.spread vs)

(* Summarise one file's records, or compare two files'.  Records whose
   environment stamps differ are refused rather than compared. *)
let compare_files paths =
  let sets = List.map load_records paths in
  let envs = List.concat_map (List.map env_of) sets in
  (match envs with
  | [] -> failwith "no records"
  | e :: rest ->
      List.iter
        (fun e' ->
          if e' <> e then
            failwith
              (Printf.sprintf "refusing to compare: environment stamps differ (%s)"
                 (String.concat ", "
                    (List.filter_map
                       (fun ((k, a), (_, b)) ->
                         if a = b then None
                         else
                           let s = function Some v -> Json.to_string v | None -> "-" in
                           Some (Printf.sprintf "%s %s vs %s" k (s a) (s b)))
                       (List.combine e e')))))
        rest);
  List.iter
    (fun rs ->
      let commits =
        List.sort_uniq compare
          (List.map
             (fun r ->
               match (field [ "stamp"; "commit" ] r, field [ "stamp"; "dirty" ] r) with
               | Some (Json.String c), Some (Json.String d) -> c ^ (if d = "true" then "+dirty" else "")
               | _ -> "?")
             rs)
      in
      Printf.printf "# %d records, commit %s\n" (List.length rs) (String.concat " " commits))
    sets;
  match List.map samples sets with
  | [ a ] ->
      Printf.printf "%-16s %-36s %14s %8s %4s\n" "workload" "metric" "median" "iqr/med" "n";
      List.iter
        (fun ((w, name, u), vs) ->
          Printf.printf "%-16s %-36s %14.6g %8s %4d  %s\n" w name (Stats.median vs)
            (describe_spread vs) (List.length vs) u)
        a
  | [ a; b ] ->
      Printf.printf "%-16s %-24s %12s %12s %8s %8s %8s\n" "workload" "metric" "median A" "median B"
        "B/A-1" "iqr/med A" "resolved";
      List.iter
        (fun (((w, name, _) as k), va) ->
          match List.assoc_opt k b with
          | None -> ()
          | Some vb ->
              let ma = Stats.median va and mb = Stats.median vb in
              let change = if ma = 0. then nan else (mb /. ma) -. 1. in
              let floor = if List.length va < 2 then nan else Stats.spread va in
              let resolved = Float.abs change > floor in
              Printf.printf "%-16s %-24s %12.6g %12.6g %+8.3f %8.3f %8s\n" w name ma mb change floor
                (if resolved then "yes" else "no"))
        a
  | _ -> failwith "compare takes one or two record files"
