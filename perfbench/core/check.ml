(* Answer checking: every job the benchmark times is also verified, and a
   wrong, partial, failed or refused answer counts against [failed]. *)

open Dynmos_faultsim
module Json = Dynmos_server.Json

type verdict = Ok | Wrong of string | Partial of string | Error of string | Rejected of string

let is_ok = function Ok -> true | _ -> false

let describe = function
  | Ok -> "ok"
  | Wrong m -> "wrong answer: " ^ m
  | Partial m -> "partial: " ^ m
  | Error m -> "error: " ^ m
  | Rejected m -> "rejected: " ^ m

let failed_frac verdicts =
  match verdicts with
  | [] -> invalid_arg "Check.failed_frac: nothing attempted"
  | _ ->
      let bad = List.length (List.filter (fun v -> not (is_ok v)) verdicts) in
      float bad /. float (List.length verdicts)

(* A digest of the whole first-detection vector: equal digests mean every
   site was first detected by the same pattern (or by none). *)
let digest_first_detection (fd : int option array) =
  let b = Buffer.create (Array.length fd * 4) in
  Array.iter
    (function
      | None -> Buffer.add_string b "-,"
      | Some p ->
          Buffer.add_string b (string_of_int p);
          Buffer.add_char b ',')
    fd;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Engines that ran the same job must produce the same vector: the first
   digest seen for a key becomes the reference for the others. *)
type agreement = (string, string) Hashtbl.t

let agreement () : agreement = Hashtbl.create 64

let summary ~agreement ~key ~expected (s : Faultsim.summary) =
  match s.Faultsim.outcome with
  | Outcome.Partial _ -> Partial (Outcome.to_string s.Faultsim.outcome)
  | Outcome.Complete -> (
      let d = digest_first_detection s.Faultsim.first_detection in
      match expected with
      | Some ref_d when ref_d <> d -> Wrong (Printf.sprintf "%s: digest %s, reference %s" key d ref_d)
      | _ -> (
          match Hashtbl.find_opt agreement key with
          | Some other when other <> d ->
              Wrong (Printf.sprintf "%s: digest %s, another engine gave %s" key d other)
          | Some _ -> Ok
          | None ->
              Hashtbl.add agreement key d;
              Ok))

type served = {
  verdict : verdict;
  dt_s : float;  (* the server's own execution time; the original run's on a cache hit *)
  cached : bool;
  sites : int;
  detected : int;
}

let unanswered msg = { verdict = Error msg; dt_s = 0.; cached = false; sites = 0; detected = 0 }

let served ~expected_detected ~repeat line =
  let fail verdict = { (unanswered "") with verdict } in
  match Json.parse line with
  | Error e -> fail (Error ("unparseable response: " ^ e))
  | Ok j -> (
      let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
      let str k = match Json.member k j with Some (Json.String s) -> s | _ -> "" in
      match str "status" with
      | "ok" -> (
          let dt_s =
            match Json.member "dt_s" j with
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float i
            | _ -> nan
          in
          let cached = Json.member "cached" j = Some (Json.Bool true) in
          match (int "detected", int "sites") with
          | Some d, Some sites ->
              let verdict =
                if d <> expected_detected then
                  Wrong (Printf.sprintf "detected %d, in-process reference %d" d expected_detected)
                else if repeat && not cached then Wrong "repeated request not served from the cache"
                else Ok
              in
              { verdict; dt_s; cached; sites; detected = d }
          | _ -> fail (Error ("ok response without detected/sites: " ^ line)))
      | "partial" -> fail (Partial line)
      | "error" -> fail (Error (str "error"))
      | "overloaded" | "draining" -> fail (Rejected (str "status"))
      | s -> fail (Error ("unexpected status " ^ s)))
