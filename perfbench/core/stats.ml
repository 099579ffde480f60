(* Order statistics for the benchmark's summaries. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] with its default "exclusive"
   method, so spreads computed here match the ones an outside checker
   computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

type tail = {
  value : float;
  pct : float;  (* the percentile [value] sits at *)
  n : int;  (* sample count *)
  beyond : int;  (* samples strictly above its rank *)
}

(* The highest percentile that still has [beyond] samples above it: with
   fewer samples a "p99" is just the maximum, one unlucky job. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else
    let k = n - beyond - 1 in
    Some { value = a.(k); pct = 100. *. float (k + 1) /. float n; n; beyond }

(* Fault x pattern pairs resolved per second: each job resolves every
   (site, pattern) pair of its campaign, whether by simulation, by
   dropping or from a cache. *)
let pairs_per_s jobs ~wall_s =
  if wall_s <= 0. then invalid_arg "Stats.pairs_per_s: non-positive wall time";
  let pairs = List.fold_left (fun acc (sites, patterns) -> acc + (sites * patterns)) 0 jobs in
  float pairs /. wall_s
