(* Benchmark-side tracing: one span around each call the benchmark makes
   into a layer, kept in memory and written out as JSONL at the end.  A
   disabled recorder runs the thunk without reading the clock. *)

type span = {
  id : int;
  parent : int;  (* 0 = top level *)
  name : string;
  job : int;
  t0 : float;
  t1 : float;
}

type t = { on : bool; m : Mutex.t; mutable spans : span list }

let create on = { on; m = Mutex.create (); spans = [] }
let enabled t = t.on

(* Ids are unique across recorders, so recorders can be concatenated. *)
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

let record t s =
  Mutex.lock t.m;
  t.spans <- s :: t.spans;
  Mutex.unlock t.m

(* [span t ~job name f] times [f id], where [id] is the span's own id for
   children to name as their parent. *)
let span t ?(parent = 0) ~job name f =
  if not t.on then f 0
  else
    let id = fresh_id () in
    let t0 = Unix.gettimeofday () in
    let finally () = record t { id; parent; name; job; t0; t1 = Unix.gettimeofday () } in
    Fun.protect ~finally (fun () -> f id)

(* A span whose interval was measured elsewhere (a request's send and
   receive times). *)
let add t ?(parent = 0) ~job name ~t0 ~t1 =
  if t.on then record t { id = fresh_id (); parent; name; job; t0; t1 }

let spans t = List.rev t.spans

let concat ts = { (create true) with spans = List.concat (List.rev_map (fun t -> t.spans) ts) }

(* Length of the union of intervals clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) iv
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Per span: its duration minus the part of it its children cover. *)
let self_time all =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1)) all;
  fun s -> s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)

(* Per span name, in first-seen order: (name, total self time, count). *)
let self_times t =
  let all = spans t in
  let self = self_time all in
  let acc = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let tot, n =
        match Hashtbl.find_opt acc s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            (0., 0)
      in
      Hashtbl.replace acc s.name (tot +. self s, n + 1))
    all;
  List.rev_map
    (fun name ->
      let tot, n = Hashtbl.find acc name in
      (name, tot, n))
    !order

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"job\":%d,\"start\":%.6f,\"end\":%.6f}\n" s.id
            s.parent s.name s.job s.t0 s.t1)
        (spans t))
