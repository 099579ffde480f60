open Dynmos_expr
open Dynmos_cell
open Dynmos_netlist

(* Compiled form of a netlist for fast simulation.

   Nets get dense indices (primary inputs first, then gate outputs in
   topological order).  Every distinct cell function is compiled once into
   a cube cover over the gate's input positions, so evaluation is pure
   word arithmetic: the same cover evaluates one pattern (ints 0/1) or 62
   packed patterns per machine word — the representation bit-parallel
   fault simulation uses. *)

type gate_fn = {
  arity : int;
  cubes : (int * int) array;  (* (care, value) over input positions *)
  table : Truth_table.t;      (* over the cell's formal inputs *)
}

type cgate = {
  g : Netlist.gate;
  ins : int array;  (* net indices, positional *)
  out : int;        (* net index *)
  fn : gate_fn;
}

type t = {
  netlist : Netlist.t;
  n_nets : int;
  n_inputs : int;
  po : int array;       (* net indices of the primary outputs *)
  cgates : cgate array; (* topological order; cgates.(i).g.id = i *)
  index_of_net : (string, int) Hashtbl.t;
  net_names : string array;
  (* Structural fanout analysis, computed once at compile time: the
     transitive fanout cone of each gate (every gate a fault at that site
     can influence), topologically sorted so the cone can be re-evaluated
     in one forward pass, plus the subset of primary outputs the cone
     reaches.  This is what lets fault injection re-simulate a handful of
     gates instead of the whole circuit. *)
  cones : int array array;    (* per gate id: cone gate ids, ascending; cone.(0) = the gate *)
  reach_po : int array array; (* per gate id: positions in [po] reachable from it *)
  gate_po : bool array;       (* per gate id: its output net is a primary output *)
  max_cone : int;
}

let fn_of_table table =
  let sop = Minimize.of_table table in
  {
    arity = Truth_table.n_vars table;
    cubes = Array.of_list (List.map (fun c -> (Cube.care c, Cube.value c)) sop);
    table;
  }

let fn_of_cell cell = fn_of_table (Cell.logic_table cell)

(* Merge the ascending, duplicate-free [src.(1 .. n-1)] with [cone] into
   [dst] from position 1, dropping duplicates; returns the merged run's
   end. *)
let merge_sorted ~(src : int array) ~n (cone : int array) ~(dst : int array) =
  let m = Array.length cone in
  let i = ref 1 and j = ref 0 and k = ref 1 in
  while !i < n && !j < m do
    let a = src.(!i) and b = cone.(!j) in
    if a <= b then begin
      dst.(!k) <- a;
      incr i;
      if a = b then incr j
    end
    else begin
      dst.(!k) <- b;
      incr j
    end;
    incr k
  done;
  Array.blit src !i dst !k (n - !i);
  let k = !k + n - !i in
  Array.blit cone !j dst k (m - !j);
  k + m - !j

let compile netlist =
  let index_of_net = Hashtbl.create 64 in
  let next = ref 0 in
  let assign net =
    Hashtbl.replace index_of_net net !next;
    incr next
  in
  List.iter assign (Netlist.inputs netlist);
  let n_inputs = !next in
  Array.iter (fun g -> assign g.Netlist.output_net) (Netlist.gate_array netlist);
  let n_nets = !next in
  let idx net = Hashtbl.find index_of_net net in
  (* Compile each distinct cell once. *)
  let fns = Hashtbl.create 16 in
  let fn_of cell =
    match Hashtbl.find_opt fns (Cell.name cell) with
    | Some fn -> fn
    | None ->
        let fn = fn_of_cell cell in
        Hashtbl.add fns (Cell.name cell) fn;
        fn
  in
  let cgates =
    Array.map
      (fun g ->
        { g; ins = Array.of_list (List.map idx g.input_nets); out = idx g.output_net; fn = fn_of g.cell })
      (Netlist.gate_array netlist)
  in
  let po = Array.of_list (List.map idx (Netlist.outputs netlist)) in
  let net_names = Array.make n_nets "" in
  Hashtbl.iter (fun net i -> net_names.(i) <- net) index_of_net;
  (* Fanout analysis.  Gate ids are dense topological indices (validated
     by Netlist), so gate i's output net is n_inputs + i and a cone
     collected in ascending id order is already topologically sorted. *)
  let n_g = Array.length cgates in
  Array.iteri (fun i cg -> assert (cg.g.Netlist.id = i && cg.out = n_inputs + i)) cgates;
  let consumers = Array.make n_g [] in
  Array.iteri
    (fun gi cg ->
      Array.iter
        (fun net -> if net >= n_inputs then consumers.(net - n_inputs) <- gi :: consumers.(net - n_inputs))
        cg.ins)
    cgates;
  let gate_po = Array.make n_g false in
  let po_positions = Array.make n_g [] in
  Array.iteri
    (fun k net ->
      if net >= n_inputs then begin
        gate_po.(net - n_inputs) <- true;
        po_positions.(net - n_inputs) <- k :: po_positions.(net - n_inputs)
      end)
    po;
  (* Cones in reverse topological order: every consumer of g has a larger
     id, so its cone is already final when g is reached, and
     cone(g) = {g} ∪ the merge of its consumers' cones (each ascending,
     all > g).  [run] holds the running merge from position 1 (g goes to
     position 0 at the end); [spare] receives the next merge and the two
     swap. *)
  let cones = Array.make n_g [||] in
  let reach_po = Array.make n_g [||] in
  let max_cone = ref 0 in
  let run = ref (Array.make (max 1 n_g) 0) and spare = ref (Array.make (max 1 n_g) 0) in
  let reach = Array.make (Array.length po) 0 in
  for g = n_g - 1 downto 0 do
    let n = ref 1 in
    List.iter
      (fun c ->
        n := merge_sorted ~src:!run ~n:!n cones.(c) ~dst:!spare;
        let r = !run in
        run := !spare;
        spare := r)
      consumers.(g);
    (!run).(0) <- g;
    let cone = Array.sub !run 0 !n in
    (* Reachable outputs in cone order, each gate's positions in
       [po_positions] order. *)
    let r = ref 0 in
    Array.iter
      (fun h ->
        List.iter
          (fun k ->
            reach.(!r) <- k;
            incr r)
          po_positions.(h))
      cone;
    cones.(g) <- cone;
    reach_po.(g) <- Array.sub reach 0 !r;
    if !n > !max_cone then max_cone := !n
  done;
  {
    netlist; n_nets; n_inputs; po; cgates; index_of_net; net_names;
    cones; reach_po; gate_po; max_cone = !max_cone;
  }

let netlist t = t.netlist
let n_nets t = t.n_nets
let n_inputs t = t.n_inputs
let n_outputs t = Array.length t.po
let n_gates t = Array.length t.cgates
let po_indices t = t.po
let net_index t net = Hashtbl.find_opt t.index_of_net net
let net_name t i = t.net_names.(i)
let gates t = t.cgates
let fanout_cone t gid = t.cones.(gid)
let reachable_outputs t gid = t.reach_po.(gid)
let max_cone_size t = t.max_cone

(* Evaluate one gate function on word-packed inputs: bit j of the result is
   the function applied to bit j of each input word.  Plain loops over the
   cube cover with unescaped mutable locals, so a call allocates nothing. *)
let eval_fn fn (input_words : int array) =
  let cubes = fn.cubes in
  let out = ref 0 in
  for c = 0 to Array.length cubes - 1 do
    let care, value = cubes.(c) in
    let m = ref (-1) in
    let i = ref 0 in
    while care lsr !i <> 0 do
      if (care lsr !i) land 1 <> 0 then begin
        let w = input_words.(!i) in
        m := !m land (if (value lsr !i) land 1 <> 0 then w else lnot w)
      end;
      incr i
    done;
    out := !out lor !m
  done;
  !out

(* [eval_fn] with the input gather folded into the cube loop: literal i
   reads [nets.(ins.(i))] directly, so no per-gate input array is built. *)
let eval_fn_from fn (ins : int array) (nets : int array) =
  let cubes = fn.cubes in
  let out = ref 0 in
  for c = 0 to Array.length cubes - 1 do
    let care, value = cubes.(c) in
    let m = ref (-1) in
    let i = ref 0 in
    while care lsr !i <> 0 do
      if (care lsr !i) land 1 <> 0 then begin
        let w = nets.(ins.(!i)) in
        m := !m land (if (value lsr !i) land 1 <> 0 then w else lnot w)
      end;
      incr i
    done;
    out := !out lor !m
  done;
  !out

(* One pattern with the gate's inputs packed into the bits of [x] (bit i
   = input position i): the output is 1 iff some cube matches, i.e. agrees
   with [x] on every position it cares about. *)
let eval_fn_bits fn x =
  let cubes = fn.cubes in
  let n = Array.length cubes in
  let c = ref 0 in
  while
    !c < n
    &&
    let care, value = cubes.(!c) in
    (x lxor value) land care <> 0
  do
    incr c
  done;
  if !c < n then 1 else 0

(* Evaluation scratch state.  All mutable state of an evaluation lives in
   the caller-provided [scratch] buffer: [t] itself is never written after
   [compile], so one compiled netlist can be shared read-only across
   domains — but a scratch buffer must belong to exactly one domain (or
   one call chain); sharing it across domains races on every net value. *)
type scratch = int array

let make_scratch t = Array.make t.n_nets 0

(* [override] substitutes the function of one gate (fault injection).
   Writes every net's word into [scratch] (length [n_nets]). *)
let eval_words_into ?override t ~(scratch : scratch) (pi_words : int array) =
  if Array.length pi_words <> t.n_inputs then invalid_arg "Compiled.eval_words: PI arity";
  if Array.length scratch <> t.n_nets then invalid_arg "Compiled.eval_words_into: scratch size";
  Array.blit pi_words 0 scratch 0 t.n_inputs;
  let cgates = t.cgates in
  for i = 0 to Array.length cgates - 1 do
    let cg = cgates.(i) in
    let fn = match override with Some (gid, fn') when gid = i -> fn' | _ -> cg.fn in
    scratch.(cg.out) <- eval_fn_from fn cg.ins scratch
  done

(* --- Cone-restricted fault injection ------------------------------------- *)

let make_cone_buffer t = Array.make (max 1 t.max_cone) 0

(* Faulty evaluation restricted to the fault site's fanout cone.

   [scratch] must hold a completed good-machine evaluation
   ([eval_words_into] on the same PI words); it is used in place as the
   baseline and is restored before returning, so one buffer serves any
   number of consecutive fault injections against the same patterns.
   [buf] (>= the cone size, see [make_cone_buffer]) saves the baseline
   words of the cone outputs.

   The overridden gate is evaluated first: when its faulty word equals
   the good word on every packed pattern the fault is not activated,
   nothing downstream can diverge, and the kernel exits after that
   single gate, before anything is saved — the dominant saving, since
   most patterns do not activate most faults.  Otherwise the cone's
   baseline is saved into [buf] and the rest of the cone is re-evaluated
   in topological order (nets outside the cone cannot change, their
   values are read from the baseline) and only the primary outputs the
   cone reaches are compared; unreachable outputs are untouched by
   construction, so the returned word is bit-identical to a whole-
   circuit faulty evaluation XORed against the good one over all
   outputs.

   [tally], when given, accumulates the number of gate evaluations
   actually performed (1 when the fault was not activated, the cone size
   otherwise). *)
let eval_cone_into ?tally t ~override:(gid, fn') ~(scratch : scratch) ~(buf : int array) =
  let cone = t.cones.(gid) in
  let n = Array.length cone in
  let cgates = t.cgates in
  let cg0 = cgates.(gid) in
  let faulty0 = eval_fn_from fn' cg0.ins scratch in
  let diff = ref 0 in
  let evaluated = ref 1 in
  if faulty0 <> scratch.(cg0.out) then begin
    for i = 0 to n - 1 do
      buf.(i) <- scratch.(cgates.(cone.(i)).out)
    done;
    scratch.(cg0.out) <- faulty0;
    for i = 1 to n - 1 do
      let cg = cgates.(cone.(i)) in
      scratch.(cg.out) <- eval_fn_from cg.fn cg.ins scratch
    done;
    evaluated := n;
    (* Compare the reachable outputs and restore the baseline in one
       backwards pass. *)
    for i = n - 1 downto 0 do
      let g = cone.(i) in
      let out = cgates.(g).out in
      if t.gate_po.(g) then diff := !diff lor (scratch.(out) lxor buf.(i));
      scratch.(out) <- buf.(i)
    done
  end;
  (match tally with Some r -> r := !r + !evaluated | None -> ());
  !diff

(* --- Word-matrix evaluation (PPSFP) --------------------------------------- *)

(* A flat (net x lane) matrix of pattern words: row [net] holds [width]
   machine words, one per fault machine ("lane"), at [net * width + lane].
   Net-major order makes the lane loop unit-stride, so evaluating one
   gate for a whole fault group decodes the cube cover once and streams
   over contiguous memory.  Backed by [Bigarray.int] rather than the
   boxed-on-read [Int64]: OCaml's native 63-bit int fits the engines'
   62-pattern packing and [Array1.unsafe_get] on the int kind is a bare
   load, no allocation on any path. *)
type word_matrix = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_word_matrix t ~width =
  if width < 1 then invalid_arg "Compiled.make_word_matrix: width must be >= 1";
  let m = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 (t.n_nets * width)) in
  Bigarray.Array1.fill m 0;
  m

let matrix_fill_row (m : word_matrix) ~width ~net w =
  let base = net * width in
  for l = 0 to width - 1 do
    Bigarray.Array1.unsafe_set m (base + l) w
  done

(* Row kernels of the grouped evaluation: AND or OR input row [base_in]
   (complemented when not [positive]) into the output row [base_out],
   lane by lane. *)
let and_row (m : word_matrix) ~width ~base_out ~base_in ~positive =
  if positive then
    for l = 0 to width - 1 do
      Bigarray.Array1.unsafe_set m (base_out + l)
        (Bigarray.Array1.unsafe_get m (base_out + l)
        land Bigarray.Array1.unsafe_get m (base_in + l))
    done
  else
    for l = 0 to width - 1 do
      Bigarray.Array1.unsafe_set m (base_out + l)
        (Bigarray.Array1.unsafe_get m (base_out + l)
        land lnot (Bigarray.Array1.unsafe_get m (base_in + l)))
    done

let or_row (m : word_matrix) ~width ~base_out ~base_in ~positive =
  if positive then
    for l = 0 to width - 1 do
      Bigarray.Array1.unsafe_set m (base_out + l)
        (Bigarray.Array1.unsafe_get m (base_out + l)
        lor Bigarray.Array1.unsafe_get m (base_in + l))
    done
  else
    for l = 0 to width - 1 do
      Bigarray.Array1.unsafe_set m (base_out + l)
        (Bigarray.Array1.unsafe_get m (base_out + l)
        lor lnot (Bigarray.Array1.unsafe_get m (base_in + l)))
    done

(* Output row := the conjunction of one cube's literals. *)
let cube_row (m : word_matrix) (ins : int array) ~width ~out care value =
  let base_out = out * width in
  matrix_fill_row m ~width ~net:out (-1);
  let i = ref 0 in
  while care lsr !i <> 0 do
    if (care lsr !i) land 1 <> 0 then
      and_row m ~width ~base_out
        ~base_in:(Array.unsafe_get ins !i * width)
        ~positive:((value lsr !i) land 1 <> 0);
    incr i
  done

(* Grouped single-gate evaluation: for every lane, bit j of row [out]
   becomes [fn] applied to bit j of each input row.  The cube cover is
   decoded once for all [width] lanes — cube outer, literal middle, lane
   inner — with the output row itself as the per-cube mask buffer (legal
   because a combinational gate never reads its own output) and [tmp]
   (caller scratch, length >= width) as the OR-accumulator.  Plain loops
   over top-level row kernels with unescaped mutable locals, so a call
   allocates nothing. *)
let eval_fn_rows fn (ins : int array) (m : word_matrix) ~width ~out ~(tmp : int array) =
  let base_out = out * width in
  let cubes = fn.cubes in
  let n_cubes = Array.length cubes in
  (* Two specializations cover the common cell covers (a minimized
     monotone AND is one cube; a minimized OR is single-literal cubes)
     without the accumulator round-trips of the general shape. *)
  if n_cubes = 0 then matrix_fill_row m ~width ~net:out 0
  else if n_cubes = 1 then begin
    let care, value = Array.unsafe_get cubes 0 in
    cube_row m ins ~width ~out care value
  end
  else begin
    let single_literal = ref true in
    for c = 0 to n_cubes - 1 do
      let care, _ = Array.unsafe_get cubes c in
      if care = 0 || care land (care - 1) <> 0 then single_literal := false
    done;
    if !single_literal then begin
      (* Every cube is one literal: OR them straight into the output row. *)
      matrix_fill_row m ~width ~net:out 0;
      for c = 0 to n_cubes - 1 do
        let care, value = Array.unsafe_get cubes c in
        let i = ref 0 in
        while care lsr !i <> 1 do
          incr i
        done;
        or_row m ~width ~base_out
          ~base_in:(Array.unsafe_get ins !i * width)
          ~positive:(value land care <> 0)
      done
    end
    else begin
      (* General cover: the output row is the per-cube mask buffer and
         [tmp] the OR-accumulator. *)
      Array.fill tmp 0 width 0;
      for c = 0 to n_cubes - 1 do
        let care, value = Array.unsafe_get cubes c in
        cube_row m ins ~width ~out care value;
        for l = 0 to width - 1 do
          Array.unsafe_set tmp l
            (Array.unsafe_get tmp l lor Bigarray.Array1.unsafe_get m (base_out + l))
        done
      done;
      for l = 0 to width - 1 do
        Bigarray.Array1.unsafe_set m (base_out + l) (Array.unsafe_get tmp l)
      done
    end
  end

(* Scalar evaluation of one lane out of the matrix — the per-machine
   override fixup of the PPSFP sweep (a faulty gate function applies to
   exactly one lane, so it is evaluated alone against that lane's input
   words). *)
let eval_fn_in_matrix fn (ins : int array) (m : word_matrix) ~width ~lane =
  let cubes = fn.cubes in
  let out = ref 0 in
  for c = 0 to Array.length cubes - 1 do
    let care, value = cubes.(c) in
    let mask = ref (-1) in
    let i = ref 0 in
    while care lsr !i <> 0 do
      if (care lsr !i) land 1 <> 0 then begin
        let w = Bigarray.Array1.unsafe_get m ((Array.unsafe_get ins !i * width) + lane) in
        mask := !mask land (if (value lsr !i) land 1 <> 0 then w else lnot w)
      end;
      incr i
    done;
    out := !out lor !mask
  done;
  !out

let gate_is_po t gid = t.gate_po.(gid)

let eval_words ?override t (pi_words : int array) =
  let scratch = make_scratch t in
  eval_words_into ?override t ~scratch pi_words;
  scratch

let outputs_of_nets t nets = Array.map (fun i -> nets.(i)) t.po

let eval ?override t (pi : bool array) =
  let words = Array.map (fun b -> if b then 1 else 0) pi in
  let nets = eval_words ?override t words in
  Array.map (fun i -> nets.(i) land 1 = 1) t.po

let eval_nets ?override t (pi : bool array) =
  let words = Array.map (fun b -> if b then 1 else 0) pi in
  let nets = eval_words ?override t words in
  Array.map (fun w -> w land 1 = 1) nets

(* Reference evaluation through the cell logic expressions (no cube
   compilation) — used to cross-check the compiled path in tests. *)
let eval_reference t (pi : bool array) =
  let env = Hashtbl.create 64 in
  List.iteri (fun i net -> Hashtbl.replace env net pi.(i)) (Netlist.inputs t.netlist);
  Array.iter
    (fun cg ->
      let formal = Cell.inputs cg.g.cell in
      let binding = List.combine formal cg.g.input_nets in
      let lookup v =
        match List.assoc_opt v binding with
        | Some net -> Hashtbl.find env net
        | None -> invalid_arg ("eval_reference: free variable " ^ v)
      in
      Hashtbl.replace env cg.g.output_net (Expr.eval lookup (Cell.logic cg.g.cell)))
    t.cgates;
  Array.of_list (List.map (Hashtbl.find env) (Netlist.outputs t.netlist))

(* The global function of one primary output as an expression over the
   primary inputs (cone extraction); feasible for small networks and used
   by PROTEST's exact analyses. *)
let output_expr t net =
  let cache = Hashtbl.create 64 in
  let rec expr_of net =
    match Hashtbl.find_opt cache net with
    | Some e -> e
    | None ->
        let e =
          match Netlist.gate_of_net t.netlist net with
          | None -> Expr.var net
          | Some g ->
              let formal = Cell.inputs g.cell in
              let binding = List.combine formal g.input_nets in
              Expr.subst
                (fun v ->
                  match List.assoc_opt v binding with
                  | Some inner -> Some (expr_of inner)
                  | None -> None)
                (Cell.logic g.cell)
        in
        Hashtbl.replace cache net e;
        e
  in
  expr_of net
