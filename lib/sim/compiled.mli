open Dynmos_expr
open Dynmos_netlist

(** Compiled netlists for fast simulation.

    Nets get dense indices (primary inputs first, then gate outputs in
    topological order); every distinct cell function is compiled once to a
    cube cover evaluated with word arithmetic, so the same code evaluates
    one pattern or 62 packed patterns per word (bit-parallel fault
    simulation). *)

type gate_fn = {
  arity : int;
  cubes : (int * int) array;  (** (care, value) masks over input positions *)
  table : Truth_table.t;
}

type cgate = {
  g : Netlist.gate;
  ins : int array;  (** input net indices, positional *)
  out : int;
  fn : gate_fn;
}

type t

val compile : Netlist.t -> t

val fn_of_table : Truth_table.t -> gate_fn
(** Compile an arbitrary gate function (e.g. a faulty class function). *)

val netlist : t -> Netlist.t
val n_nets : t -> int
val n_inputs : t -> int
val n_outputs : t -> int
val n_gates : t -> int
val po_indices : t -> int array
val net_index : t -> string -> int option
val net_name : t -> int -> string
val gates : t -> cgate array

(** {1 Structural fanout analysis}

    Computed once at [compile] time: for every gate, the transitive
    fanout cone (every gate whose value a fault at that site can
    influence) and the subset of primary outputs it reaches.  Fault
    injection only ever needs to re-evaluate the cone and compare the
    reachable outputs. *)

val fanout_cone : t -> int -> int array
(** [fanout_cone t gid] is the transitive fanout cone of gate [gid]
    (inclusive): gate ids in ascending — hence topological — order,
    starting with [gid] itself. *)

val reachable_outputs : t -> int -> int array
(** [reachable_outputs t gid]: positions in [po_indices] of the primary
    outputs reachable from gate [gid].  A faulty machine differing only
    at gate [gid]'s function can differ from the good machine on exactly
    these outputs. *)

val max_cone_size : t -> int
(** Largest [fanout_cone] length over all gates (0 for a gateless
    netlist); the buffer size {!eval_cone_into} needs. *)

val eval_fn : gate_fn -> int array -> int
(** Word-parallel single-gate evaluation: bit j of the result applies the
    function to bit j of each input word. *)

val eval_words : ?override:int * gate_fn -> t -> int array -> int array
(** Evaluate 62 packed patterns; returns the word for every net.
    [override = (gate_id, fn)] substitutes one gate's function (fault
    injection). *)

type scratch = int array
(** Reusable evaluation buffer (one word per net).  A compiled netlist is
    immutable after [compile] and safe to share across domains; a scratch
    buffer holds all of an evaluation's mutable state and must be owned by
    a single domain. *)

val make_scratch : t -> scratch

val eval_words_into : ?override:int * gate_fn -> t -> scratch:scratch -> int array -> unit
(** [eval_words] without the per-call allocation: every net's word is
    written into [scratch].  The allocation-free hot path of the
    fault-simulation engines (gate inputs are gathered by indirect
    indexing inside the cube loop, so no per-gate buffer is built). *)

val eval_fn_from : gate_fn -> int array -> int array -> int
(** [eval_fn_from fn ins nets] evaluates [fn] reading literal [i] from
    [nets.(ins.(i))] — {!eval_fn} without materializing the input
    gather. *)

val eval_fn_bits : gate_fn -> int -> int
(** [eval_fn_bits fn x] evaluates [fn] on one pattern whose inputs are
    packed into the bits of [x] (bit [i] = input position [i]) by cube
    match; returns 0 or 1.  The per-machine evaluation of the
    propagation (deductive / concurrent) engines. *)

val make_cone_buffer : t -> int array
(** A save buffer of {!max_cone_size} words for {!eval_cone_into}. *)

val eval_cone_into :
  ?tally:int ref -> t -> override:int * gate_fn -> scratch:scratch -> buf:int array -> int
(** Cone-restricted faulty evaluation.  [scratch] must hold a completed
    good-machine evaluation of the PI words of interest; only the
    overridden gate's fanout cone is re-evaluated against it and only
    the reachable primary outputs are compared.  Returns the OR over all
    primary outputs of [faulty lxor good] — bit-identical to evaluating
    the whole faulty circuit — and restores [scratch] to the baseline
    before returning.  When the overridden gate's faulty word equals its
    good word the fault is not activated and the kernel exits after that
    single gate evaluation.  [tally], when given, accumulates the gate
    evaluations performed (1 or the cone size). *)

(** {1 Word-matrix evaluation (PPSFP)}

    A flat (net x lane) matrix of pattern words for parallel-pattern /
    parallel-fault simulation: row [net] holds [width] machine words at
    [net * width + lane], one per fault machine.  Net-major order makes
    the lane loop unit-stride, so one cube-cover decode is amortized
    over the whole fault group.  Backed by [Bigarray.int] (native 63-bit
    ints, unboxed loads) — the engines pack 62 patterns per word, so the
    narrower element loses nothing and every [unsafe_get] stays
    allocation-free. *)

type word_matrix = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val make_word_matrix : t -> width:int -> word_matrix
(** A zeroed [n_nets x width] matrix.  Raises [Invalid_argument] when
    [width < 1]. *)

val matrix_fill_row : word_matrix -> width:int -> net:int -> int -> unit
(** Broadcast one word to every lane of row [net] (loading the good
    machine into the matrix, restoring a swept row). *)

val eval_fn_rows :
  gate_fn -> int array -> word_matrix -> width:int -> out:int -> tmp:int array -> unit
(** Grouped single-gate evaluation: for every lane, row [out] becomes
    the function applied to the input rows ([ins], net indices).  Cube
    outer, literal middle, lane inner; [tmp] (length >= [width]) is the
    caller-owned accumulator, and the call allocates nothing. *)

val eval_fn_in_matrix : gate_fn -> int array -> word_matrix -> width:int -> lane:int -> int
(** Scalar one-lane evaluation out of the matrix — the per-machine
    faulty-function fixup of a PPSFP sweep. *)

val gate_is_po : t -> int -> bool
(** Is gate [gid]'s output net a primary output?  (The PO-diff test of
    the cone-restricted kernels.) *)

val outputs_of_nets : t -> int array -> int array
(** Select the primary-output words from an [eval_words] result. *)

val eval : ?override:int * gate_fn -> t -> bool array -> bool array
(** Single-pattern convenience: primary inputs to primary outputs. *)

val eval_nets : ?override:int * gate_fn -> t -> bool array -> bool array
(** Single-pattern evaluation returning every net's value. *)

val eval_reference : t -> bool array -> bool array
(** Reference evaluation through the cell expressions (cross-checks the
    compiled path in tests). *)

val output_expr : t -> string -> Expr.t
(** Global function of a net over the primary inputs (cone extraction);
    for small networks and PROTEST's exact analyses. *)
