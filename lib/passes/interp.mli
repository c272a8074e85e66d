(** Reference interpreter: the one program executor.

    Memory is modelled FORTRAN-style: each array occupies a storage
    block at a column-major linear address.  COMMON members sit at
    consecutive offsets of their block, and EQUIVALENCE places the
    listed elements (subscripted or not) in one cell, so an access is a
    (block, address, read/write) event independent of how the reference
    is spelled — exactly the invariant linearization must preserve.

    The test suite uses the event trace two ways: two programs are
    access-equivalent when their traces coincide after block-id
    normalization ({!run}, {!equivalent}), and the dynamic dependence
    oracle folds the events of one run ({!exec}). *)

type error =
  | Out_of_fuel of int  (** The step budget ran out: not an input error. *)
  | Zero_step
  | Undeclared_array of string
  | Arity_mismatch of string
  | Subscript_out_of_range of { array : string; sub : int; lo : int; hi : int }
  | Non_constant_bound of string
  | Negative_extent of string  (** A dimension [lo:hi] with [hi < lo - 1]. *)

exception Error of error
(** Typed execution failure: callers can tell budget exhaustion
    ([Out_of_fuel]) apart from malformed input (everything else). *)

val describe : error -> string
(** Human-readable one-liner (also installed as an exception printer). *)

type kind = Read | Write

type instance = {
  stmt : int;  (** Assignment id in program order, as [Access] numbers it. *)
  iter : (string * int) list;  (** (loop var, value), outermost first. *)
}

type event = {
  block : string;
  addr : int;
  kind : kind;
  at : instance option;
      (** The executing assignment; [None] for reads in DO bounds. *)
}

val exec :
  ?syms:(string * int) list ->
  ?fuel:int ->
  (event -> unit) ->
  Dlz_ir.Ast.program ->
  unit
(** Executes the program, passing every array access to the callback in
    execution order (a statement's reads before its write).  [syms]
    supplies values for free scalars (e.g. [N]); [fuel] bounds the
    number of executed statements (default 20_000_000).  Raises
    {!Error} on non-constant declarations, out-of-fuel, or a subscript
    out of its declared range. *)

val run :
  ?syms:(string * int) list -> ?fuel:int -> Dlz_ir.Ast.program -> event list
(** The events of {!exec}, collected in execution order. *)

val normalized : event list -> (int * int * kind) list
(** Renames blocks to first-occurrence indices so traces of programs
    that renamed arrays (e.g. after linearization) compare equal. *)

val equivalent : event list -> event list -> bool
