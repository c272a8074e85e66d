(** Statement-level dependence graph.

    Nodes are assignment statements; each edge carries the direction
    vector of one dependence, oriented from the instance that executes
    first to the one that executes later (lexicographically negative
    vectors are flipped; all-[=] vectors are oriented by textual order,
    reads before the write inside one statement).  This is the graph the
    Allen–Kennedy vectorizer consumes.

    The edges are derived from the settled answers of one
    {!Dlz_engine.Analyze.pass} — the same pairs, orientation and
    answers the whole-program analyzer's dependence rows come from. *)

module Dirvec = Dlz_deptest.Dirvec
module Assume = Dlz_symbolic.Assume

type edge = {
  e_src : int;  (** Statement id of the earlier instance. *)
  e_dst : int;
  e_vec : Dirvec.t;  (** Over the common loops of the two statements. *)
  e_level : int;
      (** Carrying level: 1-based position of the first component that
          can be [<]; [max_int] for loop-independent edges. *)
  e_kind : Dlz_deptest.Classify.kind;
}

type t = {
  nstmts : int;
  stmt_names : string array;
  edges : edge list;
}

val of_pairs : Dlz_ir.Access.t list -> Dlz_engine.Analyze.solved list -> t
(** [of_pairs accs solved] is the graph of the statements of [accs]
    with the edges of every pair's settled answer.  Makes no query.
    Input (read-read) dependences are ignored; a same-statement all-[=]
    vector (the read feeding the write of one assignment) carries no
    constraint and is dropped.  The edge list is sorted and
    deduplicated. *)

val build :
  ?mode:Dlz_engine.Analyze.mode ->
  ?cascade:Dlz_engine.Cascade.t ->
  ?budget:Dlz_base.Budget.t ->
  ?env:Assume.t ->
  Dlz_ir.Ast.program ->
  t
(** Analyzes a normalized program: {!of_pairs} of one
    {!Dlz_engine.Analyze.pass} over its accesses. *)

val edges_at_level : t -> int -> edge list
(** Edges not carried by loops outer than [level]: carrying level
    [>= level]. *)

val pp : Format.formatter -> t -> unit
