(** Whole-program dependence analysis driven by delinearization.

    For every pair of references to the same array (with at least one
    write), build the dependence problem, answer it through the
    {!Engine} — a memoized strategy-cascade query — and summarize the
    result the way the paper's Figure 3 does: one row per dependent
    pair, source = the writing reference (textual order breaks
    write-write ties), vectors joined when every basic vector of the
    join is in the answer.

    The historical closed modes survive as preset cascades
    ({!Cascade.delin}, {!Cascade.classic}, {!Cascade.exact}); any
    registered strategy combination can be passed via [?cascade]
    instead, which takes precedence over [?mode]. *)

module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Ddvec = Dlz_deptest.Ddvec
module Problem = Dlz_deptest.Problem
module Classify = Dlz_deptest.Classify

type pair_result = {
  verdict : Verdict.t;
  dirvecs : Dirvec.t list;  (** Basic vectors over the common loops. *)
  distances : (int * Poly.t) list;
      (** Distances proven constant; symbolic polynomials allowed. *)
  decided_by : string;  (** Provenance: the strategy that decided. *)
  degraded : (string * string) list;
      (** Contained faults, as [(strategy, reason)] — see
          {!Strategy.result}. *)
}

type dep = {
  src : Access.t;  (** The source reference (a write when one exists). *)
  dst : Access.t;
  kind : Classify.kind;
  dirvec : Dirvec.t;  (** Summarized direction vector. *)
  ddvec : Ddvec.t;  (** Same vector with exact distances substituted. *)
  via : string;  (** The strategy whose verdict produced this row. *)
  degraded : (string * string) list;
      (** Faults contained while answering this pair (empty on a clean
          query); rendered as [degraded_by: <strategy> <reason>]. *)
}

type mode =
  | Delinearize  (** The paper's method (default). *)
  | Classic
      (** Ablation: direction-vector hierarchy with GCD+Banerjee on the
          unbroken equations (only for fully numeric problems; symbolic
          problems degrade to all-[*]). *)
  | ExactMode
      (** Precision ceiling: realized direction vectors from the exact
          integer solver (numeric problems within the search budget;
          everything else falls back to {!Delinearize}).  Exponential —
          for comparisons, not production. *)

val cascade_of_mode : mode -> Cascade.t
(** The preset cascade reproducing the mode's historical behavior. *)

val vectors :
  ?mode:mode -> ?cascade:Cascade.t -> ?budget:Dlz_base.Budget.t ->
  env:Assume.t -> Problem.t -> pair_result
(** Direction vectors for one problem, answered through the memoized
    engine query path. *)

val summarize : self:bool -> Dirvec.t list -> Dirvec.t list
(** Greedy sound summarization: two vectors are merged when their join
    is covered by the set, that is when every basic vector of the join
    is a basic member of the set ([self] pairs also count the all-[=]
    identity vector as a member).  A non-basic member covers nothing. *)

val deps_of_pair : Engine.pair -> Strategy.result -> dep list
(** The dependence rows of one pair given its answer: summarization,
    then one row per surviving summarized vector.  Pure — input
    dependences and identity-only self pairs give no rows. *)

(** {2 The per-kernel pass}

    Every per-kernel output — verdict tallies, dependence rows, the
    vectorizer's dependence graph and the per-loop report — derives
    from one {!pass}: the candidate pairs are enumerated once, each
    problem is built once and queried once. *)

type solved = {
  pair : Engine.pair;
  first : Strategy.result;
      (** The pass's one answer — what the verdict tallies and
          [decided_by] count. *)
  settled : Strategy.result;
      (** [first], unless it came back degraded and a clean answer to
          the same canonical equation was cached later in the pass.
          Dependence rows and the dependence graph read this one. *)
}

val pass :
  ?mode:mode -> ?cascade:Cascade.t -> ?budget:Dlz_base.Budget.t ->
  ?annot:(string * string) list ->
  ?observer:(Query.disposition -> unit) ->
  ?on_first:(Engine.pair -> Strategy.result -> unit) ->
  env:Assume.t -> Access.t list -> solved list
(** [pass ~env accs] queries every candidate pair of [accs] once
    through {!Engine.map_pairs} and {!Engine.query}, in enumeration
    order.  [on_first] sees each pair's first answer as soon as it is
    solved; [annot] and [observer] ride on every query, as in
    {!Engine.query}.

    The memo cache refuses degraded answers, so after the pass each
    pair whose first answer was degraded gets one {!Query.cached}
    lookup: a clean answer to the same canonical equation, cached later
    in the pass, becomes its settled answer.  The lookup counts no
    query, so queries equal pairs. *)

val deps_of_solved : solved list -> dep list
(** {!deps_of_pair} over the settled answers, in pass order. *)

type tally = {
  independent : int;
  dependent : int;
  inapplicable : int;
  decided_by : (string * int) list;  (** Sorted by strategy name. *)
}

val tally : solved list -> tally
(** Verdict and provenance counts over the first answers. *)

val deps_of_accesses :
  ?mode:mode -> ?cascade:Cascade.t -> ?budget:Dlz_base.Budget.t ->
  env:Assume.t -> Access.t list -> dep list
(** All dependences among the given accesses (input dependences and
    identity-only self pairs are omitted), in source order:
    {!deps_of_solved} of one {!pass} — the same pass the vectorizer's
    dependence graph is built from. *)

val deps_of_program :
  ?mode:mode -> ?cascade:Cascade.t -> ?budget:Dlz_base.Budget.t ->
  ?env:Assume.t -> Dlz_ir.Ast.program -> dep list
(** Extracts accesses (the program must be normalized) and analyzes
    them. *)

val pp_dep : Format.formatter -> dep -> unit
