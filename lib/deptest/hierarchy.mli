(** Direction-vector hierarchy refinement [WB87, GKT91].

    Starting from [(*, ..., *)], each [*] is refined into [<], [=], [>];
    a subtree is pruned as soon as the per-equation tests disprove
    dependence under the partial vector.  The surviving leaves are the
    reported direction vectors — the "existing techniques" the paper's
    algorithm calls to solve separated equations. *)

type eq_test = dirs:(int -> Dirvec.dir) -> Depeq.t -> Verdict.t
(** A sound single-equation test under direction constraints. *)

val gcd_banerjee : eq_test
(** GCD-with-directions ∧ Banerjee-with-directions: the combination the
    paper proves its algorithm matches per dimension. *)

val test : ?test:eq_test -> Problem.numeric -> Verdict.t
(** Dependence test at the unrefined [(*, ..., *)] vector. *)

val directions :
  ?budget:Dlz_base.Budget.t -> ?test:eq_test -> Problem.numeric -> Dirvec.t list
(** All basic direction vectors not disproven, sorted.  The empty list
    means independence.  One [budget] unit is spent per refinement node;
    exhaustion raises {!Dlz_base.Budget.Exhausted} (a truncated set
    would read as proven independence). *)

val piece_directions : Problem.numeric -> Dirvec.t list
(** {!directions} with {!gcd_banerjee}, refining only the common levels
    at which some equation has a variable; every other level stays
    [Star].  GCD and Banerjee read a level's direction only where the
    equation has a term there, so an untouched level can change a
    verdict only through its feasibility, and
    [expand ~common_ubs:p.common_ubs (piece_directions p) = directions p].
    Vectors carrying [Star] meet cheaply, so a caller intersecting the
    sets of several pieces should {!expand} once, after the last meet. *)

val expand : common_ubs:int array -> Dirvec.t list -> Dirvec.t list
(** Replaces every relation with each basic direction it admits that
    {!feasible_dir} allows for that level's bound (levels past
    [common_ubs] admit all three), sorted and without duplicates.  A
    vector with a level admitting no feasible direction (a [<] where the
    bound is 0) expands to nothing.  Expansion works level by level and
    [=] is always feasible, so
    [expand (meet_sets a b) = meet_sets (expand a) (expand b)], and a
    vector of [Star]s and feasible basic directions always expands to
    at least one vector. *)

val expands : common_ubs:int array -> Dirvec.t -> bool
(** Whether {!expand} keeps at least one vector of the given one. *)

val directions_exact :
  ?budget:Dlz_base.Budget.t -> Problem.numeric -> Dirvec.t list
(** Ground truth via the exact solver (exponential; small problems). *)

val feasible_dir : ub:int -> Dirvec.dir -> bool
(** Whether a direction is realizable inside a common loop of the given
    normalized upper bound ([<] and [>] need at least two iterations). *)
