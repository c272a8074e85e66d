(** Direction vectors and their lattice.

    A direction vector assigns to each common loop a relation between the
    source iteration [α] and the sink iteration [β] (paper §2).  The
    elements form the standard lattice

    {v
              *
           /  |  \
          ≤   ≠   ≥
         / \ / \ / \
        <   =   >
    v}

    with meet (intersection of solution sets) possibly empty. *)

type dir = Lt | Eq | Gt | Le | Ge | Ne | Star

type t = dir array
(** One element per common loop, outermost first. *)

val all_star : int -> t

val meet_dir : dir -> dir -> dir option
(** Lattice meet; [None] is the empty relation. *)

val join_dir : dir -> dir -> dir
(** Least upper bound (used when summarizing dependences). *)

val leq_dir : dir -> dir -> bool
(** [leq_dir a b] iff relation [a] is contained in relation [b]. *)

val meet : t -> t -> t option
(** Pointwise meet; [None] if any component is empty.  Vectors of unequal
    length meet on their common prefix, keeping the longer tail (used
    when a separated equation constrains only some levels). *)

val meet_sets : t list -> t list -> t list
(** Every non-empty pairwise {!meet} of the two sets, sorted and without
    duplicates: the vectors admitted by both sets.  [[all_star n]] is
    its identity; an empty result means the sets are disjoint. *)

val join : t -> t -> t
(** Pointwise join of equal-length vectors. *)

val refinements : dir -> dir list
(** Immediate children used by hierarchy testing:
    [refinements Star = [Lt; Eq; Gt]], a basic direction refines to
    itself, and [≤ ≠ ≥] refine to their two basic children. *)

val is_basic : dir -> bool
(** [<], [=] or [>]. *)

val admits : dir -> int -> bool
(** [admits d delta] iff a difference [β - α = delta] satisfies [d]. *)

val of_delta : int -> dir

val plausible : t -> bool
(** A dependence whose leading non-[=] direction is [>] (or [≥]-only…)
    is really the reversed dependence; [plausible] is [true] when the
    vector has a lexicographically nonnegative interpretation, i.e. its
    first component that excludes [=] and [<] is not reached before a
    [<]-admitting one.  Concretely: scanning left to right, the vector is
    plausible unless a component admitting only [>] appears while all
    earlier components admit only [=]. *)

val reverse : t -> t
(** Componentwise reversal ([<] ↔ [>]), the direction vector of the
    dependence read in the opposite direction. *)

val equal : t -> t -> bool
(** [compare a b = 0]. *)

val compare : t -> t -> int
(** The order of [Stdlib.compare] on [dir array] (length first, then
    componentwise with [Lt < Eq < Gt < Le < Ge < Ne < Star]), without
    the polymorphic comparison. *)

val dir_to_string : dir -> string
val to_string : t -> string
(** Printed like ( *, <, = ). *)

val pp : Format.formatter -> t -> unit

(** {2 Packed sets of basic vectors}

    A basic vector of [n] levels packs into a key of ⌈n/31⌉ integers
    (one when [n = 0]): two bits a level ([<] = 0, [=] = 1, [>] = 2),
    31 levels a word, the outermost level most significant.  Keys of
    one length compare word by word in {!compare} order, so a set is a
    sorted, deduplicated array of keys and membership a binary search.
    Nothing here is exponential in [n] except {!basics}, whose result
    has the size of the expansion it returns. *)

type basic_set

val basic_set : n:int -> t list -> basic_set
(** The basic members of length [n] of a list.  Other members are
    ignored: a non-basic member does not stand for its basic vectors. *)

val covers_join : basic_set -> t -> t -> bool
(** [covers_join s a b] iff [join a b] has the set's length and every
    basic vector it admits is a member of [s].  The basic vectors are
    walked as keys in ascending order, stopping at the first miss;
    neither the join nor any vector is built (the walk writes a scratch
    key held by the set, so one set must not be walked from two domains
    at once).  Raises [Invalid_argument] when [a] and [b] differ in
    length, as {!join} does. *)

val basics : t list -> t list
(** Every basic vector some member of the list admits, sorted by
    {!compare}, without duplicates. *)
