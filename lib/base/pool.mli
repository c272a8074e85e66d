(** A domain pool over one shared queue (OCaml 5 [Domain] + [Mutex] /
    [Condition], no external dependencies).

    Parallelism lives at exactly three levels — across files
    ([vic analyze --dir]), across oracle cases ([vic fuzz]) and across
    serve requests (the daemon's own domains) — and the first two run
    on this pool.  One kernel's dependence pairs are always analyzed
    serially.

    A pool of size [n] uses [n]-way parallelism: [n - 1] spawned worker
    domains plus the calling domain, which takes elements like any
    worker while a {!map} call is in flight.  Each {!map} call is one
    shared queue: an atomic counter that every participant decrements
    to claim its next element, from the last index down.  Scheduling
    decides only {e who} runs an element; results always land by index,
    so the output is byte-identical for every pool size.

    The claim order matters only where elements share mutable state —
    bulk analysis under fault injection, where files race on the memo
    cache (a file whose query misses and is struck reports a degraded
    answer where it could have hit another file's clean one).  Later
    elements are started first because the chaos-seeded polybench
    golden was recorded that way: [atax.c] hits the clean answer that
    [bicg.c], the next file, caches — a race this order makes likely,
    not certain (DESIGN.md §8 "Parallel execution").

    [create ~domains:1] (or less) builds the {e sequential} pool:
    {!map} is a plain [Array.map] on the calling domain, no domain is
    ever spawned, and evaluation order is exactly left-to-right.

    A pool is meant to be driven from one domain at a time; concurrent
    {!map} calls on the same pool are not supported. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] workers ([domains <= 1]:
    none — the sequential pool). *)

val domains : t -> int
(** The parallelism width ([1] for the sequential pool). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr], computed in parallel one
    element at a time.  Results land by index, not by completion
    order, so the output is deterministic and independent of
    scheduling.  Exceptions from [f] are contained per element: a
    raising job never kills a worker domain, never skips the other
    elements, and never deadlocks the caller; every element is
    attempted, and then the failure at the {e lowest index} (the one
    the sequential path would hit first) is re-raised in the caller.
    [f] must be safe to run on any domain. *)

val shutdown : t -> unit
(** Stops and joins the workers.  Idempotent; the sequential pool is a
    no-op.  Only call once no [map] is in flight. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool and guarantees
    {!shutdown}, whether [f] returns or raises. *)

val resolve_jobs : int -> int
(** The CLI's [--jobs] convention: [0] means
    [Domain.recommended_domain_count ()], positive counts are
    themselves.  Raises [Invalid_argument] on negatives. *)

val with_jobs : ?pool:t -> jobs:int -> (t option -> 'a) -> 'a
(** The one pool-provisioning policy shared by the pool's users: an
    explicit [pool] is passed through (and {e not} shut down);
    otherwise [jobs] (per {!resolve_jobs}) domains are spun up for the
    duration of [f] — or none at all when [jobs <= 1], in which case
    [f] receives [None] and must take its exact serial path. *)
