(** The unified dependence-query engine.

    Every consumer — the whole-program analyzer, the vectorizer's
    dependence graph, the CLI, the bench harness — asks its dependence
    questions through this one path: {!iter_pairs} streams the
    candidate access pairs (write involvement, same array, source = the
    writing reference with textual order breaking ties), {!map_pairs}
    collects a per-pair computation in enumeration order, and {!query}
    answers one problem through a strategy {!Cascade} behind the
    sharded canonical-form memo cache.  This replaces the two
    formerly independent O(n²) pair loops (analyzer and depgraph),
    whose source/sink orientation had drifted apart. *)

module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Problem = Dlz_deptest.Problem

type pair = {
  src : Access.t;  (** The writing reference when one exists. *)
  dst : Access.t;
  self : bool;  (** Both ends are the same access occurrence. *)
  problem : Problem.t;
}

val iter_pairs : (pair -> unit) -> Access.t list -> unit
(** [iter_pairs f accs] applies [f] to every candidate dependence pair
    among the accesses, in enumeration order (each unordered pair once,
    including self pairs).  Pairs without at least one write, on
    different arrays, or with no constructible problem are skipped.
    Only one pair is live at a time — the O(n²) candidate set is never
    materialized. *)

val map_pairs : (pair -> 'r) -> Access.t list -> 'r list
(** [map_pairs f accs] is [f] applied to every candidate pair, results
    in enumeration order (the order of {!iter_pairs}).  One kernel's
    pairs are analyzed serially: a single dependence equation is far
    too small a job to hand to another domain. *)

val pairs : Access.t list -> pair list
(** [map_pairs Fun.id] — the materialized candidate list. *)

val query :
  ?cascade:Cascade.t ->
  ?stats:Stats.t ->
  ?cache:Query.cache ->
  ?budget:Dlz_base.Budget.t ->
  ?chaos:Chaos.t ->
  ?annot:(string * string) list ->
  ?observer:(Query.disposition -> unit) ->
  env:Assume.t ->
  Problem.t ->
  Strategy.result
(** One memoized dependence query ([cascade] defaults to
    {!Cascade.delin}; [stats]/[cache] default to the process-wide
    instances).  Safe to call concurrently from several domains.
    [budget] bounds the cascade (see {!Cascade.run}); degraded results
    are never cached, so a faulted run cannot poison the memo table.
    [annot] rides on the query's trace span (the daemon threads its
    request id through here); [observer] receives the cache
    {!Query.disposition} — see {!Query.memoize}. *)

val query_all :
  ?cascade:Cascade.t ->
  ?stats:Stats.t ->
  ?cache:Query.cache ->
  ?budget:Dlz_base.Budget.t ->
  ?chaos:Chaos.t ->
  ?annot:(string * string) list ->
  ?observer:(Query.disposition -> unit) ->
  env:Assume.t ->
  Access.t list ->
  (pair * Strategy.result) list
(** {!map_pairs} composed with {!query}: each pair's one answer.
    Per-kernel analysis goes through {!Analyze.pass}, which also
    settles degraded answers. *)

val reset_metrics : unit -> unit
(** Clears the global cache and the trace event buffers, then runs
    every reset hook in the {!Dlz_obs.Registry} — global stats
    (including the allocations-per-query counters), latency
    histograms, and any serve-side collectors a live daemon
    registered.  Every reporting entry point calls this before the
    work it reports on, so back-to-back [--stats] runs never
    accumulate. *)
