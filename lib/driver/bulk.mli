(** Bulk analysis: every kernel under a directory through one warm
    cache, one NDJSON report.

    [vic analyze --dir DIR] walks DIR for FORTRAN-77 ([.f]) and C
    ([.c]) kernels and analyzes each through the engine's memoized
    query path — the point being the shared cache: kernels of a family
    raise the same canonical dependence equations, so later files ride
    on earlier files' solves (and on a persisted snapshot, when one was
    loaded).  Each file is one {!Dlz_engine.Analyze.pass}: the verdict
    counts and [decided_by] census come from the first answers, the
    deps and loop counts from the settled ones, so a fault-free file
    costs exactly one query per candidate pair.  Files fan out over
    the shared-queue {!Dlz_base.Pool}, one file per element; the
    per-file analysis itself stays serial.

    The report is one NDJSON line per kernel (sorted by relative path)
    plus a closing summary line, and its default fields are chosen to
    be {e deterministic}: byte-identical for any [--jobs N] on a
    fault-free run, which is the property the test suite pins (under
    fault injection files race on the shared cache; see
    {!Dlz_base.Pool}).  Per-file latency and the cache
    warm/cold disposition are genuinely scheduling-dependent (two
    domains can race to first-solve the same canonical form), so those
    fields only appear under [~timings:true] ([--timings]), which
    forfeits byte-identity and says so in the docs rather than lying
    with stable-looking numbers.

    A kernel that fails to parse or normalize yields an error line
    ([{"file":…,"ok":false,"error":…}]) and never aborts the other
    files. *)

val kernels : string -> string list
(** The relative paths (sorted, ['/']-separated) of every [.f] and
    [.c] file under the directory, recursively. *)

type file_report = {
  fr_file : string;
  fr_error : string option;
  fr_statements : int;
  fr_accesses : int;
  fr_pairs : int;
  fr_independent : int;
  fr_dependent : int;
  fr_inapplicable : int;
  fr_deps : int;
  fr_decided_by : (string * int) list;
  fr_loops_parallel : int;
  fr_loops_serial : int;
  fr_elapsed_ns : int64;
}
(** One analyzed kernel.  [fr_error = Some _] marks a failed file; the
    remaining counters are zero in that case. *)

val reports :
  ?mode:Dlz_engine.Analyze.mode ->
  ?cascade:Dlz_engine.Cascade.t ->
  ?budget:Dlz_base.Budget.t ->
  ?pool:Dlz_base.Pool.t ->
  ?env:Dlz_symbolic.Assume.t ->
  string ->
  file_report list
(** [reports dir] analyzes every kernel under [dir] and returns the
    structured per-file reports in sorted path order — the data [run]
    renders to NDJSON, for callers (the bench corpus arm) that want the
    verdict histogram without re-parsing JSON. *)

val run :
  ?mode:Dlz_engine.Analyze.mode ->
  ?cascade:Dlz_engine.Cascade.t ->
  ?budget:Dlz_base.Budget.t ->
  ?pool:Dlz_base.Pool.t ->
  ?env:Dlz_symbolic.Assume.t ->
  ?timings:bool ->
  string ->
  string list
(** [run dir] analyzes every kernel under [dir] and returns the NDJSON
    report lines: one per kernel in sorted order, then the summary.
    With [pool] the files are analyzed in parallel, one file per pool
    element.  Each file gets a ["bulk.file"] trace
    span.  [timings] adds the [elapsed_ns] and summary [cache] fields
    described above. *)
