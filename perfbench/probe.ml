(* Timed calls into each layer's public functions, one span per call.
   The traced run replays a workload's inputs through these so each
   layer's cost is measured from outside the program. *)

module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Problem = Dlz_deptest.Problem
module Symeq = Dlz_deptest.Symeq
module Engine = Dlz_engine.Engine
module Query = Dlz_engine.Query
module Stats = Dlz_engine.Stats
module Analyze = Dlz_engine.Analyze
module Algo = Dlz_core.Algo
module Symalgo = Dlz_core.Symalgo

let cascade = Analyze.cascade_of_mode Analyze.Delinearize

(* The front half of the pipeline every kernel analysis starts with. *)
let front l ~op src =
  let ast = Ledger.span l ~op "frontend.parse" (fun () -> Dlz_frontend.C_parser.parse src) in
  let prog = Ledger.span l ~op "passes.lower" (fun () -> Dlz_passes.Pointers.lower ast) in
  let prog =
    Ledger.span l ~op "passes.prepare" (fun () -> Dlz_passes.Pipeline.prepare_program prog)
  in
  let accs, env =
    Ledger.span l ~op "ir.access" (fun () -> Access.of_program ~env:Assume.empty prog)
  in
  (prog, accs, env)

let replay_stats = Stats.create ()

(* The calls [Bulk] makes for one C kernel, in its order.  [cache] backs
   the first query pass, so a caller can give it the cache state the
   real analysis of this kernel saw; the later passes use the global
   cache, as [Bulk] does.  [vectorizer.depgraph] is measured on its own:
   [Parallel.report] builds the graph inside its own call too. *)
let kernel l ~op ~cache src =
  let prog, accs, env = front l ~op src in
  let results =
    Ledger.span l ~op "engine.query_all" (fun () ->
        Engine.query_all ~cascade ~stats:replay_stats ~cache ~env accs)
  in
  ignore (Ledger.span l ~op "engine.deps" (fun () -> Analyze.deps_of_accesses ~cascade ~env accs));
  ignore
    (Ledger.span l ~op "vectorizer.report" (fun () ->
         Dlz_vec.Parallel.report ~cascade ~env:Assume.empty prog));
  ignore
    (Ledger.span l ~op "vectorizer.depgraph" (fun () ->
         Dlz_vec.Depgraph.build ~cascade ~env:Assume.empty prog));
  List.map fst results

(* The layers of [Bulk]'s per-kernel work whose spans should cover a
   real kernel analysis. *)
let kernel_layers =
  [
    "frontend.parse"; "passes.lower"; "passes.prepare"; "ir.access";
    "engine.query_all"; "engine.deps"; "vectorizer.report";
  ]

let numeric_ubs (p : Problem.t) =
  List.fold_right
    (fun u acc ->
      match (Poly.to_const u, acc) with
      | Some c, Some cs -> Some (c :: cs)
      | _ -> None)
    p.common_ubs (Some [])

(* The per-equation solvers the delinearize strategy dispatches to:
   numeric equations over numeric bounds go to [Algo], the rest to
   [Symalgo].  One span per solver per problem. *)
let solvers l ~op ~env (p : Problem.t) =
  let n_common = p.n_common in
  let ubs = Option.map Array.of_list (numeric_ubs p) in
  let numeric, symbolic =
    List.partition_map
      (fun eq ->
        match (Symeq.to_numeric eq, ubs) with
        | Some neq, Some _ -> Left neq
        | _ -> Right eq)
      p.equations
  in
  let guard f = try f () with Dlz_base.Intx.Overflow _ -> () in
  if numeric <> [] then begin
    let common_ubs = Option.get ubs in
    Ledger.span l ~op "core.algo_test" (fun () ->
        List.iter (fun e -> guard (fun () -> ignore (Algo.test e))) numeric);
    Ledger.span l ~op "core.algo_run" (fun () ->
        List.iter
          (fun e -> guard (fun () -> ignore (Algo.run ~n_common ~common_ubs e)))
          numeric)
  end;
  if symbolic <> [] then
    Ledger.span l ~op "symbolic.symalgo_run" (fun () ->
        List.iter
          (fun e -> guard (fun () -> ignore (Symalgo.run ~env ~n_common e)))
          symbolic)

(* A private cache and stats, so probes never touch the state the
   measured ops see. *)
type private_engine = { cache : Query.cache; stats : Stats.t }

let private_engine () = { cache = Query.create_cache (); stats = Stats.create () }

let key l ~op p =
  ignore (Ledger.span l ~op "engine.key" (fun () -> Query.key_of ~cascade:cascade.name p))

(* [Engine.query] on an empty private cache: the miss path. *)
let miss l ~op pe ~env p =
  Query.clear pe.cache;
  ignore
    (Ledger.span l ~op "engine.miss" (fun () ->
         Engine.query ~cascade ~stats:pe.stats ~cache:pe.cache ~env p))

(* [Engine.query] on a private cache already holding the answer. *)
let hit l ~op pe ~env p =
  Query.clear pe.cache;
  ignore (Engine.query ~cascade ~stats:pe.stats ~cache:pe.cache ~env p);
  ignore
    (Ledger.span l ~op "engine.hit" (fun () ->
         Engine.query ~cascade ~stats:pe.stats ~cache:pe.cache ~env p))

let cacheable p = Problem.to_numeric p <> None

(* Every engine-level probe of one problem. *)
let problem l ~op pe ~env p =
  key l ~op p;
  miss l ~op pe ~env p;
  if cacheable p then hit l ~op pe ~env p;
  solvers l ~op ~env p
