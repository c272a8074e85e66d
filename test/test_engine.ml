(* Tests for the unified dependence-query engine (lib/engine): memo
   cache behavior, preset cascades vs the historical analyzer modes,
   verdict provenance, and the analyzer/depgraph consistency regression
   (the two consumers share one pair-enumeration path and must agree on
   which statement pairs depend on each other). *)

module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Problem = Dlz_deptest.Problem
module Access = Dlz_ir.Access
module Assume = Dlz_symbolic.Assume
module F77 = Dlz_frontend.F77_parser
module Pipeline = Dlz_passes.Pipeline
module Fragments = Dlz_driver.Fragments
module Corpus = Dlz_corpus.Corpus
module Engine = Dlz_engine.Engine
module Analyze = Dlz_engine.Analyze
module Cascade = Dlz_engine.Cascade
module Registry = Dlz_engine.Registry
module Strategy = Dlz_engine.Strategy
module Query = Dlz_engine.Query
module Stats = Dlz_engine.Stats
module Depgraph = Dlz_vec.Depgraph
module Poly = Dlz_symbolic.Poly
module Symeq = Dlz_deptest.Symeq
module Algo = Dlz_core.Algo
module Symalgo = Dlz_core.Symalgo
module Budget = Dlz_base.Budget
module Eqgen = Dlz_oracle.Eqgen

let verdict = Alcotest.testable Verdict.pp Verdict.equal
let prepare src = Pipeline.prepare_program (F77.parse src)

let accesses src =
  let prog = prepare src in
  Access.of_program prog

(* A tiny numeric nest: one write, two reads on A, fully constant
   bounds, so every query is cacheable. *)
let numeric_src =
  {|      DIMENSION A(200), B(200)
      DO I = 0, 99
        A(I+1) = A(I) + B(I)
      ENDDO
|}

(* Same dependence equation planted on two different arrays: the
   canonical forms coincide, so the second pair must hit the cache. *)
let twin_src =
  {|      DIMENSION A(200), B(200)
      DO I = 0, 99
        A(I+1) = A(I)
        B(I+1) = B(I)
      ENDDO
|}

let problems_of src =
  let accs, env = accesses src in
  (List.map (fun (pr : Engine.pair) -> pr.Engine.problem) (Engine.pairs accs),
   env)

(* --- memo cache ----------------------------------------------------------- *)

let test_cache_hit_miss () =
  let ps, env = problems_of numeric_src in
  let p = List.hd ps in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  let r1 = Engine.query ~stats ~cache ~env p in
  let r2 = Engine.query ~stats ~cache ~env p in
  Alcotest.(check int) "two queries" 2 (Stats.queries stats);
  Alcotest.(check int) "one miss" 1 (Stats.cache_misses stats);
  Alcotest.(check int) "one hit" 1 (Stats.cache_hits stats);
  Alcotest.(check int) "nothing uncacheable" 0 (Stats.cache_uncacheable stats);
  Alcotest.check verdict "same verdict" r1.Strategy.verdict
    r2.Strategy.verdict;
  Alcotest.(check string)
    "same provenance" r1.Strategy.decided_by r2.Strategy.decided_by;
  Alcotest.(check bool)
    "same dirvecs" true
    (List.for_all2 Dirvec.equal r1.Strategy.dirvecs r2.Strategy.dirvecs)

let test_cache_canonical_sharing () =
  (* A and B pairs have identical equations after canonicalization:
     first solve misses, everything after hits. *)
  let ps, env = problems_of twin_src in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  List.iter (fun p -> ignore (Engine.query ~stats ~cache ~env p)) ps;
  Alcotest.(check bool)
    "several pairs" true
    (List.length ps >= 4);
  Alcotest.(check int)
    "all pairs after the first solve of each shape hit" 2
    (Stats.cache_misses stats);
  Alcotest.(check int)
    "hits cover the rest"
    (List.length ps - 2)
    (Stats.cache_hits stats)

let test_cache_uncacheable_symbolic () =
  let ps, env = problems_of Fragments.symbolic_program in
  let p = List.hd ps in
  let stats = Stats.create () in
  let cache = Query.create_cache () in
  ignore (Engine.query ~stats ~cache ~env p);
  ignore (Engine.query ~stats ~cache ~env p);
  Alcotest.(check int)
    "symbolic problems never cached" 2 (Stats.cache_uncacheable stats);
  Alcotest.(check int) "no hits" 0 (Stats.cache_hits stats);
  Alcotest.(check int) "cache stays empty" 0 (Query.size cache)

let test_cache_flush_on_capacity () =
  let ps, env = problems_of twin_src in
  (* Two problems with different canonical forms (distinct cache keys). *)
  let key p = Query.key_of ~cascade:"delin" p in
  let distinct =
    match ps with
    | p1 :: rest -> (
        match List.find_opt (fun p -> key p <> key p1) rest with
        | Some p2 -> [ p1; p2 ]
        | None -> ps)
    | [] -> []
  in
  Alcotest.(check int) "found two distinct forms" 2 (List.length distinct);
  let stats = Stats.create () in
  let cache = Query.create_cache ~capacity:1 ~shards:1 () in
  List.iter (fun p -> ignore (Engine.query ~stats ~cache ~env p)) distinct;
  Alcotest.(check bool) "flushed at least once" true
    (Stats.cache_flushes stats >= 1);
  Alcotest.(check bool) "size bounded" true (Query.size cache <= 1)

let test_key_of_none_for_symbolic () =
  let ps, _env = problems_of Fragments.symbolic_program in
  Alcotest.(check bool)
    "no key for symbolic problems" true
    (Query.key_of ~cascade:"delin" (List.hd ps) = None);
  let ps, _env = problems_of numeric_src in
  Alcotest.(check bool)
    "numeric problems have keys" true
    (Query.key_of ~cascade:"delin" (List.hd ps) <> None)

(* --- presets vs modes ----------------------------------------------------- *)

(* The mode-based API (memoized, global-cache path) and running the
   preset cascade directly with a private stats instance and no cache
   must agree on every pair of a program: memoization and preset wiring
   change no verdicts. *)
let check_presets_on src =
  let prog = prepare src in
  let accs, env = Access.of_program prog in
  List.iter
    (fun (pr : Engine.pair) ->
      List.iter
        (fun (mode, cascade) ->
          let via_mode = Analyze.vectors ~mode ~env pr.Engine.problem in
          let direct =
            Cascade.run ~stats:(Stats.create ()) ~env cascade
              pr.Engine.problem
          in
          Alcotest.check verdict "verdicts agree" direct.Strategy.verdict
            via_mode.Analyze.verdict;
          Alcotest.(check string)
            "provenance agrees" direct.Strategy.decided_by
            via_mode.Analyze.decided_by;
          Alcotest.(check bool)
            "dirvecs agree" true
            (List.length direct.Strategy.dirvecs
             = List.length via_mode.Analyze.dirvecs
            && List.for_all2 Dirvec.equal direct.Strategy.dirvecs
                 via_mode.Analyze.dirvecs))
        [
          (Analyze.Delinearize, Cascade.delin);
          (Analyze.Classic, Cascade.classic);
          (Analyze.ExactMode, Cascade.exact);
        ])
    (Engine.pairs accs)

let test_presets_match_modes_fragments () =
  Engine.reset_metrics ();
  List.iter check_presets_on
    [
      Fragments.eq1_program;
      Fragments.fig3_program;
      Fragments.ib_program;
      Fragments.mhl_program;
      Fragments.intro_serial;
      Fragments.symbolic_program;
    ]

let test_presets_match_modes_corpus () =
  Engine.reset_metrics ();
  (* Two corpus programs keep the runtime reasonable; each contains all
     three planted idioms. *)
  List.iter
    (fun name ->
      let spec = List.find (fun s -> s.Corpus.name = name) Corpus.riceps in
      let prog = Pipeline.prepare_program (Corpus.generate spec) in
      let accs, env = Access.of_program prog in
      List.iter
        (fun (pr : Engine.pair) ->
          let via_mode = Analyze.vectors ~env pr.Engine.problem in
          let direct =
            Cascade.run ~stats:(Stats.create ()) ~env Cascade.delin
              pr.Engine.problem
          in
          Alcotest.check verdict "delin preset matches mode on corpus"
            direct.Strategy.verdict via_mode.Analyze.verdict)
        (Engine.pairs accs))
    [ "SPHOT"; "SIMPLE" ]

let test_of_names () =
  (match Cascade.of_names [ "gcd"; "banerjee"; "delinearize" ] with
  | Ok c ->
      Alcotest.(check int) "three steps" 3 (List.length c.Cascade.steps)
  | Error e -> Alcotest.failf "expected cascade, got error %s" e);
  match Cascade.of_names [ "no-such-test" ] with
  | Ok _ -> Alcotest.fail "unknown strategy accepted"
  | Error _ -> ()

let test_registry_names () =
  let names = Registry.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [
      "delinearize"; "classic"; "exact"; "gcd"; "banerjee"; "svpc";
      "acyclic"; "residue"; "omega";
    ]

(* A filter-only cascade that proves nothing falls through to the
   conservative all-star result with "conservative" provenance. *)
let test_conservative_fallthrough () =
  let ps, env = problems_of numeric_src in
  (* A(I+1) = A(I): a real dependence no filter can refute. *)
  let dependent =
    List.find
      (fun p ->
        Cascade.run ~stats:(Stats.create ()) ~env Cascade.delin p
        |> fun r -> r.Strategy.verdict = Verdict.Dependent)
      ps
  in
  let c =
    match Cascade.of_names [ "gcd"; "banerjee" ] with
    | Ok c -> c
    | Error e -> Alcotest.failf "cascade: %s" e
  in
  let stats = Stats.create () in
  let r = Cascade.run ~stats ~env c dependent in
  Alcotest.check verdict "conservatively dependent" Verdict.Dependent
    r.Strategy.verdict;
  Alcotest.(check string) "provenance" "conservative" r.Strategy.decided_by;
  Alcotest.(check bool)
    "filters were attempted" true
    (List.for_all
       (fun (_, (c : Stats.strategy_counters)) -> c.Stats.attempts = 1)
       (Stats.rows stats))

(* --- provenance ----------------------------------------------------------- *)

let test_provenance_populated () =
  let known = "conservative" :: Registry.names () in
  List.iter
    (fun src ->
      let deps = Analyze.deps_of_program (prepare src) in
      List.iter
        (fun (d : Analyze.dep) ->
          Alcotest.(check bool)
            ("provenance name known: " ^ d.Analyze.via)
            true
            (List.mem d.Analyze.via known))
        deps)
    [ Fragments.eq1_program; Fragments.ib_program; Fragments.mhl_program ];
  (* Exact mode on a numeric program: the exact solver itself decides. *)
  let deps = Analyze.deps_of_program ~mode:Analyze.ExactMode (prepare numeric_src) in
  Alcotest.(check bool) "numeric nest has deps" true (deps <> []);
  List.iter
    (fun (d : Analyze.dep) ->
      Alcotest.(check string) "exact decided" "exact" d.Analyze.via)
    deps

let test_stats_reporting () =
  Engine.reset_metrics ();
  ignore (Analyze.deps_of_program (prepare numeric_src));
  ignore (Analyze.deps_of_program (prepare numeric_src));
  let st = Stats.global in
  Alcotest.(check bool) "queries counted" true (Stats.queries st > 0);
  Alcotest.(check bool) "repeat run hits" true (Stats.cache_hits st > 0);
  Alcotest.(check bool)
    "hit ratio in (0,1]" true
    (Stats.hit_ratio st > 0. && Stats.hit_ratio st <= 1.);
  Alcotest.(check bool)
    "delinearize counted" true
    (List.exists
       (fun (n, (c : Stats.strategy_counters)) ->
         n = "delinearize" && c.Stats.attempts > 0)
       (Stats.rows st));
  let json = Stats.to_json st in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true (contains needle))
    [ "\"queries\""; "\"hit_ratio\""; "\"strategies\""; "\"delinearize\"" ]

(* --- pair enumeration and orientation ------------------------------------- *)

let test_pairs_write_first () =
  List.iter
    (fun src ->
      let accs, _env = accesses src in
      List.iter
        (fun (pr : Engine.pair) ->
          let has_write =
            pr.Engine.src.Access.rw = `Write
            || pr.Engine.dst.Access.rw = `Write
          in
          Alcotest.(check bool) "every pair involves a write" true has_write;
          Alcotest.(check bool)
            "source is the writing reference" true
            (pr.Engine.src.Access.rw = `Write);
          Alcotest.(check string)
            "same array" pr.Engine.src.Access.array
            pr.Engine.dst.Access.array;
          Alcotest.(check bool)
            "self flag matches ids" pr.Engine.self
            (pr.Engine.src.Access.acc_id = pr.Engine.dst.Access.acc_id))
        (Engine.pairs accs))
    [ numeric_src; twin_src; Fragments.ib_program; Fragments.fig3_program ]

(* --- analyzer/depgraph consistency (the orientation regression) ----------- *)

(* Both consumers enumerate through Engine.pairs; the depgraph
   additionally reorients lexicographically-backward vectors and — by
   design — drops within-statement loop-independent dependences (an
   all-[=] vector on a single statement does not constrain loop
   rearrangement).  Modulo that documented exclusion, the set of
   unordered statement pairs connected by a dependence must be
   identical. *)
let unordered_pairs_of_deps deps =
  List.sort_uniq compare
    (List.filter_map
       (fun (d : Analyze.dep) ->
         let a = d.Analyze.src.Access.stmt_id
         and b = d.Analyze.dst.Access.stmt_id in
         if a = b && Array.for_all (( = ) Dirvec.Eq) d.Analyze.dirvec then
           None
         else Some (min a b, max a b))
       deps)

let unordered_pairs_of_graph (g : Depgraph.t) =
  List.sort_uniq compare
    (List.map
       (fun (e : Depgraph.edge) ->
         (min e.Depgraph.e_src e.Depgraph.e_dst,
          max e.Depgraph.e_src e.Depgraph.e_dst))
       g.Depgraph.edges)

let test_analyze_depgraph_consistent () =
  List.iter
    (fun (name, src) ->
      let prog = prepare src in
      List.iter
        (fun mode ->
          let deps = Analyze.deps_of_program ~mode prog in
          let g = Depgraph.build ~mode prog in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s: same dependent statement pairs" name)
            (unordered_pairs_of_deps deps)
            (unordered_pairs_of_graph g))
        [ Analyze.Delinearize; Analyze.Classic ])
    [
      ("eq1", Fragments.eq1_program);
      ("fig3", Fragments.fig3_program);
      ("ib", Fragments.ib_program);
      ("mhl", Fragments.mhl_program);
      ("intro-serial", Fragments.intro_serial);
      ("intro-parallel", Fragments.intro_parallel);
      ("symbolic", Fragments.symbolic_program);
      ("numeric", numeric_src);
      ("twin", twin_src);
    ]

(* --- delinearize: one expansion per problem ----------------------------- *)

(* The strategy as it was when every equation expanded its own set: each
   numeric equation's [Algo.run] returns basic vectors, and the
   per-equation sets are met one after another.  The strategy now meets
   the unexpanded sets and expands once; verdicts, vectors, distances
   and budget use must not change. *)
let reference_delinearize ~env ~budget (p : Problem.t) =
  let n_common = p.Problem.n_common in
  let num_ubs =
    List.fold_right
      (fun u acc ->
        match (Poly.to_const u, acc) with
        | Some c, Some cs -> Some (c :: cs)
        | _ -> None)
      p.Problem.common_ubs (Some [])
  in
  let analyze_eq eq =
    try
      match (Symeq.to_numeric eq, num_ubs) with
      | Some neq, Some ubs ->
          let r = Algo.run ~n_common ~common_ubs:(Array.of_list ubs) neq in
          ( r.Algo.verdict,
            r.Algo.dirvecs,
            List.map (fun (l, d) -> (l, Poly.const d)) r.Algo.distances )
      | _ ->
          let r = Symalgo.run ~env ~n_common eq in
          (r.Symalgo.verdict, r.Symalgo.dirvecs, r.Symalgo.distances)
    with Dlz_base.Intx.Overflow _ ->
      (Verdict.Dependent, [ Dirvec.all_star n_common ], [])
  in
  let rec fold dvs dists = function
    | [] ->
        Strategy.decided Verdict.Dependent ~dirvecs:dvs
          ~distances:(List.sort_uniq Stdlib.compare dists)
    | eq :: rest ->
        Budget.spend budget;
        let ve, nv, de = analyze_eq eq in
        if ve = Verdict.Independent then Strategy.decided Verdict.Independent
        else
          let met = Dirvec.meet_sets dvs nv in
          if met = [] then Strategy.decided Verdict.Independent
          else fold met (de @ dists) rest
  in
  fold [ Dirvec.all_star n_common ] [] p.Problem.equations

let outcome_of run =
  match run () with
  | Strategy.Decided (v, dvs, dists) -> Ok (v, dvs, dists)
  | Strategy.Pass -> Error "pass"
  | exception Budget.Exhausted why -> Error ("exhausted:" ^ why)

let same_outcome a b =
  match (a, b) with
  | Ok (v1, d1, x1), Ok (v2, d2, x2) ->
      Verdict.equal v1 v2
      && List.equal Dirvec.equal d1 d2
      && List.equal (fun (l1, p1) (l2, p2) -> l1 = l2 && Poly.equal p1 p2) x1 x2
  | Error e1, Error e2 -> String.equal e1 e2
  | _ -> false

let show_outcome = function
  | Error e -> e
  | Ok (v, dvs, dists) ->
      Printf.sprintf "%s [%s] {%s}" (Verdict.to_string v)
        (String.concat " " (List.map Dirvec.to_string dvs))
        (String.concat " "
           (List.map
              (fun (l, d) -> Printf.sprintf "%d:%s" l (Poly.to_string d))
              dists))

let show_problem (p : Problem.t) =
  Printf.sprintf "n_common=%d ubs=[%s] %s" p.Problem.n_common
    (String.concat ";" (List.map Poly.to_string p.Problem.common_ubs))
    (String.concat " /\\ "
       (List.map (Format.asprintf "%a" Symeq.pp) p.Problem.equations))

(* The strategy against the reference with unlimited fuel and with
   every fuel level that runs out before the last equation. *)
let expansion_mismatch ~env (p : Problem.t) =
  let fuels =
    None :: List.init (List.length p.Problem.equations) (fun f -> Some f)
  in
  List.find_map
    (fun fuel ->
      let budget () =
        match fuel with
        | None -> Budget.unlimited
        | Some fuel -> Budget.create ~fuel ()
      in
      let got =
        outcome_of (fun () ->
            Registry.delinearize.Strategy.run ~env ~budget:(budget ()) p)
      in
      let want =
        outcome_of (fun () -> reference_delinearize ~env ~budget:(budget ()) p)
      in
      if same_outcome got want then None
      else
        Some
          (Printf.sprintf "%s\n  fuel %s: got %s, want %s" (show_problem p)
             (match fuel with None -> "unlimited" | Some f -> string_of_int f)
             (show_outcome got) (show_outcome want)))
    fuels

let sym_n = Poly.sym "N"

let svar side level ub =
  let name = match side with `Src -> "i" | `Dst -> "j" in
  Symeq.var ~side ~level (Printf.sprintf "%s%d" name level) ub

(* A problem over the given common-loop bounds, on placeholder
   accesses. *)
let problem_of ubs eqs =
  let n_common = List.length ubs in
  let base =
    Problem.synthetic
      (Problem.numeric_of_equations ~n_common
         ~common_ubs:(Array.make n_common 0) [])
  in
  { base with Problem.common_ubs = ubs; equations = eqs }

let env_n = Assume.assume_ge "N" 2 Assume.empty

(* Random problems over 0-4 common loops.  Bounds are often 0 (a
   one-iteration loop, where expansion drops [<] and [>]); equations
   either share levels or split them between themselves; some carry a
   symbolic coefficient (the [Symalgo] branch), a coefficient past 63
   bits once multiplied out (the overflow fallback) or a symbolic loop
   bound (no numeric equation at all). *)
let gen_expansion_problem =
  let open QCheck.Gen in
  let* n_common = int_range 0 4 in
  let* ubs =
    list_repeat n_common
      (frequency [ (2, return 0); (3, int_range 1 6) ])
  in
  let* symbolic_ub = frequency [ (9, return false); (1, return true) ] in
  let ubs =
    List.mapi
      (fun i u ->
        if symbolic_ub && i = 0 then Poly.sub sym_n Poly.one else Poly.const u)
      ubs
  in
  let ub_at l = List.nth ubs (l - 1) in
  let* shared = bool in
  let* n_eqs = int_range 1 3 in
  let gen_eq i =
    let level_terms l =
      if not (shared || (l - 1) mod n_eqs = i) then return []
      else
        let* used = frequency [ (3, return true); (1, return false) ] in
        if not used then return []
        else
          let* stride = oneofl [ 1; 1; 2; 3; 10; 100 ] in
          let* a = int_range 1 3 in
          let* b = int_range (-3) 3 in
          let* shape = int_range 0 2 in
          let src = (stride * a, svar `Src l (ub_at l)) in
          let dst c = (c, svar `Dst l (ub_at l)) in
          return
            (match shape with
            | 0 -> [ src; dst (-stride * a) ]
            | 1 -> [ src; dst (stride * b) ]
            | _ -> [ src ])
    in
    let* terms =
      flatten_l (List.init n_common (fun l -> level_terms (l + 1)))
    in
    let terms = List.concat terms in
    let* extra =
      frequency
        [ (4, return None);
          (1, map Option.some (pair (int_range (-5) 5) (int_range 0 4))) ]
    in
    let terms =
      match extra with
      | Some (c, ub) ->
          let z = Symeq.var ~level:0 (Printf.sprintf "z%d" i) (Poly.const ub) in
          terms @ [ (c, z) ]
      | None -> terms
    in
    let* c0 = int_range (-12) 12 in
    let* kind =
      frequency
        [ (10, return `Plain); (2, return `Symbolic); (1, return `Huge) ]
    in
    let coeff k c =
      match kind with
      | `Symbolic when k = 0 -> Poly.scale c sym_n
      | `Huge when k = 0 -> Poly.const (c * (max_int / 3))
      | _ -> Poly.const c
    in
    return
      (Symeq.make (Poly.const c0)
         (List.mapi (fun k (c, v) -> (coeff k c, v)) terms))
  in
  let* eqs = flatten_l (List.init n_eqs gen_eq) in
  return (problem_of ubs eqs)

let expansion_props =
  [
    QCheck.Test.make ~name:"random problems match the fold"
      ~count:1500
      (QCheck.make ~print:show_problem gen_expansion_problem)
      (fun p ->
        match expansion_mismatch ~env:env_n p with
        | None -> true
        | Some why -> QCheck.Test.fail_report why);
  ]

let check_no_mismatch what cases =
  List.iter
    (fun (env, p) ->
      match expansion_mismatch ~env p with
      | None -> ()
      | Some why -> Alcotest.failf "%s: %s" what why)
    cases

let decided_dirvecs ?(env = env_n) p =
  match Registry.delinearize.Strategy.run ~env ~budget:Budget.unlimited p with
  | Strategy.Decided (v, dvs, _) -> (v, List.map Dirvec.to_string dvs)
  | Strategy.Pass -> Alcotest.fail "delinearize passed"

let expansion_units =
  [
    Alcotest.test_case "polybench problems match the fold" `Quick
      (fun () ->
        let cases = Eqgen.polybench () in
        Alcotest.(check int) "every pair" 266 (List.length cases);
        check_no_mismatch "polybench"
          (List.map (fun (c : Eqgen.case) -> (c.env, c.problem)) cases));
    Alcotest.test_case "eqgen batch matches the fold" `Quick
      (fun () ->
        check_no_mismatch "eqgen"
          (List.map
             (fun (c : Eqgen.case) -> (c.env, c.problem))
             (Eqgen.all ~seed:16L ~count:600)));
    Alcotest.test_case "mixed numeric and symbolic equations" `Quick
      (fun () ->
        (* i2 - j2 - 1 = 0 is numeric and leaves level 1 at [Star].
           N*z + i2 - j2 - 1 = 0 goes to Symalgo, which separates
           i2 - j2 - 1 = 0 (N >= 20 draws the barrier) and expands it
           over unknown bounds: it admits [<] and [>] at level 1 although
           that loop runs once. *)
        let env = Assume.assume_ge "N" 20 Assume.empty in
        let piece =
          [ (Poly.one, svar `Src 2 (Poly.const 5));
            (Poly.const (-1), svar `Dst 2 (Poly.const 5)) ]
        in
        let p =
          problem_of (List.map Poly.const [ 0; 5 ])
            [
              Symeq.make (Poly.const (-1)) piece;
              Symeq.make (Poly.const (-1))
                ((sym_n, Symeq.var ~level:0 "z" Poly.zero) :: piece);
            ]
        in
        check_no_mismatch "mixed" [ (env, p) ];
        Alcotest.(check (pair verdict (list string)))
          "expanded once" (Verdict.Dependent, [ "(=, >)" ])
          (decided_dirvecs ~env p));
    Alcotest.test_case "empty expansion is independent" `Quick
      (fun () ->
        (* Symalgo reads the variables' own bounds (5) and finds the
           distance -1 at level 1, whose common bound is 0: the met set
           [(>, Star)] is not empty, but has no feasible basic vector. *)
        let env = Assume.assume_ge "N" 20 Assume.empty in
        let p =
          problem_of (List.map Poly.const [ 0; 5 ])
            [
              Symeq.make Poly.zero
                [ (Poly.one, svar `Src 2 (Poly.const 5));
                  (Poly.const (-1), svar `Dst 2 (Poly.const 5)) ];
              Symeq.make (Poly.const (-1))
                [ (sym_n, Symeq.var ~level:0 "z" Poly.zero);
                  (Poly.one, svar `Src 1 (Poly.const 5));
                  (Poly.const (-1), svar `Dst 1 (Poly.const 5)) ];
              Symeq.make Poly.zero
                [ (Poly.one, svar `Src 2 (Poly.const 5));
                  (Poly.const (-1), svar `Dst 2 (Poly.const 5)) ];
            ]
        in
        check_no_mismatch "expands to nothing" [ (env, p) ];
        Alcotest.(check (pair verdict (list string)))
          "independent" (Verdict.Independent, [])
          (decided_dirvecs ~env p));
    Alcotest.test_case "overflow falls back to all-star" `Quick
      (fun () ->
        let huge = Poly.const (max_int / 3) in
        let p =
          problem_of (List.map Poly.const [ 4; 4 ])
            [
              Symeq.make Poly.zero
                [ (huge, svar `Src 1 (Poly.const 4));
                  (Poly.neg huge, svar `Dst 1 (Poly.const 4));
                  (huge, svar `Src 2 (Poly.const 4)) ];
              Symeq.make Poly.zero
                [ (Poly.one, svar `Src 2 (Poly.const 4));
                  (Poly.const (-1), svar `Dst 2 (Poly.const 4)) ];
            ]
        in
        (match Problem.to_numeric p with
        | Some { Problem.eqs = eq :: _; common_ubs; _ } -> (
            match Algo.scan ~n_common:2 ~common_ubs eq with
            | exception Dlz_base.Intx.Overflow _ -> ()
            | _ -> Alcotest.fail "the first equation should overflow")
        | _ -> Alcotest.fail "numeric problem expected");
        check_no_mismatch "overflow" [ (env_n, p) ];
        Alcotest.(check (pair verdict (list string)))
          "other equation still expands"
          (Verdict.Dependent, [ "(<, =)"; "(=, =)"; "(>, =)" ])
          (decided_dirvecs p));
    Alcotest.test_case "no solved piece stays all-star" `Quick (fun () ->
        (* 0 = 0: a constant subscript equal on both sides. *)
        let p =
          problem_of (List.map Poly.const [ 3; 0 ]) [ Symeq.make Poly.zero [] ]
        in
        check_no_mismatch "unsolved" [ (env_n, p) ];
        Alcotest.(check (pair verdict (list string)))
          "unexpanded" (Verdict.Dependent, [ "(*, *)" ])
          (decided_dirvecs p));
  ]

(* --- summarizing rows and edges over packed basic-vector sets ----------- *)

(* The list-based summarization and edge construction the packed sets
   replaced: a join is covered when each vector of its decomposition
   equals a member (or is the identity of a self pair), and a pair's
   edges come from the sorted union of its vectors' decompositions.
   Rows and edges must not change. *)
let ref_decomposition dv =
  Array.fold_right
    (fun d acc ->
      List.concat_map
        (fun child -> List.map (fun tail -> child :: tail) acc)
        (Dirvec.refinements d))
    dv [ [] ]
  |> List.map Array.of_list

let ref_summarize ~self vecs =
  let identity n = Array.make n Dirvec.Eq in
  let covered set dv =
    List.for_all
      (fun basic ->
        List.exists (( = ) basic) set
        || (self && basic = identity (Array.length basic)))
      (ref_decomposition dv)
  in
  let rec merge groups =
    let rec try_pairs = function
      | [] -> None
      | g :: rest -> (
          match
            List.find_opt (fun h -> covered vecs (Dirvec.join g h)) rest
          with
          | Some h ->
              Some (Dirvec.join g h :: List.filter (fun x -> x <> h) rest)
          | None -> (
              match try_pairs rest with
              | Some rest' -> Some (g :: rest')
              | None -> None))
    in
    match try_pairs groups with Some g' -> merge g' | None -> groups
  in
  merge (List.sort_uniq compare vecs)

let ref_basics vecs =
  List.sort_uniq compare (List.concat_map ref_decomposition vecs)

let ref_edges_of_pair (pr : Engine.pair) (r : Strategy.result) =
  let a = pr.Engine.src and b = pr.Engine.dst in
  if r.Strategy.verdict = Verdict.Independent then []
  else
    ref_basics r.Strategy.dirvecs
    |> List.filter (fun v ->
           not (pr.Engine.self && Array.for_all (( = ) Dirvec.Eq) v))
    |> List.concat_map (fun v ->
           let add src dst vec level =
             [
               {
                 Depgraph.e_src = src.Access.stmt_id;
                 e_dst = dst.Access.stmt_id;
                 e_vec = vec;
                 e_level = level;
                 e_kind =
                   Dlz_deptest.Classify.kind ~src:src.Access.rw
                     ~dst:dst.Access.rw;
               };
             ]
           in
           let rec carrier i =
             if i = Array.length v then None
             else if v.(i) = Dirvec.Eq then carrier (i + 1)
             else Some (i + 1, v.(i))
           in
           match carrier 0 with
           | Some (lvl, Dirvec.Gt) -> add b a (Dirvec.reverse v) lvl
           | Some (lvl, _) -> add a b v lvl
           | None ->
               if a.Access.stmt_id < b.Access.stmt_id then add a b v max_int
               else if b.Access.stmt_id < a.Access.stmt_id then
                 add b a v max_int
               else [])

let ref_edges solved =
  List.concat_map
    (fun (s : Analyze.solved) ->
      ref_edges_of_pair s.Analyze.pair s.Analyze.settled)
    solved
  |> List.sort_uniq compare

let edges accs solved = (Depgraph.of_pairs accs solved).Depgraph.edges

let answer ?(verdict = Verdict.Dependent) dirvecs =
  {
    Strategy.verdict;
    dirvecs;
    distances = [];
    decided_by = "test";
    degraded = [];
  }

(* One pair of [pr]'s accesses, answered with [r]. *)
let solved_as (pr : Engine.pair) ~self r =
  { Analyze.pair = { pr with Engine.self }; first = r; settled = r }

let show_vecs vecs = String.concat " " (List.map Dirvec.to_string vecs)

let check_vecs what expected got =
  if expected <> got then
    Alcotest.failf "%s: expected %s, got %s" what (show_vecs expected)
      (show_vecs got)

(* Three statements' accesses: a same-statement pair, a forward pair
   and a backward pair, whose edges orient differently. *)
let edge_accs, edge_pairs =
  let accs, _ =
    accesses
      {|      DIMENSION A(200), B(200)
      DO I = 0, 99
        A(I+1) = A(I)
        B(I) = A(I+2)
      ENDDO
|}
  in
  (accs, Array.of_list (Engine.pairs accs))

let gen_dir ~basic =
  QCheck.Gen.oneofl
    (if basic then [ Dirvec.Lt; Dirvec.Eq; Dirvec.Gt ]
     else Dirvec.[ Lt; Eq; Gt; Le; Ge; Ne; Star ])

(* n = 0..5 levels; each vector is basic or arbitrary. *)
let gen_summary_case =
  let open QCheck.Gen in
  let* n = int_range 0 5 in
  let* count = int_range 0 7 in
  let* vecs =
    list_repeat count
      (let* basic = frequency [ (3, return true); (1, return false) ] in
       array_repeat n (gen_dir ~basic))
  in
  let* self = bool in
  let* pick = int_bound (Array.length edge_pairs - 1) in
  let* independent = frequency [ (9, return false); (1, return true) ] in
  return (vecs, self, pick, independent)

let print_summary_case (vecs, self, pick, independent) =
  Printf.sprintf "self=%b pair=%d independent=%b vecs=[%s]" self pick
    independent (show_vecs vecs)

let summary_props =
  [
    QCheck.Test.make ~name:"packed = list-based summaries" ~count:1500
      (QCheck.make ~print:print_summary_case gen_summary_case)
      (fun (vecs, self, pick, independent) ->
        let verdict =
          if independent then Verdict.Independent else Verdict.Dependent
        in
        let solved =
          [ solved_as edge_pairs.(pick) ~self (answer ~verdict vecs) ]
        in
        Analyze.summarize ~self vecs = ref_summarize ~self vecs
        && Dirvec.basics vecs = ref_basics vecs
        && edges edge_accs solved = ref_edges solved);
  ]

(* The polybench kernels' accesses and settled answers. *)
let polybench_solved () =
  List.map
    (fun (k : Dlz_corpus.Polybench.kernel) ->
      let prog =
        Pipeline.prepare_program
          (Dlz_passes.Pointers.lower
             (Dlz_frontend.C_parser.parse k.Dlz_corpus.Polybench.k_source))
      in
      let accs, env = Access.of_program prog in
      (k.Dlz_corpus.Polybench.k_name, accs, Analyze.pass ~env accs))
    Dlz_corpus.Polybench.kernels

(* A 40-level vector: [<] everywhere except the given levels. *)
let deep ?(n = 40) levels =
  Array.init n (fun i ->
      match List.assoc_opt i levels with Some d -> d | None -> Dirvec.Lt)

let summary_units =
  [
    Alcotest.test_case "polybench pairs match the lists" `Quick (fun () ->
        let kernels = polybench_solved () in
        Alcotest.(check int) "every pair" 266
          (List.fold_left (fun n (_, _, s) -> n + List.length s) 0 kernels);
        List.iter
          (fun (name, accs, solved) ->
            if edges accs solved <> ref_edges solved then
              Alcotest.failf "%s: edges differ" name;
            List.iter
              (fun (s : Analyze.solved) ->
                let vecs = s.Analyze.settled.Strategy.dirvecs in
                List.iter
                  (fun self ->
                    check_vecs name (ref_summarize ~self vecs)
                      (Analyze.summarize ~self vecs);
                    let one =
                      [ solved_as s.Analyze.pair ~self s.Analyze.settled ]
                    in
                    if edges accs one <> ref_edges one then
                      Alcotest.failf "%s: pair edges differ (self=%b)" name
                        self)
                  [ true; false ])
              solved)
          kernels);
    Alcotest.test_case "non-basic members cover nothing" `Quick (fun () ->
        (* (<) joined with ( * ) is ( * ), whose [=] and [>] are not basic
           members: a ( * ) member does not stand for them. *)
        let vecs = [ [| Dirvec.Star |]; [| Dirvec.Lt |] ] in
        check_vecs "( * ) and (<)" [ [| Dirvec.Lt |]; [| Dirvec.Star |] ]
          (Analyze.summarize ~self:false vecs);
        (* (<) joined with (<=) is (<=): its [=] is covered only by a
           self pair's identity. *)
        let vecs = [ [| Dirvec.Le |]; [| Dirvec.Lt |] ] in
        check_vecs "self" [ [| Dirvec.Le |] ]
          (Analyze.summarize ~self:true vecs);
        check_vecs "not self" [ [| Dirvec.Lt |]; [| Dirvec.Le |] ]
          (Analyze.summarize ~self:false vecs));
    Alcotest.test_case "basics of mixed lengths" `Quick (fun () ->
        (* Shorter vectors sort first, as in [Dirvec.compare]. *)
        let vecs =
          Dirvec.[ [| Lt; Star |]; [||]; [| Ne |]; [| Eq; Le |]; [| Gt |] ]
        in
        check_vecs "basics" (ref_basics vecs) (Dirvec.basics vecs));
    Alcotest.test_case "40 levels span two key words" `Quick (fun () ->
        (* Levels 3 and 35 sit in different words of a key: (<,=) and
           (=,<) over them must not merge, (<), (=), (>) at level 38 must. *)
        let split =
          [ deep [ (3, Dirvec.Lt); (35, Dirvec.Eq) ];
            deep [ (3, Dirvec.Eq); (35, Dirvec.Lt) ] ]
        in
        let spread =
          List.map (fun d -> deep [ (38, d) ]) Dirvec.[ Lt; Eq; Gt ]
        in
        List.iter
          (fun (what, vecs, rows) ->
            let got = Analyze.summarize ~self:false vecs in
            Alcotest.(check int) what rows (List.length got);
            check_vecs what (ref_summarize ~self:false vecs) got)
          [ ("split", split, 2); ("spread", spread, 1);
            ("both", split @ spread, 3) ];
        let solved vecs =
          [ solved_as edge_pairs.(2) ~self:false (answer vecs) ]
        in
        let stars =
          [ deep [ (3, Dirvec.Le); (35, Dirvec.Star) ];
            deep [ (39, Dirvec.Ne) ] ]
        in
        (* 2 * 3 + 2 vectors, all-[<] counted once. *)
        Alcotest.(check int) "basics" 7 (List.length (Dirvec.basics stars));
        check_vecs "basics" (ref_basics stars) (Dirvec.basics stars);
        if edges edge_accs (solved stars) <> ref_edges (solved stars) then
          Alcotest.fail "40-level edges differ");
    Alcotest.test_case "64 levels, the protocol's limit" `Quick (fun () ->
        let v =
          deep ~n:64 Dirvec.[ (0, Star); (31, Ge); (62, Star); (63, Ne) ]
        in
        check_vecs "basics" (ref_basics [ v ]) (Dirvec.basics [ v ]);
        let members = Dirvec.basics [ v ] in
        let covers members =
          Dirvec.covers_join (Dirvec.basic_set ~n:64 members) v v
        in
        Alcotest.(check bool) "covered" true (covers members);
        Alcotest.(check bool) "one missing" false (covers (List.tl members)));
  ]

let () =
  Alcotest.run "engine"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss on repeat query" `Quick
            test_cache_hit_miss;
          Alcotest.test_case "canonical forms shared across arrays" `Quick
            test_cache_canonical_sharing;
          Alcotest.test_case "symbolic problems uncacheable" `Quick
            test_cache_uncacheable_symbolic;
          Alcotest.test_case "bounded capacity flush" `Quick
            test_cache_flush_on_capacity;
          Alcotest.test_case "key_of symbolic vs numeric" `Quick
            test_key_of_none_for_symbolic;
        ] );
      ( "presets",
        [
          Alcotest.test_case "presets match modes on fragments" `Quick
            test_presets_match_modes_fragments;
          Alcotest.test_case "presets match modes on corpus" `Slow
            test_presets_match_modes_corpus;
          Alcotest.test_case "of_names resolves and rejects" `Quick
            test_of_names;
          Alcotest.test_case "built-ins registered" `Quick test_registry_names;
          Alcotest.test_case "filter-only cascade falls through" `Quick
            test_conservative_fallthrough;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "deps carry deciding strategy" `Quick
            test_provenance_populated;
          Alcotest.test_case "global stats populated" `Quick
            test_stats_reporting;
        ] );
      (* Suite names stay within the width of "provenance": a longer one
         widens the suite column and truncates the other test names. *)
      ( "expansion",
        expansion_units
        @ List.map QCheck_alcotest.to_alcotest expansion_props );
      ( "pairs",
        [
          Alcotest.test_case "write-first orientation" `Quick
            test_pairs_write_first;
          Alcotest.test_case "analyzer and depgraph agree" `Quick
            test_analyze_depgraph_consistent;
        ] );
      ( "summary",
        summary_units @ List.map QCheck_alcotest.to_alcotest summary_props );
    ]
