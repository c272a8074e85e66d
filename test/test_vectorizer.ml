(* Tests for dlz_vec: SCC computation, dependence-graph construction and
   the Allen-Kennedy codegen, including safety of vectorized levels. *)

module Scc = Dlz_vec.Scc
module Depgraph = Dlz_vec.Depgraph
module Codegen = Dlz_vec.Codegen
module Analyze = Dlz_engine.Analyze
module Dirvec = Dlz_deptest.Dirvec
module F77 = Dlz_frontend.F77_parser
module Pipeline = Dlz_passes.Pipeline

let prepare src = Pipeline.prepare_program (F77.parse src)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- SCC ---------------------------------------------------------------- *)

let scc_units =
  [
    Alcotest.test_case "chain" `Quick (fun () ->
        let comps = Scc.compute ~n:3 ~edges:[ (0, 1); (1, 2) ] in
        Alcotest.(check (list (list int))) "singletons in order"
          [ [ 0 ]; [ 1 ]; [ 2 ] ] comps);
    Alcotest.test_case "cycle" `Quick (fun () ->
        let comps = Scc.compute ~n:3 ~edges:[ (0, 1); (1, 0); (1, 2) ] in
        Alcotest.(check (list (list int))) "cycle then sink"
          [ [ 0; 1 ]; [ 2 ] ] comps);
    Alcotest.test_case "self loop is cyclic" `Quick (fun () ->
        Alcotest.(check bool) "cyclic" true
          (Scc.is_cyclic ~edges:[ (0, 0) ] [ 0 ]);
        Alcotest.(check bool) "acyclic" false (Scc.is_cyclic ~edges:[] [ 0 ]);
        Alcotest.(check bool) "multi-node cyclic" true
          (Scc.is_cyclic ~edges:[] [ 0; 1 ]));
    Alcotest.test_case "topological order respects edges" `Quick (fun () ->
        let edges = [ (3, 1); (1, 0); (3, 0); (2, 3) ] in
        let comps = Scc.compute ~n:4 ~edges in
        let pos =
          List.concat_map Fun.id comps
          |> List.mapi (fun i v -> (v, i))
        in
        List.iter
          (fun (u, v) ->
            if List.assoc u pos > List.assoc v pos then
              Alcotest.failf "edge %d->%d out of order" u v)
          edges);
  ]

(* --- dependence graph ------------------------------------------------------ *)

let graph_units =
  [
    Alcotest.test_case "serial loop has a level-1 edge" `Quick (fun () ->
        let g =
          Depgraph.build
            (prepare Dlz_driver.Fragments.intro_serial)
        in
        Alcotest.(check bool) "some edge at level 1" true
          (List.exists
             (fun (e : Depgraph.edge) -> e.Depgraph.e_level = 1)
             g.Depgraph.edges));
    Alcotest.test_case "parallel loop has no edges" `Quick (fun () ->
        let g =
          Depgraph.build (prepare Dlz_driver.Fragments.intro_parallel)
        in
        Alcotest.(check int) "empty" 0 (List.length g.Depgraph.edges));
    Alcotest.test_case "edges oriented source-first" `Quick (fun () ->
        let g = Depgraph.build (prepare Dlz_driver.Fragments.fig3_program) in
        (* every edge's vector is plausible after orientation *)
        List.iter
          (fun (e : Depgraph.edge) ->
            if not (Dirvec.plausible e.Depgraph.e_vec) then
              Alcotest.failf "implausible oriented edge %s"
                (Dirvec.to_string e.Depgraph.e_vec))
          g.Depgraph.edges);
    Alcotest.test_case "star vectors decompose into basic edges" `Quick
      (fun () ->
        (* C(J) self dependence within a 3-deep nest must yield edges at
           levels 1 and 3 (carried by I and K), not a bogus level-1-only
           edge. *)
        let g = Depgraph.build (prepare Dlz_driver.Fragments.ib_program) in
        let c_edges =
          List.filter
            (fun (e : Depgraph.edge) ->
              g.Depgraph.stmt_names.(e.Depgraph.e_src) = "S1"
              && e.Depgraph.e_src = e.Depgraph.e_dst)
            g.Depgraph.edges
        in
        let levels =
          List.sort_uniq compare
            (List.map (fun (e : Depgraph.edge) -> e.Depgraph.e_level) c_edges)
        in
        Alcotest.(check (list int)) "levels 1 and 3" [ 1; 3 ] levels);
  ]

(* --- codegen ---------------------------------------------------------------- *)

let codegen_units =
  [
    Alcotest.test_case "parallel loop vectorizes" `Quick (fun () ->
        let r = Codegen.run (prepare Dlz_driver.Fragments.intro_parallel) in
        Alcotest.(check bool) "array syntax" true
          (contains r.Codegen.text "D(0:4)");
        Alcotest.(check bool) "no DO" false (contains r.Codegen.text "DO "));
    Alcotest.test_case "serial loop stays a DO" `Quick (fun () ->
        let r = Codegen.run (prepare Dlz_driver.Fragments.intro_serial) in
        Alcotest.(check bool) "has DO" true (contains r.Codegen.text "DO ");
        match r.Codegen.plans with
        | [ p ] ->
            Alcotest.(check (list int)) "seq level 1" [ 1 ] p.Codegen.seq_levels
        | _ -> Alcotest.fail "one statement expected");
    Alcotest.test_case "fig3 distributes" `Quick (fun () ->
        let r = Codegen.run (prepare Dlz_driver.Fragments.fig3_program) in
        (* X(i) statement is independent of the i-loop cycle: vectorized. *)
        let s1 = List.find (fun p -> p.Codegen.stmt_name = "S1") r.Codegen.plans in
        Alcotest.(check (list int)) "S1 vectorized" [ 1 ] s1.Codegen.vec_levels;
        (* A's k loop is vectorizable. *)
        let s3 = List.find (fun p -> p.Codegen.stmt_name = "S3") r.Codegen.plans in
        Alcotest.(check bool) "S3 vectorizes k" true
          (List.mem 3 s3.Codegen.vec_levels);
        Alcotest.(check bool) "S3 sequential at 1" true
          (List.mem 1 s3.Codegen.seq_levels));
    Alcotest.test_case "delinearization unlocks the IB statement" `Quick
      (fun () ->
        let prog = prepare Dlz_driver.Fragments.ib_program in
        let delin = Codegen.run ~mode:Analyze.Delinearize prog in
        let classic = Codegen.run ~mode:Analyze.Classic prog in
        let plan_of r name =
          List.find (fun p -> p.Codegen.stmt_name = name) r.Codegen.plans
        in
        Alcotest.(check (list int)) "delin: B fully vector" [ 1; 2; 3 ]
          (plan_of delin "S2").Codegen.vec_levels;
        Alcotest.(check (list int)) "classic: B fully sequential" [ 1; 2; 3 ]
          (plan_of classic "S2").Codegen.seq_levels);
    Alcotest.test_case "vectorized levels carry no self dependence" `Quick
      (fun () ->
        (* safety: for every statement and vectorized level, the graph has
           no self edge carried at that level. *)
        List.iter
          (fun src ->
            let r = Codegen.run (prepare src) in
            List.iter
              (fun (p : Codegen.plan) ->
                List.iter
                  (fun lvl ->
                    if
                      List.exists
                        (fun (e : Depgraph.edge) ->
                          e.Depgraph.e_src = p.Codegen.stmt_id
                          && e.Depgraph.e_dst = p.Codegen.stmt_id
                          && e.Depgraph.e_level = lvl)
                        r.Codegen.graph.Depgraph.edges
                    then
                      Alcotest.failf "%s vectorized at carried level %d"
                        p.Codegen.stmt_name lvl)
                  p.Codegen.vec_levels)
              r.Codegen.plans)
          [
            Dlz_driver.Fragments.intro_serial;
            Dlz_driver.Fragments.intro_parallel;
            Dlz_driver.Fragments.eq1_program;
            Dlz_driver.Fragments.fig3_program;
            Dlz_driver.Fragments.mhl_program;
          ]);
    Alcotest.test_case "strided section rendering" `Quick (fun () ->
        let r = Codegen.run (prepare Dlz_driver.Fragments.eq1_program) in
        (* C(i + 10*j) with both loops vectorized falls back to the
           substitution rendering with both ranges visible. *)
        Alcotest.(check bool) "both ranges shown" true
          (contains r.Codegen.text "(0:4)" && contains r.Codegen.text "(0:9)"));
  ]

(* --- per-loop parallelism report ------------------------------------------------ *)

module Parallel = Dlz_vec.Parallel

(* The loop report as computed from explicit statement-id lists; the
   report now reads each loop's ids as one range. *)
let ref_loop_reports (p : Dlz_ir.Ast.program) (g : Depgraph.t) =
  let counter = ref 0 and loops = ref [] in
  let rec go path level = function
    | Dlz_ir.Ast.Assign _ ->
        let id = !counter in
        incr counter;
        [ id ]
    | Dlz_ir.Ast.Continue _ -> []
    | Dlz_ir.Ast.Do d ->
        let inner =
          List.concat_map (go (path @ [ d.var ]) (level + 1)) d.body
        in
        loops := (d.var, level + 1, path, inner) :: !loops;
        inner
  in
  List.iter (fun s -> ignore (go [] 0 s)) p.body;
  List.rev_map
    (fun (var, level, path, stmts) ->
      let carried =
        List.length
          (List.filter
             (fun (e : Depgraph.edge) ->
               e.e_level = level && List.mem e.e_src stmts
               && List.mem e.e_dst stmts)
             g.Depgraph.edges)
      in
      (var, level, path, carried))
    !loops

let parallel_units =
  [
    Alcotest.test_case "reports match statement lists" `Quick (fun () ->
        (* Sibling nests share loop names, so an edge can join the
           statement after a loop to one inside it. *)
        let siblings =
          prepare
            "      REAL A(0:99,0:99)\n\
            \      DO I = 0, 9\n\
            \      DO J = 0, 9\n\
            \      A(I,J) = A(I,J+1)\n\
            \      ENDDO\n\
            \      ENDDO\n\
            \      DO I = 0, 9\n\
            \      DO J = 0, 9\n\
            \      A(I,J+2) = 1\n\
            \      ENDDO\n\
            \      ENDDO\n\
            \      END\n"
        in
        let kernels =
          List.map
            (fun (k : Dlz_corpus.Polybench.kernel) ->
              Pipeline.prepare_program
                (Dlz_passes.Pointers.lower
                   (Dlz_frontend.C_parser.parse
                      k.Dlz_corpus.Polybench.k_source)))
            Dlz_corpus.Polybench.kernels
        in
        List.iter
          (fun prog ->
            let g = Depgraph.build prog in
            Alcotest.(
              check (list (pair (pair string int) (pair (list string) int))))
              "same reports"
              (List.map
                 (fun (v, l, p, c) -> ((v, l), (p, c)))
                 (ref_loop_reports prog g))
              (List.map
                 (fun (r : Parallel.loop_report) ->
                   ((r.lr_var, r.lr_level), (r.lr_path, r.lr_carried)))
                 (Parallel.of_graph prog g)))
          (siblings :: kernels));
    Alcotest.test_case "serial vs parallel intro loops" `Quick (fun () ->
        let r1 = Parallel.report (prepare Dlz_driver.Fragments.intro_serial) in
        (match r1 with
        | [ l ] ->
            Alcotest.(check bool) "serial" false l.Parallel.lr_parallel;
            Alcotest.(check bool) "carried > 0" true (l.Parallel.lr_carried > 0)
        | _ -> Alcotest.fail "one loop expected");
        let r2 =
          Parallel.report (prepare Dlz_driver.Fragments.intro_parallel)
        in
        match r2 with
        | [ l ] -> Alcotest.(check bool) "parallel" true l.Parallel.lr_parallel
        | _ -> Alcotest.fail "one loop expected");
    Alcotest.test_case "eq1 nest fully parallel" `Quick (fun () ->
        let r = Parallel.report (prepare Dlz_driver.Fragments.eq1_program) in
        Alcotest.(check int) "two loops" 2 (List.length r);
        Alcotest.(check bool) "fully parallel" true (Parallel.fully_parallel r));
    Alcotest.test_case "ib nest: delin parallel, classic not" `Quick (fun () ->
        let prog = prepare Dlz_driver.Fragments.ib_program in
        let delin = Parallel.report ~mode:Analyze.Delinearize prog in
        let classic = Parallel.report ~mode:Analyze.Classic prog in
        (* The C(J) recurrence keeps I and K serial either way; the
           point is the J loop (and B's contribution). *)
        let j_of r =
          List.find (fun l -> l.Parallel.lr_var = "J") r
        in
        Alcotest.(check bool) "J parallel with delin" true
          (j_of delin).Parallel.lr_parallel;
        Alcotest.(check bool) "J serial with classic" false
          (j_of classic).Parallel.lr_parallel);
    Alcotest.test_case "interchange hints on the C(J) recurrence" `Quick
      (fun () ->
        (* C(J) = C(J)+1 in an I,J,K nest carries at levels 1 and 3;
           basic AK keeps the J loop sequential because the level-3 self
           edge keeps the component cyclic at level 2 — but nothing is
           carried at level 2 itself, so it is flagged interchangeable. *)
        let prog =
          prepare
            "      REAL C(0:9)\n\
            \      DO I = 0, 4\n\
            \      DO J = 0, 9\n\
            \      DO K = 0, 3\n\
            \      C(J) = C(J) + 1\n\
            \      ENDDO\n\
            \      ENDDO\n\
            \      ENDDO\n\
            \      END\n"
        in
        let r = Codegen.run prog in
        match r.Codegen.plans with
        | [ p ] ->
            Alcotest.(check bool) "level 2 flagged interchangeable" true
              (List.mem 2 p.Codegen.interchangeable)
        | _ -> Alcotest.fail "one statement expected");
  ]

let () =
  Alcotest.run "dlz_vec"
    [
      ("scc", scc_units);
      ("graph", graph_units);
      ("codegen", codegen_units);
      ("parallel", parallel_units);
    ]
