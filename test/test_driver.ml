(* Tests for dlz_driver: the paper fragments' internal consistency, the
   workload generators, and the experiment plumbing. *)

module Fragments = Dlz_driver.Fragments
module Workload = Dlz_driver.Workload
module Progen = Dlz_driver.Progen
module Dynamic = Dlz_driver.Dynamic
module Experiments = Dlz_driver.Experiments
module Depeq = Dlz_deptest.Depeq
module Verdict = Dlz_deptest.Verdict
module Problem = Dlz_deptest.Problem
module Exact = Dlz_deptest.Exact
module Symeq = Dlz_deptest.Symeq
module Access = Dlz_ir.Access
module Ast = Dlz_ir.Ast
module Prng = Dlz_base.Prng

let prepare src =
  Dlz_passes.Pipeline.prepare_program (Dlz_frontend.F77_parser.parse src)

(* The hand-built eq1 must be exactly the equation the front end derives
   from the program text (modulo display names). *)
let fragment_units =
  [
    Alcotest.test_case "eq1 () matches the parsed program's equation" `Quick
      (fun () ->
        let prog = prepare Fragments.eq1_program in
        let accs, _ = Access.of_program prog in
        match accs with
        | [ w; r ] -> (
            let p = Option.get (Problem.of_accesses w r) in
            match Problem.to_numeric p with
            | Some np -> (
                match np.Problem.eqs with
                | [ derived ] ->
                    let hand = Fragments.eq1 () in
                    Alcotest.(check int) "c0" hand.Depeq.c0 derived.Depeq.c0;
                    Alcotest.(check (list int))
                      "coefficients (sorted)"
                      (List.sort compare (Depeq.coeffs hand))
                      (List.sort compare (Depeq.coeffs derived));
                    (* Equisatisfiable. *)
                    Alcotest.(check bool) "same satisfiability" true
                      ((Exact.solve [ hand ] = Exact.Infeasible)
                      = (Exact.solve [ derived ] = Exact.Infeasible))
                | _ -> Alcotest.fail "expected one equation")
            | None -> Alcotest.fail "expected numeric problem")
        | _ -> Alcotest.fail "expected two accesses");
    Alcotest.test_case "fig5 equation matches the paper's constants" `Quick
      (fun () ->
        let eq = Fragments.fig5_equation () in
        Alcotest.(check int) "c0" (-110) eq.Depeq.c0;
        Alcotest.(check (list int)) "coeffs sorted"
          [ -100; -10; -1; 1; 10; 100 ]
          (List.sort compare (Depeq.coeffs eq)));
    Alcotest.test_case "all fragments parse and pipeline" `Quick (fun () ->
        List.iter
          (fun src -> ignore (prepare src))
          [
            Fragments.intro_serial; Fragments.intro_parallel;
            Fragments.eq1_program; Fragments.mhl_program;
            Fragments.fig3_program; Fragments.ib_program;
            Fragments.equivalence_2d; Fragments.equivalence_4d;
            Fragments.symbolic_program;
          ]);
  ]

let workload_units =
  [
    Alcotest.test_case "paper family shapes" `Quick (fun () ->
        let eq = Workload.paper_family ~depth:3 ~extent:10 ~shifted:true in
        Alcotest.(check int) "6 vars" 6 (Depeq.nvars eq);
        Alcotest.(check int) "c0" (-5) eq.Depeq.c0;
        Alcotest.(check (list int)) "strides"
          [ -100; -10; -1; 1; 10; 100 ]
          (List.sort compare (Depeq.coeffs eq)));
    Alcotest.test_case "family invalid arguments" `Quick (fun () ->
        (match Workload.paper_family ~depth:0 ~extent:10 ~shifted:false with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "depth 0");
        match Workload.paper_family ~depth:1 ~extent:7 ~shifted:false with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "odd extent");
    Alcotest.test_case "random generators are deterministic per seed" `Quick
      (fun () ->
        let mk () =
          let g = Prng.create 5L in
          ( Workload.random_linearized g ~depth:3,
            Ast.to_string (Progen.random g) )
        in
        let a1, p1 = mk () and a2, p2 = mk () in
        Alcotest.(check string) "same program" p1 p2;
        Alcotest.(check string) "same equation" (Depeq.to_string a1)
          (Depeq.to_string a2));
  ]

let workload_props =
  [
    QCheck.Test.make ~name:"random_linearized always delinearizes fully"
      ~count:200
      (QCheck.make QCheck.Gen.(int_range 0 100000))
      (fun seed ->
        let g = Prng.create (Int64.of_int seed) in
        let eq = Workload.random_linearized g ~depth:3 in
        (* Each level is its own piece: 3 pieces (or early independence). *)
        let r =
          Dlz_core.Algo.run ~n_common:3 ~common_ubs:[| 9; 9; 9 |] eq
        in
        r.Dlz_core.Algo.verdict = Verdict.Independent
        || List.length r.Dlz_core.Algo.pieces = 3);
    QCheck.Test.make ~name:"progen programs always interpret cleanly"
      ~count:200
      (QCheck.make QCheck.Gen.(int_range 0 100000))
      (fun seed ->
        let prog = Progen.random (Prng.create (Int64.of_int seed)) in
        match Dlz_passes.Interp.run prog with
        | _ -> true
        | exception Dlz_passes.Interp.Error _ -> false);
  ]

let dynamic_units =
  [
    Alcotest.test_case "dynamic deps deterministic" `Quick (fun () ->
        let prog = prepare Fragments.fig3_program in
        let d1 = Dynamic.dependences prog in
        let d2 = Dynamic.dependences prog in
        Alcotest.(check int) "same count" (List.length d1) (List.length d2));
    Alcotest.test_case "serial loop dependence is (<) flow" `Quick (fun () ->
        let prog = prepare Fragments.intro_serial in
        match Dynamic.dependences prog with
        | [ d ] ->
            Alcotest.(check string) "(<)" "(<)"
              (Dlz_deptest.Dirvec.to_string d.Dynamic.vec);
            Alcotest.(check bool) "flow" true
              (d.Dynamic.kind = Dlz_deptest.Classify.True)
        | l -> Alcotest.failf "expected 1 dependence, got %d" (List.length l));
  ]

let experiments_units =
  [
    Alcotest.test_case "all () yields eight reports" `Quick (fun () ->
        (* e2/e8 regenerate corpora and timings; just check ids of the
           cheap ones and the id list shape via run. *)
        List.iter
          (fun id ->
            Alcotest.(check bool) (id ^ " exists") true
              (Experiments.run id <> None))
          [ "e1"; "E1"; "e3"; "e4"; "e5"; "e6"; "e7" ]);
  ]

(* --- bulk: one analysis pass per kernel ---------------------------------- *)

module Bulk = Dlz_driver.Bulk
module Engine = Dlz_engine.Engine
module Stats = Dlz_engine.Stats
module Chaos = Dlz_engine.Chaos
module Analyze = Dlz_engine.Analyze
module Parallel = Dlz_vec.Parallel

(* [f dir] on a fresh directory, removed (with its files) afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "dlz_bulk_pass" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* These assertions count queries and compare against a fresh engine, so
   they run fault-free whatever DLZ_CHAOS says. *)
let fault_free f =
  let saved = Chaos.current () in
  Chaos.set_current None;
  Fun.protect ~finally:(fun () -> Chaos.set_current saved) f

let polybench_dir f =
  with_temp_dir (fun dir ->
      Dlz_corpus.Polybench.write_dir dir;
      f dir)

(* A seeded batch of generated FORTRAN kernels, one file each. *)
let progen_dir f =
  with_temp_dir (fun dir ->
      for seed = 1 to 40 do
        let prog = Progen.random (Prng.create (Int64.of_int seed)) in
        let oc =
          open_out_bin (Filename.concat dir (Printf.sprintf "g%02d.f" seed))
        in
        output_string oc (Ast.to_string prog);
        close_out oc
      done;
      f dir)

(* The standalone per-kernel analysis, on a fresh engine: deps count and
   parallel/serial loop counts. *)
let standalone dir rel =
  Engine.reset_metrics ();
  let path = Filename.concat dir rel in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let prog =
    Dlz_passes.Pipeline.prepare_program
      (if Filename.check_suffix rel ".c" then
         Dlz_passes.Pointers.lower (Dlz_frontend.C_parser.parse src)
       else
         Dlz_passes.Inline.expand (Dlz_frontend.F77_parser.parse_units src))
  in
  let loops = Parallel.report prog in
  let par = List.length (List.filter (fun l -> l.Parallel.lr_parallel) loops) in
  (List.length (Analyze.deps_of_program prog), par, List.length loops - par)

let check_bulk_matches_standalone dir =
  let frs = Bulk.reports dir in
  Alcotest.(check bool) "some pairs" true
    (List.exists (fun (fr : Bulk.file_report) -> fr.fr_pairs > 0) frs);
  List.iter
    (fun (fr : Bulk.file_report) ->
      Alcotest.(check (option string)) (fr.fr_file ^ " ok") None fr.fr_error;
      let deps, par, ser = standalone dir fr.fr_file in
      Alcotest.(check (triple int int int))
        (fr.fr_file ^ " deps, parallel, serial")
        (deps, par, ser)
        (fr.fr_deps, fr.fr_loops_parallel, fr.fr_loops_serial))
    frs

let bulk_pass_units =
  [
    Alcotest.test_case "polybench bulk makes one query per pair" `Quick
      (fun () ->
        fault_free (fun () ->
            polybench_dir (fun dir ->
                Engine.reset_metrics ();
                let frs = Bulk.reports dir in
                let pairs =
                  List.fold_left
                    (fun n (fr : Bulk.file_report) -> n + fr.fr_pairs)
                    0 frs
                in
                Alcotest.(check int) "pairs" 266 pairs;
                Alcotest.(check int) "queries = pairs" pairs
                  (Stats.queries Stats.global))));
    Alcotest.test_case "bulk agrees with standalone analysis (polybench)"
      `Quick (fun () ->
        fault_free (fun () -> polybench_dir check_bulk_matches_standalone));
    Alcotest.test_case "bulk agrees with standalone analysis (progen)" `Quick
      (fun () -> fault_free (fun () -> progen_dir check_bulk_matches_standalone));
  ]

let () =
  Alcotest.run "dlz_driver"
    [
      ("fragments", fragment_units);
      ("workload", workload_units);
      ("workload-props", List.map QCheck_alcotest.to_alcotest workload_props);
      ("dynamic", dynamic_units);
      ("experiments", experiments_units);
      ("bulk-pass", bulk_pass_units);
    ]
