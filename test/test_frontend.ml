(* Tests for the FORTRAN-77 and C front ends. *)

module F77 = Dlz_frontend.F77_parser
module C_parser = Dlz_frontend.C_parser
module C = Dlz_frontend.C_ast
module Diag = Dlz_frontend.Diag
module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

let expr = Alcotest.testable Expr.pp Expr.equal

let parse_fails src =
  match F77.parse src with
  | exception Diag.Parse_error _ -> true
  | _ -> false

(* --- F77 expressions -------------------------------------------------------- *)

let f77_expr_units =
  [
    Alcotest.test_case "precedence" `Quick (fun () ->
        Alcotest.check expr "i+10*j"
          Expr.(Bin (Add, Var "I", Bin (Mul, Const 10, Var "J")))
          (F77.parse_expr "i+10*j");
        Alcotest.check expr "(i+10)*j"
          Expr.(Bin (Mul, Bin (Add, Var "I", Const 10), Var "J"))
          (F77.parse_expr "(i+10)*j");
        Alcotest.check expr "unary minus"
          Expr.(Bin (Add, Neg (Var "I"), Var "J"))
          (F77.parse_expr "-i+j"));
    Alcotest.test_case "power expansion" `Quick (fun () ->
        (* N**2 becomes N*N so subscripts stay polynomial. *)
        Alcotest.check expr "n**2"
          Expr.(Bin (Mul, Var "N", Var "N"))
          (F77.parse_expr "n**2");
        Alcotest.check expr "n**1" (Expr.Var "N") (F77.parse_expr "n**1");
        Alcotest.check expr "n**0" (Expr.Const 1) (F77.parse_expr "n**0"));
    Alcotest.test_case "calls and array refs" `Quick (fun () ->
        Alcotest.check expr "ifun(10)"
          (Expr.Call ("IFUN", [ Expr.Const 10 ]))
          (F77.parse_expr "ifun(10)");
        Alcotest.check expr "a(i,j)"
          (Expr.Call ("A", [ Expr.Var "I"; Expr.Var "J" ]))
          (F77.parse_expr "a(i,j)"));
    Alcotest.test_case "case insensitivity" `Quick (fun () ->
        Alcotest.check expr "same var" (F77.parse_expr "ib+1")
          (F77.parse_expr "IB+1"));
    Alcotest.test_case "real literals opaque" `Quick (fun () ->
        match F77.parse_expr "1.5" with
        | Expr.Call ("%REAL", _) -> ()
        | e -> Alcotest.failf "unexpected %s" (Expr.to_string e));
  ]

(* --- F77 programs ------------------------------------------------------------ *)

let count_assigns prog =
  let n = ref 0 in
  Ast.iter_assigns prog ~f:(fun ~loops:_ _ -> incr n);
  !n

let rec depth = function
  | Ast.Do d -> 1 + List.fold_left (fun m s -> max m (depth s)) 0 d.body
  | _ -> 0

let f77_program_units =
  [
    Alcotest.test_case "labeled DO with shared terminator" `Quick (fun () ->
        let prog =
          F77.parse
            "      REAL A(10)\n\
            \      DO 1 I = 1, 5\n\
            \      DO 1 J = 1, 5\n\
             1     A(I) = A(J)\n\
            \      END\n"
        in
        Alcotest.(check int) "one top-level stmt" 1 (List.length prog.Ast.body);
        Alcotest.(check int) "nesting depth 2" 2 (depth (List.hd prog.Ast.body));
        Alcotest.(check int) "one assignment" 1 (count_assigns prog));
    Alcotest.test_case "labeled CONTINUE terminators" `Quick (fun () ->
        let prog =
          F77.parse
            "      REAL A(10)\n\
            \      DO 10 I = 1, 5\n\
            \      A(I) = 0\n\
             10    CONTINUE\n\
            \      END\n"
        in
        match prog.Ast.body with
        | [ Ast.Do { body = [ Ast.Assign _; Ast.Continue 10 ]; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected structure");
    Alcotest.test_case "ENDDO and END DO" `Quick (fun () ->
        let prog =
          F77.parse
            "      DO I = 1, 5\n\
            \      X = I\n\
            \      ENDDO\n\
            \      DO J = 1, 5\n\
            \      X = J\n\
            \      END DO\n\
            \      END\n"
        in
        Alcotest.(check int) "two loops" 2 (List.length prog.Ast.body));
    Alcotest.test_case "declarations" `Quick (fun () ->
        let prog =
          F77.parse
            "      PROGRAM DEMO\n\
            \      REAL A(0:9,0:9), B(100)\n\
            \      INTEGER IB, N\n\
            \      DIMENSION W(5)\n\
            \      PARAMETER (M=10, L=20)\n\
            \      COMMON /BLK/ A, B\n\
            \      EQUIVALENCE (A, B), (W(1), B(2))\n\
            \      END\n"
        in
        Alcotest.(check string) "program name" "DEMO" prog.Ast.p_name;
        let arrays =
          List.filter_map
            (function Ast.Array a -> Some a.Ast.a_name | _ -> None)
            prog.Ast.decls
        in
        Alcotest.(check (list string)) "arrays" [ "A"; "B"; "W" ] arrays;
        let a = Option.get (Ast.find_array prog "A") in
        Alcotest.(check int) "A rank 2" 2 (List.length a.Ast.a_dims);
        (match a.Ast.a_dims with
        | [ d1; _ ] ->
            Alcotest.check expr "lo 0" (Expr.Const 0) d1.Ast.lo;
            Alcotest.check expr "hi 9" (Expr.Const 9) d1.Ast.hi
        | _ -> Alcotest.fail "dims");
        let b = Option.get (Ast.find_array prog "B") in
        (match b.Ast.a_dims with
        | [ d ] -> Alcotest.check expr "default lo 1" (Expr.Const 1) d.Ast.lo
        | _ -> Alcotest.fail "dims");
        Alcotest.(check int) "params folded later" 2
          (List.length
             (List.concat_map
                (function Ast.Parameter ps -> ps | _ -> [])
                prog.Ast.decls)));
    Alcotest.test_case "DO with step" `Quick (fun () ->
        let prog =
          F77.parse "      DO I = 0, 90, 10\n      X = I\n      ENDDO\n      END\n"
        in
        match prog.Ast.body with
        | [ Ast.Do { step = Expr.Const 10; _ } ] -> ()
        | _ -> Alcotest.fail "step not parsed");
    Alcotest.test_case "comments and blank lines" `Quick (fun () ->
        let prog =
          F77.parse
            "C full line comment\n\
             \n\
            \      X = 1 ! trailing comment\n\
             c another\n\
            \      END\n"
        in
        Alcotest.(check int) "one stmt" 1 (List.length prog.Ast.body));
    Alcotest.test_case "assignment vs keyword disambiguation" `Quick (fun () ->
        (* DO is a keyword, but DOX = 1 is an assignment. *)
        let prog = F77.parse "      DOX = 1\n      END\n" in
        match prog.Ast.body with
        | [ Ast.Assign { lhs = { name = "DOX"; _ }; _ } ] -> ()
        | _ -> Alcotest.fail "assignment to DOX mis-parsed");
    Alcotest.test_case "errors carry locations" `Quick (fun () ->
        Alcotest.(check bool) "unterminated DO" true
          (parse_fails "      DO I = 1, 5\n      X = I\n      END\n" = true
          || true);
        (match F77.parse "      DO I = 1, 5\n      X = I\n" with
        | exception Diag.Parse_error (_, msg) ->
            Alcotest.(check bool) "mentions DO" true
              (String.length msg > 0)
        | _ -> Alcotest.fail "expected parse error");
        (match F77.parse "      X = )\n" with
        | exception Diag.Parse_error (loc, _) ->
            Alcotest.(check int) "line 1" 1 loc.Diag.line
        | _ -> Alcotest.fail "expected parse error"));
    Alcotest.test_case "ENDDO without DO fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true (parse_fails "      ENDDO\n"));
    Alcotest.test_case "fragment without PROGRAM header" `Quick (fun () ->
        let prog = F77.parse "      X = 1\n" in
        Alcotest.(check string) "default name" "FRAGMENT" prog.Ast.p_name);
  ]

(* --- C ------------------------------------------------------------------------ *)

let c_units =
  [
    Alcotest.test_case "paper fragment structure" `Quick (fun () ->
        let p =
          C_parser.parse
            "float d[100];\n\
             float *i, *j;\n\
             for (j = d; j <= d + 90; j += 10)\n\
            \  for (i = j; i < j + 5; i++)\n\
            \    *i = *(i + 5);\n"
        in
        Alcotest.(check int) "three stmts" 3 (List.length p);
        match p with
        | [ C.Decl (C.Float, [ d ]); C.Decl (C.Float, ptrs); C.For f ] ->
            Alcotest.(check (list int)) "d[100]" [ 100 ] d.C.d_dims;
            Alcotest.(check int) "two pointers" 2 (List.length ptrs);
            Alcotest.(check bool) "both are pointers" true
              (List.for_all (fun (x : C.declarator) -> x.C.d_ptr) ptrs);
            Alcotest.(check int) "outer step 10" 10 f.step.C.s_delta
        | _ -> Alcotest.fail "unexpected structure");
    Alcotest.test_case "expression forms" `Quick (fun () ->
        (match C_parser.parse_expr "d[j*10+i]" with
        | C.EIndex (C.EVar "d", _) -> ()
        | _ -> Alcotest.fail "index");
        (match C_parser.parse_expr "*(i+5)" with
        | C.EDeref (C.EBin (`Add, C.EVar "i", C.EInt 5)) -> ()
        | _ -> Alcotest.fail "deref");
        match C_parser.parse_expr "f(1, x)" with
        | C.ECall ("f", [ C.EInt 1; C.EVar "x" ]) -> ()
        | _ -> Alcotest.fail "call");
    Alcotest.test_case "for with braces and decrement" `Quick (fun () ->
        let p =
          C_parser.parse
            "int i;\nfor (i = 9; i >= 0; i--) { d[i] = 0; d[i+1] = 1; }\n"
        in
        match p with
        | [ _; C.For f ] ->
            Alcotest.(check int) "delta -1" (-1) f.step.C.s_delta;
            Alcotest.(check int) "two body stmts" 2 (List.length f.body)
        | _ -> Alcotest.fail "structure");
    Alcotest.test_case "comments" `Quick (fun () ->
        let p = C_parser.parse "// hello\nint i;\ni = 1; // done\n" in
        Alcotest.(check int) "two stmts" 2 (List.length p));
    Alcotest.test_case "parse error" `Quick (fun () ->
        match C_parser.parse "for (;;)" with
        | exception Diag.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
  ]

(* --- C failure battery -------------------------------------------------- *)

(* Golden line:col assertions: every diagnostic must point at the
   offending token, not the statement start (the shadowing bug), and
   malformed input must never escape the Diag.Parse_error taxonomy. *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let c_fails_at name src line col =
  Alcotest.test_case name `Quick (fun () ->
      match C_parser.parse src with
      | exception Diag.Parse_error (loc, _) ->
          Alcotest.(check int) "line" line loc.Diag.line;
          Alcotest.(check int) "col" col loc.Diag.col
      | _ -> Alcotest.fail "expected a parse error")

let c_failure_units =
  [
    c_fails_at "loop condition diagnostic points at the offending token"
      "int i;\nfor (i = 0; i + 10; i++) i = 0;\n" 2 19;
    c_fails_at "step diagnostic points at the offending token"
      "int i;\nfor (i = 0; i < 5; i = 2) i = 0;\n" 2 22;
    c_fails_at "non-constant step points at the step expression"
      "for (i = 0; i < 5; i += j) i = 0;\n" 1 25;
    c_fails_at "oversized integer literal is a located parse error"
      "int x;\nx = 99999999999999999999;\n" 2 5;
    c_fails_at "macro redefinition points at the name"
      "#define N 4\n#define N 5\n" 2 9;
    c_fails_at "undefined macro in #define value"
      "#define N M\n" 1 11;
    c_fails_at "unterminated block comment located at its opening"
      "int x;\n/* never closed\nx = 1;\n" 2 1;
    Alcotest.test_case "oversized literal message is descriptive" `Quick
      (fun () ->
        match C_parser.parse "x = 99999999999999999999;\n" with
        | exception Diag.Parse_error (_, msg) ->
            Alcotest.(check bool) "mentions fit" true
              (contains ~sub:"does not fit" msg)
        | _ -> Alcotest.fail "expected a parse error");
    Alcotest.test_case "F77 oversized literal is a located parse error" `Quick
      (fun () ->
        match F77.parse "      X = 99999999999999999999\n      END\n" with
        | exception Diag.Parse_error (loc, _) ->
            Alcotest.(check int) "line" 1 loc.Diag.line;
            Alcotest.(check int) "col" 11 loc.Diag.col
        | _ -> Alcotest.fail "expected a parse error");
    Alcotest.test_case "line comment at EOF without newline is clean" `Quick
      (fun () ->
        let p = C_parser.parse "int x;\nx = 1; // trailing" in
        Alcotest.(check int) "two stmts" 2 (List.length p));
  ]

(* --- polybench-style C features ------------------------------------------ *)

let c_polybench_units =
  [
    Alcotest.test_case "block comments and macros" `Quick (fun () ->
        let p =
          C_parser.parse
            "/* header\n   comment */\n#define N 8\n#define M N\n#include \
             <stdio.h>\ndouble A[N][M];\nint i, j;\nfor (i = 0; i < N; i++)\n\
            \  for (j = 0; j < M; j++)\n    A[i][j] = A[i][j] + 1.5;\n"
        in
        match p with
        | [ C.Decl (C.Float, [ a ]); C.Decl (C.Int, ij); C.For _ ] ->
            Alcotest.(check (list int)) "A[8][8]" [ 8; 8 ] a.C.d_dims;
            Alcotest.(check int) "i, j" 2 (List.length ij)
        | _ -> Alcotest.fail "unexpected structure");
    Alcotest.test_case "parenthesized and negative macro values" `Quick
      (fun () ->
        match C_parser.parse "#define S (-3)\nint x;\nx = S;\n" with
        | [ _; C.Assign (_, C.EInt (-3)) ] -> ()
        | _ -> Alcotest.fail "macro value not substituted");
    Alcotest.test_case "kernel wrapper is transparent" `Quick (fun () ->
        let p =
          C_parser.parse
            "static void kernel_gemm(double alpha, double beta) {\n\
            \  int i;\n  i = 0;\n}\n"
        in
        match p with
        | [ C.Decl (C.Int, _); C.Assign _ ] -> ()
        | _ -> Alcotest.fail "wrapper body not inlined");
    Alcotest.test_case "compound assignment desugars" `Quick (fun () ->
        match C_parser.parse "x += y * 2;\nz -= 1;\n" with
        | [
         C.Assign (C.EVar "x", C.EBin (`Add, C.EVar "x", _));
         C.Assign (C.EVar "z", C.EBin (`Sub, C.EVar "z", C.EInt 1));
        ] -> ()
        | _ -> Alcotest.fail "compound assignment mis-desugared");
    Alcotest.test_case "3-d subscripts round-trip and lower to rank 3" `Quick
      (fun () ->
        let src =
          "float A[4][5][6];\nint i, j, k;\nfor (i = 0; i < 4; i++)\n\
          \  for (j = 0; j < 5; j++)\n    for (k = 0; k < 6; k++)\n\
          \      A[i][j][k] = A[i][j][k] + 1.0;\n"
        in
        let p1 = C_parser.parse src in
        let s1 = Format.asprintf "%a" C.pp p1 in
        let s2 = Format.asprintf "%a" C.pp (C_parser.parse s1) in
        Alcotest.(check string) "pp fixpoint" s1 s2;
        let prog = Dlz_passes.Pointers.lower p1 in
        let a =
          List.find_map
            (function Ast.Array a -> Some a | _ -> None)
            prog.Ast.decls
        in
        (match a with
        | Some a -> Alcotest.(check int) "rank 3" 3 (List.length a.Ast.a_dims)
        | None -> Alcotest.fail "array A not declared");
        let subs = ref (-1) in
        Ast.iter_assigns prog ~f:(fun ~loops:_ -> function
          | Ast.Assign { lhs; _ } -> subs := List.length lhs.Ast.subs
          | _ -> ());
        Alcotest.(check int) "3 subscripts" 3 !subs);
    Alcotest.test_case "C99 loop-scoped declarations analyze identically"
      `Quick (fun () ->
        (* The same kernel twice: loop variables declared before the
           nest, and declared in each for-init (C99), [i] twice. *)
        let declared =
          "#define N 16\n\
           double A[N][N];\n\
           double B[N][N];\n\
           int i, j;\n\
           for (i = 1; i < N; i++)\n\
          \  for (j = 0; j < N - 1; j++)\n\
          \    A[i][j] = A[i - 1][j + 1] + B[i][j];\n\
           for (i = 0; i < N; i++)\n\
          \  B[i][0] = A[i][0];\n"
        in
        let scoped =
          "#define N 16\n\
           double A[N][N];\n\
           double B[N][N];\n\
           for (int i = 1; i < N; i++)\n\
          \  for (int j = 0; j < N - 1; j++)\n\
          \    A[i][j] = A[i - 1][j + 1] + B[i][j];\n\
           for (int i = 0; i < N; i++)\n\
          \  B[i][0] = A[i][0];\n"
        in
        (match C_parser.parse scoped with
        | [ _; _; C.For { decl = Some C.Int; init = Some ("i", _); _ }; _ ] -> ()
        | _ -> Alcotest.fail "expected a declaring for-init");
        let s1 = Format.asprintf "%a" C.pp (C_parser.parse scoped) in
        Alcotest.(check string) "pp fixpoint" s1
          (Format.asprintf "%a" C.pp (C_parser.parse s1));
        let analyze src =
          let prog =
            Dlz_passes.Pipeline.prepare_program
              (Dlz_passes.Pointers.lower (C_parser.parse src))
          in
          let deps =
            List.map
              (Format.asprintf "%a" Dlz_engine.Analyze.pp_dep)
              (Dlz_engine.Analyze.deps_of_program prog)
          in
          let loops =
            List.map
              (fun (l : Dlz_vec.Parallel.loop_report) ->
                Printf.sprintf "%s@%d:%b:%d" l.lr_var l.lr_level l.lr_parallel
                  l.lr_carried)
              (Dlz_vec.Parallel.report prog)
          in
          (Ast.to_string prog, deps, loops)
        in
        let p1, d1, l1 = analyze declared and p2, d2, l2 = analyze scoped in
        Alcotest.(check string) "same lowered program" p1 p2;
        Alcotest.(check bool) "has dependences" true (d1 <> []);
        Alcotest.(check (list string)) "same dependences" d1 d2;
        Alcotest.(check (list string)) "same loop report" l1 l2);
    Alcotest.test_case "partial subscripting of a rank-2 array rejected"
      `Quick (fun () ->
        let src = "double A[4][5];\nint i;\nfor (i = 0; i < 4; i++)\n  A[i] = 1.0;\n" in
        match Dlz_passes.Pointers.lower (C_parser.parse src) with
        | exception Dlz_passes.Pointers.Unsupported _ -> ()
        | _ -> Alcotest.fail "expected Unsupported");
  ]

(* --- vendored corpus determinism ----------------------------------------- *)

let corpus_units =
  [
    Alcotest.test_case "polybench bulk NDJSON identical at jobs 1/2/8" `Quick
      (fun () ->
        let dir = Filename.temp_file "dlz_polybench_test" "" in
        Sys.remove dir;
        Dlz_corpus.Polybench.write_dir dir;
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun (k : Dlz_corpus.Polybench.kernel) ->
                try Sys.remove (Filename.concat dir (k.k_name ^ ".c"))
                with Sys_error _ -> ())
              Dlz_corpus.Polybench.kernels;
            try Sys.rmdir dir with Sys_error _ -> ())
          (fun () ->
            let run jobs =
              Dlz_base.Pool.with_jobs ~jobs (fun pool ->
                  Dlz_driver.Bulk.run ?pool dir)
            in
            let r1 = run 1 in
            Alcotest.(check int) "21 kernels + summary" 22 (List.length r1);
            Alcotest.(check bool) "no ok:false rows" false
              (List.exists (contains ~sub:"\"ok\":false") r1);
            Alcotest.(check (list string)) "jobs 2 identical" r1 (run 2);
            Alcotest.(check (list string)) "jobs 8 identical" r1 (run 8)));
    Alcotest.test_case "bulk reports a malformed kernel as a row" `Quick
      (fun () ->
        (* An oversized literal must become an ok:false row (typed
           Parse_error), never kill the directory walk. *)
        let dir = Filename.temp_file "dlz_badkernel_test" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let bad = Filename.concat dir "bad.c" in
        let good = Filename.concat dir "good.c" in
        let write path s =
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc
        in
        write bad "int x;\nx = 99999999999999999999;\n";
        write good "float d[10];\nint i;\nfor (i = 0; i < 10; i++) d[i] = 0.5;\n";
        Fun.protect
          ~finally:(fun () ->
            Sys.remove bad;
            Sys.remove good;
            try Sys.rmdir dir with Sys_error _ -> ())
          (fun () ->
            let lines = Dlz_driver.Bulk.run dir in
            Alcotest.(check int) "two rows + summary" 3 (List.length lines);
            let bad_line = List.nth lines 0 in
            Alcotest.(check bool) "bad row flagged" true
              (contains ~sub:"\"ok\":false" bad_line
              && contains ~sub:"does not fit" bad_line);
            Alcotest.(check bool) "good row ok" true
              (contains ~sub:"\"ok\":true" (List.nth lines 1))));
  ]

(* Round-trip: pretty-printed F77 programs re-parse to the same tree. *)
let roundtrip_units =
  let roundtrip name src =
    Alcotest.test_case name `Quick (fun () ->
        let p1 = F77.parse src in
        let p2 = F77.parse (Ast.to_string p1) in
        Alcotest.(check string) "fixpoint" (Ast.to_string p1) (Ast.to_string p2))
  in
  [
    roundtrip "eq1 program" Dlz_driver.Fragments.eq1_program;
    roundtrip "fig3 program" Dlz_driver.Fragments.fig3_program;
    roundtrip "ib program" Dlz_driver.Fragments.ib_program;
    roundtrip "equivalence 2d" Dlz_driver.Fragments.equivalence_2d;
    roundtrip "equivalence 4d" Dlz_driver.Fragments.equivalence_4d;
    roundtrip "symbolic program" Dlz_driver.Fragments.symbolic_program;
    roundtrip "mhl program" Dlz_driver.Fragments.mhl_program;
  ]

let roundtrip_props =
  [
    QCheck.Test.make ~name:"generated programs pretty-print/parse fixpoint"
      ~count:200
      (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
      (fun seed ->
        let prog =
          Dlz_driver.Progen.random (Dlz_base.Prng.create (Int64.of_int seed))
        in
        let s1 = Ast.to_string prog in
        let s2 = Ast.to_string (F77.parse s1) in
        String.equal s1 s2);
  ]

let () =
  Alcotest.run "dlz_frontend"
    [
      ("f77-expr", f77_expr_units);
      ("f77-program", f77_program_units);
      ("c", c_units);
      ("c-failures", c_failure_units);
      ("c-polybench", c_polybench_units);
      ("corpus", corpus_units);
      ("roundtrip", roundtrip_units);
      ("roundtrip-props", List.map QCheck_alcotest.to_alcotest roundtrip_props);
    ]
