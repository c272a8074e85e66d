(* CLI contract battery for the vic binary (passed as argv.(1); the
   polybench corpus directory is argv.(2)).

   For every subcommand:
   - [--help=plain] exits 0 and renders a NAME section;
   - an unknown flag exits non-zero with a usage message;
   - the file-taking subcommands report a malformed input as a located
     parse error and exit 1.
   The non-file subcommands fail on bad input with exit 1 and a message:
   a malformed [fuzz --replay] file, [stats --connect] to a missing
   socket or a bad port, [serve --listen] on a bad port or in a missing
   directory.  The removed per-kernel parallelism flags ([graph --chunk],
   [experiments --jobs]) are usage errors, and [analyze --dir] prints
   the same report at [--jobs 2] as at [--jobs 1].
   Plus: [vic trace] numbers the dimensions of each pair from 1.
   No invocation may print an uncaught-exception backtrace. *)

let subcommands =
  [
    "analyze"; "vectorize"; "delinearize"; "trace"; "graph"; "experiments";
    "corpus"; "fuzz"; "serve"; "stats";
  ]

let file_subcommands = [ "analyze"; "vectorize"; "delinearize"; "trace"; "graph" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let count ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("cli-contract: " ^ m))
    fmt

(* Runs [vic args], returning (exit code, stdout, stderr).  With
   [timeout], under timeout(1): a hang exits 124 instead of blocking. *)
let run ?timeout vic args =
  let out = Filename.temp_file "vic_cli" ".out"
  and err = Filename.temp_file "vic_cli" ".err" in
  let prog, args =
    match timeout with
    | None -> (vic, args)
    | Some secs -> ("timeout", string_of_int secs :: vic :: args)
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove err)
    (fun () ->
      let code =
        Sys.command (Filename.quote_command prog args ~stdout:out ~stderr:err)
      in
      let o = read_file out and e = read_file err in
      let shown = String.concat " " ("vic" :: args) in
      if contains ~sub:"Fatal error: exception" (o ^ e) then
        fail "%s: uncaught exception:\n%s%s" shown o e;
      (code, o, e))

let write_temp suffix contents =
  let path = Filename.temp_file "vic_cli" suffix in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

(* A rank-2 kernel with five candidate pairs: each pair's trace must
   show (dimension 1) and (dimension 2) once, never a count running on
   across pairs. *)
let rank2_kernel =
  "      DIMENSION A(10,10), B(10,10)\n\
  \      DO I = 1, 9\n\
  \        DO J = 1, 9\n\
  \          A(I,J) = A(I-1,J) + B(I,J+1)\n\
  \          B(I,J) = A(I,J)\n\
  \        ENDDO\n\
  \      ENDDO\n"

let check_trace_numbering vic =
  let src = write_temp ".f" rank2_kernel in
  Fun.protect
    ~finally:(fun () -> Sys.remove src)
    (fun () ->
      let code, out, _ = run vic [ "trace"; src ] in
      let pairs = count ~sub:"(dimension 1)" out in
      if code <> 0 then fail "vic trace <rank-2 kernel>: exit %d" code;
      if pairs < 2 then
        fail "vic trace <rank-2 kernel>: %d pairs shown, expected >= 2" pairs;
      if count ~sub:"(dimension 2)" out <> pairs then
        fail "vic trace <rank-2 kernel>: (dimension 2) not once per pair";
      if count ~sub:"===" out <> 2 * pairs then
        fail "vic trace <rank-2 kernel>: a dimension numbered past 2")

(* [vic args] must fail cleanly: exit 1 with a message on stderr. *)
let expect_error ?timeout ?(mentions = "") vic args =
  let shown = String.concat " " ("vic" :: args) in
  let code, _, err = run ?timeout vic args in
  if code <> 1 then fail "%s: exit %d, expected 1" shown code;
  if String.trim err = "" then fail "%s: no error message" shown;
  if not (contains ~sub:mentions err) then
    fail "%s: message does not mention %S: %s" shown mentions err

let check_non_file_inputs vic =
  let sexp = write_temp ".sexp" "((eq (1 2\n" in
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "vic-cli-none"
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove sexp)
    (fun () ->
      expect_error vic [ "fuzz"; "--replay"; sexp ]
        ~mentions:("--replay " ^ sexp ^ ":"));
  expect_error vic [ "stats"; "--connect"; "unix:" ^ missing ^ ".sock" ];
  expect_error vic [ "stats"; "--connect"; "tcp:127.0.0.1:99999" ]
    ~mentions:"port";
  expect_error ~timeout:10 vic [ "serve"; "--listen"; "tcp:127.0.0.1:99999" ]
    ~mentions:"port";
  expect_error ~timeout:10 vic
    [ "serve"; "--listen"; "unix:" ^ Filename.concat missing "vic.sock" ]

let check_removed_flags vic src =
  List.iter
    (fun args ->
      let shown = String.concat " " ("vic" :: args) in
      let code, _, err = run vic args in
      if code <> 124 then fail "%s: exit %d, expected 124" shown code;
      if not (contains ~sub:"Usage:" err) then
        fail "%s: no usage message" shown)
    [ [ "graph"; "--chunk"; "2"; src ]; [ "experiments"; "--jobs"; "2" ] ]

let check_dir_jobs vic dir =
  let report jobs =
    let code, out, _ = run vic [ "analyze"; "--dir"; dir; "--jobs"; jobs ] in
    if code <> 0 then
      fail "vic analyze --dir %s --jobs %s: exit %d" dir jobs code;
    out
  in
  let serial = report "1" in
  if count ~sub:"\n" serial < 2 then
    fail "vic analyze --dir %s: empty report" dir;
  if report "2" <> serial then
    fail "vic analyze --dir %s: --jobs 2 report differs from --jobs 1" dir

let () =
  let absolute p =
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  let vic = absolute Sys.argv.(1) in
  let bad = write_temp ".c" "x = ;\n" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      List.iter
        (fun args ->
          let shown = String.concat " " ("vic" :: args) in
          let code, out, _ = run vic args in
          if code <> 0 then fail "%s: exit %d, expected 0" shown code;
          if not (contains ~sub:"NAME" out) then
            fail "%s: no NAME section in the help text" shown)
        ([ "--help=plain" ]
        :: List.map (fun c -> [ c; "--help=plain" ]) subcommands);
      List.iter
        (fun c ->
          let code, _, err = run vic [ c; "--no-such-flag" ] in
          if code = 0 then fail "vic %s --no-such-flag: exit 0" c;
          if not (contains ~sub:"Usage:" err) then
            fail "vic %s --no-such-flag: no usage message" c)
        subcommands;
      List.iter
        (fun c ->
          let code, _, err = run vic [ c; bad ] in
          if code <> 1 then fail "vic %s <malformed>: exit %d, expected 1" c code;
          if not (contains ~sub:"line 1, column" err) then
            fail "vic %s <malformed>: error is not located: %s" c err)
        file_subcommands;
      check_removed_flags vic bad);
  check_non_file_inputs vic;
  check_dir_jobs vic (absolute Sys.argv.(2));
  check_trace_numbering vic;
  if !failures > 0 then exit 1;
  Printf.printf "cli-contract: OK (%d subcommands)\n" (List.length subcommands)
