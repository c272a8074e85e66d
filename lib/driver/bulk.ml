module Pool = Dlz_base.Pool
module Trace = Dlz_base.Trace
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Analyze = Dlz_engine.Analyze
module Stats = Dlz_engine.Stats
module Depgraph = Dlz_vec.Depgraph
module Parallel = Dlz_vec.Parallel

let rec walk acc root rel =
  let dir = if rel = "" then root else Filename.concat root rel in
  Array.fold_left
    (fun acc name ->
      let rel' = if rel = "" then name else rel ^ "/" ^ name in
      (* A dangling symlink (or an entry racing a delete) fails the
         stat; keep kernel-suffixed ones so the per-file open reports
         the io fault on its own ok:false line instead of the whole
         walk raising. *)
      let is_dir =
        try Sys.is_directory (Filename.concat root rel')
        with Sys_error _ -> false
      in
      if is_dir then walk acc root rel'
      else if
        Filename.check_suffix name ".f" || Filename.check_suffix name ".c"
      then rel' :: acc
      else acc)
    acc (Sys.readdir dir)

(* [readdir] order is unspecified; one sort at the end makes the file
   order (hence the report order) a function of the tree alone. *)
let kernels root = List.sort String.compare (walk [] root "")

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

let failed file error elapsed =
  {
    fr_file = file;
    fr_error = Some error;
    fr_statements = 0;
    fr_accesses = 0;
    fr_pairs = 0;
    fr_independent = 0;
    fr_dependent = 0;
    fr_inapplicable = 0;
    fr_deps = 0;
    fr_decided_by = [];
    fr_loops_parallel = 0;
    fr_loops_serial = 0;
    fr_elapsed_ns = elapsed;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let analyze_file ~mode ~cascade ~budget ~env root rel =
  let t0 = Trace.now_ns () in
  let finish r = { r with fr_elapsed_ns = Int64.sub (Trace.now_ns ()) t0 } in
  Trace.with_span ~cat:"bulk" ~args:[ ("file", rel) ] "bulk.file" @@ fun () ->
  try
    let src = read_file (Filename.concat root rel) in
    let prog =
      if Filename.check_suffix rel ".c" then
        Dlz_passes.Pointers.lower (Dlz_frontend.C_parser.parse src)
      else Dlz_passes.Inline.expand (Dlz_frontend.F77_parser.parse_units src)
    in
    let prog = Dlz_passes.Pipeline.prepare_program prog in
    let accs, env' = Access.of_program ~env prog in
    (* Serial on purpose: the pool parallelism is across files. *)
    let solved = Analyze.pass ~mode ?cascade ?budget ~env:env' accs in
    let t = Analyze.tally solved in
    let deps = Analyze.deps_of_solved solved in
    let loops = Parallel.of_graph prog (Depgraph.of_pairs accs solved) in
    let par = List.length (List.filter (fun l -> l.Parallel.lr_parallel) loops) in
    let stmts =
      List.length
        (List.sort_uniq String.compare
           (List.map (fun (a : Access.t) -> a.Access.stmt_name) accs))
    in
    finish
      {
        fr_file = rel;
        fr_error = None;
        fr_statements = stmts;
        fr_accesses = List.length accs;
        fr_pairs = List.length solved;
        fr_independent = t.Analyze.independent;
        fr_dependent = t.Analyze.dependent;
        fr_inapplicable = t.Analyze.inapplicable;
        fr_deps = List.length deps;
        fr_decided_by = t.Analyze.decided_by;
        fr_loops_parallel = par;
        fr_loops_serial = List.length loops - par;
        fr_elapsed_ns = 0L;
      }
  with
  | Dlz_frontend.Diag.Parse_error _ as e ->
      let msg =
        match Dlz_frontend.Diag.describe e with
        | Some m -> m
        | None -> "parse error"
      in
      finish (failed rel msg 0L)
  | Dlz_passes.Pointers.Unsupported m ->
      finish (failed rel ("pointer conversion: " ^ m) 0L)
  | Dlz_passes.Inline.Unsupported m ->
      finish (failed rel ("inlining: " ^ m) 0L)
  | Failure m -> finish (failed rel m 0L)
  | Sys_error m ->
      (* An unreadable file (permissions, vanished mid-walk) is a row,
         not a crash; the strerror text is host-stable, so the report
         stays byte-identical across [--jobs N]. *)
      finish (failed rel ("io: " ^ m) 0L)

(* {2 NDJSON} *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let file_line ~timings fr =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "{\"file\":\"%s\"" (json_escape fr.fr_file));
  (match fr.fr_error with
  | Some e ->
      Buffer.add_string b
        (Printf.sprintf ",\"ok\":false,\"error\":\"%s\"" (json_escape e))
  | None ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"ok\":true,\"statements\":%d,\"accesses\":%d,\"pairs\":%d,\
            \"verdicts\":{\"independent\":%d,\"dependent\":%d,\
            \"inapplicable\":%d},\"deps\":%d"
           fr.fr_statements fr.fr_accesses fr.fr_pairs fr.fr_independent
           fr.fr_dependent fr.fr_inapplicable fr.fr_deps);
      Buffer.add_string b ",\"decided_by\":{";
      List.iteri
        (fun i (name, n) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":%d" (json_escape name) n))
        fr.fr_decided_by;
      Buffer.add_string b
        (Printf.sprintf "},\"loops\":{\"parallel\":%d,\"serial\":%d}"
           fr.fr_loops_parallel fr.fr_loops_serial));
  if timings then
    Buffer.add_string b
      (Printf.sprintf ",\"elapsed_ns\":%Ld" fr.fr_elapsed_ns);
  Buffer.add_char b '}';
  Buffer.contents b

let summary_line ~timings ~dir ~elapsed_ns frs =
  let total f = List.fold_left (fun n fr -> n + f fr) 0 frs in
  let ok = List.length (List.filter (fun fr -> fr.fr_error = None) frs) in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"summary\":true,\"dir\":\"%s\",\"files\":%d,\"ok\":%d,\
        \"errors\":%d,\"pairs\":%d,\"verdicts\":{\"independent\":%d,\
        \"dependent\":%d,\"inapplicable\":%d},\"deps\":%d,\
        \"loops\":{\"parallel\":%d,\"serial\":%d}"
       (json_escape dir) (List.length frs) ok
       (List.length frs - ok)
       (total (fun f -> f.fr_pairs))
       (total (fun f -> f.fr_independent))
       (total (fun f -> f.fr_dependent))
       (total (fun f -> f.fr_inapplicable))
       (total (fun f -> f.fr_deps))
       (total (fun f -> f.fr_loops_parallel))
       (total (fun f -> f.fr_loops_serial)));
  if timings then begin
    let s = Stats.global in
    Buffer.add_string b
      (Printf.sprintf
         ",\"elapsed_ns\":%Ld,\"cache\":{\"queries\":%d,\"hits\":%d,\
          \"warm_hits\":%d,\"cold_hits\":%d,\"misses\":%d,\
          \"snapshot_loaded\":%d,\"snapshot_loads\":%d,\
          \"snapshot_rejects\":%d}"
         elapsed_ns (Stats.queries s) (Stats.cache_hits s) (Stats.warm_hits s)
         (Stats.cold_hits s) (Stats.cache_misses s) (Stats.snapshot_loaded s)
         (Stats.snapshot_loads s) (Stats.snapshot_rejects s))
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let reports ?(mode = Analyze.Delinearize) ?cascade ?budget ?pool ?env dir =
  let env = Option.value env ~default:Assume.empty in
  Trace.with_span ~cat:"bulk" ~args:[ ("dir", dir) ] "bulk.dir" @@ fun () ->
  let files = Array.of_list (kernels dir) in
  let worker rel = analyze_file ~mode ~cascade ~budget ~env dir rel in
  let reports =
    match pool with
    | Some p -> Pool.map p worker files
    | None -> Array.map worker files
  in
  Array.to_list reports

let run ?mode ?cascade ?budget ?pool ?env ?(timings = false) dir =
  let t0 = Trace.now_ns () in
  let reports = reports ?mode ?cascade ?budget ?pool ?env dir in
  let elapsed_ns = Int64.sub (Trace.now_ns ()) t0 in
  List.map (file_line ~timings) reports
  @ [ summary_line ~timings ~dir ~elapsed_ns reports ]
