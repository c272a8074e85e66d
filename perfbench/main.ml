(* The vic benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds on inputs drawn from seed N, checks
   every op's output, and prints a provenance line and then, as the
   last line, one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.

   --trace 0 measures the end-to-end metrics with no spans recorded.
   --trace 1 measures half the time untraced and half with bench-side
   spans around the calls into each layer, then replays the workload's
   inputs through the layers, and prints the per-layer metrics; the
   spans are written to .bench_build/spans/.  The exit code is 1 when
   any output check failed, 2 on bad arguments.  Run from the root of
   the source tree (the polybench corpus is read from there). *)

let workloads = [ "polybench-cold"; "polybench-warm"; "eqgen-engine"; "serve-mix" ]

(* Every per-layer metric, in output order, with its unit.  A layer the
   workload's ops never reach reads 0. *)
let per_layer =
  let timed name = [ (name ^ "_ns", "ns"); (name ^ "_words", "words") ] in
  List.concat_map timed
    [
      "frontend.parse"; "passes.lower"; "passes.prepare"; "ir.access";
      "engine.query_all"; "engine.deps"; "vectorizer.report";
      "vectorizer.depgraph"; "engine.miss"; "core.algo_run"; "core.algo_test";
      "engine.hit"; "engine.key"; "symbolic.symalgo_run"; "persist.load";
      "serve.frame_read"; "serve.frame_write"; "serve.json_parse";
      "serve.decode"; "serve.encode";
    ]
  @ [
      ("engine.queries_per_pair", "ratio");
      ("engine.miss_over_algo_test", "ratio");
      ("engine.hit_ratio", "ratio");
      ("engine.flushes_per_pass", "count");
      ("engine.uncacheable_ratio", "ratio");
      ("persist.snapshot_bytes", "bytes");
      ("serve.server_p50_us", "us");
      ("serve.server_p99_us", "us");
      ("serve.outside_server_p99_us", "us");
      ("serve.frames_per_analyze", "count");
      ("serve.analyze_p99_us", "us");
      ("serve.query_p50_us", "us");
      ("ledger.unaccounted_share", "ratio");
      ("trace.overhead", "ratio");
    ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n  workloads: "
    ^ String.concat ", " workloads);
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        if !seed = None then usage ();
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := int_of_string v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  match !seed with None -> usage () | Some s -> (!workload, s, !seconds, !trace = 1)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (number v) unit)
          metrics))

(* Prepares the workload, measures it, prints the provenance and result
   lines; [true] when every check passed. *)
let measure ~workload ~seed ~seconds ~traced ~workdir =
  let wl =
    match workload with
    | "polybench-cold" -> Polybench_wl.prepare ~warm:false ~seed ~workdir
    | "polybench-warm" -> Polybench_wl.prepare ~warm:true ~seed ~workdir
    | "eqgen-engine" -> Eqgen_wl.prepare ~seed
    | _ -> Serve_wl.prepare ~seed
  in
  (* Collect the set-up garbage now, so the windows do not pay for
     marking and sweeping the input batches. *)
  Gc.compact ();
  let windows, layers =
    if not traced then ([ wl.run ~seconds None ], [])
    else begin
      let base = wl.run ~seconds:(seconds /. 2.) None in
      let l = Ledger.create () in
      let tw = wl.run ~seconds:(seconds /. 2.) (Some l) in
      let derived = wl.layers l in
      let agg = Ledger.aggregate l in
      let spans =
        List.concat_map
          (fun (name, unit) ->
            if unit = "ns" then
              Ledger.layer_metrics agg (String.sub name 0 (String.length name - 3))
            else [])
          per_layer
      in
      let dir = ".bench_build/spans" in
      mkdir_p dir;
      Ledger.write l (Printf.sprintf "%s/%s-seed%d.ndjson" dir workload seed);
      ( [ base; tw ],
        (("trace.overhead", (base.ops_per_s /. tw.ops_per_s) -. 1.) :: derived) @ spans )
    end
  in
  wl.close ();
  let attempted = List.fold_left (fun n (w : Wl.window) -> n + w.ops) 0 windows in
  let failed = List.fold_left (fun n (w : Wl.window) -> n + w.failed) 0 windows in
  (* End-to-end numbers come from the untraced window only. *)
  let w = List.hd windows in
  let setup = wl.setup () in
  Printf.printf
    "{\"provenance\":{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%s,\"trace\":%b,\
     \"host_cores\":%d,\"ocaml\":\"%s\",\"ops_attempted\":%d,\"samples\":{%s},\
     \"setup_repetitions\":%d,\"setup_failures\":%d%s}}\n"
    workload seed (number seconds) traced
    (Domain.recommended_domain_count ())
    Sys.ocaml_version w.ops
    (String.concat "," (List.map (fun (k, n) -> Printf.sprintf "\"%s\":%d" k n) w.samples))
    (Sample.length setup) wl.setup_failures
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ",\"%s\":%s" k v) (wl.info ())));
  let metrics =
    if traced then
      List.map
        (fun (name, unit) -> (name, unit, Option.value (List.assoc_opt name layers) ~default:0.))
        per_layer
    else
      let heap_words = (Gc.quick_stat ()).top_heap_words in
      [
        ("ops_per_s", "1/s", w.ops_per_s);
        ("op_p50_us", "us", w.p50_ns /. 1e3);
        ("op_p99_us", "us", w.p99_ns /. 1e3);
        ("ok_ratio", "ratio", float_of_int (w.ops - w.failed) /. float_of_int (max 1 w.ops));
        ("minor_words_per_op", "words", w.words /. float_of_int (max 1 w.ops));
        ("peak_heap_mb", "MB", float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6);
        ("setup_s", "s", Sample.median setup /. 1e9);
      ]
  in
  let correct = failed = 0 && wl.setup_failures = 0 in
  print_result ~correct ~attempted ~failed metrics;
  correct

let () =
  let workload, seed, seconds, traced = args () in
  if not (Sys.file_exists Polybench_wl.corpus_dir) then begin
    prerr_endline "perfbench: corpus/polybench not found; run from the source tree root";
    exit 2
  end;
  (* Measure the fault-free, untraced program whatever the environment
     asks for. *)
  Dlz_engine.Chaos.set_current None;
  Dlz_base.Trace.set_level Dlz_base.Trace.Off;
  let workdir = Printf.sprintf ".bench_build/work/%s-%d" workload (Unix.getpid ()) in
  mkdir_p workdir;
  let correct =
    Fun.protect ~finally:(fun () -> remove_tree workdir) (fun () ->
        measure ~workload ~seed ~seconds ~traced ~workdir)
  in
  if not correct then exit 1
