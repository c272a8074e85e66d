(* polybench-cold and polybench-warm: serial [Bulk.reports] over the 21
   vendored polybench kernels, one kernel per op, in a seeded order kept
   for the whole run.

   Cold clears the engine ([Engine.reset_metrics]) before every pass:
   what a first [vic analyze --dir] pays.  Warm loads a snapshot of a
   warmed cache at set-up and never clears it: the [--cache-load]
   steady state, with no solver misses.

   Each kernel is copied into a directory of its own, so one
   [Bulk.reports] call analyzes exactly one kernel and can be timed
   alone. *)

module Bulk = Dlz_driver.Bulk
module Engine = Dlz_engine.Engine
module Stats = Dlz_engine.Stats
module Query = Dlz_engine.Query
module Persist = Dlz_engine.Persist
module Jsonx = Dlz_serve.Jsonx
module Prng = Dlz_base.Prng

let corpus_dir = "corpus/polybench"

(* GOLDEN.ndjson is written by the corpus gate (test/corpus_ci) at two
   jobs with fault injection on (DLZ_CHAOS=7:0.1).  Under the delinearize
   cascade an injected fault can only turn a verdict's [decided_by] from
   "delinearize" into "conservative"; which pairs are struck depends on
   the schedule, so that run is not reproducible here.  The check folds
   those "conservative" counts back into "delinearize" and then requires
   a fault-free [Bulk.run] to match every golden row exactly, ignoring
   the summary row's [dir]. *)
let normalize line =
  let fold = function
    | Jsonx.Obj by -> (
        match List.assoc_opt "conservative" by with
        | Some (Jsonx.Int c) ->
            let d =
              match List.assoc_opt "delinearize" by with Some (Jsonx.Int d) -> d | _ -> 0
            in
            Jsonx.Obj
              (List.filter (fun (k, _) -> k <> "conservative" && k <> "delinearize") by
              @ [ ("delinearize", Jsonx.Int (c + d)) ]
              |> List.sort compare)
        | _ -> Jsonx.Obj by)
    | j -> j
  in
  match Jsonx.parse line with
  | Ok (Jsonx.Obj fields) ->
      Jsonx.to_string
        (Jsonx.Obj
           (List.filter_map
              (fun (k, v) ->
                if k = "dir" then None
                else if k = "decided_by" then Some (k, fold v)
                else Some (k, v))
              fields))
  | _ -> line

(* A full fault-free [Bulk.run] against the golden rows: how many golden
   rows it misses, and which kernel files it reports as golden. *)
let golden_check () =
  Engine.reset_metrics ();
  let got = List.map normalize (Bulk.run corpus_dir) in
  let want = List.map normalize (Wl.read_lines (Filename.concat corpus_dir "GOLDEN.ndjson")) in
  let file line =
    match Jsonx.parse line with
    | Ok j -> Option.bind (Jsonx.member "file" j) Jsonx.to_str
    | Error _ -> None
  in
  let misses = List.length (List.filter (fun l -> not (List.mem l got)) want) in
  let golden = List.filter_map (fun l -> if List.mem l want then file l else None) got in
  (misses, fun f -> List.mem f golden)

type kernel = {
  dir : string;  (* a directory holding only this kernel *)
  src : string;
  expect : Bulk.file_report;  (* its row of a full run *)
  golden : bool;  (* that row is the golden one *)
}

let unstamped fr = { fr with Bulk.fr_elapsed_ns = 0L }

let kernels ~workdir ~golden =
  Engine.reset_metrics ();
  Bulk.reports corpus_dir
  |> List.mapi (fun i (fr : Bulk.file_report) ->
         let dir = Filename.concat workdir (Printf.sprintf "k%02d" i) in
         Sys.mkdir dir 0o755;
         let src = Wl.read_file (Filename.concat corpus_dir fr.fr_file) in
         Wl.write_file (Filename.concat dir fr.fr_file) src;
         { dir; src; expect = unstamped fr; golden = golden fr.fr_file })
  |> Array.of_list

let prepare ~warm ~seed ~workdir =
  let bad_golden, golden = golden_check () in
  let ks = kernels ~workdir ~golden in
  let snap = Filename.concat workdir "warm.snap" in
  let load_words = ref 0. in
  (* Set-up: warm loads the snapshot (several times, the last load
     stays); cold resets the engine before every pass, and each of
     those resets is a set-up sample. *)
  let setup = Sample.create () in
  if warm then begin
    Engine.reset_metrics ();
    ignore (Bulk.reports corpus_dir);
    (match Persist.save snap with
    | Ok _ -> ()
    | Error m -> failwith ("snapshot save: " ^ m));
    for _ = 1 to 15 do
      Engine.reset_metrics ();
      let w0 = Gc.minor_words () in
      let t0 = Wl.now () in
      (match Persist.load snap with
      | Ok _ -> ()
      | Error m -> failwith ("snapshot load: " ^ m));
      Sample.add setup (Wl.now () - t0);
      load_words := Gc.minor_words () -. w0
    done
  end;
  (* The traced replay's first query pass runs on this cache, kept in
     the same state as the global cache the real ops see. *)
  let replay_cache = Query.create_cache () in
  if warm then ignore (Persist.load ~stats:(Stats.create ()) ~cache:replay_cache snap);
  (* One seeded order for the whole run, so every pass repeats the same
     work in the same cache state and [Wl.best_of_passes] applies. *)
  let order = Array.init (Array.length ks) Fun.id in
  Prng.shuffle (Prng.create (Int64.of_int seed)) order;
  let c = Wl.counts () and pairs = ref 0 in
  let op_id = ref 0 in
  let run ~seconds ledger =
    let best = Array.make (Array.length order) max_int in
    let ops = ref 0 and failed = ref 0 in
    let replay_words = ref 0. in
    let check k r =
      match r with [ fr ] when k.golden && unstamped fr = k.expect -> () | _ -> incr failed
    in
    let analyze pos k =
      let a = Wl.now () in
      match Bulk.reports k.dir with
      | r ->
          let dt = Wl.now () - a in
          if dt < best.(pos) then best.(pos) <- dt;
          check k r
      | exception _ -> incr failed
    in
    let traced l pos k =
      let op = !op_id in
      let s = Stats.global in
      let q0 = Stats.queries s and h0 = Stats.cache_hits s
      and u0 = Stats.cache_uncacheable s in
      Ledger.span l ~op "driver.bulk_kernel" (fun () -> analyze pos k);
      c.queries <- c.queries + Stats.queries s - q0;
      c.hits <- c.hits + Stats.cache_hits s - h0;
      c.uncacheable <- c.uncacheable + Stats.cache_uncacheable s - u0;
      pairs := !pairs + k.expect.fr_pairs;
      let bw = Gc.minor_words () in
      ignore (Ledger.span l ~op "ledger.replay" (fun () -> Probe.kernel l ~op ~cache:replay_cache k.src));
      replay_words := !replay_words +. (Gc.minor_words () -. bw)
    in
    let flushes = ref 0 in
    let w0 = Gc.minor_words () in
    let passes =
      Wl.until ~seconds (fun () ->
          if not warm then begin
            let t0 = Wl.now () in
            Engine.reset_metrics ();
            Sample.add setup (Wl.now () - t0);
            Query.clear replay_cache
          end;
          let f0 = Stats.cache_flushes Stats.global in
          Array.iteri
            (fun pos i ->
              incr ops;
              incr op_id;
              match ledger with
              | None -> analyze pos ks.(i)
              | Some l -> traced l pos ks.(i))
            order;
          flushes := !flushes + Stats.cache_flushes Stats.global - f0)
    in
    if ledger <> None then begin
      c.passes <- c.passes + passes;
      c.flushes <- c.flushes + !flushes
    end;
    Wl.best_of_passes ~ops:!ops ~failed:!failed ~passes best
      ~words:(Gc.minor_words () -. w0 -. !replay_words)
  in
  let layers l =
    (* Every candidate pair of every kernel through the engine-level
       probes, in rounds, after the window. *)
    let problems =
      Array.to_list ks
      |> List.concat_map (fun k ->
             let prog =
               Dlz_passes.Pipeline.prepare_program
                 (Dlz_passes.Pointers.lower (Dlz_frontend.C_parser.parse k.src))
             in
             let accs, env = Dlz_ir.Access.of_program prog in
             List.map (fun (p : Engine.pair) -> (env, p.problem)) (Engine.pairs accs))
      |> Array.of_list
    in
    let pe = Probe.private_engine () in
    let stop = Wl.now () + 300_000_000 in
    let round = ref 0 in
    while !round < 3 || Wl.now () < stop do
      Array.iteri (fun i (env, p) -> Probe.problem l ~op:(-1 - i) pe ~env p) problems;
      incr round
    done;
    let agg = Ledger.aggregate l in
    let covered =
      List.fold_left (fun s n -> s +. Ledger.total_ns agg n) 0. Probe.kernel_layers
    in
    Wl.engine_ratios c
    @ [
      ("engine.queries_per_pair", Wl.ratio c.queries !pairs);
      ("engine.miss_over_algo_test", Ledger.paired_ratio l ~num:"engine.miss" ~den:"core.algo_test");
      ("ledger.unaccounted_share", 1. -. (covered /. Ledger.total_ns agg "driver.bulk_kernel"));
    ]
    @
    if warm then
      [
        ("persist.load_ns", Sample.median setup);
        ("persist.load_words", !load_words);
        ("persist.snapshot_bytes", float_of_int (Unix.stat snap).Unix.st_size);
      ]
    else []
  in
  {
    Wl.setup = (fun () -> setup);
    setup_failures = bad_golden;
    run;
    layers;
    info =
      (fun () ->
        [ ("kernels", string_of_int (Array.length ks)); ("golden_mismatches", string_of_int bad_golden) ]);
    close = (fun () -> ());
  }
