(* eqgen-engine: in-process [Engine.query] over a seeded [Eqgen.all]
   batch (random, linearized, symbolic, near-overflow and whole-program
   families), one query per op, the global cache cleared before every
   pass.  The batch holds more distinct forms than the 8192-entry cache,
   so shards flush; about 15% of the queries are symbolic and
   uncacheable.  No frontend, no dependence graph: the paper's
   per-equation cost plus the cache around it. *)

module Engine = Dlz_engine.Engine
module Stats = Dlz_engine.Stats
module Query = Dlz_engine.Query
module Verdict = Dlz_deptest.Verdict
module Eqgen = Dlz_oracle.Eqgen
module Oracle = Dlz_oracle.Oracle
module Prng = Dlz_base.Prng

let batch = 16_000

(* Oracle boxes above this many points are inconclusive, never
   guessed. *)
let oracle_limit = 200_000

let prepare ~seed =
  let cases = Array.of_list (Eqgen.all ~seed:(Int64.of_int seed) ~count:batch) in
  let n = Array.length cases in
  (* Soundness: every case the engine calls independent is searched by
     the brute-force oracle; a witness refutes the claim.  The answers
     come from a private cache, so the global one starts empty. *)
  let pe = Probe.private_engine () in
  let claims =
    Array.map
      (fun (c : Eqgen.case) ->
        (Engine.query ~cascade:Probe.cascade ~stats:pe.stats ~cache:pe.cache ~env:c.env
           c.problem)
          .verdict = Verdict.Independent)
      cases
  in
  let decided = Array.make n false and refuted = Array.make n false in
  let inconclusive = ref 0 in
  let verify i =
    if not decided.(i) then begin
      decided.(i) <- true;
      match Oracle.decide ~limit:oracle_limit cases.(i).ground with
      | Oracle.Sat _ -> refuted.(i) <- true
      | Oracle.Unsat -> ()
      | Oracle.Unknown _ -> incr inconclusive
    end;
    refuted.(i)
  in
  Array.iteri (fun i claim -> if claim then ignore (verify i)) claims;
  (* Set-up is the engine reset before every pass: each one is a
     sample. *)
  let setup = Sample.create () in
  (* One seeded order for the whole run, so every pass repeats the same
     queries in the same cache state and [Wl.best_of_passes] applies. *)
  let order = Array.init n Fun.id in
  Prng.shuffle (Prng.create (Int64.of_int seed)) order;
  let c = Wl.counts () in
  let disposition = ref Query.Miss in
  let observer d = disposition := d in
  let op_id = ref 0 in
  let run ~seconds ledger =
    let best = Array.make n max_int in
    let ops = ref 0 and failed = ref 0 in
    let replay_words = ref 0. in
    (* An independence claim the set-up answer did not make is checked
       after the window. *)
    let unexpected = ref [] in
    let check i (r : Dlz_engine.Strategy.result) =
      if r.verdict = Verdict.Independent then
        if not claims.(i) then unexpected := i :: !unexpected
        else if refuted.(i) then incr failed
    in
    let query ?observer pos i =
      let case = cases.(i) in
      let a = Wl.now () in
      match Engine.query ?observer ~env:case.env case.problem with
      | r ->
          let dt = Wl.now () - a in
          if dt < best.(pos) then best.(pos) <- dt;
          check i r
      | exception _ -> incr failed
    in
    let traced l pos i =
      let op = !op_id in
      let case = cases.(i) in
      Ledger.span l ~op "engine.query" (fun () -> query ~observer pos i);
      c.queries <- c.queries + 1;
      let bw = Gc.minor_words () in
      Probe.key l ~op case.problem;
      (match !disposition with
      | Query.Hit_warm | Query.Hit_cold ->
          c.hits <- c.hits + 1;
          Probe.hit l ~op pe ~env:case.env case.problem
      | Query.Miss | Query.Uncacheable as d ->
          if d = Query.Uncacheable then c.uncacheable <- c.uncacheable + 1;
          Probe.miss l ~op pe ~env:case.env case.problem;
          Probe.solvers l ~op ~env:case.env case.problem);
      replay_words := !replay_words +. (Gc.minor_words () -. bw)
    in
    let flushes = ref 0 in
    let w0 = Gc.minor_words () in
    let passes =
      Wl.until ~seconds (fun () ->
          let t0 = Wl.now () in
          Engine.reset_metrics ();
          Sample.add setup (Wl.now () - t0);
          Array.iteri
            (fun pos i ->
              incr ops;
              incr op_id;
              match ledger with None -> query pos i | Some l -> traced l pos i)
            order;
          flushes := !flushes + Stats.cache_flushes Stats.global)
    in
    let words = Gc.minor_words () -. w0 -. !replay_words in
    List.iter (fun i -> if verify i then incr failed) !unexpected;
    if ledger <> None then begin
      c.passes <- c.passes + passes;
      c.flushes <- c.flushes + !flushes
    end;
    Wl.best_of_passes ~ops:!ops ~failed:!failed ~passes ~words best
  in
  let layers l =
    let agg = Ledger.aggregate l in
    let covered = Ledger.total_ns agg "engine.miss" +. Ledger.total_ns agg "engine.hit" in
    Wl.engine_ratios c
    @ [
      ("engine.miss_over_algo_test", Ledger.paired_ratio l ~num:"engine.miss" ~den:"core.algo_test");
      ("ledger.unaccounted_share", 1. -. (covered /. Ledger.total_ns agg "engine.query"));
    ]
  in
  let families =
    Array.fold_left
      (fun acc (c : Eqgen.case) ->
        let n = Option.value (List.assoc_opt c.family acc) ~default:0 in
        (c.family, n + 1) :: List.remove_assoc c.family acc)
      [] cases
    |> List.sort compare
    |> List.map (fun (f, n) -> Printf.sprintf "%s:%d" (Wl.json_str f) n)
  in
  {
    Wl.setup = (fun () -> setup);
    setup_failures = 0;
    run;
    layers;
    info =
      (fun () ->
        [
          ("cases", string_of_int n);
          ("families", "{" ^ String.concat "," families ^ "}");
          ("oracle_checked", string_of_int (Array.fold_left (fun s b -> if b then s + 1 else s) 0 decided));
          ("oracle_inconclusive", string_of_int !inconclusive);
        ]);
    close = (fun () -> ());
  }
