(* serve-mix: a [Dlz_serve.Server] on loopback TCP with one worker per
   core, driven in a closed loop by one long-lived client connection per
   core from this process (a client sends its next request only when the
   previous answer is complete).

   The seed draws every request.  Each client owns a seeded sequence of
   one block of eight requests per polybench kernel: in each block, one
   [analyze] of the kernel (at a seeded slot, kernels in a seeded order)
   and seven [query]s of numeric problems drawn from a seeded
   [Eqgen.all] batch, so the mix is exactly 7/8 query, 1/8 analyze.  Query replies
   are single frames, analyze replies are streams of one frame per pair
   plus a summary.  A round clears the server's cache and runs every
   client's sequence once, concurrently; rounds repeat until the window
   ends, so every request position is the same work in every round and
   its fastest round is kept, as the in-process workloads do
   ([Wl.best_of_passes]).  This is the only workload that runs framing,
   Jsonx, Proto, admission and sessions. *)

module Server = Dlz_serve.Server
module Client = Dlz_serve.Client
module Proto = Dlz_serve.Proto
module Frame = Dlz_serve.Frame
module Jsonx = Dlz_serve.Jsonx
module Engine = Dlz_engine.Engine
module Stats = Dlz_engine.Stats
module Problem = Dlz_deptest.Problem
module Assume = Dlz_symbolic.Assume
module Prng = Dlz_base.Prng
module Trace = Dlz_base.Trace

let batch = Eqgen_wl.batch

(* Per client, the first ops of a traced window kept for the layer
   replay. *)
let recorded_per_client = 400

type verb = Query of int | Analyze of int

type recorded = { r_verb : verb; r_t0 : int; r_t1 : int }

type client = {
  conn : Client.t;
  requests : verb array;  (* this client's seeded round *)
  best : int array;  (* per request, the fastest round of the window *)
  (* per window *)
  mutable lat : Sample.t;  (* every answered op *)
  mutable query_lat : Sample.t;
  mutable analyze_lat : Sample.t;
  mutable ops : int;
  mutable failed : int;
  mutable queries : int;
  mutable analyzes : int;
  mutable frames : int;  (* frames of analyze replies *)
  mutable recorded : recorded list;
  mutable n_recorded : int;
  mutable dead : bool;
}

let field path j =
  List.fold_left (fun j k -> Option.bind j (Jsonx.member k)) (Some j) path

(* The summary fields of an analyze reply and where the golden row keeps
   the same number. *)
let summary_fields =
  [
    ("pairs", [ "pairs" ]);
    ("independent", [ "verdicts"; "independent" ]);
    ("dependent", [ "verdicts"; "dependent" ]);
    ("inapplicable", [ "verdicts"; "inapplicable" ]);
    ("accesses", [ "accesses" ]);
    ("loops_parallel", [ "loops"; "parallel" ]);
    ("loops_serial", [ "loops"; "serial" ]);
  ]

let prepare ~seed =
  (* Inputs: the numeric problems of the batch and the polybench
     kernels, with the answers each reply must carry. *)
  let pool =
    Dlz_oracle.Eqgen.all ~seed:(Int64.of_int seed) ~count:batch
    |> List.filter_map (fun (c : Dlz_oracle.Eqgen.case) -> Problem.to_numeric c.problem)
    |> Array.of_list
  in
  let pe = Probe.private_engine () in
  let query_req =
    Array.map
      (fun np ->
        Jsonx.Obj [ ("op", Jsonx.Str "query"); ("problem", Proto.problem_to_json np) ])
      pool
  in
  (* A reply's verdict must be the in-process one.  Only the verdict:
     for near-overflow coefficients the cached direction vectors depend
     on which instance of a canonical form was solved first (an
     overflowing instance caches the all-[*] fallback), so they vary
     with the request order. *)
  let query_expect =
    Array.map
      (fun np ->
        List.assoc "verdict"
          (Proto.result_fields
             (Engine.query ~cascade:Probe.cascade ~stats:pe.stats ~cache:pe.cache
                ~env:Assume.empty (Problem.synthetic np))))
      pool
  in
  let golden =
    Wl.read_lines (Filename.concat Polybench_wl.corpus_dir "GOLDEN.ndjson")
    |> List.filter_map (fun line ->
           match Jsonx.parse line with
           | Ok j -> (
               match Option.bind (Jsonx.member "file" j) Jsonx.to_str with
               | Some f -> Some (f, j)
               | None -> None)
           | Error _ -> None)
    |> Array.of_list
  in
  let sources =
    Array.map
      (fun (f, _) -> Wl.read_file (Filename.concat Polybench_wl.corpus_dir f))
      golden
  in
  let analyze_req =
    Array.map
      (fun src ->
        Jsonx.Obj
          [ ("op", Jsonx.Str "analyze"); ("lang", Jsonx.Str "c"); ("source", Jsonx.Str src) ])
      sources
  in
  let cores = Domain.recommended_domain_count () in
  let cfg =
    { (Server.default_config (Dlz_serve.Addr.Tcp ("127.0.0.1", 0))) with Server.workers = cores }
  in
  Engine.reset_metrics ();
  let start () =
    match Server.start cfg with Ok s -> s | Error m -> failwith ("server start: " ^ m)
  in
  (* Set-up is server start: bind, spawn the accept loop and workers. *)
  let reps = 9 in
  let setup = Sample.create () in
  let server = ref None in
  for i = 0 to reps - 1 do
    let t0 = Wl.now () in
    let s = start () in
    Sample.add setup (Wl.now () - t0);
    if i < reps - 1 then begin
      Server.stop s;
      ignore (Server.join s)
    end
    else server := Some s
  done;
  let server = Option.get !server in
  let addr = Server.address server in
  let round_length = 8 * Array.length sources in
  (* The queries of a round are drawn one from each of [strata] equal
     slices of the batch (which keeps its families contiguous), dealt
     round-robin to the clients: every round holds each family in its
     share, so the figures do not swing with how many cheap or costly
     problems a seed happened to draw. *)
  let per_client = 7 * Array.length sources in
  let strata = cores * per_client in
  let master = Prng.create (Int64.of_int seed) in
  let clients =
    Array.init cores (fun j ->
        let prng = Prng.split master in
        let kernels = Array.init (Array.length sources) Fun.id in
        Prng.shuffle prng kernels;
        let queries =
          Array.init per_client (fun q ->
              let g = (q * cores) + j in
              let lo = g * Array.length pool / strata
              and hi = (g + 1) * Array.length pool / strata in
              lo + Prng.int prng (max 1 (hi - lo)))
        in
        Prng.shuffle prng queries;
        let next_query = ref 0 and analyze_slot = ref 0 in
        let requests =
          Array.init round_length (fun i ->
              if i mod 8 = 0 then analyze_slot := i + Prng.int prng 8;
              if i = !analyze_slot then Analyze kernels.(i / 8)
              else begin
                incr next_query;
                Query queries.(!next_query - 1)
              end)
        in
        let conn =
          match Client.connect ~timeout_ms:30_000 addr with
          | Ok c -> c
          | Error m -> failwith ("client connect: " ^ m)
        in
        {
          conn; requests; best = Array.make round_length max_int;
          lat = Sample.create (); query_lat = Sample.create ();
          analyze_lat = Sample.create (); ops = 0; failed = 0; queries = 0;
          analyzes = 0; frames = 0; recorded = []; n_recorded = 0; dead = false;
        })
  in
  let query_ok i j =
    Jsonx.member "ok" j = Some (Jsonx.Bool true)
    && Jsonx.member "verdict" j = Some query_expect.(i)
  in
  let analyze_ok k frames =
    let row = snd golden.(k) in
    match List.rev frames with
    | summary :: pairs ->
        Jsonx.member "op" summary = Some (Jsonx.Str "analyze")
        && List.for_all (fun f -> Jsonx.member "ok" f = Some (Jsonx.Bool true)) frames
        && List.for_all
             (fun (name, path) -> Jsonx.member name summary = field path row)
             summary_fields
        && Some (Jsonx.Int (List.length pairs)) = Jsonx.member "pairs" summary
    | [] -> false
  in
  let one c ~record pos =
    let v = c.requests.(pos) in
    let t0 = Wl.now () in
    let reply =
      match v with
      | Query i -> Result.map (fun j -> [ j ]) (Client.request c.conn query_req.(i))
      | Analyze k -> (
          match Client.send c.conn analyze_req.(k) with
          | Ok () -> Client.read_stream c.conn
          | Error _ as e -> e)
    in
    let t1 = Wl.now () in
    c.ops <- c.ops + 1;
    match reply with
    | Error _ ->
        c.failed <- c.failed + 1;
        c.dead <- true
    | Ok frames ->
        let ok =
          match (v, frames) with
          | Query i, [ j ] ->
              c.queries <- c.queries + 1;
              Sample.add c.query_lat (t1 - t0);
              query_ok i j
          | Analyze k, _ ->
              c.analyzes <- c.analyzes + 1;
              c.frames <- c.frames + List.length frames;
              Sample.add c.analyze_lat (t1 - t0);
              analyze_ok k frames
          | Query _, _ -> false
        in
        if ok then begin
          Sample.add c.lat (t1 - t0);
          if t1 - t0 < c.best.(pos) then c.best.(pos) <- t1 - t0
        end
        else c.failed <- c.failed + 1;
        if record && c.n_recorded < recorded_per_client then begin
          c.recorded <- { r_verb = v; r_t0 = t0; r_t1 = t1 } :: c.recorded;
          c.n_recorded <- c.n_recorded + 1
        end
  in
  let engine = Wl.counts () in
  let total_queries = ref 0 and total_analyzes = ref 0 in
  let run ~seconds ledger =
    Array.iter
      (fun c ->
        Array.fill c.best 0 round_length max_int;
        c.lat <- Sample.create ();
        c.query_lat <- Sample.create ();
        c.analyze_lat <- Sample.create ();
        c.ops <- 0; c.failed <- 0; c.queries <- 0; c.analyzes <- 0; c.frames <- 0;
        c.recorded <- [];
        c.n_recorded <- 0)
      clients;
    let traced = ledger <> None in
    if traced then begin
      Trace.reset_hists ();
      Trace.set_level Trace.Timing
    end;
    let s = Stats.global in
    let q0 = Stats.queries s and h0 = Stats.cache_hits s
    and u0 = Stats.cache_uncacheable s and f0 = Stats.cache_flushes s in
    (* Minor words of every domain: the server's workers allocate too.
       Each domain's count is folded in at its own collections, so a
       window's figure can lag by up to one minor heap per domain. *)
    let w0 = (Gc.quick_stat ()).minor_words in
    let best_round = ref max_int in
    let rounds =
      Wl.until ~seconds (fun () ->
          Dlz_engine.Query.clear Dlz_engine.Query.global_cache;
          let t0 = Wl.now () in
          let threads =
            Array.map
              (fun c ->
                Thread.create
                  (fun () ->
                    for pos = 0 to round_length - 1 do
                      if not c.dead then one c ~record:traced pos
                    done)
                  ())
              clients
          in
          Array.iter Thread.join threads;
          best_round := min !best_round (Wl.now () - t0))
    in
    let words = (Gc.quick_stat ()).minor_words -. w0 in
    if traced then begin
      Trace.set_level Trace.Off;
      engine.queries <- engine.queries + Stats.queries s - q0;
      engine.hits <- engine.hits + Stats.cache_hits s - h0;
      engine.uncacheable <- engine.uncacheable + Stats.cache_uncacheable s - u0;
      engine.flushes <- engine.flushes + Stats.cache_flushes s - f0;
      engine.passes <- engine.passes + rounds
    end;
    let sum f = Array.fold_left (fun n c -> n + f c) 0 clients in
    total_queries := !total_queries + sum (fun c -> c.queries);
    total_analyzes := !total_analyzes + sum (fun c -> c.analyzes);
    (* A verb the schedule never sent fails the run. *)
    let missing_verbs =
      (if sum (fun c -> c.queries) = 0 then 1 else 0)
      + if sum (fun c -> c.analyzes) = 0 then 1 else 0
    in
    let w =
      Wl.best_of_passes ~ops:(sum (fun c -> c.ops)) ~failed:(sum (fun c -> c.failed) + missing_verbs)
        ~passes:rounds ~words
        (Array.concat (Array.to_list (Array.map (fun c -> c.best) clients)))
    in
    (* Clients run concurrently: throughput is a round's requests over
       the fastest round, not one over the sum of latencies. *)
    { w with ops_per_s = float_of_int (cores * round_length) /. (float_of_int !best_round /. 1e9) }
  in
  let sorted_of f =
    let s = Sample.create () in
    Array.iter (fun c -> Sample.append s (f c)) clients;
    Sample.sorted s
  in
  let us sorted q = float_of_int (Sample.percentile sorted q) /. 1e3 in
  (* After a traced window: replay each recorded op's server-side work
     through the layers' public functions, with the frames going over a
     socketpair, and time the whole replay against the op's latency. *)
  let layers l =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
    let frame ~op payload =
      ignore (Ledger.span l ~op "serve.frame_write" (fun () -> Frame.write a payload));
      ignore (Ledger.span l ~op "serve.frame_read" (fun () -> Frame.read b))
    in
    let encode ~op name fields =
      Ledger.span l ~op "serve.encode" (fun () -> Proto.ok ~rid:op ~id:Jsonx.Null ~op:name fields)
    in
    let replay ~op v =
      let req = match v with Query i -> query_req.(i) | Analyze k -> analyze_req.(k) in
      let payload = Jsonx.to_string req in
      frame ~op payload;
      let j =
        match Ledger.span l ~op "serve.json_parse" (fun () -> Jsonx.parse payload) with
        | Ok j -> j
        | Error m -> failwith ("replay: " ^ m)
      in
      match Ledger.span l ~op "serve.decode" (fun () -> Proto.parse_request j) with
      | _, Ok (Proto.Query { problem; _ }) ->
          let r =
            Ledger.span l ~op "engine.query" (fun () -> Engine.query ~env:Assume.empty problem)
          in
          frame ~op (encode ~op "query" (Proto.result_fields r))
      | _, Ok (Proto.Analyze { source; _ }) ->
          let prog, accs, env = Probe.front l ~op source in
          let results =
            Ledger.span l ~op "engine.query_all" (fun () -> Engine.query_all ~env accs)
          in
          let loops =
            Ledger.span l ~op "vectorizer.report" (fun () ->
                Dlz_vec.Parallel.report ~env:Assume.empty prog)
          in
          List.iter
            (fun ((p : Engine.pair), r) ->
              frame ~op
                (encode ~op "pair"
                   ([
                      ("src", Jsonx.Str p.src.stmt_name);
                      ("src_array", Jsonx.Str p.src.array);
                      ("dst", Jsonx.Str p.dst.stmt_name);
                      ("self", Jsonx.Bool p.self);
                    ]
                   @ Proto.result_fields r)))
            results;
          let par = List.length (List.filter (fun r -> r.Dlz_vec.Parallel.lr_parallel) loops) in
          frame ~op
            (encode ~op "analyze"
               [
                 ("pairs", Jsonx.Int (List.length results));
                 ("loops_parallel", Jsonx.Int par);
                 ("loops_serial", Jsonx.Int (List.length loops - par));
                 ("done", Jsonx.Bool true);
               ])
      | _ -> failwith "replay: unexpected request"
    in
    let recorded = Array.to_list clients |> List.concat_map (fun c -> List.rev c.recorded) in
    let covered = ref 0 and observed = ref 0 in
    List.iteri
      (fun op r ->
        Ledger.record l ~op "serve.client_request" ~t0:r.r_t0 ~t1:r.r_t1;
        let t0 = Wl.now () in
        replay ~op r.r_verb;
        covered := !covered + Wl.now () - t0;
        observed := !observed + r.r_t1 - r.r_t0)
      recorded;
    (* Engine-level probes of the recorded queries' problems. *)
    List.iteri
      (fun op r ->
        match r.r_verb with
        | Query i -> Probe.problem l ~op pe ~env:Assume.empty (Problem.synthetic pool.(i))
        | Analyze _ -> ())
      recorded;
    let h = Trace.hist "serve.request" in
    let server_p50 = Trace.Hist.percentile h 0.5 /. 1e3 in
    let server_p99 = Trace.Hist.percentile h 0.99 /. 1e3 in
    let all = sorted_of (fun c -> c.lat) in
    let sum f = Array.fold_left (fun n c -> n + f c) 0 clients in
    Wl.engine_ratios engine
    @ [
      ("serve.server_p50_us", server_p50);
      ("serve.server_p99_us", server_p99);
      ("serve.outside_server_p99_us", us all 0.99 -. server_p99);
      ("serve.frames_per_analyze", Wl.ratio (sum (fun c -> c.frames)) (sum (fun c -> c.analyzes)));
      ("serve.analyze_p99_us", us (sorted_of (fun c -> c.analyze_lat)) 0.99);
      ("serve.query_p50_us", us (sorted_of (fun c -> c.query_lat)) 0.5);
      ("engine.miss_over_algo_test", Ledger.paired_ratio l ~num:"engine.miss" ~den:"core.algo_test");
      ("ledger.unaccounted_share", 1. -. Wl.ratio !covered !observed);
    ]
  in
  {
    Wl.setup = (fun () -> setup);
    setup_failures = 0;
    run;
    layers;
    info =
      (fun () ->
        [
          ("clients", string_of_int cores);
          ("workers", string_of_int cores);
          ("loop", "\"closed\"");
          ("query_pool", string_of_int (Array.length pool));
          ("verbs", Printf.sprintf "{\"query\":%d,\"analyze\":%d}" !total_queries !total_analyzes);
        ]);
    close =
      (fun () ->
        Array.iter (fun c -> Client.close c.conn) clients;
        Server.stop server;
        ignore (Server.join server));
  }
