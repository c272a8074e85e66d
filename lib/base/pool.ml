(* Domain pool over one shared queue.

   A map call publishes one drain loop: every participant (the caller
   and each woken worker) claims the next element index from a single
   atomic counter until the array is exhausted.  Elements are files or
   oracle cases — coarse enough that one fetch-and-add per element is
   noise, and a slow element never holds others back behind it. *)

type pool = {
  size : int;  (* parallelism width: workers + the calling domain *)
  lock : Mutex.t;  (* guards [job], [epoch] and [stop] *)
  wake : Condition.t;  (* workers park here between map calls *)
  mutable job : unit -> unit;  (* the in-flight map's drain loop *)
  mutable epoch : int;  (* bumped on every map — the wake-up signal *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

type t = Seq | Par of pool

(* The span gives every worker domain its own track in a trace, even
   one that never won an element. *)
let worker p =
  Trace.with_span ~cat:"pool" "pool.worker" @@ fun () ->
  let rec loop seen =
    Mutex.lock p.lock;
    while p.epoch = seen && not p.stop do
      Condition.wait p.wake p.lock
    done;
    let epoch = p.epoch and stop = p.stop and job = p.job in
    Mutex.unlock p.lock;
    if not stop then begin
      job ();
      loop epoch
    end
  in
  loop 0

let create ~domains =
  if domains <= 1 then Seq
  else begin
    let p =
      {
        size = domains;
        lock = Mutex.create ();
        wake = Condition.create ();
        job = ignore;
        epoch = 0;
        stop = false;
        workers = [||];
      }
    in
    p.workers <-
      Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker p));
    Par p
  end

let domains = function Seq -> 1 | Par p -> p.size

let shutdown = function
  | Seq -> ()
  | Par p ->
      Mutex.lock p.lock;
      p.stop <- true;
      Condition.broadcast p.wake;
      Mutex.unlock p.lock;
      let ws = p.workers in
      p.workers <- [||];
      Array.iter Domain.join ws

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let resolve_jobs jobs =
  if jobs < 0 then invalid_arg "Pool.resolve_jobs: jobs must be >= 0"
  else if jobs = 0 then Domain.recommended_domain_count ()
  else jobs

let with_jobs ?pool ~jobs f =
  match pool with
  | Some _ -> f pool
  | None ->
      let jobs = resolve_jobs jobs in
      if jobs <= 1 then f None
      else with_pool ~domains:jobs (fun p -> f (Some p))

let map t f arr =
  match t with
  | Seq -> Array.map f arr
  | Par p ->
      let n = Array.length arr in
      let out = Array.make n None in
      (* Elements are claimed from the last index down (see the
         interface for why the order is kept). *)
      let next = Atomic.make n in
      (* Elements not yet finished.  Reading 0 here after the last
         element's decrement is the happens-before edge for its [out]
         write. *)
      let left = Atomic.make n in
      let dm = Mutex.create () and finished = Condition.create () in
      let rec drain () =
        let i = Atomic.fetch_and_add next (-1) - 1 in
        if i >= 0 then begin
          (* Contained per element: a raising job can neither kill its
             domain nor skip the rest of the array. *)
          out.(i) <-
            Some
              (try Ok (f arr.(i))
               with e -> Error (e, Printexc.get_raw_backtrace ()));
          if Atomic.fetch_and_add left (-1) = 1 then begin
            Mutex.lock dm;
            Condition.broadcast finished;
            Mutex.unlock dm
          end;
          drain ()
        end
      in
      Mutex.lock p.lock;
      p.job <- drain;
      p.epoch <- p.epoch + 1;
      Condition.broadcast p.wake;
      Mutex.unlock p.lock;
      (* The calling domain takes elements like any worker. *)
      drain ();
      Mutex.lock dm;
      while Atomic.get left > 0 do
        Condition.wait finished dm
      done;
      Mutex.unlock dm;
      (* Every element ran.  Mapping in index order re-raises the
         lowest-index failure — the one the sequential path would have
         hit first. *)
      Array.map
        (function
          | Some (Ok v) -> v
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | None -> assert false)
        out
