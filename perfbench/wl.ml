(* What every workload hands to main.ml. *)

(* One measured window. *)
type window = {
  ops : int;  (* ops attempted *)
  failed : int;  (* ops that raised, were refused or answered wrongly *)
  ops_per_s : float;
  p50_ns : float;
  p99_ns : float;
  samples : (string * int) list;  (* the sample counts behind the figures *)
  words : float;  (* minor words allocated by the ops of the window *)
}

type t = {
  setup : unit -> Sample.t;  (* every set-up repetition, ns *)
  setup_failures : int;  (* set-up checks that failed (e.g. golden rows) *)
  run : seconds:float -> Ledger.t option -> window;
  layers : Ledger.t -> (string * float) list;
      (* after a traced window: replays and derived per-layer metrics *)
  info : unit -> (string * string) list;  (* provenance; JSON values *)
  close : unit -> unit;
}

let now = Ledger.now

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Engine counters of the real ops of traced windows, read around those
   ops only, so the layer replays (which query too) stay out of them. *)
type counts = {
  mutable queries : int;
  mutable hits : int;
  mutable uncacheable : int;
  mutable flushes : int;
  mutable passes : int;
}

let counts () = { queries = 0; hits = 0; uncacheable = 0; flushes = 0; passes = 0 }

let engine_ratios c =
  [
    ("engine.hit_ratio", ratio c.hits c.queries);
    ("engine.uncacheable_ratio", ratio c.uncacheable c.queries);
    ("engine.flushes_per_pass", ratio c.flushes c.passes);
  ]

(* Runs [pass] until [seconds] have gone by, whole passes only. *)
let until ~seconds pass =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let passes = ref 0 in
  while now () < deadline || !passes = 0 do
    pass ();
    incr passes
  done;
  !passes

(* The in-process workloads repeat the same ops, in the same order and
   cache state, pass after pass, and keep each op's fastest pass.  The
   hosts this benchmark runs on are small shared VMs whose speed for a
   fixed loop swings by up to 2x with their neighbours' load over
   seconds; an op's minimum over many passes is the figure that stays
   put, and it moves with the code.  [best.(i)] is op [i]'s minimum
   (max_int when it never completed). *)
let best_of_passes ~ops ~failed ~passes ~words best =
  let lat = Sample.create () in
  Array.iter (fun dt -> if dt < max_int then Sample.add lat dt) best;
  let total = Sample.sum lat and s = Sample.sorted lat in
  let n = Array.length s in
  {
    ops;
    failed;
    ops_per_s = (if total = 0 then 0. else float_of_int n /. (float_of_int total /. 1e9));
    p50_ns = float_of_int (Sample.percentile s 0.5);
    p99_ns = float_of_int (Sample.percentile s 0.99);
    samples =
      [ ("op_minima", n); ("passes", passes); ("p99_beyond", Sample.beyond n 0.99) ];
    words;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun s -> s <> "")

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let json_str s = "\"" ^ Dlz_serve.Jsonx.escape s ^ "\""
