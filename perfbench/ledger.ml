(* Bench-side spans: the per-layer ledger of a traced run.

   Each span wraps one call into a layer's public function and records
   its name, start, end, parent span and the id of the op it belongs
   to, plus the minor words the calling domain allocated inside it.
   Spans live in flat arrays for the whole run (no per-span record
   allocation on the recording path) and are written out at the end.
   A span's self time is its duration minus its children's. *)

module Trace = Dlz_base.Trace

type t = {
  mutable names : string array;
  mutable parent : int array;
  mutable op : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable w0 : float array;
  mutable w1 : float array;
  mutable n : int;
  mutable cur : int;  (* the open span new spans nest under; -1 at top *)
}

let now () = Int64.to_int (Trace.now_ns ())

let create () =
  let cap = 1 lsl 14 in
  {
    names = Array.make cap "";
    parent = Array.make cap 0;
    op = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    w0 = Array.make cap 0.;
    w1 = Array.make cap 0.;
    n = 0;
    cur = -1;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let g a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- g t.names "";
  t.parent <- g t.parent 0;
  t.op <- g t.op 0;
  t.t0 <- g t.t0 0;
  t.t1 <- g t.t1 0;
  t.w0 <- g t.w0 0.;
  t.w1 <- g t.w1 0.

let enter t ~op name =
  if t.n = Array.length t.names then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.names.(i) <- name;
  t.parent.(i) <- t.cur;
  t.op.(i) <- op;
  t.cur <- i;
  t.w0.(i) <- Gc.minor_words ();
  t.t0.(i) <- now ();
  i

let leave t i =
  t.t1.(i) <- now ();
  t.w1.(i) <- Gc.minor_words ();
  t.cur <- t.parent.(i)

let span t ~op name f =
  let i = enter t ~op name in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

(* A span measured elsewhere (another thread's op), recorded after the
   fact at top level. *)
let record t ~op name ~t0 ~t1 =
  let i = enter t ~op name in
  t.t0.(i) <- t0;
  leave t i;
  t.t1.(i) <- t1;
  t.w1.(i) <- t.w0.(i)

let dur t i = t.t1.(i) - t.t0.(i)

(* Per-name totals: calls, summed duration, summed self time and self
   minor words. *)
type agg = {
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable self_words : float;
}

let aggregate t =
  let child_ns = Array.make t.n 0 and child_w = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + dur t i;
      child_w.(p) <- child_w.(p) +. (t.w1.(i) -. t.w0.(i))
    end
  done;
  let tbl = Hashtbl.create 64 in
  for i = 0 to t.n - 1 do
    let a =
      match Hashtbl.find_opt tbl t.names.(i) with
      | Some a -> a
      | None ->
          let a = { calls = 0; total_ns = 0; self_ns = 0; self_words = 0. } in
          Hashtbl.add tbl t.names.(i) a;
          a
    in
    a.calls <- a.calls + 1;
    a.total_ns <- a.total_ns + dur t i;
    a.self_ns <- a.self_ns + dur t i - child_ns.(i);
    a.self_words <- a.self_words +. (t.w1.(i) -. t.w0.(i)) -. child_w.(i)
  done;
  tbl

let find tbl name = Hashtbl.find_opt tbl name

let total_ns tbl name =
  match find tbl name with Some a -> float_of_int a.total_ns | None -> 0.

(* [name_ns] and [name_words]: mean self time and self minor words per
   call; zero when the run never reached the layer. *)
let layer_metrics tbl name =
  let ns, words =
    match find tbl name with
    | Some a when a.calls > 0 ->
        let c = float_of_int a.calls in
        (float_of_int a.self_ns /. c, a.self_words /. c)
    | _ -> (0., 0.)
  in
  [ (name ^ "_ns", ns); (name ^ "_words", words) ]

(* Summed [num] over summed [den], each taken only over ops that have
   both spans, so the two means describe the same inputs. *)
let paired_ratio t ~num ~den =
  let per = Hashtbl.create 256 in
  for i = 0 to t.n - 1 do
    let name = t.names.(i) in
    if name = num || name = den then begin
      let a, b = Option.value (Hashtbl.find_opt per t.op.(i)) ~default:(0, 0) in
      Hashtbl.replace per t.op.(i)
        (if name = num then (a + dur t i, b) else (a, b + dur t i))
    end
  done;
  let a, b =
    Hashtbl.fold
      (fun _ (a, b) (sa, sb) -> if a > 0 && b > 0 then (sa + a, sb + b) else (sa, sb))
      per (0, 0)
  in
  if b = 0 then 0. else float_of_int a /. float_of_int b

(* One NDJSON line per span, times relative to the earliest span. *)
let write t path =
  let base = ref max_int in
  for i = 0 to t.n - 1 do base := min !base t.t0.(i) done;
  let base = !base in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"span\":%d,\"name\":\"%s\",\"parent\":%d,\"op\":%d,\"start_ns\":%d,\
       \"end_ns\":%d,\"minor_words\":%.0f}\n"
      i t.names.(i) t.parent.(i) t.op.(i) (t.t0.(i) - base) (t.t1.(i) - base)
      (t.w1.(i) -. t.w0.(i))
  done
