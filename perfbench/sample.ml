(* A growable buffer of integer samples (latencies in ns, counts) with
   nearest-rank percentiles. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 4096 0; n = 0 }
let length t = t.n

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let append t u = for i = 0 to u.n - 1 do add t u.a.(i) done

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort compare s;
  s

(* Nearest-rank: the smallest sample with at least [q * n] samples at or
   below it. *)
let rank n q = max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(rank n q)

(* How many samples lie strictly beyond the [q] rank: the evidence behind
   a tail percentile. *)
let beyond n q = if n = 0 then 0 else n - 1 - rank n q

let sum t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do s := !s + t.a.(i) done;
  !s

let median t =
  let s = sorted t in
  let n = Array.length s in
  if n = 0 then 0. else if n mod 2 = 1 then float_of_int s.(n / 2)
  else (float_of_int s.((n / 2) - 1) +. float_of_int s.(n / 2)) /. 2.
