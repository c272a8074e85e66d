type dir = Lt | Eq | Gt | Le | Ge | Ne | Star
type t = dir array

let all_star n = Array.make n Star

(* Encode each relation as the subset of {<, =, >} it admits. *)
let bits = function
  | Lt -> 0b100
  | Eq -> 0b010
  | Gt -> 0b001
  | Le -> 0b110
  | Ge -> 0b011
  | Ne -> 0b101
  | Star -> 0b111

let of_bits = function
  | 0b100 -> Some Lt
  | 0b010 -> Some Eq
  | 0b001 -> Some Gt
  | 0b110 -> Some Le
  | 0b011 -> Some Ge
  | 0b101 -> Some Ne
  | 0b111 -> Some Star
  | _ -> None

let meet_dir a b = of_bits (bits a land bits b)
let join_dir a b = Option.get (of_bits (bits a lor bits b))
let leq_dir a b = bits a land bits b = bits a

let meet a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let result = Array.make n Star in
  let ok = ref true in
  for i = 0 to n - 1 do
    let da = if i < la then a.(i) else Star in
    let db = if i < lb then b.(i) else Star in
    match meet_dir da db with
    | Some d -> result.(i) <- d
    | None -> ok := false
  done;
  if !ok then Some result else None

(* The order [Stdlib.compare] gives [dir array]: length first, then
   element by element in constructor order.  Written out so sorting a
   set of vectors never goes through the polymorphic comparison. *)
let rank = function
  | Lt -> 0
  | Eq -> 1
  | Gt -> 2
  | Le -> 3
  | Ge -> 4
  | Ne -> 5
  | Star -> 6

let rec compare_from (a : t) (b : t) i =
  if i = Array.length a then 0
  else
    let c = Int.compare (rank a.(i)) (rank b.(i)) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare (a : t) (b : t) =
  let n = Array.length a and m = Array.length b in
  if n <> m then Int.compare n m else compare_from a b 0

let meet_sets dvs nvs =
  List.concat_map (fun dv -> List.filter_map (fun nv -> meet dv nv) nvs) dvs
  |> List.sort_uniq compare

let join a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Dirvec.join: length mismatch";
  let r = Array.make n Star in
  for i = 0 to n - 1 do
    r.(i) <- join_dir a.(i) b.(i)
  done;
  r

let refinements = function
  | Star -> [ Lt; Eq; Gt ]
  | Le -> [ Lt; Eq ]
  | Ge -> [ Eq; Gt ]
  | Ne -> [ Lt; Gt ]
  | (Lt | Eq | Gt) as d -> [ d ]

let is_basic = function Lt | Eq | Gt -> true | _ -> false

let admits d delta =
  let b = bits d in
  if delta > 0 then b land 0b100 <> 0
  else if delta = 0 then b land 0b010 <> 0
  else b land 0b001 <> 0

let of_delta delta = if delta > 0 then Lt else if delta = 0 then Eq else Gt

let plausible v =
  (* Reject vectors that are definitely lexicographically negative:
     a prefix admitting only '=' followed by a component admitting only '>'. *)
  let n = Array.length v in
  let rec go i =
    if i >= n then true
    else
      match v.(i) with
      | Eq -> go (i + 1)
      | Gt -> false
      | _ -> true
  in
  go 0

let rev_dir = function
  | Lt -> Gt
  | Gt -> Lt
  | Le -> Ge
  | Ge -> Le
  | (Eq | Ne | Star) as d -> d

let reverse v = Array.map rev_dir v
let equal a b = compare a b = 0

let dir_to_string = function
  | Lt -> "<"
  | Eq -> "="
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | Ne -> "!="
  | Star -> "*"

let to_string v =
  "(" ^ String.concat ", " (Array.to_list (Array.map dir_to_string v)) ^ ")"

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* --- Packed sets of basic vectors --------------------------------------- *)

(* A basic vector of [n] levels packs into [words n] machine integers,
   two bits a level ([Lt = 0], [Eq = 1], [Gt = 2]), 31 levels a word,
   the outermost level in the most significant bits.  Keys of one
   length therefore compare word by word in {!compare} order. *)
let levels_per_word = 31
let words n = if n = 0 then 1 else (n + levels_per_word - 1) / levels_per_word

(* Keys of [w] words, stored as the rows of a flat array. *)
type rows = { w : int; mutable data : int array; mutable count : int }

let rec compare_rows w a i b j k =
  if k = w then 0
  else
    let c = Int.compare a.((i * w) + k) b.((j * w) + k) in
    if c <> 0 then c else compare_rows w a i b j (k + 1)

let push rows key =
  let w = rows.w in
  let at = rows.count * w in
  if at + w > Array.length rows.data then begin
    let data = Array.make (2 * (at + w)) 0 in
    Array.blit rows.data 0 data 0 at;
    rows.data <- data
  end;
  for k = 0 to w - 1 do
    rows.data.(at + k) <- key.(k)
  done;
  rows.count <- rows.count + 1

(* The walks below build a key level by level on the way down, in an
   accumulator for the current word; entering level [i] stores the word
   it leaves into [key]. *)
let enter key i acc =
  if i > 0 && i mod levels_per_word = 0 then begin
    key.((i / levels_per_word) - 1) <- acc;
    0
  end
  else acc

(* Pushes the key of every basic vector [v] admits, in ascending
   order. *)
let rec push_basics rows (v : t) key i acc =
  if i = Array.length v then begin
    key.(rows.w - 1) <- acc;
    push rows key
  end
  else
    let acc = enter key i acc lsl 2 and d = bits v.(i) in
    if d land 0b100 <> 0 then push_basics rows v key (i + 1) acc;
    if d land 0b010 <> 0 then push_basics rows v key (i + 1) (acc lor 1);
    if d land 0b001 <> 0 then push_basics rows v key (i + 1) (acc lor 2)

(* Pushes the key of [v] if [v] is basic, and nothing otherwise. *)
let rec push_basic rows (v : t) key i acc =
  if i = Array.length v then begin
    key.(rows.w - 1) <- acc;
    push rows key
  end
  else
    let acc = enter key i acc lsl 2 in
    match v.(i) with
    | Lt -> push_basic rows v key (i + 1) acc
    | Eq -> push_basic rows v key (i + 1) (acc lor 1)
    | Gt -> push_basic rows v key (i + 1) (acc lor 2)
    | Le | Ge | Ne | Star -> ()

let rec non_decreasing rows r =
  r >= rows.count
  || compare_rows rows.w rows.data (r - 1) rows.data r 0 <= 0
     && non_decreasing rows (r + 1)

(* Sorts the rows and drops duplicates.  Rows pushed in order (a sorted
   list of basic vectors, or one vector's expansion) are not sorted
   again. *)
let sort_uniq rows =
  let w = rows.w in
  if not (non_decreasing rows 1) then begin
    let data = rows.data in
    let order = Array.init rows.count Fun.id in
    Array.sort (fun i j -> compare_rows w data i data j 0) order;
    let sorted = Array.make (rows.count * w) 0 in
    Array.iteri (fun r i -> Array.blit data (i * w) sorted (r * w) w) order;
    rows.data <- sorted
  end;
  let data = rows.data and m = ref (min rows.count 1) in
  for r = 1 to rows.count - 1 do
    if compare_rows w data r data (!m - 1) 0 <> 0 then begin
      for k = 0 to w - 1 do
        data.((!m * w) + k) <- data.((r * w) + k)
      done;
      incr m
    end
  done;
  rows.count <- !m

(* [key] is the scratch key {!covers_join} walks with. *)
type basic_set = { n : int; keys : rows; key : int array }

let basic_set ~n vecs =
  let w = words n in
  let keys = { w; data = Array.make (w * List.length vecs) 0; count = 0 } in
  let key = Array.make w 0 in
  List.iter
    (fun v -> if Array.length v = n then push_basic keys v key 0 0)
    vecs;
  sort_uniq keys;
  { n; keys; key }

(* Binary search for [key] among rows [lo, hi). *)
let rec search rows key lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let c = compare_rows rows.w rows.data mid key 0 0 in
  c = 0
  || if c < 0 then search rows key (mid + 1) hi else search rows key lo mid

(* Whether every basic vector of [join a b] is a member, walking them in
   ascending order up to the first miss. *)
let rec covers_walk s a b i acc =
  if i = s.n then begin
    s.key.(s.keys.w - 1) <- acc;
    search s.keys s.key 0 s.keys.count
  end
  else
    let acc = enter s.key i acc lsl 2 and d = bits a.(i) lor bits b.(i) in
    (d land 0b100 = 0 || covers_walk s a b (i + 1) acc)
    && (d land 0b010 = 0 || covers_walk s a b (i + 1) (acc lor 1))
    && (d land 0b001 = 0 || covers_walk s a b (i + 1) (acc lor 2))

let covers_join s a b =
  if Array.length a <> Array.length b then
    invalid_arg "Dirvec.join: length mismatch";
  Array.length a = s.n && covers_walk s a b 0 0

(* Unpacks row [r] of [n]-level keys. *)
let of_row n rows r =
  let v = Array.make n Lt in
  for i = 0 to n - 1 do
    let word = i / levels_per_word in
    let in_word = min levels_per_word (n - (word * levels_per_word)) in
    let shift = 2 * (in_word - 1 - (i mod levels_per_word)) in
    v.(i) <-
      (match (rows.data.((r * rows.w) + word) lsr shift) land 3 with
      | 0 -> Lt
      | 1 -> Eq
      | _ -> Gt)
  done;
  v

(* The basic vectors the members of length [n] admit, ascending. *)
let basics_of_length n vecs =
  let w = words n in
  let rows = { w; data = Array.make (8 * w) 0; count = 0 } in
  let key = Array.make w 0 in
  List.iter
    (fun v -> if Array.length v = n then push_basics rows v key 0 0)
    vecs;
  sort_uniq rows;
  List.init rows.count (of_row n rows)

let basics vecs =
  match vecs with
  | [] -> []
  | v :: rest ->
      let n = Array.length v in
      if List.for_all (fun v -> Array.length v = n) rest then
        basics_of_length n vecs
      else
        List.sort_uniq Int.compare (List.map Array.length vecs)
        |> List.concat_map (fun n -> basics_of_length n vecs)
