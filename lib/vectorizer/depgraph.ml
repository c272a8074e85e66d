module Dirvec = Dlz_deptest.Dirvec
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Verdict = Dlz_deptest.Verdict
module Classify = Dlz_deptest.Classify
module Analyze = Dlz_engine.Analyze
module Engine = Dlz_engine.Engine
module Strategy = Dlz_engine.Strategy

type edge = {
  e_src : int;
  e_dst : int;
  e_vec : Dirvec.t;
  e_level : int;
  e_kind : Classify.kind;
}

type t = { nstmts : int; stmt_names : string array; edges : edge list }

(* First level whose component is not '=': the carrying level. *)
let classify_vec v =
  let n = Array.length v in
  let rec go i =
    if i >= n then `LoopIndependent
    else
      match v.(i) with
      | Dirvec.Eq -> go (i + 1)
      | Dirvec.Lt -> `Forward (i + 1)
      | Dirvec.Gt -> `Backward (i + 1)
      | _ -> `Forward (i + 1) (* non-basic: conservatively forward *)
  in
  go 0

let is_identity v = Array.for_all (function Dirvec.Eq -> true | _ -> false) v

(* Edges contributed by one candidate pair, from its answer, consed
   onto [acc]: one per basic vector the answer admits. *)
let edges_of_pair (pr : Engine.pair) (r : Strategy.result) acc =
  let a = pr.Engine.src and b = pr.Engine.dst in
  let add src dst vec level acc =
    {
      e_src = src.Access.stmt_id;
      e_dst = dst.Access.stmt_id;
      e_vec = vec;
      e_level = level;
      e_kind = Classify.kind ~src:src.Access.rw ~dst:dst.Access.rw;
    }
    :: acc
  in
  let edge acc v =
    (* The identity instance of a single reference is not a
       dependence. *)
    if pr.Engine.self && is_identity v then acc
    else
      match classify_vec v with
      | `Forward lvl -> add a b v lvl acc
      | `Backward lvl -> add b a (Dirvec.reverse v) lvl acc
      | `LoopIndependent ->
          (* Same statement: the read executes before the write;
             within-statement flow does not constrain loop
             rearrangement.  Across statements, orient by textual
             order. *)
          if a.Access.stmt_id < b.Access.stmt_id then add a b v max_int acc
          else if b.Access.stmt_id < a.Access.stmt_id then
            add b a v max_int acc
          else acc
  in
  if r.Strategy.verdict = Verdict.Independent then acc
  else List.fold_left edge acc (Dirvec.basics r.Strategy.dirvecs)

let kind_rank = function
  | Classify.True -> 0
  | Classify.Anti -> 1
  | Classify.Output -> 2
  | Classify.Input -> 3

(* [Stdlib.compare]'s order on edges (fields in declaration order),
   without the polymorphic comparison. *)
let compare_edge x y =
  let c = Int.compare x.e_src y.e_src in
  if c <> 0 then c
  else
    let c = Int.compare x.e_dst y.e_dst in
    if c <> 0 then c
    else
      let c = Dirvec.compare x.e_vec y.e_vec in
      if c <> 0 then c
      else
        let c = Int.compare x.e_level y.e_level in
        if c <> 0 then c
        else Int.compare (kind_rank x.e_kind) (kind_rank y.e_kind)

let of_pairs accs solved =
  let nstmts =
    List.fold_left (fun m a -> max m (a.Access.stmt_id + 1)) 0 accs
  in
  let stmt_names = Array.make nstmts "" in
  List.iter (fun a -> stmt_names.(a.Access.stmt_id) <- a.Access.stmt_name) accs;
  let edges =
    List.fold_left
      (fun acc (s : Analyze.solved) ->
        edges_of_pair s.Analyze.pair s.Analyze.settled acc)
      [] solved
  in
  (* Deduplicate identical edges (also fixes the final order). *)
  let edges = List.sort_uniq compare_edge edges in
  { nstmts; stmt_names; edges }

let build ?mode ?cascade ?budget ?(env = Assume.empty) prog =
  Dlz_base.Trace.with_span ~cat:"driver" "depgraph.build" @@ fun () ->
  let accs, env = Access.of_program ~env prog in
  of_pairs accs (Analyze.pass ?mode ?cascade ?budget ~env accs)

let edges_at_level g level =
  List.filter (fun e -> e.e_level >= level) g.edges

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%s -> %s %s level %s [%s]@,"
        g.stmt_names.(e.e_src) g.stmt_names.(e.e_dst)
        (Dirvec.to_string e.e_vec)
        (if e.e_level = max_int then "inf" else string_of_int e.e_level)
        (Classify.to_string e.e_kind))
    g.edges;
  Format.fprintf ppf "@]"
