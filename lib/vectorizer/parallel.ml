module Ast = Dlz_ir.Ast

type loop_report = {
  lr_var : string;
  lr_level : int;
  lr_path : string list;
  lr_parallel : bool;
  lr_carried : int;
}

(* Each loop with the statement ids inside it.  Statements are numbered
   in program order, so a loop's ids are one range [first, last). *)
let loops_with_stmts (p : Ast.program) =
  let counter = ref 0 in
  let loops = ref [] in
  let rec go rev_path level = function
    | Ast.Assign _ -> incr counter
    | Ast.Continue _ -> ()
    | Ast.Do d ->
        let first = !counter in
        List.iter (go (d.var :: rev_path) (level + 1)) d.body;
        loops :=
          (d.var, level + 1, List.rev rev_path, first, !counter) :: !loops
  in
  List.iter (go [] 0) p.body;
  List.rev !loops

let of_graph p (graph : Depgraph.t) =
  List.map
    (fun (var, level, path, first, last) ->
      let inside id = first <= id && id < last in
      let carried =
        List.fold_left
          (fun n (e : Depgraph.edge) ->
            if
              e.Depgraph.e_level = level
              && inside e.Depgraph.e_src && inside e.Depgraph.e_dst
            then n + 1
            else n)
          0 graph.Depgraph.edges
      in
      {
        lr_var = var;
        lr_level = level;
        lr_path = path;
        lr_parallel = carried = 0;
        lr_carried = carried;
      })
    (loops_with_stmts p)

let report ?mode ?cascade ?budget ?env p =
  of_graph p (Depgraph.build ?mode ?cascade ?budget ?env p)

let fully_parallel reports = List.for_all (fun r -> r.lr_parallel) reports
