module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

type group = { members : string list; repl : string; kept_dims : int }

type shape = { lo : int; extent : int }
(* One dimension: declared [lo : lo+extent-1]. *)

let shapes_of (a : Ast.array_decl) =
  List.map
    (fun (d : Ast.dim) ->
      match (Expr.to_const d.lo, Expr.to_const d.hi) with
      | Some l, Some h when h >= l -> { lo = l; extent = h - l + 1 }
      | _ -> raise Exit)
    a.a_dims

(* Longest trailing run of dimensions with identical extents across all
   member shapes (ranks may differ: compare from the end). *)
let common_suffix shapes_list =
  match shapes_list with
  | [] -> 0
  | first :: rest ->
      let extents s = List.rev_map (fun d -> d.extent) s in
      let firsts = extents first in
      let min_rank =
        List.fold_left
          (fun acc s -> min acc (List.length s))
          (List.length first) rest
      in
      let rec run k =
        if k >= min_rank then k
        else
          let ok =
            List.for_all
              (fun s -> List.nth (extents s) k = List.nth firsts k)
              rest
          in
          if ok then run (k + 1) else k
      in
      (* Never keep every dimension of every member: at least one leading
         dimension must fold or there is nothing to do. *)
      min (run 0) (min_rank - 1)

let leading_product shapes kept =
  let lead = List.filteri (fun i _ -> i < List.length shapes - kept) shapes in
  List.fold_left (fun acc d -> acc * d.extent) 1 lead

(* Column-major linear offset of the leading subscripts (0-based), plus
   the member's base offset in the replacement array. *)
let linear_subscript base shapes kept subs =
  let n = List.length shapes in
  let lead_n = n - kept in
  let rec go i stride acc shapes subs =
    if i >= lead_n then acc
    else
      match (shapes, subs) with
      | sh :: shs, sb :: sbs ->
          let zero_based =
            Expr.fold_consts (Expr.Bin (Expr.Sub, sb, Expr.Const sh.lo))
          in
          let term =
            Expr.fold_consts
              (Expr.Bin (Expr.Mul, Expr.Const stride, zero_based))
          in
          go (i + 1) (stride * sh.extent)
            (Expr.fold_consts (Expr.Bin (Expr.Add, acc, term)))
            shs sbs
      | _ -> failwith "linear_subscript: arity mismatch"
  in
  go 0 1 (Expr.Const base) shapes subs

(* Offset of an EQUIVALENCE element within its array; raises [Exit]
   unless its subscripts are constants of the declared rank. *)
let element_offset shapes subs =
  if subs = [] then 0
  else if List.length subs <> List.length shapes then raise Exit
  else
    match Expr.to_const (linear_subscript 0 shapes 0 subs) with
    | Some c -> c
    | None -> raise Exit

let rewrite_refs prog
    (infos : (string * (shape list * int * int * string)) list) =
  let find name = List.assoc_opt name infos in
  let trailing_subs shapes kept subs =
    let lead_n = List.length shapes - kept in
    List.filteri (fun i _ -> i >= lead_n) (List.combine subs shapes)
    |> List.map (fun (sb, sh) ->
           Expr.fold_consts (Expr.Bin (Expr.Sub, sb, Expr.Const sh.lo)))
  in
  let rec rw_expr e =
    match e with
    | Expr.Const _ | Expr.Var _ -> e
    | Expr.Neg a -> Expr.Neg (rw_expr a)
    | Expr.Bin (op, a, b) -> Expr.Bin (op, rw_expr a, rw_expr b)
    | Expr.Call (f, args) -> (
        let args = List.map rw_expr args in
        match find f with
        | Some (shapes, kept, base, repl)
          when List.length args = List.length shapes ->
            let lin = linear_subscript base shapes kept args in
            Expr.Call (repl, lin :: trailing_subs shapes kept args)
        | _ -> Expr.Call (f, args))
  in
  let rw_aref (r : Ast.aref) =
    let subs = List.map rw_expr r.subs in
    match find r.name with
    | Some (shapes, kept, base, repl) when List.length subs = List.length shapes
      ->
        let lin = linear_subscript base shapes kept subs in
        { Ast.name = repl; subs = lin :: trailing_subs shapes kept subs }
    | _ -> { r with subs }
  in
  Ast.map_stmts
    (function
      | Ast.Assign { label; lhs; rhs } ->
          Ast.Assign { label; lhs = rw_aref lhs; rhs = rw_expr rhs }
      | s -> s)
    prog

(* Storage associations: an EQUIVALENCE group, or the arrays of a
   COMMON block that shares a member with one (scalars take no storage,
   as in [Interp]). *)
type assoc = Equiv of (string * Expr.t list) list | Block of string list

let names_of = function Equiv g -> List.map fst g | Block ms -> ms

(* Associations connected through shared members, each component started
   by an EQUIVALENCE group (a COMMON block alone is left to
   [Common_assoc]). *)
let rec components = function
  | (Equiv _ as a) :: rest ->
      let rec grow comp names rest =
        match
          List.partition
            (fun a -> List.exists (fun n -> List.mem n names) (names_of a))
            rest
        with
        | [], _ -> (comp, rest)
        | touching, others ->
            grow (comp @ touching)
              (names @ List.concat_map names_of touching)
              others
      in
      let comp, rest = grow [ a ] (names_of a) rest in
      comp :: components rest
  | _ -> []

(* Offset of each member's first element in the component's storage:
   every association puts its listed cells at one position.  Raises
   [Exit] on an undeclared or non-constant member, or on associations
   that contradict each other. *)
let place shape_of comp =
  let cells = function
    | Equiv g ->
        List.map (fun (n, subs) -> (n, element_offset (shape_of n) subs)) g
    | Block ms ->
        snd
          (List.fold_left_map
             (fun base m -> (base + leading_product (shape_of m) 0, (m, -base)))
             0 ms)
  in
  let rel = Hashtbl.create 8 in
  let put cs =
    let m, c = List.find (fun (n, _) -> Hashtbl.mem rel n) cs in
    let at = Hashtbl.find rel m + c in
    List.iter
      (fun (n, c) ->
        match Hashtbl.find_opt rel n with
        | Some r when r <> at - c -> raise Exit
        | Some _ -> ()
        | None -> Hashtbl.replace rel n (at - c))
      cs
  in
  let rec go pending =
    match
      List.partition (List.exists (fun (n, _) -> Hashtbl.mem rel n)) pending
    with
    | [], _ -> ()
    | ready, later ->
        List.iter put ready;
        go later
  in
  let all = List.map cells comp in
  (match all with ((n, c) :: _) :: _ -> Hashtbl.replace rel n (-c) | _ -> ());
  go all;
  rel

let linearize (prog : Ast.program) =
  let assocs =
    List.concat_map
      (function Ast.Equivalence gs -> List.map (fun g -> Equiv g) gs | _ -> [])
      prog.decls
    @ List.filter_map
        (function
          | Ast.Common (_, ms) ->
              let declared m = Ast.find_array prog m <> None in
              Some (Block (List.filter declared ms))
          | _ -> None)
        prog.decls
  in
  let shape_of n =
    match Ast.find_array prog n with Some d -> shapes_of d | None -> raise Exit
  in
  let results = ref [] in
  let infos = ref [] in
  let new_decls = ref [] in
  let counter = ref 0 in
  List.iter
    (fun comp ->
      let names =
        List.fold_left
          (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
          [] (List.concat_map names_of comp)
      in
      try
        let rel = place shape_of comp in
        let shapes = List.map shape_of names in
        let rels = List.map (Hashtbl.find rel) names in
        let low = List.fold_left min max_int rels in
        let bases = List.map (fun r -> r - low) rels in
        let kept = common_suffix shapes in
        let products =
          List.map (fun s -> leading_product s kept) shapes
        in
        let kept, total =
          match products with
          | p0 :: rest
            when List.for_all (( = ) 0) bases && List.for_all (( = ) p0) rest
            ->
              (kept, p0)
          | _ ->
              (* The partial-dimension policy does not apply: fold every
                 dimension, each member at its storage offset (the
                 lowest member starts the array). *)
              let ends =
                List.map2 (fun b s -> b + leading_product s 0) bases shapes
              in
              (0, List.fold_left max 0 ends)
        in
        incr counter;
        let repl = Printf.sprintf "LIN%d" !counter in
        let kind =
          match Ast.find_array prog (List.hd names) with
          | Some d -> d.a_kind
          | None -> Ast.Real
        in
        (* Trailing dims are shared by construction. *)
        let trailing =
          match shapes with
          | s :: _ ->
              List.filteri (fun i _ -> i >= List.length s - kept) s
          | [] -> []
        in
        let dim n = { Ast.lo = Expr.Const 0; hi = Expr.Const (n - 1) } in
        let dims = dim total :: List.map (fun sh -> dim sh.extent) trailing in
        new_decls := Ast.Array { a_name = repl; a_kind = kind; a_dims = dims } :: !new_decls;
        List.iter2
          (fun name (s, base) ->
            infos := (name, (s, kept, base, repl)) :: !infos)
          names
          (List.combine shapes bases);
        results := { members = names; repl; kept_dims = kept } :: !results
      with Exit ->
        results := { members = names; repl = ""; kept_dims = -1 } :: !results)
    (components assocs);
  let prog = rewrite_refs prog !infos in
  (* Drop the folded arrays' declarations, and the EQUIVALENCE groups and
     COMMON blocks they absorbed; keep everything else. *)
  let handled name = List.mem_assoc name !infos in
  let decls =
    List.filter_map
      (function
        | Ast.Array a when handled a.a_name -> None
        | Ast.Common (_, ms) when List.exists handled ms -> None
        | Ast.Equivalence gs ->
            let remaining =
              List.filter
                (fun g -> not (List.for_all (fun (n, _) -> handled n) g))
                gs
            in
            if remaining = [] then None else Some (Ast.Equivalence remaining)
        | d -> Some d)
      prog.decls
  in
  ( { prog with decls = decls @ List.rev !new_decls },
    List.rev !results )
