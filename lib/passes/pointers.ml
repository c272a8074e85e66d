module C = Dlz_frontend.C_ast
module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

type pvalue = { base : string; off : Expr.t }

type env = {
  mutable arrays : (string * int list) list;
      (** Declared arrays with their constant extents, outermost
          first. *)
  mutable ints : string list;
  mutable pointers : (string * pvalue option) list;
      (** [None] until first assigned. *)
}

let is_array env n = List.mem_assoc n env.arrays
let array_rank env n =
  match List.assoc_opt n env.arrays with
  | Some dims -> List.length dims
  | None -> 0

let is_pointer env n = List.mem_assoc n env.pointers

(* [A[i][j]] parses as [EIndex (EIndex (EVar A, i), j)]; peel the chain
   down to the base variable and the subscript list, outermost first. *)
let rec peel_index (e : C.expr) acc =
  match e with
  | C.EIndex (a, i) -> peel_index a (i :: acc)
  | C.EVar v -> Some (v, acc)
  | _ -> None

let set_pointer env n v =
  env.pointers <-
    (n, Some v) :: List.remove_assoc n env.pointers

let pointer_value env n =
  match List.assoc_opt n env.pointers with
  | Some (Some v) -> v
  | Some None -> unsupported "pointer %s used before assignment" n
  | None -> unsupported "%s is not a pointer" n

let rec conv_int env (e : C.expr) : Expr.t =
  match e with
  | C.EInt k -> Expr.Const k
  | C.EFloat s ->
      (* Same idiom the F77 parser uses for real literals: an opaque
         %REAL call keeps the literal text out of the affine domain. *)
      Expr.Call ("%REAL", [ Expr.Var s ])
  | C.EVar v ->
      if is_pointer env v then
        unsupported "pointer %s used as an integer" v
      else Expr.Var v
  | C.ENeg a -> Expr.Neg (conv_int env a)
  | C.EBin (op, a, b) ->
      let o =
        match op with
        | `Add -> Expr.Add
        | `Sub -> Expr.Sub
        | `Mul -> Expr.Mul
        | `Div -> Expr.Div
      in
      Expr.Bin (o, conv_int env a, conv_int env b)
  | C.EDeref a ->
      let pv = conv_ptr env a in
      Expr.Call (pv.base, [ Expr.fold_consts pv.off ])
  | C.EIndex (a, i) -> (
      match multi_index env (C.EIndex (a, i)) with
      | Some (base, subs) -> Expr.Call (base, subs)
      | None ->
          let pv = conv_ptr env a in
          Expr.Call
            ( pv.base,
              [
                Expr.fold_consts
                  (Expr.Bin (Expr.Add, pv.off, conv_int env i));
              ] ))
  | C.ECall (f, args) -> Expr.Call (f, List.map (conv_int env) args)

(* A fully-subscripted access to a declared multi-dimensional array:
   [A[i][j]] with [double A[N][M]] maps to the multi-subscript aref
   [A(i, j)] (delinearization's native form).  Rank-1 arrays keep the
   pointer-offset path below so pointer/array mixing still works.
   Partially subscripting a multi-dimensional array has no meaning in
   the subset and is rejected. *)
and multi_index env (e : C.expr) : (string * Expr.t list) option =
  match peel_index e [] with
  | Some (base, subs) -> (
      let rank = array_rank env base in
      if rank < 2 then None
      else
        let k = List.length subs in
        if k = rank then
          Some
            (base, List.map (fun s -> Expr.fold_consts (conv_int env s)) subs)
        else
          unsupported "array %s has rank %d but is indexed with %d subscripts"
            base rank k)
  | None -> None

and conv_ptr env (e : C.expr) : pvalue =
  match e with
  | C.EVar v ->
      if is_array env v then
        if array_rank env v >= 2 then
          unsupported "pointer arithmetic over multi-dimensional array %s" v
        else { base = v; off = Expr.Const 0 }
      else if is_pointer env v then pointer_value env v
      else unsupported "%s is neither an array nor a pointer" v
  | C.EBin (`Add, a, b) -> (
      match try_ptr env a with
      | Some pv ->
          { pv with off = Expr.Bin (Expr.Add, pv.off, conv_int env b) }
      | None ->
          let pv = conv_ptr env b in
          { pv with off = Expr.Bin (Expr.Add, pv.off, conv_int env a) })
  | C.EBin (`Sub, a, b) ->
      let pv = conv_ptr env a in
      { pv with off = Expr.Bin (Expr.Sub, pv.off, conv_int env b) }
  | C.EIndex (a, i) ->
      (* &-free subset: fully-subscripted multi-dimensional accesses
         are handled by [multi_index] before this path is reached, so
         a subscript here is rank-1 pointer-style arithmetic. *)
      let pv = conv_ptr env a in
      { pv with off = Expr.Bin (Expr.Add, pv.off, conv_int env i) }
  | _ -> unsupported "expression is not a recognizable pointer"

and try_ptr env e = try Some (conv_ptr env e) with Unsupported _ -> None

let lvalue env (e : C.expr) : Ast.aref =
  match e with
  | C.EDeref a ->
      let pv = conv_ptr env a in
      { Ast.name = pv.base; subs = [ Expr.fold_consts pv.off ] }
  | C.EIndex (a, i) -> (
      match multi_index env (C.EIndex (a, i)) with
      | Some (base, subs) -> { Ast.name = base; subs }
      | None ->
          let pv = conv_ptr env a in
          {
            Ast.name = pv.base;
            subs =
              [
                Expr.fold_consts (Expr.Bin (Expr.Add, pv.off, conv_int env i));
              ];
          })
  | C.EVar v ->
      if is_pointer env v || is_array env v then
        unsupported "assignment to pointer %s outside a for-init" v
      else { Ast.name = v; subs = [] }
  | _ -> unsupported "unsupported lvalue"

let rec lower_stmt env decls (s : C.stmt) : Ast.stmt list =
  match s with
  | C.Decl (bt, ds) ->
      List.iter
        (fun (d : C.declarator) ->
          match (d.d_ptr, d.d_dims) with
          | true, _ -> env.pointers <- (d.d_name, None) :: env.pointers
          | false, (_ :: _ as dims) ->
              env.arrays <- (d.d_name, dims) :: env.arrays;
              decls :=
                Ast.Array
                  {
                    a_name = d.d_name;
                    a_kind = (match bt with C.Float -> Ast.Real | C.Int -> Ast.Integer);
                    a_dims =
                      List.map
                        (fun n ->
                          { Ast.lo = Expr.Const 0; hi = Expr.Const (n - 1) })
                        dims;
                  }
                :: !decls
          | false, [] ->
              env.ints <- d.d_name :: env.ints;
              decls :=
                Ast.Scalar
                  ((match bt with C.Float -> Ast.Real | C.Int -> Ast.Integer),
                   d.d_name)
                :: !decls)
        ds;
      []
  | C.Assign (lv, rv) -> (
      (* Pointer assignment in straight-line code updates the symbolic
         environment; everything else becomes an IR assignment. *)
      match lv with
      | C.EVar v when is_pointer env v ->
          set_pointer env v (conv_ptr env rv);
          []
      | _ ->
          let lhs = lvalue env lv in
          [ Ast.assign lhs (conv_int env rv) ])
  | C.For { decl; init; cond; step; body } ->
      let var = step.s_var in
      (* A C99 loop-scoped declaration declares the variable just as an
         [int i;] before the loop would — once per name. *)
      (match (decl, init) with
      | Some bt, Some (v, _)
        when not
               (List.exists
                  (function Ast.Scalar (_, n) -> String.equal n v | _ -> false)
                  !decls) ->
          ignore
            (lower_stmt env decls
               (C.Decl (bt, [ { C.d_ptr = false; d_name = v; d_dims = [] } ])))
      | _ -> ());
      (match cond.lhs with
      | C.EVar v when String.equal v var -> ()
      | _ -> unsupported "loop condition must test the loop variable");
      let pointer_loop = is_pointer env var in
      let lo, hi =
        if pointer_loop then begin
          let pv0 =
            match init with
            | Some (v, e) when String.equal v var -> conv_ptr env e
            | _ -> unsupported "pointer loop must initialize its variable"
          in
          let bound = conv_ptr env cond.rhs in
          if not (String.equal bound.base pv0.base) then
            unsupported "pointer loop bound crosses arrays (%s vs %s)"
              pv0.base bound.base;
          (* The pointer variable becomes an integer offset into the
             base array for the duration of the loop. *)
          set_pointer env var { base = pv0.base; off = Expr.Var var };
          (pv0.off, bound.off)
        end
        else begin
          let lo =
            match init with
            | Some (v, e) when String.equal v var -> conv_int env e
            | Some _ -> unsupported "for-init must assign the loop variable"
            | None -> unsupported "missing loop initialization"
          in
          (lo, conv_int env cond.rhs)
        end
      in
      let hi =
        let open Expr in
        match (cond.op, step.s_delta > 0) with
        | `Lt, true -> fold_consts (Bin (Sub, hi, Const 1))
        | `Le, true -> hi
        | `Gt, false -> fold_consts (Bin (Add, hi, Const 1))
        | `Ge, false -> hi
        | _ -> unsupported "loop condition and step disagree on direction"
      in
      let body' = List.concat_map (lower_stmt env decls) body in
      [ Ast.do_ ~step:(Expr.Const step.s_delta) var lo hi body' ]

let lower (p : C.program) =
  let env = { arrays = []; ints = []; pointers = [] } in
  let decls = ref [] in
  let body = List.concat_map (lower_stmt env decls) p in
  { Ast.p_name = "CFRAG"; decls = List.rev !decls; body }
