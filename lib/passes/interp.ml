module Ast = Dlz_ir.Ast
module Expr = Dlz_ir.Expr

type error =
  | Out_of_fuel of int
  | Zero_step
  | Undeclared_array of string
  | Arity_mismatch of string
  | Subscript_out_of_range of { array : string; sub : int; lo : int; hi : int }
  | Non_constant_bound of string
  | Negative_extent of string

exception Error of error

let err e = raise (Error e)

let describe = function
  | Out_of_fuel fuel -> Printf.sprintf "out of fuel (%d steps)" fuel
  | Zero_step -> "DO loop with zero step"
  | Undeclared_array a -> Printf.sprintf "undeclared array %s" a
  | Arity_mismatch a -> Printf.sprintf "subscript arity mismatch on %s" a
  | Subscript_out_of_range { array; sub; lo; hi } ->
      Printf.sprintf "subscript %d of %s out of [%d,%d]" sub array lo hi
  | Non_constant_bound a ->
      Printf.sprintf "non-constant bound on %s (missing ?syms entry?)" a
  | Negative_extent a -> Printf.sprintf "dimension of %s has hi < lo - 1" a

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Interp.Error: " ^ describe e)
    | _ -> None)

type kind = Read | Write
type instance = { stmt : int; iter : (string * int) list }
type event = { block : string; addr : int; kind : kind; at : instance option }

type array_info = {
  name : string;
  dims : (int * int) list; (* (lo, extent) per dimension *)
  mutable block : string;
  mutable base : int; (* offset of the array within its block *)
}

(* Column-major offset of an element within its array. *)
let offset info subs =
  let rec go dims subs stride acc =
    match (dims, subs) with
    | [], [] -> acc
    | (lo, extent) :: dims, s :: subs ->
        if s < lo || s >= lo + extent then
          err
            (Subscript_out_of_range
               { array = info.name; sub = s; lo; hi = lo + extent - 1 });
        go dims subs (stride * extent) (acc + ((s - lo) * stride))
    | _ -> err (Arity_mismatch info.name)
  in
  go info.dims subs 1 0

(* Storage layout: every array gets a block and a base offset in it. *)
let layout syms (p : Ast.program) =
  let const name e =
    match Expr.eval (fun v -> List.assoc v syms) e with
    | c -> c
    | exception (Not_found | Failure _ | Division_by_zero) ->
        err (Non_constant_bound name)
  in
  let arrays = Hashtbl.create 16 in
  List.iter
    (function
      | Ast.Array a ->
          let dims =
            List.map
              (fun (d : Ast.dim) ->
                let lo = const a.a_name d.lo in
                let extent = const a.a_name d.hi - lo + 1 in
                if extent < 0 then err (Negative_extent a.a_name);
                (lo, extent))
              a.a_dims
          in
          Hashtbl.replace arrays a.a_name
            { name = a.a_name; dims; block = a.a_name; base = 0 }
      | _ -> ())
    p.decls;
  (* COMMON sequence association: members share a block at consecutive
     base offsets. *)
  List.iter
    (function
      | Ast.Common (blk, members) ->
          ignore
            (List.fold_left
               (fun base name ->
                 match Hashtbl.find_opt arrays name with
                 | None -> base
                 | Some info ->
                     info.block <- "/" ^ blk;
                     info.base <- base;
                     base + List.fold_left (fun n (_, e) -> n * e) 1 info.dims)
               0 members)
      | _ -> ())
    p.decls;
  (* EQUIVALENCE: the listed elements share one storage cell.  A member's
     whole block joins the anchor's, so groups chain. *)
  let move src dst delta =
    Hashtbl.iter
      (fun _ info ->
        if info.block = src then begin
          info.block <- dst;
          info.base <- info.base + delta
        end)
      arrays
  in
  let cell (name, subs) =
    let info = Hashtbl.find arrays name in
    if subs = [] then (info.block, info.base)
    else (info.block, info.base + offset info (List.map (const name) subs))
  in
  List.iter
    (function
      | Ast.Equivalence groups ->
          List.iter
            (fun group ->
              match List.filter (fun (n, _) -> Hashtbl.mem arrays n) group with
              | [] -> ()
              | anchor :: rest ->
                  List.iter
                    (fun member ->
                      let ba, a = cell anchor and bm, m = cell member in
                      if ba <> bm then move bm ba (a - m))
                    rest)
            groups
      | _ -> ())
    p.decls;
  (* A storage sequence starts at its lowest member. *)
  let low = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ i ->
      let m = Option.value (Hashtbl.find_opt low i.block) ~default:0 in
      Hashtbl.replace low i.block (min m i.base))
    arrays;
  Hashtbl.iter (fun _ i -> i.base <- i.base - Hashtbl.find low i.block) arrays;
  arrays

let rec assigns body =
  List.fold_left
    (fun n -> function
      | Ast.Assign _ -> n + 1
      | Ast.Continue _ -> n
      | Ast.Do d -> n + assigns d.body)
    0 body

let exec ?(syms = []) ?(fuel = 20_000_000) f (p : Ast.program) =
  let arrays = layout syms p in
  let scalars : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (s, v) -> Hashtbl.replace scalars s v) syms;
  List.iter
    (function
      | Ast.Parameter ps ->
          List.iter (fun (n, v) -> Hashtbl.replace scalars n v) ps
      | _ -> ())
    p.decls;
  let memory : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  let access at info subs kind =
    let addr = info.base + offset info subs in
    f { block = info.block; addr; kind; at };
    (info.block, addr)
  in
  let rec eval at e =
    match e with
    | Expr.Const c -> c
    | Expr.Var v -> Option.value (Hashtbl.find_opt scalars v) ~default:0
    | Expr.Neg a -> -eval at a
    | Expr.Bin (op, a, b) -> (
        let x = eval at a and y = eval at b in
        match op with
        | Expr.Add -> x + y
        | Expr.Sub -> x - y
        | Expr.Mul -> x * y
        | Expr.Div -> if y = 0 then 0 else x / y)
    | Expr.Call ("%REAL", _) -> 0
    | Expr.Call ("%POW", [ b; e ]) ->
        let be = eval at b and ee = eval at e in
        if ee < 0 then 0
        else
          let rec pw acc n = if n = 0 then acc else pw (acc * be) (n - 1) in
          pw 1 ee
    | Expr.Call (f, args) -> (
        let vals = List.map (eval at) args in
        match Hashtbl.find_opt arrays f with
        | Some info ->
            Option.value
              (Hashtbl.find_opt memory (access at info vals Read))
              ~default:0
        | None ->
            (* Opaque call: deterministic small pseudo-value, kept in
               [0, 7] so the paper fragments' opaque subscripts (e.g.
               IFUN(10) indexing a 0:9 dimension) stay in range. *)
            List.fold_left (fun acc v -> (acc * 31) + v) (Hashtbl.hash f) vals
            land 0x7)
  in
  let steps = ref 0 in
  (* [id] is the static id of the first assignment in [s] (program order,
     as [Access] numbers them); returns the id that follows [s]. *)
  let rec exec iter id s =
    incr steps;
    if !steps > fuel then err (Out_of_fuel fuel);
    match s with
    | Ast.Continue _ -> id
    | Ast.Assign { lhs; rhs; _ } ->
        let at = Some { stmt = id; iter } in
        let v = eval at rhs in
        (match Hashtbl.find_opt arrays lhs.name with
        | Some info ->
            let subs = List.map (eval at) lhs.subs in
            Hashtbl.replace memory (access at info subs Write) v
        | None ->
            if lhs.subs <> [] then err (Undeclared_array lhs.name);
            Hashtbl.replace scalars lhs.name v);
        id + 1
    | Ast.Do d ->
        let lo = eval None d.lo
        and hi = eval None d.hi
        and step = eval None d.step in
        if step = 0 then err Zero_step;
        let continue v = if step > 0 then v <= hi else v >= hi in
        let v = ref lo in
        while continue !v do
          Hashtbl.replace scalars d.var !v;
          ignore (List.fold_left (exec (iter @ [ (d.var, !v) ])) id d.body);
          v := !v + step
        done;
        id + assigns d.body
  in
  ignore (List.fold_left (exec []) 0 p.body)

let run ?syms ?fuel p =
  let trace = ref [] in
  exec ?syms ?fuel (fun e -> trace := e :: !trace) p;
  List.rev !trace

let normalized (events : event list) =
  let ids = Hashtbl.create 8 in
  List.map
    (fun (e : event) ->
      let id =
        match Hashtbl.find_opt ids e.block with
        | Some i -> i
        | None ->
            let i = Hashtbl.length ids in
            Hashtbl.replace ids e.block i;
            i
      in
      (id, e.addr, e.kind))
    events

let equivalent a b = normalized a = normalized b
