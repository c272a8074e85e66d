type base_type = Float | Int

(* [d_dims] lists the constant extents of each array dimension, outermost
   first ([] = scalar): [double A[N][M]] carries [[N; M]]. *)
type declarator = { d_ptr : bool; d_name : string; d_dims : int list }

type expr =
  | EInt of int
  | EFloat of string  (** opaque real literal, kept as written *)
  | EVar of string
  | ENeg of expr
  | EDeref of expr
  | EBin of [ `Add | `Sub | `Mul | `Div ] * expr * expr
  | EIndex of expr * expr
  | ECall of string * expr list

type cond = { lhs : expr; op : [ `Lt | `Le | `Gt | `Ge ]; rhs : expr }
type step = { s_var : string; s_delta : int }

type stmt =
  | Decl of base_type * declarator list
  | For of { decl : base_type option; init : (string * expr) option;
             cond : cond; step : step; body : stmt list }
  | Assign of expr * expr

type program = stmt list

let rec pp_expr ppf = function
  | EInt k -> Format.fprintf ppf "%d" k
  | EFloat s -> Format.pp_print_string ppf s
  | EVar v -> Format.pp_print_string ppf v
  | ENeg e -> Format.fprintf ppf "-(%a)" pp_expr e
  | EDeref e -> Format.fprintf ppf "*(%a)" pp_expr e
  | EBin (op, a, b) ->
      let s =
        match op with `Add -> "+" | `Sub -> "-" | `Mul -> "*" | `Div -> "/"
      in
      Format.fprintf ppf "(%a%s%a)" pp_expr a s pp_expr b
  | EIndex (a, i) -> Format.fprintf ppf "%a[%a]" pp_expr a pp_expr i
  | ECall (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_expr)
        args

let string_of_base_type = function Float -> "float" | Int -> "int"

let rec pp_stmt ppf = function
  | Decl (bt, ds) ->
      Format.fprintf ppf "%s %s;" (string_of_base_type bt)
        (String.concat ", "
           (List.map
              (fun d ->
                (if d.d_ptr then "*" else "")
                ^ d.d_name
                ^ String.concat ""
                    (List.map (Printf.sprintf "[%d]") d.d_dims))
              ds))
  | Assign (l, r) -> Format.fprintf ppf "%a = %a;" pp_expr l pp_expr r
  | For { decl; init; cond; step; body } ->
      let op_str =
        match cond.op with `Lt -> "<" | `Le -> "<=" | `Gt -> ">" | `Ge -> ">="
      in
      Format.fprintf ppf "@[<v 2>for(%s %a%s%a; %s) {"
        (match init with
        | Some (v, e) ->
            Format.asprintf "%s%s=%a;"
              (Option.fold ~none:""
                 ~some:(fun t -> string_of_base_type t ^ " ")
                 decl)
              v pp_expr e
        | None -> ";")
        pp_expr cond.lhs op_str pp_expr cond.rhs
        (if step.s_delta = 1 then step.s_var ^ "++"
         else Printf.sprintf "%s+=%d" step.s_var step.s_delta);
      List.iter (fun s -> Format.fprintf ppf "@,%a" pp_stmt s) body;
      Format.fprintf ppf "@]@,}"

let pp ppf p =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf "@,";
      pp_stmt ppf s)
    p;
  Format.fprintf ppf "@]"
