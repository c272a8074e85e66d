open C_ast

type token =
  | TINT of int
  | TFLOAT of string
  | TID of string
  | TLP | TRP | TLB | TRB | TLC | TRC
  | TSEMI | TCOMMA | TSTAR | TPLUS | TMINUS | TSLASH
  | TASSIGN | TLT | TLE | TGT | TGE
  | TINCR | TDECR | TPLUSEQ | TMINUSEQ
  | TEOF

(* The tokenizer performs a one-pass constant substitution for
   [#define NAME <int>] directives, mirroring the F77 PARAMETER
   handling: any later identifier occurrence of NAME is emitted as a
   TINT.  Macros must be defined before use and may not be redefined.
   All other directives (#include, #pragma, ...) are skipped to end of
   line. *)
let tokenize src =
  let toks = ref [] in
  let line = ref 1 and col = ref 1 in
  let n = String.length src in
  let i = ref 0 in
  let macros : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let here () = { Diag.line = !line; col = !col } in
  let push t loc = toks := (t, loc) :: !toks in
  let is_digit c = c >= '0' && c <= '9' in
  let is_alpha c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  (* Advance over [k] non-newline characters. *)
  let adv k = i := !i + k; col := !col + k in
  let newline () = incr i; incr line; col := 1 in
  let skip_hspace () =
    while !i < n && (src.[!i] = ' ' || src.[!i] = '\t' || src.[!i] = '\r') do
      adv 1
    done
  in
  let skip_to_eol () = while !i < n && src.[!i] <> '\n' do adv 1 done in
  let read_word () =
    let start = !i in
    while !i < n && (is_alpha src.[!i] || is_digit src.[!i]) do adv 1 done;
    String.sub src start (!i - start)
  in
  (* Typed failure on oversized literals: [int_of_string] raising a bare
     Failure would escape the Diag.Parse_error taxonomy. *)
  let int_value loc text =
    match int_of_string_opt text with
    | Some k -> k
    | None ->
        Diag.error loc "integer literal %s does not fit in a native int" text
  in
  let read_int () =
    let loc = here () in
    let text = read_word () in
    (loc, int_value loc text)
  in
  let lex_number () =
    let loc = here () in
    let start = !i in
    while !i < n && is_digit src.[!i] do adv 1 done;
    let has_frac = !i < n && src.[!i] = '.' in
    if has_frac then begin
      adv 1;
      while !i < n && is_digit src.[!i] do adv 1 done
    end;
    let exp_at =
      (* Exponent only counts with at least one digit after the
         optional sign; otherwise 'e' starts an identifier. *)
      if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then
        let j = if !i + 1 < n && (src.[!i + 1] = '+' || src.[!i + 1] = '-')
                then !i + 2 else !i + 1 in
        if j < n && is_digit src.[j] then Some j else None
      else None
    in
    (match exp_at with
    | Some j ->
        adv (j - !i);
        while !i < n && is_digit src.[!i] do adv 1 done
    | None -> ());
    let text = String.sub src start (!i - start) in
    if has_frac || exp_at <> None then push (TFLOAT text) loc
    else push (TINT (int_value loc text)) loc
  in
  let lex_directive () =
    adv 1 (* '#' *);
    skip_hspace ();
    let word = read_word () in
    if String.equal word "define" then begin
      skip_hspace ();
      let nloc = here () in
      let name = read_word () in
      if String.equal name "" then
        Diag.error nloc "expected a macro name after #define";
      if Hashtbl.mem macros name then
        Diag.error nloc "macro %s redefined" name;
      skip_hspace ();
      let vloc = here () in
      let parens = !i < n && src.[!i] = '(' in
      if parens then begin adv 1; skip_hspace () end;
      let neg = !i < n && src.[!i] = '-' in
      if neg then begin adv 1; skip_hspace () end;
      let v =
        if !i < n && is_digit src.[!i] then snd (read_int ())
        else begin
          let mloc = here () in
          let id = read_word () in
          if String.equal id "" then
            Diag.error vloc "expected an integer constant in #define %s" name;
          match Hashtbl.find_opt macros id with
          | Some v -> v
          | None -> Diag.error mloc "%s is not a defined macro" id
        end
      in
      let v = if neg then -v else v in
      if parens then begin
        skip_hspace ();
        if !i < n && src.[!i] = ')' then adv 1
        else Diag.error (here ()) "expected ')' in #define %s" name
      end;
      Hashtbl.add macros name v;
      skip_to_eol ()
    end
    else skip_to_eol ()
  in
  let lex_block_comment () =
    let opening = here () in
    adv 2 (* "/*" *);
    let closed = ref false in
    while not !closed do
      if !i + 1 >= n then
        (* Unterminated comment: a located error, not silent
           truncation of the rest of the file. *)
        Diag.error opening "unterminated block comment (missing '*/')"
      else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
        adv 2;
        closed := true
      end
      else if src.[!i] = '\n' then newline ()
      else adv 1
    done
  in
  while !i < n do
    let c = src.[!i] in
    let peek1 = if !i + 1 < n then Some src.[!i + 1] else None in
    if c = '\n' then newline ()
    else if c = ' ' || c = '\t' || c = '\r' then adv 1
    else if c = '/' && peek1 = Some '/' then
      (* A line comment runs to the newline; reaching EOF without one
         is a clean end of input. *)
      skip_to_eol ()
    else if c = '/' && peek1 = Some '*' then lex_block_comment ()
    else if c = '#' then lex_directive ()
    else if is_digit c then lex_number ()
    else if is_alpha c then begin
      let loc = here () in
      let text = read_word () in
      match Hashtbl.find_opt macros text with
      | Some v -> push (TINT v) loc
      | None -> push (TID text) loc
    end
    else begin
      let loc = here () in
      let two t = push t loc; adv 2 in
      let one t = push t loc; adv 1 in
      match (c, peek1) with
      | '+', Some '+' -> two TINCR
      | '-', Some '-' -> two TDECR
      | '+', Some '=' -> two TPLUSEQ
      | '-', Some '=' -> two TMINUSEQ
      | '<', Some '=' -> two TLE
      | '>', Some '=' -> two TGE
      | '(', _ -> one TLP
      | ')', _ -> one TRP
      | '[', _ -> one TLB
      | ']', _ -> one TRB
      | '{', _ -> one TLC
      | '}', _ -> one TRC
      | ';', _ -> one TSEMI
      | ',', _ -> one TCOMMA
      | '*', _ -> one TSTAR
      | '+', _ -> one TPLUS
      | '-', _ -> one TMINUS
      | '/', _ -> one TSLASH
      | '=', _ -> one TASSIGN
      | '<', _ -> one TLT
      | '>', _ -> one TGT
      | _ -> Diag.error loc "unexpected character %C" c
    end
  done;
  push TEOF (here ());
  List.rev !toks

type state = {
  mutable toks : (token * Diag.loc) list;
  mutable last : Diag.loc;
}

(* The lexer always terminates the stream with TEOF, so an empty token
   list means something consumed past it — malformed input, never a
   crash: report it at the last location seen. *)
let peek st =
  match st.toks with
  | [] -> Diag.error st.last "unexpected end of input"
  | t :: _ -> t

let next st =
  let t = peek st in
  st.last <- snd t;
  (match st.toks with [] -> () | _ :: r -> st.toks <- r);
  t

let expect st tok what =
  let t, loc = next st in
  if t <> tok then Diag.error loc "expected %s" what

(* --- expressions -------------------------------------------------------- *)

let rec parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let rec loop () =
    match fst (peek st) with
    | TPLUS ->
        ignore (next st);
        lhs := EBin (`Add, !lhs, parse_multiplicative st);
        loop ()
    | TMINUS ->
        ignore (next st);
        lhs := EBin (`Sub, !lhs, parse_multiplicative st);
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let rec loop () =
    match fst (peek st) with
    | TSTAR ->
        ignore (next st);
        lhs := EBin (`Mul, !lhs, parse_unary st);
        loop ()
    | TSLASH ->
        ignore (next st);
        lhs := EBin (`Div, !lhs, parse_unary st);
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_unary st =
  match fst (peek st) with
  | TMINUS ->
      ignore (next st);
      ENeg (parse_unary st)
  | TSTAR ->
      ignore (next st);
      EDeref (parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let rec loop () =
    match fst (peek st) with
    | TLB ->
        ignore (next st);
        let idx = parse_additive st in
        expect st TRB "']'";
        e := EIndex (!e, idx);
        loop ()
    | _ -> ()
  in
  loop ();
  !e

and parse_primary st =
  let t, loc = next st in
  match t with
  | TINT k -> EInt k
  | TFLOAT s -> EFloat s
  | TLP ->
      let e = parse_additive st in
      expect st TRP "')'";
      e
  | TID name -> (
      match fst (peek st) with
      | TLP ->
          ignore (next st);
          let args = ref [] in
          (if fst (peek st) <> TRP then
             let rec loop () =
               args := parse_additive st :: !args;
               if fst (peek st) = TCOMMA then begin
                 ignore (next st);
                 loop ()
               end
             in
             loop ());
          expect st TRP "')'";
          ECall (name, List.rev !args)
      | _ -> EVar name)
  | _ -> Diag.error loc "expected an expression"

(* --- statements --------------------------------------------------------- *)

(* Every diagnostic below points at the offending token's own location,
   taken from [next st] — never at the statement-start loc (which an
   earlier version shadowed into all the step/condition errors). *)
let parse_step st =
  let t, loc = next st in
  match t with
  | TID v -> (
      let t2, loc2 = next st in
      match t2 with
      | TINCR -> { s_var = v; s_delta = 1 }
      | TDECR -> { s_var = v; s_delta = -1 }
      | TPLUSEQ -> (
          match next st with
          | TINT k, _ -> { s_var = v; s_delta = k }
          | _, loc3 -> Diag.error loc3 "expected a constant step")
      | TMINUSEQ -> (
          match next st with
          | TINT k, _ -> { s_var = v; s_delta = -k }
          | _, loc3 -> Diag.error loc3 "expected a constant step")
      | _ -> Diag.error loc2 "expected ++, --, += or -=")
  | _ -> Diag.error loc "expected the loop variable in the step"

let rec parse_stmt st =
  let t, _loc = peek st in
  match t with
  | TID ("float" | "int" | "double") ->
      let bt = if t = TID "int" then Int else Float in
      ignore (next st);
      let ds = ref [] in
      let rec item () =
        let ptr =
          if fst (peek st) = TSTAR then begin
            ignore (next st);
            true
          end
          else false
        in
        (match next st with
        | TID name, _ ->
            let dims = ref [] in
            while fst (peek st) = TLB do
              ignore (next st);
              (match next st with
              | TINT k, _ -> dims := k :: !dims
              | _, loc -> Diag.error loc "expected a constant array size");
              expect st TRB "']'"
            done;
            ds := { d_ptr = ptr; d_name = name; d_dims = List.rev !dims }
                  :: !ds
        | _, loc -> Diag.error loc "expected a declarator");
        if fst (peek st) = TCOMMA then begin
          ignore (next st);
          item ()
        end
      in
      item ();
      expect st TSEMI "';'";
      Decl (bt, List.rev !ds)
  | TID "for" ->
      ignore (next st);
      expect st TLP "'('";
      let decl =
        match fst (peek st) with
        | TID ("float" | "int" | "double") as t ->
            ignore (next st);
            Some (if t = TID "int" then Int else Float)
        | _ -> None
      in
      let init =
        if decl = None && fst (peek st) = TSEMI then begin
          ignore (next st);
          None
        end
        else
          match next st with
          | TID v, _ ->
              expect st TASSIGN "'='";
              let e = parse_additive st in
              expect st TSEMI "';'";
              Some (v, e)
          | _, loc -> Diag.error loc "expected the loop initialization"
      in
      let lhs = parse_additive st in
      let opt, oloc = next st in
      let op =
        match opt with
        | TLT -> `Lt
        | TLE -> `Le
        | TGT -> `Gt
        | TGE -> `Ge
        | _ -> Diag.error oloc "expected a comparison in the loop condition"
      in
      let rhs = parse_additive st in
      expect st TSEMI "';'";
      let step = parse_step st in
      expect st TRP "')'";
      let body =
        if fst (peek st) = TLC then begin
          ignore (next st);
          let stmts = ref [] in
          while fst (peek st) <> TRC do
            stmts := parse_stmt st :: !stmts
          done;
          ignore (next st);
          List.rev !stmts
        end
        else [ parse_stmt st ]
      in
      For { decl; init; cond = { lhs; op; rhs }; step; body }
  | _ ->
      let lv = parse_additive st in
      let t, loc = next st in
      let rv =
        match t with
        | TASSIGN -> parse_additive st
        | TPLUSEQ -> EBin (`Add, lv, parse_additive st)
        | TMINUSEQ -> EBin (`Sub, lv, parse_additive st)
        | _ -> Diag.error loc "expected '='"
      in
      expect st TSEMI "';'";
      Assign (lv, rv)

(* Skip a parameter list, tracking nesting; [depth] is the number of
   open parentheses already consumed. *)
let rec skip_params st depth =
  let t, loc = next st in
  match t with
  | TLP -> skip_params st (depth + 1)
  | TRP -> if depth > 1 then skip_params st (depth - 1)
  | TEOF -> Diag.error loc "unterminated parameter list"
  | _ -> skip_params st depth

let parse src =
  let st = { toks = tokenize src; last = { Diag.line = 1; col = 1 } } in
  let stmts = ref [] in
  let rec top () =
    match st.toks with
    | [] | (TEOF, _) :: _ -> ()
    | (TID ("static" | "inline"), _) :: _ ->
        ignore (next st);
        top ()
    | (TID ("void" | "int" | "float" | "double"), _)
      :: (TID _, _) :: (TLP, _) :: _ ->
        (* A [kernel(...) { ... }] function wrapper is transparent: its
           body is inlined into the program so raw polybench-style
           files load without hand-editing. *)
        ignore (next st);
        ignore (next st);
        ignore (next st);
        skip_params st 1;
        expect st TLC "'{'";
        while fst (peek st) <> TRC do
          stmts := parse_stmt st :: !stmts
        done;
        ignore (next st);
        top ()
    | _ ->
        stmts := parse_stmt st :: !stmts;
        top ()
  in
  top ();
  List.rev !stmts

let parse_expr src =
  let st = { toks = tokenize src; last = { Diag.line = 1; col = 1 } } in
  parse_additive st
