type eq_test = dirs:(int -> Dirvec.dir) -> Depeq.t -> Verdict.t

let gcd_banerjee ~dirs eq =
  Verdict.both (Gcd_test.test ~dirs eq) (Banerjee.test ~dirs eq)

let feasible_dir ~ub dir =
  match dir with
  | Dirvec.Lt | Dirvec.Gt -> ub >= 1
  | Dirvec.Ne -> ub >= 1
  | Dirvec.Eq | Dirvec.Le | Dirvec.Ge | Dirvec.Star -> true

(* Runs once per refinement node, so it walks the bounds and equations
   directly instead of building sub-arrays and fold closures.  [dirs]
   reads [dv], which the caller mutates in place. *)
let rec level_ok ubs (dv : Dirvec.t) i =
  i >= Array.length ubs
  || (feasible_dir ~ub:ubs.(i) dv.(i) && level_ok ubs dv (i + 1))

let rec all_eqs test dirs acc = function
  | [] -> acc
  | eq :: rest -> (
      match Verdict.conservative (test ~dirs eq) with
      | Verdict.Independent -> Verdict.Independent
      | v -> all_eqs test dirs v rest)

let run_test test (p : Problem.numeric) dv dirs =
  if not (level_ok p.common_ubs dv 0) then Verdict.Independent
  else all_eqs test dirs Verdict.Dependent p.eqs

let dirs_of (dv : Dirvec.t) lvl =
  if lvl >= 1 && lvl <= Array.length dv then dv.(lvl - 1) else Dirvec.Star

let test ?(test = gcd_banerjee) (p : Problem.numeric) =
  let dv = Dirvec.all_star p.n_common in
  run_test test p dv (dirs_of dv)

(* The refinement walk: each node spends one [budget] unit and is
   pruned when [test] disproves it; only the levels [refined] accepts
   are split into [<], [=], [>], the others stay [Star].  One vector is
   refined in place, and the leaves are met in depth-first order, which
   is already {!Dirvec.compare} order. *)
let refine ~budget ~test ~refined (p : Problem.numeric) =
  let n = p.n_common in
  let dv = Dirvec.all_star n in
  let dirs = dirs_of dv in
  let rec next level =
    if level > n || refined level then level else next (level + 1)
  in
  let results = ref [] in
  let rec go level =
    Dlz_base.Budget.spend budget;
    match run_test test p dv dirs with
    | Verdict.Independent -> ()
    | _ ->
        let level = next level in
        if level > n then results := Array.copy dv :: !results
        else begin
          child level Dirvec.Lt;
          child level Dirvec.Eq;
          child level Dirvec.Gt
        end
  and child level d =
    dv.(level - 1) <- d;
    go (level + 1);
    dv.(level - 1) <- Dirvec.Star
  in
  go 1;
  List.rev !results

let directions ?(budget = Dlz_base.Budget.unlimited) ?(test = gcd_banerjee) p =
  refine ~budget ~test ~refined:(fun _ -> true) p

let piece_directions (p : Problem.numeric) =
  let n = p.n_common in
  (* The common levels some equation has a variable at: the only levels
     whose direction the GCD and Banerjee tests read. *)
  let touched = Array.make (n + 1) false in
  List.iter
    (fun (eq : Depeq.t) ->
      List.iter
        (fun (t : Depeq.term) ->
          let lvl = t.var.v_level in
          if lvl >= 1 && lvl <= n then touched.(lvl) <- true)
        eq.terms)
    p.eqs;
  refine ~budget:Dlz_base.Budget.unlimited ~test:gcd_banerjee
    ~refined:(Array.get touched) p

let feasible_at ~common_ubs lvl d =
  lvl >= Array.length common_ubs || feasible_dir ~ub:common_ubs.(lvl) d

(* Expands [dv] in place, level by level, consing each basic vector
   onto [acc]; [dv] is restored on return.  Refinements come in
   {!Dirvec.compare} order, so one vector's expansion is met in
   ascending order. *)
let rec expand_vec ~common_ubs (dv : Dirvec.t) lvl acc =
  if lvl = Array.length dv then Array.copy dv :: acc
  else begin
    let rel = dv.(lvl) in
    let acc = expand_dirs ~common_ubs dv lvl (Dirvec.refinements rel) acc in
    dv.(lvl) <- rel;
    acc
  end

and expand_dirs ~common_ubs dv lvl ds acc =
  match ds with
  | [] -> acc
  | d :: rest ->
      let acc =
        if feasible_at ~common_ubs lvl d then begin
          dv.(lvl) <- d;
          expand_vec ~common_ubs dv (lvl + 1) acc
        end
        else acc
      in
      expand_dirs ~common_ubs dv lvl rest acc

let expand ~common_ubs dvs =
  match dvs with
  | [ dv ] -> List.rev (expand_vec ~common_ubs dv 0 [])
  | _ ->
      List.fold_left (fun acc dv -> expand_vec ~common_ubs dv 0 acc) [] dvs
      |> List.sort_uniq Dirvec.compare

let expands ~common_ubs dv =
  let rec go lvl =
    lvl = Array.length dv
    || List.exists (feasible_at ~common_ubs lvl) (Dirvec.refinements dv.(lvl))
       && go (lvl + 1)
  in
  go 0

let directions_exact ?budget (p : Problem.numeric) =
  Exact.direction_vectors ?budget ~n_common:p.n_common p.eqs
