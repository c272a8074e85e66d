type eq_test = dirs:(int -> Dirvec.dir) -> Depeq.t -> Verdict.t

let gcd_banerjee ~dirs eq =
  Verdict.both (Gcd_test.test ~dirs eq) (Banerjee.test ~dirs eq)

let feasible_dir ~ub dir =
  match dir with
  | Dirvec.Lt | Dirvec.Gt -> ub >= 1
  | Dirvec.Ne -> ub >= 1
  | Dirvec.Eq | Dirvec.Le | Dirvec.Ge | Dirvec.Star -> true

(* Runs once per refinement node, so it walks the bounds and equations
   directly instead of building sub-arrays and fold closures. *)
let run_test test (p : Problem.numeric) (dv : Dirvec.t) =
  let rec level_ok i =
    i >= Array.length p.common_ubs
    || (feasible_dir ~ub:p.common_ubs.(i) dv.(i) && level_ok (i + 1))
  in
  let dirs lvl = if lvl >= 1 && lvl <= p.n_common then dv.(lvl - 1) else Dirvec.Star in
  let rec all_eqs acc = function
    | [] -> acc
    | eq :: rest -> (
        match Verdict.conservative (test ~dirs eq) with
        | Verdict.Independent -> Verdict.Independent
        | v -> all_eqs v rest)
  in
  if not (level_ok 0) then Verdict.Independent
  else all_eqs Verdict.Dependent p.eqs

let test ?(test = gcd_banerjee) (p : Problem.numeric) =
  run_test test p (Dirvec.all_star p.n_common)

(* The refinement walk: each node spends one [budget] unit and is
   pruned when [test] disproves it; only the levels [refined] accepts
   are split into [<], [=], [>], the others stay [Star]. *)
let refine ~budget ~test ~refined (p : Problem.numeric) =
  let n = p.n_common in
  let rec next level =
    if level > n || refined level then level else next (level + 1)
  in
  let results = ref [] in
  let rec go dv level =
    Dlz_base.Budget.spend budget;
    match run_test test p dv with
    | Verdict.Independent -> ()
    | _ ->
        let level = next level in
        if level > n then results := Array.copy dv :: !results
        else
          List.iter
            (fun d ->
              dv.(level - 1) <- d;
              go dv (level + 1);
              dv.(level - 1) <- Dirvec.Star)
            [ Dirvec.Lt; Dirvec.Eq; Dirvec.Gt ]
  in
  go (Dirvec.all_star n) 1;
  List.sort Dirvec.compare !results

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

let expand ~common_ubs dvs =
  let feasible lvl d =
    lvl >= Array.length common_ubs || feasible_dir ~ub:common_ubs.(lvl) d
  in
  let out = ref [] in
  let rec go dv lvl =
    if lvl = Array.length dv then out := Array.copy dv :: !out
    else if dv.(lvl) <> Dirvec.Star then go dv (lvl + 1)
    else begin
      List.iter
        (fun d ->
          if feasible lvl d then begin
            dv.(lvl) <- d;
            go dv (lvl + 1)
          end)
        [ Dirvec.Lt; Dirvec.Eq; Dirvec.Gt ];
      dv.(lvl) <- Dirvec.Star
    end
  in
  List.iter (fun dv -> go dv 0) dvs;
  List.sort_uniq Dirvec.compare !out

let directions_exact ?budget (p : Problem.numeric) =
  Exact.direction_vectors ?budget ~n_common:p.n_common p.eqs
