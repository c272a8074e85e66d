module Poly = Dlz_symbolic.Poly
module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Verdict = Dlz_deptest.Verdict
module Dirvec = Dlz_deptest.Dirvec
module Ddvec = Dlz_deptest.Ddvec
module Problem = Dlz_deptest.Problem
module Classify = Dlz_deptest.Classify

type pair_result = {
  verdict : Verdict.t;
  dirvecs : Dirvec.t list;
  distances : (int * Poly.t) list;
  decided_by : string;
  degraded : (string * string) list;
}

type dep = {
  src : Access.t;
  dst : Access.t;
  kind : Classify.kind;
  dirvec : Dirvec.t;
  ddvec : Ddvec.t;
  via : string;
  degraded : (string * string) list;
}

type mode = Delinearize | Classic | ExactMode

let cascade_of_mode = function
  | Delinearize -> Cascade.delin
  | Classic -> Cascade.classic
  | ExactMode -> Cascade.exact

let resolve_cascade ?(mode = Delinearize) ?cascade () =
  match cascade with Some c -> c | None -> cascade_of_mode mode

let vectors ?mode ?cascade ?budget ~env p =
  let cascade = resolve_cascade ?mode ?cascade () in
  let r = Engine.query ~cascade ?budget ~env p in
  {
    verdict = r.Strategy.verdict;
    dirvecs = r.Strategy.dirvecs;
    distances = r.Strategy.distances;
    decided_by = r.Strategy.decided_by;
    degraded = r.Strategy.degraded;
  }

let summarize ~self vecs =
  match List.sort_uniq Dirvec.compare vecs with
  | ([] | [ _ ]) as groups -> groups
  | g :: _ as groups ->
      (* Every join [merge] tests has the first group's length: a group
         of another length makes [Dirvec.join] raise first.  A self
         pair's set also holds the all-[=] vector. *)
      let n = Array.length g in
      let members =
        if self then
          List.merge Dirvec.compare [ Array.make n Dirvec.Eq ] groups
        else groups
      in
      let set = Dirvec.basic_set ~n members in
      let rec merge groups =
        let rec try_pairs = function
          | [] -> None
          | g :: rest -> (
              let candidate =
                List.find_opt (fun h -> Dirvec.covers_join set g h) rest
              in
              match candidate with
              | Some h ->
                  Some
                    (Dirvec.join g h
                    :: List.filter (fun x -> not (Dirvec.equal x h)) rest)
              | None -> (
                  match try_pairs rest with
                  | Some rest' -> Some (g :: rest')
                  | None -> None))
        in
        match try_pairs groups with Some g' -> merge g' | None -> groups
      in
      merge groups

let apply_distances dv distances =
  List.fold_left
    (fun ddv (lvl, d) ->
      match Poly.to_const d with
      | Some dc when lvl >= 1 && lvl <= Array.length dv ->
          (* Only keep the distance when it is consistent with the
             summarized direction at that level. *)
          if Dirvec.admits dv.(lvl - 1) dc then Ddvec.with_distance ddv lvl dc
          else ddv
      | _ -> ddv)
    (Ddvec.of_dirvec dv) distances

(* One pair's dep rows from one answer: summarization, one row per
   surviving summarized vector (in summary order).  Pure. *)
let deps_of_pair (pr : Engine.pair) (r : Strategy.result) =
  let src = pr.Engine.src and dst = pr.Engine.dst in
  let self = pr.Engine.self in
  let identity_only =
    self
    && List.for_all
         (fun dv -> Array.for_all (fun d -> d = Dirvec.Eq) dv)
         r.Strategy.dirvecs
  in
  if r.Strategy.verdict = Verdict.Independent || identity_only then []
  else begin
    let summaries = summarize ~self r.Strategy.dirvecs in
    let is_identity dv = Array.for_all (( = ) Dirvec.Eq) dv in
    let summaries =
      if not self then summaries
      else
        (* A self pair is symmetric: the pure-identity row is
           not a dependence, and an implausible row mirrors a
           reported plausible one. *)
        List.filter
          (fun dv ->
            (not (is_identity dv))
            && (Dirvec.plausible dv
               || not
                    (List.exists
                       (Dirvec.equal (Dirvec.reverse dv))
                       summaries)))
          summaries
    in
    let kind = Classify.kind ~src:src.Access.rw ~dst:dst.Access.rw in
    List.map
      (fun dv ->
        {
          src;
          dst;
          kind;
          dirvec = dv;
          ddvec = apply_distances dv r.Strategy.distances;
          via = r.Strategy.decided_by;
          degraded = r.Strategy.degraded;
        })
      summaries
  end

type solved = {
  pair : Engine.pair;
  first : Strategy.result;
  settled : Strategy.result;
}

let pass ?mode ?cascade ?budget ?annot ?observer ?on_first ~env accs =
  let cascade = resolve_cascade ?mode ?cascade () in
  Dlz_base.Trace.with_span ~cat:"driver"
    ~lazy_args:(fun () -> [ ("cascade", cascade.Cascade.name) ])
    "analyze.pass"
  @@ fun () ->
  let firsts =
    Engine.map_pairs
      (fun (pr : Engine.pair) ->
        let r =
          Engine.query ~cascade ?budget ?annot ?observer ~env pr.Engine.problem
        in
        Option.iter (fun f -> f pr r) on_first;
        (pr, r))
      accs
  in
  (* The memo cache refuses degraded answers, so a clean answer to the
     same canonical equation may have been cached by a later pair of
     this very pass: one cache lookup per degraded pair picks it up.
     Without one, a re-solve would only re-meet the same deterministic
     fault (chaos strikes are content-keyed, a spent budget stays
     spent), so the first answer stands.  A lookup rather than a
     counted query keeps the query count a function of the pairs.
     Fault-free passes never get here. *)
  List.map
    (fun (pair, first) ->
      let settled =
        if first.Strategy.degraded = [] then first
        else
          Option.value ~default:first
            (Query.cached ~cascade_name:cascade.Cascade.name
               pair.Engine.problem)
      in
      { pair; first; settled })
    firsts

let deps_of_solved solved =
  List.concat_map (fun s -> deps_of_pair s.pair s.settled) solved

type tally = {
  independent : int;
  dependent : int;
  inapplicable : int;
  decided_by : (string * int) list;
}

let tally solved =
  let indep = ref 0 and dep = ref 0 and inap = ref 0 and by = ref [] in
  List.iter
    (fun s ->
      let r = s.first in
      let name = r.Strategy.decided_by in
      by :=
        (match List.assoc_opt name !by with
        | Some n -> (name, n + 1) :: List.remove_assoc name !by
        | None -> (name, 1) :: !by);
      incr
        (match r.Strategy.verdict with
        | Verdict.Independent -> indep
        | Verdict.Dependent -> dep
        | Verdict.Inapplicable -> inap))
    solved;
  {
    independent = !indep;
    dependent = !dep;
    inapplicable = !inap;
    decided_by = List.sort compare !by;
  }

let deps_of_accesses ?mode ?cascade ?budget ~env accs =
  deps_of_solved (pass ?mode ?cascade ?budget ~env accs)

let deps_of_program ?mode ?cascade ?budget ?(env = Assume.empty) prog =
  let accs, env = Access.of_program ~env prog in
  deps_of_accesses ?mode ?cascade ?budget ~env accs

let pp_dep ppf d =
  Format.fprintf ppf "%s:%s -> %s:%s  %s  %s  [%s]" d.src.Access.stmt_name
    d.src.Access.array d.dst.Access.stmt_name d.dst.Access.array
    (Dirvec.to_string d.dirvec) (Ddvec.to_string d.ddvec)
    (Classify.to_string d.kind);
  List.iter
    (fun (s, why) -> Format.fprintf ppf "  degraded_by: %s %s" s why)
    d.degraded
