module Assume = Dlz_symbolic.Assume
module Access = Dlz_ir.Access
module Problem = Dlz_deptest.Problem

type pair = {
  src : Access.t;
  dst : Access.t;
  self : bool;
  problem : Problem.t;
}

let orient a b =
  (* Source = the write; textual order breaks read-write-free ties
     (write/write and the self pair). *)
  match (a.Access.rw, b.Access.rw) with
  | `Write, _ -> (a, b)
  | _, `Write -> (b, a)
  | _ -> (a, b)

let iter_pairs f accs =
  let arr = Array.of_list accs in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      (* The cheap screen: at least one write, same array.  Problem
         construction (the expensive part) happens only for survivors. *)
      if
        (a.Access.rw = `Write || b.Access.rw = `Write)
        && String.equal a.Access.array b.Access.array
      then
        let src, dst = orient a b in
        match Problem.of_accesses src dst with
        | Some problem ->
            let self = src.Access.acc_id = dst.Access.acc_id in
            f { src; dst; self; problem }
        | None -> ()
    done
  done

let map_pairs f accs =
  let out = ref [] in
  iter_pairs (fun pr -> out := f pr :: !out) accs;
  List.rev !out

let pairs accs = map_pairs Fun.id accs

let query ?(cascade = Cascade.delin) ?stats ?cache ?budget ?chaos ?annot
    ?observer ~env p =
  Query.memoize ?stats ?cache ?annot ?observer
    ~cascade_name:cascade.Cascade.name ~env
    (fun ~env p -> Cascade.run ?stats ?budget ?chaos ~env cascade p)
    p

let query_all ?cascade ?stats ?cache ?budget ?chaos ?annot ?observer ~env
    accs =
  map_pairs
    (fun pr ->
      (pr, query ?cascade ?stats ?cache ?budget ?chaos ?annot ?observer ~env
             pr.problem))
    accs

(* Everything the obs registry knows how to reset — engine counters,
   trace histograms, and any serve-side collectors a live daemon
   registered — plus the two stores the registry does not own: the
   memo cache and the event rings. *)
let reset_metrics () =
  Query.clear Query.global_cache;
  Dlz_base.Trace.clear ();
  Dlz_obs.Registry.reset_all ()
