(* Independent checks: the paper's formulas and brute-force searches,
   written here rather than taken from the program.

   A personalization selecting items P of the preference space has
     doi  = 1 - prod (1 - doi_i)            (noisy-or, Formula 10)
     cost = sum cost_i                      (one sub-query per item)
     size = base_size * prod (size_i / base_size)
   and the unpersonalized query (no item) has doi 0, the base cost and
   the base size. *)

module PS = Cqp_core.Pref_space
module Params = Cqp_core.Params

let rel_close a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let params (ps : PS.t) ids =
  let e = ps.PS.estimate in
  match ids with
  | [] ->
      {
        Params.doi = 0.;
        cost = Cqp_core.Estimate.base_cost e;
        size = Cqp_core.Estimate.base_size e;
      }
  | _ ->
      let base = Cqp_core.Estimate.base_size e in
      let miss = ref 1. and cost = ref 0. and size = ref base in
      List.iter
        (fun i ->
          let it = ps.PS.items.(i) in
          miss := !miss *. (1. -. it.PS.doi);
          cost := !cost +. it.PS.cost;
          size := !size *. (if base > 0. then it.PS.size /. base else 0.))
        ids;
      { Params.doi = 1. -. !miss; cost = !cost; size = !size }

let same_params (a : Params.t) (b : Params.t) =
  rel_close a.Params.doi b.Params.doi
  && rel_close a.Params.cost b.Params.cost
  && rel_close a.Params.size b.Params.size

let show (p : Params.t) =
  Printf.sprintf "(doi %.17g, cost %.17g, size %.17g)" p.Params.doi
    p.Params.cost p.Params.size

(* Ids must be distinct, ascending and inside the space. *)
let valid_ids (ps : PS.t) ids =
  let k = Array.length ps.PS.items in
  let rec go prev = function
    | [] -> true
    | i :: rest -> i > prev && i < k && go i rest
  in
  go (-1) ids

let satisfies (c : Params.constraints) (p : Params.t) =
  let le bound v = match bound with None -> true | Some b -> v <= b in
  let ge bound v = match bound with None -> true | Some b -> v >= b in
  le c.Params.cmax p.Params.cost
  && ge c.Params.dmin p.Params.doi
  && ge c.Params.smin p.Params.size
  && le c.Params.smax p.Params.size

(* Recompute a returned personalization from the space's items. *)
let check_solution (ps : PS.t) ids (reported : Params.t) =
  if not (valid_ids ps ids) then Error "preference ids out of range or unsorted"
  else
    let p = params ps ids in
    if same_params p reported then Ok p
    else
      Error
        (Printf.sprintf "params %s, recomputed %s" (show reported) (show p))

(* Every subset of the space, depth first.  [prune acc] cuts a branch
   whose partial selection can only get worse (cost over budget, size
   under its floor: both are monotone as items are added).
   [visit ids params] sees every surviving non-empty subset. *)
let enumerate ?(prune = fun (_ : Params.t) -> false) (ps : PS.t) visit =
  let items = ps.PS.items in
  let k = Array.length items in
  let base = Cqp_core.Estimate.base_size ps.PS.estimate in
  let rec go i ids miss cost size =
    if i < k then begin
      let it = items.(i) in
      let miss' = miss *. (1. -. it.PS.doi) in
      let cost' = cost +. it.PS.cost in
      let size' = size *. (if base > 0. then it.PS.size /. base else 0.) in
      let p = { Params.doi = 1. -. miss'; cost = cost'; size = size' } in
      if not (prune p) then begin
        let ids' = i :: ids in
        visit ids' p;
        go (i + 1) ids' miss' cost' size'
      end;
      go (i + 1) ids miss cost size
    end
  in
  go 0 [] 1. 0. base

(* Problem 2: the best doi of a non-empty subset within [cmax]; 0 when
   none fits (the query then runs unpersonalized). *)
let max_doi_under (ps : PS.t) ~cmax =
  let best = ref 0. in
  enumerate ps
    ~prune:(fun p -> p.Params.cost > cmax)
    (fun _ p -> if p.Params.doi > !best then best := p.Params.doi);
  !best

(* Does any non-empty subset satisfy the constraints? *)
let any_feasible (ps : PS.t) (c : Params.constraints) =
  let found = ref false in
  (try
     enumerate ps
       ~prune:(fun p ->
         (match c.Params.cmax with Some b -> p.Params.cost > b | None -> false)
         || match c.Params.smin with Some b -> p.Params.size < b | None -> false)
       (fun _ p ->
         if satisfies c p then begin
           found := true;
           raise Exit
         end)
   with Exit -> ());
  !found

(* ---- tri-objective dominance (doi up, cost down, size down) --------- *)

let dominates (a : Params.t) (b : Params.t) =
  a.Params.doi >= b.Params.doi
  && a.Params.cost <= b.Params.cost
  && a.Params.size <= b.Params.size
  && (a.Params.doi > b.Params.doi
     || a.Params.cost < b.Params.cost
     || a.Params.size < b.Params.size)

(* The size interval is the only filter on a front's candidates. *)
let size_feasible (c : Params.constraints) (p : Params.t) =
  (match c.Params.smin with Some b -> p.Params.size >= b | None -> true)
  && match c.Params.smax with Some b -> p.Params.size <= b | None -> true

let mutually_non_dominated (ps : Params.t array) =
  let n = Array.length ps in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && dominates ps.(i) ps.(j) then ok := false
    done
  done;
  !ok

(* The non-dominated feasible subsets (the empty one included), as
   sorted id lists in ascending order.  Candidates are scanned in
   (cost, size, -doi) order, so anything dominating a candidate comes
   before it and nothing after it can dominate an earlier one: one
   pass against the front found so far is exact: an earlier candidate
   has no higher cost, so it dominates when its size is no higher, its
   doi no lower, and one of the three strictly better ([dominates]).
   [enumerate] hands the ids in descending order; only the front's are
   reversed. *)
let brute_front (ps : PS.t) (c : Params.constraints) =
  let cap = 1 lsl Array.length ps.PS.items in
  let cost = Array.make cap 0. and size = Array.make cap 0. and doi = Array.make cap 0. in
  let ids = Array.make cap [] and n = ref 0 in
  let consider i (p : Params.t) =
    if size_feasible c p then begin
      cost.(!n) <- p.Params.cost;
      size.(!n) <- p.Params.size;
      doi.(!n) <- p.Params.doi;
      ids.(!n) <- i;
      incr n
    end
  in
  consider [] (params ps []);
  enumerate ps consider;
  let order = Array.init !n Fun.id in
  Array.stable_sort
    (fun a b ->
      let k = Float.compare cost.(a) cost.(b) in
      if k <> 0 then k
      else
        let k = Float.compare size.(a) size.(b) in
        if k <> 0 then k else Float.compare doi.(b) doi.(a))
    order;
  (* the front so far, by candidate index: a candidate is tested
     against every member, so this loop is much of the oracle's time *)
  let front = Array.make !n 0 and len = ref 0 in
  Array.iter
    (fun a ->
      let c = cost.(a) and s = size.(a) and d = doi.(a) in
      let j = ref 0 in
      while
        !j < !len
        &&
        let q = front.(!j) in
        not
          (size.(q) <= s && doi.(q) >= d
          && (cost.(q) < c || size.(q) < s || doi.(q) > d))
      do
        incr j
      done;
      if !j = !len then begin
        front.(!len) <- a;
        incr len
      end)
    order;
  List.sort compare (List.init !len (fun j -> List.rev ids.(front.(j))))

(* ---- rows ------------------------------------------------------------ *)

(* Is [small] a sub-bag of [big]? *)
let sub_bag small big =
  let sort l = List.sort Cqp_relal.Tuple.compare l in
  let rec go s b =
    match (s, b) with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: s', y :: b' ->
        let c = Cqp_relal.Tuple.compare x y in
        if c = 0 then go s' b' else if c > 0 then go s b' else false
  in
  go (sort small) (sort big)

let without_limit (q : Cqp_sql.Ast.query) =
  match q with
  | Cqp_sql.Ast.Select b -> Cqp_sql.Ast.Select { b with Cqp_sql.Ast.limit = None }
  | Cqp_sql.Ast.Union_all _ -> q
