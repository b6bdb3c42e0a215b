(* pareto_serve: an in-process Serve.t with pareto serving on and no
   deadline, so every request computes (or finds cached) its
   tri-objective front.  K falls on both sides of Pareto.exact_budget_k:
   exact enumeration up to 16, the archive GA above, where requests are
   solved by D-HEURDOI so the full solve stays cheap.  Nsga2 does almost
   all the work. *)

module C = Cqp_core
module Serve = Cqp_serve.Serve
module Ws = Cqp_serve.Workload

let users ~small = if small then 3 else 72

(* The round's reuse distance.  In the serve generator's own traffic
   (Cqp_serve.Workload.generate, 200 users, 3,000 requests, seeds 1 to
   3) no request recurs within a pass, so a replay meets each request
   again only after every other one: no reuse distance the front cache
   can cover.  A round here is [requests] distinct requests, eight times
   the front cache's [front_capacity] entries (Cache.create's default),
   replayed in a cycle: every front is evicted before it is asked for
   again, as on that traffic, and a capacity raise shows as hits here
   only once it reaches the whole round.  One in [ga_every] requests has
   K = 20, above the exact budget, and is solved by D-HEURDOI; the
   others have K from 8 to 16, each K about equally often, and rotate
   over the serving algorithms.  A single K above the budget keeps the
   GA fronts, which set the p99, alike from seed to seed. *)
let front_capacity = 128
let requests ~small = if small then 16 else 8 * front_capacity
let ga_every = 16

let max_k ~small i =
  if i mod ga_every = ga_every - 1 then if small then 17 else 20 else 8 + (i mod 9)

let algorithm i =
  if i mod ga_every = ga_every - 1 then C.Algorithm.D_heurdoi
  else Requests.algorithms.(i / 9 mod Array.length Requests.algorithms)

let entries ~small ~seed catalog =
  let rng = Cqp_util.Rng.create seed in
  let n_users = users ~small in
  let user u = Printf.sprintf "u%02d" u in
  let installs =
    List.init n_users (fun u ->
        Ws.Set_profile
          {
            user = user u;
            seed = Cqp_util.Rng.int (Cqp_util.Rng.split rng (u + 1)) 1_000_000;
            shape = None;
          })
  in
  let reqs =
    List.init (requests ~small) (fun i ->
        let r = Cqp_util.Rng.split rng (1000 + i) in
        Ws.Request
          (Requests.request ~max_k:(max_k ~small) ~algorithm ~rng:r ~i
             ~user:(user (Cqp_util.Rng.int r n_users))
             catalog))
  in
  installs @ reqs

(* The front the program served for [r]: read back from its front
   cache, where the request just put it (recomputed with Nsga2.front
   when the caches are off). *)
let served_front server (r : Serve.request) ps =
  let c = r.Serve.problem.C.Problem.constraints in
  match Serve.cache server with
  | None ->
      C.Nsga2.front ~constraints:c ~exact_max_k:C.Pareto.exact_budget_k
        (C.Space.create ~order:C.Space.By_doi ps)
  | Some cache ->
      let profile = Option.get (Serve.profile server r.Serve.user) in
      let key =
        C.Cache.front_key ~constraints:c ?max_k:r.Serve.max_k
          ~fingerprint:(Cqp_prefs.Profile.fingerprint profile)
          ~sql:r.Serve.sql ~k:(C.Pref_space.k ps) ()
      in
      let serving =
        C.Cache.front cache ~key (fun () ->
            failwith "the served front is not in the front cache")
      in
      List.init (C.Nsga2.points_held serving) (C.Nsga2.point serving)

(* Each front is held to the benchmark's tests: recomputed params, the
   size interval, mutual non-dominance, and at K <= 16 the brute-force
   non-dominated set. *)
let check_front (r : Serve.request) (a : Inproc.answer) front =
  let ps = a.Inproc.outcome.C.Personalizer.pref_space in
  let c = r.Serve.problem.C.Problem.constraints in
  let bad =
    List.find_map
      (fun (p : C.Nsga2.point) ->
        match Oracle.check_solution ps p.C.Nsga2.pref_ids p.C.Nsga2.params with
        | Error e -> Some ("front point " ^ e)
        | Ok q when not (Oracle.size_feasible c q) -> Some "front point violates the size interval"
        | Ok _ -> None)
      front
  in
  match bad with
  | Some e -> Error e
  | None ->
      if
        not
          (Oracle.mutually_non_dominated
             (Array.of_list (List.map (fun (p : C.Nsga2.point) -> p.C.Nsga2.params) front)))
      then Error "front points dominate each other"
      else if C.Pref_space.k ps <= C.Pareto.exact_budget_k then
        let ids = List.sort compare (List.map (fun (p : C.Nsga2.point) -> p.C.Nsga2.pref_ids) front) in
        if ids = Oracle.brute_front ps c then Ok ()
        else
          Error
            (Printf.sprintf "front of %d points differs from the brute-force front (K = %d)"
               (List.length ids) (C.Pref_space.k ps))
      else Ok ()

let build ~small ~caching ~seed () =
  let config =
    if small then Cqp_workload.Imdb.small_config else Cqp_workload.Imdb.default_config
  in
  let catalog = Cqp_workload.Imdb.build ~config ~seed () in
  let entries = entries ~small ~seed catalog in
  let reqs = Array.of_list (Inproc.requests entries) in
  let distinct =
    List.sort_uniq compare
      (Array.to_list
         (Array.map
            (fun (r : Serve.request) ->
              (r.Serve.user, r.Serve.sql, r.Serve.problem, r.Serve.max_k))
            reqs))
  in
  if List.length distinct <> Array.length reqs then
    failwith "pareto_serve: a request recurs within the round";
  (* The same entries served with pareto off, computed on first use. *)
  let reference =
    lazy
      (let s = Serve.create ~caching:true catalog in
       Array.of_list
         (List.map
            (fun resp -> Result.map Inproc.key (Inproc.answer resp))
            (Ws.replay s entries)))
  in
  let oracle server i (a : Inproc.answer) =
    match Inproc.check_constraints reqs.(i) a with
    | Error _ as e -> e
    | Ok () -> (
        match (Lazy.force reference).(i) with
        | Ok b when Inproc.key a = b ->
            check_front reqs.(i) a
              (served_front server reqs.(i) a.Inproc.outcome.C.Personalizer.pref_space)
        | Ok _ -> Error "answer differs from the same request served with pareto off"
        | Error e -> Error ("reference server: " ^ e))
  in
  let resilience =
    { Cqp_resilience.Config.default with Cqp_resilience.Config.pareto = true }
  in
  (* The warm-up fills the front cache as the end of a round leaves it. *)
  ( Inproc.make ~caching ~resilience ~warm_requests:front_capacity ~catalog ~entries
      ~oracle (),
    Inproc.inputs catalog entries )
