(* serve_exec: requests with execution on, sent to an in-process default
   Serve.t (caches on) over the serve templates, with interleaved profile
   re-installs.  Engine execution dominates the request; search and the
   caches are small.

   The population -- catalog, profiles, requests and re-installs -- is
   the same for every run: it is generated from [population_seed], and
   the run's seed only shuffles the order of a round.  One of its
   requests is answered wrongly by the program every time (see [build]),
   and a fixed population keeps that failure the same share of every
   run; a population drawn from the run's seed would hit the fault on
   some seeds only. *)

module C = Cqp_core
module Serve = Cqp_serve.Serve
module Ws = Cqp_serve.Workload
module Rng = Cqp_util.Rng

let population_seed = 29
let users ~small = if small then 3 else 60
let requests ~small = if small then 12 else 864
let update_every = 18

let user_name u = Printf.sprintf "u%02d" u

(* Installs for every user, then the round: the requests in an order
   shuffled by [seed], and one re-install with a new profile for the
   user of every [update_every]-th request of the population.  A
   re-install comes right after its user's last request of the round,
   so every request is answered from its user's initial profile
   whatever the order, while the re-install (undone at the end of the
   round) still drops that user's cached entries for the next round. *)
let entries ~small ~seed catalog =
  let rng = Rng.create population_seed in
  let n = users ~small in
  let installs =
    List.init n (fun u ->
        Ws.Set_profile
          {
            user = user_name u;
            seed = Rng.int (Rng.split rng (u + 1)) 1_000_000;
            shape = None;
          })
  in
  let reqs =
    Array.init (requests ~small) (fun i ->
        let r = Rng.split rng (1000 + i) in
        let user = user_name (Rng.int r n) in
        Requests.request ~execute:true ~rng:r ~i ~user catalog)
  in
  let reinstalls = Hashtbl.create 64 in
  Array.iteri
    (fun i (r : Serve.request) ->
      if i mod update_every = update_every - 1 then
        Hashtbl.add reinstalls r.Serve.user
          (Ws.Set_profile
             {
               user = r.Serve.user;
               seed = Rng.int (Rng.split rng (500_000 + i)) 1_000_000;
               shape = None;
             }))
    reqs;
  let order = Array.init (Array.length reqs) Fun.id in
  Rng.shuffle (Rng.create seed) order;
  let last = Hashtbl.create 64 in
  Array.iteri (fun pos i -> Hashtbl.replace last reqs.(i).Serve.user pos) order;
  let body =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun pos i ->
              let user = reqs.(i).Serve.user in
              Ws.Request reqs.(i)
              ::
              (if Hashtbl.find last user = pos then
                 List.rev (Hashtbl.find_all reinstalls user)
               else []))
            order))
  in
  installs @ body

(* A tenth of the default catalog: execution scans and joins whole
   relations, so at full size a request takes ~30 ms and a run could not
   measure 1,000 of them. *)
let catalog_config ~small =
  let d = Cqp_workload.Imdb.default_config in
  if small then Cqp_workload.Imdb.small_config
  else
    {
      d with
      Cqp_workload.Imdb.n_movies = d.Cqp_workload.Imdb.n_movies / 10;
      n_directors = d.Cqp_workload.Imdb.n_directors / 10;
      n_actors = d.Cqp_workload.Imdb.n_actors / 10;
    }

let build ~small ~caching ~seed () =
  let config = catalog_config ~small in
  let catalog = Cqp_workload.Imdb.build ~config ~seed:population_seed () in
  let entries = entries ~small ~seed catalog in
  let reqs = Array.of_list (Inproc.requests entries) in
  (* Q's own rows with its LIMIT removed *)
  let full_rows sql =
    let q = Oracle.without_limit (Cqp_sql.Parser.parse sql) in
    (Cqp_exec.Engine.execute catalog q).Cqp_exec.Engine.rows
  in
  (* The sub-bag check fails on one request of the population every
     time: Rewrite.personalize ignores ~dedup when a single preference
     is selected, so a one-preference answer over a fan-out path (a
     movie with several matching casts rows) repeats the movie once per
     row.  It counts as a failed operation in every round. *)
  let oracle _server i (a : Inproc.answer) =
    let r = reqs.(i) in
    match Inproc.check_constraints r a with
    | Error _ as e -> e
    | Ok () ->
        let real = a.Inproc.outcome.C.Personalizer.real_cost_ms in
        if not (Oracle.rel_close real a.Inproc.params.C.Params.cost) then
          Error
            (Printf.sprintf "real cost %.17g, estimated %.17g" real
               a.Inproc.params.C.Params.cost)
        else if
          not (Oracle.sub_bag a.Inproc.outcome.C.Personalizer.rows (full_rows r.Serve.sql))
        then
          Error
            (Printf.sprintf "rows are not a sub-bag of the query's own rows (%s)"
               r.Serve.sql)
        else Ok ()
  in
  (Inproc.make ~caching ~catalog ~entries ~oracle (), Inproc.inputs catalog entries)
