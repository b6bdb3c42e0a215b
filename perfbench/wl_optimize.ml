(* optimize: Personalizer.personalize_query with no cache and no
   execution: every pair of the paper's averaging set (Experiment.default:
   20 profiles x 10 queries) at every K and every cmax fraction of the
   Supreme Cost, by all five algorithms, on Problem 2 (Section 7).  Every
   seed runs the same mix, and the hardest cases are hundreds of
   operations, so the tail is alike from seed to seed.  Search does
   nearly all the work; the cache, exec, Nsga2 and net layers are
   bypassed. *)

open Harness
module C = Cqp_core
module W = Cqp_workload

(* K from where every algorithm takes well under a millisecond to where
   the exact ones take milliseconds, tens in the tail. *)
let k_values ~small = if small then [| 4; 6; 8 |] else [| 10; 12; 14 |]
let cmax_fracs = [| 0.1; 0.3; 0.5 |]

type op = {
  profile : Cqp_prefs.Profile.t;
  query : Cqp_sql.Ast.query;
  algorithm : C.Algorithm.t;
  k : int;
  cmax : float;
}

type answer = { ids : int list; params : C.Params.t; ps : C.Pref_space.t }

let experiment ~small ~seed =
  let base = { W.Experiment.default with W.Experiment.seed } in
  if small then
    { base with W.Experiment.imdb = W.Imdb.small_config; n_profiles = 3; n_queries = 3 }
  else base

let make_ops ~small (b : W.Experiment.bundle) =
  let ks = k_values ~small in
  let pairs =
    List.concat_map
      (fun p -> List.map (fun q -> (p, q)) b.W.Experiment.queries)
      b.W.Experiment.profiles
  in
  Array.of_list
    (List.concat
       (List.map
          (fun (profile, query) ->
            List.concat_map
              (fun k ->
                let full =
                  C.Pref_space.build ~max_k:k
                    (C.Estimate.create b.W.Experiment.catalog query)
                    profile
                in
                List.concat_map
                  (fun frac ->
                    let cmax = frac *. C.Pref_space.supreme_cost full in
                    List.map
                      (fun algorithm -> { profile; query; algorithm; k; cmax })
                      C.Algorithm.all)
                  (Array.to_list cmax_fracs))
              (Array.to_list ks))
          pairs))

let inputs (b : W.Experiment.bundle) ops () =
  {
    Workload.catalog = b.W.Experiment.catalog;
    profiles = List.map fingerprint_hex b.W.Experiment.profiles;
    requests =
      Array.to_list
        (Array.map
           (fun o ->
             Printf.sprintf "%s|%s|%d|%h|%s" (fingerprint_hex o.profile)
               (C.Algorithm.name o.algorithm) o.k o.cmax
               (Cqp_sql.Printer.to_string o.query))
           ops);
  }

let solve catalog o =
  let ps, sol, _ =
    C.Personalizer.personalize_query ~algorithm:o.algorithm ~max_k:o.k catalog
      o.profile ~query:o.query ~problem:(C.Problem.problem2 ~cmax:o.cmax)
  in
  { ids = sol.C.Solution.pref_ids; params = sol.C.Solution.params; ps }

(* Recomputed params, the cost bound, and the objective against a
   brute-force subset enumeration: equal for the exact algorithms, never
   above it for the heuristics. *)
let oracle ops best_doi i (a : answer) =
  let o = ops.(i) in
  match Oracle.check_solution a.ps a.ids a.params with
  | Error _ as e -> e
  | Ok p ->
      if a.ids <> [] && p.C.Params.cost > o.cmax then
        Error (Printf.sprintf "cost %.17g over cmax %.17g" p.C.Params.cost o.cmax)
      else
        let best = best_doi i a.ps in
        if C.Algorithm.is_exact o.algorithm && not (Oracle.rel_close p.C.Params.doi best)
        then
          Error
            (Printf.sprintf "%s doi %.17g, brute force %.17g"
               (C.Algorithm.name o.algorithm) p.C.Params.doi best)
        else if p.C.Params.doi > best && not (Oracle.rel_close p.C.Params.doi best)
        then
          Error
            (Printf.sprintf "%s doi %.17g above the optimum %.17g"
               (C.Algorithm.name o.algorithm) p.C.Params.doi best)
        else Ok ()

let build ~small ~caching:_ ~seed () =
  let b = W.Experiment.build (experiment ~small ~seed) in
  let catalog = b.W.Experiment.catalog in
  let ops = make_ops ~small b in
  (* the five algorithms of one (pair, K, cmax) share a brute-force
     optimum *)
  let n_algos = List.length C.Algorithm.all in
  let best = Hashtbl.create 256 in
  let best_doi i ps =
    let group = i / n_algos in
    match Hashtbl.find_opt best group with
    | Some d -> d
    | None ->
        let d = Oracle.max_doi_under ps ~cmax:ops.(i).cmax in
        Hashtbl.add best group d;
        d
  in
  let outs =
    Checks.create (Array.length ops)
      ~key:(fun a -> (a.ids, a.params))
      ~doi:(fun (_, p) -> Some p.C.Params.doi)
      ~oracle:(oracle ops best_doi)
  in
  (* No warm-up pass: the path has no cache to fill. *)
  let round tally =
    Array.iteri
      (fun i o ->
        op tally
          (fun () -> solve catalog o)
          (fun a -> Ok (Checks.record outs i a)))
      ops
  in
  let traced_round layers tally =
    Array.iteri
      (fun i o ->
        op tally
          (fun () ->
            Layers.replay layers ~catalog ~profile:o.profile
              ~query:(Layers.Parsed o.query)
              ~problem:(C.Problem.problem2 ~cmax:o.cmax) ~max_k:(Some o.k)
              ~algorithm:o.algorithm ~execute:false ())
          (fun r ->
            match Checks.kept outs i with
            | Some (ids, params) when Layers.agrees r ids params ->
                Ok (Checks.complete outs i)
            | Some _ -> Error "traced replay chose a different solution"
            | None -> Error "no answer from the program to compare with"))
      ops;
    layers.Layers.counting <- false
  in
  let w =
    {
      Workload.ops_per_round = Array.length ops;
      round;
      traced_round;
      verify =
        (fun () ->
          Array.iteri
            (fun i o ->
              match solve catalog o with
              | a -> Checks.verify outs i a
              | exception e -> Checks.fail outs i (Printexc.to_string e))
            ops);
      failures = (fun () -> Checks.failures outs);
      doi_mean = (fun () -> Checks.mean_doi outs);
      caches = (fun () -> Workload.no_caches);
      teardown = ignore;
    }
  in
  (w, inputs b ops)
