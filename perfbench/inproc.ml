(* The in-process serving workloads (serve_exec, pareto_serve): a
   default caching Serve.t replaying a fixed entry list, one caller.
   The list is the initial profile installs, then the round: requests
   and profile re-installs.  After each round the re-installed users get
   their initial profiles back, so every round starts from the same
   profiles and behaves the same.  Installs are part of the round but
   are not operations. *)

open Harness
module C = Cqp_core
module Serve = Cqp_serve.Serve
module Workload_s = Cqp_serve.Workload

type answer = {
  ids : int list;
  params : C.Params.t;
  digest : string;  (** of the executed rows *)
  outcome : C.Personalizer.outcome;
}

let key a = (a.ids, a.params, a.digest)

let answer (r : Serve.response) =
  match r.Serve.verdict with
  | Serve.Shed _ -> Error "shed"
  | Serve.Served s ->
      let o = s.Serve.outcome in
      Ok
        {
          ids = o.C.Personalizer.solution.C.Solution.pref_ids;
          params = o.C.Personalizer.solution.C.Solution.params;
          digest = Cqp_net.Wire.rows_digest o.C.Personalizer.rows;
          outcome = o;
        }

let profile_of catalog seed =
  Cqp_workload.Profile_gen.generate ~rng:(Cqp_util.Rng.create seed) catalog

let requests entries =
  List.filter_map
    (function Workload_s.Request r -> Some r | Workload_s.Set_profile _ -> None)
    entries

let inputs catalog entries () =
  {
    Workload.catalog;
    profiles =
      List.filter_map
        (function
          | Workload_s.Set_profile { user; seed; _ } ->
              Some
                (Printf.sprintf "%s|%d|%s" user seed
                   (fingerprint_hex (profile_of catalog seed)))
          | Workload_s.Request _ -> None)
        entries;
    requests = List.map request_line (requests entries);
  }

(* Set up the server, warm it with one unmeasured pass, and return the
   workload.  The warm-up pass runs the round from where its last
   [warm_requests] requests begin (default: the whole round), so that
   the caches hold what they hold at the end of every round.  [oracle
   server i answer] checks request [i]'s answer in the verification
   round, right after [server] gave it. *)
let make ?(resilience = Cqp_resilience.Config.default) ?warm_requests ~caching
    ~catalog ~entries ~oracle () =
  let server = Serve.create ~caching ~resilience catalog in
  let pareto = resilience.Cqp_resilience.Config.pareto in
  let rec split acc = function
    | (Workload_s.Set_profile _ as e) :: rest -> split (e :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let initial, body = split [] entries in
  let touched =
    List.filter_map
      (function Workload_s.Set_profile { user; _ } -> Some user | Workload_s.Request _ -> None)
      body
  in
  let restore =
    Array.of_list
      (List.filter
         (function
           | Workload_s.Set_profile { user; _ } -> List.mem user touched
           | Workload_s.Request _ -> false)
         initial)
  in
  let entries = Array.of_list body in
  let n = List.length (requests body) in
  let outs =
    Checks.create n ~key ~doi:(fun (_, p, _) -> Some p.C.Params.doi) ~oracle:(oracle server)
  in
  let install = function
    | Workload_s.Set_profile { user; seed; shape } ->
        Workload_s.install server ~user ?shape seed
    | Workload_s.Request _ -> ()
  in
  (* One pass over the round from its [first] request: [f idx r] sees
     each request; the re-installed users get their profiles back at the
     end. *)
  let pass ?(first = 0) f =
    let i = ref 0 in
    Array.iter
      (function
        | Workload_s.Set_profile _ as e -> if !i >= first then install e
        | Workload_s.Request r ->
            if !i >= first then f !i r;
            incr i)
      entries;
    Array.iter install restore
  in
  List.iter install initial;
  let first = match warm_requests with None -> 0 | Some w -> max 0 (n - w) in
  pass ~first (fun _ r -> ignore (Serve.handle server r));
  let round tally =
    pass (fun idx r ->
        op tally
          (fun () -> Serve.handle server r)
          (fun resp -> Result.map (Checks.record outs idx) (answer resp)))
  in
  let verify () =
    pass (fun idx r ->
        match answer (Serve.handle server r) with
        | Ok a -> Checks.verify outs idx a
        | Error e -> Checks.fail outs idx e
        | exception e -> Checks.fail outs idx (Printexc.to_string e))
  in
  (* The traced replay runs against a mirror cache of its own, fed the
     same installs and requests, so the program's caches are untouched. *)
  let mirror = C.Cache.create catalog in
  let profiles = Hashtbl.create 64 in
  let mirror_install = function
    | Workload_s.Set_profile { user; seed; shape = _ } ->
        Layers.mirror_install (Some mirror) profiles ~user (profile_of catalog seed)
    | Workload_s.Request _ -> ()
  in
  List.iter mirror_install initial;
  let traced_round layers tally =
    let i = ref 0 in
    Array.iter
      (function
        | Workload_s.Set_profile _ as e -> mirror_install e
        | Workload_s.Request (r : Serve.request) ->
            let idx = !i in
            incr i;
            op tally
              (fun () ->
                Layers.replay layers ~mirror ~pareto ~catalog
                  ~profile:(Hashtbl.find profiles r.Serve.user)
                  ~query:(Layers.Sql r.Serve.sql) ~problem:r.Serve.problem
                  ~max_k:r.Serve.max_k ~algorithm:r.Serve.algorithm
                  ~execute:r.Serve.execute ())
              (fun rp ->
                let digest =
                  Cqp_net.Wire.rows_digest (Option.value rp.Layers.rows ~default:[])
                in
                match Checks.kept outs idx with
                | Some (ids, params, d) when Layers.agrees rp ids params && digest = d ->
                    Ok (Checks.complete outs idx)
                | Some _ -> Error "traced replay answered differently"
                | None -> Error "no answer from the program to compare with"))
      entries;
    Array.iter mirror_install restore;
    layers.Layers.counting <- false
  in
  {
    Workload.ops_per_round = n;
    round;
    traced_round;
    verify;
    failures = (fun () -> Checks.failures outs);
    doi_mean = (fun () -> Checks.mean_doi outs);
    caches = (fun () -> Workload.cache_counts (Option.to_list (Serve.cache server)));
    teardown = ignore;
  }

(* Constraint check shared by the serving oracles: a personalization
   must satisfy the request's constraints; the unpersonalized answer is
   allowed only when no subset of the preference space does. *)
let check_constraints (r : Serve.request) (a : answer) =
  let ps = a.outcome.C.Personalizer.pref_space in
  let c = r.Serve.problem.C.Problem.constraints in
  match Oracle.check_solution ps a.ids a.params with
  | Error _ as e -> e
  | Ok p ->
      if Oracle.satisfies c p then Ok ()
      else if a.ids = [] && not (Oracle.any_feasible ps c) then Ok ()
      else
        Error
          (Printf.sprintf "%s violates %s" (Oracle.show p) (constraints_line c))
