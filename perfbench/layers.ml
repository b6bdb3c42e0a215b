(* The traced run's per-layer split.  The benchmark replays a request
   from outside as the sequence of public calls Personalizer.run makes
   (parse/check, Estimate.create, Cache.pref_space or Pref_space.build,
   Nsga2.front, Solver.solve, Rewrite.personalize, Engine.execute) and
   times each call; the program itself is not instrumented.  Counts
   (states, blocks, rows, points, bytes, words) are taken over the first
   traced round only, so they repeat exactly run to run. *)

open Harness
module C = Cqp_core
module Serve = Cqp_serve.Serve

type t = {
  sqlkit : acc;
  pref_space : acc;
  prefs : acc;
  cache : acc;
  search : acc;
  nsga2 : acc;
  rewrite : acc;
  exec : acc;
  wire_enc : acc;
  wire_dec : acc;
  net : acc;
  store : acc;
  serve : acc;  (** in-process entry point, timed whole *)
  mutable queries : int;  (** traced query operations, all rounds *)
  (* exact counts, first traced round only *)
  mutable counting : bool;
  mutable c_queries : int;
  mutable c_states : int;
  mutable c_search_words : float;
  mutable c_fronts : int;
  mutable c_points : int;
  mutable c_nsga2_words : float;
  mutable c_blocks : int;
  mutable c_rows : int;
  mutable c_exec_words : float;
  mutable c_wire_bytes : int;
  mutable c_installs : int;
  mutable c_store_bytes : int;
}

let create () =
  {
    sqlkit = acc ();
    pref_space = acc ();
    prefs = acc ();
    cache = acc ();
    search = acc ();
    nsga2 = acc ();
    rewrite = acc ();
    exec = acc ();
    wire_enc = acc ();
    wire_dec = acc ();
    net = acc ();
    store = acc ();
    serve = acc ();
    queries = 0;
    counting = true;
    c_queries = 0;
    c_states = 0;
    c_search_words = 0.;
    c_fronts = 0;
    c_points = 0;
    c_nsga2_words = 0.;
    c_blocks = 0;
    c_rows = 0;
    c_exec_words = 0.;
    c_wire_bytes = 0;
    c_installs = 0;
    c_store_bytes = 0;
  }

type query = Sql of string | Parsed of Cqp_sql.Ast.query

type replayed = {
  solution : C.Solution.t;
  rows : Cqp_relal.Tuple.t list option;  (** [None] without execution *)
}

(* One request through the pipeline's public calls.  [mirror] is a
   cache owned by the benchmark that sees the same request sequence as
   the program's; [pareto] adds the front lookup the pareto-serving
   ladder makes before solving. *)
let replay l ?mirror ?(pareto = false) ~catalog ~profile ~query ~problem
    ~max_k ~algorithm ~execute () =
  let counting = l.counting in
  l.queries <- l.queries + 1;
  if counting then l.c_queries <- l.c_queries + 1;
  let q, sql =
    timed l.sqlkit (fun () ->
        let q, sql =
          match query with
          | Sql s -> (Cqp_sql.Parser.parse s, s)
          | Parsed q -> (q, "")
        in
        Cqp_sql.Analyzer.check catalog q;
        (q, sql))
  in
  let memo = Option.bind mirror C.Cache.memo in
  let est = timed l.pref_space (fun () -> C.Estimate.create ?memo catalog q) in
  let fingerprint =
    timed l.prefs (fun () -> Cqp_prefs.Profile.fingerprint profile)
  in
  let constraints = problem.C.Problem.constraints in
  let orders = C.Algorithm.required_orders algorithm in
  let ps =
    match mirror with
    | Some c ->
        timed l.cache (fun () ->
            C.Cache.pref_space c ~constraints ?max_k ~orders est profile)
    | None ->
        timed l.pref_space (fun () ->
            C.Pref_space.build ~constraints ?max_k ~orders est profile)
  in
  (match (pareto, mirror) with
  | true, Some c ->
      let key =
        C.Cache.front_key ~constraints ?max_k ~fingerprint ~sql
          ~k:(C.Pref_space.k ps) ()
      in
      let compute () =
        let serving, words =
          minor_words (fun () ->
              timed l.nsga2 (fun () ->
                  C.Nsga2.serving_of_front
                    (C.Nsga2.front ~constraints
                       ~exact_max_k:C.Pareto.exact_budget_k
                       (C.Space.create ~order:C.Space.By_doi ps))))
        in
        if counting then begin
          l.c_fronts <- l.c_fronts + 1;
          l.c_points <- l.c_points + C.Nsga2.points_held serving;
          l.c_nsga2_words <- l.c_nsga2_words +. words
        end;
        serving
      in
      let nsga2_before = l.nsga2.us in
      ignore (timed l.cache (fun () -> C.Cache.front c ~key compute));
      (* the compute ran inside the lookup: charge it to nsga2 only *)
      l.cache.us <- l.cache.us -. (l.nsga2.us -. nsga2_before)
  | _ -> ());
  let solved, words =
    minor_words (fun () ->
        timed l.search (fun () -> C.Solver.solve ~algorithm ps problem))
  in
  let solution =
    match solved with
    | Some s -> s
    | None -> C.Solution.empty (C.Space.create ~order:C.Space.By_doi ps)
  in
  if counting then begin
    l.c_states <- l.c_states + solution.C.Solution.stats.C.Instrument.states_visited;
    l.c_search_words <- l.c_search_words +. words
  end;
  let personalized =
    timed l.rewrite (fun () ->
        let space = C.Space.create ~order:C.Space.By_doi ps in
        C.Rewrite.personalize ~dedup:true catalog q
          (C.Solution.paths space solution))
  in
  let rows =
    if execute then begin
      let r, words =
        minor_words (fun () ->
            timed l.exec (fun () -> Cqp_exec.Engine.execute catalog personalized))
      in
      if counting then begin
        l.c_blocks <- l.c_blocks + r.Cqp_exec.Engine.block_reads;
        l.c_rows <- l.c_rows + List.length r.Cqp_exec.Engine.rows;
        l.c_exec_words <- l.c_exec_words +. words
      end;
      Some r.Cqp_exec.Engine.rows
    end
    else None
  in
  { solution; rows }

(* Does the replay agree with what the program answered? *)
let agrees (r : replayed) ids (params : C.Params.t) =
  r.solution.C.Solution.pref_ids = ids
  && r.solution.C.Solution.params = params

(* What Serve.set_profile does to the cache on a profile change. *)
let mirror_install mirror profiles ~user profile =
  (match (mirror, Hashtbl.find_opt profiles user) with
  | Some c, Some old
    when Cqp_prefs.Profile.fingerprint old
         <> Cqp_prefs.Profile.fingerprint profile ->
      ignore (C.Cache.invalidate_profile c old)
  | _ -> ());
  Hashtbl.replace profiles user profile

(* Program-side facts the workload reads off its own caches and the
   untraced phase of the traced run. *)
type program = {
  untraced_us_per_op : float;  (** measured time per operation, untraced *)
  traced_us_per_op : float;  (** measured time per operation, traced *)
  serve_us_per_op : float;  (** the in-process entry point per query *)
  extract_hit_ratio : float;
  memo_hit_ratio : float;
  front_hit_ratio : float;
  bytes_held_mb : float;
  gc_minor_words_per_op : float;
  gc_major_words_per_op : float;
}

let ratio hits lookups = if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups

let metrics l (p : program) =
  let n = l.queries and cn = l.c_queries in
  let us a = per n a.us in
  let attributed =
    us l.sqlkit +. us l.pref_space +. us l.cache +. us l.search +. us l.nsga2
    +. us l.rewrite +. us l.exec
  in
  [
    m "search.us_per_op" "us" (us l.search);
    m "search.states_per_op" "count" (per cn (float_of_int l.c_states));
    m "search.minor_words_per_op" "words" (per cn l.c_search_words);
    m "pref_space.us_per_op" "us" (us l.pref_space);
    m "cache.us_per_op" "us" (us l.cache);
    m "cache.extract_hit_ratio" "ratio" p.extract_hit_ratio;
    m "cache.memo_hit_ratio" "ratio" p.memo_hit_ratio;
    m "cache.front_hit_ratio" "ratio" p.front_hit_ratio;
    m "cache.bytes_held_mb" "MB" p.bytes_held_mb;
    m "prefs.fingerprint_us_per_op" "us" (us l.prefs);
    m "sqlkit.us_per_op" "us" (us l.sqlkit);
    m "rewrite.us_per_op" "us" (us l.rewrite);
    m "nsga2.us_per_front" "us" (per l.nsga2.calls l.nsga2.us);
    m "nsga2.points_per_front" "count" (per l.c_fronts (float_of_int l.c_points));
    m "nsga2.minor_words_per_front" "words" (per l.c_fronts l.c_nsga2_words);
    m "exec.us_per_op" "us" (us l.exec);
    m "exec.blocks_per_op" "count" (per cn (float_of_int l.c_blocks));
    m "exec.rows_per_op" "count" (per cn (float_of_int l.c_rows));
    m "exec.minor_words_per_op" "words" (per cn l.c_exec_words);
    m "serve.us_per_op" "us" p.serve_us_per_op;
    m "serve.unattributed_us_per_op" "us" (p.serve_us_per_op -. attributed);
    m "wire.encode_us_per_op" "us" (us l.wire_enc);
    m "wire.decode_us_per_op" "us" (us l.wire_dec);
    m "wire.bytes_per_op" "bytes" (per cn (float_of_int l.c_wire_bytes));
    m "net.rtt_us_per_op" "us" (us l.net);
    m "net.overhead_us_per_op" "us"
      (if l.net.calls = 0 then 0.
       else us l.net -. us l.serve -. us l.wire_enc -. us l.wire_dec);
    m "store.install_us_per_op" "us" (per l.store.calls l.store.us);
    m "store.bytes_per_install" "bytes"
      (per l.c_installs (float_of_int l.c_store_bytes));
    m "gc.minor_words_per_op" "words" p.gc_minor_words_per_op;
    m "gc.major_words_per_op" "words" p.gc_major_words_per_op;
    m "trace.overhead_us_per_op" "us"
      (p.traced_us_per_op -. p.untraced_us_per_op);
  ]
