(* perfbench: the repository's end-to-end benchmark.  See README.md.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics; --trace 1 spends half the
   time untraced and half replaying every request through the layers,
   and prints the per-layer split.  After the measured phase one
   unmeasured verification round puts every operation's answer through
   the independent checks.  The last line of standard output is one JSON
   object: correct, attempted, failed, metrics.  An operation that
   raised, got an error or shed reply, or failed a check is counted in
   [failed]; [correct] speaks of the others and turns false only when
   the run could not check them (the verification round broke off) or a
   metric is not a number, so a gate reads both. *)

open Harness

let workloads =
  [
    ("optimize", Wl_optimize.build);
    ("serve_exec", Wl_serve_exec.build);
    ("front_door", Wl_front_door.build);
    ("pareto_serve", Wl_pareto.build);
  ]

(* Each run measures at least this many operations, so the p99 has ten
   samples beyond it. *)
let min_ops ~small = if small then 1 else 1000

let setup_reps ~small = if small then 1 else 3

let gc_words () =
  let minor, _, major = Gc.counters () in
  (minor, major)

let run_untraced (a : args) (w : Workload.t) ~setup_s =
  let t = tally () in
  let wall_s =
    measure ~seconds:a.seconds ~min_ops:(min_ops ~small:a.small) t (fun _ ->
        w.Workload.round t)
  in
  (t, end_to_end ~setup_s ~wall_s ~doi_mean:(w.Workload.doi_mean ()) t)

let run_traced (a : args) (w : Workload.t) =
  let t = tally () in
  let gc = ref (0., 0.) and c0 = w.Workload.caches () in
  let untraced_s =
    measure ~seconds:(a.seconds /. 2.) ~min_ops:0 t
      (fun r ->
        if r = 0 then begin
          let mi0, ma0 = gc_words () in
          w.Workload.round t;
          let mi1, ma1 = gc_words () in
          gc := (mi1 -. mi0, ma1 -. ma0)
        end
        else w.Workload.round t)
  in
  let c1 = w.Workload.caches () in
  let untraced_ops = t.attempted in
  let layers = Layers.create () in
  let traced_s =
    measure ~seconds:(a.seconds /. 2.) ~min_ops:0 t (fun _ ->
        w.Workload.traced_round layers t)
  in
  (* measured time per operation, which on front_door (several requests
     in flight) is not the latency *)
  let untraced_us = per untraced_ops (1e6 *. untraced_s) in
  let traced_us = per (t.attempted - untraced_ops) (1e6 *. traced_s) in
  let d f = f c1 - f c0 in
  let ops = float_of_int w.Workload.ops_per_round in
  let program =
    {
      Layers.untraced_us_per_op = untraced_us;
      traced_us_per_op = traced_us;
      serve_us_per_op =
        (if layers.Layers.serve.calls > 0 then
           per layers.Layers.serve.calls layers.Layers.serve.us
         else untraced_us);
      extract_hit_ratio =
        Layers.ratio
          (d (fun c -> c.Workload.extract_hits))
          (d (fun c -> c.Workload.extract_lookups));
      memo_hit_ratio =
        Layers.ratio
          (d (fun c -> c.Workload.memo_hits))
          (d (fun c -> c.Workload.memo_lookups));
      front_hit_ratio =
        Layers.ratio
          (d (fun c -> c.Workload.front_hits))
          (d (fun c -> c.Workload.front_lookups));
      bytes_held_mb = float_of_int c1.Workload.bytes_held /. 1048576.;
      gc_minor_words_per_op = fst !gc /. ops;
      gc_major_words_per_op = snd !gc /. ops;
    }
  in
  (t, Layers.metrics layers program)

let () =
  let a = parse_args () in
  let build =
    match List.assoc_opt a.workload workloads with
    | Some b -> b
    | None ->
        log "perfbench: unknown workload %S (known: %s)" a.workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let (w, inputs), setup_s =
    Harness.setup
      ~reps:(if a.inputs_only then 1 else setup_reps ~small:a.small)
      ~teardown:(fun ((w : Workload.t), _) -> w.Workload.teardown ())
      (build ~small:a.small ~caching:a.caching ~seed:a.seed)
  in
  let finish () = w.Workload.teardown () in
  Fun.protect ~finally:finish @@ fun () ->
  let inputs = inputs () in
  print_inputs ~catalog:inputs.Workload.catalog
    ~profiles:inputs.Workload.profiles ~requests:inputs.Workload.requests;
  if not a.inputs_only then begin
    let t, metrics =
      if a.trace then run_traced a w else run_untraced a w ~setup_s
    in
    let t0 = now_us () in
    let verified =
      match w.Workload.verify () with
      | () ->
          log "perfbench: verification round took %.1f s" ((now_us () -. t0) /. 1e6);
          true
      | exception e ->
          log "perfbench: verification round broke off: %s" (Printexc.to_string e);
          false
    in
    let bad, msgs = w.Workload.failures () in
    List.iter (fun e -> log "perfbench: failed operation: %s" e) (List.rev t.errors);
    List.iter (fun e -> log "perfbench: check failed: %s" e) msgs;
    print_result ~correct:verified ~attempted:t.attempted ~failed:(t.failed + bad)
      metrics
  end
