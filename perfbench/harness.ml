(* Shared machinery: arguments, clocks, samples, the measured loop, the
   per-layer accumulators and the one-line JSON result. *)

let now_us = Cqp_obs.Clock.raw_us

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** tiny inputs, one set-up: the benchmark's self-test *)
  inputs_only : bool;  (** build the inputs, print their digests, exit *)
  caching : bool;  (** [false]: serve with the program's caches off *)
}

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--small] \
   [--inputs-only] [--no-cache]"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and small = ref false and inputs_only = ref false in
  let no_cache = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S measured time");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 per-layer run");
      ("--small", Arg.Set small, " tiny inputs (self-test)");
      ("--inputs-only", Arg.Set inputs_only, " print input digests only");
      ("--no-cache", Arg.Set no_cache, " serve with the program's caches off");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when trace = 0 || trace = 1 ->
      if !workload = "" then fail "--workload is required";
      if seconds <= 0. then fail "--seconds must be positive";
      {
        workload = !workload;
        seed;
        seconds;
        trace = trace = 1;
        small = !small;
        inputs_only = !inputs_only;
        caching = not !no_cache;
      }
  | _ -> fail "--seed, --seconds and --trace 0|1 are required"

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- samples ------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- operations ---------------------------------------------------- *)

(* Every measured operation lands here.  [failed] counts operations that
   raised or were answered with an error or shed reply; operations whose
   output fails a check are added after the verification round. *)
type tally = {
  lat_ms : Samples.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failure messages *)
}

let tally () =
  {
    lat_ms = Samples.create ();
    attempted = 0;
    failed = 0;
    errors = [];
  }

let note_error t msg =
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

let fail_op t msg =
  t.failed <- t.failed + 1;
  note_error t msg

(* Account one operation issued at [t0] whose answer [x] has arrived:
   [post] inspects the answer outside the timed region and returns
   [Error msg] for an error or shed reply. *)
let finish t ~t0 x post =
  t.attempted <- t.attempted + 1;
  let dt_ms = (now_us () -. t0) /. 1000. in
  match post x with
  | Ok () -> Samples.add t.lat_ms dt_ms
  | Error msg -> fail_op t msg
  | exception e -> fail_op t (Printexc.to_string e)

(* Time one operation [f] and account it. *)
let op t f post =
  let t0 = now_us () in
  match f () with
  | x -> finish t ~t0 x post
  | exception e ->
      t.attempted <- t.attempted + 1;
      fail_op t (Printexc.to_string e)

(* Whole rounds until [seconds] of rounds have passed and at least
   [min_ops] operations were attempted (so the p99 has ten samples
   beyond it); a hard cap keeps a slow machine inside the run's time
   limit.  Returns the measured seconds. *)
let hard_cap_s = 100.

let measure ~seconds ~min_ops (t : tally) round =
  let start = now_us () in
  let rounds = ref 0 in
  let ops0 = t.attempted in
  while
    !rounds = 0
    || ((now_us () -. start) /. 1e6 < seconds || t.attempted - ops0 < min_ops)
       && (now_us () -. start) /. 1e6 < hard_cap_s
  do
    round !rounds;
    incr rounds
  done;
  (now_us () -. start) /. 1e6

(* ---- set-up -------------------------------------------------------- *)

(* Set up [reps] times anew and keep the last; [setup_s] is the
   median.  Earlier instances are torn down and collected so the kept
   one starts from a settled heap. *)
let setup ~reps ~teardown build =
  let times = ref [] and kept = ref None in
  for _ = 1 to reps do
    Option.iter teardown !kept;
    kept := None;
    Gc.compact ();
    let t0 = now_us () in
    let x = build () in
    times := ((now_us () -. t0) /. 1e6) :: !times;
    kept := Some x
  done;
  (Option.get !kept, median !times)

(* ---- per-layer accumulators --------------------------------------- *)

(* One accumulator per layer: busy time and calls. *)
type acc = { mutable us : float; mutable calls : int }

let acc () = { us = 0.; calls = 0 }

let timed a f =
  let t0 = now_us () in
  let x = f () in
  a.us <- a.us +. (now_us () -. t0);
  a.calls <- a.calls + 1;
  x

(* Minor words allocated by [f] (this domain). *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let x = f () in
  (x, Gc.minor_words () -. w0)

let per n x = if n <= 0 then 0. else x /. float_of_int n

(* ---- inputs digest -------------------------------------------------- *)

let digest_catalog catalog =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun name ->
      Buffer.add_string b name;
      Buffer.add_char b '\n';
      Cqp_relal.Relation.iter
        (fun tup ->
          Buffer.add_string b (Format.asprintf "%a" Cqp_relal.Tuple.pp tup);
          Buffer.add_char b '\n')
        (Cqp_relal.Catalog.get catalog name))
    (List.sort compare (Cqp_relal.Catalog.names catalog));
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let fingerprint_hex p = Digest.to_hex (Digest.string (Cqp_prefs.Profile.fingerprint p))

let print_inputs ~catalog ~profiles ~requests =
  Printf.printf "inputs: catalog=%s profiles=%s requests=%s\n%!"
    (digest_catalog catalog) (digest_lines profiles) (digest_lines requests)

(* ---- request text --------------------------------------------------- *)

let constraints_line (c : Cqp_core.Params.constraints) =
  let f = function None -> "-" | Some v -> Printf.sprintf "%h" v in
  Printf.sprintf "cmax=%s dmin=%s smin=%s smax=%s" (f c.Cqp_core.Params.cmax)
    (f c.Cqp_core.Params.dmin) (f c.Cqp_core.Params.smin)
    (f c.Cqp_core.Params.smax)

let request_line (r : Cqp_serve.Serve.request) =
  Printf.sprintf "%s|%d|%s|%s|%s|%b|%s" r.Cqp_serve.Serve.user
    r.Cqp_serve.Serve.problem.Cqp_core.Problem.number
    (constraints_line r.Cqp_serve.Serve.problem.Cqp_core.Problem.constraints)
    (match r.Cqp_serve.Serve.max_k with None -> "-" | Some k -> string_of_int k)
    (Cqp_core.Algorithm.name r.Cqp_serve.Serve.algorithm)
    r.Cqp_serve.Serve.execute r.Cqp_serve.Serve.sql

(* ---- result --------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  List.iter (fun x -> log "perfbench: metric %s is not finite" x.name) bad;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_float (if Float.is_finite x.value then x.value else 0.))
          x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && bad = []) attempted failed (String.concat ", " fields)

(* The end-to-end metrics every workload reports (untraced run), read
   as soon as the measured phase ends: the heap high-water mark then
   covers set-up and the measured rounds, and none of the checks. *)
let end_to_end ~setup_s ~wall_s ~doi_mean (t : tally) =
  let sorted = Samples.sorted t.lat_ms in
  let completed = t.attempted - t.failed in
  let heap =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.
  in
  [
    m "setup_s" "s" setup_s;
    m "latency_p50_ms" "ms" (percentile sorted 0.50);
    m "latency_p99_ms" "ms" (percentile sorted 0.99);
    m "throughput_ops" "1/s" (float_of_int completed /. wall_s);
    m "doi_mean" "doi" doi_mean;
    m "heap_peak_mb" "MB" heap;
  ]
