(* front_door: a store-backed Cqp_net.Server on a Unix-domain socket in
   a fresh directory under the working directory (no TCP port).  Closed
   loop over one client connection with [window] requests in flight:
   execute-off queries from Zipf-skewed users over a population several
   times the store's resident bound, with wire Install frames (writes)
   beside them.  With execution off, wire, net, store, pref_space and the
   caches dominate.  The server answers a connection's frames one at a
   time, in order, so the window keeps it busy without reordering; one
   request at a time would measure the machine's thread wake-up latency
   more than the server.

   One connection, not one per core: with two, a query can be answered
   "no profile installed" when the other connection's store fault
   evicts its user between the server's residency check and the serve
   (Server.ensure_and_handle), which fails operations at random.  One
   server domain: with more, every query's one-job Pool batch also wakes
   an idle worker domain, and that wake-up, not the server, sets the
   latency.

   Installs come in pairs -- an alternative profile, later the user's
   own again -- so each round ends where it started and every round is
   the same. *)

open Harness
module C = Cqp_core
module Serve = Cqp_serve.Serve
module Wire = Cqp_net.Wire

type size = {
  users : int;
  resident : int;  (** the store's resident bound *)
  queries : int;  (** per round *)
  install_pairs : int;  (** per round *)
}

let size ~small =
  if small then { users = 24; resident = 4; queries = 16; install_pairs = 2 }
  else { users = 512; resident = 64; queries = 2592; install_pairs = 144 }

let zipf_s = 1.1

(* K from 8 to 12 keeps the search small, so the layers around it
   dominate the request. *)
let max_k i = 8 + (i / 16 mod 5)

let server_domains = 1
let window = 8

type entry =
  | Query of Serve.request
  | Install of { user : string; seed : int }

let user_name i = "u" ^ string_of_int i

(* The population's generator seeds, as Loadgen.populate_store lays
   them out: user u<i> gets [base + i]. *)
let base_seed seed = 7919 * (seed land 0xFFFF)

let zipf_cdf n =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let entries ~small ~seed catalog =
  let sz = size ~small in
  let rng = Cqp_util.Rng.create seed in
  let cdf = zipf_cdf sz.users in
  let queries =
    Array.init sz.queries (fun i ->
        let r = Cqp_util.Rng.split rng (1000 + i) in
        let user = user_name (zipf_draw cdf (Cqp_util.Rng.float r 1.)) in
        Query (Requests.request ~max_k ~rng:r ~i ~user catalog))
  in
  (* Install pair j: an alternative profile before query j*gap, the
     user's own again half a gap later. *)
  let gap = sz.queries / sz.install_pairs in
  let before = Array.make sz.queries [] in
  for j = 0 to sz.install_pairs - 1 do
    let r = Cqp_util.Rng.split rng (500_000 + j) in
    let u = zipf_draw cdf (Cqp_util.Rng.float r 1.) in
    let user = user_name u in
    let alt = Cqp_util.Rng.int r 1_000_000 in
    let a = j * gap and b = (j * gap) + (gap / 2) in
    before.(a) <- before.(a) @ [ Install { user; seed = alt } ];
    before.(b) <- before.(b) @ [ Install { user; seed = base_seed seed + u } ]
  done;
  Array.of_list
    (List.concat (Array.to_list (Array.mapi (fun i q -> before.(i) @ [ q ]) queries)))

let to_wire = function
  | Install { user; seed } -> Wire.Install { user; seed; shape = None }
  | Query r ->
      Wire.Query
        {
          Wire.user = r.Serve.user;
          sql = r.Serve.sql;
          problem = r.Serve.problem;
          max_k = r.Serve.max_k;
          algorithm = r.Serve.algorithm;
          execute = r.Serve.execute;
          deadline_ms = None;
        }

(* What a reply must carry: the solution, its params, the SQL and the
   rows digest. *)
type answer = Ack | Answer of C.Params.t * int list * string * string

let answer_of = function
  | Wire.Ok_ack -> Ok Ack
  | Wire.Served s ->
      Ok
        (Answer
           (s.Wire.params, s.Wire.pref_ids, s.Wire.personalized_sql, s.Wire.rows_digest))
  | Wire.Shed _ -> Error "shed"
  | Wire.Error { message; _ } -> Error ("error reply: " ^ message)
  | Wire.Pong | Wire.Bye -> Error "unexpected reply"

let doi_of = function Ack -> None | Answer (p, _, _, _) -> Some p.C.Params.doi

(* ---- the per-run directory ------------------------------------------ *)

let tmp_root = ".perfbench-tmp"

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    (try Unix.mkdir tmp_root 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    incr n;
    let d = Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !n) in
    remove_tree d;
    Unix.mkdir d 0o700;
    d

let live_dirs = ref []

let remove_dir d =
  (try remove_tree d with _ -> ());
  live_dirs := List.filter (( <> ) d) !live_dirs;
  try Unix.rmdir tmp_root with _ -> ()

let () = at_exit (fun () -> List.iter remove_dir !live_dirs)

(* ---- a pipelining client ----------------------------------------------- *)

type pipe = {
  fd : Unix.file_descr;
  mutable pending : string;  (** received, not yet decoded *)
  mutable pos : int;
  chunk : Bytes.t;
}

let pipe_connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  { fd; pending = ""; pos = 0; chunk = Bytes.create 65536 }

let send p frame =
  let b = Bytes.unsafe_of_string frame in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write p.fd b off (Bytes.length b - off))
  in
  go 0

let rec recv p =
  match Wire.decode_response ~pos:p.pos p.pending with
  | Ok (reply, consumed) ->
      p.pos <- p.pos + consumed;
      reply
  | Error Wire.Truncated ->
      let n = Unix.read p.fd p.chunk 0 (Bytes.length p.chunk) in
      if n = 0 then failwith "connection closed";
      p.pending <-
        String.sub p.pending p.pos (String.length p.pending - p.pos)
        ^ Bytes.sub_string p.chunk 0 n;
      p.pos <- 0;
      recv p
  | Error e -> failwith (Wire.error_to_string e)

(* Send every frame with up to [window] in flight; [k i t0 reply] sees
   each reply in order with the time its request was sent.  On a lost
   connection [lost e left] hears how many went unanswered. *)
let pipeline p frames k ~lost =
  let n = Array.length frames in
  let sent_at = Array.make n 0. in
  let sent = ref 0 and i = ref 0 in
  try
    while !i < n do
      while !sent < n && !sent - !i < window do
        sent_at.(!sent) <- now_us ();
        send p frames.(!sent);
        incr sent
      done;
      let reply = recv p in
      k !i sent_at.(!i) reply;
      incr i
    done
  with e -> lost e (n - !i)

(* ---- the workload ---------------------------------------------------- *)

type server = {
  dir : string;
  pool : Cqp_par.Pool.t;
  serve : Serve.t;
  srv : Cqp_net.Server.t;
  conn : Cqp_net.Client.t;  (** one request at a time: the traced run *)
  pipe : pipe;
  mutable closed : bool;
}

let stop s =
  if not s.closed then begin
    s.closed <- true;
    Cqp_net.Client.close s.conn;
    (try Unix.close s.pipe.fd with _ -> ());
    (try Cqp_net.Server.stop s.srv with _ -> ());
    Cqp_par.Pool.shutdown s.pool;
    remove_dir s.dir
  end

let start ~small ~caching ~seed catalog =
  let sz = size ~small in
  let dir = fresh_dir () in
  live_dirs := dir :: !live_dirs;
  try
    let store_dir = Filename.concat dir "store" in
    Cqp_net.Loadgen.populate_store ~dir:store_dir ~users:sz.users
      ~seed:(base_seed seed) catalog;
    let pool = Cqp_par.Pool.create ~domains:server_domains () in
    let serve = Serve.create ~caching catalog in
    let srv =
      Cqp_net.Server.create ~store_dir ~store_resident:sz.resident ~pool
        ~addr:(Cqp_net.Server.Unix_path (Filename.concat dir "s")) serve
    in
    Cqp_net.Server.start srv;
    let addr = Cqp_net.Server.bound_addr srv in
    let conn = Cqp_net.Client.connect addr in
    let pipe = pipe_connect addr in
    { dir; pool; serve; srv; conn; pipe; closed = false }
  with e ->
    remove_dir dir;
    raise e

let build ~small ~caching ~seed () =
  let config =
    if small then Cqp_workload.Imdb.small_config else Cqp_workload.Imdb.default_config
  in
  let catalog = Cqp_workload.Imdb.build ~config ~seed () in
  let entries = entries ~small ~seed catalog in
  let frames = Array.map to_wire entries in
  let s = start ~small ~caching ~seed catalog in
  try
    (* The un-networked reference: a plain Serve.t fed the same entries
       in round order, each user holding the profile its installs left. *)
    let profile_of = Inproc.profile_of catalog in
    let reference () =
      let r = Serve.create ~caching:true catalog in
      let current = Hashtbl.create 64 in
      let ensure user =
        if Serve.profile r user = None then
          let u = int_of_string (String.sub user 1 (String.length user - 1)) in
          Serve.set_profile r ~user
            (profile_of
               (Option.value (Hashtbl.find_opt current user) ~default:(base_seed seed + u)))
      in
      (r, current, ensure)
    in
    let expected =
      lazy
        (let r, current, ensure = reference () in
         Array.map
           (function
             | Install { user; seed } ->
                 Hashtbl.replace current user seed;
                 Serve.set_profile r ~user (profile_of seed);
                 Ok Ack
             | Query q ->
                 ensure q.Serve.user;
                 answer_of (Wire.response_of_serve (Serve.handle r q)))
           entries)
    in
    let oracle i a =
      match (Lazy.force expected).(i) with
      | Ok b when a = b -> Ok ()
      | Ok _ -> Error "reply differs from the un-networked Serve.t"
      | Error e -> Error ("reference: " ^ e)
    in
    let outs =
      Checks.create (Array.length entries) ~key:Fun.id ~doi:doi_of ~oracle
    in
    let encoded = Array.map Wire.encode_request frames in
    (* warm-up pass, not measured *)
    pipeline s.pipe encoded (fun _ _ _ -> ()) ~lost:(fun e _ -> raise e);
    let round tally =
      pipeline s.pipe encoded
        (fun i t0 reply ->
          finish tally ~t0 reply (fun reply ->
              Result.map (Checks.record outs i) (answer_of reply)))
        ~lost:(fun e left ->
          for _ = 1 to left do
            tally.attempted <- tally.attempted + 1;
            fail_op tally (Printexc.to_string e)
          done)
    in
    let ref_serve, ref_current, ref_ensure = reference () in
    (* Traced: each query is also encoded and decoded by the benchmark,
       served by a second reference Serve.t (the in-process handle time)
       and replayed through the layers against a mirror cache.  Installs
       are also written to a store of the benchmark's own. *)
    let mirror = C.Cache.create catalog in
    let mirror_profiles = Hashtbl.create 64 in
    let bdir = Filename.concat s.dir "trace-store" in
    let bstore = lazy (Cqp_net.Store.open_ bdir) in
    let traced_round (l : Layers.t) tally =
      let counting = l.Layers.counting in
      Array.iteri
        (fun i e ->
          op tally
            (fun () ->
              let frame = frames.(i) in
              let bytes = timed l.Layers.wire_enc (fun () -> Wire.encode_request frame) in
              ignore (timed l.Layers.wire_dec (fun () -> Wire.decode_request bytes));
              let reply = timed l.Layers.net (fun () -> Cqp_net.Client.call s.conn frame) in
              let rbytes = timed l.Layers.wire_enc (fun () -> Wire.encode_response reply) in
              ignore (timed l.Layers.wire_dec (fun () -> Wire.decode_response rbytes));
              if counting then
                l.Layers.c_wire_bytes <-
                  l.Layers.c_wire_bytes + String.length bytes + String.length rbytes;
              match e with
              | Install { user; seed } ->
                  let p = profile_of seed in
                  let st = Lazy.force bstore in
                  let b0 = (Cqp_net.Store.stats st).Cqp_net.Store.disk_bytes in
                  timed l.Layers.store (fun () -> Cqp_net.Store.put st ~user p);
                  if counting then begin
                    l.Layers.c_installs <- l.Layers.c_installs + 1;
                    l.Layers.c_store_bytes <-
                      l.Layers.c_store_bytes
                      + (Cqp_net.Store.stats st).Cqp_net.Store.disk_bytes - b0
                  end;
                  Hashtbl.replace ref_current user seed;
                  Serve.set_profile ref_serve ~user p;
                  Layers.mirror_install (Some mirror) mirror_profiles ~user p;
                  (reply, None)
              | Query q ->
                  ref_ensure q.Serve.user;
                  let expected =
                    timed l.Layers.serve (fun () -> Serve.handle ref_serve q)
                  in
                  let user = q.Serve.user in
                  if not (Hashtbl.mem mirror_profiles user) then
                    Hashtbl.replace mirror_profiles user
                      (Option.get (Serve.profile ref_serve user));
                  let rp =
                    Layers.replay l ~mirror ~catalog
                      ~profile:(Hashtbl.find mirror_profiles user)
                      ~query:(Layers.Sql q.Serve.sql) ~problem:q.Serve.problem
                      ~max_k:q.Serve.max_k ~algorithm:q.Serve.algorithm
                      ~execute:q.Serve.execute ()
                  in
                  (reply, Some (expected, rp)))
            (fun (reply, extra) ->
              match (answer_of reply, extra) with
              | (Error _ as e), _ -> e
              | Ok a, None -> Ok (Checks.record outs i a)
              | Ok a, Some (expected, rp) -> (
                  match answer_of (Wire.response_of_serve expected) with
                  | Ok (Answer (p, ids, _, _) as b) when a = b && Layers.agrees rp ids p ->
                      Ok (Checks.record outs i a)
                  | _ -> Error "traced reply, reference and replay disagree")))
        entries;
      l.Layers.counting <- false
    in
    let w =
      {
        Workload.ops_per_round = Array.length entries;
        round;
        traced_round;
        (* the replies are small: the kept ones are checked as they are *)
        verify =
          (fun () ->
            Array.iteri
              (fun i _ -> Option.iter (Checks.verify outs i) (Checks.kept outs i))
              entries);
        failures = (fun () -> Checks.failures outs);
        doi_mean = (fun () -> Checks.mean_doi outs);
        caches = (fun () -> Workload.cache_counts (Serve.shard_caches s.serve));
        teardown =
          (fun () ->
            if Lazy.is_val bstore then Cqp_net.Store.close (Lazy.force bstore);
            stop s);
      }
    in
    let inputs () =
      {
        Workload.catalog;
        profiles =
          List.init (size ~small).users (fun u ->
              Printf.sprintf "%s|%s" (user_name u)
                (fingerprint_hex (profile_of (base_seed seed + u))));
        requests =
          Array.to_list
            (Array.map
               (function
                 | Query q -> request_line q
                 | Install { user; seed } -> Printf.sprintf "install|%s|%d" user seed)
               entries);
      }
    in
    (w, inputs)
  with e ->
    stop s;
    raise e
