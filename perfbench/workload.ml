(* What a workload hands main.ml after set-up. *)

type cache_counts = {
  extract_hits : int;
  extract_lookups : int;
  memo_hits : int;
  memo_lookups : int;
  front_hits : int;
  front_lookups : int;
  bytes_held : int;
}

let no_caches =
  {
    extract_hits = 0;
    extract_lookups = 0;
    memo_hits = 0;
    memo_lookups = 0;
    front_hits = 0;
    front_lookups = 0;
    bytes_held = 0;
  }

(* Summed over the program's caches (one per serving lane). *)
let cache_counts caches =
  List.fold_left
    (fun a c ->
      let e = Cqp_core.Cache.extraction_stats c in
      let f = Cqp_core.Cache.front_stats c in
      let ml, mh = Cqp_core.Cache.memo_stats c in
      {
        extract_hits = a.extract_hits + e.Cqp_util.Lru.hits;
        extract_lookups = a.extract_lookups + e.Cqp_util.Lru.lookups;
        memo_hits = a.memo_hits + mh;
        memo_lookups = a.memo_lookups + ml;
        front_hits = a.front_hits + f.Cqp_util.Lru.hits;
        front_lookups = a.front_lookups + f.Cqp_util.Lru.lookups;
        bytes_held = a.bytes_held + Cqp_core.Cache.bytes_held c;
      })
    no_caches caches

type t = {
  ops_per_round : int;
  round : Harness.tally -> unit;  (** one untraced round *)
  traced_round : Layers.t -> Harness.tally -> unit;
      (** one round replayed through the layers *)
  verify : unit -> unit;
      (** after the measured phase: one unmeasured verification round
          whose answers go through the independent checks *)
  failures : unit -> int * string list;
      (** failed operation instances and the first messages *)
  doi_mean : unit -> float;  (** over one round's answered queries *)
  caches : unit -> cache_counts;
  teardown : unit -> unit;
}

(* Inputs, for the digest line. *)
type inputs = {
  catalog : Cqp_relal.Catalog.t;
  profiles : string list;  (** one line per profile *)
  requests : string list;  (** one line per operation of a round *)
}
