(* Output bookkeeping shared by the workloads.  During the measured
   rounds only a small key of each answer is kept: the first answer to
   each operation sets it, and every later answer to the same operation
   must have the same key.  The independent computations run after the
   measured phase, on a verification round that asks every operation
   once more (unmeasured) and hands [verify] the full answer: its key
   must equal the kept one and the oracle must accept it.  Nothing the
   oracles need is held while the program is measured.  An operation
   whose answer fails either test counts as failed in every round. *)

type ('o, 'k) t = {
  key : 'o -> 'k;
  doi : 'k -> float option;  (** the doi of a query's answer *)
  oracle : int -> 'o -> (unit, string) result;
  kept : 'k option array;
  completed : int array;  (** answered instances per operation *)
  bad : bool array;
  mutable mismatches : int;
  mutable msgs : string list;
}

let create n ~key ~doi ~oracle =
  {
    key;
    doi;
    oracle;
    kept = Array.make n None;
    completed = Array.make n 0;
    bad = Array.make n false;
    mismatches = 0;
    msgs = [];
  }

let note t msg = if List.length t.msgs < 5 then t.msgs <- msg :: t.msgs

let record t i o =
  t.completed.(i) <- t.completed.(i) + 1;
  let k = t.key o in
  match t.kept.(i) with
  | None -> t.kept.(i) <- Some k
  | Some k' ->
      if k <> k' then begin
        t.mismatches <- t.mismatches + 1;
        note t (Printf.sprintf "operation %d answered differently across rounds" i)
      end

(* An answered instance that was compared with the kept key elsewhere
   (the traced replay). *)
let complete t i = t.completed.(i) <- t.completed.(i) + 1

let kept t i = t.kept.(i)

let fail t i msg =
  t.bad.(i) <- true;
  note t (Printf.sprintf "operation %d: %s" i msg)

(* Check operation [i]'s answer from the verification round. *)
let verify t i o =
  match t.kept.(i) with
  | Some k when t.key o <> k -> fail t i "verification round answered differently"
  | _ -> (
      match t.oracle i o with
      | Ok () -> ()
      | Error msg -> fail t i msg
      | exception e -> fail t i ("check raised " ^ Printexc.to_string e))

(* Failed operation instances and the first messages. *)
let failures t =
  let n = ref t.mismatches in
  Array.iteri (fun i b -> if b then n := !n + t.completed.(i)) t.bad;
  (!n, List.rev t.msgs)

(* Mean doi of the answers to one round's queries: every round returns
   the same answers, so this is the mean over the run, independent of
   how many rounds fitted into it. *)
let mean_doi t =
  let sum = ref 0. and n = ref 0 in
  Array.iter
    (fun k ->
      match Option.bind k t.doi with
      | Some d ->
          sum := !sum +. d;
          incr n
      | None -> ())
    t.kept;
  if !n = 0 then 0. else !sum /. float_of_int !n
