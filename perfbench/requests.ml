(* Serve-shaped requests for the serving workloads.  Each draws like
   Cqp_serve.Workload.random_request -- a serve-template query
   (Query_gen), a problem of the paper's family (2, 3, 4), a bounded K
   and one of three algorithms -- except that the problem, the cost band,
   K and the algorithm follow a fixed schedule over the request index.
   Every seed then runs the same mix, and only the users, the query text
   and the constraint values within their bands change with the seed:
   the request mix, not the seed, sets the cost of a round. *)

module C = Cqp_core
module Rng = Cqp_util.Rng

let algorithms = [| C.Algorithm.C_boundaries; C.Algorithm.C_maxbounds; C.Algorithm.D_maxdoi |]

(* Problem 2 twice, 3 and 4 once in every four; cmax in one of four
   bands of [300, 3000] ms. *)
let problem rng i =
  let band = i / 4 mod 4 in
  let cmax () = float_of_int (Rng.int_in rng (300 + (675 * band)) (300 + (675 * (band + 1)))) in
  match i mod 4 with
  | 0 | 1 -> C.Problem.problem2 ~cmax:(cmax ())
  | 2 ->
      C.Problem.problem3 ~cmax:(cmax ()) ~smin:1.
        ~smax:(float_of_int (Rng.int_in rng 200 5000))
  | _ -> C.Problem.problem4 ~dmin:(0.2 +. (0.15 *. float_of_int band) +. Rng.float rng 0.15)

(* K from 8 to 16 and the algorithm rotate on their own periods: the
   whole schedule repeats every 432 requests. *)
let max_k i = 8 + (i / 16 mod 9)
let algorithm i = algorithms.(i / 144 mod Array.length algorithms)

let request ?(execute = false) ?(max_k = max_k) ?(algorithm = algorithm) ~rng ~i
    ~user catalog =
  let sql = Cqp_sql.Printer.to_string (Cqp_workload.Query_gen.generate_serve ~rng catalog) in
  {
    Cqp_serve.Serve.user;
    sql;
    problem = problem rng i;
    max_k = Some (max_k i);
    algorithm = algorithm i;
    execute;
  }
