(* Differential test harness for the LP core.

   The device under test is the eta-file revised simplex
   (Dls_lp.Revised_simplex): the sparse, packed-form core that every
   relaxation runs on.  The oracle is the dense tableau Dls_lp.Simplex,
   both in floats and in exact rationals; the random programs are small
   enough (at most 8 variables and 11 rows) for the exact one.  Random
   packed LPs (feasible, degenerate, unbounded-leaning) must get the
   same status and objective from the core and from both oracles, the
   core's optimum must be primal feasible, and its duals must close the
   duality gap.  (The property names call the tableau "dense" and the
   core "sparse".)  The Table-1 axis sweep runs platform relaxations
   through [Lp_relax.solve], checks platform-level feasibility at every
   K, and compares the optimum with the exact rational path
   [Lp_relax.solve_exact] where that path is affordable (K <= 15).

   The DLS_LP_DIFF environment variable scales the run: "smoke" shrinks
   the QCheck counts and the grid for the CI timeout, "full" expands
   both (the complete Table-1 axis sweep), unset is the default tier
   (>= 500 differential QCheck instances). *)

module Rs = Dls_lp.Revised_simplex
module Sf = Dls_lp.Simplex.Make (Dls_lp.Field.Float)
module Se = Dls_lp.Simplex.Make (Dls_lp.Field.Exact)
module Q = Dls_num.Rat
module Gen_p = Dls_platform.Generator
module P = Dls_platform.Platform
module Problem = Dls_core.Problem
module Lp_relax = Dls_core.Lp_relax
module Prng = Dls_util.Prng

type mode = Smoke | Default | Full

let mode =
  match Sys.getenv_opt "DLS_LP_DIFF" with
  | Some "smoke" -> Smoke
  | Some "full" -> Full
  | _ -> Default

let count n =
  match mode with Smoke -> max 10 (n / 5) | Default -> n | Full -> 2 * n

(* ------------------------------------------------------------------ *)
(* Random packed LPs                                                   *)
(* ------------------------------------------------------------------ *)

(* Half-integer coefficients exercise non-trivial floats while staying
   exactly representable, so core/oracle disagreements are real
   solver divergences, not input rounding. *)
let general_lp_gen =
  let open QCheck2.Gen in
  let* nv = int_range 1 8 in
  let* nrows = int_range 1 10 in
  let coeff = map (fun c -> float_of_int c /. 2.0) (int_range (-6) 12) in
  let row =
    let* terms =
      list_size (int_range 1 (2 * nv)) (pair (int_range 0 (nv - 1)) coeff)
    in
    let* rhs = map (fun r -> float_of_int r /. 2.0) (int_range 0 40) in
    return { Rs.coeffs = terms; rhs }
  in
  let* obj =
    list_repeat nv
      (pair (int_range 0 (nv - 1))
         (map (fun c -> float_of_int c /. 2.0) (int_range (-6) 10)))
  in
  let* rows = list_repeat nrows row in
  return { Rs.num_vars = nv; maximize = obj; rows }

(* Degenerate: many zero right-hand sides and duplicated rows — the
   shape that historically provokes cycling and ties in the ratio
   test. *)
let degenerate_lp_gen =
  let open QCheck2.Gen in
  let* p = general_lp_gen in
  let* zeroed =
    flatten_l
      (List.map
         (fun (r : Rs.constr) ->
           let* z = bool in
           return (if z then { r with Rs.rhs = 0.0 } else r))
         p.Rs.rows)
  in
  let* dup = bool in
  let rows =
    if dup && zeroed <> [] then List.hd zeroed :: zeroed else zeroed
  in
  return { p with Rs.rows = rows }

(* Unbounded-leaning: positive objective on every variable but rows
   constraining only a prefix of them, so the tail often rides free. *)
let unbounded_lp_gen =
  let open QCheck2.Gen in
  let* nv = int_range 2 6 in
  let* covered = int_range 0 (nv - 1) in
  let* nrows = int_range 0 4 in
  let coeff = map (fun c -> float_of_int c /. 2.0) (int_range 0 8) in
  let row =
    let* terms =
      if covered = 0 then return []
      else list_size (int_range 1 covered) (pair (int_range 0 (covered - 1)) coeff)
    in
    let* rhs = map float_of_int (int_range 0 20) in
    return { Rs.coeffs = terms; rhs }
  in
  let* rows = list_repeat nrows row in
  let obj = List.init nv (fun j -> (j, 1.0)) in
  return { Rs.num_vars = nv; maximize = obj; rows }

let feasible (p : Rs.problem) (sol : Rs.solution) =
  Array.for_all (fun v -> v >= -1e-7) sol.Rs.values
  && List.for_all
       (fun (r : Rs.constr) ->
         let lhs =
           List.fold_left
             (fun acc (v, c) -> acc +. (c *. sol.Rs.values.(v)))
             0.0 r.Rs.coeffs
         in
         lhs <= r.Rs.rhs +. (1e-6 *. Float.max 1.0 (Float.abs r.Rs.rhs)))
       p.Rs.rows

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)

(* The oracle programs: the same rows as [<=] constraints of the
   tableau, in floats and exactly.  Half-integers are exact in both. *)
let to_float_tableau (p : Rs.problem) =
  { Sf.num_vars = p.Rs.num_vars;
    maximize = p.Rs.maximize;
    rows =
      List.map
        (fun (r : Rs.constr) ->
          { Sf.coeffs = r.Rs.coeffs; cmp = Sf.Le; rhs = r.Rs.rhs })
        p.Rs.rows }

let to_exact_tableau (p : Rs.problem) =
  let q = Q.of_float in
  { Se.num_vars = p.Rs.num_vars;
    maximize = List.map (fun (v, c) -> (v, q c)) p.Rs.maximize;
    rows =
      List.map
        (fun (r : Rs.constr) ->
          { Se.coeffs = List.map (fun (v, c) -> (v, q c)) r.Rs.coeffs;
            cmp = Se.Le;
            rhs = q r.Rs.rhs })
        p.Rs.rows }

(* A solver's answer reduced to what the three must agree on. *)
type verdict = Opt of float | Unbounded | Budget | Infeasible

let agree a b =
  match (a, b) with
  | Opt x, Opt y -> close y x
  | Unbounded, Unbounded -> true
  (* Budget exhaustion on either side is inconclusive: the tableau and
     the revised simplex pivot differently. *)
  | Budget, _ | _, Budget -> true
  | _ -> false

let core_verdict (s : Rs.solution) =
  match s.Rs.status with
  | Rs.Optimal -> Opt s.Rs.objective
  | Rs.Unbounded -> Unbounded
  | Rs.Iteration_limit | Rs.Cycling -> Budget

let float_verdict (s : Sf.solution) =
  match s.Sf.status with
  | Sf.Optimal -> Opt s.Sf.objective
  | Sf.Unbounded -> Unbounded
  | Sf.Iteration_limit -> Budget
  | Sf.Infeasible -> Infeasible

let exact_verdict (s : Se.solution) =
  match s.Se.status with
  | Se.Optimal -> Opt (Q.to_float s.Se.objective)
  | Se.Unbounded -> Unbounded
  | Se.Iteration_limit -> Budget
  | Se.Infeasible -> Infeasible

(* The differential contract: the core agrees with the float tableau
   and with the exact one, and its optimum is primal feasible. *)
let diff_ok (p : Rs.problem) =
  let core = Rs.solve p in
  let v = core_verdict core in
  agree v (float_verdict (Sf.solve (to_float_tableau p)))
  && agree v (exact_verdict (Se.solve (to_exact_tableau p)))
  && (core.Rs.status <> Rs.Optimal || feasible p core)

let prop_diff_general =
  QCheck2.Test.make ~name:"dense and sparse backends agree (general)"
    ~count:(count 300) general_lp_gen diff_ok

let prop_diff_degenerate =
  QCheck2.Test.make ~name:"dense and sparse backends agree (degenerate)"
    ~count:(count 150) degenerate_lp_gen diff_ok

let prop_diff_unbounded =
  QCheck2.Test.make ~name:"dense and sparse backends agree (unbounded)"
    ~count:(count 120) unbounded_lp_gen diff_ok

let prop_sparse_strong_duality =
  QCheck2.Test.make ~name:"sparse backend satisfies strong duality"
    ~count:(count 200) general_lp_gen (fun p ->
      let sol = Rs.solve p in
      sol.Rs.status <> Rs.Optimal
      || begin
        let dual_obj =
          List.fold_left2
            (fun acc (r : Rs.constr) d -> acc +. (d *. r.Rs.rhs))
            0.0 p.Rs.rows
            (Array.to_list sol.Rs.duals)
        in
        Float.abs (dual_obj -. sol.Rs.objective)
        <= 1e-5 *. Float.max 1.0 (Float.abs sol.Rs.objective)
        && Array.for_all (fun d -> d >= -1e-7) sol.Rs.duals
      end)

(* ------------------------------------------------------------------ *)
(* Table-1 platform relaxations                                        *)
(* ------------------------------------------------------------------ *)

(* One value per axis step with every other parameter at its Table-1
   default — the full cross product (115,200 settings) is out of reach
   for a test suite, the axes are what the paper varies.  The last
   field marks the settings cross-checked against the exact rational
   path: every one in the full tier, each axis's two ends otherwise. *)
let table1_axes =
  let ks, conns, hets, gs, bws, maxcons =
    match mode with
    | Smoke ->
      ([ 5; 15 ], [ 0.1; 0.8 ], [ 0.2; 0.8 ], [ 50.0; 450.0 ],
       [ 10.0; 90.0 ], [ 5.0; 95.0 ])
    | Default ->
      ( [ 5; 15; 25; 35 ],
        [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ],
        [ 0.2; 0.4; 0.6; 0.8 ],
        [ 50.0; 250.0; 350.0; 450.0 ],
        [ 10.0; 30.0; 50.0; 70.0; 90.0 ],
        [ 5.0; 25.0; 45.0; 65.0; 95.0 ] )
    | Full ->
      ( [ 5; 15; 25; 35; 45; 55; 65; 75; 85; 95 ],
        [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ],
        [ 0.2; 0.4; 0.6; 0.8 ],
        [ 50.0; 250.0; 350.0; 450.0 ],
        List.init 9 (fun i -> float_of_int (10 * (i + 1))),
        List.init 10 (fun i -> float_of_int ((10 * i) + 5)) )
  in
  let d = Gen_p.default_params in
  let axis name values params =
    let last = List.length values - 1 in
    List.mapi
      (fun i v -> (name, v, params v, mode = Full || i = 0 || i = last))
      values
  in
  List.concat
    [
      axis "k" (List.map float_of_int ks) (fun k ->
          { d with Gen_p.k = int_of_float k });
      axis "connectivity" conns (fun connectivity ->
          { d with Gen_p.connectivity });
      axis "heterogeneity" hets (fun heterogeneity ->
          { d with Gen_p.heterogeneity });
      axis "g" gs (fun mean_g -> { d with Gen_p.mean_g });
      axis "bw" bws (fun mean_bw -> { d with Gen_p.mean_bw });
      axis "maxcon" maxcons (fun mean_maxcon -> { d with Gen_p.mean_maxcon });
    ]

(* Feasibility of a relaxation solution against the platform's rows
   (7b compute, 7c local links, 7d backbone slots). *)
let relax_feasible platform (sol : float Lp_relax.solution) =
  let kk = P.num_clusters platform in
  let tol cap = 1e-6 *. Float.max 1.0 cap in
  let ok = ref true in
  for l = 0 to kk - 1 do
    let load = ref 0.0 in
    for k = 0 to kk - 1 do
      load := !load +. sol.Lp_relax.alpha.(k).(l)
    done;
    if !load > P.speed platform l +. tol (P.speed platform l) then ok := false
  done;
  for k = 0 to kk - 1 do
    let traffic = ref 0.0 in
    for l = 0 to kk - 1 do
      if l <> k then
        traffic :=
          !traffic +. sol.Lp_relax.alpha.(k).(l) +. sol.Lp_relax.alpha.(l).(k)
    done;
    if !traffic > P.local_bw platform k +. tol (P.local_bw platform k) then
      ok := false
  done;
  for link = 0 to P.num_backbones platform - 1 do
    let slots = ref 0.0 in
    List.iter
      (fun (k, l) -> slots := !slots +. sol.Lp_relax.beta.(k).(l))
      (P.routes_through platform link);
    let cap = float_of_int (P.backbone platform link).P.max_connect in
    if !slots > cap +. tol cap then ok := false
  done;
  !ok

(* Where the exact rational path is affordable: MAXMIN over every
   cluster takes 7-19 s at K = 15 (and did not finish within 90 s at
   K = 24), SUM under a second at K = 15. *)
let exact_affordable objective k =
  match objective with Lp_relax.Sum -> k <= 15 | Lp_relax.Maxmin -> k <= 5

let test_table1_grid () =
  List.iteri
    (fun idx (axis, v, params, exact) ->
      let rng = Prng.create ~seed:(0x7D1F + idx) in
      let platform = Gen_p.generate rng params in
      let payoffs = Array.make (P.num_clusters platform) 1.0 in
      let problem = Problem.make platform ~payoffs in
      List.iter
        (fun objective ->
          let name =
            Printf.sprintf "%s=%g %s" axis v
              (match objective with
               | Lp_relax.Maxmin -> "maxmin"
               | Lp_relax.Sum -> "sum")
          in
          match Lp_relax.solve ~objective problem with
          | Lp_relax.Failed msg -> Alcotest.failf "%s: core failed (%s)" name msg
          | Lp_relax.Solution s -> (
            if not (relax_feasible platform s) then
              Alcotest.failf "%s: core solution infeasible" name;
            if exact && exact_affordable objective params.Gen_p.k then
              match Lp_relax.solve_exact ~objective problem with
              | Lp_relax.Failed msg ->
                Alcotest.failf "%s: exact failed (%s), core solved" name msg
              | Lp_relax.Solution e ->
                let exact = Q.to_float e.Lp_relax.objective_value in
                if not (close exact s.Lp_relax.objective_value) then
                  Alcotest.failf "%s: core %.9g vs exact %.9g" name
                    s.Lp_relax.objective_value exact))
        [ Lp_relax.Maxmin; Lp_relax.Sum ])
    table1_axes

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dls_lp_diff"
    [
      ( "differential",
        qsuite
          [
            prop_diff_general;
            prop_diff_degenerate;
            prop_diff_unbounded;
            prop_sparse_strong_duality;
          ] );
      ( "table1-grid",
        [ Alcotest.test_case "axes sweep, core vs exact" `Slow test_table1_grid ]
      );
    ]
