(* Tests for Dls_lp: known-answer LPs, status classification, and a
   cross-validation property pitting the float solver against the exact
   rational solver on random programs. *)

module Sf = Dls_lp.Simplex.Make (Dls_lp.Field.Float)
module Se = Dls_lp.Simplex.Make (Dls_lp.Field.Exact)
module Mf = Dls_lp.Model.Float
module Q = Dls_num.Rat

let feps = 1e-6

let check_float = Alcotest.(check (float feps))

(* ------------------------------------------------------------------ *)
(* Known-answer float LPs                                              *)
(* ------------------------------------------------------------------ *)

let solve_f num_vars maximize rows =
  Sf.solve { Sf.num_vars; maximize; rows }

let test_textbook_max () =
  (* max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  ->  36 at (2,6) *)
  let sol =
    solve_f 2
      [ (0, 3.0); (1, 5.0) ]
      [ { Sf.coeffs = [ (0, 1.0) ]; cmp = Sf.Le; rhs = 4.0 };
        { Sf.coeffs = [ (1, 2.0) ]; cmp = Sf.Le; rhs = 12.0 };
        { Sf.coeffs = [ (0, 3.0); (1, 2.0) ]; cmp = Sf.Le; rhs = 18.0 } ]
  in
  Alcotest.(check bool) "optimal" true (sol.Sf.status = Sf.Optimal);
  check_float "objective" 36.0 sol.Sf.objective;
  check_float "x" 2.0 sol.Sf.values.(0);
  check_float "y" 6.0 sol.Sf.values.(1)

let test_equality_constraint () =
  (* max x + y  s.t.  x + y = 5, x <= 3  ->  5 *)
  let sol =
    solve_f 2
      [ (0, 1.0); (1, 1.0) ]
      [ { Sf.coeffs = [ (0, 1.0); (1, 1.0) ]; cmp = Sf.Eq; rhs = 5.0 };
        { Sf.coeffs = [ (0, 1.0) ]; cmp = Sf.Le; rhs = 3.0 } ]
  in
  Alcotest.(check bool) "optimal" true (sol.Sf.status = Sf.Optimal);
  check_float "objective" 5.0 sol.Sf.objective

let test_ge_constraint () =
  (* max -x  s.t.  x >= 2, x <= 5  ->  -2 *)
  let sol =
    solve_f 1
      [ (0, -1.0) ]
      [ { Sf.coeffs = [ (0, 1.0) ]; cmp = Sf.Ge; rhs = 2.0 };
        { Sf.coeffs = [ (0, 1.0) ]; cmp = Sf.Le; rhs = 5.0 } ]
  in
  Alcotest.(check bool) "optimal" true (sol.Sf.status = Sf.Optimal);
  check_float "objective" (-2.0) sol.Sf.objective

let test_negative_rhs_normalization () =
  (* max -x  s.t.  -x <= -2  (x >= 2)  ->  -2 *)
  let sol =
    solve_f 1
      [ (0, -1.0) ]
      [ { Sf.coeffs = [ (0, -1.0) ]; cmp = Sf.Le; rhs = -2.0 } ]
  in
  Alcotest.(check bool) "optimal" true (sol.Sf.status = Sf.Optimal);
  check_float "objective" (-2.0) sol.Sf.objective

let test_unbounded () =
  let sol = solve_f 1 [ (0, 1.0) ] [] in
  Alcotest.(check bool) "unbounded" true (sol.Sf.status = Sf.Unbounded)

let test_unbounded_with_rows () =
  (* max y  s.t. x <= 1: y unconstrained above. *)
  let sol =
    solve_f 2 [ (1, 1.0) ] [ { Sf.coeffs = [ (0, 1.0) ]; cmp = Sf.Le; rhs = 1.0 } ]
  in
  Alcotest.(check bool) "unbounded" true (sol.Sf.status = Sf.Unbounded)

let test_infeasible () =
  let sol =
    solve_f 1 [ (0, 1.0) ]
      [ { Sf.coeffs = [ (0, 1.0) ]; cmp = Sf.Le; rhs = 1.0 };
        { Sf.coeffs = [ (0, 1.0) ]; cmp = Sf.Ge; rhs = 2.0 } ]
  in
  Alcotest.(check bool) "infeasible" true (sol.Sf.status = Sf.Infeasible)

let test_degenerate () =
  (* Beale-style degenerate corner; Dantzig + stall-triggered Bland must
     still terminate at the optimum (value 0.05). *)
  let sol =
    solve_f 4
      [ (0, 0.75); (1, -150.0); (2, 0.02); (3, -6.0) ]
      [ { Sf.coeffs = [ (0, 0.25); (1, -60.0); (2, -0.04); (3, 9.0) ]; cmp = Sf.Le; rhs = 0.0 };
        { Sf.coeffs = [ (0, 0.5); (1, -90.0); (2, -0.02); (3, 3.0) ]; cmp = Sf.Le; rhs = 0.0 };
        { Sf.coeffs = [ (2, 1.0) ]; cmp = Sf.Le; rhs = 1.0 } ]
  in
  Alcotest.(check bool) "optimal" true (sol.Sf.status = Sf.Optimal);
  check_float "objective" 0.05 sol.Sf.objective

let test_duplicate_coeffs_summed () =
  (* max x  s.t.  x + x <= 4  ->  2 *)
  let sol =
    solve_f 1 [ (0, 1.0) ]
      [ { Sf.coeffs = [ (0, 1.0); (0, 1.0) ]; cmp = Sf.Le; rhs = 4.0 } ]
  in
  check_float "objective" 2.0 sol.Sf.objective

let test_klee_minty () =
  (* Klee-Minty cube, n = 8: Dantzig's rule famously visits up to 2^n
     vertices; both engines must still reach the optimum 5^8. *)
  let n = 8 in
  let pow5 i = Float.of_int (int_of_float (5.0 ** float_of_int i)) in
  let rows =
    List.init n (fun i ->
        let i = i + 1 in
        let coeffs =
          (i - 1, 1.0)
          :: List.init (i - 1) (fun j -> (j, 2.0 *. (2.0 ** float_of_int (i - 1 - j))))
        in
        { Sf.coeffs; cmp = Sf.Le; rhs = pow5 i })
  in
  let maximize = List.init n (fun j -> (j, 2.0 ** float_of_int (n - 1 - j))) in
  let dense = solve_f n maximize rows in
  Alcotest.(check bool) "dense optimal" true (dense.Sf.status = Sf.Optimal);
  Alcotest.(check (float 1.0)) "dense value" (pow5 n) dense.Sf.objective;
  let sparse =
    Dls_lp.Revised_simplex.solve
      { Dls_lp.Revised_simplex.num_vars = n;
        maximize;
        rows =
          List.map
            (fun r ->
              { Dls_lp.Revised_simplex.coeffs = r.Sf.coeffs; rhs = r.Sf.rhs })
            rows }
  in
  Alcotest.(check bool) "sparse optimal" true
    (sparse.Dls_lp.Revised_simplex.status = Dls_lp.Revised_simplex.Optimal);
  Alcotest.(check (float 1.0)) "sparse value" (pow5 n)
    sparse.Dls_lp.Revised_simplex.objective

let test_wide_coefficient_range () =
  (* Mixed magnitudes (1e-5 .. 1e5): the optimum is still found and
     matches the exact solver. *)
  let rows_f =
    [ { Sf.coeffs = [ (0, 1e5); (1, 1.0) ]; cmp = Sf.Le; rhs = 2e5 };
      { Sf.coeffs = [ (0, 1e-5); (1, 1e-5) ]; cmp = Sf.Le; rhs = 3e-5 } ]
  in
  let sol = solve_f 2 [ (0, 1.0); (1, 1.0) ] rows_f in
  let q = Q.of_float in
  let exact =
    Se.solve
      { Se.num_vars = 2;
        maximize = [ (0, q 1.0); (1, q 1.0) ];
        rows =
          [ { Se.coeffs = [ (0, q 1e5); (1, q 1.0) ]; cmp = Se.Le; rhs = q 2e5 };
            { Se.coeffs = [ (0, q 1e-5); (1, q 1e-5) ]; cmp = Se.Le; rhs = q 3e-5 } ] }
  in
  Alcotest.(check bool) "both optimal" true
    (sol.Sf.status = Sf.Optimal && exact.Se.status = Se.Optimal);
  Alcotest.(check (float 1e-4)) "float = exact"
    (Q.to_float exact.Se.objective)
    sol.Sf.objective

let test_bad_index_rejected () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Simplex.solve: variable index 3 out of range")
    (fun () ->
      ignore
        (solve_f 2 [ (0, 1.0) ]
           [ { Sf.coeffs = [ (3, 1.0) ]; cmp = Sf.Le; rhs = 1.0 } ]))

(* ------------------------------------------------------------------ *)
(* Exact solver                                                        *)
(* ------------------------------------------------------------------ *)

let test_exact_textbook () =
  let q = Q.of_int in
  let sol =
    Se.solve
      { Se.num_vars = 2;
        maximize = [ (0, q 3); (1, q 5) ];
        rows =
          [ { Se.coeffs = [ (0, q 1) ]; cmp = Se.Le; rhs = q 4 };
            { Se.coeffs = [ (1, q 2) ]; cmp = Se.Le; rhs = q 12 };
            { Se.coeffs = [ (0, q 3); (1, q 2) ]; cmp = Se.Le; rhs = q 18 } ] }
  in
  Alcotest.(check bool) "optimal" true (sol.Se.status = Se.Optimal);
  Alcotest.(check bool) "objective exactly 36" true (Q.equal (q 36) sol.Se.objective)

let test_exact_fractional_optimum () =
  (* max x + y  s.t.  2x + y <= 3, x + 3y <= 5  ->  (4/5, 7/5), obj 11/5 *)
  let q = Q.of_int in
  let sol =
    Se.solve
      { Se.num_vars = 2;
        maximize = [ (0, q 1); (1, q 1) ];
        rows =
          [ { Se.coeffs = [ (0, q 2); (1, q 1) ]; cmp = Se.Le; rhs = q 3 };
            { Se.coeffs = [ (0, q 1); (1, q 3) ]; cmp = Se.Le; rhs = q 5 } ] }
  in
  Alcotest.(check bool) "obj 11/5" true (Q.equal (Q.of_ints 11 5) sol.Se.objective);
  Alcotest.(check bool) "x 4/5" true (Q.equal (Q.of_ints 4 5) sol.Se.values.(0));
  Alcotest.(check bool) "y 7/5" true (Q.equal (Q.of_ints 7 5) sol.Se.values.(1))

(* ------------------------------------------------------------------ *)
(* Model layer                                                         *)
(* ------------------------------------------------------------------ *)

let test_model_basic () =
  let m = Mf.create () in
  let x = Mf.add_var m in
  let y = Mf.add_var m in
  Mf.add_le m [ (x, 1.0); (y, 1.0) ] 10.0;
  Mf.add_le m [ (y, 1.0) ] 6.0;
  Mf.set_objective m [ (x, 1.0); (y, 2.0) ];
  let r = Mf.solve m in
  Alcotest.(check bool) "optimal" true (r.Mf.status = Mf.Solver.Optimal);
  check_float "objective" 16.0 r.Mf.objective;
  check_float "x" 4.0 (r.Mf.value x);
  check_float "y" 6.0 (r.Mf.value y)

let test_model_resolve_with_new_constraint () =
  let m = Mf.create () in
  let x = Mf.add_var m in
  Mf.add_le m [ (x, 1.0) ] 10.0;
  Mf.set_objective m [ (x, 1.0) ];
  let r1 = Mf.solve m in
  check_float "first solve" 10.0 r1.Mf.objective;
  Mf.add_le m [ (x, 1.0) ] 4.0;
  let r2 = Mf.solve m in
  check_float "second solve" 4.0 r2.Mf.objective

(* ------------------------------------------------------------------ *)
(* Property: float and exact agree on random programs                  *)
(* ------------------------------------------------------------------ *)

type rand_lp = {
  nv : int;
  obj : (int * int) list;
  lrows : (int * int) list list;  (* coefficients; one row per list *)
  cmps : int list;  (* 0 = Le, 1 = Ge, 2 = Eq *)
  rhss : int list;
}

let rand_lp_gen =
  let open QCheck2.Gen in
  let* nv = int_range 1 4 in
  let* nrows = int_range 1 5 in
  let coeff = int_range (-4) 4 in
  let row = list_repeat nv (pair (int_range 0 (nv - 1)) coeff) in
  let* obj = row in
  let* lrows = list_repeat nrows row in
  let* cmps = list_repeat nrows (int_range 0 2) in
  let* rhss = list_repeat nrows (int_range 0 15) in
  return { nv; obj; lrows; cmps; rhss }

let to_float_problem r =
  let cmp_of = function 0 -> Sf.Le | 1 -> Sf.Ge | _ -> Sf.Eq in
  { Sf.num_vars = r.nv;
    maximize = List.map (fun (v, c) -> (v, float_of_int c)) r.obj;
    rows =
      List.map2
        (fun (coeffs, cmp) rhs ->
          { Sf.coeffs = List.map (fun (v, c) -> (v, float_of_int c)) coeffs;
            cmp = cmp_of cmp;
            rhs = float_of_int rhs })
        (List.combine r.lrows r.cmps)
        r.rhss }

let to_exact_problem r =
  let cmp_of = function 0 -> Se.Le | 1 -> Se.Ge | _ -> Se.Eq in
  { Se.num_vars = r.nv;
    maximize = List.map (fun (v, c) -> (v, Q.of_int c)) r.obj;
    rows =
      List.map2
        (fun (coeffs, cmp) rhs ->
          { Se.coeffs = List.map (fun (v, c) -> (v, Q.of_int c)) coeffs;
            cmp = cmp_of cmp;
            rhs = Q.of_int rhs })
        (List.combine r.lrows r.cmps)
        r.rhss }

let status_tag_f = function
  | Sf.Optimal -> 0 | Sf.Infeasible -> 1 | Sf.Unbounded -> 2 | Sf.Iteration_limit -> 3

let status_tag_e = function
  | Se.Optimal -> 0 | Se.Infeasible -> 1 | Se.Unbounded -> 2 | Se.Iteration_limit -> 3

let prop_float_matches_exact =
  QCheck2.Test.make ~name:"float simplex agrees with exact simplex" ~count:300
    rand_lp_gen (fun r ->
      let sf = Sf.solve (to_float_problem r) in
      let se = Se.solve (to_exact_problem r) in
      status_tag_f sf.Sf.status = status_tag_e se.Se.status
      && (sf.Sf.status <> Sf.Optimal
          || Float.abs (sf.Sf.objective -. Q.to_float se.Se.objective) < 1e-6))

let prop_optimal_point_is_feasible =
  QCheck2.Test.make ~name:"optimal point satisfies all constraints" ~count:300
    rand_lp_gen (fun r ->
      let p = to_float_problem r in
      let sf = Sf.solve p in
      if sf.Sf.status <> Sf.Optimal then true
      else begin
        let ok_row row =
          let lhs =
            List.fold_left
              (fun acc (v, c) -> acc +. (c *. sf.Sf.values.(v)))
              0.0 row.Sf.coeffs
          in
          match row.Sf.cmp with
          | Sf.Le -> lhs <= row.Sf.rhs +. 1e-6
          | Sf.Ge -> lhs >= row.Sf.rhs -. 1e-6
          | Sf.Eq -> Float.abs (lhs -. row.Sf.rhs) < 1e-6
        in
        List.for_all ok_row p.Sf.rows
        && Array.for_all (fun v -> v >= -1e-9) sf.Sf.values
      end)

(* ------------------------------------------------------------------ *)
(* Duals                                                               *)
(* ------------------------------------------------------------------ *)

let test_dense_duals_textbook () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18: the first row is
     slack at the optimum (dual 0); known duals 0, 3/2, 1. *)
  let sol =
    solve_f 2
      [ (0, 3.0); (1, 5.0) ]
      [ { Sf.coeffs = [ (0, 1.0) ]; cmp = Sf.Le; rhs = 4.0 };
        { Sf.coeffs = [ (1, 2.0) ]; cmp = Sf.Le; rhs = 12.0 };
        { Sf.coeffs = [ (0, 3.0); (1, 2.0) ]; cmp = Sf.Le; rhs = 18.0 } ]
  in
  check_float "y1" 0.0 sol.Sf.duals.(0);
  check_float "y2" 1.5 sol.Sf.duals.(1);
  check_float "y3" 1.0 sol.Sf.duals.(2)

let dual_objective_f rows (sol : Sf.solution) =
  List.fold_left ( +. ) 0.0
    (List.mapi (fun i r -> sol.Sf.duals.(i) *. r.Sf.rhs) rows)

let prop_exact_strong_duality =
  (* Strong duality over the exact rational field: primal and dual
     objectives are EQUAL, not merely close. *)
  QCheck2.Test.make ~name:"exact engine satisfies strong duality exactly" ~count:150
    rand_lp_gen (fun r ->
      let p = to_exact_problem r in
      let sol = Se.solve p in
      sol.Se.status <> Se.Optimal
      || begin
        let dual_obj =
          List.fold_left
            (fun acc (i, row) -> Q.add acc (Q.mul sol.Se.duals.(i) row.Se.rhs))
            Q.zero
            (List.mapi (fun i row -> (i, row)) p.Se.rows)
        in
        Q.equal dual_obj sol.Se.objective
      end)

let prop_dense_strong_duality =
  QCheck2.Test.make ~name:"dense engine satisfies strong duality" ~count:300
    rand_lp_gen (fun r ->
      let p = to_float_problem r in
      let sol = Sf.solve p in
      sol.Sf.status <> Sf.Optimal
      || Float.abs (dual_objective_f p.Sf.rows sol -. sol.Sf.objective) < 1e-5)

let prop_dense_dual_signs =
  QCheck2.Test.make ~name:"dense duals have the right signs" ~count:300 rand_lp_gen
    (fun r ->
      let p = to_float_problem r in
      let sol = Sf.solve p in
      sol.Sf.status <> Sf.Optimal
      || List.for_all2
           (fun row d ->
             match row.Sf.cmp with
             | Sf.Le -> d >= -1e-7
             | Sf.Ge -> d <= 1e-7
             | Sf.Eq -> true)
           p.Sf.rows
           (Array.to_list sol.Sf.duals))

(* ------------------------------------------------------------------ *)
(* Sparse revised simplex                                              *)
(* ------------------------------------------------------------------ *)

module Rs = Dls_lp.Revised_simplex
module Obs = Dls_obs.Metrics

(* Run [f] with the metrics registry on and freshly zeroed, then return
   the named solver counters from the final snapshot.  The registry is
   global, so each reader scopes its own window — PR-1's per-state
   counter assertions live here now, reading the cross-state registry
   totals instead of the state record. *)
let with_registry f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let registry_counter name =
  match List.assoc_opt name (Obs.snapshot ()) with
  | Some (Obs.Counter n) -> n
  | Some _ -> Alcotest.failf "metric %s is not a counter" name
  | None -> Alcotest.failf "metric %s not registered" name

let registry_hist name =
  match List.assoc_opt name (Obs.snapshot ()) with
  | Some (Obs.Histogram h) -> h
  | _ -> Alcotest.failf "metric %s is not a histogram" name

let test_revised_textbook () =
  let sol =
    Rs.solve
      { Rs.num_vars = 2;
        maximize = [ (0, 3.0); (1, 5.0) ];
        rows =
          [ { Rs.coeffs = [ (0, 1.0) ]; rhs = 4.0 };
            { Rs.coeffs = [ (1, 2.0) ]; rhs = 12.0 };
            { Rs.coeffs = [ (0, 3.0); (1, 2.0) ]; rhs = 18.0 } ] }
  in
  Alcotest.(check bool) "optimal" true (sol.Rs.status = Rs.Optimal);
  check_float "objective" 36.0 sol.Rs.objective;
  check_float "x" 2.0 sol.Rs.values.(0);
  check_float "y" 6.0 sol.Rs.values.(1)

let test_revised_unbounded () =
  let sol = Rs.solve { Rs.num_vars = 1; maximize = [ (0, 1.0) ]; rows = [] } in
  Alcotest.(check bool) "unbounded" true (sol.Rs.status = Rs.Unbounded)

let test_revised_rejects_negative_rhs () =
  Alcotest.check_raises "negative rhs"
    (Invalid_argument "Revised_simplex.solve: negative right-hand side") (fun () ->
      ignore
        (Rs.solve
           { Rs.num_vars = 1;
             maximize = [ (0, 1.0) ];
             rows = [ { Rs.coeffs = [ (0, 1.0) ]; rhs = -1.0 } ] }))

let chain_problem n =
  { Rs.num_vars = n;
    maximize = List.init n (fun i -> (i, 1.0));
    rows =
      List.init n (fun i ->
          { Rs.coeffs = ((i, 1.0) :: if i > 0 then [ (i - 1, 0.5) ] else []);
            rhs = 10.0 }) }

let test_revised_many_pivots_refactor () =
  (* More pivots than the refactorization interval: a long chain of
     coupled rows forces enough iterations to cross it at least once. *)
  let n = 180 in
  let p = chain_problem n in
  let sol = Rs.solve p in
  Alcotest.(check bool) "optimal" true (sol.Rs.status = Rs.Optimal);
  (* Compare against the dense engine on the identical program. *)
  let dense =
    solve_f n p.Rs.maximize
      (List.map (fun (r : Rs.constr) -> { Sf.coeffs = r.Rs.coeffs; cmp = Sf.Le; rhs = r.Rs.rhs }) p.Rs.rows)
  in
  check_float "matches dense" dense.Sf.objective sol.Rs.objective

let test_revised_pivot_limit () =
  (* A tiny pivot budget on an LP that needs several iterations: the
     solver must stop with a termination status instead of spinning —
     Iteration_limit when the objective was still moving, Cycling when
     the stall detector had already switched to Bland's rule. *)
  let n = 40 in
  let rows =
    List.init n (fun i ->
        { Rs.coeffs = ((i, 1.0) :: if i > 0 then [ (i - 1, 0.5) ] else []);
          rhs = 10.0 })
  in
  let p = { Rs.num_vars = n; maximize = List.init n (fun i -> (i, 1.0)); rows } in
  let sol = Rs.solve ~max_iterations:3 p in
  Alcotest.(check bool) "budget respected" true (sol.Rs.iterations <= 3);
  Alcotest.(check bool) "terminates non-optimal" true
    (match sol.Rs.status with
     | Rs.Iteration_limit | Rs.Cycling -> true
     | Rs.Optimal | Rs.Unbounded -> false);
  (* The same LP with the default budget still reaches the optimum. *)
  Alcotest.(check bool) "full budget optimal" true
    ((Rs.solve p).Rs.status = Rs.Optimal)

let test_revised_budget_boundary () =
  (* Pinned regression for the budget/optimality off-by-one: the budget
     used to be checked before pricing, so a solve that reached the
     optimum in exactly [budget] pivots was misreported as
     Iteration_limit.  Optimality proved at the boundary must win. *)
  let n = 20 in
  let rows =
    List.init n (fun i ->
        { Rs.coeffs = ((i, 1.0) :: if i > 0 then [ (i - 1, 0.5) ] else []);
          rhs = 10.0 })
  in
  let p = { Rs.num_vars = n; maximize = List.init n (fun i -> (i, 1.0)); rows } in
  let full = Rs.solve p in
  Alcotest.(check bool) "reference optimal" true (full.Rs.status = Rs.Optimal);
  Alcotest.(check bool) "needs pivots" true (full.Rs.iterations > 0);
  let exact = Rs.solve ~max_iterations:full.Rs.iterations p in
  Alcotest.(check bool) "exact budget is optimal" true
    (exact.Rs.status = Rs.Optimal);
  Alcotest.(check int) "same pivot count" full.Rs.iterations
    exact.Rs.iterations;
  let short = Rs.solve ~max_iterations:(full.Rs.iterations - 1) p in
  Alcotest.(check bool) "one pivot short is not optimal" true
    (match short.Rs.status with
     | Rs.Iteration_limit | Rs.Cycling -> true
     | Rs.Optimal | Rs.Unbounded -> false)

let test_revised_bland_counter () =
  (* A clean non-degenerate solve never needs the anti-cycling rule. *)
  let st =
    Rs.create
      { Rs.num_vars = 2;
        maximize = [ (0, 3.0); (1, 5.0) ];
        rows =
          [ { Rs.coeffs = [ (0, 1.0) ]; rhs = 4.0 };
            { Rs.coeffs = [ (1, 2.0) ]; rhs = 12.0 };
            { Rs.coeffs = [ (0, 3.0); (1, 2.0) ]; rhs = 18.0 } ] }
  in
  with_registry (fun () ->
      ignore (Rs.solve_state st);
      Alcotest.(check int) "no bland switches" 0
        (registry_counter "lp.bland_activations"))

(* Random packed-form LPs (all <=, rhs >= 0): both engines must agree.
   Coefficients may be negative, so duplicate indices in a row can sum
   to zero, which the column build must drop. *)
let packed_lp_gen =
  let open QCheck2.Gen in
  let* nv = int_range 1 6 in
  let* nrows = int_range 1 8 in
  let coeff = int_range (-3) 5 in
  let row =
    let* terms = list_size (int_range 1 nv) (pair (int_range 0 (nv - 1)) coeff) in
    let* rhs = int_range 0 20 in
    return (terms, rhs)
  in
  let* obj = list_repeat nv (pair (int_range 0 (nv - 1)) (int_range (-3) 5)) in
  let* rows = list_repeat nrows row in
  return (nv, obj, rows)

let prop_revised_matches_dense =
  QCheck2.Test.make ~name:"revised and dense engines agree on packed LPs" ~count:300
    packed_lp_gen (fun (nv, obj, rows) ->
      let objf = List.map (fun (v, c) -> (v, float_of_int c)) obj in
      let rowsf =
        List.map
          (fun (terms, rhs) ->
            ( List.map (fun (v, c) -> (v, float_of_int c)) terms,
              float_of_int rhs ))
          rows
      in
      let sparse =
        Rs.solve
          { Rs.num_vars = nv;
            maximize = objf;
            rows = List.map (fun (coeffs, rhs) -> { Rs.coeffs; rhs }) rowsf }
      in
      let dense =
        solve_f nv objf
          (List.map
             (fun (coeffs, rhs) -> { Sf.coeffs; cmp = Sf.Le; rhs })
             rowsf)
      in
      match (sparse.Rs.status, dense.Sf.status) with
      | Rs.Optimal, Sf.Optimal ->
        Float.abs (sparse.Rs.objective -. dense.Sf.objective) < 1e-6
      | Rs.Unbounded, Sf.Unbounded -> true
      | _ -> false)

let prop_revised_solution_feasible =
  QCheck2.Test.make ~name:"revised simplex solutions satisfy all rows" ~count:300
    packed_lp_gen (fun (nv, obj, rows) ->
      let objf = List.map (fun (v, c) -> (v, float_of_int c)) obj in
      let rowsf =
        List.map
          (fun (terms, rhs) ->
            { Rs.coeffs = List.map (fun (v, c) -> (v, float_of_int c)) terms;
              rhs = float_of_int rhs })
          rows
      in
      let sol = Rs.solve { Rs.num_vars = nv; maximize = objf; rows = rowsf } in
      sol.Rs.status <> Rs.Optimal
      || (Array.for_all (fun v -> v >= -1e-7) sol.Rs.values
          && List.for_all
               (fun r ->
                 let lhs =
                   List.fold_left
                     (fun acc (v, c) -> acc +. (c *. sol.Rs.values.(v)))
                     0.0 r.Rs.coeffs
                 in
                 lhs <= r.Rs.rhs +. 1e-6)
               rowsf))

let prop_revised_strong_duality =
  QCheck2.Test.make ~name:"revised simplex satisfies strong duality" ~count:300
    packed_lp_gen (fun (nv, obj, rows) ->
      let objf = List.map (fun (v, c) -> (v, float_of_int c)) obj in
      let rowsf =
        List.map
          (fun (terms, rhs) ->
            { Dls_lp.Revised_simplex.coeffs =
                List.map (fun (v, c) -> (v, float_of_int c)) terms;
              rhs = float_of_int rhs })
          rows
      in
      let sol =
        Dls_lp.Revised_simplex.solve
          { Dls_lp.Revised_simplex.num_vars = nv; maximize = objf; rows = rowsf }
      in
      sol.Dls_lp.Revised_simplex.status <> Dls_lp.Revised_simplex.Optimal
      || begin
        let dual_obj =
          List.fold_left ( +. ) 0.0
            (List.mapi
               (fun i (r : Dls_lp.Revised_simplex.constr) ->
                 sol.Dls_lp.Revised_simplex.duals.(i) *. r.Dls_lp.Revised_simplex.rhs)
               rowsf)
        in
        Float.abs (dual_obj -. sol.Dls_lp.Revised_simplex.objective) < 1e-5
        && Array.for_all (fun d -> d >= -1e-7) sol.Dls_lp.Revised_simplex.duals
      end)

(* ------------------------------------------------------------------ *)
(* Resumable solves (warm starts)                                      *)
(* ------------------------------------------------------------------ *)

let textbook_rows rhs1 rhs2 rhs3 =
  [ { Rs.coeffs = [ (0, 1.0) ]; rhs = rhs1 };
    { Rs.coeffs = [ (1, 2.0) ]; rhs = rhs2 };
    { Rs.coeffs = [ (0, 3.0); (1, 2.0) ]; rhs = rhs3 } ]

let textbook_problem rhs1 rhs2 rhs3 =
  { Rs.num_vars = 2;
    maximize = [ (0, 3.0); (1, 5.0) ];
    rows = textbook_rows rhs1 rhs2 rhs3 }

let test_warm_relax_nonbinding () =
  (* Relaxing a row that is slack at the optimum keeps the carried
     basis primal-feasible: the re-solve must be a warm start and reach
     the same optimum. *)
  with_registry @@ fun () ->
  let st = Rs.create (textbook_problem 4.0 12.0 18.0) in
  let s1 = Rs.solve_state st in
  check_float "first solve" 36.0 s1.Rs.objective;
  check_float "rhs read-back" 4.0 (Rs.rhs st ~row:0);
  Rs.set_rhs st ~row:0 5.0;
  let s2 = Rs.solve_state st in
  check_float "re-solve" 36.0 s2.Rs.objective;
  Alcotest.(check int) "solves" 2 (registry_counter "lp.solves");
  Alcotest.(check int) "cold starts" 1 (registry_counter "lp.cold_starts");
  Alcotest.(check int) "warm starts" 1 (registry_counter "lp.warm_starts");
  let seconds = registry_hist "lp.solve_seconds" in
  Alcotest.(check int) "both solves timed" 2 seconds.Obs.hs_count;
  Alcotest.(check bool) "wall clock advances" true (seconds.Obs.hs_sum > 0.0)

let test_warm_tighten_rhs () =
  (* Tightening may invalidate the carried basis (automatic cold
     fallback) — either way the optimum must match a from-scratch
     solve of the updated program. *)
  with_registry @@ fun () ->
  let st = Rs.create (textbook_problem 4.0 12.0 18.0) in
  ignore (Rs.solve_state st);
  Rs.set_rhs st ~row:1 6.0;
  let s2 = Rs.solve_state st in
  (* Two state solves so far; the from-scratch control below adds a
     third, so read the registry window here. *)
  Alcotest.(check int) "solves" 2 (registry_counter "lp.solves");
  Alcotest.(check int) "every solve tagged" 2
    (registry_counter "lp.warm_starts" + registry_counter "lp.cold_starts");
  let cold = Rs.solve (textbook_problem 4.0 6.0 18.0) in
  check_float "warm matches cold" cold.Rs.objective s2.Rs.objective;
  check_float "objective" 27.0 s2.Rs.objective;
  Alcotest.(check int) "control solve also counted" 3
    (registry_counter "lp.solves")

let test_warm_zero_coeff () =
  let st = Rs.create (textbook_problem 4.0 12.0 18.0) in
  ignore (Rs.solve_state st);
  (* Drop x from the third row: rows become x <= 4, 2y <= 12, 2y <= 18. *)
  Rs.zero_coeff st ~row:2 ~var:0;
  let s2 = Rs.solve_state st in
  let cold =
    Rs.solve
      { Rs.num_vars = 2;
        maximize = [ (0, 3.0); (1, 5.0) ];
        rows =
          [ { Rs.coeffs = [ (0, 1.0) ]; rhs = 4.0 };
            { Rs.coeffs = [ (1, 2.0) ]; rhs = 12.0 };
            { Rs.coeffs = [ (1, 2.0) ]; rhs = 18.0 } ] }
  in
  check_float "matches rebuilt LP" cold.Rs.objective s2.Rs.objective;
  check_float "objective" 42.0 s2.Rs.objective

let test_registry_reset_between_warm_resolves () =
  (* Backfilled edge case: a registry reset between the cold solve and
     the warm re-solve leaves a clean per-solve window — the second
     window sees exactly one solve, tagged warm — and must not disturb
     the state's own cumulative counters, which the campaign codec
     records. *)
  with_registry @@ fun () ->
  let st = Rs.create (textbook_problem 4.0 12.0 18.0) in
  ignore (Rs.solve_state st);
  Alcotest.(check int) "window 1: one cold solve" 1
    (registry_counter "lp.cold_starts");
  Obs.reset ();
  Alcotest.(check int) "reset zeroes solves" 0 (registry_counter "lp.solves");
  Alcotest.(check int) "reset empties the timing histogram" 0
    (registry_hist "lp.solve_seconds").Obs.hs_count;
  Rs.set_rhs st ~row:0 5.0;
  ignore (Rs.solve_state st);
  Alcotest.(check int) "window 2: one solve" 1 (registry_counter "lp.solves");
  Alcotest.(check int) "window 2: warm" 1 (registry_counter "lp.warm_starts");
  Alcotest.(check int) "window 2: no cold" 0
    (registry_counter "lp.cold_starts");
  Alcotest.(check int) "window 2: one timed solve" 1
    (registry_hist "lp.solve_seconds").Obs.hs_count;
  let c = Rs.counters st in
  Alcotest.(check int) "state record unaffected: solves" 2 c.Rs.solves;
  Alcotest.(check int) "state record unaffected: warm" 1 c.Rs.warm_starts;
  Alcotest.(check int) "state record unaffected: cold" 1 c.Rs.cold_starts

let test_state_update_validation () =
  let st = Rs.create (textbook_problem 4.0 12.0 18.0) in
  Alcotest.check_raises "negative rhs"
    (Invalid_argument "Revised_simplex.set_rhs: negative right-hand side")
    (fun () -> Rs.set_rhs st ~row:0 (-1.0));
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Revised_simplex.set_rhs: row out of range") (fun () ->
      Rs.set_rhs st ~row:3 1.0);
  Alcotest.check_raises "var out of range"
    (Invalid_argument "Revised_simplex.zero_coeff: variable out of range")
    (fun () -> Rs.zero_coeff st ~row:0 ~var:2)

let test_model_incremental_handle () =
  with_registry @@ fun () ->
  let m = Mf.create () in
  let x = Mf.add_var m in
  let y = Mf.add_var m in
  Mf.add_le m [ (x, 1.0) ] 4.0;
  Mf.add_le m [ (y, 2.0) ] 12.0;
  Mf.add_le m [ (x, 3.0); (y, 2.0) ] 18.0;
  Mf.set_objective m [ (x, 3.0); (y, 5.0) ];
  let h = Mf.incremental m in
  let r1 = Mf.inc_solve h in
  Alcotest.(check bool) "optimal" true (r1.Mf.status = Mf.Solver.Optimal);
  check_float "first objective" 36.0 r1.Mf.objective;
  Mf.inc_set_rhs h ~row:1 6.0;
  check_float "rhs read-back" 6.0 (Mf.inc_rhs h ~row:1);
  let r2 = Mf.inc_solve h in
  check_float "tightened objective" 27.0 r2.Mf.objective;
  check_float "x" 4.0 (r2.Mf.value x);
  check_float "y" 3.0 (r2.Mf.value y);
  Mf.inc_zero_coeff h ~row:2 x;
  let r3 = Mf.inc_solve h in
  check_float "zeroed objective" 27.0 r3.Mf.objective;
  Alcotest.(check int) "solves counted" 3 (registry_counter "lp.solves");
  Alcotest.(check int) "every solve tagged" 3
    (registry_counter "lp.warm_starts" + registry_counter "lp.cold_starts");
  Alcotest.(check int) "state solves" 3 (Mf.inc_counters h).Rs.solves;
  (* The builder is not edited through the handle; a cold packed solve
     still sees the original program. *)
  check_float "cold packed solve" 36.0 (Mf.solve_packed m).Mf.objective;
  (* A negative right-hand side leaves the all-slack start infeasible:
     both entry points refuse it rather than fall back to the tableau. *)
  Mf.add_le m [ (x, 1.0) ] (-1.0);
  let refused =
    Invalid_argument "Revised_simplex.solve: negative right-hand side"
  in
  Alcotest.check_raises "solve_packed refuses" refused (fun () ->
      ignore (Mf.solve_packed m));
  Alcotest.check_raises "incremental refuses" refused (fun () ->
      ignore (Mf.incremental m))

let test_warm_fewer_pivots () =
  (* Resuming from the previous optimal basis after a small relaxation
     must beat the cold pivot count on a many-pivot chain, and reach
     the optimum of a from-scratch solve. *)
  let n = 60 in
  let st = Rs.create (chain_problem n) in
  let cold = Rs.solve_state st in
  Alcotest.(check bool) "cold optimal" true (cold.Rs.status = Rs.Optimal);
  Alcotest.(check bool) "cold pivots" true (cold.Rs.iterations > 0);
  Rs.set_rhs st ~row:0 10.5;
  let warm = Rs.solve_state st in
  Alcotest.(check bool) "warm optimal" true (warm.Rs.status = Rs.Optimal);
  Alcotest.(check int) "warm starts" 1 (Rs.counters st).Rs.warm_starts;
  Alcotest.(check bool)
    (Printf.sprintf "warm pivots (%d) < cold pivots (%d)" warm.Rs.iterations
       cold.Rs.iterations)
    true
    (warm.Rs.iterations < cold.Rs.iterations);
  let relaxed = chain_problem n in
  let scratch =
    Rs.solve
      { relaxed with
        Rs.rows =
          List.mapi
            (fun i (r : Rs.constr) -> if i = 0 then { r with Rs.rhs = 10.5 } else r)
            relaxed.Rs.rows }
  in
  check_float "matches cold re-solve" scratch.Rs.objective warm.Rs.objective

let prop_warm_matches_cold_after_tightening =
  (* The tentpole's correctness property in miniature: solve, scale
     every rhs down, re-solve the same state — the warm (or fallen-back)
     result must equal a from-scratch solve of the updated program. *)
  let gen =
    let open QCheck2.Gen in
    let* lp = packed_lp_gen in
    let* nums = list_repeat 8 (int_range 0 10) in
    return (lp, nums)
  in
  QCheck2.Test.make
    ~name:"warm re-solve equals cold solve after rhs tightening" ~count:300 gen
    (fun ((nv, obj, rows), nums) ->
      let objf = List.map (fun (v, c) -> (v, float_of_int c)) obj in
      let scale i rhs =
        float_of_int rhs *. (float_of_int (List.nth nums (i mod 8)) /. 10.0)
      in
      let rowsf =
        List.map
          (fun (terms, rhs) ->
            { Rs.coeffs = List.map (fun (v, c) -> (v, float_of_int c)) terms;
              rhs = float_of_int rhs })
          rows
      in
      let st = Rs.create { Rs.num_vars = nv; maximize = objf; rows = rowsf } in
      ignore (Rs.solve_state st);
      List.iteri (fun i (_, rhs) -> Rs.set_rhs st ~row:i (scale i rhs)) rows;
      let warm = Rs.solve_state st in
      let cold =
        Rs.solve
          { Rs.num_vars = nv;
            maximize = objf;
            rows =
              List.mapi
                (fun i r -> { r with Rs.rhs = scale i (int_of_float r.Rs.rhs) })
                rowsf }
      in
      match (warm.Rs.status, cold.Rs.status) with
      | Rs.Optimal, Rs.Optimal ->
        Float.abs (warm.Rs.objective -. cold.Rs.objective) < 1e-6
      | Rs.Unbounded, Rs.Unbounded -> true
      | _ -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dls_lp"
    [ ( "simplex-float",
        [ Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "equality row" `Quick test_equality_constraint;
          Alcotest.test_case "ge row" `Quick test_ge_constraint;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_normalization;
          Alcotest.test_case "unbounded (no rows)" `Quick test_unbounded;
          Alcotest.test_case "unbounded (rows)" `Quick test_unbounded_with_rows;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "klee-minty" `Quick test_klee_minty;
          Alcotest.test_case "wide coefficient range" `Quick test_wide_coefficient_range;
          Alcotest.test_case "duplicate coeffs" `Quick test_duplicate_coeffs_summed;
          Alcotest.test_case "bad index" `Quick test_bad_index_rejected ] );
      ( "simplex-exact",
        [ Alcotest.test_case "textbook exact" `Quick test_exact_textbook;
          Alcotest.test_case "fractional optimum" `Quick test_exact_fractional_optimum ] );
      ( "model",
        [ Alcotest.test_case "basic" `Quick test_model_basic;
          Alcotest.test_case "incremental resolve" `Quick test_model_resolve_with_new_constraint ] );
      ( "revised-simplex",
        [ Alcotest.test_case "textbook" `Quick test_revised_textbook;
          Alcotest.test_case "unbounded" `Quick test_revised_unbounded;
          Alcotest.test_case "negative rhs rejected" `Quick
            test_revised_rejects_negative_rhs;
          Alcotest.test_case "refactorization path" `Quick
            test_revised_many_pivots_refactor;
          Alcotest.test_case "pivot limit terminates" `Quick
            test_revised_pivot_limit;
          Alcotest.test_case "budget boundary is optimal" `Quick
            test_revised_budget_boundary;
          Alcotest.test_case "bland counter stays zero" `Quick
            test_revised_bland_counter ] );
      ( "warm-start",
        [ Alcotest.test_case "relax non-binding row" `Quick
            test_warm_relax_nonbinding;
          Alcotest.test_case "tighten rhs" `Quick test_warm_tighten_rhs;
          Alcotest.test_case "zero coefficient" `Quick test_warm_zero_coeff;
          Alcotest.test_case "registry reset between warm re-solves" `Quick
            test_registry_reset_between_warm_resolves;
          Alcotest.test_case "update validation" `Quick
            test_state_update_validation;
          Alcotest.test_case "model incremental handle" `Quick
            test_model_incremental_handle;
          Alcotest.test_case "fewer pivots than cold" `Quick
            test_warm_fewer_pivots ] );
      ( "duals",
        [ Alcotest.test_case "textbook duals" `Quick test_dense_duals_textbook ] );
      qsuite "simplex-prop"
        [ prop_float_matches_exact; prop_optimal_point_is_feasible;
          prop_revised_matches_dense; prop_revised_solution_feasible;
          prop_dense_strong_duality; prop_dense_dual_signs;
          prop_exact_strong_duality; prop_revised_strong_duality;
          prop_warm_matches_cold_after_tightening ] ]
