module Make (F : Field.S) = struct
  module Solver = Simplex.Make (F)

  type var = int

  type row = { coeffs : (var * F.t) list; rhs : F.t }

  type t = {
    mutable n : int;
    mutable rows : row list;  (* reversed *)
    mutable nrows : int;
    mutable objective : (var * F.t) list;
  }

  let create () = { n = 0; rows = []; nrows = 0; objective = [] }

  let add_var t =
    t.n <- t.n + 1;
    t.n - 1

  let num_vars t = t.n
  let num_constraints t = t.nrows

  let check_var t v =
    if v < 0 || v >= t.n then invalid_arg "Model: variable of another problem"

  let add_le t coeffs rhs =
    List.iter (fun (v, _) -> check_var t v) coeffs;
    t.rows <- { coeffs; rhs } :: t.rows;
    t.nrows <- t.nrows + 1

  let set_objective t coeffs =
    List.iter (fun (v, _) -> check_var t v) coeffs;
    t.objective <- coeffs

  type result = {
    status : Solver.status;
    objective : F.t;
    value : var -> F.t;
    iterations : int;
  }

  let solve ?max_iterations t =
    let rows =
      List.rev_map
        (fun r -> { Solver.coeffs = r.coeffs; cmp = Solver.Le; rhs = r.rhs })
        t.rows
    in
    let sol =
      Solver.solve ?max_iterations
        { Solver.num_vars = t.n; maximize = t.objective; rows }
    in
    { status = sol.status;
      objective = sol.objective;
      value =
        (fun v ->
          check_var t v;
          sol.values.(v));
      iterations = sol.iterations }
end

module Float = struct
  include Make (Field.Float)

  (* The builder's internals are visible here (same compilation unit as
     the functor), letting the packed-inequality core reuse them. *)
  let packed_form t =
    { Revised_simplex.num_vars = t.n;
      maximize = t.objective;
      rows =
        List.rev_map
          (fun r -> { Revised_simplex.coeffs = r.coeffs; rhs = r.rhs })
          t.rows }

  let result_of_packed t (sol : Revised_simplex.solution) =
    let status =
      match sol.Revised_simplex.status with
      | Revised_simplex.Optimal -> Solver.Optimal
      | Revised_simplex.Unbounded -> Solver.Unbounded
      | Revised_simplex.Iteration_limit -> Solver.Iteration_limit
      (* The dense engine has no cycling diagnosis; both are a pivot
         budget exhaustion from the model's point of view. *)
      | Revised_simplex.Cycling -> Solver.Iteration_limit
    in
    { status;
      objective = sol.Revised_simplex.objective;
      value =
        (fun v ->
          check_var t v;
          sol.Revised_simplex.values.(v));
      iterations = sol.Revised_simplex.iterations }

  let solve_packed ?max_iterations t =
    result_of_packed t (Revised_simplex.solve ?max_iterations (packed_form t))

  (* Incremental-solve handle: the model is snapshotted once into a
     revised-simplex state; subsequent row edits go through the state
     (the builder is not kept in sync) and re-solves warm-start from the
     previous optimal basis.  The model's row indices are the state's,
     so the state's own range checks guard every edit. *)
  type incremental = { model : t; state : Revised_simplex.state }

  let incremental t = { model = t; state = Revised_simplex.create (packed_form t) }
  let inc_set_rhs h ~row v = Revised_simplex.set_rhs h.state ~row v
  let inc_rhs h ~row = Revised_simplex.rhs h.state ~row
  let inc_zero_coeff h ~row v = Revised_simplex.zero_coeff h.state ~row ~var:v

  let inc_solve ?max_iterations h =
    result_of_packed h.model
      (Revised_simplex.solve_state ?max_iterations h.state)

  let inc_counters h = Revised_simplex.counters h.state
end

module Exact = Make (Field.Exact)
