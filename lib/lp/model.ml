module Make (F : Field.S) = struct
  module Solver = Simplex.Make (F)

  type var = int

  type row = { coeffs : (var * F.t) list; cmp : Solver.cmp; rhs : F.t }

  type t = {
    mutable names : string list;  (* reversed *)
    mutable n : int;
    mutable rows : row list;  (* reversed *)
    mutable nrows : int;
    bounds : (var, F.t) Hashtbl.t;
    mutable objective : (var * F.t) list;
  }

  let create () =
    { names = []; n = 0; rows = []; nrows = 0;
      bounds = Hashtbl.create 16; objective = [] }

  let add_var ?name ?ub t =
    let id = t.n in
    let name = match name with Some s -> s | None -> Printf.sprintf "x%d" id in
    t.names <- name :: t.names;
    t.n <- t.n + 1;
    (match ub with Some b -> Hashtbl.replace t.bounds id b | None -> ());
    id

  let var_name t v = List.nth t.names (t.n - 1 - v)

  let num_vars t = t.n
  let num_constraints t = t.nrows

  let check_var t v =
    if v < 0 || v >= t.n then invalid_arg "Model: variable of another problem"

  let add_row t coeffs cmp rhs =
    List.iter (fun (v, _) -> check_var t v) coeffs;
    t.rows <- { coeffs; cmp; rhs } :: t.rows;
    t.nrows <- t.nrows + 1

  let add_le t coeffs rhs = add_row t coeffs Solver.Le rhs
  let add_ge t coeffs rhs = add_row t coeffs Solver.Ge rhs
  let add_eq t coeffs rhs = add_row t coeffs Solver.Eq rhs

  let set_upper_bound t v b =
    check_var t v;
    match Hashtbl.find_opt t.bounds v with
    | Some prev when F.compare prev b <= 0 -> ()
    | _ -> Hashtbl.replace t.bounds v b

  let set_objective t coeffs =
    List.iter (fun (v, _) -> check_var t v) coeffs;
    t.objective <- coeffs

  type result = {
    status : Solver.status;
    objective : F.t;
    value : var -> F.t;
    duals : F.t array;
    iterations : int;
  }

  let to_problem t =
    let bound_rows =
      Hashtbl.fold
        (fun v b acc ->
          { Solver.coeffs = [ (v, F.one) ]; cmp = Solver.Le; rhs = b } :: acc)
        t.bounds []
    in
    let rows =
      List.rev_map
        (fun r -> { Solver.coeffs = r.coeffs; cmp = r.cmp; rhs = r.rhs })
        t.rows
    in
    { Solver.num_vars = t.n; maximize = t.objective; rows = rows @ bound_rows }

  let solve ?max_iterations t =
    let sol = Solver.solve ?max_iterations (to_problem t) in
    { status = sol.status;
      objective = sol.objective;
      value =
        (fun v ->
          check_var t v;
          sol.values.(v));
      duals = Array.sub sol.duals 0 (Stdlib.min t.nrows (Array.length sol.duals));
      iterations = sol.iterations }

  let pp fmt t =
    let pp_terms fmt coeffs =
      let first = ref true in
      List.iter
        (fun (v, c) ->
          if not !first then Format.fprintf fmt " + ";
          first := false;
          Format.fprintf fmt "%a*%s" F.pp c (var_name t v))
        coeffs
    in
    Format.fprintf fmt "@[<v>maximize %a@," pp_terms t.objective;
    List.iter
      (fun r ->
        let op =
          match r.cmp with Solver.Le -> "<=" | Solver.Ge -> ">=" | Solver.Eq -> "="
        in
        Format.fprintf fmt "  %a %s %a@," pp_terms r.coeffs op F.pp r.rhs)
      (List.rev t.rows);
    Hashtbl.iter
      (fun v b -> Format.fprintf fmt "  %s <= %a@," (var_name t v) F.pp b)
      t.bounds;
    Format.fprintf fmt "@]"
end

module Float = struct
  include Make (Field.Float)

  (* The builder's internals are visible here (same compilation unit as
     the functor), letting the packed-inequality core reuse them. *)
  let packed_form t =
    let all_le_nonneg =
      List.for_all (fun r -> r.cmp = Solver.Le && r.rhs >= 0.0) t.rows
      && Hashtbl.fold (fun _ b acc -> acc && b >= 0.0) t.bounds true
    in
    if not all_le_nonneg then
      invalid_arg "Model.Float: model not in packed inequality form";
    let bound_rows =
      Hashtbl.fold
        (fun v b acc ->
          { Revised_simplex.coeffs = [ (v, 1.0) ]; rhs = b } :: acc)
        t.bounds []
    in
    let rows =
      List.rev_map
        (fun r -> { Revised_simplex.coeffs = r.coeffs; rhs = r.rhs })
        t.rows
    in
    { Revised_simplex.num_vars = t.n;
      maximize = t.objective;
      rows = rows @ bound_rows }

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
      duals =
        Array.sub sol.Revised_simplex.duals 0
          (Stdlib.min t.nrows (Array.length sol.Revised_simplex.duals));
      iterations = sol.Revised_simplex.iterations }

  let solve_packed ?max_iterations t =
    result_of_packed t (Revised_simplex.solve ?max_iterations (packed_form t))

  (* Incremental-solve handle: the model is snapshotted once into a
     revised-simplex state; subsequent row edits go through the state
     (the builder is not kept in sync) and re-solves warm-start from the
     previous optimal basis. *)
  type incremental = { model : t; state : Revised_simplex.state }

  let incremental t = { model = t; state = Revised_simplex.create (packed_form t) }

  let check_row h row =
    if row < 0 || row >= h.model.nrows then
      invalid_arg "Model.Float.incremental: row out of range"

  let inc_set_rhs h ~row v =
    check_row h row;
    Revised_simplex.set_rhs h.state ~row v

  let inc_rhs h ~row =
    check_row h row;
    Revised_simplex.rhs h.state ~row

  let inc_zero_coeff h ~row v =
    check_row h row;
    check_var h.model v;
    Revised_simplex.zero_coeff h.state ~row ~var:v

  let inc_solve ?max_iterations h =
    result_of_packed h.model
      (Revised_simplex.solve_state ?max_iterations h.state)

  let inc_counters h = Revised_simplex.counters h.state
end

module Exact = Make (Field.Exact)
