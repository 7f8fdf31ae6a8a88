type constr = { coeffs : (int * float) list; rhs : float }

type problem = {
  num_vars : int;
  maximize : (int * float) list;
  rows : constr list;
}

type status = Optimal | Unbounded | Iteration_limit | Cycling

type solution = {
  status : status;
  objective : float;
  values : float array;
  duals : float array;
  iterations : int;
}

type counters = {
  solves : int;
  warm_starts : int;
  cold_starts : int;
  pivots : int;
  reinversions : int;
  bland_activations : int;
  wall_clock : float;
}

let zero_counters =
  { solves = 0; warm_starts = 0; cold_starts = 0; pivots = 0;
    reinversions = 0; bland_activations = 0; wall_clock = 0.0 }

module Olog = Dls_obs.Log

(* Registry metrics: cross-state totals, alongside the per-state [ctr]
   record that the campaign codec and warm-start tests rely on.  The
   registry is off by default, so these cost one atomic load per event
   in normal runs. *)
module M = Dls_obs.Metrics

let m_solves = M.counter "lp.solves"
let m_warm_starts = M.counter "lp.warm_starts"
let m_cold_starts = M.counter "lp.cold_starts"
let m_pivots = M.counter "lp.pivots"
let m_reinversions = M.counter "lp.reinversions"
let m_bland_activations = M.counter "lp.bland_activations"
let m_solve_seconds = M.histogram "lp.solve_seconds"
let m_solve_pivots = M.histogram "lp.solve_pivots"

(* Eta matrix of one pivot: identity with column [row] replaced by the
   (sparse) transformed entering column; [pivot] is that column's entry
   in position [row]. *)
type eta = {
  row : int;
  pivot : float;
  idx : int array;  (* off-pivot row indices *)
  value : float array;  (* matching off-pivot entries *)
}

let dtol = 1e-7  (* reduced-cost / pivot significance threshold *)
let drop_tol = 1e-12  (* entries below this are not stored in etas *)
let refactor_interval = 100

type state = {
  m : int;
  n : int;  (* structural columns; slack j = n + i covers row i *)
  (* CSC structural columns *)
  col_idx : int array array;
  col_val : float array array;
  obj : float array;  (* length n *)
  rhs : float array;
  basis : int array;  (* column basic in each row *)
  in_basis : bool array;  (* length n + m *)
  x_basic : float array;
  mutable etas : eta list;  (* newest first *)
  mutable num_etas : int;
  mutable pivot_etas : int;  (* etas appended by pivots since the last
                                reinversion — the factorization's own
                                etas must not count against the
                                refactorization interval, or a large
                                basis re-inverts on every pivot *)
  mutable solved : bool;  (* a previous solve's basis is carried *)
  mutable ctr : counters;  (* cumulative over the state's lifetime *)
}

(* v <- B^-1 v : apply etas oldest-first. *)
let ftran st v =
  List.iter
    (fun e ->
      let t = v.(e.row) /. e.pivot in
      if t <> 0.0 then begin
        for k = 0 to Array.length e.idx - 1 do
          v.(e.idx.(k)) <- v.(e.idx.(k)) -. (e.value.(k) *. t)
        done
      end;
      v.(e.row) <- t)
    (List.rev st.etas)

(* y <- (B^-1)' y : apply etas newest-first. *)
let btran st y =
  List.iter
    (fun e ->
      let acc = ref y.(e.row) in
      for k = 0 to Array.length e.idx - 1 do
        acc := !acc -. (e.value.(k) *. y.(e.idx.(k)))
      done;
      y.(e.row) <- !acc /. e.pivot)
    st.etas

let scatter_column st j v =
  Array.fill v 0 st.m 0.0;
  if j < st.n then begin
    let idx = st.col_idx.(j) and value = st.col_val.(j) in
    for k = 0 to Array.length idx - 1 do
      v.(idx.(k)) <- value.(k)
    done
  end
  else v.(j - st.n) <- 1.0

let pack_eta row w m =
  let count = ref 0 in
  for i = 0 to m - 1 do
    if i <> row && Float.abs w.(i) > drop_tol then incr count
  done;
  let idx = Array.make !count 0 and value = Array.make !count 0.0 in
  let k = ref 0 in
  for i = 0 to m - 1 do
    if i <> row && Float.abs w.(i) > drop_tol then begin
      idx.(!k) <- i;
      value.(!k) <- w.(i);
      incr k
    end
  done;
  { row; pivot = w.(row); idx; value }

(* Rebuild the eta representation for the current basis set from
   scratch (reinversion), then recompute the basic values.  Returns
   [true] when the carried basis was kept, [false] when it was singular
   and the state fell back to the all-slack basis.

   Phase 1 — triangularization: repeatedly eliminate a row whose support
   among the remaining basis columns is a singleton.  In that order each
   column has no entry in any earlier pivot row, so its eta is the raw
   column — no ftran, no fill-in.  Phase 2 — the residual "bump" is
   pivoted generically with partial pivoting over the unused rows.  Row
   assignments may permute, so [basis] is rewritten accordingly. *)
let refactor st =
  st.ctr <- { st.ctr with reinversions = st.ctr.reinversions + 1 };
  M.incr m_reinversions;
  let columns = Array.copy st.basis in
  let ncols = Array.length columns in
  st.etas <- [];
  st.num_etas <- 0;
  let row_used = Array.make st.m false in
  let col_done = Array.make ncols false in
  (* Support of each basis column restricted to rows; per-row incidence
     lists of basis-column positions. *)
  let support c =
    let j = columns.(c) in
    if j >= st.n then [| j - st.n |] else st.col_idx.(j)
  in
  let entry_of c i =
    let j = columns.(c) in
    if j >= st.n then 1.0
    else begin
      let idx = st.col_idx.(j) and value = st.col_val.(j) in
      let rec find k = if idx.(k) = i then value.(k) else find (k + 1) in
      find 0
    end
  in
  let row_cols = Array.make st.m [] in
  let row_count = Array.make st.m 0 in
  Array.iteri
    (fun c _ ->
      Array.iter
        (fun i ->
          row_cols.(i) <- c :: row_cols.(i);
          row_count.(i) <- row_count.(i) + 1)
        (support c))
    columns;
  let singletons = Queue.create () in
  for i = 0 to st.m - 1 do
    if row_count.(i) = 1 then Queue.add i singletons
  done;
  let push_raw_eta c r =
    (* Raw column as eta; identity etas (unit slack columns) are not
       stored at all. *)
    let j = columns.(c) in
    if j >= st.n then ()
    else begin
      let idx = st.col_idx.(j) and value = st.col_val.(j) in
      let keep = ref 0 in
      Array.iteri (fun k i -> if i <> r && Float.abs value.(k) > drop_tol then incr keep) idx;
      if !keep = 0 && Float.abs (entry_of c r -. 1.0) < 1e-15 then ()
      else begin
        let oidx = Array.make !keep 0 and oval = Array.make !keep 0.0 in
        let k' = ref 0 in
        Array.iteri
          (fun k i ->
            if i <> r && Float.abs value.(k) > drop_tol then begin
              oidx.(!k') <- i;
              oval.(!k') <- value.(k);
              incr k'
            end)
          idx;
        st.etas <- { row = r; pivot = entry_of c r; idx = oidx; value = oval } :: st.etas;
        st.num_etas <- st.num_etas + 1
      end
    end
  in
  (* Phase 1: triangular prefix. *)
  while not (Queue.is_empty singletons) do
    let r = Queue.pop singletons in
    if (not row_used.(r)) && row_count.(r) = 1 then begin
      match List.find_opt (fun c -> not col_done.(c)) row_cols.(r) with
      | Some c when Float.abs (entry_of c r) > drop_tol ->
        row_used.(r) <- true;
        col_done.(c) <- true;
        st.basis.(r) <- columns.(c);
        push_raw_eta c r;
        (* Retire the column: decrement the counts of its other rows. *)
        Array.iter
          (fun i ->
            if not row_used.(i) then begin
              row_count.(i) <- row_count.(i) - 1;
              if row_count.(i) = 1 then Queue.add i singletons
            end)
          (support c)
      | Some _ | None -> ()
    end
  done;
  (* Phase 2: generic PFI pivoting of the residual bump. *)
  let w = Array.make st.m 0.0 in
  let ok = ref true in
  for c = 0 to ncols - 1 do
    if !ok && not col_done.(c) then begin
      scatter_column st columns.(c) w;
      ftran st w;
      let best = ref (-1) and best_mag = ref 0.0 in
      for i = 0 to st.m - 1 do
        if (not row_used.(i)) && Float.abs w.(i) > !best_mag then begin
          best := i;
          best_mag := Float.abs w.(i)
        end
      done;
      if !best < 0 || !best_mag < drop_tol then ok := false
      else begin
        let r = !best in
        row_used.(r) <- true;
        col_done.(c) <- true;
        st.basis.(r) <- columns.(c);
        st.etas <- pack_eta r w st.m :: st.etas;
        st.num_etas <- st.num_etas + 1
      end
    end
  done;
  if not !ok then begin
    (* Singular refactorization (numerical breakdown): fall back to the
       all-slack basis; the outer loop re-optimizes from there. *)
    st.etas <- [];
    st.num_etas <- 0;
    Array.fill st.in_basis 0 (st.n + st.m) false;
    for i = 0 to st.m - 1 do
      st.basis.(i) <- st.n + i;
      st.in_basis.(st.n + i) <- true
    done
  end;
  st.pivot_etas <- 0;
  (* Recompute basic values x_B = B^-1 b. *)
  Array.blit st.rhs 0 st.x_basic 0 st.m;
  ftran st st.x_basic;
  for i = 0 to st.m - 1 do
    if st.x_basic.(i) < 0.0 && st.x_basic.(i) > -1e-6 then st.x_basic.(i) <- 0.0
  done;
  !ok

let create problem =
  let rows = Array.of_list problem.rows in
  let m = Array.length rows in
  let n = problem.num_vars in
  (* Transpose the row-wise input into compressed columns, summing
     duplicate coefficients. *)
  let per_col = Array.make n [] in
  Array.iteri
    (fun i (r : constr) ->
      if r.rhs < 0.0 then
        invalid_arg "Revised_simplex.solve: negative right-hand side";
      let merged = Hashtbl.create 8 in
      List.iter
        (fun (j, v) ->
          if j < 0 || j >= n then
            invalid_arg
              (Printf.sprintf "Revised_simplex.solve: variable index %d out of range" j);
          Hashtbl.replace merged j
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt merged j)))
        r.coeffs;
      Hashtbl.iter (fun j v -> if v <> 0.0 then per_col.(j) <- (i, v) :: per_col.(j)) merged)
    rows;
  let col_idx = Array.map (fun l -> Array.of_list (List.rev_map fst l)) per_col in
  let col_val = Array.map (fun l -> Array.of_list (List.rev_map snd l)) per_col in
  let obj = Array.make n 0.0 in
  List.iter
    (fun (j, v) ->
      if j < 0 || j >= n then
        invalid_arg
          (Printf.sprintf "Revised_simplex.solve: objective index %d out of range" j);
      obj.(j) <- obj.(j) +. v)
    problem.maximize;
  let rhs = Array.map (fun (r : constr) -> r.rhs) rows in
  let basis = Array.init m (fun i -> n + i) in
  let in_basis = Array.make (n + m) false in
  for i = 0 to m - 1 do
    in_basis.(n + i) <- true
  done;
  { m; n; col_idx; col_val; obj; rhs; basis; in_basis;
    x_basic = Array.copy rhs; etas = []; num_etas = 0; pivot_etas = 0;
    solved = false; ctr = zero_counters }

let counters st = st.ctr

(* ---------------- incremental updates ---------------- *)

let set_rhs st ~row v =
  if row < 0 || row >= st.m then
    invalid_arg "Revised_simplex.set_rhs: row out of range";
  if v < 0.0 then invalid_arg "Revised_simplex.set_rhs: negative right-hand side";
  st.rhs.(row) <- v

let rhs st ~row =
  if row < 0 || row >= st.m then
    invalid_arg "Revised_simplex.rhs: row out of range";
  st.rhs.(row)

let zero_coeff st ~row ~var =
  if row < 0 || row >= st.m then
    invalid_arg "Revised_simplex.zero_coeff: row out of range";
  if var < 0 || var >= st.n then
    invalid_arg "Revised_simplex.zero_coeff: variable out of range";
  let idx = st.col_idx.(var) and value = st.col_val.(var) in
  for k = 0 to Array.length idx - 1 do
    if idx.(k) = row then value.(k) <- 0.0
  done

(* Reset to the (always primal-feasible) all-slack starting basis. *)
let reset_cold st =
  st.etas <- [];
  st.num_etas <- 0;
  st.pivot_etas <- 0;
  Array.fill st.in_basis 0 (st.n + st.m) false;
  for i = 0 to st.m - 1 do
    st.basis.(i) <- st.n + i;
    st.in_basis.(st.n + i) <- true
  done;
  Array.blit st.rhs 0 st.x_basic 0 st.m

let objective_value st =
  let z = ref 0.0 in
  for i = 0 to st.m - 1 do
    let j = st.basis.(i) in
    if j < st.n then z := !z +. (st.obj.(j) *. st.x_basic.(i))
  done;
  !z

(* Primal simplex iterations from the current (primal-feasible) basis:
   Dantzig pricing with a stall-triggered switch to Bland's rule.  The
   pivot budget is a hard termination guarantee even on degenerate LPs:
   exhausting it while Bland's rule is active and the objective has not
   moved since the switch is reported as [Cycling] (a degenerate spin),
   every other exhaustion as [Iteration_limit]. *)
let optimize ?max_iterations st =
  let total_cols = st.n + st.m in
  let budget =
    match max_iterations with
    | Some b -> b
    | None -> 2000 + (60 * (st.m + total_cols))
  in
  let iterations = ref 0 in
  let y = Array.make st.m 0.0 in
  let w = Array.make st.m 0.0 in
  let stall = ref 0 in
  let stall_limit = 4 * (st.m + total_cols) in
  let bland = ref false in
  let z_at_bland = ref neg_infinity in
  let last_z = ref neg_infinity in
  let result = ref None in
  while !result = None do
    begin
      if st.pivot_etas >= refactor_interval then ignore (refactor st : bool);
      (* Pricing: y = (B^-1)' c_B, then reduced costs per nonbasic column. *)
      Array.fill y 0 st.m 0.0;
      for i = 0 to st.m - 1 do
        let j = st.basis.(i) in
        if j < st.n then y.(i) <- st.obj.(j)
      done;
      btran st y;
      let reduced j =
        if j < st.n then begin
          let idx = st.col_idx.(j) and value = st.col_val.(j) in
          let dot = ref 0.0 in
          for k = 0 to Array.length idx - 1 do
            dot := !dot +. (value.(k) *. y.(idx.(k)))
          done;
          st.obj.(j) -. !dot
        end
        else -.y.(j - st.n)
      in
      let entering = ref (-1) in
      if !bland then begin
        let j = ref 0 in
        while !entering < 0 && !j < total_cols do
          if (not st.in_basis.(!j)) && reduced !j > dtol then entering := !j;
          incr j
        done
      end
      else begin
        let best = ref dtol in
        for j = 0 to total_cols - 1 do
          if not st.in_basis.(j) then begin
            let d = reduced j in
            if d > !best then begin
              best := d;
              entering := j
            end
          end
        done
      end;
      if !entering < 0 then result := Some Optimal
      else if !iterations >= budget then
        (* Budget checked only after pricing fails to prove optimality:
           a solve that reaches the optimum in exactly [budget] pivots
           is Optimal, not Iteration_limit (pinned in test_lp). *)
        result :=
          Some
            (if !bland && objective_value st <= !z_at_bland +. 1e-12 then
               Cycling
             else Iteration_limit)
      else begin
        let q = !entering in
        scatter_column st q w;
        ftran st w;
        (* Ratio test with Bland tie-breaking. *)
        let leave = ref (-1) and theta = ref infinity in
        for i = 0 to st.m - 1 do
          if w.(i) > dtol then begin
            let ratio = st.x_basic.(i) /. w.(i) in
            if
              !leave < 0
              || ratio < !theta -. 1e-12
              || (Float.abs (ratio -. !theta) <= 1e-12
                  && st.basis.(i) < st.basis.(!leave))
            then begin
              leave := i;
              theta := ratio
            end
          end
        done;
        if !leave < 0 then result := Some Unbounded
        else begin
          let r = !leave in
          let theta = Float.max 0.0 !theta in
          for i = 0 to st.m - 1 do
            if i <> r then st.x_basic.(i) <- st.x_basic.(i) -. (w.(i) *. theta)
          done;
          st.x_basic.(r) <- theta;
          st.in_basis.(st.basis.(r)) <- false;
          st.in_basis.(q) <- true;
          st.basis.(r) <- q;
          st.etas <- pack_eta r w st.m :: st.etas;
          st.num_etas <- st.num_etas + 1;
          st.pivot_etas <- st.pivot_etas + 1;
          incr iterations;
          let z = objective_value st in
          if z > !last_z +. 1e-12 then begin
            last_z := z;
            stall := 0
          end
          else begin
            incr stall;
            if !stall > stall_limit && not !bland then begin
              bland := true;
              z_at_bland := z;
              st.ctr <-
                { st.ctr with
                  bland_activations = st.ctr.bland_activations + 1 };
              M.incr m_bland_activations;
              if Olog.enabled Olog.Debug then
                Olog.debug "lp.bland"
                  ~fields:
                    [ ("solve", Olog.Int st.ctr.solves);
                      ("pivots", Olog.Int !iterations) ]
            end
          end
        end
      end
    end
  done;
  let status = match !result with Some s -> s | None -> assert false in
  (status, !iterations)

let solve_state ?max_iterations st =
  let t0 = Unix.gettimeofday () in
  let before = st.ctr in
  let sp = Dls_obs.Trace.start ~cat:"lp" "lp.solve" in
  (* Warm attempt: reinvert the carried basis against the (possibly
     updated) matrix and right-hand sides; fall back to the all-slack
     cold start when the basis is singular or no longer primal
     feasible. *)
  let warm =
    st.solved
    && refactor st
    && not (Array.exists (fun x -> x < 0.0) st.x_basic)
  in
  if not warm then reset_cold st;
  st.ctr <-
    { st.ctr with
      solves = st.ctr.solves + 1;
      warm_starts = (st.ctr.warm_starts + if warm then 1 else 0);
      cold_starts = (st.ctr.cold_starts + if warm then 0 else 1) };
  M.incr m_solves;
  M.incr (if warm then m_warm_starts else m_cold_starts);
  let status, iterations = optimize ?max_iterations st in
  st.solved <- true;
  let values = Array.make st.n 0.0 in
  let duals = Array.make st.m 0.0 in
  if status = Optimal then begin
    for i = 0 to st.m - 1 do
      let j = st.basis.(i) in
      if j < st.n then values.(j) <- Float.max 0.0 st.x_basic.(i)
    done;
    (* Dual vector y = (B^-1)' c_B at the optimal basis. *)
    for i = 0 to st.m - 1 do
      let j = st.basis.(i) in
      duals.(i) <- (if j < st.n then st.obj.(j) else 0.0)
    done;
    btran st duals
  end;
  let objective =
    Array.fold_left ( +. ) 0.0 (Array.mapi (fun j v -> st.obj.(j) *. v) values)
  in
  let dt = Unix.gettimeofday () -. t0 in
  st.ctr <-
    { st.ctr with
      pivots = st.ctr.pivots + iterations;
      wall_clock = st.ctr.wall_clock +. dt };
  M.add m_pivots iterations;
  M.observe m_solve_seconds dt;
  M.observe m_solve_pivots (float_of_int iterations);
  if Dls_obs.Trace.live sp then
    Dls_obs.Trace.finish sp
      ~args:
        [ ("start", if warm then "warm" else "cold");
          ("pivots", string_of_int iterations) ];
  if Olog.enabled Olog.Debug then
    Olog.debug "lp.solve"
      ~fields:
        [ ("solve", Olog.Int st.ctr.solves);
          ("start", Olog.Str (if warm then "warm" else "cold"));
          ("pivots", Olog.Int iterations);
          ("reinversions",
           Olog.Int (st.ctr.reinversions - before.reinversions));
          ("ms", Olog.Float (1e3 *. dt)) ];
  { status; objective; values; duals; iterations }

let solve ?max_iterations problem = solve_state ?max_iterations (create problem)
