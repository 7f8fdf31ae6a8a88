(** Sparse revised simplex with product-form-of-inverse updates.

    The dense tableau of {!Simplex} costs O(m * (n + m)) memory and per
    pivot; the DLS relaxations are extremely sparse (each alpha variable
    touches at most four rows), so at the paper's largest K = 95 the
    dense tableau wastes almost all of its work.  This solver keeps the
    constraint matrix in compressed column form and represents the basis
    inverse as a product of eta matrices, refactorized periodically for
    numerical hygiene — the classical revised simplex (Dantzig pricing
    with a stall-triggered switch to Bland's rule, Harris-free ratio
    test with Bland tie-breaking).

    Scope: the packed inequality form the steady-state relaxation
    naturally has — maximize [c . x] subject to [A x <= b] with
    [x >= 0] and [b >= 0] — so the all-slack basis is feasible and no
    phase 1 is needed.  Every {!Model} program has that form, so
    {!Model.Float.solve_packed} and {!Model.Float.incremental} hand
    their rows over unchanged; a negative right-hand side is refused
    here.  The dense tableau is the test suite's oracle, and both
    engines are cross-checked on random programs.

    {2 Resumable solves}

    A {!state} survives across solves: after {!solve_state}, the
    optimal basis is carried, the caller may tighten right-hand sides
    ({!set_rhs}) or delete matrix entries ({!zero_coeff}), and the next
    {!solve_state} {e warm-starts} — it reinverts the carried basis via
    the triangularized refactorization and re-optimizes from there,
    falling back to the cold all-slack start when the carried basis is
    singular or no longer primal feasible.  LPRR's iterated rounding
    (one LP per remote route, each differing from the previous by one
    pinned beta) is the motivating client; see
    [Dls_core.Lp_relax.Incremental]. *)

type constr = {
  coeffs : (int * float) list;
  (** duplicate indices are summed; zero sums are not stored *)
  rhs : float;  (** must be [>= 0] *)
}

type problem = {
  num_vars : int;
  maximize : (int * float) list;
  rows : constr list;
}

type status =
  | Optimal
  | Unbounded
  | Iteration_limit
      (** pivot budget exhausted while the objective was still moving *)
  | Cycling
      (** pivot budget exhausted in a degenerate spin: the stall
          detector had already switched to Bland's anti-cycling rule and
          the objective has not improved since — the LP is (numerically)
          stuck on a degenerate vertex.  The budget guarantees
          termination either way; this status tells the two apart. *)

type solution = {
  status : status;
  objective : float;
  values : float array;
  duals : float array;
  (** one non-negative shadow price per row when optimal; strong
      duality [sum duals_i * rhs_i = objective] holds and is tested *)
  iterations : int;
}

val solve : ?max_iterations:int -> problem -> solution
(** One-shot solve from the all-slack basis.  [max_iterations] caps the
    number of pivots; the cap is only reported ({!Iteration_limit} or
    {!Cycling}) when pricing cannot already prove optimality, so a
    program whose optimum needs exactly [max_iterations] pivots still
    comes back {!Optimal}.
    @raise Invalid_argument on an out-of-range variable index or a
    negative right-hand side. *)

(** {2 Resumable solver state} *)

type state
(** A built problem plus its carried basis and factorization. *)

type counters = {
  solves : int;  (** calls to {!solve_state} on this state *)
  warm_starts : int;  (** solves begun from a carried basis *)
  cold_starts : int;
  (** solves begun from the all-slack basis: the first solve plus every
      fallback from a singular or primal-infeasible carried basis *)
  pivots : int;  (** simplex iterations, cumulative *)
  reinversions : int;
  (** basis refactorizations, cumulative (periodic refreshes during a
      solve plus the one opening every warm start) *)
  bland_activations : int;
  (** stall-triggered switches to Bland's anti-cycling pivot rule,
      cumulative — each one is a solve that degenerated far enough for
      Dantzig pricing to stop making progress *)
  wall_clock : float;  (** seconds spent inside {!solve_state} *)
}

val zero_counters : counters
(** Every field zero: the counters of a state that never solved. *)

val create : problem -> state
(** Build the compressed-column form once, each column's entries in
    ascending row order.  Raises like {!solve}. *)

val solve_state : ?max_iterations:int -> state -> solution
(** Optimize the state's current problem.  The first call is a cold
    start; later calls warm-start from the carried basis as described
    above.  Cumulative {!counters} are updated, and an [lp.solve] debug
    log record is written per solve (pivots, reinversions, warm/cold
    tag, wall-clock). *)

val set_rhs : state -> row:int -> float -> unit
(** Replace a row's right-hand side (rows are indexed in the order they
    were given to {!create}).
    @raise Invalid_argument on an out-of-range row or a negative
    value. *)

val rhs : state -> row:int -> float
(** Current right-hand side of a row. *)

val zero_coeff : state -> row:int -> var:int -> unit
(** Set the coefficient of [var] in [row] to zero without rebuilding
    the compressed-column matrix (entries absent from the row are left
    untouched).  The carried basis is revalidated on the next
    {!solve_state}. *)

val counters : state -> counters
(** Snapshot of the cumulative instrumentation counters. *)
