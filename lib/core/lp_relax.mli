(** Rational relaxation of the mixed LP (7a)–(7g), for both objectives.

    In the relaxation, [beta_{k,l}] has no objective cost and appears
    only in the connection-count rows (7d) and the bandwidth rows (7e),
    so an optimal solution always sets
    [beta_{k,l} = alpha_{k,l} / g_{k,l}], where
    [g_{k,l} = min bw over the route].  We therefore eliminate the betas
    and charge [alpha_{k,l} / g_{k,l}] connection slots on every
    backbone link of the route — an exactly equivalent LP with half the
    columns (Section 2.1 of DESIGN.md).  The relaxation's optimum is the
    upper bound ("LP") the paper compares every heuristic against.

    [fixed] pins selected remote pairs to integer connection counts:
    each pin is one more [<=] row, [alpha_{k,l} <= v * g_{k,l}], placed
    after the 7d rows in {!remote_pairs} order, and the pair's slot
    charge on each route link becomes the constant [v].  {!Mip}'s branch
    and bound pins this way, and LPRR's reference tests use it. *)

type objective = Sum | Maxmin

type 'num solution = {
  alpha : 'num array array;
  (** K x K work matrix; zero where no variable exists. *)
  beta : 'num array array;
  (** Fractional connection counts [alpha/g] (or the pinned integers);
      zero on local and co-located pairs, which cross no backbone. *)
  objective_value : 'num;
  iterations : int;  (** simplex pivots *)
}

type 'num outcome =
  | Solution of 'num solution
  | Failed of string  (** infeasible pinning or pivot-budget exhaustion *)

val solve :
  ?objective:objective ->
  ?fixed:((int * int) * int) list ->
  ?max_iterations:int ->
  Problem.t ->
  float outcome
(** Float path (default objective [Maxmin], like the paper's headline
    fairness criterion), solved by the eta-file revised simplex on the
    packed form ({!Dls_lp.Model.Float.solve_packed}). *)

val solve_exact :
  ?objective:objective ->
  ?max_iterations:int ->
  Problem.t ->
  Dls_num.Rat.t outcome
(** Exact-rational path: same construction, with no pins, and with
    platform parameters injected exactly (every float is a rational).
    Slower; intended for tests, small instances, and schedule
    reconstruction. *)

val remote_pairs : Problem.t -> (int * int) list
(** Ordered pairs (k, l), k active, k <> l, joined by a route that
    crosses at least one backbone link — exactly the pairs whose beta
    matters, i.e. LPRR's rounding domain. *)

(** Warm-started float path for iterated pinning (LPRR's inner loop)
    and for the daemon's resident handles.

    The handle holds the cold path's model — the same variables and the
    same 7b, 7c and 7d rows, built by the same encoder — plus one bound
    row per remote pair, [alpha_{k,l} <= g_{k,l} * (min max-connect over
    the route)], placed between the 7d rows and the MAXMIN rows.  A
    bound row is redundant until its pair is pinned.  {!Incremental.pin}
    then updates the revised-simplex state in place: it tightens the
    pair's bound row to [v * g_{k,l}], deletes the pair's [1/g] slot
    charge from every backbone row of its route and lowers those
    right-hand sides by [v].  {!Incremental.solve} re-optimizes from the
    previous optimal basis instead of rebuilding the model and
    re-solving from the all-slack basis.  Each solve is the same LP the
    cold [solve ~fixed:(pinned so far)] path would build, so optimal
    objectives agree within float tolerance — a property the test suite
    checks on random platforms. *)
module Incremental : sig
  type handle

  val create :
    ?objective:objective -> Problem.t -> handle
  (** Encode the relaxation (default [Maxmin]) with no pair pinned. *)

  val pin : handle -> int * int -> int -> (unit, string) result
  (** [pin h (k, l) v] fixes the pair's connection count to [v].
      [Error] (with the same message as the cold path's [Failed]) when
      [v] exceeds the slots remaining on a backbone link of the route;
      the handle is left unchanged in that case.
      @raise Invalid_argument on a negative [v], a pair outside
      {!remote_pairs}, or a pair already pinned. *)

  val pinned : handle -> ((int * int) * int) list
  (** Pins applied so far, in no particular order. *)

  (** {2 Capacity edits}

      The allocation daemon keeps one handle resident across requests
      and applies platform deltas as right-hand-side edits instead of
      re-encoding: compute throttles and crashes move the 7b rows,
      local-link losses move the 7c rows, and connection-cap changes
      move the 7d rows (and re-derive the redundant per-pair bound rows
      from the current caps).  All three take the new {e absolute}
      capacity of the degraded platform, are no-ops on a handle with no
      active application, and leave the carried basis warm.  Bandwidth
      degradation changes the [1/g] {e coefficients}, not a right-hand
      side, so it cannot be expressed here — the daemon rebuilds the
      handle for those deltas. *)

  val set_speed : handle -> cluster:int -> float -> unit
  (** Set cluster's compute capacity (7b right-hand side).  [0.] models
      a crash.  @raise Invalid_argument on a bad cluster id or a
      negative/non-finite speed. *)

  val set_local_bw : handle -> cluster:int -> float -> unit
  (** Set cluster's local-link capacity (7c right-hand side).
      @raise Invalid_argument on a bad cluster id or a negative/
      non-finite bandwidth. *)

  val set_max_connect : handle -> link:int -> int -> unit
  (** Set a backbone link's simultaneous-connection cap (7d right-hand
      side, net of already-pinned charges, clamped at 0).  [0] models a
      down link: every crossing pair is forced to zero work regardless
      of its (stale) bandwidth coefficient, which is why link failure is
      warm-editable while degradation is not.
      @raise Invalid_argument on a bad link id or a negative cap. *)

  val solve : ?max_iterations:int -> handle -> float outcome
  (** Re-optimize under the current pins.  The first call is a cold
      start; later calls warm-start (with automatic cold fallback when
      the carried basis went stale). *)

  val counters : handle -> Dls_lp.Revised_simplex.counters
  (** Cumulative solver instrumentation for this handle. *)
end
