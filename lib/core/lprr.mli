(** LPRR: iterated randomized rounding (Section 5.2.3).

    Following Coudert and Rivano's practical variant of the
    Motwani–Naor–Raghavan scheme, LPRR repeatedly (i) solves the
    relaxation with all previously pinned connection counts, (ii) picks
    an unpinned route with non-zero fractional [beta~] uniformly at
    random, and (iii) pins it to [floor(beta~) + X] where
    [X ~ Bernoulli(frac(beta~))] — so the count rounds to the nearer
    integer with the higher probability.  When no unpinned route has a
    non-zero [beta~] left, the rest are pinned to 0 and a final solve
    yields the alphas.  One deviation keeps every iteration feasible
    (the paper notes Coudert–Rivano "always provides a feasible
    solution" without detail): an upward round is clamped to the
    connection slots actually remaining on the route.

    Cost: one LP solve per remote route — the K^2 factor the paper
    measures in Figure 7.  Those solves go through
    {!Lp_relax.Incremental}: the model is encoded once and each re-solve
    warm-starts from the previous optimal basis.  MAXMIN optima are
    massively degenerate, so a warm re-solve may return another optimal
    vertex than a from-scratch solve under the same pins would; what is
    guaranteed (and property-tested) is that every per-iteration LP
    objective matches a from-scratch solve under the same pin prefix. *)

type stats = {
  allocation : Allocation.t;
  lp_solves : int;  (** LP solves performed, including the final one *)
  upward_rounds : int;  (** pins where the Bernoulli rounded up *)
  pin_trace : ((int * int) * int) list;
  (** Pins in the order they were committed — replaying a prefix with
      [Lp_relax.solve ~fixed] reproduces the corresponding LP. *)
  lp_objectives : float list;
  (** Objective of each LP solve, in order (one per entry of
      [pin_trace] possibly batched with trailing zero pins, plus the
      final solve). *)
  counters : Dls_lp.Revised_simplex.counters;
  (** Solver instrumentation (pivots, warm/cold starts, reinversions,
      wall-clock) of the run's incremental handle. *)
}

val solve :
  ?objective:Lp_relax.objective ->
  rng:Dls_util.Prng.t ->
  Problem.t ->
  (stats, string) result

val solve_equal_probability :
  ?objective:Lp_relax.objective ->
  rng:Dls_util.Prng.t ->
  Problem.t ->
  (stats, string) result
(** Ablation: round up or down with probability 1/2 regardless of the
    fractional part.  The paper reports this variant "performed much
    worse than LPRR"; the ablation bench reproduces that comparison. *)

(** Incremental per-link used-connection-slot table — the rounding
    loop's O(route) replacement for rescanning every pinned pair through
    [routes_through] at each clamp (every pinned pair against every
    link's crossing pairs).
    Exposed for the property test against {!recompute_route_slack}. *)
module Slots : sig
  type t

  val create : Problem.t -> t
  (** All counts zero. *)

  val pin : t -> int * int -> int -> unit
  (** [pin t (k, l) v] charges [v] slots on every backbone link of the
      (k, l) route. *)

  val route_slack : t -> int * int -> int
  (** Slots left on the tightest link of the route; 0 when the pair has
      no backbone route. *)
end

val recompute_route_slack :
  Problem.t -> ((int * int) * int) list -> int * int -> int
(** [recompute_route_slack problem pins (k, l)]: connection slots left
    on the tightest backbone link of the (k, l) route under the given
    pins, recomputed from scratch by scanning [routes_through] for every
    link.  Reference implementation for the incremental per-link table
    the rounding loop maintains; the test suite checks they agree. *)
