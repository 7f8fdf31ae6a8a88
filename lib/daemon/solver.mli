(** Deadline-budgeted repair-ladder solves with a circuit breaker.

    Every [get_schedule] request carries a time budget.  The solver
    climbs the PR-3/4 repair ladder one rung at a time — each rung
    strictly more expensive and (usually) better than the last — and
    stops escalating the moment the budget is exhausted, returning the
    best feasible allocation found so far with a [degraded] flag when a
    better rung was skipped:

    + {b Rescale} — λ-shrink the cached allocation onto the degraded
      capacities ({!Dls_core.Repair.rescale}); microseconds, feasible
      by construction, always attempted (it is the floor the daemon can
      serve even with a zero budget).
    + {b Refine} — greedy refinement on the residual capacities; from a
      zero base this is a full greedy solve, so even budget-starved
      first requests get greedy-quality schedules.
    + {b Resolve-LP} — full LP-based re-solve (LPRG).  The expensive
      rung, and the one the {e circuit breaker} protects: after
      [threshold] consecutive deadline blowouts (the LP finished past
      the request deadline, or failed) the breaker {e opens} and
      Resolve-LP is skipped entirely for an exponentially-backed-off,
      {!Dls_util.Prng}-jittered interval; then one {e half-open} probe
      is allowed — success re-closes the breaker, another blowout
      re-opens it with a doubled backoff.
    + {b Resolve-greedy} — full objective-free greedy re-solve, the
      fallback rung when Resolve-LP is skipped (breaker open) or
      errored.

    Rungs are never aborted mid-flight (budgets gate {e starting} a
    rung), so a single pathological LP can overrun once — that overrun
    is precisely what feeds the breaker.

    {b Warm fast path.}  When a resident handle is live for the
    requested objective, the ladder inverts: the Resolve-LP rung is an
    incremental re-pivot — the {e cheapest} rung — so it runs first,
    and a clean in-budget solve skips the heuristic prelude entirely
    (Rescale/Refine reported in [skipped]).  A failed warm attempt
    drops the handle and falls through to the cold ladder in its usual
    order, without retrying the LP rung on the strained budget. *)

type rung = Rescale | Refine | Resolve_lp | Resolve_greedy

val rung_name : rung -> string
(** ["rescale"], ["refine"], ["resolve_lp"], ["resolve_greedy"]. *)

(** {1 Circuit breaker} *)

type breaker

type breaker_state = Closed | Open | Half_open

val breaker_state_name : breaker_state -> string

val breaker :
  ?threshold:int ->
  ?base_backoff_s:float ->
  ?max_backoff_s:float ->
  ?seed:int ->
  unit ->
  breaker
(** Fresh closed breaker.  [threshold] consecutive Resolve-LP failures
    (default 3) trip it open for [base_backoff_s * 2^k] seconds
    (defaults 1.0 base, 60.0 cap, [k] = re-opens since last close),
    stretched by a jitter factor in [1, 1.5] drawn from a [seed]ed
    {!Dls_util.Prng} stream so restarted daemons do not probe in
    lockstep.
    @raise Invalid_argument on a non-positive threshold or backoff. *)

val breaker_state : breaker -> now:float -> breaker_state
(** Current state; an [Open] breaker whose backoff has elapsed reports
    (and becomes) [Half_open]. *)

val breaker_trips : breaker -> int
(** Times the breaker has transitioned to [Open]. *)

val note_lp_failure : breaker -> now:float -> unit
(** Record one Resolve-LP deadline blowout.  {!solve} calls this
    itself; exposed so the tests can drive the trip / half-open / close
    cycle with a fake clock. *)

val note_lp_success : breaker -> unit
(** Record a clean in-budget Resolve-LP; resets failures and closes the
    breaker. *)

(** {1 Resident warm LP}

    One {!Dls_core.Lp_relax.Incremental} handle per objective, kept
    alive across requests so a capacity delta followed by
    [get_schedule] pays an incremental pivot count instead of a cold
    re-encode + all-slack solve.  Accepted mutations classified by
    {!State.warm_edits} are applied with {!resident_apply}: capacity
    deltas become right-hand-side edits on every live handle;
    structural mutations invalidate the handles, which lazily rebuild
    on the next solve (counted in [daemon.rebuilds], vs
    [daemon.warm_hits] for solves served from a live handle).

    The breaker is intentionally {e not} part of a resident: a handle
    rebuild carries the breaker's failure count, backoff exponent and
    open/half-open state over unchanged.

    A resident is not internally synchronized.  The server confines
    each resident to one owner and funnels edits and solves through a
    single FIFO, which is what makes the warm path a pure function of
    the mutation log (the WAL determinism guarantee). *)

type resident

val resident : unit -> resident
(** Fresh resident with no live handle. *)

val resident_apply :
  resident -> State.capacity_edit list option -> unit
(** Feed one accepted mutation's {!State.warm_edits} classification:
    [Some edits] updates every live handle in place (a no-op when none
    is live); [None] invalidates them all. *)

val resident_invalidate : resident -> unit
(** Drop every live handle; the next solve rebuilds. *)

val resident_stats : resident -> int * int * int
(** [(warm_hits, rebuilds, edits)] since creation. *)

val resident_pivots : resident -> int
(** Cumulative simplex pivots across the live handles (drops to 0 when
    the handles are invalidated). *)

(** {1 Solving} *)

type attempt = {
  a_rung : rung;
  a_seconds : float;  (** wall-clock cost of the rung *)
  a_within_budget : bool;  (** finished before the request deadline *)
  a_feasible : bool;
  a_objective : float;  (** 0 when infeasible *)
}

type outcome = {
  allocation : Dls_core.Allocation.t;  (** best feasible found *)
  objective_value : float;
  rung : rung;  (** rung that produced [allocation] *)
  degraded : bool;
      (** a better rung was skipped (budget exhausted or breaker open)
          and the winner is not the full LP re-solve *)
  skipped : rung list;  (** rungs not attempted, in ladder order *)
  attempts : attempt list;  (** rungs attempted, in ladder order *)
}

val solve :
  ?now:(unit -> float) ->
  ?resident:resident ->
  breaker:breaker ->
  objective:Dls_core.Lp_relax.objective ->
  budget_s:float ->
  base:Dls_core.Allocation.t ->
  Dls_core.Problem.t ->
  (outcome, string) result
(** Climb the ladder under [budget_s] seconds, starting from [base]
    (the daemon's cached last-good allocation, or zero).  With
    [resident], the Resolve-LP rung solves from the resident warm
    handle (building it from [problem] if necessary) and feeds the
    relaxation through the same round-down + refine pipeline as the
    cold LPRG path; a failed warm solve drops the handle and falls
    back to the objective-free greedy.  [now] overrides the clock
    (tests drive the breaker through its open/half-open cycle with a
    fake clock; default [Unix.gettimeofday]).  [Error] only if no rung
    produced a feasible allocation, which Rescale's totality rules out
    for well-formed problems. *)
