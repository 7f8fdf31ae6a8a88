(** LPRG: LP round-down refined by the greedy heuristic (Section 5.2.2).

    "LPR gives the basic framework of the solution, while the greedy
    heuristic refines it": the residual network capacity thrown away by
    rounding down is reclaimed by running G from the rounded allocation.
    This is the paper's best practical heuristic — close to the LP upper
    bound on the SUM objective at large K. *)

val of_solution : Problem.t -> float Lp_relax.solution -> Allocation.t
(** Round a relaxation solution down ({!Lpr.round_down}), then refine
    greedily over the residual capacities.  Traced as the [lprg.solve]
    span, which covers this post-processing only.  The daemon's warm
    rung feeds it the resident handle's solution. *)

val of_relaxation : Relaxation.t -> Allocation.t
(** {!of_solution} of a solved relaxation. *)

val solve :
  ?objective:Lp_relax.objective ->
  Problem.t ->
  (Allocation.t, string) result
(** Solve the relaxation, then {!of_relaxation}. *)
