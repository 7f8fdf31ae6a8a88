(** LPR: round the rational relaxation down (Section 5.2.1).

    From a relaxation solution [(alpha~, beta~)], LPR keeps
    [beta^ = floor(beta~)] and [alpha^ = min(alpha~, beta^ * g_{k,l})].
    Every constraint still holds because both matrices only decreased —
    but whole routes whose fractional connection count was below 1 are
    zeroed, which is why the paper finds LPR "very poor" (often worth 0);
    it exists as the base layer of LPRG. *)

val round_down : Problem.t -> float Lp_relax.solution -> Allocation.t
(** Deterministic rounding of a relaxation solution. *)

val of_relaxation : Relaxation.t -> Allocation.t
(** {!round_down} of a solved relaxation. *)

val solve :
  ?objective:Lp_relax.objective ->
  Problem.t ->
  (Allocation.t, string) result
(** Solve the relaxation, then {!round_down}. *)
