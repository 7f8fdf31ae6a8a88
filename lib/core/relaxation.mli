(** One solved rational relaxation of (7a)–(7g), shared by everything
    the paper derives from it (Section 5.2).

    The LP bound, LPR and LPRG are post-processings of the same optimal
    solution: the bound reads its objective value, LPR rounds it down,
    and LPRG rounds it down and refines greedily.  Solving the
    relaxation once per (problem, objective) and passing this value to
    {!Heuristics.bound_of}, {!Lpr.of_relaxation} and
    {!Lprg.of_relaxation} gives exactly what the per-heuristic
    [solve] wrappers give, for one LP solve instead of three. *)

type t = private {
  problem : Problem.t;  (** the problem that was relaxed *)
  objective : Lp_relax.objective;
  solution : float Lp_relax.solution;
  seconds : float;
  (** wall-clock time of the solve (non-decreasing clock) *)
}

val solve : ?objective:Lp_relax.objective -> Problem.t -> (t, string) result
(** {!Lp_relax.solve} (default objective [Maxmin]), timed.  [Error]
    carries the solver's [Failed] message. *)
