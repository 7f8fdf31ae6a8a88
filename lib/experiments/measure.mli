(** Per-platform measurement: every heuristic's objective values, the LP
    upper bounds for both objectives, and wall-clock timings.

    This is the unit of work of every figure: the paper evaluates each
    random platform by normalizing heuristic objective values against
    the rational-LP bound ("LP"), separately for SUM and MAXMIN. *)

type values = {
  lp_sum : float;
  lp_maxmin : float;
  g_sum : float;
  g_maxmin : float;
  lpr_sum : float;
  lpr_maxmin : float;
  lprg_sum : float;
  lprg_maxmin : float;
  lprr_sum : float option;  (** [None] unless [with_lprr] *)
  lprr_maxmin : float option;
  lprr_counters : Dls_lp.Revised_simplex.counters option;
  (** Solver instrumentation of the MAXMIN LPRR run (pivots, warm/cold
      starts, reinversions, wall-clock); [None] unless [with_lprr]. *)
  time_lp : float;
  (** seconds, the one MAXMIN relaxation solve shared by the LP bound,
      LPR and LPRG *)
  time_g : float;
  time_lpr : float;
  (** [time_lp] plus LPR's round-down of that shared MAXMIN solution:
      LPR's running time on the paper's terms, so it includes the LP
      time that [time_lp] also reports. *)
  time_lprg : float;
  (** [time_lp] plus round-down plus greedy refinement (MAXMIN). *)
  time_lprr : float option;  (** its own iterated LP solves (MAXMIN) *)
}

val evaluate :
  ?with_lprr:bool ->
  ?rng:Dls_util.Prng.t ->
  Dls_core.Problem.t ->
  (values, string) result
(** Runs everything on one problem.  The LP-based heuristics are solved
    under each objective they are reported against (as in the paper,
    where the LP objective matches the reported metric); G produces a
    single allocation evaluated under both.  The relaxation is solved
    once per objective ({!Dls_core.Relaxation}) and that one solution
    gives the LP bound, LPR and LPRG; LPRR runs its own iterated
    solves.  All outputs are checked
    against the feasibility checker — an infeasible heuristic output is
    an internal error and yields [Error]. *)

val sample_params :
  Dls_util.Prng.t -> k:int -> Dls_platform.Generator.params
(** Uniform draw from the Table 1 marginals (connectivity, heterogeneity,
    mean g / bw / maxcon) with the cluster count pinned to [k]. *)

val assign_workload :
  ?app_fraction:float ->
  ?source_speed_factor:float ->
  Dls_util.Prng.t ->
  Dls_platform.Platform.t ->
  Dls_core.Problem.t
(** Draw the application placement and payoffs for an existing platform
    (the workload half of {!sample_problem}); used by the ablations to
    combine custom platform parameters with the standard workload. *)

val sample_problem :
  ?app_fraction:float ->
  ?source_speed_factor:float ->
  Dls_util.Prng.t ->
  k:int ->
  Dls_core.Problem.t
(** Platform from {!sample_params}; each cluster hosts an application
    (payoff 1) with probability [app_fraction] (default 0.5), at least
    one overall — the rest contribute compute and network capacity only
    (payoff 0).  Application clusters keep [source_speed_factor] of
    their compute speed (default 0: pure data sources, as in the
    paper's NP-hardness gadget and the data-intensive grid scenario of
    its reference [34]) — with full-speed sources the network never
    binds and every ratio collapses to 1.

    Why not one application per cluster, as a literal reading of the
    paper suggests?  With every cluster active, all speeds fixed at 100
    and unit payoffs, computing everything locally is optimal for both
    objectives (MAXMIN = 100, SUM = 100K, no network term), every
    method reaches it, and all the paper's ratio plots would be the
    constant 1 — so the published curves are only reproducible with
    demand/capacity asymmetry.  Making some clusters application-less is
    the asymmetry the paper itself uses (payoff 0 "for clusters that do
    not wish to execute a divisible load application", and its
    NP-hardness gadget); [~app_fraction:1.0] restores the trivial
    setting.  See EXPERIMENTS.md for the measured flat-line check. *)

val time : (unit -> 'a) -> 'a * float
(** Wall-clock seconds of one call, on the non-decreasing
    {!Dls_obs.Clock}: never negative, even across a backwards step of
    the system clock. *)
