(** Figure 7: running time of G, LPR, LPRG and LPRR versus K.

    The paper plots wall-clock seconds on a log scale for
    K = 10, 20, 30, 40: G is orders of magnitude faster than the
    LP-based heuristics, LPR/LPRG track the single LP solve, and LPRR
    costs about K^2 LP solves.  Absolute values differ from the paper's
    Pentium III / lp_solve setup; the growth shape is the result. *)

type row = {
  k : int;
  platforms : int;
  time_g : float;  (** mean seconds *)
  time_lp : float;  (** the MAXMIN relaxation solve, shared below *)
  time_lpr : float;  (** [time_lp] plus LPR's round-down *)
  time_lprg : float;  (** [time_lp] plus round-down and greedy refinement *)
  time_lprr : float option;  (** [None] beyond [lprr_max_k] *)
  lprr_pivots : float option;
  (** Mean total simplex pivots of the MAXMIN LPRR run. *)
  lprr_reinversions : float option;  (** mean basis reinversions per run *)
}

val run :
  ?seed:int -> ?ks:int list -> ?per_k:int -> ?lprr_max_k:int -> unit -> row list
(** Defaults: seed 3, K in 10, 20, 30, 40, 3 platforms per K, LPRR
    measured for K <= 20 (its K^2 LP solves dominate the budget). *)

val table : row list -> Report.table
