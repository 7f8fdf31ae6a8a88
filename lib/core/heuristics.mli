(** Uniform driver over the paper's four heuristics.

    Used by the experiment harness, CLIs and examples so that a
    heuristic is a first-class value (parsed from the command line,
    iterated over in sweeps, timed uniformly). *)

type t =
  | G  (** greedy (Section 5.1) *)
  | LPR  (** LP relaxation + round down (5.2.1) *)
  | LPRG  (** LPR + greedy refinement (5.2.2) *)
  | LPRR  (** iterated randomized rounding (5.2.3) *)

val all : t list

val name : t -> string
val of_name : string -> t option
(** Case-insensitive; ["g"], ["lpr"], ["lprg"], ["lprr"]. *)

val run :
  ?objective:Lp_relax.objective ->
  ?rng:Dls_util.Prng.t ->
  ?relaxation:(Relaxation.t, string) result Lazy.t ->
  t ->
  Problem.t ->
  (Allocation.t, string) result
(** Runs the heuristic.  [objective] (default [Maxmin]) selects the LP
    objective for the LP-based heuristics; G ignores it (its fairness
    rule is objective-free, as in the paper).  [rng] seeds LPRR's coin
    flips (default: a fixed seed, for reproducibility).

    [relaxation] shares one solve between several calls: LPR and LPRG
    force it and post-process its solution instead of solving their
    own, so a caller that runs both (and reads {!bound_of}) solves the
    relaxation once.  G and LPRR leave it unforced.
    @raise Invalid_argument if the forced relaxation is not of
    [problem] under [objective]. *)

val bound_of : Relaxation.t -> float
(** The rational-relaxation optimum — the upper bound every figure of
    the paper normalizes against. *)

val lp_bound :
  ?objective:Lp_relax.objective ->
  Problem.t ->
  (float, string) result
(** Solve the relaxation, then {!bound_of}. *)
