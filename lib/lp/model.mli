(** Linear-program modeling layer.

    A thin, imperative builder over {!Simplex}: named variables, linear
    constraints, optional upper bounds (lowered to [<=] rows), and a
    maximization objective.  The DLS encoders in [Dls_core] use this API
    so that the same construction code produces both the float and the
    exact-rational programs. *)

module Make (F : Field.S) : sig
  module Solver : module type of Simplex.Make (F)

  type t
  (** Mutable problem under construction. *)

  type var
  (** Handle to a non-negative decision variable of one problem. *)

  val create : unit -> t

  val add_var : ?name:string -> ?ub:F.t -> t -> var
  (** New variable constrained to [0 <= x] (and [x <= ub] if given). *)

  val var_name : t -> var -> string
  (** The name given at creation, or ["x<i>"]. *)

  val num_vars : t -> int

  val num_constraints : t -> int
  (** Rows added so far, not counting bound rows. *)

  val add_le : t -> (var * F.t) list -> F.t -> unit
  val add_ge : t -> (var * F.t) list -> F.t -> unit
  val add_eq : t -> (var * F.t) list -> F.t -> unit

  val set_upper_bound : t -> var -> F.t -> unit
  (** Adds/overrides an upper bound on a variable (used by LPRR when it
      fixes a rounded [beta_{k,l}]). The tightest bound set wins. *)

  val set_objective : t -> (var * F.t) list -> unit
  (** Maximization objective; replaces any previous objective. *)

  type result = {
    status : Solver.status;
    objective : F.t;
    value : var -> F.t;
    duals : F.t array;
    (** shadow prices of the constraints added with [add_le]/[add_ge]/
        [add_eq], in order of addition (bound rows are not included);
        meaningful when optimal *)
    iterations : int;
  }

  val solve : ?max_iterations:int -> t -> result
  (** Solving does not consume the builder: more constraints can be added
      afterwards and the problem re-solved (LPRR does exactly this). *)

  val pp : Format.formatter -> t -> unit
  (** Debug rendering of the full program. *)
end

module Float : sig
  include module type of struct include Make (Field.Float) end

  val solve_packed : ?max_iterations:int -> t -> result
  (** Solve with {!Revised_simplex}, the packed-form core: every DLS
      relaxation has that shape (all rows [<=] with non-negative
      right-hand sides).  The dense tableau {!solve} stays as the
      differential oracle; the property tests and the differential
      harness check that both agree up to float tolerance.
      @raise Invalid_argument unless the model is in packed inequality
      form (all rows [<=], right-hand sides and upper bounds
      non-negative). *)

  type incremental
  (** Handle for a sequence of warm-started re-solves of one packed
      model (LPRR's pinning loop).  Created by snapshotting the builder;
      later edits to the builder are {e not} reflected in the handle. *)

  val incremental : t -> incremental
  (** Snapshot the model into a {!Revised_simplex} state.
      @raise Invalid_argument on the models {!solve_packed} refuses. *)

  val inc_set_rhs : incremental -> row:int -> float -> unit
  (** Replace the right-hand side of the [row]-th constraint (in order
      of [add_le] addition; variable-bound rows are not addressable).
      @raise Invalid_argument on an out-of-range row or negative
      value. *)

  val inc_rhs : incremental -> row:int -> float
  (** Current right-hand side of the [row]-th constraint. *)

  val inc_zero_coeff : incremental -> row:int -> var -> unit
  (** Delete a variable's coefficient from a constraint (no-op if the
      variable does not appear in it). *)

  val inc_solve : ?max_iterations:int -> incremental -> result
  (** Re-optimize: the first call is a cold start, later calls
      warm-start from the previous optimal basis (with automatic
      fallback to a cold start when that basis is stale — singular or
      infeasible after the edits). *)

  val inc_counters : incremental -> Revised_simplex.counters
  (** Cumulative solver instrumentation for this handle. *)
end
(** Pre-instantiated float model (the experiments' fast path). *)

module Exact : module type of struct include Make (Field.Exact) end
(** Pre-instantiated exact-rational model (ground truth / schedules). *)
