(** Linear-program modeling layer.

    A thin, imperative builder for the packed form every DLS program
    has: maximize a linear objective over non-negative variables subject
    to [<=] rows.  A variable bound, such as an LPRR or MIP pin, is one
    more such row.  The DLS encoders in [Dls_core] use this API so that
    the same construction code produces both the float and the
    exact-rational programs. *)

module Make (F : Field.S) : sig
  module Solver : module type of Simplex.Make (F)

  type t
  (** Mutable problem under construction. *)

  type var
  (** Handle to a non-negative decision variable of one problem. *)

  val create : unit -> t

  val add_var : t -> var
  (** New variable constrained to [0 <= x]. *)

  val num_vars : t -> int

  val num_constraints : t -> int
  (** Rows added so far; the next row added gets this index. *)

  val add_le : t -> (var * F.t) list -> F.t -> unit
  (** Add the row [sum coeffs <= rhs]; duplicate variables are summed. *)

  val set_objective : t -> (var * F.t) list -> unit
  (** Maximization objective; replaces any previous objective. *)

  type result = {
    status : Solver.status;
    objective : F.t;
    value : var -> F.t;
    iterations : int;
  }

  val solve : ?max_iterations:int -> t -> result
  (** Solve with the dense tableau {!Simplex}.  Solving does not consume
      the builder: more rows can be added afterwards and the problem
      re-solved. *)
end

module Float : sig
  include module type of struct include Make (Field.Float) end

  val solve_packed : ?max_iterations:int -> t -> result
  (** Solve with {!Revised_simplex}, the packed-form core.  The dense
      tableau {!solve} stays as the differential oracle; the property
      tests and the differential harness check that both agree up to
      float tolerance.
      @raise Invalid_argument on a negative right-hand side (the
      all-slack start would not be feasible). *)

  type incremental
  (** Handle for a sequence of warm-started re-solves of one packed
      model (LPRR's pinning loop).  Created by snapshotting the builder;
      later edits to the builder are {e not} reflected in the handle. *)

  val incremental : t -> incremental
  (** Snapshot the model into a {!Revised_simplex} state.
      @raise Invalid_argument on the models {!solve_packed} refuses. *)

  val inc_set_rhs : incremental -> row:int -> float -> unit
  (** Replace the right-hand side of the [row]-th constraint (in order
      of [add_le] addition).
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
