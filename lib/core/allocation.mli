(** Steady-state allocations and their feasibility (Equations 7a–7g).

    An allocation assigns [alpha.(k).(l)] — load units of application
    [A_k] shipped from cluster [k] and computed on cluster [l] per time
    unit — and [beta.(k).(l)] — the (integer) number of network
    connections opened for that traffic.  This module is the single
    source of truth for feasibility: every heuristic's output is checked
    against it in the test suite, and the experiment harness refuses to
    report objective values for infeasible allocations. *)

type t = {
  alpha : float array array;  (** K x K work matrix, non-negative *)
  beta : int array array;  (** K x K connection matrix, non-negative *)
}

val zero : int -> t
(** All-zero allocation for [K] clusters. *)

val copy : t -> t

val app_throughput : t -> int -> float
(** [alpha_k = sum_l alpha.(k).(l)] — load of application [k] processed
    per time unit (Equation 7a's aggregate). *)

val total_throughput : t -> float
(** [sum_k alpha_k], summed in application order: the payoff-free
    tiebreak of the repair ladder and the daemon's solver. *)

val sum_objective : Problem.t -> t -> float
(** Equation 5: [sum_k pi_k * alpha_k]. *)

val maxmin_objective : Problem.t -> t -> float
(** Equation 6: [min_k pi_k * alpha_k] over {e active} applications;
    [0.] when no application is active. *)

val objective : [ `Sum | `Maxmin ] -> Problem.t -> t -> float

type violation =
  | Negative_alpha of int * int
  | Negative_beta of int * int
  | Cpu_exceeded of int  (** Equation 1 / 7b violated at this cluster *)
  | Local_link_exceeded of int  (** Equation 2 / 7c violated at this cluster *)
  | Connections_exceeded of int  (** Equation 3 / 7d violated at this backbone link *)
  | Bandwidth_exceeded of int * int  (** Equation 4 / 7e violated on this route *)
  | No_route of int * int  (** positive work between unconnected clusters *)
  | Inactive_sender of int  (** work shipped for a payoff-0 application *)

val pp_violation : Format.formatter -> violation -> unit

val check : ?eps:float -> Problem.t -> t -> violation list
(** All constraint violations, with tolerance [eps] (default [1e-6])
    scaled by each constraint's right-hand side.  An empty list means
    the allocation is a valid steady-state operating point. *)

val is_feasible : ?eps:float -> Problem.t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints only the non-zero entries. *)
