(** Flow-level execution of a periodic steady-state schedule.

    The paper argues (Section 3.2) that any valid allocation can be
    turned into a periodic schedule: during each period every cluster
    ships its chunks and computes the chunks received in the previous
    period.  This simulator executes that pattern under the Section 2
    bandwidth-sharing model — local links max-min shared, backbone
    connections individually capped — and measures the long-run
    throughput actually achieved per application, providing an
    independent, equation-free check of the steady-state analysis.

    Transfers of one period all start at the period boundary; rates are
    the max-min fair equilibrium, recomputed at every flow completion
    (processor sharing).  A chunk becomes computable at the destination
    when its transfer completes; clusters drain their compute queues at
    their speed, FIFO and work-conserving.  Transfers that overrun their
    period (possible: per-link feasibility does not imply that the
    concurrent max-min schedule meets every deadline) simply continue,
    delaying their chunk — the measured throughput quantifies the
    effect. *)

type stats = {
  predicted : float array;
  (** per-application throughput promised by the allocation, [alpha_k] *)
  achieved : float array;
  (** per-application work computed per time unit over the measurement
      window (after warm-up) *)
  delivered : float array;
  (** per-application work computed by the horizon from chunks
      dispatched in periods [[warmup, periods - 1)], per period of that
      span (0 when it is empty); the last period only lets those chunks
      finish.  Unlike [achieved], which a fault can lift over
      [predicted] by letting a chunk finish sooner than it would have
      fault-free, this never exceeds [predicted] *)
  late_transfers : int;
  (** transfers that completed after the period in which they started *)
  stalled_transfers : int;
  (** transfers that could never move (zero rate): an infeasible input,
      or — under a fault plan with the [Stall] policy — transfers still
      wedged on a failed route or dead endpoint when the run ends *)
  killed_transfers : int;
  (** transfers dropped by the [Kill] fault policy (0 without faults) *)
  fault_events : int;
  (** fault-plan events that fired inside the simulated horizon *)
  downtime : float;
  (** total simulated time during which at least one fault was active *)
  guard_exhausted : bool;
  (** [true] when the transfer loop hit its defensive iteration bound
      before reaching the horizon — the run was truncated, its stats are
      suspect, and the [sim.guard_exhausted] obs counter was bumped.
      Always [false] on a healthy run. *)
}

val run :
  ?periods:int ->
  ?warmup:int ->
  ?latency:Latency.t ->
  ?faults:Faults.plan ->
  ?fault_policy:Faults.policy ->
  Dls_core.Problem.t ->
  Dls_core.Allocation.t ->
  stats
(** [run ~periods ~warmup problem alloc] simulates [periods] periods of
    unit length (defaults 20) and measures over the last
    [periods - warmup] (default warm-up 2).  With [latency], chunk
    arrivals are delayed by the one-way path latency and link sharing is
    RTT-biased ({!Latency.tcp_weight}) — the refinement the paper's
    conclusion proposes; steady-state throughput is unaffected
    asymptotically (latency is a constant offset per chunk) but warm-up
    takes longer and fairness between long and short routes degrades,
    which the stats expose.

    With [faults], the plan's events are applied at their times
    mid-execution and rates re-equilibrated: a transfer's capacity
    follows the degraded per-connection bandwidth of its route (zero
    across a down link, so the transfer stalls), connection counts are
    scaled down when a reduced [max_connect] no longer covers the
    allocation's demand on a link, crashed clusters lose their local
    link (in-flight transfers to them stall or are killed per
    [fault_policy], default [Stall]) and the compute phase integrates
    each cluster's piecewise-constant throttled speed.  An empty plan is
    bit-identical to running without [faults].

    Numeric comparisons in the transfer loop use tolerances scaled to
    the magnitudes involved (the horizon for times, each flow's nominal
    rate for liveness, the allocation's largest [alpha] for pattern
    membership), so behavior is invariant under uniform rescaling of
    bandwidths, speeds and workloads across many orders of magnitude;
    capacities compare against exact zero, the only dead value the
    fault model produces.

    All-stalled schedules short-circuit: when every transfer of the
    periodic pattern starts with zero capacity or a zero-capacity
    endpoint (and no fault event could revive it), the run skips the
    period loop and returns immediately with [stalled_transfers]
    covering all [periods]' transfers — same stats, none of the work.
    @raise Invalid_argument if [periods <= warmup] or either is
    negative. *)

val efficiency : stats -> float
(** Ratio of total achieved to total predicted throughput (1 when the
    simulation delivers everything the equations promise); 1 when
    nothing was predicted. *)
