(** Fault-rate sweep: throughput retained under platform degradation.

    For each sampled platform and each fault rate, every heuristic's
    allocation is (1) simulated fault-free, (2) simulated under a
    seed-derived {!Dls_flowsim.Faults} plan, and (3) repaired against
    the end-of-run degraded platform with the {!Dls_core.Repair} ladder.
    The report compares, per heuristic and rate, the throughput the
    schedule retains while degraded and the throughput a repair wins
    back — the robustness counterpart to the paper's steady-state
    ratios, probing the conclusion's call for adaptiveness to
    wide-area variability.

    Runs on the generic {!Engine}, so fault sweeps inherit the campaign
    runner's JSONL logging, checkpoint manifests, sharding and
    crash-safe resume unchanged. *)

type config = {
  seed : int;
  k : int;  (** clusters per platform *)
  rates : float list;
      (** fault event rates (per entity per period); index [i] runs
          [rates.(i / per_rate)] *)
  per_rate : int;  (** platforms per rate *)
  periods : int;
      (** a 2-period warm-up, then the measured periods; faults start
          with the measured periods, and each simulation runs one period
          longer so the work dispatched in them can finish *)
  policy : Dls_flowsim.Faults.policy;  (** what happens to wedged transfers *)
  measure_time : bool;
      (** [false] records repair wall-clock as 0 for byte-reproducible
          logs, as in {!Campaign.config} *)
}

val default_config : config
(** seed 21, K = 12, rates 0.02 / 0.05 / 0.1, 4 platforms per rate,
    20 periods, [Stall], timings on. *)

val total : config -> int
val rate_of_index : config -> int -> float

(** {2 Records} *)

type hres = {
  predicted : float;  (** total throughput promised by the allocation *)
  baseline : float;
      (** simulated fault-free total throughput: the simulator's
          [delivered], work dispatched in the measured periods *)
  faulted : float;
      (** the same measure under the fault plan; neither can exceed
          [predicted] *)
  repaired : float;
      (** total throughput of the repaired allocation on the degraded
          platform — what a reactive scheduler would promise next *)
  stage : Dls_core.Repair.stage;  (** ladder rung that won *)
  repair_seconds : float;  (** summed over all attempted rungs *)
  killed : int;
  stalled : int;
}

type record = {
  index : int;
  rate : float;
  fault_events : int;  (** plan events inside the horizon *)
  downtime : float;  (** time with at least one fault active *)
  results : (Dls_core.Heuristics.t * hres option) list;
      (** one slot per heuristic, [None] when it (or its repair)
          failed *)
}

type 'r entry = 'r Engine.entry =
  | Record of 'r
  | Skipped of { index : int; reason : string }

val codec : record Engine.codec

val entry_index : record entry -> int

val evaluate_index : config -> int -> record entry
(** Pure function of [(config, index)] up to wall-clock fields: the
    platform, workload, and fault plan all come from streams derived
    from the config seed and the index. *)

val entry_to_line : record entry -> string
val entry_of_line : string -> (record entry, string) result

val spec : config -> record Engine.spec
(** The experiment as an {!Engine} spec (labelled ["resilience"]); its
    manifest records ["experiment":"resilience"], the measure
    (["throughput":"delivered"]) and every config field. *)

val run :
  ?domains:int ->
  ?chunk:int ->
  ?checkpoint_every:int ->
  ?shards:int ->
  ?shard:int ->
  ?resume:bool ->
  ?out:string ->
  ?on_entry:(record entry -> unit) ->
  config ->
  (Engine.summary, string) result
(** {!Engine.run} under [spec config] once the config is checked. *)

val collect : ?domains:int -> config -> record list
(** In-memory run; records in index order.
    @raise Invalid_argument on an invalid config. *)

val table : config -> record list -> Report.table
(** Per (rate, heuristic): platforms evaluated, mean retained ratio
    while degraded ([faulted/baseline]), mean repaired ratio
    ([repaired/predicted]), modal repair stage, mean repair seconds. *)
