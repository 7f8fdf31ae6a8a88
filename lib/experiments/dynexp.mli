(** Dynamic-workload experiment: online re-planning versus batch
    baselines on the same traces.

    For each sampled platform and each admission {!Dls_dynsim.Dynamic.policy},
    the same workload — synthetic Poisson/heavy-tailed, or an SWF trace
    replayed deterministically — is driven through the event-driven
    simulator.  The policies differ only in which queue heads they admit
    (the LP plans whatever set it is given), so the comparison isolates
    the value of joint steady-state planning over FCFS serialization and
    EASY backfilling.

    Runs on the generic {!Engine}: JSONL logging, checkpoint manifests,
    sharding and crash-safe resume all inherited.  Each record carries
    an MD5 digest of the run's event log, which the determinism tests
    compare across domain counts and across kill/resume. *)

type config = {
  seed : int;
  k : int;  (** clusters per platform *)
  platforms : int;
  jobs : int;  (** synthetic workload length (ignored with [swf]) *)
  rate : float;  (** synthetic arrival rate (ignored with [swf]) *)
  heavy : bool;  (** Pareto job sizes instead of uniform *)
  swf : string option;
      (** replay this SWF trace instead of synthesizing a workload *)
  work_scale : float;  (** SWF work multiplier ({!Dls_dynsim.Workload.of_swf}) *)
  fault_rate : float;  (** link fault rate; 0 disables fault injection *)
  policies : Dls_dynsim.Dynamic.policy list;
  measure_time : bool;
      (** [false] records re-plan wall-clock as 0 for byte-reproducible
          logs, as in {!Campaign.config} *)
}

val default_config : config
(** seed 33, K = 4, 3 platforms, 40 jobs at rate 0.4, uniform sizes,
    no SWF, work scale 1, no faults, all three policies, timings on. *)

val total : config -> int
(** [platforms * length policies]; index [i] runs platform
    [i / length policies] under policy [i mod length policies]. *)

val platform_of_index : config -> int -> int
val policy_of_index : config -> int -> Dls_dynsim.Dynamic.policy

(** {2 Records} *)

type record = {
  index : int;
  platform : int;
  policy : Dls_dynsim.Dynamic.policy;
  jobs : int;  (** workload length *)
  completed : int;
  unfinished : int;
  makespan : float;
  completed_work : float;
  throughput : float;
  mean_response : float;
  events : int;
  replans : int;
  replan_seconds : float;  (** summed ladder wall-clock; out-of-band *)
  log_digest : string;  (** MD5 of the event log, hex *)
  guard_exhausted : bool;
}

type 'r entry = 'r Engine.entry =
  | Record of 'r
  | Skipped of { index : int; reason : string }

val codec : record Engine.codec

val entry_index : record entry -> int

val replay : config -> index:int -> (int * Dls_dynsim.Dynamic.result, string) result
(** Re-run one index outside the Engine, returning the workload length
    and the full {!Dls_dynsim.Dynamic.result} — including the event log
    that {!record.log_digest} summarizes.  Used by the CLI's
    [--events] dump and by the determinism tests. *)

val evaluate_index : config -> int -> record entry
(** Pure function of [(config, index)] up to wall-clock fields — and of
    the SWF file's contents, which must not change across a resume. *)

val entry_to_line : record entry -> string
val entry_of_line : string -> (record entry, string) result

val spec : config -> record Engine.spec
(** The experiment as an {!Engine} spec (labelled ["dynamic"]); its
    manifest records ["experiment":"dynamic"] and every config field. *)

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
(** Per policy: platforms evaluated, mean completions, mean makespan,
    mean throughput, mean response time, mean re-plans and mean ladder
    seconds — throughput is the headline LP-repair-vs-FCFS column. *)
