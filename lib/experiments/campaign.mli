(** Resumable, sharded evaluation campaigns.

    The paper's Section 6 conclusions rest on ~270,000 random platforms.
    Running at that scale is an experiment {e service}, not a loop: this
    module gives every platform index its own pseudo-random stream
    (derived in O(1) with {!Dls_util.Prng.derive}, so the draws do not
    depend on evaluation order, domain count, or shard partitioning),
    streams each finished evaluation through {!Engine} to an append-only
    JSONL log, keeps
    a periodic checkpoint manifest next to it, and — after a crash or a
    kill — replays the log to skip finished indices and continue from
    the frontier.  A campaign interrupted at platform 200,000 therefore
    costs nothing but the platforms not yet logged.

    Determinism contract: for a fixed {!config} (with
    [measure_time = false] so wall-clock noise is zeroed), the multiset
    of logged lines is byte-identical whatever the [domains], [chunk],
    [shards] or crash/resume history — only the order in the file
    varies, and sorting by index restores the canonical stream.  The
    test suite enforces this. *)

type config = {
  seed : int;
  ks : int list;  (** cluster counts; index [i] evaluates [ks.(i / per_k)] *)
  per_k : int;  (** platforms per value of K *)
  with_lprr : bool;  (** also run LPRR (costs K² LP solves per platform) *)
  lprr_max_k : int option;
      (** when set, LPRR only for [k <= lprr_max_k] (Figure 7's regime) *)
  measure_time : bool;
      (** [false] records every wall-clock field as 0, making the log
          byte-reproducible; [true] (production) keeps real timings *)
}

val default_config : config
(** Table 1 sampling defaults: seed 12, K in 5..55, 5 platforms per K,
    no LPRR, timings on. *)

val total : config -> int
(** [per_k * List.length ks]. *)

val k_of_index : config -> int -> int
(** The K of campaign index [i]: indices are blocked by K, [per_k] at a
    time, in [ks] order. *)

type record = {
  index : int;  (** 0-based position in the campaign *)
  params : Dls_platform.Generator.params;  (** the sampled grid point *)
  active_apps : int;
  values : Measure.values;
}

type 'r entry = 'r Engine.entry =
  | Record of 'r
  | Skipped of { index : int; reason : string }
      (** an evaluation that returned [Error] (infeasible heuristic
          output); logged so a resume does not retry it *)

val evaluate_index : config -> int -> record entry
(** Evaluate one campaign index from scratch: derive its private PRNG
    stream, sample the platform and workload, run every heuristic.
    Pure function of [(config, index)] up to wall-clock fields. *)

(** {2 Log format}

    One {!Engine} log line per entry: [{"type":"record","index":i,
    "params":...,"active_apps":...,"values":...}] or a skip.  The
    manifest records [seed], [ks], [per_k], [with_lprr], [lprr_max_k]
    and [measure_time] ({!spec}). *)

val codec : record Engine.codec

val entry_index : record entry -> int

val entry_to_line : record entry -> string
(** Single line, no trailing newline. *)

val entry_of_line : string -> (record entry, string) result
(** Never raises: torn lines decode to [Error]. *)

val spec : config -> record Engine.spec
(** The campaign as an {!Engine} experiment (labelled ["campaign"]). *)

(** {2 Running} *)

type summary = Engine.summary = {
  s_total : int;
  s_completed : int;  (** successful records, replayed + new *)
  s_skipped : int;  (** skipped entries, replayed + new *)
  s_evaluated : int;  (** entries computed by this run *)
  s_replayed : int;  (** entries recovered from the log on resume *)
  s_wall : float;  (** seconds spent in this run *)
  s_times : (string * float array) list;
      (** per-heuristic wall-clock samples from this run's records, for
          {!Dls_util.Stats} summaries *)
}

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
  (summary, string) result
(** [run config] is {!Engine.run} under [spec config] once the config
    is checked ([ks] non-empty, [per_k >= 0]); the checkpoint, resume,
    sharding and parallelism contract is the engine's.  Shards let a
    campaign spread over processes or machines appending to per-shard
    logs.  Progress (records/s, ETA) is an [engine.progress]
    {!Dls_obs.Log} record at info level, roughly every two seconds. *)

val summary_table : summary -> Report.table
(** Campaign totals (records, skips, replay, throughput) as a report
    table for the CLI. *)

val times_table : summary -> Report.table
(** Per-heuristic wall-clock digest (mean/median/p95/max via
    {!Dls_util.Stats}) of this run's records; heuristics with no samples
    are omitted. *)

val collect : ?domains:int -> config -> record list
(** In-memory convenience for the figure generators: run the whole
    campaign (no log file), warn on skips, return records in index
    order.  @raise Invalid_argument on an invalid config. *)
