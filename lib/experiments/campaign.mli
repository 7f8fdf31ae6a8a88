(** Resumable, sharded evaluation campaigns.

    The paper's Section 6 conclusions rest on ~270,000 random platforms.
    Running at that scale is an experiment {e service}, not a loop: this
    module gives every platform index its own pseudo-random stream
    (derived in O(1) with {!Dls_util.Prng.derive}, so the draws do not
    depend on evaluation order, domain count, or shard partitioning),
    streams each finished evaluation to an append-only JSONL log, keeps
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

type entry =
  | Record of record
  | Skipped of { index : int; reason : string }
      (** an evaluation that returned [Error] (infeasible heuristic
          output); logged so a resume does not retry it *)

val entry_index : entry -> int

val evaluate_index : config -> int -> entry
(** Evaluate one campaign index from scratch: derive its private PRNG
    stream, sample the platform and workload, run every heuristic.
    Pure function of [(config, index)] up to wall-clock fields. *)

(** {2 JSONL record codec}

    One entry per line.  [entry_of_line] never raises: torn or
    partially-flushed lines decode to [Error], which is what lets
    {!load_log} treat a ragged final line as an interrupted write
    rather than corruption. *)

val entry_to_line : entry -> string
(** Single line, no trailing newline. *)

val entry_of_line : string -> (entry, string) result

(** {2 Checkpoint manifest} *)

type manifest = {
  m_config : config;
  m_total : int;
  m_completed : int;  (** entries durably in the log when written *)
}

val manifest_to_string : manifest -> string

val manifest_of_string : string -> (manifest, string) result

val manifest_path : string -> string
(** [manifest_path out] is [out ^ ".manifest"]; written atomically
    (temp file + rename) so a crash never leaves a torn manifest. *)

val load_log :
  path:string -> (entry list * int, string) result
(** Replay an existing JSONL log: entries in file order, plus the byte
    length of the valid prefix.  A final line that is unparseable or
    lacks its trailing newline is dropped (interrupted write); an
    invalid line {e before} the end is an error — the log is corrupt and
    resuming would silently lose data. *)

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
  ?on_entry:(entry -> unit) ->
  config ->
  (summary, string) result
(** [run config] evaluates every pending index and returns the campaign
    summary.

    - [out]: append each entry as one JSONL line (flushed per chunk) and
      maintain [manifest_path out].  Without it the campaign is
      in-memory only ([resume] is then meaningless).
    - [resume]: replay an existing [out] log first (see {!load_log}),
      verify it against the manifest's config fingerprint, truncate any
      torn tail, fire [on_entry] for every replayed entry, and evaluate
      only the remainder.  Without [resume], an existing [out] is
      started over from scratch.
    - [shards]: partition indices round-robin ([index mod shards]);
      [shard] restricts the run to one partition (for spreading a
      campaign over processes or machines appending to per-shard logs),
      otherwise all partitions run sequentially in this process.
    - [checkpoint_every]: rewrite the manifest after this many newly
      logged entries (default 256).
    - [domains]/[chunk]: forwarded to
      {!Dls_util.Parallel.map_chunked}; memory stays O(chunk).
    - [on_entry]: called for every entry as it becomes durable, in log
      order (replayed first, then new entries in evaluation order —
      index order within a shard).

    Progress (records/s, ETA) is an [engine.progress] {!Dls_obs.Log}
    record at info level, roughly every two seconds.  Errors (config/manifest mismatch,
    corrupt log, invalid sharding) return [Error]; exceptions raised by
    the evaluation itself propagate after the worker pool has joined,
    and the log remains valid for a later [resume]. *)

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
