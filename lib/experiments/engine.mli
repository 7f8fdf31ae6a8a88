(** Generic resumable, sharded evaluation runner.

    The machinery behind {!Campaign} — per-index evaluation fanned out
    over domains, append-only JSONL logging, periodic checkpoint
    manifests, torn-tail truncation and resume-by-replay — factored out
    so other sweeps (the {!Resilience} fault-rate experiment) inherit
    crash-safety without re-implementing it.  An experiment supplies a
    {!spec}: the index space, the entry codec, the evaluator, and two
    manifest closures that keep each experiment's on-disk manifest
    format (and its config-mismatch refusal) under its own control. *)

type 'e spec = {
  log_label : string;
      (** names the experiment: the [experiment] field of its
          {!Dls_obs.Log} records and the prefix of its metrics, e.g.
          ["campaign"] *)
  total : int;  (** size of the index space; indices are [0 .. total-1] *)
  index_of : 'e -> int;
  to_line : 'e -> string;  (** one JSONL line, no trailing newline *)
  of_line : string -> ('e, string) result;  (** total: torn lines → [Error] *)
  evaluate : int -> 'e;
      (** evaluate one index from scratch; must be a pure function of
          the index (up to wall-clock fields) for resume to be sound *)
  skip_reason : 'e -> string option;
      (** [Some reason] marks the entry as a skip (one
          [engine.entry.skipped] warn record, counted separately);
          [None] marks a successful record *)
  entry_times : 'e -> (string * float) list;
      (** labelled wall-clock samples to accumulate into
          {!summary.s_times} (empty for skips) *)
  time_labels : string list;  (** sample labels, in reporting order *)
  log_time_stats : bool;
      (** log a mean/median/p95 digest per label after the run *)
  write_manifest : out:string -> completed:int -> unit;
      (** atomically write the experiment's manifest next to [out] *)
  check_manifest : path:string -> (unit, string) result;
      (** on resume: verify a manifest (if it exists) matches the
          current config; [Error] refuses the resume *)
}

type summary = {
  s_total : int;
  s_completed : int;  (** successful records, replayed + new *)
  s_skipped : int;  (** skipped entries, replayed + new *)
  s_evaluated : int;  (** entries computed by this run *)
  s_replayed : int;  (** entries recovered from the log on resume *)
  s_wall : float;  (** seconds spent in this run *)
  s_times : (string * float array) list;
      (** per-label wall-clock samples from this run's records *)
}

val load_log :
  of_line:(string -> ('e, string) result) ->
  path:string ->
  ('e list * int, string) result
(** Replay an existing JSONL log: entries in file order, plus the byte
    length of the valid prefix.  A final line that is unparseable or
    lacks its trailing newline is dropped (interrupted write); an
    invalid line {e before} the end is an error. *)

val write_atomic : path:string -> string -> unit
(** Write a file via temp-and-rename, so a crash mid-write can only lose
    the update, never produce a torn file (the manifest discipline). *)

val run :
  ?domains:int ->
  ?chunk:int ->
  ?checkpoint_every:int ->
  ?shards:int ->
  ?shard:int ->
  ?resume:bool ->
  ?out:string ->
  ?on_entry:('e -> unit) ->
  'e spec ->
  (summary, string) result
(** Same contract as {!Campaign.run} (which is now this function under a
    campaign spec): evaluate every pending index, streaming entries to
    [out] and checkpointing every [checkpoint_every] entries; with
    [resume], replay [out] first (after [check_manifest]) and evaluate
    only the frontier; [shards]/[shard] partition indices round-robin;
    [domains]/[chunk] fan evaluation out over a worker pool. *)
