(** Generic resumable, sharded evaluation runner and its one log format.

    The machinery behind {!Campaign}, {!Dynexp} and {!Resilience} —
    per-index evaluation fanned out over domains, an append-only JSONL
    record log, a periodic checkpoint manifest, torn-tail truncation and
    resume-by-replay — written once, so every experiment inherits
    crash-safety and the same on-disk format:

    - each log line is [{"type":"record","index":i,...}] with the
      record's own fields after the index, or
      [{"type":"skipped","index":i,"reason":...}];
    - the manifest [out.manifest] is one line
      [{"version":1,<config fields>,"total":n,"completed":c}], rewritten
      atomically at every checkpoint.

    An experiment supplies a {!spec}: its record codec, its config as an
    ordered JSON field list, its evaluator and its time labels.  On
    resume the recorded manifest must equal the one the current spec
    would write in every field but [completed]; numbers print with
    ["%.17g"], so comparing {!Dls_util.Json.t} values is exact and no
    config decoder is needed. *)

type 'r entry =
  | Record of 'r
  | Skipped of { index : int; reason : string }
      (** an evaluation that returned [Error]; logged so a resume does
          not retry it *)

type 'r codec = {
  index : 'r -> int;
  to_fields : 'r -> (string * Dls_util.Json.t) list;
      (** the record's fields, written after ["type"] and ["index"] *)
  of_json : index:int -> Dls_util.Json.t -> ('r, string) result;
      (** decode a record from its whole line object *)
}

val entry_index : 'r codec -> 'r entry -> int

val entry_to_line : 'r codec -> 'r entry -> string
(** One JSONL line, no trailing newline. *)

val entry_of_line : 'r codec -> string -> ('r entry, string) result
(** Never raises: a torn or partially flushed line decodes to [Error],
    which is what lets a replay treat a ragged final line as an
    interrupted write rather than corruption. *)

type 'r spec = {
  log_label : string;
      (** names the experiment: the [experiment] field of its
          {!Dls_obs.Log} records, the prefix of its metrics and the
          resume refusal, e.g. ["campaign"] *)
  total : int;  (** size of the index space; indices are [0 .. total-1] *)
  config : (string * Dls_util.Json.t) list;
      (** the config as the manifest records it, in order; any change to
          it refuses a resume *)
  codec : 'r codec;
  evaluate : int -> 'r entry;
      (** evaluate one index from scratch; must be a pure function of
          the index (up to wall-clock fields) for resume to be sound *)
  entry_times : 'r -> (string * float) list;
      (** labelled wall-clock samples to accumulate into
          {!summary.s_times} *)
  time_labels : string list;  (** sample labels, in reporting order *)
  log_time_stats : bool;
      (** log a mean/median/p95 digest per label after the run *)
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

val manifest_path : string -> string
(** [manifest_path out] is [out ^ ".manifest"]. *)

val run :
  ?domains:int ->
  ?chunk:int ->
  ?checkpoint_every:int ->
  ?shards:int ->
  ?shard:int ->
  ?resume:bool ->
  ?out:string ->
  ?on_entry:('r entry -> unit) ->
  'r spec ->
  (summary, string) result
(** Evaluate every pending index.

    - [out]: append each entry as one JSONL line (flushed per chunk) and
      maintain [manifest_path out].  Without it the run is in-memory
      only ([resume] is then meaningless).
    - [resume]: check the manifest (if any) against the spec, replay an
      existing [out] log ({!Dls_util.Wal.load}), truncate any torn tail,
      fire [on_entry] for every replayed entry, and evaluate only the
      remainder.  Without [resume], an existing [out] and its manifest
      are started over from scratch.
    - [shards]: partition indices round-robin ([index mod shards]);
      [shard] restricts the run to one partition, otherwise all
      partitions run sequentially in this process.
    - [checkpoint_every]: rewrite the manifest after this many newly
      logged entries (default 256).
    - [domains]/[chunk]: forwarded to {!Dls_util.Parallel.map_chunked};
      memory stays O(chunk).
    - [on_entry]: called for every entry as it becomes durable, in log
      order (replayed first, then new entries in evaluation order —
      index order within a shard).

    Errors (manifest mismatch, corrupt log, invalid sharding) return
    [Error]; exceptions raised by the evaluation itself propagate after
    the worker pool has joined, and the log remains valid for a later
    [resume]. *)

val collect :
  'r codec ->
  (on_entry:('r entry -> unit) -> (summary, string) result) ->
  ('r list, string) result
(** [collect codec run] calls [run] with an [on_entry] that keeps the
    records, and returns them in index order (skips are dropped; the
    engine has already logged each one). *)
