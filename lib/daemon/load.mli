(** Deterministic load generator for the allocation daemon.

    Drives a running {!Server} with a population of client threads,
    each on a persistent connection with its own [Prng.derive] stream
    — so the {e request sequence} (objective mix, think times,
    mutation payloads) is a pure function of [seed] and the client
    index, and two runs against equivalently-configured servers issue
    identical request mixes.  Used by [bench --daemon-load] to compare
    server configurations at equal offered load, and by the soak tests
    to assert aggregate invariants (zero wedged connections, bounded
    tail latency).

    Client 0 optionally doubles as a {e mutator}, interleaving
    warm-path [platform_delta] mutations (cluster throttles) every
    [mutate_every]-th request — exercising the resident warm-LP edit
    path under concurrent solve load. *)

type mode =
  | Closed  (** issue the next request as soon as the reply lands *)
  | Open_loop of float
      (** sleep an exponential think time (given mean, seconds) after
          each reply — a memoryless open-loop arrival process *)

type stats = {
  sent : int;  (** requests issued *)
  ok : int;  (** ["ok"] replies *)
  overloaded : int;  (** shed by admission control *)
  errors : int;  (** error replies, IO failures, timeouts *)
  mutations : int;  (** mutator requests among [sent] *)
  wall_s : float;  (** wall-clock from first spawn to last join *)
  latencies : float array;
      (** per-[ok]-reply round-trip seconds, sorted ascending *)
}

val run :
  ?mode:mode ->
  ?budget_ms:float ->
  ?timeout:float ->
  ?mutate_every:int ->
  addr:Dls_obs.Publish.addr ->
  seed:int ->
  clients:int ->
  duration_s:float ->
  k:int ->
  unit ->
  stats
(** Run [clients] threads against [addr] for [duration_s] seconds and
    return the merged stats.  [budget_ms] (default 2000) is the
    per-request solve deadline; [timeout] (default 10 s) bounds each
    reply wait; [mutate_every = 0] (default) disables the mutator.
    [k] is the platform's cluster count (bounds the mutator's random
    cluster picks).  A transient IO failure costs one [errors] count
    and a reconnect, not the rest of that client's run; SIGPIPE is set
    to ignored, so a write to a connection the server dropped is such
    a failure rather than the death of the process. *)

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [[0,1]] by nearest-rank on a
    sorted array; [nan] when empty. *)

val rps : stats -> float
(** Sustained throughput: [ok / wall_s]. *)

val shed_rate : stats -> float
(** Fraction of issued requests answered [overloaded]. *)

val p50 : stats -> float

val p99 : stats -> float
(** Median / 99th-percentile round-trip latency in seconds ([nan] when
    no request succeeded). *)

val to_json : ?extra:(string * Dls_util.Json.t) list -> stats -> Dls_util.Json.t
(** One JSON object with the derived figures ([rps], [shed_rate],
    [p50_ms], [p99_ms]) alongside the raw counters; [extra] fields are
    appended (the bench labels series points with mode/workers). *)
