(** Deterministic load generator for the allocation daemon.

    Drives a running {!Server} with a population of client threads,
    each on a persistent connection with its own [Prng.derive] stream
    — so the {e request sequence} (objective mix, mutation payloads) is
    a pure function of [seed] and the client index, and two runs
    against equivalently-configured servers issue identical request
    mixes.  Each client issues its next request as soon as the reply
    lands (a closed loop).  Used by the soak and crash-drill tests to
    assert aggregate invariants (zero wedged connections, bounded tail
    latency); the out-of-process throughput measurement is
    [perfbench]'s.

    Client 0 optionally doubles as a {e mutator}, interleaving
    warm-path [platform_delta] mutations (cluster throttles) every
    [mutate_every]-th request — exercising the resident warm-LP edit
    path under concurrent solve load. *)

type stats = {
  ok : int;  (** ["ok"] replies *)
  errors : int;
      (** error replies, IO failures, timeouts; replies shed by
          admission control ([overloaded]) count as neither *)
  latencies : float array;
      (** per-[ok]-reply round-trip seconds, sorted ascending *)
}

val run :
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

val p99 : stats -> float
(** 99th-percentile round-trip latency in seconds, by nearest rank
    ([nan] when no request succeeded). *)
