(** Event-loop allocation server with batched, worker-offloaded solves.

    One [select]-driven loop owns the listen socket and every client
    connection, and remains the only writer of daemon state: it applies
    mutations (so the WAL sees them in exactly the order clients were
    answered), coalesces concurrent [get_schedule] requests against the
    same state seq into one {e batch} whose single solve fans out to
    every waiter, and — when [workers > 0] — hands batches to a
    {!Pool} of solver domains so the loop keeps accepting, shedding
    and reaping while schedules are computed.  Resident warm-LP edits
    and warm solves travel through the pool's pinned FIFO, which keeps
    the warm handle's history a pure function of the mutation log; a
    batch whose seq went stale before dispatch solves cold against its
    own problem snapshot and its reply still carries the seq it was
    asked at.  With [workers = 0] batches solve inline at the end of
    the tick (their cost bounded by the per-request deadline budget),
    which is also the reference path the determinism tests compare
    against.

    Robustness properties, each pinned by the test suite:
    - {b admission control}: a bounded request queue; when full, the
      request is answered immediately with [{"status":"overloaded"}]
      and a [retry_after_ms] hint instead of queuing unbounded latency;
    - {b slow-client reaper}: connections idle past [conn_timeout]
      (never completed a frame, or stopped reading replies) are closed
      — a slowloris client costs one connection slot for one timeout,
      not a wedged server;
    - {b connection cap}: accepted connections beyond [max_conns] are
      answered with [overloaded] and closed;
    - {b malformed input}: an unparseable frame or JSON gets an error
      reply and the connection dropped (frame resynchronisation is
      impossible), never an exception out of the loop;
    - {b crash recovery}: accepted mutations are journaled (flushed)
      before the reply is sent;
    - {b graceful drain}: [drain] stops accepting, finishes the queue,
      flushes every reply, then returns [Ok ()].

    Uncaught exceptions (a solver bug, or the test-only [crash]
    request) propagate out of {!serve} — containing them is the
    {!Supervisor}'s job, by design: the loop must never continue on
    state of unknown integrity. *)

exception Crash_requested
(** Raised by the [crash] request when [allow_crash] is set — the
    supervisor-restart test hook. *)

type config = {
  addr : Dls_obs.Publish.addr;  (** listen address ([Tcp]/[Unix_sock]) *)
  queue_cap : int;  (** bounded request queue (default 64) *)
  max_conns : int;  (** connection cap (default 64) *)
  conn_timeout : float;  (** slow-client reap threshold, seconds (10.) *)
  default_budget_s : float;  (** budget for requests without one (0.5) *)
  max_requests_per_tick : int;  (** queue drained per loop turn (8) *)
  breaker_threshold : int;  (** LP blowouts before the breaker opens (3) *)
  breaker_base_backoff_s : float;  (** first open interval (1.0) *)
  seed : int;  (** breaker jitter stream *)
  allow_crash : bool;  (** honour the [crash] request (tests/CI only) *)
  workers : int;
      (** solver domains behind the loop; 0 (default) solves inline on
          the event loop *)
  resident : bool;
      (** keep warm {!Dls_core.Lp_relax.Incremental} handles resident
          across requests (default true); disable for the cold
          single-threaded baseline the load benchmark compares against *)
  coalesce : bool;
      (** batch same-seq [get_schedule] requests into one solve
          (default true) *)
}

val default_config : Dls_obs.Publish.addr -> config

val serve :
  ?should_stop:(unit -> bool) ->
  ?on_ready:(unit -> unit) ->
  ?restarts:int ->
  config ->
  State.t ->
  Journal.t option ->
  (unit, string) result
(** Run the loop until a [drain] request completes or [should_stop]
    (polled every turn, ~50 ms) returns true.  [on_ready] fires once
    the socket is listening (test synchronisation).  [restarts] is
    reported in [health] replies (the supervisor passes its count).
    [Error] on a setup failure (bad address, bind); runtime exceptions
    propagate (see above).  The listen socket and every connection are
    closed on the way out, however the loop exits; the journal handle
    stays open (the caller owns it).  Sets SIGPIPE to ignored for the
    whole process, so a peer that hangs up before its reply is written
    costs only its connection. *)
