(* The observability flag set shared by [dls_experiments] and
   [dls_daemond]: one Cmdliner term for the eight flags, and the
   startup helper that turns them into sinks.

   Every message of the process is a [Dls_obs.Log] record.  With
   [--log FILE] the records go to that file; without it they go to
   stderr as the same JSONL, so skipped platforms, torn log tails and
   (for [campaign]) progress still reach the operator.  [--log-level]
   sets the threshold of whichever sink is attached. *)

open Cmdliner
module Log = Dls_obs.Log

let addr_conv =
  let parse s =
    match Dls_obs.Publish.addr_of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt a ->
        Format.pp_print_string fmt (Dls_obs.Publish.addr_to_string a) )

type t = {
  trace : string option;
  metrics : string option;
  log : string option;
  log_level : Log.level option;
  flight : string option;
  telemetry : Dls_obs.Publish.addr option;
  publish : string option;
  publish_interval : float;
}

let term =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record hierarchical spans and write a Chrome trace_event \
                   JSON file to $(docv) at exit (load it in chrome://tracing \
                   or ui.perfetto.dev).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Enable the metrics registry (solver, heuristic, simulator, \
                   campaign and daemon series) and write a JSONL dump to \
                   $(docv) at exit.")
  in
  let log =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Append the structured JSONL log records (one JSON object \
                   per line: ts, level, msg, typed fields) to $(docv), live, \
                   instead of writing them to stderr.")
  in
  let log_level =
    Arg.(value
         & opt
             (some
                (enum
                   [ ("error", Log.Error); ("warn", Log.Warn);
                     ("info", Log.Info); ("debug", Log.Debug) ]))
             None
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Log threshold: error, warn, info or debug.  Defaults to \
                   info for a --log file and to warn on stderr (info for a \
                   campaign without --quiet).")
  in
  let flight =
    Arg.(value & opt (some string) None
         & info [ "flight" ] ~docv:"FILE"
             ~doc:"Keep a bounded in-memory flight recorder of recent log \
                   records, span completions and fault instants, dumped as \
                   JSONL to $(docv) at exit, on an uncaught exception and on \
                   SIGUSR1 — the post-mortem for a crashed or wedged run.  \
                   Daemon crashes caught by the supervisor are recorded here \
                   before the restart.")
  in
  let telemetry =
    Arg.(value & opt (some addr_conv) None
         & info [ "telemetry" ] ~docv:"ADDR"
             ~doc:"Serve live Prometheus text exposition of the metrics \
                   registry on $(docv) (PORT, HOST:PORT or unix:PATH) for the \
                   whole run; scrape with curl or Prometheus.  Implies the \
                   registry is enabled.")
  in
  let publish =
    Arg.(value & opt (some string) None
         & info [ "publish" ] ~docv:"FILE"
             ~doc:"Append periodic metrics-snapshot deltas to $(docv) as \
                   timestamped JSONL, one tick per --publish-interval; \
                   folding the deltas together reconstructs the cumulative \
                   registry state at any tick.  Implies the registry is \
                   enabled.")
  in
  let publish_interval =
    Arg.(value & opt float 1.0
         & info [ "publish-interval" ] ~docv:"SECS"
             ~doc:"Seconds between --publish ticks.")
  in
  let mk trace metrics log log_level flight telemetry publish publish_interval
      =
    { trace; metrics; log; log_level; flight; telemetry; publish;
      publish_interval }
  in
  Term.(const mk $ trace $ metrics $ log $ log_level $ flight $ telemetry
        $ publish $ publish_interval)

let stderr_log ?(level = Log.Warn) () = Log.set_sink ~level stderr

(* The stderr sink lives outside [Obs]: [Obs.finalize] leaves it
   attached, so the daemon supervisor's finalize-then-configure restart
   keeps reporting, and calling [configure] again re-attaches it. *)
let configure ?(stderr_level = Log.Warn) o =
  Dls_obs.Obs.configure ?trace:o.trace ?metrics:o.metrics ?log:o.log
    ?log_level:o.log_level ?flight:o.flight ?telemetry:o.telemetry
    ?publish:o.publish ~publish_interval:o.publish_interval ();
  if o.log = None then
    stderr_log ~level:(Option.value o.log_level ~default:stderr_level) ()
