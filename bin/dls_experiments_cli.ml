(* Command-line driver regenerating every table and figure of the paper.

   Subcommands: table1, fig5, fig6, fig7, aggregate, all.  Each prints a
   fixed-width table to stdout and optionally writes CSV next to it. *)

open Cmdliner
module E = Dls_experiments

let out_arg =
  let doc = "Also write the result as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

(* Observability is configured once before the run and flushed once at
   process exit — [at_exit] rather than an unwind handler so the files
   are also written on the [exit 1] error paths, where a partial trace
   is exactly the one worth looking at.  [Obs.finalize] is idempotent,
   so the handler is registered unconditionally. *)
let with_obs ?stderr_level o f =
  Obs_cli.configure ?stderr_level o;
  at_exit Dls_obs.Obs.finalize;
  f ()

let seed_arg default =
  let doc = "PRNG seed; equal seeds reproduce runs exactly." in
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let per_k_arg default =
  let doc = "Random platforms per value of K." in
  Arg.(value & opt int default & info [ "per-k" ] ~docv:"N" ~doc)

let ks_arg default =
  let doc = "Values of K (number of clusters) to sweep." in
  Arg.(value & opt (list int) default & info [ "ks" ] ~docv:"K,K,..." ~doc)

(* The record-log flags every Engine experiment (campaign, resilience,
   dynamic) accepts. *)
type log_flags = {
  out_jsonl : string option;
  resume : bool;
  domains : int option;
  no_timings : bool;
}

let log_flags =
  let out_jsonl =
    let doc =
      "Append every record to $(docv) as JSONL (one JSON entry per line) and \
       maintain a checkpoint manifest at $(docv).manifest."
    in
    Arg.(value & opt (some string) None & info [ "out-jsonl" ] ~docv:"FILE" ~doc)
  in
  let resume =
    let doc =
      "Replay an existing --out-jsonl log, drop any torn trailing line, and \
       evaluate only the remaining indices."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let domains =
    let doc = "Worker domains (default: available cores, capped at 8)." in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"D" ~doc)
  in
  let no_timings =
    let doc =
      "Record every wall-clock field as 0, making the log byte-reproducible \
       (used by the determinism tests)."
    in
    Arg.(value & flag & info [ "no-timings" ] ~doc)
  in
  Term.(
    const (fun out_jsonl resume domains no_timings ->
        { out_jsonl; resume; domains; no_timings })
    $ out_jsonl $ resume $ domains $ no_timings)

let emit ?out table =
  Format.printf "%a" E.Report.pp_table table;
  match out with
  | Some path ->
    E.Report.write_csv ~path table;
    Format.printf "CSV written to %s@." path
  | None -> ()

let table1_cmd =
  let run out =
    Obs_cli.stderr_log ();
    emit ?out (E.Table1.grid_table ());
    emit (E.Table1.stats_table (E.Table1.sample_stats ()))
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the Table 1 parameter grid and platform statistics.")
    Term.(const run $ out_arg)

let fig5_cmd =
  let run seed ks per_k out =
    Obs_cli.stderr_log ();
    emit ?out (E.Fig5.table (E.Fig5.run ~seed ~ks ~per_k ()))
  in
  Cmd.v
    (Cmd.info "fig5"
       ~doc:"LPRG and G vs the LP upper bound, by K (Figure 5).")
    Term.(const run $ seed_arg 1 $ ks_arg [ 5; 15; 25; 35; 45; 55 ] $ per_k_arg 4
          $ out_arg)

let fig6_cmd =
  let run seed ks per_k out =
    Obs_cli.stderr_log ();
    emit ?out (E.Fig6.table (E.Fig6.run ~seed ~ks ~per_k ()))
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"LPRR vs G on small topologies (Figure 6).")
    Term.(const run $ seed_arg 2 $ ks_arg [ 15; 20; 25 ] $ per_k_arg 4 $ out_arg)

let fig7_cmd =
  let lprr_max_k_arg =
    let doc = "Measure LPRR only for K up to $(docv) (it costs K^2 LP solves)." in
    Arg.(value & opt int 20 & info [ "lprr-max-k" ] ~docv:"K" ~doc)
  in
  let run seed ks per_k lprr_max_k out =
    Obs_cli.stderr_log ();
    emit ?out (E.Fig7.table (E.Fig7.run ~seed ~ks ~per_k ~lprr_max_k ()))
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Running times of the heuristics, by K (Figure 7).")
    Term.(const run $ seed_arg 3 $ ks_arg [ 10; 20; 30; 40 ] $ per_k_arg 3
          $ lprr_max_k_arg $ out_arg)

let aggregate_cmd =
  let run seed ks per_k out =
    Obs_cli.stderr_log ();
    emit ?out (E.Aggregate.table (E.Aggregate.run ~seed ~ks ~per_k ()))
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:"Whole-sweep aggregates of Section 6.1 (LPRG/G ratios, LPR poorness).")
    Term.(const run $ seed_arg 4 $ ks_arg [ 5; 15; 25; 35; 45 ] $ per_k_arg 4
          $ out_arg)

let ablation_cmd =
  let run seed out =
    Obs_cli.stderr_log ();
    emit ?out (E.Ablation.rounding_table (E.Ablation.rounding_policy ~seed ()));
    emit (E.Ablation.tight_table (E.Ablation.network_tight ~seed:(seed + 1) ()));
    emit (E.Ablation.workload_table (E.Ablation.workload ~seed:(seed + 2) ()));
    emit (E.Ablation.topology_table (E.Ablation.topology_models ~seed:(seed + 3) ()));
    emit (E.Ablation.baseline_table (E.Ablation.unbounded_baseline ~seed:(seed + 4) ()))
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Ablations: LPRR rounding policy, network-tight regime, workload \
          sensitivity.")
    Term.(const run $ seed_arg 6 $ out_arg)

let sweep_cmd =
  let count_arg =
    let doc = "Platforms per value of K." in
    Arg.(value & opt int 5 & info [ "per-k" ] ~docv:"N" ~doc)
  in
  let with_lprr_arg =
    Arg.(value & flag
         & info [ "with-lprr" ] ~doc:"Also run LPRR on every platform (K^2 LP solves).")
  in
  let run seed ks per_k with_lprr out =
    Obs_cli.stderr_log ();
    let oc = match out with Some path -> Some (open_out path) | None -> None in
    let emit_line line =
      match oc with
      | Some oc ->
        output_string oc line;
        output_char oc '\n';
        flush oc
      | None -> print_endline line
    in
    emit_line E.Sweep.csv_header;
    let completed, skipped =
      E.Sweep.run ~seed ~ks ~per_k ~with_lprr
        ~on_record:(fun r -> emit_line (E.Sweep.to_csv_row r))
        ()
    in
    Option.iter close_out oc;
    Format.eprintf "sweep: %d platforms evaluated, %d skipped@." completed skipped
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Stream a sampled Table 1 campaign as CSV (one row per platform: \
          grid point, LP bounds, heuristic values, timings).")
    Term.(const run $ seed_arg 12 $ ks_arg [ 5; 15; 25; 35; 45; 55 ] $ count_arg
          $ with_lprr_arg $ out_arg)

let campaign_cmd =
  let shards_arg =
    let doc = "Partition indices round-robin into $(docv) shards." in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let shard_arg =
    let doc =
      "Run only shard $(docv) (0-based); omit to run all shards sequentially."
    in
    Arg.(value & opt (some int) None & info [ "shard" ] ~docv:"I" ~doc)
  in
  let checkpoint_every_arg =
    let doc = "Rewrite the checkpoint manifest every $(docv) records." in
    Arg.(value & opt int 256 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let chunk_arg =
    let doc =
      "Records evaluated per parallel burst; memory stays O($(docv))."
    in
    Arg.(value & opt (some int) None & info [ "chunk" ] ~docv:"N" ~doc)
  in
  let with_lprr_arg =
    Arg.(value & flag
         & info [ "with-lprr" ]
             ~doc:"Also run LPRR on every platform (K^2 LP solves).")
  in
  let lprr_max_k_arg =
    let doc = "With --with-lprr, only run LPRR for K up to $(docv)." in
    Arg.(value & opt (some int) None & info [ "lprr-max-k" ] ~docv:"K" ~doc)
  in
  let quiet_arg =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress progress lines (warnings only).")
  in
  let run seed ks per_k with_lprr lprr_max_k log shards shard checkpoint_every
      chunk quiet obs =
    let config =
      { E.Campaign.seed; ks; per_k; with_lprr; lprr_max_k;
        measure_time = not log.no_timings }
    in
    let stderr_level = if quiet then Dls_obs.Log.Warn else Dls_obs.Log.Info in
    with_obs ~stderr_level obs @@ fun () ->
    match
      E.Campaign.run ?domains:log.domains ?chunk ~checkpoint_every ~shards
        ?shard ~resume:log.resume ?out:log.out_jsonl config
    with
    | Error msg ->
      Format.eprintf "campaign failed: %s@." msg;
      exit 1
    | Ok s ->
      emit (E.Campaign.summary_table s);
      if not log.no_timings && s.E.Campaign.s_evaluated > 0 then
        emit (E.Campaign.times_table s)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a paper-scale evaluation campaign: per-index PRNG streams, \
          sharding, an append-only JSONL record log with a checkpoint \
          manifest, and crash-safe --resume.")
    Term.(const run $ seed_arg 12 $ ks_arg [ 5; 15; 25; 35; 45; 55 ]
          $ per_k_arg 5 $ with_lprr_arg $ lprr_max_k_arg $ log_flags
          $ shards_arg $ shard_arg $ checkpoint_every_arg $ chunk_arg
          $ quiet_arg $ Obs_cli.term)

let resilience_cmd =
  let rates_arg =
    let doc = "Fault event rates (per entity per period) to sweep." in
    Arg.(value & opt (list float) [ 0.02; 0.05; 0.1 ]
         & info [ "rates" ] ~docv:"R,R,..." ~doc)
  in
  let k_arg =
    let doc = "Clusters per platform." in
    Arg.(value & opt int 12 & info [ "k" ] ~docv:"K" ~doc)
  in
  let per_rate_arg =
    let doc = "Random platforms per fault rate." in
    Arg.(value & opt int 4 & info [ "per-rate" ] ~docv:"N" ~doc)
  in
  let periods_arg =
    let doc = "Simulated periods per run." in
    Arg.(value & opt int 20 & info [ "periods" ] ~docv:"P" ~doc)
  in
  let kill_arg =
    Arg.(value & flag
         & info [ "kill" ]
             ~doc:"Drop transfers wedged by a fault instead of stalling them.")
  in
  let run seed k rates per_rate periods kill log out obs =
    let config =
      { E.Resilience.seed; k; rates; per_rate; periods;
        policy = (if kill then Dls_flowsim.Faults.Kill else Dls_flowsim.Faults.Stall);
        measure_time = not log.no_timings }
    in
    with_obs obs @@ fun () ->
    match
      E.Engine.collect E.Resilience.codec (fun ~on_entry ->
          E.Resilience.run ?domains:log.domains ~resume:log.resume
            ?out:log.out_jsonl ~on_entry config)
    with
    | Error msg ->
      Format.eprintf "resilience failed: %s@." msg;
      exit 1
    | Ok records -> emit ?out (E.Resilience.table config records)
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Sweep fault rates: simulate each heuristic's schedule under \
          seed-derived platform faults, repair it against the degraded \
          platform, and report throughput retained (inherits the campaign \
          runner's checkpoint/resume).")
    Term.(const run $ seed_arg 21 $ k_arg $ rates_arg $ per_rate_arg
          $ periods_arg $ kill_arg $ log_flags $ out_arg $ Obs_cli.term)

let dynamic_cmd =
  let k_arg =
    let doc = "Clusters per platform." in
    Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc)
  in
  let platforms_arg =
    let doc = "Random platforms to evaluate each policy on." in
    Arg.(value & opt int 3 & info [ "platforms" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc = "Synthetic workload length (ignored with --swf)." in
    Arg.(value & opt int 40 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Synthetic Poisson arrival rate (ignored with --swf)." in
    Arg.(value & opt float 0.4 & info [ "rate" ] ~docv:"R" ~doc)
  in
  let heavy_arg =
    Arg.(value & flag
         & info [ "heavy" ]
             ~doc:"Pareto (heavy-tailed) job sizes instead of uniform.")
  in
  let swf_arg =
    let doc =
      "Replay this SWF (Standard Workload Format) trace instead of \
       synthesizing a workload."
    in
    Arg.(value & opt (some string) None & info [ "swf" ] ~docv:"FILE" ~doc)
  in
  let work_scale_arg =
    let doc = "Multiply every SWF job's work by $(docv) (load knob)." in
    Arg.(value & opt float 1.0 & info [ "work-scale" ] ~docv:"S" ~doc)
  in
  let fault_rate_arg =
    let doc = "Link fault rate (per entity per time unit); 0 disables faults." in
    Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"R" ~doc)
  in
  let policies_arg =
    let doc = "Admission policies to compare (lp-repair, fcfs, easy)." in
    Arg.(value & opt (list string) [ "lp-repair"; "fcfs"; "easy" ]
         & info [ "policies" ] ~docv:"P,P,..." ~doc)
  in
  let events_arg =
    let doc =
      "Also write the byte-stable event log of index 0 (first platform, \
       first policy) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let run seed k platforms jobs rate heavy swf work_scale fault_rate
      policy_names log events out obs =
    let policies =
      List.map
        (fun name ->
          match Dls_dynsim.Dynamic.policy_of_name name with
          | Some p -> p
          | None ->
            Format.eprintf "unknown policy %S (want lp-repair, fcfs or easy)@."
              name;
            exit 1)
        policy_names
    in
    let config =
      { E.Dynexp.seed; k; platforms; jobs; rate; heavy; swf; work_scale;
        fault_rate; policies; measure_time = not log.no_timings }
    in
    with_obs obs @@ fun () ->
    match
      E.Engine.collect E.Dynexp.codec (fun ~on_entry ->
          E.Dynexp.run ?domains:log.domains ~resume:log.resume
            ?out:log.out_jsonl ~on_entry config)
    with
    | Error msg ->
      Format.eprintf "dynamic failed: %s@." msg;
      exit 1
    | Ok records ->
      emit ?out (E.Dynexp.table config records);
      (match events with
      | None -> ()
      | Some path -> (
        match E.Dynexp.replay config ~index:0 with
        | Error msg ->
          Format.eprintf "event-log replay failed: %s@." msg;
          exit 1
        | Ok (_, r) ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc r.Dls_dynsim.Dynamic.event_log);
          Format.printf "event log written to %s@." path))
  in
  Cmd.v
    (Cmd.info "dynamic"
       ~doc:
         "Replay a dynamic workload (synthetic or SWF trace) through the \
          event-driven simulator, re-planning on every arrival, completion \
          and fault via the repair ladder, and compare admission policies \
          (LP-repair vs FCFS vs EASY backfilling) on the same traces \
          (inherits the campaign runner's checkpoint/resume).")
    Term.(const run $ seed_arg 33 $ k_arg $ platforms_arg $ jobs_arg $ rate_arg
          $ heavy_arg $ swf_arg $ work_scale_arg $ fault_rate_arg
          $ policies_arg $ log_flags $ events_arg $ out_arg $ Obs_cli.term)

let adaptivity_cmd =
  let run seed out =
    Obs_cli.stderr_log ();
    match E.Adaptivity.run ~seed () with
    | Ok trace -> emit ?out (E.Adaptivity.table trace)
    | Error msg ->
      Format.eprintf "adaptivity run failed: %s@." msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "adaptivity"
       ~doc:
         "Static plan vs per-period re-optimization under bandwidth variation \
          (the paper's motivation (iii)).")
    Term.(const run $ seed_arg 9 $ out_arg)

let all_cmd =
  let run seed =
    Obs_cli.stderr_log ();
    emit (E.Table1.grid_table ());
    emit (E.Table1.stats_table (E.Table1.sample_stats ~seed ()));
    emit (E.Fig5.table (E.Fig5.run ~seed ()));
    emit (E.Fig6.table (E.Fig6.run ~seed:(seed + 1) ()));
    emit (E.Fig7.table (E.Fig7.run ~seed:(seed + 2) ()));
    emit (E.Aggregate.table (E.Aggregate.run ~seed:(seed + 3) ()));
    emit (E.Ablation.rounding_table (E.Ablation.rounding_policy ~seed:(seed + 4) ()));
    emit (E.Ablation.tight_table (E.Ablation.network_tight ~seed:(seed + 5) ()));
    emit (E.Ablation.workload_table (E.Ablation.workload ~seed:(seed + 6) ()));
    match E.Adaptivity.run ~seed:(seed + 7) () with
    | Ok trace -> emit (E.Adaptivity.table trace)
    | Error msg -> Format.eprintf "adaptivity run failed: %s@." msg
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment with default sizes.")
    Term.(const run $ seed_arg 1)

let () =
  let info =
    Cmd.info "dls_experiments" ~version:"1.0.0"
      ~doc:
        "Reproduce the evaluation of 'A realistic network/application model for \
         scheduling divisible loads on large-scale platforms' (IPDPS 2005)."
  in
  exit (Cmd.eval (Cmd.group info [ table1_cmd; fig5_cmd; fig6_cmd; fig7_cmd;
                                   aggregate_cmd; ablation_cmd; adaptivity_cmd;
                                   sweep_cmd; campaign_cmd; resilience_cmd;
                                   dynamic_cmd; all_cmd ]))
