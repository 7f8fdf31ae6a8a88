(* Benchmark harness: regenerates every table and figure of the paper
   (reduced default sizes; the dls_experiments CLI scales them up) and
   micro-benchmarks each experiment's computational kernel with
   Bechamel — one Test.make group per table/figure.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
module E = Dls_experiments
module Prng = Dls_util.Prng
open Dls_core

(* ------------------------------------------------------------------ *)
(* Part 1: reproduction series (the paper's tables and figures)        *)
(* ------------------------------------------------------------------ *)

let reproduction () =
  Format.printf "=== Reproduction series (reduced sizes; see EXPERIMENTS.md) ===@.@.";
  Format.printf "%a@." E.Report.pp_table (E.Table1.grid_table ());
  Format.printf "%a@." E.Report.pp_table
    (E.Table1.stats_table (E.Table1.sample_stats ~per_k:3 ()));
  Format.printf "%a@." E.Report.pp_table
    (E.Fig5.table (E.Fig5.run ~ks:[ 5; 15; 25; 35 ] ~per_k:3 ()));
  Format.printf "%a@." E.Report.pp_table
    (E.Fig6.table (E.Fig6.run ~ks:[ 15; 20 ] ~per_k:2 ()));
  Format.printf "%a@." E.Report.pp_table
    (E.Fig7.table (E.Fig7.run ~ks:[ 10; 20; 30 ] ~per_k:2 ~lprr_max_k:15 ()));
  Format.printf "%a@." E.Report.pp_table
    (E.Aggregate.table (E.Aggregate.run ~per_k:3 ()));
  Format.printf "%a@." E.Report.pp_table
    (E.Ablation.rounding_table (E.Ablation.rounding_policy ~ks:[ 8 ] ~per_k:3 ()));
  Format.printf "%a@." E.Report.pp_table
    (E.Ablation.tight_table (E.Ablation.network_tight ~ks:[ 5; 10; 15 ] ~per_k:4 ()));
  Format.printf "%a@." E.Report.pp_table
    (E.Ablation.workload_table (E.Ablation.workload ~per_setting:2 ()))

(* ------------------------------------------------------------------ *)
(* Part 1b: warm- vs cold-started LPRR (wall clock + solver counters)  *)
(* ------------------------------------------------------------------ *)

(* Same platform, same coin stream (copied rng): both paths run the
   same K^2-solve workload; only the solver strategy differs (carry the
   basis vs rebuild from scratch).  Degenerate MAXMIN optima mean the
   random trajectories can still drift, so this compares workloads, not
   bit-identical solve sequences. *)
let lprr_warm_vs_cold ?(seed = 42) ?(ks = [ 15; 20; 25 ]) ?(per_k = 2) () =
  Format.printf
    "=== LPRR warm- vs cold-started LP re-solves (same coins) ===@.@.";
  Format.printf "%-4s %-10s %-10s %-8s %-8s %-8s %-8s %-8s@." "K" "warm-s"
    "cold-s" "speedup" "pivots" "reinv" "warm#" "solves";
  let rng = Prng.create ~seed in
  List.iter
    (fun k ->
      let tw = ref 0.0 and tc = ref 0.0 and used = ref 0 in
      let pivots = ref 0 and reinv = ref 0 in
      let warm_n = ref 0 and solves = ref 0 in
      for _ = 1 to per_k do
        let p = E.Measure.sample_problem rng ~k in
        let coins = Prng.split rng in
        let warm_run, dtw =
          E.Measure.time (fun () ->
              Lprr.solve ~warm:true ~objective:Lp_relax.Maxmin
                ~rng:(Prng.copy coins) p)
        in
        let cold_run, dtc =
          E.Measure.time (fun () ->
              Lprr.solve ~warm:false ~objective:Lp_relax.Maxmin
                ~rng:(Prng.copy coins) p)
        in
        match (warm_run, cold_run) with
        | Ok w, Ok _ ->
          incr used;
          tw := !tw +. dtw;
          tc := !tc +. dtc;
          (match w.Lprr.counters with
           | Some c ->
             pivots := !pivots + c.Dls_lp.Revised_simplex.pivots;
             reinv := !reinv + c.Dls_lp.Revised_simplex.reinversions;
             warm_n := !warm_n + c.Dls_lp.Revised_simplex.warm_starts;
             solves := !solves + c.Dls_lp.Revised_simplex.solves
           | None -> ())
        | _ -> ()
      done;
      if !used > 0 then begin
        let n = float_of_int !used in
        Format.printf "%-4d %-10.3f %-10.3f %-8.2f %-8.0f %-8.0f %-8.0f %-8.0f@."
          k (!tw /. n) (!tc /. n)
          (!tc /. Float.max 1e-12 !tw)
          (float_of_int !pivots /. n)
          (float_of_int !reinv /. n)
          (float_of_int !warm_n /. n)
          (float_of_int !solves /. n)
      end
      else Format.printf "%-4d (no feasible platforms)@." k)
    ks;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Part 1b': LP core scaling                                          *)
(* ------------------------------------------------------------------ *)

(* One MAXMIN relaxation per K through the eta-file revised simplex.
   Connectivity shrinks as 20/K past K = 50 so the backbone count (and
   with it the LP) grows roughly linearly instead of quadratically. *)
let lp_scale_series ?(seed = 91) ?(ks = [ 25; 100; 200; 400 ]) () =
  Format.printf
    "=== LP core scaling (MAXMIN relaxation, one platform per K) ===@.@.";
  Format.printf "%-5s %-10s %-10s %-10s@." "K" "time-s" "pivots" "ms/pivot";
  List.iter
    (fun k ->
      let rng = Prng.create ~seed:(seed + k) in
      let params =
        { Dls_platform.Generator.default_params with
          Dls_platform.Generator.k;
          connectivity = Float.min 0.4 (20.0 /. float_of_int k) }
      in
      let platform = Dls_platform.Generator.generate rng params in
      let payoffs = Array.make k 1.0 in
      let problem = Problem.make platform ~payoffs in
      let outcome, t =
        E.Measure.time (fun () ->
            Lp_relax.solve ~objective:Lp_relax.Maxmin problem)
      in
      match outcome with
      | Lp_relax.Solution s ->
        let pivots = s.Lp_relax.iterations in
        Format.printf "%-5d %-10.3f %-10d %-10.3f@." k t pivots
          (1000.0 *. t /. float_of_int (max 1 pivots))
      | Lp_relax.Failed msg ->
        Format.printf "%-5d %-10.3f fail (%s)@." k t msg)
    ks;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Part 1c: campaign-runner throughput (chunked streaming map scaling) *)
(* ------------------------------------------------------------------ *)

(* Same campaign, increasing domain counts: per-index PRNG streams make
   the records identical whatever the pool width, so this isolates the
   scheduling overhead and scaling of Parallel.map_chunked. *)
let campaign_throughput ?(ks = [ 10; 15 ]) ?(per_k = 6) () =
  Format.printf "=== Campaign runner throughput (identical records per row) ===@.@.";
  Format.printf "%-8s %-10s %-12s %-8s@." "domains" "wall-s" "records/s" "records";
  let widths =
    List.sort_uniq compare [ 1; 2; Dls_util.Parallel.num_domains () ]
  in
  List.iter
    (fun domains ->
      let config =
        { E.Campaign.default_config with E.Campaign.ks; per_k; seed = 77 }
      in
      match E.Campaign.run ~domains config with
      | Error msg -> Format.printf "%-8d failed: %s@." domains msg
      | Ok s ->
        Format.printf "%-8d %-10.3f %-12.1f %-8d@." domains s.E.Campaign.s_wall
          (float_of_int s.E.Campaign.s_evaluated
           /. Float.max 1e-9 s.E.Campaign.s_wall)
          s.E.Campaign.s_evaluated)
    widths;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Part 1d: resilience series (fault-sim throughput, repair latency)   *)
(* ------------------------------------------------------------------ *)

(* Fault-injected simulation speed (events/sec through the simulator's
   re-equilibration path) and the cost of each Repair ladder rung on the
   end-of-run degraded platform. *)
let resilience_series ?(seed = 55) ?(ks = [ 10; 20; 30 ]) ?(per_k = 3) () =
  Format.printf "=== Resilience series (fault simulation + repair ladder) ===@.@.";
  Format.printf "%-4s %-8s %-10s %-12s %-12s %-12s %-12s@." "K" "events"
    "events/s" "sim-s" "rescale-ms" "refine-ms" "resolve-ms";
  let rng = Prng.create ~seed in
  List.iter
    (fun k ->
      let events = ref 0 and sim_s = ref 0.0 in
      let stage_ms = [| 0.0; 0.0; 0.0 |] and stage_n = [| 0; 0; 0 |] in
      for _ = 1 to per_k do
        let pr = E.Measure.sample_problem rng ~k in
        let p = Problem.platform pr in
        let a = Greedy.solve pr in
        let periods = 20 in
        let plan =
          Dls_flowsim.Faults.random ~seed:(Prng.int rng ~lo:0 ~hi:1_000_000)
            ~horizon:(float_of_int periods) ~link_rate:0.3 ~cluster_rate:0.15 p
        in
        let stats, dt =
          E.Measure.time (fun () ->
              Dls_flowsim.Simulator.run ~periods ~warmup:2 ~faults:plan pr a)
        in
        events := !events + stats.Dls_flowsim.Simulator.fault_events;
        sim_s := !sim_s +. dt;
        let degraded =
          Dls_flowsim.Faults.degraded_at p plan ~time:(float_of_int periods)
        in
        let payoffs =
          Array.init (Problem.num_clusters pr) (fun c -> Problem.payoff pr c)
        in
        let dpr = Problem.make degraded ~payoffs in
        List.iteri
          (fun i stage ->
            let r, dt = E.Measure.time (fun () -> Repair.run_stage stage dpr a) in
            match r with
            | Ok _ ->
              stage_ms.(i) <- stage_ms.(i) +. (dt *. 1e3);
              stage_n.(i) <- stage_n.(i) + 1
            | Error _ -> ())
          [ Repair.Rescale; Repair.Refine; Repair.Resolve ]
      done;
      let mean_ms i =
        if stage_n.(i) = 0 then Float.nan
        else stage_ms.(i) /. float_of_int stage_n.(i)
      in
      Format.printf "%-4d %-8d %-10.1f %-12.4f %-12.4f %-12.4f %-12.4f@." k
        !events
        (float_of_int !events /. Float.max 1e-9 !sim_s)
        (!sim_s /. float_of_int per_k)
        (mean_ms 0) (mean_ms 1) (mean_ms 2))
    ks;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Part 1e: dynamic-workload series (events/sec, re-plan latency p99)  *)
(* ------------------------------------------------------------------ *)

(* The event-driven simulator end to end: how many arrival/completion/
   fault events per second the loop sustains, and the tail latency of
   one re-plan through the repair ladder — the figure that decides
   whether online re-planning keeps up with a live trace. *)
let dynsim_series ?(seed = 61) ?(ks = [ 4; 8 ]) ?(jobs = 30) () =
  Format.printf "=== Dynamic-workload series (event loop + re-plan ladder) ===@.@.";
  Format.printf "%-4s %-8s %-10s %-10s %-14s %-14s@." "K" "events" "wall-s"
    "events/s" "replan-p50-ms" "replan-p99-ms";
  List.iter
    (fun k ->
      let rng = Prng.create ~seed:(seed + k) in
      let params = E.Measure.sample_params rng ~k in
      let platform = Dls_platform.Generator.generate rng params in
      let wl =
        Dls_dynsim.Workload.synthetic ~seed:(seed + k) ~jobs ~rate:0.5
          ~clusters:k ()
      in
      let r, wall =
        E.Measure.time (fun () -> Dls_dynsim.Dynamic.run platform wl)
      in
      let ms = Array.map (fun s -> s *. 1e3) r.Dls_dynsim.Dynamic.replan_seconds in
      Format.printf "%-4d %-8d %-10.4f %-10.1f %-14.4f %-14.4f@." k
        r.Dls_dynsim.Dynamic.events wall
        (float_of_int r.Dls_dynsim.Dynamic.events /. Float.max 1e-9 wall)
        (Dls_util.Stats.percentile ms ~p:50.0)
        (Dls_util.Stats.percentile ms ~p:99.0))
    ks;
  Format.printf "@."

(* Budgeted daemon solves: which repair-ladder rung each budget can
   afford, and what it costs — the latency/quality trade the daemon's
   deadline machinery navigates per request. *)
let daemon_series ?(seed = 71) ?(ks = [ 6; 10 ]) () =
  let module DS = Dls_daemon.Solver in
  let module DP = Dls_daemon.Protocol in
  Format.printf "=== Daemon solve-ladder series (deadline-budgeted rungs) ===@.@.";
  Format.printf "%-4s %-10s %-14s %-12s %-10s %-9s@." "K" "budget-ms" "rung"
    "objective" "solve-ms" "degraded";
  List.iter
    (fun k ->
      let pf =
        Dls_platform.Generator.generate
          (Prng.create ~seed:(seed + k))
          { Dls_platform.Generator.default_params with k }
      in
      let st = Dls_daemon.State.create pf in
      let apply m =
        match Dls_daemon.State.apply st m with
        | Ok () -> ()
        | Error e -> failwith e
      in
      for c = 0 to k - 1 do
        if c mod 3 = 0 then
          apply
            (DP.Register_app
               { app = Printf.sprintf "bench%d" c; cluster = c; payoff = 1.0 })
      done;
      apply
        (DP.Platform_delta
           [ Dls_flowsim.Faults.Link_degrade { link = 0; factor = 0.5 } ]);
      let problem = Dls_daemon.State.problem st in
      let base = Dls_core.Allocation.zero k in
      List.iter
        (fun budget_ms ->
          let breaker = DS.breaker () in
          let t0 = Unix.gettimeofday () in
          match
            DS.solve ~breaker ~objective:Lp_relax.Maxmin
              ~budget_s:(budget_ms /. 1000.0) ~base problem
          with
          | Ok o ->
            Format.printf "%-4d %-10.1f %-14s %-12.4f %-10.3f %-9b@." k
              budget_ms
              (DS.rung_name o.DS.rung)
              o.DS.objective_value
              ((Unix.gettimeofday () -. t0) *. 1e3)
              o.DS.degraded
          | Error e ->
            Format.printf "%-4d %-10.1f solve failed: %s@." k budget_ms e)
        [ 0.0; 5.0; 1000.0 ])
    ks;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks, one group per table/figure       *)
(* ------------------------------------------------------------------ *)

(* Fixed inputs are allocated outside the staged closures so only the
   kernel under study is measured. *)

let problem_of ~seed ~k =
  let rng = Prng.create ~seed in
  E.Measure.sample_problem rng ~k

let table1_tests =
  (* Kernel of Table 1: instantiating a random platform from the grid. *)
  let rng = Prng.create ~seed:100 in
  Test.make_grouped ~name:"table1"
    [ Test.make ~name:"generate-k15"
        (Staged.stage (fun () ->
             ignore (E.Measure.sample_problem rng ~k:15)));
      Test.make ~name:"generate-k45"
        (Staged.stage (fun () ->
             ignore (E.Measure.sample_problem rng ~k:45))) ]

let fig5_tests =
  (* Kernels of Figure 5: the LP relaxation bound, G, and LPRG. *)
  let p10 = problem_of ~seed:101 ~k:10 in
  let p20 = problem_of ~seed:102 ~k:20 in
  Test.make_grouped ~name:"fig5"
    [ Test.make ~name:"lp-bound-k10"
        (Staged.stage (fun () ->
             ignore (Heuristics.lp_bound ~objective:Lp_relax.Maxmin p10)));
      Test.make ~name:"lp-bound-k20"
        (Staged.stage (fun () ->
             ignore (Heuristics.lp_bound ~objective:Lp_relax.Maxmin p20)));
      Test.make ~name:"greedy-k20"
        (Staged.stage (fun () -> ignore (Greedy.solve p20)));
      Test.make ~name:"lprg-k10"
        (Staged.stage (fun () ->
             ignore (Lprg.solve ~objective:Lp_relax.Maxmin p10))) ]

let fig6_tests =
  (* Kernel of Figure 6: LPRR's iterated rounding (one LP per route). *)
  let p8 = problem_of ~seed:103 ~k:8 in
  let rng = Prng.create ~seed:104 in
  Test.make_grouped ~name:"fig6"
    [ Test.make ~name:"lprr/warm-k8"
        (Staged.stage (fun () ->
             ignore (Lprr.solve ~warm:true ~objective:Lp_relax.Maxmin ~rng p8)));
      Test.make ~name:"lprr/cold-k8"
        (Staged.stage (fun () ->
             ignore (Lprr.solve ~warm:false ~objective:Lp_relax.Maxmin ~rng p8)));
      Test.make ~name:"lprr-equal-prob-k8"
        (Staged.stage (fun () ->
             ignore (Lprr.solve_equal_probability ~objective:Lp_relax.Maxmin ~rng p8))) ]

let fig7_tests =
  (* Figure 7 compares heuristic running times; these kernels are the
     timed units. *)
  let p30 = problem_of ~seed:105 ~k:30 in
  Test.make_grouped ~name:"fig7"
    [ Test.make ~name:"greedy-k30"
        (Staged.stage (fun () -> ignore (Greedy.solve p30)));
      Test.make ~name:"lpr-k30"
        (Staged.stage (fun () -> ignore (Lpr.solve ~objective:Lp_relax.Maxmin p30))) ]

let engine_tests =
  (* The relaxation at two sizes through the one LP core (the eta-file
     revised simplex behind Lp_relax.solve). *)
  let p15 = problem_of ~seed:107 ~k:15 and p25 = problem_of ~seed:107 ~k:25 in
  Test.make_grouped ~name:"lp-engine"
    [ Test.make ~name:"relax-k15"
        (Staged.stage (fun () ->
             ignore (Lp_relax.solve ~objective:Lp_relax.Maxmin p15)));
      Test.make ~name:"relax-k25"
        (Staged.stage (fun () ->
             ignore (Lp_relax.solve ~objective:Lp_relax.Maxmin p25))) ]

let extension_tests =
  (* Kernels of the beyond-the-paper extensions. *)
  let platform = Dls_core.Problem.platform (problem_of ~seed:108 ~k:8) in
  let apps =
    [ { Pipeline.source = 0; payoff = 1.0;
        stages =
          [ { Pipeline.work = 1.0; expansion = 2.0 };
            { Pipeline.work = 4.0; expansion = 0.0 } ] } ]
  in
  let gadget = Reduction.build (Dls_graph.Graph.cycle 5) in
  Test.make_grouped ~name:"extensions"
    [ Test.make ~name:"pipeline-2stage-k8"
        (Staged.stage (fun () -> ignore (Pipeline.solve platform apps)));
      Test.make ~name:"mip-gadget-c5"
        (Staged.stage (fun () -> ignore (Mip.solve gadget))) ]

let substrate_tests =
  (* Cross-cutting kernels: schedule reconstruction (Section 3.2) and
     the flow-level simulator used for validation. *)
  let p = problem_of ~seed:106 ~k:10 in
  let alloc = Greedy.solve p in
  let exact = Schedule.exact_of_float alloc in
  Test.make_grouped ~name:"substrate"
    [ Test.make ~name:"schedule-build-k10"
        (Staged.stage (fun () -> ignore (Schedule.build exact)));
      Test.make ~name:"flowsim-20periods-k10"
        (Staged.stage (fun () ->
             ignore (Dls_flowsim.Simulator.run ~periods:20 p alloc)));
      Test.make ~name:"feasibility-check-k10"
        (Staged.stage (fun () -> ignore (Allocation.check p alloc))) ]

let resilience_tests =
  (* Kernels of the resilience experiment: the simulator's fault path
     (re-equilibration at every event) and the two cheap repair rungs. *)
  let pr = problem_of ~seed:109 ~k:10 in
  let p = Problem.platform pr in
  let a = Greedy.solve pr in
  let plan =
    Dls_flowsim.Faults.random ~seed:110 ~horizon:20.0 ~link_rate:0.3
      ~cluster_rate:0.15 p
  in
  let payoffs =
    Array.init (Problem.num_clusters pr) (fun c -> Problem.payoff pr c)
  in
  let dpr =
    Problem.make (Dls_flowsim.Faults.degraded_at p plan ~time:20.0) ~payoffs
  in
  Test.make_grouped ~name:"resilience"
    [ Test.make ~name:"flowsim-faulted-20periods-k10"
        (Staged.stage (fun () ->
             ignore (Dls_flowsim.Simulator.run ~periods:20 ~faults:plan pr a)));
      Test.make ~name:"repair-rescale-k10"
        (Staged.stage (fun () -> ignore (Repair.rescale dpr a)));
      Test.make ~name:"repair-refine-k10"
        (Staged.stage (fun () ->
             ignore (Repair.run_stage Repair.Refine dpr a))) ]

let dynsim_tests =
  (* Kernels of the event-driven simulator: heap churn at queue depth
     1k and one full small replay (arrivals, re-plans, completions). *)
  let module Heap = Dls_dynsim.Event_heap in
  let p = problem_of ~seed:113 ~k:6 in
  let platform = Problem.platform p in
  let wl =
    Dls_dynsim.Workload.synthetic ~seed:114 ~jobs:10 ~rate:0.5 ~clusters:6 ()
  in
  Test.make_grouped ~name:"dynsim"
    [ Test.make ~name:"event-heap-push-pop-1k"
        (Staged.stage (fun () ->
             let h = Heap.create () in
             for i = 0 to 999 do
               Heap.push h ~time:(float_of_int ((i * 7919) mod 1000)) i
             done;
             while not (Heap.is_empty h) do
               ignore (Heap.pop h)
             done));
      Test.make ~name:"dynamic-replay-10jobs-k6"
        (Staged.stage (fun () -> ignore (Dls_dynsim.Dynamic.run platform wl))) ]

let run_benchmarks () =
  Format.printf "@.=== Bechamel micro-benchmarks ===@.@.";
  let cfg = Benchmark.cfg ~limit:120 ~quota:(Time.second 1.5) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let groups =
    [ table1_tests; fig5_tests; fig6_tests; fig7_tests; substrate_tests;
      engine_tests; extension_tests; resilience_tests; dynsim_tests ]
  in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] group in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
      List.iter
        (fun name ->
          let result = Hashtbl.find results name in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some (t :: _) -> t
            | Some [] | None -> Float.nan
          in
          let r2 =
            match Analyze.OLS.r_square result with Some r -> r | None -> Float.nan
          in
          Format.printf "%-32s %12.1f ns/run   (r² = %.3f)@." name estimate r2)
        (List.sort compare names))
    groups

(* --quick: the smoke-alias entry point — a tiny fig6 run plus a small
   warm-vs-cold series, skipping the bechamel sweeps. *)
let quick () =
  Format.printf "=== Quick smoke run ===@.@.";
  Format.printf "%a@." E.Report.pp_table
    (E.Fig6.table (E.Fig6.run ~ks:[ 6 ] ~per_k:1 ()));
  lprr_warm_vs_cold ~ks:[ 8 ] ~per_k:1 ();
  lp_scale_series ~ks:[ 25 ] ();
  daemon_series ~ks:[ 6 ] ();
  Format.printf "done.@."

(* --trace/--metrics/--log/--log-level/--flight/--telemetry/--publish:
   same observability sinks as the CLI — Chrome trace, JSONL metrics
   dump, structured log, flight recorder and the live Prometheus /
   snapshot-delta exporters.  Left off, every subsystem stays in its
   free disabled state, so the timing series are unperturbed. *)
let flag_value name =
  let r = ref None in
  Array.iteri
    (fun i a -> if String.equal a name && i + 1 < Array.length Sys.argv then
        r := Some Sys.argv.(i + 1))
    Sys.argv;
  !r

(* Every accepted argument, checked before anything runs: a mistyped
   flag must not fall through to the full multi-minute suite. *)
let mode_flags =
  [ "--quick"; "--warm"; "--lp-scale"; "--campaign"; "--resilience";
    "--dynsim"; "--daemon" ]

let value_flags =
  [ "--trace"; "--metrics"; "--log"; "--log-level"; "--flight";
    "--telemetry"; "--publish" ]

let check_args () =
  let usage msg =
    Format.eprintf "bench: %s@.usage: main.exe [%s] [%s VALUE]...@." msg
      (String.concat " | " mode_flags)
      (String.concat " | " value_flags);
    exit 2
  in
  let rec go = function
    | [] -> ()
    | a :: rest when List.mem a mode_flags -> go rest
    | a :: _ :: rest when List.mem a value_flags -> go rest
    | a :: [] when List.mem a value_flags -> usage (a ^ " needs a value")
    | a :: _ -> usage ("unknown argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv))

let () =
  check_args ();
  (match
     ( flag_value "--trace", flag_value "--metrics", flag_value "--log",
       flag_value "--flight", flag_value "--telemetry", flag_value "--publish" )
   with
  | None, None, None, None, None, None -> ()
  | trace, metrics, log, flight, telemetry, publish ->
    let log_level =
      Option.bind (flag_value "--log-level") Dls_obs.Log.level_of_name
    in
    let telemetry =
      Option.map
        (fun s ->
          match Dls_obs.Publish.addr_of_string s with
          | Ok a -> a
          | Error msg ->
            Format.eprintf "%s@." msg;
            exit 2)
        telemetry
    in
    Dls_obs.Obs.configure ?trace ?metrics ?log ?log_level ?flight ?telemetry
      ?publish ();
    at_exit Dls_obs.Obs.finalize);
  if Array.exists (String.equal "--quick") Sys.argv then quick ()
  else if Array.exists (String.equal "--warm") Sys.argv then
    (* Just the warm-vs-cold LPRR acceptance series. *)
    lprr_warm_vs_cold ()
  else if Array.exists (String.equal "--lp-scale") Sys.argv then
    (* Just the LP core scaling series. *)
    lp_scale_series ()
  else if Array.exists (String.equal "--campaign") Sys.argv then
    (* Just the campaign-runner scaling series. *)
    campaign_throughput ()
  else if Array.exists (String.equal "--resilience") Sys.argv then
    (* Just the fault-simulation + repair-ladder series. *)
    resilience_series ()
  else if Array.exists (String.equal "--dynsim") Sys.argv then
    (* Just the event-loop throughput + re-plan latency series. *)
    dynsim_series ()
  else if Array.exists (String.equal "--daemon") Sys.argv then
    (* Just the deadline-budgeted daemon solve ladder series. *)
    daemon_series ()
  else begin
    reproduction ();
    lprr_warm_vs_cold ();
    lp_scale_series ();
    campaign_throughput ();
    resilience_series ();
    dynsim_series ();
    daemon_series ();
    run_benchmarks ();
    Format.printf "@.done.@."
  end
