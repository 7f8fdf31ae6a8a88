(* Tests for the robustness layer: Faults plans (determinism, empty-plan
   identity), the simulator under fault injection (stall/kill policies,
   all-stalled short-circuit), the Repair ladder (per-stage feasibility
   on the residual platform) and the resilience experiment's codec and
   engine integration. *)

module G = Dls_graph.Graph
module P = Dls_platform.Platform
module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng
module Parallel = Dls_util.Parallel
module Faults = Dls_flowsim.Faults
module Sim = Dls_flowsim.Simulator
module E = Dls_experiments
open Dls_core

let line3_platform () =
  let topology = G.path_graph 3 in
  let clusters =
    Array.init 3 (fun k -> { P.speed = 10.0; local_bw = 10.0; router = k })
  in
  let backbones = Array.make 2 { P.bw = 5.0; max_connect = 4 } in
  P.make ~clusters ~topology ~backbones

let random_problem seed =
  let rng = Prng.create ~seed in
  let k = Prng.int rng ~lo:3 ~hi:7 in
  Problem.uniform
    (Gen.generate rng
       { Gen.default_params with k; connectivity = 0.5; heterogeneity = 0.4 })

(* ------------------------------------------------------------------ *)
(* Faults: plans and cursor                                            *)
(* ------------------------------------------------------------------ *)

let test_faults_validation () =
  let p = line3_platform () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Faults.make: event time -1 not in [0, inf)") (fun () ->
      ignore (Faults.make p [ { Faults.time = -1.0; kind = Faults.Link_down 0 } ]));
  Alcotest.check_raises "bad link"
    (Invalid_argument "Faults.make: backbone link 7 out of range") (fun () ->
      ignore (Faults.make p [ { Faults.time = 0.5; kind = Faults.Link_down 7 } ]));
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Faults.make: degradation factor 1.5 outside (0, 1]")
    (fun () ->
      ignore
        (Faults.make p
           [ { Faults.time = 0.5;
               kind = Faults.Link_degrade { link = 0; factor = 1.5 } } ]))

let test_faults_zero_rates_empty () =
  let p = line3_platform () in
  let plan = Faults.random ~seed:3 ~horizon:10.0 p in
  Alcotest.(check bool) "empty" true (Faults.is_empty plan);
  Alcotest.(check string) "empty trace" "" (Faults.trace plan)

let test_faults_trace_deterministic_across_domains () =
  (* The campaign contract, applied to fault streams: entity draws come
     from Prng.derive, so a trace depends only on (seed, platform,
     horizon, rates) — never on which domain generated it first. *)
  let p = line3_platform () in
  let trace i =
    Faults.trace
      (Faults.random ~seed:(1000 + i) ~horizon:8.0 ~link_rate:0.4
         ~cluster_rate:0.3 p)
  in
  let seq = Array.init 16 trace in
  let par = Parallel.map ~domains:8 trace (Array.init 16 Fun.id) in
  Array.iteri
    (fun i t ->
      Alcotest.(check string) (Printf.sprintf "trace %d" i) seq.(i) t)
    par;
  (* And twice under the same seed: byte-identical. *)
  Alcotest.(check string) "same seed, same bytes" (trace 3) (trace 3)

let test_faults_cursor_and_degraded_platform () =
  let p = line3_platform () in
  let plan =
    Faults.make p
      [ { Faults.time = 1.0; kind = Faults.Link_down 0 };
        { Faults.time = 2.0;
          kind = Faults.Link_degrade { link = 1; factor = 0.5 } };
        { Faults.time = 3.0; kind = Faults.Cluster_crash 2 };
        { Faults.time = 4.0; kind = Faults.Link_up 0 } ]
  in
  let st = Faults.start p plan in
  Alcotest.(check bool) "healthy at 0" false (Faults.any_fault_active st);
  ignore (Faults.advance st ~now:3.5);
  Alcotest.(check (float 1e-9)) "link 0 down" 0.0 (Faults.link_factor st 0);
  Alcotest.(check int) "no connection" 0 (Faults.link_max_connect st 0);
  Alcotest.(check (float 1e-9)) "link 1 degraded" 0.5 (Faults.link_factor st 1);
  Alcotest.(check bool) "cluster 2 crashed" true (Faults.crashed st 2);
  let d = Faults.degraded_platform st in
  Alcotest.(check int) "down = max_connect 0" 0 (P.backbone d 0).P.max_connect;
  Alcotest.(check (float 1e-9)) "down keeps nominal bw" 5.0 (P.backbone d 0).P.bw;
  Alcotest.(check (float 1e-9)) "degraded bw" 2.5 (P.backbone d 1).P.bw;
  Alcotest.(check (float 1e-9)) "crash kills speed" 0.0 (P.cluster d 2).P.speed;
  Alcotest.(check (float 1e-9)) "crash kills local link" 0.0
    (P.cluster d 2).P.local_bw;
  (* Routing table survives degradation. *)
  Alcotest.(check bool) "routes preserved" true (P.route d 0 2 <> None);
  ignore (Faults.advance st ~now:4.5);
  Alcotest.(check (float 1e-9)) "link 0 recovered" 1.0 (Faults.link_factor st 0);
  Alcotest.(check bool) "crash is terminal" true (Faults.crashed st 2);
  let dt = Faults.downtime p plan ~horizon:10.0 in
  (* Something is broken continuously from t=1 (link down, then crash). *)
  Alcotest.(check (float 1e-9)) "downtime" 9.0 dt

(* ------------------------------------------------------------------ *)
(* Simulator under faults                                              *)
(* ------------------------------------------------------------------ *)

let stats_equal name (a : Sim.stats) (b : Sim.stats) =
  let check_farr what x y =
    Array.iteri
      (fun i v ->
        Alcotest.(check (float 0.0)) (Printf.sprintf "%s %s.(%d)" name what i) v
          y.(i))
      x
  in
  check_farr "predicted" a.Sim.predicted b.Sim.predicted;
  check_farr "achieved" a.Sim.achieved b.Sim.achieved;
  Alcotest.(check int) (name ^ " late") a.Sim.late_transfers b.Sim.late_transfers;
  Alcotest.(check int) (name ^ " stalled") a.Sim.stalled_transfers
    b.Sim.stalled_transfers;
  Alcotest.(check int) (name ^ " killed") a.Sim.killed_transfers
    b.Sim.killed_transfers;
  Alcotest.(check int) (name ^ " events") a.Sim.fault_events b.Sim.fault_events;
  Alcotest.(check (float 0.0)) (name ^ " downtime") a.Sim.downtime b.Sim.downtime;
  Alcotest.(check bool) (name ^ " guard") a.Sim.guard_exhausted
    b.Sim.guard_exhausted;
  (* The guard is a truncation alarm; none of the suite's runs should
     ever trip it. *)
  Alcotest.(check bool) (name ^ " guard healthy") false a.Sim.guard_exhausted

let test_empty_plan_stat_identity () =
  (* ?faults:Faults.empty must be bit-identical to no faults at all —
     including on infeasible inputs that stall and on late transfers. *)
  for seed = 0 to 7 do
    let pr = random_problem (400 + seed) in
    let a = Greedy.solve pr in
    let plain = Sim.run ~periods:12 ~warmup:2 pr a in
    let empty = Sim.run ~periods:12 ~warmup:2 ~faults:Faults.empty pr a in
    stats_equal (Printf.sprintf "seed %d" seed) plain empty
  done

let remote_allocation () =
  (* Cluster 0 ships work to clusters 1 and 2 across the line. *)
  let p = line3_platform () in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0; 0.0 |] in
  let a = Allocation.zero 3 in
  a.Allocation.alpha.(0).(0) <- 2.0;
  a.Allocation.alpha.(0).(1) <- 4.0;
  a.Allocation.beta.(0).(1) <- 1;
  a.Allocation.alpha.(0).(2) <- 4.0;
  a.Allocation.beta.(0).(2) <- 1;
  Alcotest.(check bool) "precondition feasible" true (Allocation.is_feasible pr a);
  (pr, a)

let test_midrun_backbone_failure_stall () =
  let pr, a = remote_allocation () in
  let p = Problem.platform pr in
  let baseline = Sim.run ~periods:20 ~warmup:2 pr a in
  (* Link 0 carries both remote routes; fail it for good mid-run. *)
  let plan = Faults.make p [ { Faults.time = 5.5; kind = Faults.Link_down 0 } ] in
  let faulted = Sim.run ~periods:20 ~warmup:2 ~faults:plan pr a in
  Alcotest.(check int) "one event fired" 1 faulted.Sim.fault_events;
  Alcotest.(check bool) "transfers wedged" true
    (faulted.Sim.stalled_transfers > 0);
  Alcotest.(check int) "stall policy kills nothing" 0
    faulted.Sim.killed_transfers;
  Alcotest.(check bool) "throughput lost" true
    (faulted.Sim.achieved.(0) < baseline.Sim.achieved.(0));
  Alcotest.(check (float 1e-9)) "downtime = horizon - failure time" 14.5
    faulted.Sim.downtime

let test_midrun_backbone_failure_kill () =
  let pr, a = remote_allocation () in
  let p = Problem.platform pr in
  let plan = Faults.make p [ { Faults.time = 5.5; kind = Faults.Link_down 0 } ] in
  let faulted =
    Sim.run ~periods:20 ~warmup:2 ~faults:plan ~fault_policy:Faults.Kill pr a
  in
  Alcotest.(check bool) "in-flight transfers dropped" true
    (faulted.Sim.killed_transfers > 0)

let test_failure_with_recovery_restores_throughput () =
  let pr, a = remote_allocation () in
  let p = Problem.platform pr in
  let outage =
    Faults.make p
      [ { Faults.time = 4.25; kind = Faults.Link_down 0 };
        { Faults.time = 6.25; kind = Faults.Link_up 0 } ]
  in
  let healed = Sim.run ~periods:40 ~warmup:2 ~faults:outage pr a in
  let baseline = Sim.run ~periods:40 ~warmup:2 pr a in
  Alcotest.(check (float 1e-9)) "downtime is the outage" 2.0 healed.Sim.downtime;
  (* A 2-unit outage in a 38-unit window costs at most ~3 periods of
     cluster-1/2 work; most of the throughput must survive. *)
  Alcotest.(check bool) "stalled transfers resumed" true
    (healed.Sim.achieved.(0) >= 0.75 *. baseline.Sim.achieved.(0));
  Alcotest.(check bool) "recovery beats permanent failure" true
    (healed.Sim.achieved.(0)
     > (Sim.run ~periods:40 ~warmup:2
          ~faults:
            (Faults.make p [ { Faults.time = 4.25; kind = Faults.Link_down 0 } ])
          pr a)
        .Sim.achieved
        .(0))

let test_all_stalled_short_circuit_counts () =
  (* Zero connections for remote work: every period's transfer is dead
     on arrival, and the short-circuit must report exactly the count the
     period loop would have. *)
  let p = line3_platform () in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0; 0.0 |] in
  let a = Allocation.zero 3 in
  a.Allocation.alpha.(0).(1) <- 1.0;
  a.Allocation.alpha.(0).(2) <- 1.0;
  let stats = Sim.run ~periods:9 ~warmup:1 pr a in
  Alcotest.(check int) "stalled = periods * pattern" (9 * 2)
    stats.Sim.stalled_transfers;
  Alcotest.(check (float 1e-9)) "nothing achieved" 0.0 stats.Sim.achieved.(0)

let test_throttle_slows_compute () =
  let p = line3_platform () in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0; 0.0 |] in
  let a = Allocation.zero 3 in
  a.Allocation.alpha.(0).(0) <- 8.0;
  let plan =
    Faults.make p
      [ { Faults.time = 2.0;
          kind = Faults.Cluster_throttle { cluster = 0; factor = 0.25 } } ]
  in
  let slow = Sim.run ~periods:16 ~warmup:2 ~faults:plan pr a in
  let fast = Sim.run ~periods:16 ~warmup:2 pr a in
  Alcotest.(check bool) "throttle hurts" true
    (slow.Sim.achieved.(0) < fast.Sim.achieved.(0));
  (* Speed 10 -> 2.5 against a demand of 8/period: roughly a quarter. *)
  Alcotest.(check bool) "roughly quartered" true
    (slow.Sim.achieved.(0) < 0.5 *. fast.Sim.achieved.(0))

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)
(* ------------------------------------------------------------------ *)

let degraded_pair seed ~link_rate ~cluster_rate =
  (* A random healthy problem, its greedy allocation, and the problem on
     the end-of-horizon degraded platform. *)
  let pr = random_problem seed in
  let p = Problem.platform pr in
  let a = Greedy.solve pr in
  let plan = Faults.random ~seed ~horizon:10.0 ~link_rate ~cluster_rate p in
  let d = Faults.degraded_at p plan ~time:10.0 in
  let payoffs =
    Array.init (Problem.num_clusters pr) (fun k -> Problem.payoff pr k)
  in
  (Problem.make d ~payoffs, a, plan)

let test_repair_stages_feasible_after_backbone_failure () =
  let pr, a = remote_allocation () in
  let p = Problem.platform pr in
  let plan = Faults.make p [ { Faults.time = 5.5; kind = Faults.Link_down 0 } ] in
  let d = Faults.degraded_at p plan ~time:10.0 in
  let dpr = Problem.make d ~payoffs:[| 1.0; 0.0; 0.0 |] in
  Alcotest.(check bool) "old allocation now infeasible" false
    (Allocation.is_feasible dpr a);
  List.iter
    (fun stage ->
      match Repair.run_stage stage dpr a with
      | Error msg ->
        Alcotest.failf "%s failed: %s" (Repair.stage_name stage) msg
      | Ok repaired ->
        Alcotest.(check bool)
          (Repair.stage_name stage ^ " output feasible")
          true
          (Allocation.is_feasible dpr repaired))
    [ Repair.Rescale; Repair.Refine; Repair.Resolve ];
  match Repair.repair dpr a with
  | Error msg -> Alcotest.failf "repair failed: %s" msg
  | Ok o ->
    Alcotest.(check bool) "ladder output feasible" true
      (Allocation.is_feasible dpr o.Repair.allocation);
    (* Local work on cluster 0 survives the cut link. *)
    Alcotest.(check bool) "positive objective" true
      (Allocation.objective `Maxmin dpr o.Repair.allocation > 0.0);
    Alcotest.(check bool) "attempts recorded" true
      (List.length o.Repair.attempts >= 1)

let prop_rescale_feasible_on_degraded =
  QCheck2.Test.make
    ~name:"Repair.rescale output is feasible on the degraded problem" ~count:40
    (QCheck2.Gen.int_range 0 10_000)
    (fun seed ->
      let dpr, a, _ = degraded_pair seed ~link_rate:0.3 ~cluster_rate:0.2 in
      Allocation.is_feasible dpr (Repair.rescale dpr a))

let prop_repair_ladder_feasible =
  QCheck2.Test.make
    ~name:"Repair.repair returns a feasible allocation and ordered attempts"
    ~count:15
    (QCheck2.Gen.int_range 0 10_000)
    (fun seed ->
      let dpr, a, _ = degraded_pair (seed + 31) ~link_rate:0.4 ~cluster_rate:0.3 in
      match Repair.repair dpr a with
      | Error _ -> false
      | Ok o ->
        Allocation.is_feasible dpr o.Repair.allocation
        && List.for_all (fun at -> at.Repair.seconds >= 0.0) o.Repair.attempts
        &&
        (* Attempts come in ladder order: rescale, then refine, ... *)
        let order = function
          | Repair.Rescale -> 0 | Repair.Refine -> 1 | Repair.Resolve -> 2
        in
        let ranks =
          List.map (fun (at : Repair.attempt) -> order at.Repair.stage)
            o.Repair.attempts
        in
        List.sort compare ranks = ranks)

(* ------------------------------------------------------------------ *)
(* Resilience experiment                                               *)
(* ------------------------------------------------------------------ *)

let tiny_config =
  { E.Resilience.default_config with
    E.Resilience.seed = 5; k = 6; rates = [ 0.05; 0.2 ]; per_rate = 2;
    periods = 8; measure_time = false }

(* The simulator measures throughput over periods [warmup, periods),
   with Simulator.run's default warm-up of 2 in the resilience runs.
   Link faults during the warm-up delay transfers and that backlog
   drains inside the window, so the faulted window rate can exceed the
   allocation's promise.  What faults cannot do is deliver more in total
   than the promise over the whole run. *)
let sim_warmup = 2

let conserved (config : E.Resilience.config) (h : E.Resilience.hres) =
  let periods = float_of_int config.E.Resilience.periods in
  let promised = h.E.Resilience.predicted *. periods in
  h.E.Resilience.faulted *. (periods -. float_of_int sim_warmup)
  <= promised +. (1e-6 *. Float.max 1.0 promised)

(* Seed 28, index 2, LPR: the warm-up backlog lifts the faulted window
   rate over the promise at warm-up 2 but not at warm-up 0, and the
   conservation bound holds. *)
let test_resilience_warmup_backlog () =
  let config = { tiny_config with E.Resilience.seed = 28 } in
  let index = 2 in
  let h =
    match E.Resilience.evaluate_index config index with
    | E.Resilience.Skipped { reason; _ } -> Alcotest.failf "skipped: %s" reason
    | E.Resilience.Record r -> (
      match List.assoc Heuristics.LPR r.E.Resilience.results with
      | Some h -> h
      | None -> Alcotest.fail "LPR produced no result")
  in
  (* The index's problem and fault plan, drawn as evaluate_index draws
     them; LPR is deterministic, so its allocation is the record's. *)
  let rng = Prng.derive ~seed:config.E.Resilience.seed ~index in
  let params = E.Measure.sample_params rng ~k:config.E.Resilience.k in
  let platform = Gen.generate rng params in
  let problem = E.Measure.assign_workload rng platform in
  let periods = config.E.Resilience.periods in
  let rate = E.Resilience.rate_of_index config index in
  let plan =
    Faults.random
      ~seed:(config.E.Resilience.seed + ((index + 1) * 1_000_003))
      ~horizon:(float_of_int periods) ~link_rate:rate
      ~cluster_rate:(rate *. 0.5) platform
  in
  let alloc =
    match Heuristics.run Heuristics.LPR problem with
    | Ok a -> a
    | Error msg -> Alcotest.failf "LPR: %s" msg
  in
  let faulted warmup =
    let s =
      Sim.run ~periods ~warmup ~faults:plan
        ~fault_policy:config.E.Resilience.policy problem alloc
    in
    Array.fold_left ( +. ) 0.0 s.Sim.achieved
  in
  let bound = h.E.Resilience.predicted +. 1e-6 in
  Alcotest.(check (float 1e-9)) "rebuilt run matches the record"
    h.E.Resilience.faulted (faulted sim_warmup);
  Alcotest.(check bool)
    (Printf.sprintf "warm-up 2 exceeds the promise (%.2f > %.2f)"
       h.E.Resilience.faulted h.E.Resilience.predicted)
    true
    (faulted sim_warmup > bound);
  Alcotest.(check bool) "warm-up 0 stays within the promise" true
    (faulted 0 <= bound);
  Alcotest.(check bool) "conservation holds" true (conserved config h)

let test_resilience_codec_roundtrip () =
  for index = 0 to E.Resilience.total tiny_config - 1 do
    let entry = E.Resilience.evaluate_index tiny_config index in
    let line = E.Resilience.entry_to_line entry in
    match E.Resilience.entry_of_line line with
    | Error msg -> Alcotest.failf "decode %d: %s" index msg
    | Ok back ->
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %d" index)
        line
        (E.Resilience.entry_to_line back)
  done

let test_resilience_collect_smoke () =
  let records = E.Resilience.collect ~domains:2 tiny_config in
  Alcotest.(check bool) "some records" true (List.length records > 0);
  List.iter
    (fun r ->
      Alcotest.(check int) "all heuristics reported" 4
        (List.length r.E.Resilience.results);
      List.iter
        (fun (_, hres) ->
          match hres with
          | None -> ()
          | Some h ->
            Alcotest.(check bool) "baseline sane" true
              (h.E.Resilience.baseline >= 0.0);
            Alcotest.(check bool) "faulted delivery conserved" true
              (conserved tiny_config h);
            Alcotest.(check bool) "repair time non-negative" true
              (h.E.Resilience.repair_seconds >= 0.0))
        r.E.Resilience.results)
    records;
  let table = E.Resilience.table tiny_config records in
  Alcotest.(check bool) "table renders" true
    (String.length (Format.asprintf "%a" E.Report.pp_table table) > 0)

let test_resilience_resume_replays () =
  let out = Filename.temp_file "dls_resilience" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out with Sys_error _ -> ());
      try Sys.remove (out ^ ".manifest") with Sys_error _ -> ())
    (fun () ->
      (match E.Resilience.run ~domains:2 ~out tiny_config with
       | Error msg -> Alcotest.failf "fresh run: %s" msg
       | Ok s ->
         Alcotest.(check int) "all evaluated" (E.Resilience.total tiny_config)
           s.E.Engine.s_evaluated);
      match E.Resilience.run ~domains:2 ~out ~resume:true tiny_config with
      | Error msg -> Alcotest.failf "resume: %s" msg
      | Ok s ->
        Alcotest.(check int) "nothing re-evaluated" 0 s.E.Engine.s_evaluated;
        Alcotest.(check int) "everything replayed"
          (E.Resilience.total tiny_config)
          s.E.Engine.s_replayed)

let test_resilience_determinism_across_domains () =
  (* measure_time = false makes entries byte-reproducible; the per-index
     PRNG streams make them domain-count independent. *)
  let lines domains =
    E.Resilience.collect ~domains tiny_config
    |> List.map (fun r -> E.Resilience.entry_to_line (E.Resilience.Record r))
  in
  let one = lines 1 and eight = lines 8 in
  Alcotest.(check int) "same count" (List.length one) (List.length eight);
  List.iter2 (fun a b -> Alcotest.(check string) "same bytes" a b) one eight

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dls_resilience"
    [ ( "faults",
        [ Alcotest.test_case "validation" `Quick test_faults_validation;
          Alcotest.test_case "zero rates = empty" `Quick
            test_faults_zero_rates_empty;
          Alcotest.test_case "trace deterministic across domains" `Quick
            test_faults_trace_deterministic_across_domains;
          Alcotest.test_case "cursor and degraded platform" `Quick
            test_faults_cursor_and_degraded_platform ] );
      ( "simulator-faults",
        [ Alcotest.test_case "empty plan stat identity" `Quick
            test_empty_plan_stat_identity;
          Alcotest.test_case "mid-run backbone failure (stall)" `Quick
            test_midrun_backbone_failure_stall;
          Alcotest.test_case "mid-run backbone failure (kill)" `Quick
            test_midrun_backbone_failure_kill;
          Alcotest.test_case "failure with recovery" `Quick
            test_failure_with_recovery_restores_throughput;
          Alcotest.test_case "all-stalled short-circuit counts" `Quick
            test_all_stalled_short_circuit_counts;
          Alcotest.test_case "throttle slows compute" `Quick
            test_throttle_slows_compute ] );
      ( "repair",
        [ Alcotest.test_case "stages feasible after backbone failure" `Quick
            test_repair_stages_feasible_after_backbone_failure ] );
      qsuite "repair-prop"
        [ prop_rescale_feasible_on_degraded; prop_repair_ladder_feasible ];
      ( "resilience",
        [ Alcotest.test_case "codec roundtrip" `Quick
            test_resilience_codec_roundtrip;
          Alcotest.test_case "collect smoke" `Quick test_resilience_collect_smoke;
          Alcotest.test_case "warm-up backlog within conservation" `Quick
            test_resilience_warmup_backlog;
          Alcotest.test_case "resume replays" `Quick test_resilience_resume_replays;
          Alcotest.test_case "deterministic across domains" `Quick
            test_resilience_determinism_across_domains ] ) ]
