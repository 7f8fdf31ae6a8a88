(* A multi-site Grid campaign, end to end.

   Generates a realistic 12-cluster platform from the paper's Table 1
   distributions, runs all four heuristics under both objectives,
   reconstructs the periodic schedule of the best MAXMIN allocation
   (Section 3.2), and validates it with the flow-level simulator.

   Run with: dune exec examples/grid_campaign.exe *)

module Prng = Dls_util.Prng
module E = Dls_experiments
open Dls_core

let () =
  let rng = Prng.create ~seed:2005 in
  let problem = E.Measure.sample_problem ~app_fraction:0.4 rng ~k:12 in
  Format.printf "%a@.@." Problem.pp problem;

  (* One MAXMIN relaxation gives the bound and feeds LPR and LPRG. *)
  let relaxation =
    match Relaxation.solve ~objective:Lp_relax.Maxmin problem with
    | Ok r -> r
    | Error msg -> Format.eprintf "LP failed: %s@." msg; exit 1
  in
  let lp_maxmin = Heuristics.bound_of relaxation in
  let lp_sum =
    match Heuristics.lp_bound ~objective:Lp_relax.Sum problem with
    | Ok v -> v
    | Error msg -> Format.eprintf "LP failed: %s@." msg; exit 1
  in
  Format.printf "LP upper bounds: MAXMIN = %.2f, SUM = %.2f@.@." lp_maxmin lp_sum;

  Format.printf "%-6s %10s %10s %12s %12s@." "method" "MAXMIN" "SUM" "MAXMIN/LP"
    "SUM/LP";
  let best = ref None in
  List.iter
    (fun h ->
      match
        Heuristics.run ~objective:Lp_relax.Maxmin ~rng
          ~relaxation:(Lazy.from_val (Ok relaxation)) h problem
      with
      | Error msg -> Format.printf "%-6s failed: %s@." (Heuristics.name h) msg
      | Ok alloc ->
        assert (Allocation.is_feasible problem alloc);
        let mm = Allocation.maxmin_objective problem alloc in
        let sum = Allocation.sum_objective problem alloc in
        Format.printf "%-6s %10.2f %10.2f %12.3f %12.3f@." (Heuristics.name h) mm
          sum (mm /. lp_maxmin) (sum /. lp_sum);
        (match !best with
         | Some (bmm, _) when bmm >= mm -> ()
         | _ -> best := Some (mm, alloc)))
    Heuristics.all;

  match !best with
  | None -> ()
  | Some (_, alloc) ->
    Format.printf "@.Periodic schedule of the best MAXMIN allocation:@.";
    let exact = Schedule.exact_of_float ~approx_max_den:1000 alloc in
    let schedule =
      match Schedule.validate problem (Schedule.build exact) with
      | Ok () -> Schedule.build exact
      | Error _ ->
        (* The human-friendly approximation overshot a capacity; the
           exact lift is always valid. *)
        Schedule.build (Schedule.exact_of_float alloc)
    in
    Format.printf "%a@." Schedule.pp schedule;
    let stats = Dls_flowsim.Simulator.run ~periods:40 ~warmup:5 problem alloc in
    Format.printf
      "flow-level check: %.1f%% of the predicted steady-state throughput (late transfers: %d)@."
      (100.0 *. Dls_flowsim.Simulator.efficiency stats)
      stats.Dls_flowsim.Simulator.late_transfers
