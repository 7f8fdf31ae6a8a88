(* Solve one random platform with a chosen heuristic and print the full
   story: allocation, objective values vs the LP bound, the reconstructed
   periodic schedule, and a flow-level simulation check. *)

open Cmdliner
module E = Dls_experiments
module Prng = Dls_util.Prng
open Dls_core

let run seed k app_fraction heuristic objective show_schedule periods
    platform_file dump_platform dot_file =
  let rng = Prng.create ~seed in
  let problem =
    match platform_file with
    | Some path -> begin
      match Dls_platform.Platform_io.load ~path with
      | Ok platform -> E.Measure.assign_workload ~app_fraction rng platform
      | Error msg ->
        Format.eprintf "cannot load %s: %s@." path msg;
        exit 2
    end
    | None -> E.Measure.sample_problem ~app_fraction rng ~k
  in
  (match dump_platform with
   | Some path ->
     Dls_platform.Platform_io.save ~path (Problem.platform problem);
     Format.printf "platform written to %s@." path
   | None -> ());
  let objective =
    match objective with "sum" -> Lp_relax.Sum | _ -> Lp_relax.Maxmin
  in
  match Heuristics.of_name heuristic with
  | None ->
    Format.eprintf "unknown heuristic %S (expected g, lpr, lprg or lprr)@." heuristic;
    exit 2
  | Some h -> begin
    Format.printf "%a@." Problem.pp problem;
    (* One relaxation serves LPR/LPRG and the LP bound line below. *)
    let relaxation = lazy (Relaxation.solve ~objective problem) in
    match Heuristics.run ~objective ~rng ~relaxation h problem with
    | Error msg ->
      Format.eprintf "%s failed: %s@." (Heuristics.name h) msg;
      exit 1
    | Ok alloc ->
      Format.printf "%a@." Allocation.pp alloc;
      let violations = Allocation.check problem alloc in
      if violations <> [] then begin
        Format.printf "INFEASIBLE:@.";
        List.iter (Format.printf "  %a@." Allocation.pp_violation) violations;
        exit 1
      end;
      Format.printf "feasible: yes@.";
      Format.printf "SUM    = %.4f@." (Allocation.sum_objective problem alloc);
      Format.printf "MAXMIN = %.4f@." (Allocation.maxmin_objective problem alloc);
      Format.printf "fairness: Jain %.3f, min/max %.3f@."
        (Fairness.jain_index problem alloc)
        (Fairness.min_over_max problem alloc);
      (match Lazy.force relaxation with
       | Ok r -> Format.printf "LP bound (%s) = %.4f@."
                       (match objective with Lp_relax.Sum -> "SUM" | _ -> "MAXMIN")
                       (Heuristics.bound_of r)
       | Error msg -> Format.printf "LP bound unavailable: %s@." msg);
      if show_schedule then begin
        let exact = Schedule.exact_of_float ~approx_max_den:1000 alloc in
        let sched = Schedule.build exact in
        match Schedule.validate problem sched with
        | Ok () -> Format.printf "%a@." Schedule.pp sched
        | Error msg ->
          (* The bounded-denominator approximation overshot a capacity:
             fall back to the exact lift, whose schedule is provably
             valid (at the cost of a huge period). *)
          Format.printf
            "(approximate schedule rejected: %s; using exact rates)@." msg;
          let sched = Schedule.build (Schedule.exact_of_float alloc) in
          Format.printf "%a@." Schedule.pp sched
      end;
      let top_usages =
        let all = Analysis.utilization problem alloc in
        List.filteri (fun i _ -> i < 5) all
      in
      Format.printf "top resource utilizations:@.";
      List.iter (fun u -> Format.printf "  %a@." Analysis.pp_usage u) top_usages;
      (match dot_file with
       | Some path ->
         Viz.save ~path problem alloc;
         Format.printf "allocation graph written to %s (render with: dot -Tsvg)@."
           path
       | None -> ());
      let stats = Dls_flowsim.Simulator.run ~periods problem alloc in
      Format.printf
        "flow-level simulation over %d periods: efficiency %.4f (late: %d, stalled: %d)@."
        periods
        (Dls_flowsim.Simulator.efficiency stats)
        stats.Dls_flowsim.Simulator.late_transfers
        stats.Dls_flowsim.Simulator.stalled_transfers
  end

let () =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let k =
    Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc:"Number of clusters.")
  in
  let app_fraction =
    Arg.(value & opt float 0.5
         & info [ "app-fraction" ] ~docv:"F"
             ~doc:"Probability that a cluster hosts an application.")
  in
  let heuristic =
    Arg.(value & opt string "lprg"
         & info [ "heuristic" ] ~docv:"H" ~doc:"One of g, lpr, lprg, lprr.")
  in
  let objective =
    Arg.(value & opt string "maxmin"
         & info [ "objective" ] ~docv:"OBJ" ~doc:"maxmin or sum.")
  in
  let show_schedule =
    Arg.(value & flag
         & info [ "schedule" ] ~doc:"Print the reconstructed periodic schedule.")
  in
  let periods =
    Arg.(value & opt int 20
         & info [ "periods" ] ~docv:"N" ~doc:"Simulated periods for the check.")
  in
  let platform_file =
    Arg.(value & opt (some string) None
         & info [ "platform" ] ~docv:"FILE"
             ~doc:"Load the platform from a dls-platform file instead of generating one.")
  in
  let dump_platform =
    Arg.(value & opt (some string) None
         & info [ "dump-platform" ] ~docv:"FILE"
             ~doc:"Write the platform in dls-platform format before solving.")
  in
  let dot_file =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE"
             ~doc:"Write the allocation as a Graphviz digraph.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "dls_solve" ~version:"1.0.0"
         ~doc:"Solve one divisible-load platform and inspect the result.")
      Term.(const run $ seed $ k $ app_fraction $ heuristic $ objective
            $ show_schedule $ periods $ platform_file $ dump_platform $ dot_file)
  in
  exit (Cmd.eval cmd)
