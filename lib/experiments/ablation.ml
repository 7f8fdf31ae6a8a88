module Prng = Dls_util.Prng
module Stats = Dls_util.Stats
module Gen = Dls_platform.Generator
module Olog = Dls_obs.Log
open Dls_core

let eps = 1e-9

let mean l = Stats.mean (Array.of_list l)

(* ------------------------------------------------------------------ *)
(* Rounding policy: LPRR vs the equal-probability variant              *)
(* ------------------------------------------------------------------ *)

type rounding_row = {
  k : int;
  platforms : int;
  maxmin_lprr : float;
  maxmin_equal : float;
}

let rounding_policy ?(seed = 6) ?(ks = [ 8; 12 ]) ?(per_k = 4) () =
  let rng = Prng.create ~seed in
  List.map
    (fun k ->
      let lprr = ref [] and equal = ref [] in
      let used = ref 0 in
      for _ = 1 to per_k do
        let problem = Measure.sample_problem rng ~k in
        match Heuristics.lp_bound ~objective:Lp_relax.Maxmin problem with
        | Error _ -> ()
        | Ok bound when bound <= eps -> ()
        | Ok bound ->
          let run solve =
            match
              solve ?objective:(Some Lp_relax.Maxmin) ~rng:(Prng.split rng)
                problem
            with
            | Ok stats ->
              Some (Allocation.maxmin_objective problem stats.Lprr.allocation /. bound)
            | Error _ -> None
          in
          (match (run Lprr.solve, run Lprr.solve_equal_probability) with
           | Some a, Some b ->
             incr used;
             lprr := a :: !lprr;
             equal := b :: !equal
           | _ -> ())
      done;
      { k; platforms = !used; maxmin_lprr = mean !lprr; maxmin_equal = mean !equal })
    ks

let rounding_table rows =
  { Report.title =
      "Ablation: LPRR rounding policy (paper: equal-probability is much worse)";
    header = [ "K"; "platforms"; "MAXMIN(LPRR)/LP"; "MAXMIN(equal-prob)/LP" ];
    rows =
      List.map
        (fun r ->
          [ string_of_int r.k; string_of_int r.platforms;
            Report.cell_float r.maxmin_lprr; Report.cell_float r.maxmin_equal ])
        rows }

(* ------------------------------------------------------------------ *)
(* Network-tight regime: SUM stops being trivially saturated           *)
(* ------------------------------------------------------------------ *)

type tight_row = {
  k : int;
  platforms : int;
  sum_g : float;
  sum_lpr : float;
  sum_lprg : float;
  maxmin_g : float;
  maxmin_lprg : float;
}

let tight_params k =
  { Gen.k; topology_model = Gen.Erdos_renyi; connectivity = 0.2;
    heterogeneity = 0.2; mean_g = 450.0; mean_bw = 10.0; mean_maxcon = 5.0;
    speed = 100.0; speed_heterogeneity = 0.0 }

let network_tight ?(seed = 7) ?(ks = [ 5; 10; 15; 20 ]) ?(per_k = 5) () =
  let rng = Prng.create ~seed in
  List.map
    (fun k ->
      let acc = Array.make 5 [] in
      let push i v = acc.(i) <- v :: acc.(i) in
      let used = ref 0 in
      for _ = 1 to per_k do
        let platform = Gen.generate rng (tight_params k) in
        let problem = Measure.assign_workload rng platform in
        match Measure.evaluate problem with
        | Error msg ->
          if Olog.enabled Olog.Warn then
            Olog.warn "ablation.platform.skipped"
              ~fields:[ ("k", Olog.Int k); ("reason", Olog.Str msg) ]
        | Ok v ->
          if v.Measure.lp_sum > eps && v.Measure.lp_maxmin > eps then begin
            incr used;
            push 0 (v.Measure.g_sum /. v.Measure.lp_sum);
            push 1 (v.Measure.lpr_sum /. v.Measure.lp_sum);
            push 2 (v.Measure.lprg_sum /. v.Measure.lp_sum);
            push 3 (v.Measure.g_maxmin /. v.Measure.lp_maxmin);
            push 4 (v.Measure.lprg_maxmin /. v.Measure.lp_maxmin)
          end
      done;
      { k; platforms = !used;
        sum_g = mean acc.(0); sum_lpr = mean acc.(1); sum_lprg = mean acc.(2);
        maxmin_g = mean acc.(3); maxmin_lprg = mean acc.(4) })
    ks

let tight_table rows =
  { Report.title =
      "Ablation: network-tight regime (bw = 10, maxcon = 5, g = 450)";
    header =
      [ "K"; "platforms"; "SUM(G)/LP"; "SUM(LPR)/LP"; "SUM(LPRG)/LP";
        "MAXMIN(G)/LP"; "MAXMIN(LPRG)/LP" ];
    rows =
      List.map
        (fun r ->
          [ string_of_int r.k; string_of_int r.platforms;
            Report.cell_float r.sum_g; Report.cell_float r.sum_lpr;
            Report.cell_float r.sum_lprg; Report.cell_float r.maxmin_g;
            Report.cell_float r.maxmin_lprg ])
        rows }

(* ------------------------------------------------------------------ *)
(* Unbounded-connection baseline                                       *)
(* ------------------------------------------------------------------ *)

type baseline_row = {
  k : int;
  platforms : int;
  idealized_over_realistic : float;
  repaired_over_realistic : float;
}

let unbounded_baseline ?(seed = 11) ?(ks = [ 5; 10; 15 ]) ?(per_k = 4) () =
  let rng = Prng.create ~seed in
  List.map
    (fun k ->
      let over = ref [] and under = ref [] in
      let used = ref 0 in
      for _ = 1 to per_k do
        let platform = Gen.generate rng (tight_params k) in
        let problem = Measure.assign_workload rng platform in
        match Unbounded_baseline.compare problem with
        | Ok c when c.Unbounded_baseline.realistic > eps ->
          incr used;
          over :=
            (c.Unbounded_baseline.idealized /. c.Unbounded_baseline.realistic)
            :: !over;
          under :=
            (c.Unbounded_baseline.repaired /. c.Unbounded_baseline.realistic)
            :: !under
        | Ok _ | Error _ -> ()
      done;
      { k; platforms = !used;
        idealized_over_realistic = mean !over;
        repaired_over_realistic = mean !under })
    ks

let baseline_table rows =
  { Report.title =
      "Ablation: unlimited-connection model ([34]) vs the paper's model \
       (MAXMIN, tight network)";
    header =
      [ "K"; "platforms"; "idealized / realistic LP"; "repaired / realistic LP" ];
    rows =
      List.map
        (fun r ->
          [ string_of_int r.k; string_of_int r.platforms;
            Report.cell_float r.idealized_over_realistic;
            Report.cell_float r.repaired_over_realistic ])
        rows }

(* ------------------------------------------------------------------ *)
(* Topology models                                                     *)
(* ------------------------------------------------------------------ *)

type topology_row = {
  model : string;
  platforms : int;
  mean_backbones : float;
  maxmin_g : float;
  maxmin_lprg : float;
}

let topology_models ?(seed = 10) ?(k = 15) ?(per_model = 4) () =
  let rng = Prng.create ~seed in
  let models =
    [ ("Erdos-Renyi p=0.3", Gen.Erdos_renyi);
      ("Waxman a=0.9 b=0.3", Gen.Waxman { alpha = 0.9; beta = 0.3 });
      ("Barabasi-Albert m=2", Gen.Barabasi_albert { m = 2 }) ]
  in
  List.map
    (fun (model, topology_model) ->
      let g_ratios = ref [] and lprg_ratios = ref [] and backbones = ref [] in
      let used = ref 0 in
      for _ = 1 to per_model do
        let params =
          { Gen.default_params with Gen.k; topology_model; connectivity = 0.3 }
        in
        let platform = Gen.generate rng params in
        let problem = Measure.assign_workload rng platform in
        backbones :=
          float_of_int (Dls_platform.Platform.num_backbones platform) :: !backbones;
        match Relaxation.solve ~objective:Lp_relax.Maxmin problem with
        | Ok relaxation when Heuristics.bound_of relaxation > eps ->
          incr used;
          let bound = Heuristics.bound_of relaxation in
          let lprg = Lprg.of_relaxation relaxation in
          let g = Greedy.solve problem in
          g_ratios := (Allocation.maxmin_objective problem g /. bound) :: !g_ratios;
          lprg_ratios :=
            (Allocation.maxmin_objective problem lprg /. bound) :: !lprg_ratios
        | _ -> ()
      done;
      { model; platforms = !used;
        mean_backbones = mean !backbones;
        maxmin_g = mean !g_ratios;
        maxmin_lprg = mean !lprg_ratios })
    models

let topology_table rows =
  { Report.title = "Ablation: topology models (MAXMIN ratios, K = 15)";
    header =
      [ "model"; "platforms"; "mean backbones"; "MAXMIN(G)/LP"; "MAXMIN(LPRG)/LP" ];
    rows =
      List.map
        (fun r ->
          [ r.model; string_of_int r.platforms;
            Report.cell_float r.mean_backbones; Report.cell_float r.maxmin_g;
            Report.cell_float r.maxmin_lprg ])
        rows }

(* ------------------------------------------------------------------ *)
(* Workload sensitivity (DESIGN.md 2.2)                                *)
(* ------------------------------------------------------------------ *)

type workload_row = {
  app_fraction : float;
  source_speed_factor : float;
  platforms : int;
  maxmin_g_ratio : float;
  maxmin_lprg_ratio : float;
}

let workload ?(seed = 8) ?(k = 15) ?(per_setting = 4) () =
  let rng = Prng.create ~seed in
  let settings =
    [ (1.0, 1.0);  (* the literal reading: trivially flat *)
      (0.5, 1.0);  (* sparse apps, full-speed sources *)
      (0.5, 0.5); (0.5, 0.0);  (* the default: pure data sources *)
      (0.25, 0.0) ]
  in
  List.map
    (fun (app_fraction, source_speed_factor) ->
      let g_ratios = ref [] and lprg_ratios = ref [] in
      let used = ref 0 in
      for _ = 1 to per_setting do
        let problem =
          Measure.sample_problem ~app_fraction ~source_speed_factor rng ~k
        in
        match Relaxation.solve ~objective:Lp_relax.Maxmin problem with
        | Ok relaxation when Heuristics.bound_of relaxation > eps ->
          incr used;
          let bound = Heuristics.bound_of relaxation in
          let lprg = Lprg.of_relaxation relaxation in
          let g = Greedy.solve problem in
          g_ratios := (Allocation.maxmin_objective problem g /. bound) :: !g_ratios;
          lprg_ratios :=
            (Allocation.maxmin_objective problem lprg /. bound) :: !lprg_ratios
        | _ -> ()
      done;
      { app_fraction; source_speed_factor; platforms = !used;
        maxmin_g_ratio = mean !g_ratios;
        maxmin_lprg_ratio = mean !lprg_ratios })
    settings

let workload_table rows =
  { Report.title = "Ablation: workload sensitivity (MAXMIN ratios, K = 15)";
    header =
      [ "app fraction"; "source speed factor"; "platforms"; "MAXMIN(G)/LP";
        "MAXMIN(LPRG)/LP" ];
    rows =
      List.map
        (fun r ->
          [ Report.cell_float r.app_fraction;
            Report.cell_float r.source_speed_factor; string_of_int r.platforms;
            Report.cell_float r.maxmin_g_ratio;
            Report.cell_float r.maxmin_lprg_ratio ])
        rows }
