module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng
open Dls_core

type values = {
  lp_sum : float;
  lp_maxmin : float;
  g_sum : float;
  g_maxmin : float;
  lpr_sum : float;
  lpr_maxmin : float;
  lprg_sum : float;
  lprg_maxmin : float;
  lprr_sum : float option;
  lprr_maxmin : float option;
  lprr_counters : Dls_lp.Revised_simplex.counters option;
  time_lp : float;
  time_g : float;
  time_lpr : float;
  time_lprg : float;
  time_lprr : float option;
}

let time f =
  let t0 = Dls_obs.Clock.now () in
  let result = f () in
  (result, (Dls_obs.Clock.now () -. t0) /. 1e6)

let table1_choice rng values = Prng.pick rng (Array.of_list values)

let sample_params rng ~k =
  { Gen.k;
    topology_model = Gen.Erdos_renyi;
    connectivity = table1_choice rng (List.init 8 (fun i -> 0.1 *. float_of_int (i + 1)));
    heterogeneity = table1_choice rng [ 0.2; 0.4; 0.6; 0.8 ];
    mean_g = table1_choice rng [ 50.0; 250.0; 350.0; 450.0 ];
    mean_bw = table1_choice rng (List.init 9 (fun i -> 10.0 *. float_of_int (i + 1)));
    mean_maxcon = table1_choice rng (List.init 10 (fun i -> float_of_int (5 + (10 * i))));
    speed = 100.0;
    speed_heterogeneity = 0.0 }

let assign_workload ?(app_fraction = 0.5) ?(source_speed_factor = 0.0) rng platform
    =
  let module P = Dls_platform.Platform in
  let k = P.num_clusters platform in
  let payoffs =
    Array.init k (fun _ -> if Prng.bool rng ~p:app_fraction then 1.0 else 0.0)
  in
  if Array.for_all (fun pi -> pi = 0.0) payoffs then
    payoffs.(Prng.int rng ~lo:0 ~hi:(k - 1)) <- 1.0;
  let platform =
    if source_speed_factor >= 1.0 then platform
    else begin
      let clusters =
        Array.init k (fun c ->
            let cl = P.cluster platform c in
            if payoffs.(c) > 0.0 then
              { cl with P.speed = cl.P.speed *. source_speed_factor }
            else cl)
      in
      P.make ~clusters ~topology:(P.topology platform)
        ~backbones:(Array.init (P.num_backbones platform) (P.backbone platform))
    end
  in
  Problem.make platform ~payoffs

let sample_problem ?app_fraction ?source_speed_factor rng ~k =
  let platform = Gen.generate rng (sample_params rng ~k) in
  assign_workload ?app_fraction ?source_speed_factor rng platform

let checked problem name alloc =
  if Allocation.is_feasible problem alloc then Ok alloc
  else Error (name ^ " produced an infeasible allocation")

let ( let* ) = Result.bind

let evaluate ?(with_lprr = false) ?rng problem =
  let rng = match rng with Some r -> r | None -> Prng.create ~seed:0x5EED in
  let value obj alloc = Allocation.objective obj problem alloc in
  (* One relaxation per objective feeds the LP bound, LPR and LPRG. *)
  let relax name objective =
    Result.map_error (fun m -> name ^ ": " ^ m) (Relaxation.solve ~objective problem)
  in
  let* maxmin = relax "LP maxmin" Lp_relax.Maxmin in
  let* sum = relax "LP sum" Lp_relax.Sum in
  let g_alloc, time_g = time (fun () -> Greedy.solve problem) in
  let* g_alloc = checked problem "G" g_alloc in
  (* Each post-processing is timed on MAXMIN and charged the shared LP
     time, so Fig. 7 reads LP + round-down (+ refinement). *)
  let post_process name f =
    let maxmin_alloc, t = time (fun () -> f maxmin) in
    let* maxmin_alloc = checked problem name maxmin_alloc in
    let* sum_alloc = checked problem name (f sum) in
    Ok (value `Maxmin maxmin_alloc, value `Sum sum_alloc, maxmin.Relaxation.seconds +. t)
  in
  let* lpr_maxmin, lpr_sum, time_lpr = post_process "LPR" Lpr.of_relaxation in
  let* lprg_maxmin, lprg_sum, time_lprg = post_process "LPRG" Lprg.of_relaxation in
  let* lprr_maxmin, lprr_sum, lprr_counters, time_lprr =
    if not with_lprr then Ok (None, None, None, None)
    else begin
      let lprr name objective =
        match time (fun () -> Lprr.solve ~objective ~rng problem) with
        | Error msg, _ -> Error ("LPRR " ^ name ^ ": " ^ msg)
        | Ok st, t ->
          let* alloc = checked problem "LPRR" st.Lprr.allocation in
          Ok (alloc, Some st.Lprr.counters, t)
      in
      (* Solver counters and time come from the MAXMIN run. *)
      let* mm_alloc, counters, t = lprr "maxmin" Lp_relax.Maxmin in
      let* sum_alloc, _, _ = lprr "sum" Lp_relax.Sum in
      Ok (Some (value `Maxmin mm_alloc), Some (value `Sum sum_alloc), counters, Some t)
    end
  in
  Ok
    { lp_sum = Heuristics.bound_of sum; lp_maxmin = Heuristics.bound_of maxmin;
      g_sum = value `Sum g_alloc;
      g_maxmin = value `Maxmin g_alloc;
      lpr_sum; lpr_maxmin; lprg_sum; lprg_maxmin; lprr_sum; lprr_maxmin;
      lprr_counters;
      time_lp = maxmin.Relaxation.seconds; time_g; time_lpr; time_lprg; time_lprr }
