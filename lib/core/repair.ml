module P = Dls_platform.Platform
module Olog = Dls_obs.Log
module Flight = Dls_obs.Flight

type stage = Rescale | Refine | Resolve

let stage_name = function
  | Rescale -> "rescale"
  | Refine -> "refine"
  | Resolve -> "resolve"

type attempt = {
  stage : stage;
  seconds : float;
  within_budget : bool;
  feasible : bool;
  objective : float;
}

type budgets = { rescale_s : float; refine_s : float; resolve_s : float }

let default_budgets = { rescale_s = 0.001; refine_s = 0.1; resolve_s = 2.0 }

type outcome = {
  allocation : Allocation.t;
  stage : stage;
  attempts : attempt list;
}

(* Stage 1: shrink the broken allocation onto the degraded capacities.
   Each step below restores one family of constraints without breaking
   the ones already fixed, so the result is feasible by construction:
   dead entries are zeroed (7f/7g, no-route), per-link connection sums
   are floored under the surviving caps (7d; a sum of floors of
   proportionally scaled terms never exceeds the cap), bandwidth rows
   are re-capped against the degraded per-connection bandwidth (7e),
   and one global λ-scaling of the alphas fixes the CPU and local-link
   rows (7b/7c) while only shrinking everything the earlier steps
   bounded. *)
let rescale degraded alloc =
  let p = Problem.platform degraded in
  let kk = Problem.num_clusters degraded in
  let a = Allocation.copy alloc in
  let alpha = a.Allocation.alpha and beta = a.Allocation.beta in
  (* Entries the degraded platform cannot carry at all. *)
  for k = 0 to kk - 1 do
    if not (Problem.is_active degraded k) then
      for l = 0 to kk - 1 do
        alpha.(k).(l) <- 0.0;
        beta.(k).(l) <- 0
      done
    else begin
      if P.speed p k <= 0.0 then alpha.(k).(k) <- 0.0;
      for l = 0 to kk - 1 do
        if l <> k && (alpha.(k).(l) > 0.0 || beta.(k).(l) > 0) then begin
          let dead =
            P.speed p l <= 0.0
            || P.local_bw p k <= 0.0
            || P.local_bw p l <= 0.0
            || P.route p k l = None
          in
          if dead then begin
            alpha.(k).(l) <- 0.0;
            beta.(k).(l) <- 0
          end
          else if alpha.(k).(l) <= 0.0 then
            (* no work: release the slots before the per-link re-pin *)
            beta.(k).(l) <- 0
        end
      done
    end
  done;
  (* Connection caps (7d): proportional floor-scaling per link.  Links
     are processed in order; later reductions only lower the usage seen
     by links already under their cap. *)
  for i = 0 to P.num_backbones p - 1 do
    let cap = (P.backbone p i).P.max_connect in
    let pairs = P.routes_through p i in
    let usage = List.fold_left (fun s (k, l) -> s + beta.(k).(l)) 0 pairs in
    if usage > cap then begin
      let f = float_of_int cap /. float_of_int usage in
      List.iter
        (fun (k, l) ->
          let b = beta.(k).(l) in
          if b > 0 then
            beta.(k).(l) <- int_of_float (floor (float_of_int b *. f)))
        pairs
    end
  done;
  (* Bandwidth rows (7e) against the degraded per-connection bw. *)
  for k = 0 to kk - 1 do
    for l = 0 to kk - 1 do
      if k <> l && alpha.(k).(l) > 0.0 then
        match P.route_bottleneck p k l with
        | None -> alpha.(k).(l) <- 0.0
        | Some g when g = infinity -> ()  (* co-located: no backbone row *)
        | Some g ->
          alpha.(k).(l) <- Float.min alpha.(k).(l) (float_of_int beta.(k).(l) *. g)
    done
  done;
  (* CPU and local-link rows (7b/7c): one global shrink factor. *)
  let lambda = ref 1.0 in
  for l = 0 to kk - 1 do
    let cpu = ref 0.0 in
    for k = 0 to kk - 1 do
      cpu := !cpu +. alpha.(k).(l)
    done;
    if !cpu > 0.0 then lambda := Float.min !lambda (P.speed p l /. !cpu);
    let traffic = ref 0.0 in
    for k = 0 to kk - 1 do
      if k <> l then traffic := !traffic +. alpha.(l).(k) +. alpha.(k).(l)
    done;
    if !traffic > 0.0 then
      lambda := Float.min !lambda (P.local_bw p l /. !traffic)
  done;
  let lambda = Float.max 0.0 (Float.min 1.0 !lambda) in
  if lambda < 1.0 then
    for k = 0 to kk - 1 do
      for l = 0 to kk - 1 do
        if alpha.(k).(l) > 0.0 then alpha.(k).(l) <- alpha.(k).(l) *. lambda
      done
    done;
  a

let run_stage ?objective ?(heuristic = Heuristics.LPRG) ?rng stage degraded
    alloc =
  match stage with
  | Rescale -> Ok (rescale degraded alloc)
  | Refine ->
    let base = rescale degraded alloc in
    let residual = Residual.of_allocation (Problem.platform degraded) base in
    Ok (Greedy.refine degraded residual base)
  | Resolve -> (
    match Heuristics.run ?objective ?rng heuristic degraded with
    | Ok a -> Ok a
    | Error _ when heuristic <> Heuristics.G ->
      (* the LP can fail on a pathological residual platform; the
         objective-free greedy cannot *)
      Heuristics.run ?objective ?rng Heuristics.G degraded
    | Error _ as e -> e)

let repair ?objective ?heuristic ?rng ?(budgets = default_budgets) degraded
    alloc =
  let obj_kind =
    match objective with Some Lp_relax.Sum -> `Sum | _ -> `Maxmin
  in
  let attempt stage budget =
    let t0 = Sys.time () in
    let r = run_stage ?objective ?heuristic ?rng stage degraded alloc in
    let seconds = Sys.time () -. t0 in
    let repaired =
      match r with
      | Ok a when Allocation.is_feasible degraded a -> Some a
      | Ok _ | Error _ -> None
    in
    let objective =
      match repaired with
      | Some a -> Allocation.objective obj_kind degraded a
      | None -> 0.0
    in
    ( { stage; seconds; within_budget = seconds <= budget;
        feasible = repaired <> None; objective },
      repaired )
  in
  let ladder =
    [ (Rescale, budgets.rescale_s); (Refine, budgets.refine_s);
      (Resolve, budgets.resolve_s) ]
  in
  let attempts = ref [] in
  (* best feasible so far, ranked by (objective, total throughput) — the
     throughput tiebreak matters under MAXMIN, where any crashed source
     pins the objective at 0 for every stage *)
  let best = ref None in
  let winner =
    List.find_map
      (fun (stage, budget) ->
        let att, repaired = attempt stage budget in
        attempts := att :: !attempts;
        (match repaired with
        | Some a ->
          let score = (att.objective, Allocation.total_throughput a) in
          (match !best with
          | Some (_, _, s) when s >= score -> ()
          | _ -> best := Some (stage, a, score))
        | None -> ());
        match repaired with
        | Some a when att.objective > 0.0 -> Some (stage, a)
        | _ ->
          (* This rung did not settle it; the ladder escalates. *)
          if Olog.enabled Olog.Debug then
            Olog.debug "repair.escalate"
              ~fields:
                [ ("from", Olog.Str (stage_name stage));
                  ("feasible", Olog.Bool att.feasible);
                  ("objective", Olog.Float att.objective);
                  ("seconds", Olog.Float att.seconds) ];
          if Flight.enabled () then
            Flight.record ~kind:"repair" ("escalate past " ^ stage_name stage)
              ~fields:[ ("feasible", string_of_bool att.feasible) ];
          None)
      ladder
  in
  let attempts = List.rev !attempts in
  match (winner, !best) with
  | Some (stage, allocation), _ -> Ok { allocation; stage; attempts }
  | None, Some (stage, allocation, _) -> Ok { allocation; stage; attempts }
  | None, None ->
    Olog.error "repair.failed"
      ~fields:[ ("attempts", Olog.Int (List.length attempts)) ];
    if Flight.enabled () then
      Flight.record ~kind:"repair" "failed: no feasible stage";
    Error "repair: no stage produced a feasible allocation"
