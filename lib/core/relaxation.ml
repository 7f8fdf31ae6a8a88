type t = {
  problem : Problem.t;
  objective : Lp_relax.objective;
  solution : float Lp_relax.solution;
  seconds : float;
}

let solve ?(objective = Lp_relax.Maxmin) problem =
  let t0 = Dls_obs.Clock.now () in
  match Lp_relax.solve ~objective problem with
  | Lp_relax.Failed msg -> Error msg
  | Lp_relax.Solution solution ->
    let seconds = (Dls_obs.Clock.now () -. t0) /. 1e6 in
    Ok { problem; objective; solution; seconds }
