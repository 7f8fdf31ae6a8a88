let solve ?objective problem =
  Dls_obs.Trace.with_span ~cat:"heuristic" "lprg.solve" @@ fun () ->
  match Lp_relax.solve ?objective problem with
  | Lp_relax.Failed msg -> Error msg
  | Lp_relax.Solution sol ->
    let rounded = Lpr.round_down problem sol in
    let residual = Residual.of_allocation (Problem.platform problem) rounded in
    Ok (Greedy.refine problem residual rounded)
