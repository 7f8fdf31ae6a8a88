let of_relaxation (r : Relaxation.t) =
  Dls_obs.Trace.with_span ~cat:"heuristic" "lprg.solve" @@ fun () ->
  let rounded = Lpr.of_relaxation r in
  let residual = Residual.of_allocation (Problem.platform r.problem) rounded in
  Greedy.refine r.problem residual rounded

let solve ?objective problem = Result.map of_relaxation (Relaxation.solve ?objective problem)
