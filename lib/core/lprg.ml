let of_solution problem solution =
  Dls_obs.Trace.with_span ~cat:"heuristic" "lprg.solve" @@ fun () ->
  let rounded = Lpr.round_down problem solution in
  let residual = Residual.of_allocation (Problem.platform problem) rounded in
  Greedy.refine problem residual rounded

let of_relaxation (r : Relaxation.t) = of_solution r.problem r.solution

let solve ?objective problem = Result.map of_relaxation (Relaxation.solve ?objective problem)
