module P = Dls_platform.Platform

(* Guard against representation noise in beta~ = alpha/g: a value that
   is 3 - 1e-12 is really 3 and must not round to 2. *)
let floor_eps = 1e-9

let round_down problem (sol : float Lp_relax.solution) =
  let p = Problem.platform problem in
  let kk = P.num_clusters p in
  let alloc = Allocation.zero kk in
  for k = 0 to kk - 1 do
    for l = 0 to kk - 1 do
      if l = k then alloc.Allocation.alpha.(k).(l) <- sol.alpha.(k).(l)
      else begin
        match P.route_bottleneck p k l with
        | None -> ()
        | Some bw when bw = infinity ->
          (* Co-located pair: no backbone crossed, nothing to round. *)
          alloc.Allocation.alpha.(k).(l) <- sol.alpha.(k).(l)
        | Some bw ->
          let beta_hat = int_of_float (Float.floor (sol.beta.(k).(l) +. floor_eps)) in
          alloc.Allocation.beta.(k).(l) <- beta_hat;
          alloc.Allocation.alpha.(k).(l) <-
            Float.min sol.alpha.(k).(l) (float_of_int beta_hat *. bw)
      end
    done
  done;
  alloc

let of_relaxation (r : Relaxation.t) = round_down r.problem r.solution

let solve ?objective problem = Result.map of_relaxation (Relaxation.solve ?objective problem)
