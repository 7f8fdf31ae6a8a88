module P = Dls_platform.Platform
module M = Dls_lp.Model.Float

type stage = { work : float; expansion : float }

type app = { source : int; payoff : float; stages : stage list }

type solution = {
  rates : float array;
  objective_value : float;
  iterations : int;
  placement : (int * int * int * float) list;
}

let check_apps platform apps =
  let kk = P.num_clusters platform in
  List.iteri
    (fun a app ->
      if app.source < 0 || app.source >= kk then
        invalid_arg (Printf.sprintf "Pipeline.solve: app %d has a bad source" a);
      if app.payoff < 0.0 || not (Float.is_finite app.payoff) then
        invalid_arg (Printf.sprintf "Pipeline.solve: app %d has a bad payoff" a);
      if app.stages = [] then
        invalid_arg (Printf.sprintf "Pipeline.solve: app %d has no stages" a);
      let p = List.length app.stages in
      List.iteri
        (fun i s ->
          if s.work <= 0.0 then
            invalid_arg (Printf.sprintf "Pipeline.solve: app %d has non-positive work" a);
          if s.expansion < 0.0 || (i < p - 1 && s.expansion = 0.0) then
            invalid_arg
              (Printf.sprintf
                 "Pipeline.solve: app %d: expansion must be positive before the last stage"
                 a))
        app.stages)
    apps

(* Variables are inter-stage flows f_{a,s,c,c'}: data of stage-s output
   of application a moved from cluster c to cluster c' (s = 0 is the
   source data, available only at the home cluster).  Everything else —
   per-stage input rates, application throughput — is a linear
   combination of flows, so the whole program is <=-rows with
   non-negative right-hand sides and runs on the packed-form revised
   simplex. *)
let solve ?(objective = Lp_relax.Maxmin) ?max_iterations platform apps =
  check_apps platform apps;
  let kk = P.num_clusters platform in
  let apps_a = Array.of_list apps in
  let na = Array.length apps_a in
  let active = List.filter (fun a -> apps_a.(a).payoff > 0.0) (List.init na Fun.id) in
  if active = [] then
    Ok { rates = Array.make na 0.0; objective_value = 0.0; iterations = 0;
         placement = [] }
  else begin
    let m = M.create () in
    let reachable c c' = c = c' || P.route platform c c' <> None in
    let bottleneck = Array.make_matrix kk kk infinity in
    for c = 0 to kk - 1 do
      for c' = 0 to kk - 1 do
        if c <> c' then begin
          match P.route_bottleneck platform c c' with
          | Some bw -> bottleneck.(c).(c') <- bw
          | None -> ()
        end
      done
    done;
    (* flows.(a).(s) : (src cluster, dst cluster, var) list *)
    let flows =
      Array.map
        (fun app ->
          let p = List.length app.stages in
          Array.init p (fun s ->
              let sources =
                if s = 0 then [ app.source ] else List.init kk Fun.id
              in
              List.concat_map
                (fun c ->
                  List.filter_map
                    (fun c' ->
                      if reachable c c' then Some (c, c', M.add_var m)
                      else None)
                    (List.init kk Fun.id))
                sources))
        apps_a
    in
    (* Stage-s input rate at cluster c, as linear terms over flows. *)
    let input_terms a s c =
      List.filter_map
        (fun (_, dst, v) -> if dst = c then Some (v, 1.0) else None)
        flows.(a).(s - 1)
    in
    let stage a s = List.nth apps_a.(a).stages (s - 1) in
    (* Flow conservation (relaxed to <=): stage-s output shipped from c
       cannot exceed expansion * stage-s input at c, for 1 <= s < p. *)
    Array.iteri
      (fun a app ->
        let p = List.length app.stages in
        for s = 1 to p - 1 do
          let d = (stage a s).expansion in
          for c = 0 to kk - 1 do
            let out =
              List.filter_map
                (fun (src, _, v) -> if src = c then Some (v, 1.0) else None)
                flows.(a).(s)
            in
            if out <> [] then begin
              let inputs = List.map (fun (v, _) -> (v, -.d)) (input_terms a s c) in
              M.add_le m (out @ inputs) 0.0
            end
          done
        done)
      apps_a;
    (* Compute capacity per cluster. *)
    for c = 0 to kk - 1 do
      let terms = ref [] in
      Array.iteri
        (fun a app ->
          let p = List.length app.stages in
          for s = 1 to p do
            let w = (stage a s).work in
            List.iter
              (fun (v, coef) -> terms := (v, w *. coef) :: !terms)
              (input_terms a s c)
          done;
          ignore app)
        apps_a;
      if !terms <> [] then M.add_le m !terms (P.speed platform c)
    done;
    (* Local link capacity per cluster: all network flows touching it. *)
    for c = 0 to kk - 1 do
      let terms = ref [] in
      Array.iter
        (fun per_stage ->
          Array.iter
            (List.iter (fun (src, dst, v) ->
                 if src <> dst && (src = c || dst = c) then
                   terms := (v, 1.0) :: !terms))
            per_stage)
        flows;
      if !terms <> [] then M.add_le m !terms (P.local_bw platform c)
    done;
    (* Backbone connection slots, with the beta-eliminated 1/g charge. *)
    for link = 0 to P.num_backbones platform - 1 do
      let crossing = P.routes_through platform link in
      let terms = ref [] in
      List.iter
        (fun (c, c') ->
          let g = bottleneck.(c).(c') in
          Array.iter
            (fun per_stage ->
              Array.iter
                (List.iter (fun (src, dst, v) ->
                     if src = c && dst = c' then terms := (v, 1.0 /. g) :: !terms))
                per_stage)
            flows)
        crossing;
      if !terms <> [] then
        M.add_le m !terms (float_of_int (P.backbone platform link).P.max_connect)
    done;
    (* Application throughput in original load units: completed work is
       the last stage's input, divided by the compounded expansion of
       the upstream stages (counting completions, not shipments, so
       data dropped mid-pipeline earns nothing). *)
    let compound_expansion a =
      let p = List.length apps_a.(a).stages in
      let rec go s acc =
        if s >= p then acc else go (s + 1) (acc *. (stage a s).expansion)
      in
      go 1 1.0
    in
    let rate_terms a =
      let p = List.length apps_a.(a).stages in
      let scale = 1.0 /. compound_expansion a in
      List.concat_map
        (fun c -> List.map (fun (v, coef) -> (v, coef *. scale)) (input_terms a p c))
        (List.init kk Fun.id)
    in
    (match objective with
     | Lp_relax.Sum ->
       let terms =
         List.concat_map
           (fun a ->
             List.map (fun (v, coef) -> (v, apps_a.(a).payoff *. coef)) (rate_terms a))
           active
       in
       M.set_objective m terms
     | Lp_relax.Maxmin ->
       let t = M.add_var m in
       List.iter
         (fun a ->
           let row =
             (t, 1.0)
             :: List.map
                  (fun (v, coef) -> (v, -.(apps_a.(a).payoff *. coef)))
                  (rate_terms a)
           in
           M.add_le m row 0.0)
         active;
       M.set_objective m [ (t, 1.0) ]);
    let result = M.solve_packed ?max_iterations m in
    match result.M.status with
    | M.Solver.Optimal ->
      let value_of terms =
        List.fold_left (fun acc (v, coef) -> acc +. (coef *. result.M.value v)) 0.0 terms
      in
      let rates = Array.init na (fun a -> value_of (rate_terms a)) in
      let placement = ref [] in
      for a = na - 1 downto 0 do
        let p = List.length apps_a.(a).stages in
        for s = p downto 1 do
          for c = kk - 1 downto 0 do
            let y = value_of (input_terms a s c) in
            if y > 1e-9 then placement := (a, s, c, y) :: !placement
          done
        done
      done;
      Ok
        { rates;
          objective_value = result.M.objective;
          iterations = result.M.iterations;
          placement = !placement }
    | M.Solver.Infeasible -> Error "pipeline LP infeasible"
    | M.Solver.Unbounded -> Error "pipeline LP unbounded (malformed input)"
    | M.Solver.Iteration_limit -> Error "pipeline LP iteration budget exhausted"
  end
