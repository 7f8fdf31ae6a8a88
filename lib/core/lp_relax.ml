module P = Dls_platform.Platform

type objective = Sum | Maxmin

type 'num solution = {
  alpha : 'num array array;
  beta : 'num array array;
  objective_value : 'num;
  iterations : int;
}

type 'num outcome = Solution of 'num solution | Failed of string

let remote_pairs problem =
  let p = Problem.platform problem in
  let kk = P.num_clusters p in
  let acc = ref [] in
  for k = kk - 1 downto 0 do
    if Problem.is_active problem k then
      for l = kk - 1 downto 0 do
        if k <> l then begin
          match P.route p k l with
          | Some (_ :: _) -> acc := (k, l) :: !acc
          | Some [] | None -> ()
        end
      done
  done;
  !acc

module Encode (F : Dls_lp.Field.S) = struct
  module M = Dls_lp.Model.Make (F)

  (* Variable layout: one alpha variable per admissible (k, l) pair —
     always (k, k) for active k; (k, l) when a route exists — plus, for
     MAXMIN, one auxiliary variable t with rows t <= pi_k * alpha_k.
     [solver] lets the float instance route the model to the packed-form
     revised simplex. *)
  let solve ?solver ?(objective = Maxmin) ?(fixed = []) ?max_iterations problem =
    let solve_model = match solver with Some f -> f | None -> M.solve in
    let p = Problem.platform problem in
    let kk = P.num_clusters p in
    let active = Problem.active problem in
    let zero_solution () =
      { alpha = Array.make_matrix kk kk F.zero;
        beta = Array.make_matrix kk kk F.zero;
        objective_value = F.zero;
        iterations = 0 }
    in
    if active = [] then Solution (zero_solution ())
    else begin
      let fixed_tbl = Hashtbl.create 16 in
      List.iter
        (fun ((k, l), v) ->
          if v < 0 then invalid_arg "Lp_relax: negative fixed beta";
          Hashtbl.replace fixed_tbl (k, l) v)
        fixed;
      let m = M.create () in
      let vars = Array.make_matrix kk kk None in
      let bottleneck = Array.make_matrix kk kk infinity in
      List.iter
        (fun k ->
          for l = 0 to kk - 1 do
            let admissible =
              if l = k then true
              else (
                match P.route p k l with Some _ -> true | None -> false)
            in
            if admissible then begin
              let v = M.add_var ~name:(Printf.sprintf "a_%d_%d" k l) m in
              vars.(k).(l) <- Some v;
              if l <> k then begin
                match P.route_bottleneck p k l with
                | Some bw -> bottleneck.(k).(l) <- bw
                | None -> assert false
              end
            end
          done)
        active;
      (* Pinned pairs: alpha <= v * g as an upper bound. *)
      Hashtbl.iter
        (fun (k, l) v ->
          match vars.(k).(l) with
          | Some var when k <> l && Float.is_finite bottleneck.(k).(l) ->
            M.set_upper_bound m var
              (F.mul (F.of_int v) (F.of_float bottleneck.(k).(l)))
          | Some _ | None ->
            invalid_arg "Lp_relax: fixed beta on a pair without a backbone route")
        fixed_tbl;
      (* Equation 7b: per-cluster compute capacity. *)
      for l = 0 to kk - 1 do
        let terms = ref [] in
        for k = 0 to kk - 1 do
          match vars.(k).(l) with
          | Some v -> terms := (v, F.one) :: !terms
          | None -> ()
        done;
        if !terms <> [] then M.add_le m !terms (F.of_float (P.speed p l))
      done;
      (* Equation 7c: per-cluster local link, outgoing plus incoming. *)
      for k = 0 to kk - 1 do
        let terms = ref [] in
        for l = 0 to kk - 1 do
          if l <> k then begin
            (match vars.(k).(l) with
             | Some v -> terms := (v, F.one) :: !terms
             | None -> ());
            match vars.(l).(k) with
            | Some v -> terms := (v, F.one) :: !terms
            | None -> ()
          end
        done;
        if !terms <> [] then M.add_le m !terms (F.of_float (P.local_bw p k))
      done;
      (* Equation 7d with betas eliminated: each unpinned crossing pair
         charges alpha/g slots; each pinned pair charges the constant v. *)
      let infeasible = ref None in
      for link = 0 to P.num_backbones p - 1 do
        let terms = ref [] in
        let rhs = ref (F.of_int (P.backbone p link).P.max_connect) in
        List.iter
          (fun (k, l) ->
            match vars.(k).(l) with
            | None -> ()
            | Some v -> begin
              match Hashtbl.find_opt fixed_tbl (k, l) with
              | Some fixed_v -> rhs := F.sub !rhs (F.of_int fixed_v)
              | None ->
                let g = bottleneck.(k).(l) in
                terms := (v, F.div F.one (F.of_float g)) :: !terms
            end)
          (P.routes_through p link);
        if F.compare !rhs F.zero < 0 then
          infeasible := Some (Printf.sprintf "pinned connections exceed backbone %d" link)
        else if !terms <> [] then M.add_le m !terms !rhs
      done;
      match !infeasible with
      | Some msg -> Failed msg
      | None ->
        (* Objective. *)
        let alpha_terms k =
          List.filter_map
            (fun l -> Option.map (fun v -> (v, F.one)) vars.(k).(l))
            (List.init kk Fun.id)
        in
        (match objective with
         | Sum ->
           let terms =
             List.concat_map
               (fun k ->
                 let pi = F.of_float (Problem.payoff problem k) in
                 List.map (fun (v, _) -> (v, pi)) (alpha_terms k))
               active
           in
           M.set_objective m terms
         | Maxmin ->
           let t = M.add_var ~name:"t" m in
           List.iter
             (fun k ->
               let pi = F.of_float (Problem.payoff problem k) in
               let row =
                 (t, F.one)
                 :: List.map (fun (v, _) -> (v, F.neg pi)) (alpha_terms k)
               in
               M.add_le m row F.zero)
             active;
           M.set_objective m [ (t, F.one) ]);
        let result = solve_model ?max_iterations m in
        (match result.M.status with
         | M.Solver.Optimal ->
           let alpha = Array.make_matrix kk kk F.zero in
           let beta = Array.make_matrix kk kk F.zero in
           for k = 0 to kk - 1 do
             for l = 0 to kk - 1 do
               match vars.(k).(l) with
               | None -> ()
               | Some v ->
                 let a = result.M.value v in
                 alpha.(k).(l) <- a;
                 if k <> l && Float.is_finite bottleneck.(k).(l) then begin
                   match Hashtbl.find_opt fixed_tbl (k, l) with
                   | Some fv -> beta.(k).(l) <- F.of_int fv
                   | None -> beta.(k).(l) <- F.div a (F.of_float bottleneck.(k).(l))
                 end
             done
           done;
           Solution
             { alpha; beta;
               objective_value = result.M.objective;
               iterations = result.M.iterations }
         | M.Solver.Infeasible -> Failed "LP infeasible"
         | M.Solver.Unbounded -> Failed "LP unbounded (malformed problem)"
         | M.Solver.Iteration_limit -> Failed "simplex iteration budget exhausted")
    end
end

module Float_encoder = Encode (Dls_lp.Field.Float)
module Exact_encoder = Encode (Dls_lp.Field.Exact)

(* ------------------------------------------------------------------ *)
(* Incremental (warm-started) float path                               *)
(* ------------------------------------------------------------------ *)

(* LPRR solves K^2 + 1 LPs per platform, each differing from the
   previous only by one newly pinned beta pair.  This handle builds the
   float relaxation once and threads a [Model.Float.incremental] state
   through the pinning loop: a pin tightens the pair's bound row to
   [v * g] and, on every backbone link of its route, deletes the pair's
   [1/g] slot charge and lowers the right-hand side by the constant
   [v].  The matrix layout never changes, so each re-solve warm-starts
   from the previous optimal basis.

   One encoding difference from the cold path: every remote pair gets
   an explicit bound row [alpha_{k,l} <= g_{k,l} * min max-connect over
   the route] up front.  Before the pair is pinned the row is redundant
   (implied by the link rows), so the relaxation is unchanged; pinning
   then only tightens its right-hand side. *)
module Incremental = struct
  module M = Dls_lp.Model.Float
  module Rs = Dls_lp.Revised_simplex

  type pair_info = {
    var : M.var;
    g : float;  (* route bottleneck g_{k,l} *)
    links : int list;  (* deduplicated backbone ids of the route *)
    bound_row : int;
  }

  type handle = {
    kk : int;
    inc : M.incremental option;  (* None when no application is active *)
    vars : M.var option array array;
    bottleneck : float array array;
    pairs : (int * int, pair_info) Hashtbl.t;
    link_row : int array;  (* -1 when the backbone link has no row *)
    compute_row : int array;  (* 7b row per cluster; -1 when absent *)
    local_row : int array;  (* 7c row per cluster; -1 when absent *)
    cap_now : float array;  (* current per-link connection cap *)
    pin_charge : float array;  (* pinned slots already charged per link *)
    pinned : (int * int, int) Hashtbl.t;
  }

  let create ?(objective = Maxmin) problem =
    let p = Problem.platform problem in
    let kk = P.num_clusters p in
    let active = Problem.active problem in
    let vars = Array.make_matrix kk kk None in
    let bottleneck = Array.make_matrix kk kk infinity in
    let pairs = Hashtbl.create 64 in
    let link_row = Array.make (P.num_backbones p) (-1) in
    let compute_row = Array.make kk (-1) in
    let local_row = Array.make kk (-1) in
    let cap_now =
      Array.init (P.num_backbones p) (fun link ->
          float_of_int (P.backbone p link).P.max_connect)
    in
    let pin_charge = Array.make (P.num_backbones p) 0.0 in
    let pinned = Hashtbl.create 64 in
    if active = [] then
      { kk; inc = None; vars; bottleneck; pairs; link_row; compute_row;
        local_row; cap_now; pin_charge; pinned }
    else begin
      let m = M.create () in
      List.iter
        (fun k ->
          for l = 0 to kk - 1 do
            let admissible =
              if l = k then true
              else (match P.route p k l with Some _ -> true | None -> false)
            in
            if admissible then begin
              let v = M.add_var ~name:(Printf.sprintf "a_%d_%d" k l) m in
              vars.(k).(l) <- Some v;
              if l <> k then begin
                match P.route_bottleneck p k l with
                | Some bw -> bottleneck.(k).(l) <- bw
                | None -> assert false
              end
            end
          done)
        active;
      (* Equation 7b: per-cluster compute capacity. *)
      for l = 0 to kk - 1 do
        let terms = ref [] in
        for k = 0 to kk - 1 do
          match vars.(k).(l) with
          | Some v -> terms := (v, 1.0) :: !terms
          | None -> ()
        done;
        if !terms <> [] then begin
          compute_row.(l) <- M.num_constraints m;
          M.add_le m !terms (P.speed p l)
        end
      done;
      (* Equation 7c: per-cluster local link, outgoing plus incoming. *)
      for k = 0 to kk - 1 do
        let terms = ref [] in
        for l = 0 to kk - 1 do
          if l <> k then begin
            (match vars.(k).(l) with
             | Some v -> terms := (v, 1.0) :: !terms
             | None -> ());
            match vars.(l).(k) with
            | Some v -> terms := (v, 1.0) :: !terms
            | None -> ()
          end
        done;
        if !terms <> [] then begin
          local_row.(k) <- M.num_constraints m;
          M.add_le m !terms (P.local_bw p k)
        end
      done;
      (* Equation 7d with betas eliminated: each crossing pair charges
         alpha/g connection slots. *)
      for link = 0 to P.num_backbones p - 1 do
        let terms = ref [] in
        List.iter
          (fun (k, l) ->
            match vars.(k).(l) with
            | None -> ()
            | Some v -> terms := (v, 1.0 /. bottleneck.(k).(l)) :: !terms)
          (P.routes_through p link);
        if !terms <> [] then begin
          link_row.(link) <- M.num_constraints m;
          M.add_le m !terms (float_of_int (P.backbone p link).P.max_connect)
        end
      done;
      (* Per-pair bound rows (redundant until the pair is pinned). *)
      List.iter
        (fun (k, l) ->
          match (vars.(k).(l), P.route p k l) with
          | Some var, Some (_ :: _ as route) ->
            let links = List.sort_uniq compare route in
            let g = bottleneck.(k).(l) in
            let min_maxcon =
              List.fold_left
                (fun acc link ->
                  Stdlib.min acc (P.backbone p link).P.max_connect)
                max_int links
            in
            let bound_row = M.num_constraints m in
            M.add_le m [ (var, 1.0) ] (g *. float_of_int min_maxcon);
            Hashtbl.replace pairs (k, l) { var; g; links; bound_row }
          | _ -> assert false)
        (remote_pairs problem);
      (* Objective. *)
      let alpha_terms k =
        List.filter_map
          (fun l -> Option.map (fun v -> (v, 1.0)) vars.(k).(l))
          (List.init kk Fun.id)
      in
      (match objective with
       | Sum ->
         let terms =
           List.concat_map
             (fun k ->
               let pi = Problem.payoff problem k in
               List.map (fun (v, _) -> (v, pi)) (alpha_terms k))
             active
         in
         M.set_objective m terms
       | Maxmin ->
         let t = M.add_var ~name:"t" m in
         List.iter
           (fun k ->
             let pi = Problem.payoff problem k in
             let row =
               (t, 1.0) :: List.map (fun (v, _) -> (v, -.pi)) (alpha_terms k)
             in
             M.add_le m row 0.0)
           active;
         M.set_objective m [ (t, 1.0) ]);
      { kk; inc = Some (M.incremental m); vars; bottleneck; pairs;
        link_row; compute_row; local_row; cap_now; pin_charge; pinned }
    end

  let pin h (k, l) v =
    if v < 0 then invalid_arg "Lp_relax.Incremental.pin: negative fixed beta";
    match Hashtbl.find_opt h.pairs (k, l) with
    | None ->
      invalid_arg "Lp_relax.Incremental.pin: fixed beta on a non-remote pair"
    | Some info ->
      if Hashtbl.mem h.pinned (k, l) then
        invalid_arg "Lp_relax.Incremental.pin: pair already pinned";
      let inc = match h.inc with Some i -> i | None -> assert false in
      let overfull =
        List.find_opt
          (fun link ->
            h.link_row.(link) >= 0
            && M.inc_rhs inc ~row:h.link_row.(link) < float_of_int v)
          info.links
      in
      (match overfull with
       | Some link ->
         Error (Printf.sprintf "pinned connections exceed backbone %d" link)
       | None ->
         Hashtbl.replace h.pinned (k, l) v;
         M.inc_set_rhs inc ~row:info.bound_row (float_of_int v *. info.g);
         List.iter
           (fun link ->
             if h.link_row.(link) >= 0 then begin
               let row = h.link_row.(link) in
               M.inc_zero_coeff inc ~row info.var;
               M.inc_set_rhs inc ~row (M.inc_rhs inc ~row -. float_of_int v);
               h.pin_charge.(link) <- h.pin_charge.(link) +. float_of_int v
             end)
           info.links;
         Ok ())

  let pinned h = Hashtbl.fold (fun pair v acc -> (pair, v) :: acc) h.pinned []

  (* Capacity edits (daemon warm path): pure right-hand-side updates
     that keep the matrix layout — and hence the carried basis — valid.
     Every setter takes the new *absolute* capacity of the degraded
     platform, not a delta, so replaying the same mutation log always
     lands the handle in the same state. *)

  let set_speed h ~cluster v =
    if cluster < 0 || cluster >= h.kk then
      invalid_arg "Lp_relax.Incremental.set_speed: cluster out of range";
    if not (Float.is_finite v) || v < 0.0 then
      invalid_arg "Lp_relax.Incremental.set_speed: invalid speed";
    match h.inc with
    | None -> ()
    | Some inc ->
      if h.compute_row.(cluster) >= 0 then
        M.inc_set_rhs inc ~row:h.compute_row.(cluster) v

  let set_local_bw h ~cluster v =
    if cluster < 0 || cluster >= h.kk then
      invalid_arg "Lp_relax.Incremental.set_local_bw: cluster out of range";
    if not (Float.is_finite v) || v < 0.0 then
      invalid_arg "Lp_relax.Incremental.set_local_bw: invalid bandwidth";
    match h.inc with
    | None -> ()
    | Some inc ->
      if h.local_row.(cluster) >= 0 then
        M.inc_set_rhs inc ~row:h.local_row.(cluster) v

  let set_max_connect h ~link n =
    if link < 0 || link >= Array.length h.cap_now then
      invalid_arg "Lp_relax.Incremental.set_max_connect: link out of range";
    if n < 0 then
      invalid_arg "Lp_relax.Incremental.set_max_connect: negative cap";
    match h.inc with
    | None -> h.cap_now.(link) <- float_of_int n
    | Some inc ->
      h.cap_now.(link) <- float_of_int n;
      if h.link_row.(link) >= 0 then
        M.inc_set_rhs inc ~row:h.link_row.(link)
          (Float.max 0.0 (float_of_int n -. h.pin_charge.(link)));
      (* The per-pair bound rows were encoded as [g * min max-connect
         over the route]; re-derive them from the current caps so they
         stay redundant even when a cap is *raised* past its build-time
         value (otherwise the warm optimum could be over-constrained
         relative to a cold rebuild). *)
      Hashtbl.iter
        (fun pair info ->
          if List.mem link info.links && not (Hashtbl.mem h.pinned pair) then begin
            let min_cap =
              List.fold_left
                (fun acc l -> Float.min acc h.cap_now.(l))
                infinity info.links
            in
            M.inc_set_rhs inc ~row:info.bound_row
              (Float.max 0.0 (info.g *. min_cap))
          end)
        h.pairs

  let solve ?max_iterations h =
    match h.inc with
    | None ->
      Solution
        { alpha = Array.make_matrix h.kk h.kk 0.0;
          beta = Array.make_matrix h.kk h.kk 0.0;
          objective_value = 0.0;
          iterations = 0 }
    | Some inc ->
      let result = M.inc_solve ?max_iterations inc in
      (match result.M.status with
       | M.Solver.Optimal ->
         let alpha = Array.make_matrix h.kk h.kk 0.0 in
         let beta = Array.make_matrix h.kk h.kk 0.0 in
         for k = 0 to h.kk - 1 do
           for l = 0 to h.kk - 1 do
             match h.vars.(k).(l) with
             | None -> ()
             | Some v ->
               let a = result.M.value v in
               alpha.(k).(l) <- a;
               if k <> l && Float.is_finite h.bottleneck.(k).(l) then begin
                 match Hashtbl.find_opt h.pinned (k, l) with
                 | Some fv -> beta.(k).(l) <- float_of_int fv
                 | None -> beta.(k).(l) <- a /. h.bottleneck.(k).(l)
               end
           done
         done;
         Solution
           { alpha; beta;
             objective_value = result.M.objective;
             iterations = result.M.iterations }
       | M.Solver.Infeasible -> Failed "LP infeasible"
       | M.Solver.Unbounded -> Failed "LP unbounded (malformed problem)"
       | M.Solver.Iteration_limit -> Failed "simplex iteration budget exhausted")

  let counters h =
    match h.inc with
    | Some inc -> M.inc_counters inc
    | None ->
      { Rs.solves = 0; warm_starts = 0; cold_starts = 0; pivots = 0;
        reinversions = 0; bland_activations = 0; wall_clock = 0.0 }
end

let solve ?objective ?fixed ?max_iterations problem =
  Float_encoder.solve ~solver:Dls_lp.Model.Float.solve_auto ?objective ?fixed
    ?max_iterations problem

let solve_exact ?objective ?fixed ?max_iterations problem =
  Exact_encoder.solve ?objective ?fixed ?max_iterations problem
