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
     Each capacity row's index is kept (-1 when the row is not
     emitted), so the incremental handle can edit it in place. *)
  type layout = {
    kk : int;
    vars : M.var option array array;
    bottleneck : float array array;  (* route bottleneck g_{k,l} *)
    compute_row : int array;  (* 7b row per cluster *)
    local_row : int array;  (* 7c row per cluster *)
    link_row : int array;  (* 7d row per backbone link *)
  }

  let zero_solution kk =
    { alpha = Array.make_matrix kk kk F.zero;
      beta = Array.make_matrix kk kk F.zero;
      objective_value = F.zero;
      iterations = 0 }

  (* The variables, then rows 7b, 7c and 7d, then one pin row
     [alpha <= v * g] per pinned pair in [remote_pairs] order.  [pinned]
     maps a remote pair to its fixed connection count.  [Error] when the
     pins overfill a backbone link. *)
  let capacity_rows m problem ~pinned =
    let p = Problem.platform problem in
    let kk = P.num_clusters p in
    let vars = Array.make_matrix kk kk None in
    let bottleneck = Array.make_matrix kk kk infinity in
    let add_row terms rhs =
      if terms = [] then -1
      else begin
        let row = M.num_constraints m in
        M.add_le m terms rhs;
        row
      end
    in
    List.iter
      (fun k ->
        for l = 0 to kk - 1 do
          let admissible =
            if l = k then true
            else (
              match P.route p k l with Some _ -> true | None -> false)
          in
          if admissible then begin
            let v = M.add_var m in
            vars.(k).(l) <- Some v;
            if l <> k then begin
              match P.route_bottleneck p k l with
              | Some bw -> bottleneck.(k).(l) <- bw
              | None -> assert false
            end
          end
        done)
      (Problem.active problem);
    (* Equation 7b: per-cluster compute capacity. *)
    let compute_row =
      Array.init kk (fun l ->
          let terms = ref [] in
          for k = 0 to kk - 1 do
            match vars.(k).(l) with
            | Some v -> terms := (v, F.one) :: !terms
            | None -> ()
          done;
          add_row !terms (F.of_float (P.speed p l)))
    in
    (* Equation 7c: per-cluster local link, outgoing plus incoming. *)
    let local_row =
      Array.init kk (fun k ->
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
          add_row !terms (F.of_float (P.local_bw p k)))
    in
    (* Equation 7d with betas eliminated: each unpinned crossing pair
       charges alpha/g slots; each pinned pair charges the constant v. *)
    let infeasible = ref None in
    let link_row =
      Array.init (P.num_backbones p) (fun link ->
          let terms = ref [] in
          let rhs = ref (F.of_int (P.backbone p link).P.max_connect) in
          List.iter
            (fun (k, l) ->
              match vars.(k).(l) with
              | None -> ()
              | Some v -> begin
                match Hashtbl.find_opt pinned (k, l) with
                | Some fixed_v -> rhs := F.sub !rhs (F.of_int fixed_v)
                | None ->
                  let g = bottleneck.(k).(l) in
                  terms := (v, F.div F.one (F.of_float g)) :: !terms
              end)
            (P.routes_through p link);
          if F.compare !rhs F.zero < 0 then begin
            infeasible :=
              Some (Printf.sprintf "pinned connections exceed backbone %d" link);
            -1
          end
          else add_row !terms !rhs)
    in
    (* Pin rows, where the incremental handle keeps its per-pair bound
       rows. *)
    if Hashtbl.length pinned > 0 then begin
      let pins = List.filter (Hashtbl.mem pinned) (remote_pairs problem) in
      if List.length pins <> Hashtbl.length pinned then
        invalid_arg "Lp_relax: fixed beta on a pair without a backbone route";
      List.iter
        (fun (k, l) ->
          M.add_le m
            [ (Option.get vars.(k).(l), F.one) ]
            (F.mul (F.of_int (Hashtbl.find pinned (k, l)))
               (F.of_float bottleneck.(k).(l))))
        pins
    end;
    match !infeasible with
    | Some msg -> Error msg
    | None -> Ok { kk; vars; bottleneck; compute_row; local_row; link_row }

  (* Objective.  MAXMIN's rows come after every row added so far. *)
  let set_objective m layout problem objective =
    let active = Problem.active problem in
    let alpha_terms k =
      List.filter_map
        (fun l -> Option.map (fun v -> (v, F.one)) layout.vars.(k).(l))
        (List.init layout.kk Fun.id)
    in
    match objective with
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
      let t = M.add_var m in
      List.iter
        (fun k ->
          let pi = F.of_float (Problem.payoff problem k) in
          let row =
            (t, F.one) :: List.map (fun (v, _) -> (v, F.neg pi)) (alpha_terms k)
          in
          M.add_le m row F.zero)
        active;
      M.set_objective m [ (t, F.one) ]

  (* The cold model under [fixed]: [Error] carries the outcome when no
     solve is needed (no active application, or overfull pins). *)
  let encode ?(objective = Maxmin) ?(fixed = []) problem =
    if Problem.active problem = [] then
      Error (Solution (zero_solution (Problem.num_clusters problem)))
    else begin
      let pinned = Hashtbl.create 16 in
      List.iter
        (fun ((k, l), v) ->
          if v < 0 then invalid_arg "Lp_relax: negative fixed beta";
          Hashtbl.replace pinned (k, l) v)
        fixed;
      let m = M.create () in
      match capacity_rows m problem ~pinned with
      | Error msg -> Error (Failed msg)
      | Ok layout ->
        set_objective m layout problem objective;
        Ok (m, layout, pinned)
    end

  (* Alpha from the solver's values; beta is the pinned count, or
     alpha/g on an unpinned remote pair. *)
  let extract layout ~pinned (result : M.result) =
    match result.M.status with
    | M.Solver.Optimal ->
      let kk = layout.kk in
      let alpha = Array.make_matrix kk kk F.zero in
      let beta = Array.make_matrix kk kk F.zero in
      for k = 0 to kk - 1 do
        for l = 0 to kk - 1 do
          match layout.vars.(k).(l) with
          | None -> ()
          | Some v ->
            let a = result.M.value v in
            alpha.(k).(l) <- a;
            let g = layout.bottleneck.(k).(l) in
            if k <> l && Float.is_finite g then begin
              match Hashtbl.find_opt pinned (k, l) with
              | Some fv -> beta.(k).(l) <- F.of_int fv
              | None -> beta.(k).(l) <- F.div a (F.of_float g)
            end
        done
      done;
      Solution
        { alpha; beta;
          objective_value = result.M.objective;
          iterations = result.M.iterations }
    | M.Solver.Infeasible -> Failed "LP infeasible"
    | M.Solver.Unbounded -> Failed "LP unbounded (malformed problem)"
    | M.Solver.Iteration_limit -> Failed "simplex iteration budget exhausted"
end

module Float_encoder = Encode (Dls_lp.Field.Float)
module Exact_encoder = Encode (Dls_lp.Field.Exact)

let solve ?objective ?fixed ?max_iterations problem =
  match Float_encoder.encode ?objective ?fixed problem with
  | Error outcome -> outcome
  | Ok (m, layout, pinned) ->
    Float_encoder.extract layout ~pinned
      (Dls_lp.Model.Float.solve_packed ?max_iterations m)

let solve_exact ?objective ?max_iterations problem =
  match Exact_encoder.encode ?objective problem with
  | Error outcome -> outcome
  | Ok (m, layout, pinned) ->
    Exact_encoder.extract layout ~pinned
      (Exact_encoder.M.solve ?max_iterations m)

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

   The model is the cold path's, built by the same encoder, plus one
   explicit bound row per remote pair, [alpha_{k,l} <= g_{k,l} * min
   max-connect over the route], between the 7d rows and the MAXMIN
   rows.  Before the pair is pinned the row is redundant (implied by
   the link rows), so the relaxation is unchanged; pinning then only
   tightens its right-hand side. *)
module Incremental = struct
  module M = Dls_lp.Model.Float

  type pair_info = {
    links : int list;  (* deduplicated backbone ids of the route *)
    bound_row : int;
  }

  type handle = {
    layout : Float_encoder.layout;  (* variables and capacity rows *)
    inc : M.incremental option;  (* None when no application is active *)
    pairs : (int * int, pair_info) Hashtbl.t;
    cap_now : float array;  (* current per-link connection cap *)
    pin_charge : float array;  (* pinned slots already charged per link *)
    pinned : (int * int, int) Hashtbl.t;
  }

  let create ?(objective = Maxmin) problem =
    let p = Problem.platform problem in
    let pairs = Hashtbl.create 64 in
    let cap_now =
      Array.init (P.num_backbones p) (fun link ->
          float_of_int (P.backbone p link).P.max_connect)
    in
    let pin_charge = Array.make (P.num_backbones p) 0.0 in
    let pinned = Hashtbl.create 64 in
    let m = M.create () in
    let layout =
      match Float_encoder.capacity_rows m problem ~pinned with
      | Ok layout -> layout
      | Error _ -> assert false (* nothing is pinned yet *)
    in
    let handle inc = { layout; inc; pairs; cap_now; pin_charge; pinned } in
    if Problem.active problem = [] then handle None
    else begin
      (* Per-pair bound rows (redundant until the pair is pinned). *)
      List.iter
        (fun (k, l) ->
          match (layout.vars.(k).(l), P.route p k l) with
          | Some var, Some (_ :: _ as route) ->
            let links = List.sort_uniq compare route in
            let min_maxcon =
              List.fold_left
                (fun acc link ->
                  Stdlib.min acc (P.backbone p link).P.max_connect)
                max_int links
            in
            let bound_row = M.num_constraints m in
            M.add_le m [ (var, 1.0) ]
              (layout.bottleneck.(k).(l) *. float_of_int min_maxcon);
            Hashtbl.replace pairs (k, l) { links; bound_row }
          | _ -> assert false)
        (remote_pairs problem);
      Float_encoder.set_objective m layout problem objective;
      handle (Some (M.incremental m))
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
            h.layout.link_row.(link) >= 0
            && M.inc_rhs inc ~row:h.layout.link_row.(link) < float_of_int v)
          info.links
      in
      (match overfull with
       | Some link ->
         Error (Printf.sprintf "pinned connections exceed backbone %d" link)
       | None ->
         Hashtbl.replace h.pinned (k, l) v;
         M.inc_set_rhs inc ~row:info.bound_row
           (float_of_int v *. h.layout.bottleneck.(k).(l));
         let var = Option.get h.layout.vars.(k).(l) in
         List.iter
           (fun link ->
             if h.layout.link_row.(link) >= 0 then begin
               let row = h.layout.link_row.(link) in
               M.inc_zero_coeff inc ~row var;
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
    if cluster < 0 || cluster >= h.layout.kk then
      invalid_arg "Lp_relax.Incremental.set_speed: cluster out of range";
    if not (Float.is_finite v) || v < 0.0 then
      invalid_arg "Lp_relax.Incremental.set_speed: invalid speed";
    match h.inc with
    | None -> ()
    | Some inc ->
      if h.layout.compute_row.(cluster) >= 0 then
        M.inc_set_rhs inc ~row:h.layout.compute_row.(cluster) v

  let set_local_bw h ~cluster v =
    if cluster < 0 || cluster >= h.layout.kk then
      invalid_arg "Lp_relax.Incremental.set_local_bw: cluster out of range";
    if not (Float.is_finite v) || v < 0.0 then
      invalid_arg "Lp_relax.Incremental.set_local_bw: invalid bandwidth";
    match h.inc with
    | None -> ()
    | Some inc ->
      if h.layout.local_row.(cluster) >= 0 then
        M.inc_set_rhs inc ~row:h.layout.local_row.(cluster) v

  let set_max_connect h ~link n =
    if link < 0 || link >= Array.length h.cap_now then
      invalid_arg "Lp_relax.Incremental.set_max_connect: link out of range";
    if n < 0 then
      invalid_arg "Lp_relax.Incremental.set_max_connect: negative cap";
    match h.inc with
    | None -> h.cap_now.(link) <- float_of_int n
    | Some inc ->
      h.cap_now.(link) <- float_of_int n;
      if h.layout.link_row.(link) >= 0 then
        M.inc_set_rhs inc ~row:h.layout.link_row.(link)
          (Float.max 0.0 (float_of_int n -. h.pin_charge.(link)));
      (* The per-pair bound rows were encoded as [g * min max-connect
         over the route]; re-derive them from the current caps so they
         stay redundant even when a cap is *raised* past its build-time
         value (otherwise the warm optimum could be over-constrained
         relative to a cold rebuild). *)
      Hashtbl.iter
        (fun (k, l) info ->
          if List.mem link info.links && not (Hashtbl.mem h.pinned (k, l)) then begin
            let min_cap =
              List.fold_left
                (fun acc l -> Float.min acc h.cap_now.(l))
                infinity info.links
            in
            M.inc_set_rhs inc ~row:info.bound_row
              (Float.max 0.0 (h.layout.bottleneck.(k).(l) *. min_cap))
          end)
        h.pairs

  let solve ?max_iterations h =
    match h.inc with
    | None -> Solution (Float_encoder.zero_solution h.layout.kk)
    | Some inc ->
      Float_encoder.extract h.layout ~pinned:h.pinned
        (M.inc_solve ?max_iterations inc)

  let counters h =
    match h.inc with
    | Some inc -> M.inc_counters inc
    | None -> Dls_lp.Revised_simplex.zero_counters
end
