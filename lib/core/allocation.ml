module P = Dls_platform.Platform

type t = { alpha : float array array; beta : int array array }

let zero k = { alpha = Array.make_matrix k k 0.0; beta = Array.make_matrix k k 0 }

let copy t =
  { alpha = Array.map Array.copy t.alpha; beta = Array.map Array.copy t.beta }

let app_throughput t k = Array.fold_left ( +. ) 0.0 t.alpha.(k)

let total_throughput t =
  Array.fold_left (fun acc row -> acc +. Array.fold_left ( +. ) 0.0 row) 0.0
    t.alpha

let sum_objective problem t =
  let acc = ref 0.0 in
  for k = 0 to Problem.num_clusters problem - 1 do
    acc := !acc +. (Problem.payoff problem k *. app_throughput t k)
  done;
  !acc

let maxmin_objective problem t =
  match Problem.active problem with
  | [] -> 0.0
  | active ->
    List.fold_left
      (fun acc k ->
        Float.min acc (Problem.payoff problem k *. app_throughput t k))
      infinity active

let objective obj problem t =
  match obj with
  | `Sum -> sum_objective problem t
  | `Maxmin -> maxmin_objective problem t

type violation =
  | Negative_alpha of int * int
  | Negative_beta of int * int
  | Cpu_exceeded of int
  | Local_link_exceeded of int
  | Connections_exceeded of int
  | Bandwidth_exceeded of int * int
  | No_route of int * int
  | Inactive_sender of int

let pp_violation fmt = function
  | Negative_alpha (k, l) -> Format.fprintf fmt "alpha(%d,%d) < 0" k l
  | Negative_beta (k, l) -> Format.fprintf fmt "beta(%d,%d) < 0" k l
  | Cpu_exceeded k -> Format.fprintf fmt "CPU capacity exceeded at cluster %d (Eq. 1)" k
  | Local_link_exceeded k ->
    Format.fprintf fmt "local link capacity exceeded at cluster %d (Eq. 2)" k
  | Connections_exceeded i ->
    Format.fprintf fmt "connection cap exceeded on backbone %d (Eq. 3)" i
  | Bandwidth_exceeded (k, l) ->
    Format.fprintf fmt "route bandwidth exceeded from %d to %d (Eq. 4)" k l
  | No_route (k, l) ->
    Format.fprintf fmt "work shipped from %d to %d but no route exists" k l
  | Inactive_sender k ->
    Format.fprintf fmt "cluster %d ships work but its payoff is 0" k

let check ?(eps = 1e-6) problem t =
  let p = Problem.platform problem in
  let kk = P.num_clusters p in
  if Array.length t.alpha <> kk || Array.length t.beta <> kk then
    invalid_arg "Allocation.check: matrix size differs from cluster count";
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let tol rhs = eps *. Float.max 1.0 (Float.abs rhs) in
  (* Signs, activity, and route existence. *)
  for k = 0 to kk - 1 do
    for l = 0 to kk - 1 do
      if t.alpha.(k).(l) < -.eps then add (Negative_alpha (k, l));
      if t.beta.(k).(l) < 0 then add (Negative_beta (k, l));
      if t.alpha.(k).(l) > eps then begin
        if not (Problem.is_active problem k) then add (Inactive_sender k);
        if k <> l && P.route p k l = None then add (No_route (k, l))
      end
    done
  done;
  (* Equation 1: per-cluster compute capacity. *)
  for l = 0 to kk - 1 do
    let load = ref 0.0 in
    for k = 0 to kk - 1 do
      load := !load +. t.alpha.(k).(l)
    done;
    let s = P.speed p l in
    if !load > s +. tol s then add (Cpu_exceeded l)
  done;
  (* Equation 2: local serial link, outgoing plus incoming remote work. *)
  for k = 0 to kk - 1 do
    let traffic = ref 0.0 in
    for l = 0 to kk - 1 do
      if l <> k then traffic := !traffic +. t.alpha.(k).(l) +. t.alpha.(l).(k)
    done;
    let g = P.local_bw p k in
    if !traffic > g +. tol g then add (Local_link_exceeded k)
  done;
  (* Equation 3: per-backbone connection cap. *)
  for link = 0 to P.num_backbones p - 1 do
    let used =
      List.fold_left
        (fun acc (k, l) -> acc + t.beta.(k).(l))
        0 (P.routes_through p link)
    in
    if used > (P.backbone p link).P.max_connect then add (Connections_exceeded link)
  done;
  (* Equation 4: per-route bandwidth alpha <= beta * min bw. *)
  for k = 0 to kk - 1 do
    for l = 0 to kk - 1 do
      if k <> l && t.alpha.(k).(l) > eps then begin
        match P.route_bottleneck p k l with
        | None -> ()  (* reported as No_route above *)
        | Some bw when bw = infinity -> ()  (* co-located: no backbone crossed *)
        | Some bw ->
          let cap = float_of_int t.beta.(k).(l) *. bw in
          if t.alpha.(k).(l) > cap +. tol cap then add (Bandwidth_exceeded (k, l))
      end
    done
  done;
  List.rev !violations

let is_feasible ?eps problem t = check ?eps problem t = []

let pp fmt t =
  Format.fprintf fmt "@[<v>allocation:@,";
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun l a ->
          if a > 0.0 || t.beta.(k).(l) > 0 then
            Format.fprintf fmt "  alpha(%d,%d)=%g beta=%d@," k l a t.beta.(k).(l))
        row)
    t.alpha;
  Format.fprintf fmt "@]"
