(* An independent checker of the steady-state constraints (7a)-(7g) of
   Marchal, Yang, Casanova and Robert, written from the paper rather than
   from the library's own checker.  It sees only capacities, fixed
   routes and payoffs — built here from the generated platform and from
   the edits the benchmark itself sent — and the (alpha, beta) matrices
   under test.

     (7a)  alpha(k,l) >= 0 and beta(k,l) a non-negative integer
     (7b)  sum_k alpha(k,l) <= s_l                       compute at C^l
     (7c)  sum_{l<>k} alpha(k,l) + alpha(l,k) <= g_k     local link of C^k
     (7d)  sum over routes through link i of beta <= max-connect(i)
     (7e)  alpha(k,l) <= beta(k,l) * min over L_{k,l} of bw(i)
     (7f)  work leaves C^k only for an application of C^k (payoff > 0),
           and only along an existing route
     (7g)  the objective is recomputed from alpha:
           SUM = sum_k pi_k alpha_k, MAXMIN = min over applications *)

module P = Dls_platform.Platform

let close = Common.close

type caps = {
  speed : float array;
  local_bw : float array;
  bw : float array;  (* per-connection bandwidth of each backbone link *)
  max_connect : int array;
  routes : int list option array array;  (* L_{k,l}; Some [] when local *)
  payoff : float array;
}

let of_platform platform ~payoff =
  let k = P.num_clusters platform in
  let nb = P.num_backbones platform in
  {
    speed = Array.init k (P.speed platform);
    local_bw = Array.init k (P.local_bw platform);
    bw = Array.init nb (fun i -> (P.backbone platform i).P.bw);
    max_connect = Array.init nb (fun i -> (P.backbone platform i).P.max_connect);
    routes = Array.init k (fun a -> Array.init k (fun b -> P.route platform a b));
    payoff = Array.copy payoff;
  }

let copy c =
  { c with
    speed = Array.copy c.speed;
    local_bw = Array.copy c.local_bw;
    max_connect = Array.copy c.max_connect;
    payoff = Array.copy c.payoff }

(* A stable key of the mutable capacities, to share LP bounds between
   replies computed on identical states. *)
let key c =
  String.concat ","
    (List.map (Printf.sprintf "%h") (Array.to_list c.speed)
    @ List.map string_of_int (Array.to_list c.max_connect)
    @ List.map (Printf.sprintf "%h") (Array.to_list c.payoff))

(* The platform these capacities describe, for the LP bound. *)
let to_platform nominal c =
  let clusters =
    Array.init (P.num_clusters nominal) (fun k ->
        { (P.cluster nominal k) with P.speed = c.speed.(k); local_bw = c.local_bw.(k) })
  in
  let backbones =
    Array.init (P.num_backbones nominal) (fun i ->
        { (P.backbone nominal i) with P.max_connect = c.max_connect.(i) })
  in
  P.make ~clusters ~topology:(P.topology nominal) ~backbones

let throughput alpha k = Array.fold_left ( +. ) 0.0 alpha.(k)

let objective c obj alpha =
  let n = Array.length c.payoff in
  match obj with
  | `Sum ->
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      s := !s +. (c.payoff.(k) *. throughput alpha k)
    done;
    !s
  | `Maxmin ->
    let m = ref infinity in
    for k = 0 to n - 1 do
      if c.payoff.(k) > 0.0 then m := Float.min !m (c.payoff.(k) *. throughput alpha k)
    done;
    if !m = infinity then 0.0 else !m

(* Violations of (7a)-(7f), as readable strings; [] when feasible. *)
let check ?(eps = 1e-6) c ~alpha ~beta =
  let n = Array.length c.speed in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let over x cap = x > cap +. (eps *. Float.max 1.0 (Float.abs cap)) in
  if Array.length alpha <> n || Array.length beta <> n then err "matrix size <> K"
  else begin
    let used = Array.make (Array.length c.max_connect) 0 in
    for k = 0 to n - 1 do
      for l = 0 to n - 1 do
        let a = alpha.(k).(l) and b = beta.(k).(l) in
        if a < -.eps || Float.is_nan a then err "7a: alpha(%d,%d) = %g" k l a;
        if b < 0 then err "7a: beta(%d,%d) = %d" k l b;
        if a > eps && c.payoff.(k) <= 0.0 then err "7f: cluster %d has no application" k;
        if k <> l then
          match c.routes.(k).(l) with
          | None -> if a > eps || b > 0 then err "7f: no route %d->%d" k l
          | Some [] -> ()
          | Some links ->
            List.iter (fun i -> used.(i) <- used.(i) + b) links;
            let g = List.fold_left (fun m i -> Float.min m c.bw.(i)) infinity links in
            if over a (float_of_int b *. g) then
              err "7e: alpha(%d,%d) = %g > %d x %g" k l a b g
      done
    done;
    Array.iteri
      (fun i u -> if u > c.max_connect.(i) then err "7d: link %d carries %d > %d" i u c.max_connect.(i))
      used;
    for l = 0 to n - 1 do
      let load = ref 0.0 in
      for k = 0 to n - 1 do
        load := !load +. alpha.(k).(l)
      done;
      if over !load c.speed.(l) then err "7b: cluster %d computes %g > %g" l !load c.speed.(l)
    done;
    for k = 0 to n - 1 do
      let t = ref 0.0 in
      for l = 0 to n - 1 do
        if l <> k then t := !t +. alpha.(k).(l) +. alpha.(l).(k)
      done;
      if over !t c.local_bw.(k) then err "7c: cluster %d local link %g > %g" k !t c.local_bw.(k)
    done
  end;
  List.rev !errs

(* Everything a reported allocation must satisfy: feasibility, the
   reported objective recomputed from alpha, and the LP upper bound. *)
let verify c ~obj ~alpha ~beta ~reported ~lp_bound =
  let errs = check c ~alpha ~beta in
  let mine = objective c obj alpha in
  let errs =
    if close ~rel:1e-9 mine reported then errs
    else Printf.sprintf "objective %.17g, recomputed %.17g" reported mine :: errs
  in
  if reported > lp_bound *. (1.0 +. 1e-6) +. 1e-9 then
    Printf.sprintf "objective %.17g above the LP bound %.17g" reported lp_bound :: errs
  else errs

(* The checker must not be vacuous: a feasible allocation pushed past a
   compute capacity, and past a connection cap, must both be rejected.
   Returns true when both perturbations are caught (or when the
   allocation ships nothing remote, for the connection case). *)
let rejects_perturbations c ~alpha ~beta =
  let n = Array.length alpha in
  let app = ref (-1) in
  Array.iteri (fun k p -> if p > 0.0 && !app < 0 then app := k) c.payoff;
  if !app < 0 then false
  else begin
    let k = !app in
    let a1 = Array.map Array.copy alpha in
    a1.(k).(k) <- a1.(k).(k) +. c.speed.(k) +. 1.0;
    let cpu_caught = check c ~alpha:a1 ~beta <> [] in
    let link_caught =
      let found = ref None in
      for k = 0 to n - 1 do
        for l = 0 to n - 1 do
          match c.routes.(k).(l) with
          | Some (i :: _) when !found = None && beta.(k).(l) > 0 -> found := Some (k, l, i)
          | _ -> ()
        done
      done;
      match !found with
      | None -> true
      | Some (k, l, i) ->
        let b1 = Array.map Array.copy beta in
        b1.(k).(l) <- b1.(k).(l) + c.max_connect.(i) + 1;
        check c ~alpha ~beta:b1 <> []
    in
    cpu_caught && link_caught
  end
