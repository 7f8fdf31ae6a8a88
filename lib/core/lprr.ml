module P = Dls_platform.Platform
module Prng = Dls_util.Prng
module Rs = Dls_lp.Revised_simplex
module M = Dls_obs.Metrics
module Trace = Dls_obs.Trace

let m_rounds = M.counter "lprr.rounds"
let m_upward = M.counter "lprr.upward_rounds"
let m_clamped = M.counter "lprr.clamped_pins"
let m_lp_solves = M.counter "lprr.lp_solves"

type stats = {
  allocation : Allocation.t;
  lp_solves : int;
  upward_rounds : int;
  pin_trace : ((int * int) * int) list;
  lp_objectives : float list;
  counters : Rs.counters;
}

let floor_eps = 1e-9

(* Incremental per-link used-slots table: O(route length) per query
   instead of rescanning every pinned pair through [routes_through] for
   every candidate on every iteration (O(K^4) over a full LPRR run). *)
module Slots = struct
  type t = { problem : Problem.t; used : int array }

  let create problem =
    { problem;
      used = Array.make (P.num_backbones (Problem.platform problem)) 0 }

  (* Routes are paths, but [make_with_routes] overrides could repeat a
     link; count each crossed link once, like [routes_through] does. *)
  let route_links p k l =
    match P.route p k l with
    | None | Some [] -> []
    | Some links -> List.sort_uniq compare links

  let pin t (k, l) v =
    List.iter
      (fun link -> t.used.(link) <- t.used.(link) + v)
      (route_links (Problem.platform t.problem) k l)

  let route_slack t (k, l) =
    let p = Problem.platform t.problem in
    match route_links p k l with
    | [] -> 0
    | links ->
      List.fold_left
        (fun acc link ->
          Stdlib.min acc ((P.backbone p link).P.max_connect - t.used.(link)))
        max_int links
end

(* Reference implementation of the slack computation, quadratic in the
   number of pins: kept for the property test pitting it against the
   incremental table, and for callers holding a bare pin list. *)
let recompute_route_slack problem pins (k, l) =
  let p = Problem.platform problem in
  match P.route p k l with
  | None | Some [] -> 0
  | Some links ->
    List.fold_left
      (fun acc link ->
        let used =
          List.fold_left
            (fun u pair ->
              match List.assoc_opt pair pins with
              | Some v -> u + v
              | None -> u)
            0
            (P.routes_through p link)
        in
        Stdlib.min acc ((P.backbone p link).P.max_connect - used))
      max_int links

(* The rounding loop over one incremental handle, encoded once: each
   re-solve starts from the previous optimal basis. *)
let rounding_loop ~equal_probability ~rng problem handle =
  let slots = Slots.create problem in
  let unfixed = ref (Lp_relax.remote_pairs problem) in
  let lp_solves = ref 0 in
  let upward = ref 0 in
  let trace = ref [] in
  let objectives = ref [] in
  let failure = ref None in
  let finished = ref false in
  let pin pair v =
    match Lp_relax.Incremental.pin handle pair v with
    | Ok () ->
      Slots.pin slots pair v;
      trace := (pair, v) :: !trace
    | Error msg -> failure := Some msg
  in
  while not !finished && !failure = None do
    match Lp_relax.Incremental.solve handle with
    | Lp_relax.Failed msg -> failure := Some msg
    | Lp_relax.Solution sol ->
      incr lp_solves;
      M.incr m_lp_solves;
      objectives := sol.Lp_relax.objective_value :: !objectives;
      let candidates =
        List.filter (fun (k, l) -> sol.Lp_relax.beta.(k).(l) > floor_eps) !unfixed
      in
      (match candidates with
       | [] ->
         (* No live fractional route left: pin the rest to zero. *)
         List.iter (fun pair -> pin pair 0) !unfixed;
         unfixed := [];
         finished := true
       | _ :: _ ->
         let sp = Trace.start ~cat:"heuristic" "lprr.round" in
         M.incr m_rounds;
         let (k, l) = Prng.pick rng (Array.of_list candidates) in
         let b = sol.Lp_relax.beta.(k).(l) in
         let fl = int_of_float (Float.floor (b +. floor_eps)) in
         let frac = Float.max 0.0 (b -. float_of_int fl) in
         let up =
           if equal_probability then Prng.bool rng ~p:0.5
           else Prng.bool rng ~p:frac
         in
         let wanted = if up then fl + 1 else fl in
         (* Feasibility clamp: never pin more slots than the route has. *)
         let v = Stdlib.min wanted (Slots.route_slack slots (k, l)) in
         let v = Stdlib.max v 0 in
         if v < wanted then M.incr m_clamped;
         if up && v = fl + 1 then begin
           incr upward;
           M.incr m_upward
         end;
         pin (k, l) v;
         unfixed := List.filter (fun pair -> pair <> (k, l)) !unfixed;
         if Trace.live sp then
           Trace.finish sp
             ~args:
               [ ("pair", Printf.sprintf "%d->%d" k l);
                 ("rounded", if up then "up" else "down");
                 ("value", string_of_int v) ])
  done;
  match !failure with
  | Some msg -> Error msg
  | None ->
    (* Final solve with every beta pinned gives the alphas. *)
    (match Lp_relax.Incremental.solve handle with
     | Lp_relax.Failed msg -> Error msg
     | Lp_relax.Solution sol ->
       incr lp_solves;
       M.incr m_lp_solves;
       objectives := sol.Lp_relax.objective_value :: !objectives;
       Ok (sol, !lp_solves, !upward, List.rev !trace, List.rev !objectives))

let finish problem (sol, lp_solves, upward, trace, objectives) ~counters =
  let kk = Problem.num_clusters problem in
  let alloc = Allocation.zero kk in
  for k = 0 to kk - 1 do
    for l = 0 to kk - 1 do
      alloc.Allocation.alpha.(k).(l) <- sol.Lp_relax.alpha.(k).(l)
    done
  done;
  List.iter
    (fun ((k, l), v) -> alloc.Allocation.beta.(k).(l) <- v)
    trace;
  { allocation = alloc; lp_solves; upward_rounds = upward; pin_trace = trace;
    lp_objectives = objectives; counters }

let run ~equal_probability ?objective ~rng problem =
  Trace.with_span ~cat:"heuristic" "lprr.solve" @@ fun () ->
  let handle = Lp_relax.Incremental.create ?objective problem in
  Result.map
    (fun r -> finish problem r ~counters:(Lp_relax.Incremental.counters handle))
    (rounding_loop ~equal_probability ~rng problem handle)

let solve ?objective ~rng problem =
  run ~equal_probability:false ?objective ~rng problem

let solve_equal_probability ?objective ~rng problem =
  run ~equal_probability:true ?objective ~rng problem
