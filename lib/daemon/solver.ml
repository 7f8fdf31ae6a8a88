module Repair = Dls_core.Repair
module Heuristics = Dls_core.Heuristics
module Allocation = Dls_core.Allocation
module Problem = Dls_core.Problem
module Prng = Dls_util.Prng
module M = Dls_obs.Metrics
module Olog = Dls_obs.Log

type rung = Rescale | Refine | Resolve_lp | Resolve_greedy

let rung_name = function
  | Rescale -> "rescale"
  | Refine -> "refine"
  | Resolve_lp -> "resolve_lp"
  | Resolve_greedy -> "resolve_greedy"

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

type breaker_state = Closed | Open | Half_open

let breaker_state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

type breaker = {
  threshold : int;
  base_backoff : float;
  max_backoff : float;
  rng : Prng.t;
  lock : Mutex.t;
      (* solves may run on worker domains; every state transition holds
         the lock so the event loop's health reads and a worker's
         failure notes never race *)
  mutable failures : int;  (* consecutive Resolve-LP failures *)
  mutable reopens : int;  (* opens since the last close — backoff exponent *)
  mutable trips : int;  (* total opens, for metrics *)
  mutable open_until : float;
  mutable st : breaker_state;
}

let m_trips = M.counter "daemon.breaker.trips"

let breaker ?(threshold = 3) ?(base_backoff_s = 1.0) ?(max_backoff_s = 60.0)
    ?(seed = 0) () =
  if threshold < 1 then invalid_arg "Solver.breaker: threshold must be >= 1";
  if not (base_backoff_s > 0.0 && max_backoff_s >= base_backoff_s) then
    invalid_arg "Solver.breaker: backoffs must satisfy 0 < base <= max";
  {
    threshold;
    base_backoff = base_backoff_s;
    max_backoff = max_backoff_s;
    rng = Prng.derive ~seed ~index:0;
    lock = Mutex.create ();
    failures = 0;
    reopens = 0;
    trips = 0;
    open_until = 0.0;
    st = Closed;
  }

let locked b f =
  Mutex.lock b.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.lock) f

let breaker_state_unlocked b ~now =
  (match b.st with
  | Open when now >= b.open_until -> b.st <- Half_open
  | _ -> ());
  b.st

let breaker_state b ~now = locked b (fun () -> breaker_state_unlocked b ~now)

let breaker_trips b = locked b (fun () -> b.trips)

let trip b ~now =
  (* Exponential backoff with multiplicative jitter in [1, 1.5]: the
     jitter decorrelates probe times across daemons recovering from the
     same platform-wide incident. *)
  let backoff =
    Float.min b.max_backoff
      (b.base_backoff *. Float.pow 2.0 (float_of_int b.reopens))
    *. (1.0 +. Prng.float b.rng ~lo:0.0 ~hi:0.5)
  in
  b.open_until <- now +. backoff;
  b.reopens <- b.reopens + 1;
  b.trips <- b.trips + 1;
  b.st <- Open;
  M.incr m_trips;
  if Olog.enabled Olog.Warn then
    Olog.warn "daemon.breaker.open"
      ~fields:
        [ ("failures", Olog.Int b.failures); ("backoff_s", Olog.Float backoff) ]

let note_lp_failure b ~now =
  locked b (fun () ->
      b.failures <- b.failures + 1;
      match breaker_state_unlocked b ~now with
      | Half_open -> trip b ~now  (* failed probe: straight back open *)
      | Closed when b.failures >= b.threshold -> trip b ~now
      | Closed | Open -> ())

let note_lp_success b =
  locked b (fun () ->
      b.failures <- 0;
      b.reopens <- 0;
      b.st <- Closed)

(* ------------------------------------------------------------------ *)
(* Resident warm LP handle                                             *)
(* ------------------------------------------------------------------ *)

module Lp_relax = Dls_core.Lp_relax
module Lprg = Dls_core.Lprg

(* One warm simplex state per objective, kept alive across requests.
   The breaker deliberately lives *outside* this record: handle
   rebuilds (structural mutations, failed warm solves) must never
   reset the breaker's failure history or its open/half-open cycle.

   Not internally synchronized — the server confines each resident to
   a single owner (the event loop, or the pinned warm worker), and the
   FIFO edit/solve discipline there makes the handle's history a pure
   function of the mutation log. *)
type resident = {
  mutable r_handles : (Lp_relax.objective * Lp_relax.Incremental.handle) list;
  mutable r_warm_hits : int;
  mutable r_rebuilds : int;
  mutable r_edits : int;
}

let m_warm_hits = M.counter "daemon.warm_hits"
let m_rebuilds = M.counter "daemon.rebuilds"

let resident () =
  { r_handles = []; r_warm_hits = 0; r_rebuilds = 0; r_edits = 0 }

let resident_invalidate r = r.r_handles <- []

let resident_edit r (edits : State.capacity_edit list) =
  List.iter
    (fun (_, h) ->
      List.iter
        (function
          | State.Set_speed (c, v) ->
            Lp_relax.Incremental.set_speed h ~cluster:c v
          | State.Set_local_bw (c, v) ->
            Lp_relax.Incremental.set_local_bw h ~cluster:c v
          | State.Set_link_cap (l, n) ->
            Lp_relax.Incremental.set_max_connect h ~link:l n)
        edits)
    r.r_handles;
  r.r_edits <- r.r_edits + List.length edits

let resident_apply r = function
  | Some edits -> resident_edit r edits
  | None -> resident_invalidate r

let resident_stats r = (r.r_warm_hits, r.r_rebuilds, r.r_edits)

let resident_pivots r =
  List.fold_left
    (fun acc (_, h) ->
      acc + (Lp_relax.Incremental.counters h).Dls_lp.Revised_simplex.pivots)
    0 r.r_handles

(* The warm Resolve-LP rung: the resident handle's relaxation solution
   fed through the same LPRG post-processing as the cold rung.  A
   failed warm solve drops the handle (the carried basis may be
   poisoned) and falls back to the objective-free greedy, like the cold
   rung does. *)
let warm_resolve r ~objective problem =
  let h =
    match List.assoc_opt objective r.r_handles with
    | Some h ->
      r.r_warm_hits <- r.r_warm_hits + 1;
      M.incr m_warm_hits;
      h
    | None ->
      let h = Lp_relax.Incremental.create ~objective problem in
      r.r_handles <- (objective, h) :: r.r_handles;
      r.r_rebuilds <- r.r_rebuilds + 1;
      M.incr m_rebuilds;
      h
  in
  match Lp_relax.Incremental.solve h with
  | Lp_relax.Solution sol -> Ok (Lprg.of_solution problem sol)
  | Lp_relax.Failed _ ->
    r.r_handles <- List.remove_assoc objective r.r_handles;
    Repair.run_stage ~objective ~heuristic:Heuristics.G Repair.Resolve
      problem (Allocation.zero (Problem.num_clusters problem))

(* ------------------------------------------------------------------ *)
(* The ladder                                                          *)
(* ------------------------------------------------------------------ *)

type attempt = {
  a_rung : rung;
  a_seconds : float;
  a_within_budget : bool;
  a_feasible : bool;
  a_objective : float;
}

type outcome = {
  allocation : Allocation.t;
  objective_value : float;
  rung : rung;
  degraded : bool;
  skipped : rung list;
  attempts : attempt list;
}

let total_throughput problem a =
  let kk = Problem.num_clusters problem in
  let s = ref 0.0 in
  for k = 0 to kk - 1 do
    s := !s +. Allocation.app_throughput a k
  done;
  !s

let m_solve_s = M.histogram "daemon.solve.seconds"
let m_blowouts = M.counter "daemon.solve.blowouts"

let solve ?(now = Unix.gettimeofday) ?resident ~breaker:b ~objective ~budget_s
    ~base problem =
  let obj_kind = match objective with Dls_core.Lp_relax.Sum -> `Sum | _ -> `Maxmin in
  let t0 = now () in
  let elapsed () = now () -. t0 in
  let attempts = ref [] in
  let skipped = ref [] in
  (* Best feasible so far, ranked by (objective, total throughput) with
     later rungs winning ties — the same ranking Repair uses, so a
     budget cut returns the strongest allocation already in hand. *)
  let best = ref None in
  let attempt rung f =
    let t = now () in
    let r = f () in
    let dt = now () -. t in
    M.observe m_solve_s dt;
    let feasible_alloc =
      match r with
      | Ok a when Allocation.is_feasible problem a -> Some a
      | Ok _ | Error _ -> None
    in
    let obj =
      match feasible_alloc with
      | Some a -> Allocation.objective obj_kind problem a
      | None -> 0.0
    in
    let within = elapsed () <= budget_s in
    attempts :=
      { a_rung = rung; a_seconds = dt; a_within_budget = within;
        a_feasible = feasible_alloc <> None; a_objective = obj }
      :: !attempts;
    (match feasible_alloc with
    | Some a ->
      let score = (obj, total_throughput problem a) in
      (match !best with
      | Some (_, _, s) when s > score -> ()
      | _ -> best := Some (rung, a, score))
    | None -> ());
    (feasible_alloc <> None, within)
  in
  let run_stage stage heuristic =
    Repair.run_stage ~objective ~heuristic stage problem base
  in
  let lp_ok = ref false in
  let lp_attempted = ref false in
  let try_lp resolve_lp =
    lp_attempted := true;
    let feasible, within = attempt Resolve_lp resolve_lp in
    lp_ok := feasible && within;
    if !lp_ok then note_lp_success b
    else begin
      M.incr m_blowouts;
      note_lp_failure b ~now:(now ())
    end
  in
  (* Rung 0 — the warm fast path.  With a live resident handle the LP
     rung is the *cheapest* rung (an incremental re-pivot, not a cold
     solve), so it runs first and a clean solve skips the heuristic
     prelude entirely.  Without a handle (first solve, or just after a
     structural rebuild) the cold ladder below keeps its PR-9 order:
     rescale floor first, LP only after the cheap rungs. *)
  (match resident with
  | Some r
    when List.mem_assoc objective r.r_handles
         && elapsed () < budget_s
         && breaker_state b ~now:(now ()) <> Open ->
    try_lp (fun () -> warm_resolve r ~objective problem)
  | _ -> ());
  if !lp_ok then
    (* Warm solve succeeded: the heuristic rungs were never needed.
       Rescale/Refine are reported as skipped (mirroring how a budget
       cut reports unreached rungs); Resolve_greedy is not, matching
       the cold path after a clean LP solve. *)
    skipped := [ Refine; Rescale ]
  else begin
    (* Rung 1: always — the zero-budget floor. *)
    ignore
      (attempt Rescale (fun () -> run_stage Repair.Rescale Heuristics.LPRG));
    (* Rung 2: greedy refinement, if budget remains. *)
    if elapsed () < budget_s then
      ignore
        (attempt Refine (fun () -> run_stage Repair.Refine Heuristics.LPRG))
    else skipped := Refine :: !skipped;
    (* Rung 3: the LP re-solve, gated by both budget and breaker.  A
       warm attempt that already failed above is not retried — its
       handle was dropped, so a second attempt would pay a cold
       rebuild on a budget that is already strained. *)
    if not !lp_attempted then begin
      let budget_left = elapsed () < budget_s in
      let breaker_allows = breaker_state b ~now:(now ()) <> Open in
      if budget_left && breaker_allows then
        try_lp (fun () ->
            match resident with
            | Some r -> warm_resolve r ~objective problem
            | None -> run_stage Repair.Resolve Heuristics.LPRG)
      else skipped := Resolve_lp :: !skipped
    end;
    (* Rung 4: the greedy full re-solve — the backstop when the LP rung
       was skipped or blew out, never needed after a clean LP solve. *)
    if (not !lp_ok) && elapsed () < budget_s then
      ignore
        (attempt Resolve_greedy (fun () ->
             run_stage Repair.Resolve Heuristics.G))
    else if not !lp_ok then skipped := Resolve_greedy :: !skipped
  end;
  let attempts = List.rev !attempts in
  let skipped = List.rev !skipped in
  match !best with
  | Some (rung, allocation, (objective_value, _)) ->
    Ok
      {
        allocation;
        objective_value;
        rung;
        degraded = skipped <> [] && rung <> Resolve_lp;
        skipped;
        attempts;
      }
  | None ->
    Olog.error "daemon.solve.failed"
      ~fields:[ ("attempts", Olog.Int (List.length attempts)) ];
    Error "solve: no ladder rung produced a feasible allocation"
