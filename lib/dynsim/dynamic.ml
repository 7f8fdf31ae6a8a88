module P = Dls_platform.Platform
module Problem = Dls_core.Problem
module Allocation = Dls_core.Allocation
module Repair = Dls_core.Repair
module Heuristics = Dls_core.Heuristics
module Faults = Dls_flowsim.Faults
module Sim = Dls_flowsim.Simulator
module M = Dls_obs.Metrics
module Trace = Dls_obs.Trace
module Olog = Dls_obs.Log
module Flight = Dls_obs.Flight

let m_events = M.counter "dyn.events"
let m_replans = M.counter "dyn.replans"
let m_replan_s = M.histogram "dyn.replan_seconds"
let m_guard_exhausted = M.counter "dyn.guard_exhausted"

type policy = Lp_repair | Fcfs | Easy

let policy_name = function
  | Lp_repair -> "lp-repair"
  | Fcfs -> "fcfs"
  | Easy -> "easy"

let policy_of_name s =
  match String.lowercase_ascii s with
  | "lp-repair" | "lp_repair" | "lp" -> Some Lp_repair
  | "fcfs" -> Some Fcfs
  | "easy" -> Some Easy
  | _ -> None

let all_policies = [ Lp_repair; Fcfs; Easy ]

type fidelity = Fluid | Flow of int

type job_record = {
  job : Workload.job;
  started : float;
  finished : float;
}

type result = {
  completed : job_record list;
  unfinished : int;
  makespan : float;
  completed_work : float;
  mean_response : float;
  throughput : float;
  events : int;
  replans : int;
  replan_seconds : float array;
  event_log : string;
  guard_exhausted : bool;
}

(* Live bookkeeping for one job. *)
type live = {
  j : Workload.job;
  mutable remaining : float;
  mutable started : float;  (* -1 until first admitted *)
  mutable rate : float;  (* current planned drain rate; 0 unless admitted *)
}

type event = Arrival of Workload.job | Fault_tick | Completion of { gen : int }

let eps = 1e-9

let run ?(policy = Lp_repair) ?(heuristic = Heuristics.LPRG) ?objective
    ?(fidelity = Fluid) ?faults ?until platform workload =
  (match until with
  | Some u when not (u >= 0.0) ->
    invalid_arg "Dynamic.run: until must be >= 0"
  | _ -> ());
  (match fidelity with
  | Flow periods when periods < 2 ->
    invalid_arg "Dynamic.run: Flow fidelity needs >= 2 periods"
  | _ -> ());
  let sp_run = Trace.start ~cat:"dyn" "dyn.run" in
  let kk = P.num_clusters platform in
  let plan = match faults with None -> Faults.empty | Some plan -> plan in
  let fstate = Faults.start platform plan in
  let log = Buffer.create 4096 in
  let logf fmt = Printf.ksprintf (fun s -> Buffer.add_string log s) fmt in
  (* Per-cluster FIFO queues; the head of a queue is the only job of
     that cluster the planner ever sees. *)
  let queues : live Queue.t array = Array.init kk (fun _ -> Queue.create ()) in
  let heap : event Event_heap.t = Event_heap.create () in
  List.iter (fun j -> Event_heap.push heap ~time:j.Workload.arrival (Arrival j))
    workload;
  let fault_times =
    List.sort_uniq Float.compare
      (List.map (fun e -> e.Faults.time) (Faults.events plan))
  in
  List.iter (fun tf -> Event_heap.push heap ~time:tf Fault_tick) fault_times;
  let clock = ref 0.0 in
  let gen = ref 0 in
  let events = ref 0 in
  let replans = ref 0 in
  let replan_seconds = ref [] in
  let completed = ref [] in
  let completed_work = ref 0.0 in
  let prev_alloc = ref (Allocation.zero kk) in
  let heads () =
    let hs = ref [] in
    for k = kk - 1 downto 0 do
      match Queue.peek_opt queues.(k) with
      | Some live -> hs := (k, live) :: !hs
      | None -> ()
    done;
    !hs
  in
  let oldest hs =
    List.fold_left
      (fun best ((_, lv) as cand) ->
        match best with
        | None -> Some cand
        | Some (_, blv) ->
          if
            (lv.j.Workload.arrival, lv.j.Workload.id)
            < (blv.j.Workload.arrival, blv.j.Workload.id)
          then Some cand
          else best)
      None hs
  in
  let current_platform () =
    if Faults.any_fault_active fstate then Faults.degraded_platform fstate
    else platform
  in
  (* Admission: the policy picks which cluster heads the planner sees.
     The plan itself always comes from the same repair ladder, so the
     policies differ in admission only. *)
  let admit hs =
    match policy with
    | Lp_repair -> hs
    | Fcfs -> ( match oldest hs with None -> [] | Some h -> [ h ])
    | Easy -> (
      match oldest hs with
      | None -> []
      | Some ((hk, hlv) as head) ->
        let p = current_platform () in
        let est (k, lv) =
          let s = P.speed p k in
          if s > 0.0 then lv.remaining /. s else infinity
        in
        let head_finish = est (hk, hlv) in
        head
        :: List.filter
             (fun ((k, _) as cand) -> k <> hk && est cand <= head_finish)
             hs)
  in
  let replan ~now ~reason =
    incr replans;
    incr gen;
    M.incr m_replans;
    let sp = Trace.start ~cat:"dyn" "dyn.replan" in
    let hs = heads () in
    let admitted = admit hs in
    List.iter (fun (_, lv) -> lv.rate <- 0.0) hs;
    List.iter
      (fun (_, lv) ->
        if lv.started < 0.0 then begin
          lv.started <- now;
          logf "t=%.17g start job=%d\n" now lv.j.Workload.id
        end)
      admitted;
    if admitted = [] then begin
      prev_alloc := Allocation.zero kk;
      logf "t=%.17g replan reason=%s policy=%s active=0 idle\n" now reason
        (policy_name policy)
    end
    else begin
      let payoffs = Array.make kk 0.0 in
      List.iter
        (fun (k, lv) -> payoffs.(k) <- lv.j.Workload.payoff)
        admitted;
      let problem = Problem.make (current_platform ()) ~payoffs in
      (* Warm start: the previous allocation with the rows of
         now-inactive applications zeroed (a payoff-0 sender is an
         infeasibility, not something Rescale can shrink away). *)
      let warm = Allocation.copy !prev_alloc in
      for k = 0 to kk - 1 do
        if payoffs.(k) <= 0.0 then
          for l = 0 to kk - 1 do
            warm.Allocation.alpha.(k).(l) <- 0.0;
            warm.Allocation.beta.(k).(l) <- 0
          done
      done;
      match Repair.repair ?objective ~heuristic problem warm with
      | Ok outcome ->
        let alloc = outcome.Repair.allocation in
        prev_alloc := alloc;
        let ladder_s =
          List.fold_left
            (fun acc a -> acc +. a.Repair.seconds)
            0.0 outcome.Repair.attempts
        in
        replan_seconds := ladder_s :: !replan_seconds;
        M.observe m_replan_s ladder_s;
        (* Drain rates for the admitted heads: planned throughput, or
           the flow-level simulator's measured throughput of this very
           plan on the degraded platform — the "advance the flow
           simulator between events" fidelity. *)
        let rate_of =
          match fidelity with
          | Fluid -> fun k -> Allocation.app_throughput alloc k
          | Flow periods ->
            let stats =
              Sim.run ~periods ~warmup:(Stdlib.min 1 (periods - 1)) problem
                alloc
            in
            fun k -> stats.Sim.achieved.(k)
        in
        List.iter (fun (k, lv) -> lv.rate <- rate_of k) admitted;
        logf "t=%.17g replan reason=%s policy=%s active=%d stage=%s objective=%.17g\n"
          now reason (policy_name policy)
          (List.length admitted)
          (Repair.stage_name outcome.Repair.stage)
          (Allocation.objective `Maxmin problem alloc);
        if Olog.enabled Olog.Debug then
          Olog.debug "dyn.replan"
            ~fields:
              [ ("sim_t", Olog.Float now);
                ("reason", Olog.Str reason);
                ("policy", Olog.Str (policy_name policy));
                ("active", Olog.Int (List.length admitted));
                ("stage", Olog.Str (Repair.stage_name outcome.Repair.stage));
                ("seconds", Olog.Float ladder_s) ];
        if Flight.enabled () then
          Flight.record ~kind:"replan" reason
            ~fields:
              [ ("policy", policy_name policy);
                ("stage", Repair.stage_name outcome.Repair.stage) ]
      | Error e ->
        (* Cannot happen for well-formed platforms (Rescale is total);
           degrade to an idle plan rather than abort the replay. *)
        prev_alloc := Allocation.zero kk;
        Olog.error "dyn.replan.failed"
          ~fields:
            [ ("sim_t", Olog.Float now);
              ("reason", Olog.Str reason);
              ("policy", Olog.Str (policy_name policy));
              ("error", Olog.Str e) ];
        if Flight.enabled () then
          Flight.record ~kind:"replan" "failed"
            ~fields:[ ("reason", reason); ("error", e) ];
        logf "t=%.17g replan reason=%s policy=%s failed %s\n" now reason
          (policy_name policy) e
    end;
    if Trace.live sp then
      Trace.finish sp ~args:[ ("reason", reason); ("policy", policy_name policy) ]
  in
  (* One completion event per re-plan generation: the earliest-finishing
     admitted head.  Anything that changes the plan bumps [gen] and
     schedules a fresh event; stale ones are ignored on pop. *)
  let schedule_completion now =
    let best = ref None in
    List.iter
      (fun (_, lv) ->
        if lv.rate > 0.0 then begin
          let tfin = now +. (lv.remaining /. lv.rate) in
          match !best with
          | Some t when t <= tfin -> ()
          | _ -> best := Some tfin
        end)
      (heads ());
    match !best with
    | Some tfin -> Event_heap.push heap ~time:tfin (Completion { gen = !gen })
    | None -> ()
  in
  let advance_to t =
    let dt = t -. !clock in
    if dt > 0.0 then begin
      List.iter
        (fun (_, lv) ->
          if lv.rate > 0.0 then
            lv.remaining <- Float.max 0.0 (lv.remaining -. (lv.rate *. dt)))
        (heads ());
      clock := t
    end
  in
  let horizon_reached t = match until with Some u -> t > u | None -> false in
  let guard =
    ref ((64 * (List.length workload + List.length fault_times + 8)) + 1024)
  in
  let guard_exhausted = ref false in
  let stop = ref false in
  while (not !stop) && not (Event_heap.is_empty heap) do
    if !guard <= 0 then begin
      guard_exhausted := true;
      M.incr m_guard_exhausted;
      Olog.error "dyn.guard_exhausted"
        ~fields:[ ("sim_t", Olog.Float !clock); ("events", Olog.Int !events) ];
      if Flight.enabled () then
        Flight.record ~kind:"fault" "dyn.guard_exhausted"
          ~fields:[ ("sim_t", Printf.sprintf "%.17g" !clock) ];
      stop := true
    end
    else begin
      decr guard;
      match Event_heap.pop heap with
      | None -> stop := true
      | Some (t, ev) ->
        if horizon_reached t then stop := true
        else begin
          advance_to t;
          (match ev with
          | Arrival j ->
            incr events;
            M.incr m_events;
            let sp = Trace.start ~cat:"dyn" "dyn.event" in
            logf "t=%.17g arrive job=%d cluster=%d work=%.17g\n" t
              j.Workload.id j.Workload.cluster j.Workload.work;
            Queue.add
              { j; remaining = j.Workload.work; started = -1.0; rate = 0.0 }
              queues.(j.Workload.cluster);
            replan ~now:t ~reason:"arrival";
            schedule_completion t;
            if Trace.live sp then Trace.finish sp ~args:[ ("kind", "arrival") ]
          | Fault_tick ->
            let applied = Faults.advance fstate ~now:t in
            if applied <> [] then begin
              incr events;
              M.incr m_events;
              let sp = Trace.start ~cat:"dyn" "dyn.event" in
              List.iter
                (fun fe ->
                  let descr = Format.asprintf "%a" Faults.pp_kind fe.Faults.kind in
                  logf "t=%.17g fault %s\n" t descr;
                  if Olog.enabled Olog.Info then
                    Olog.info "dyn.fault"
                      ~fields:[ ("sim_t", Olog.Float t); ("fault", Olog.Str descr) ];
                  if Flight.enabled () then
                    Flight.record ~kind:"fault" descr
                      ~fields:[ ("sim_t", Printf.sprintf "%.17g" t) ])
                applied;
              replan ~now:t ~reason:"fault";
              schedule_completion t;
              if Trace.live sp then Trace.finish sp ~args:[ ("kind", "fault") ]
            end
          | Completion { gen = g } when g = !gen ->
            incr events;
            M.incr m_events;
            let sp = Trace.start ~cat:"dyn" "dyn.event" in
            (* Every head whose backlog is (numerically) drained
               completes now; the tolerance is relative to the job's
               own size. *)
            let finished_any = ref false in
            Array.iteri
              (fun _k q ->
                match Queue.peek_opt q with
                | Some lv
                  when lv.rate > 0.0
                       && lv.remaining <= eps *. lv.j.Workload.work ->
                  ignore (Queue.pop q);
                  finished_any := true;
                  completed :=
                    { job = lv.j; started = lv.started; finished = t }
                    :: !completed;
                  completed_work := !completed_work +. lv.j.Workload.work;
                  logf "t=%.17g complete job=%d response=%.17g\n" t
                    lv.j.Workload.id
                    (t -. lv.j.Workload.arrival)
                | _ -> ())
              queues;
            if !finished_any then begin
              replan ~now:t ~reason:"completion";
              schedule_completion t
            end
            else
              (* Numeric drift: the planned finish undershot.  Re-arm
                 for the residual backlog rather than spinning. *)
              schedule_completion t;
            if Trace.live sp then
              Trace.finish sp ~args:[ ("kind", "completion") ]
          | Completion _ -> (* stale generation: superseded plan *) ())
        end
    end
  done;
  let completed = List.rev !completed in
  (* Not just the queued residue: jobs whose arrival never fired (an
     [until] cutoff before their submit time) are unfinished too. *)
  let unfinished = List.length workload - List.length completed in
  let makespan =
    List.fold_left (fun acc r -> Float.max acc r.finished) 0.0 completed
  in
  let mean_response =
    match completed with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc r -> acc +. (r.finished -. r.job.Workload.arrival))
        0.0 completed
      /. float_of_int (List.length completed)
  in
  let throughput =
    if makespan > 0.0 then !completed_work /. makespan else 0.0
  in
  logf "t=%.17g end completed=%d unfinished=%d\n" !clock
    (List.length completed) unfinished;
  if Trace.live sp_run then
    Trace.finish sp_run
      ~args:
        [ ("policy", policy_name policy);
          ("jobs", string_of_int (List.length workload));
          ("replans", string_of_int !replans) ];
  { completed; unfinished; makespan; completed_work = !completed_work;
    mean_response; throughput; events = !events; replans = !replans;
    replan_seconds = Array.of_list (List.rev !replan_seconds);
    event_log = Buffer.contents log; guard_exhausted = !guard_exhausted }
