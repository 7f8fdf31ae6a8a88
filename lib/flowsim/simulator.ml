module P = Dls_platform.Platform
module A = Dls_core.Allocation
module M = Dls_obs.Metrics
module Trace = Dls_obs.Trace
module Olog = Dls_obs.Log
module Flight = Dls_obs.Flight

let m_runs = M.counter "sim.runs"
let m_rounds = M.counter "sim.rounds"
let m_faults_applied = M.counter "sim.fault_events_applied"
let m_guard_exhausted = M.counter "sim.guard_exhausted"

type stats = {
  predicted : float array;
  achieved : float array;
  late_transfers : int;
  stalled_transfers : int;
  killed_transfers : int;
  fault_events : int;
  downtime : float;
  guard_exhausted : bool;
}

(* One period's transfer, instantiated afresh at each period boundary. *)
type proto = {
  psrc : int;
  pdst : int;
  pamount : float;
  pcap : float;  (* nominal capacity: beta * route bottleneck *)
  pweight : float;
  pdelay : float;
  proute : int list option;  (* None: unreachable; Some []: co-located *)
  pbeta : int;
  pscale : float;  (* nominal rate magnitude, see [flow.rscale] *)
}

type flow = {
  src : int;
  dst : int;
  amount : float;
  mutable remaining : float;
  mutable cap : float;
  route : int list option;
  beta : int;
  weight : float;
  delay : float;  (* one-way path latency added to the arrival *)
  spawned : float;  (* period-start time *)
  rscale : float;
  (* nominal magnitude of this flow's rate: min of the nominal route
     capacity and both endpoints' nominal local links.  Liveness tests
     compare rates against [eps *. rscale] so the classification is
     scale-free — a 5e-11-wide pipe making full-rate progress is live,
     and a 5e+11 pipe reduced to rounding dust is not. *)
}

(* Relative tolerance unit.  Every comparison in the transfer loop
   scales [eps] by the magnitude of the quantities involved (horizon
   for times, nominal rate for liveness, the largest [alpha] for
   pattern filtering); capacities compare against exact zero, which is
   the only value the fault model can produce for a dead entity. *)
let eps = 1e-9

let run ?(periods = 20) ?(warmup = 2) ?latency ?faults
    ?(fault_policy = Faults.Stall) problem alloc =
  if warmup < 0 || periods <= warmup then
    invalid_arg "Simulator.run: need 0 <= warmup < periods";
  let sp = Trace.start ~cat:"sim" "sim.run" in
  M.incr m_runs;
  let p = Dls_core.Problem.platform problem in
  let kk = P.num_clusters p in
  let horizon = float_of_int periods in
  (* Absolute slack on time comparisons, scaled to the horizon: all
     simulated times live in [0, horizon], so [eps *. horizon] is the
     rounding-dust magnitude there.  The [max 1.0] keeps the historical
     behavior for sub-unit horizons. *)
  let time_tol = eps *. Float.max 1.0 horizon in
  let predicted = Array.init kk (A.app_throughput alloc) in
  (* Transfers are part of the pattern when their [alpha] is visible at
     the allocation's own magnitude — an absolute cutoff would drop the
     entire pattern of a legitimately tiny-valued workload. *)
  let alpha_tol =
    let m = ref 0.0 in
    Array.iter (Array.iter (fun a -> if a > !m then m := a)) alloc.A.alpha;
    eps *. !m
  in
  let plan = match faults with None -> Faults.empty | Some plan -> plan in
  let fstate = Faults.start p plan in
  let fault_events =
    List.length
      (List.filter (fun e -> e.Faults.time < horizon) (Faults.events plan))
  in
  let capacities = Array.init kk (P.local_bw p) in
  let refresh_capacities () =
    for k = 0 to kk - 1 do
      capacities.(k) <- (if Faults.crashed fstate k then 0.0 else P.local_bw p k)
    done
  in
  (* Transfers of one period, described once and respawned each period.
     With a latency model, sharing weights follow 1/RTT and arrivals are
     delayed by the one-way path latency. *)
  let link_demand = Array.make (P.num_backbones p) 0 in
  let pattern = ref [] in
  for k = kk - 1 downto 0 do
    for l = kk - 1 downto 0 do
      if k <> l && alloc.A.alpha.(k).(l) > alpha_tol then begin
        let route = P.route p k l in
        let beta = alloc.A.beta.(k).(l) in
        let cap =
          match P.route_bottleneck p k l with
          | None -> 0.0
          | Some bw when bw = infinity -> infinity  (* co-located *)
          | Some bw -> float_of_int beta *. bw
        in
        (match route with
        | Some links ->
          List.iter (fun i -> link_demand.(i) <- link_demand.(i) + beta) links
        | None -> ());
        let weight, delay =
          match latency with
          | None -> (1.0, 0.0)
          | Some lat -> (Latency.tcp_weight p lat k l, Latency.one_way p lat k l)
        in
        pattern :=
          { psrc = k; pdst = l; pamount = alloc.A.alpha.(k).(l); pcap = cap;
            pweight = weight; pdelay = delay; proute = route; pbeta = beta;
            pscale =
              (let s =
                 Float.min cap (Float.min (P.local_bw p k) (P.local_bw p l))
               in
               (* an unbounded scale degrades to a strict > 0 liveness
                  test rather than an unreachable threshold *)
               if Float.is_finite s then s else 0.0) }
          :: !pattern
      end
    done
  done;
  (* Capacity of a transfer under the current fault state: the smallest
     degraded per-connection bandwidth on the route times the connection
     count, the latter scaled down when a link's surviving [max_connect]
     no longer covers the allocation's total demand on it (a down link
     has factor 0, so the whole product vanishes).  Only consulted once
     a fault event has fired — a no-fault run keeps the nominal caps and
     is bit-identical to the fault-free simulator. *)
  let current_cap route beta =
    match route with
    | None -> 0.0
    | Some [] -> infinity
    | Some links ->
      let min_bw = ref infinity and frac = ref 1.0 in
      List.iter
        (fun i ->
          let b = P.backbone p i in
          min_bw := Float.min !min_bw (b.P.bw *. Faults.link_factor fstate i);
          let d = link_demand.(i) in
          if d > 0 then
            frac :=
              Float.min !frac
                (Float.min 1.0
                   (float_of_int (Faults.link_max_connect fstate i)
                   /. float_of_int d)))
        links;
      float_of_int beta *. !frac *. !min_bw
  in
  let active : flow list ref = ref [] in
  let arrivals = ref [] in  (* (time, cluster, app, amount) *)
  let late = ref 0 and stalled = ref 0 and killed = ref 0 in
  let faulted = ref false in
  (* Exact-zero tests: degraded capacities are products with an exact
     0.0 factor (down link, crashed cluster, unreachable route), never
     rounding dust, so a genuinely tiny but live capacity is not
     misclassified as dead regardless of the platform's scale. *)
  let cannot_move fl =
    fl.cap <= 0.0
    || capacities.(fl.src) <= 0.0
    || capacities.(fl.dst) <= 0.0
  in
  let cull_if_killing () =
    if fault_policy = Faults.Kill then begin
      let dead, alive = List.partition cannot_move !active in
      killed := !killed + List.length dead;
      active := alive
    end
  in
  let apply_events now =
    (* the [time_tol] slack consumes events within float-rounding
       distance of the current time, so the loop cannot creep toward an
       event time without ever reaching it — at large horizons the
       absolute [eps] is below one ulp and the loop would wedge *)
    let applied = Faults.advance fstate ~now:(now +. time_tol) in
    if applied <> [] then begin
      faulted := true;
      M.add m_faults_applied (List.length applied);
      Trace.instant ~cat:"sim" "sim.fault";
      List.iter
        (fun fe ->
          if Olog.enabled Olog.Info || Flight.enabled () then begin
            let descr = Format.asprintf "%a" Faults.pp_kind fe.Faults.kind in
            if Olog.enabled Olog.Info then
              Olog.info "sim.fault"
                ~fields:[ ("sim_t", Olog.Float now); ("fault", Olog.Str descr) ];
            if Flight.enabled () then
              Flight.record ~kind:"fault" descr
                ~fields:[ ("sim_t", Printf.sprintf "%.17g" now) ]
          end)
        applied;
      refresh_capacities ();
      List.iter (fun fl -> fl.cap <- current_cap fl.route fl.beta) !active;
      cull_if_killing ()
    end
  in
  let t = ref 0.0 in
  let next_spawn = ref 0 in
  let guard_exhausted = ref false in
  let guard =
    ref
      ((1000 * (periods + 1) * (1 + List.length !pattern))
      + (16 * fault_events) + 1000)
  in
  let finished = ref false in
  (* All-stalled fixpoint, detected up front: if every transfer of the
     periodic pattern starts with zero capacity or a zero-capacity
     endpoint (and no fault event could revive it), no period will ever
     move a byte — record the stall counts and local arrivals the full
     run would have produced and skip the transfer loop entirely. *)
  let all_stalled_from_start =
    !pattern <> []
    && Faults.is_empty plan
    && List.for_all
         (fun pr ->
           pr.pcap <= 0.0
           || capacities.(pr.psrc) <= 0.0
           || capacities.(pr.pdst) <= 0.0)
         !pattern
  in
  if all_stalled_from_start then begin
    stalled := periods * List.length !pattern;
    for per = 0 to periods - 1 do
      let now = float_of_int per in
      for k = 0 to kk - 1 do
        if alloc.A.alpha.(k).(k) > alpha_tol then
          arrivals := (now, k, k, alloc.A.alpha.(k).(k)) :: !arrivals
      done
    done
  end
  else begin
    apply_events 0.0;
    while (not !finished) && !t < horizon -. time_tol && !guard > 0 do
      decr guard;
      M.incr m_rounds;
      (* Fault events due now are applied before anything else moves. *)
      (match Faults.next_time fstate with
      | Some tf when tf <= !t +. time_tol -> apply_events !t
      | _ -> ());
      (* Spawn the period's flows and local chunks at each boundary. *)
      if !next_spawn < periods && !t >= float_of_int !next_spawn -. time_tol
      then begin
        let now = float_of_int !next_spawn in
        List.iter
          (fun pr ->
            let cap = if !faulted then current_cap pr.proute pr.pbeta else pr.pcap in
            active :=
              { src = pr.psrc; dst = pr.pdst; amount = pr.pamount;
                remaining = pr.pamount; cap; route = pr.proute;
                beta = pr.pbeta; weight = pr.pweight; delay = pr.pdelay;
                spawned = now; rscale = pr.pscale }
              :: !active)
          !pattern;
        if !faulted then cull_if_killing ();
        for k = 0 to kk - 1 do
          if alloc.A.alpha.(k).(k) > alpha_tol then
            arrivals := (now, k, k, alloc.A.alpha.(k).(k)) :: !arrivals
        done;
        incr next_spawn
      end;
      let flows = !active in
      let sharing_flows =
        List.map
          (fun f ->
            { Sharing.resources = [ f.src; f.dst ]; cap = f.cap;
              weight = f.weight })
          flows
      in
      let rates = Sharing.rates ~capacities sharing_flows in
      (* Time to the next event: a completion, a period boundary or a
         fault. *)
      let dt_complete = ref infinity in
      List.iteri
        (fun i f ->
          if rates.(i) > eps *. f.rscale then
            dt_complete := Float.min !dt_complete (f.remaining /. rates.(i)))
        flows;
      let next_boundary =
        if !next_spawn < periods then float_of_int !next_spawn else horizon
      in
      let next_fault =
        match Faults.next_time fstate with
        | Some tf when tf < horizon -. time_tol -> tf
        | _ -> infinity
      in
      let next_stop = Float.min next_boundary next_fault in
      let dt = Float.min !dt_complete (next_stop -. !t) in
      if dt = infinity || (dt <= time_tol && !dt_complete = infinity && flows = [])
      then begin
        (* Nothing in flight and no boundary ahead: jump to the next
           stop. *)
        if next_stop > !t +. time_tol then t := next_stop else finished := true
      end
      else if
        !dt_complete = infinity
        && next_stop >= horizon -. time_tol
        && flows <> []
      then begin
        (* Flows exist but none can move and no spawn or fault event
           will change that. *)
        stalled := !stalled + List.length flows;
        active := [];
        finished := true
      end
      else begin
        let dt = Float.max 0.0 dt in
        List.iteri
          (fun i f -> f.remaining <- f.remaining -. (rates.(i) *. dt))
          flows;
        t := !t +. dt;
        (* Purely relative completion threshold: an absolute floor here
           would declare any transfer smaller than the floor complete at
           spawn time. *)
        let done_, still =
          List.partition (fun f -> f.remaining <= eps *. f.amount) flows
        in
        List.iter
          (fun f ->
            arrivals := (!t +. f.delay, f.dst, f.src, f.amount) :: !arrivals;
            if !t +. f.delay > f.spawned +. 1.0 +. time_tol then incr late)
          done_;
        active := still
      end
    done;
    (* The guard is a defensive bound far above any legitimate round
       count; exhausting it means the transfer loop failed to make
       progress and the run is truncated, not finished.  Surface that
       loudly instead of reporting stats as if the horizon was
       reached. *)
    if !guard <= 0 && (not !finished) && !t < horizon -. time_tol then begin
      guard_exhausted := true;
      M.incr m_guard_exhausted
    end;
    (* Under a fault plan, transfers still wedged at the horizon (down
       route or dead endpoint) count as stalled; in-flight transfers
       that merely ran out of time do not. *)
    if !faulted then
      stalled := !stalled + List.length (List.filter cannot_move !active)
  end;
  (* Compute phase: per-cluster FIFO fluid processing at speed s_l —
     piecewise-constant when throttle/crash events touch the cluster —
     accumulating the work each application gets done inside the
     measurement window. *)
  let window_start = float_of_int warmup in
  let window = horizon -. window_start in
  let achieved = Array.make kk 0.0 in
  let by_cluster = Array.make kk [] in
  List.iter
    (fun ((_, c, _, _) as arrival) -> by_cluster.(c) <- arrival :: by_cluster.(c))
    !arrivals;
  (* Speed breakpoints per cluster, in event order (throttles after a
     crash are dead letters, as in [Faults.state]). *)
  let speed_events = Array.make kk [] in
  let crashed_seen = Array.make kk false in
  List.iter
    (fun ev ->
      match ev.Faults.kind with
      | Faults.Cluster_throttle { cluster; factor } ->
        if not crashed_seen.(cluster) then
          speed_events.(cluster) <-
            (ev.Faults.time, factor) :: speed_events.(cluster)
      | Faults.Cluster_crash c ->
        crashed_seen.(c) <- true;
        speed_events.(c) <- (ev.Faults.time, 0.0) :: speed_events.(c)
      | _ -> ())
    (Faults.events plan);
  for c = 0 to kk - 1 do
    let s = P.speed p c in
    let queue =
      List.sort
        (fun (t1, _, a1, _) (t2, _, a2, _) -> Stdlib.compare (t1, a1) (t2, a2))
        by_cluster.(c)
    in
    match List.rev speed_events.(c) with
    | [] ->
      if s > 0.0 then begin
        let clock = ref 0.0 in
        List.iter
          (fun (arrival_time, _, app, amount) ->
            let start = Float.max !clock arrival_time in
            let finish = start +. (amount /. s) in
            clock := finish;
            (* Work performed inside [window_start, horizon]. *)
            let lo = Float.max start window_start
            and hi = Float.min finish horizon in
            if hi > lo then achieved.(app) <- achieved.(app) +. (s *. (hi -. lo)))
          queue
      end
    | brk ->
      (* Piecewise-constant speed profile: segment [i] runs at [ss.(i)]
         over [ts.(i), ts.(i+1)) (the last one unbounded). *)
      let n = 1 + List.length brk in
      let ts = Array.make n 0.0 and ss = Array.make n s in
      List.iteri
        (fun i (tim, fac) ->
          ts.(i + 1) <- tim;
          ss.(i + 1) <- s *. fac)
        brk;
      let seg_of tm =
        let i = ref 0 in
        while !i + 1 < n && ts.(!i + 1) <= tm do incr i done;
        !i
      in
      let finish_time start amount =
        let i = ref (seg_of start) in
        let tm = ref start and rem = ref amount in
        let res = ref nan in
        while Float.is_nan !res do
          let sp = ss.(!i) in
          let seg_end = if !i + 1 < n then ts.(!i + 1) else infinity in
          if sp > 0.0 && !tm +. (!rem /. sp) <= seg_end then
            res := !tm +. (!rem /. sp)
          else if seg_end = infinity then res := infinity
          else begin
            if sp > 0.0 then rem := !rem -. (sp *. (seg_end -. !tm));
            tm := seg_end;
            incr i
          end
        done;
        !res
      in
      let work_between lo hi =
        if hi <= lo then 0.0
        else begin
          let acc = ref 0.0 in
          for i = 0 to n - 1 do
            let a = Float.max lo ts.(i)
            and b = Float.min hi (if i + 1 < n then ts.(i + 1) else hi) in
            if b > a then acc := !acc +. (ss.(i) *. (b -. a))
          done;
          !acc
        end
      in
      let clock = ref 0.0 in
      List.iter
        (fun (arrival_time, _, app, amount) ->
          if !clock < infinity then begin
            let start = Float.max !clock arrival_time in
            let finish = finish_time start amount in
            clock := finish;
            (* Work performed inside [window_start, horizon]; a chunk
               cut short by a crash still credits what it processed. *)
            let lo = Float.max start window_start
            and hi = Float.min finish horizon in
            achieved.(app) <- achieved.(app) +. work_between lo hi
          end)
        queue
  done;
  Array.iteri (fun i w -> achieved.(i) <- w /. window) achieved;
  let downtime =
    if Faults.is_empty plan then 0.0 else Faults.downtime p plan ~horizon
  in
  if Trace.live sp then
    Trace.finish sp
      ~args:
        [ ("periods", string_of_int periods);
          ("fault_events", string_of_int fault_events) ];
  { predicted; achieved; late_transfers = !late; stalled_transfers = !stalled;
    killed_transfers = !killed; fault_events; downtime;
    guard_exhausted = !guard_exhausted }

let efficiency stats =
  let tot a = Array.fold_left ( +. ) 0.0 a in
  let p = tot stats.predicted in
  if p <= 0.0 then 1.0 else tot stats.achieved /. p
