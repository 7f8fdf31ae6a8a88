(* Traced mode: per-layer metrics of one workload, measured from outside
   by timing calls into public functions on the workload's own inputs.

   Three phases, whatever the workload:
   - a short daemon session (one round of the request script against a
     real dls_daemond, then [health] round trips);
   - an in-process replay of the same script through State, Journal,
     Solver and Protocol, and an LP stage breakdown on the states it
     visits (Lp_relax.Incremental, Lpr, Residual, Greedy, Allocation);
   - the campaign layers (Generator, Lp_relax, Lprr, Greedy, Measure,
     Campaign) on the workload's problems.

   Only this mode enables the metrics registry, from which it reads the
   deltas of the LP counters.  A counter or health field the program does
   not provide leaves its metric out. *)

module P = Dls_platform.Platform
module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng
module J = Dls_util.Json
module Lp = Dls_core.Lp_relax
module Inc = Dls_core.Lp_relax.Incremental
module Problem = Dls_core.Problem
module Allocation = Dls_core.Allocation
module D = Dls_daemon
module Pr = Dls_daemon.Protocol
module Faults = Dls_flowsim.Faults
module Metrics = Dls_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* Time [f] and file the milliseconds under [name]. *)
let timed name f =
  let r, dt = Common.time f in
  add name (Common.ms dt);
  r

let total name = List.fold_left ( +. ) 0.0 (get name)

let counter name =
  match List.assoc_opt name (Metrics.snapshot ()) with
  | Some (Metrics.Counter n) -> Some n
  | _ -> None

(* Run [f] and return the change of registry counter [name] across it. *)
let delta name f =
  let before = counter name in
  let r = f () in
  (r, match (before, counter name) with Some a, Some b -> Some (b - a) | _ -> None)

let ok_or_fail what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* Phase 1: daemon session                                             *)
(* ------------------------------------------------------------------ *)

let daemon_session tally (spec : Serve.spec) ~seed =
  let session = Serve.start spec ~nconns:(Array.length spec.Serve.scripts) ~seed in
  Dclient.drive session.Serve.conns
    (Array.map (Array.map Serve.request) spec.Serve.scripts)
    ~on_reply:(fun c i rtt payload ->
      (match spec.Serve.scripts.(c).(i) with
      | Serve.Edit _ -> add "daemon.server.mutate_rtt_ms" (Common.ms rtt)
      | Serve.Get _ -> ());
      let j = Dclient.parse payload in
      Common.record_op tally
        (if Dclient.status j = "ok" && J.member "degraded" j <> Some (J.Bool true) then []
         else [ "daemon reply: " ^ payload ]));
  let health = ref J.Null in
  for _ = 1 to 20 do
    health := Dclient.parse (timed "daemon.server.health_rtt_ms" (fun () ->
        Dclient.call session.Serve.conns.(0) Pr.Health))
  done;
  Serve.stop session;
  match (Dclient.num_field "solves" !health, Dclient.num_field "schedules" !health) with
  | Some solves, Some schedules when schedules > 0.0 ->
    add "daemon.server.solves_per_get" (solves /. schedules)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Phase 2: in-process replay and LP stage breakdown                   *)
(* ------------------------------------------------------------------ *)

let entries (a : Allocation.t) =
  let n = Array.length a.Allocation.alpha in
  let alpha = ref [] and beta = ref [] in
  for k = n - 1 downto 0 do
    for l = n - 1 downto 0 do
      if a.Allocation.alpha.(k).(l) > 0.0 then alpha := (k, l, a.Allocation.alpha.(k).(l)) :: !alpha;
      if a.Allocation.beta.(k).(l) > 0 then beta := (k, l, a.Allocation.beta.(k).(l)) :: !beta
    done
  done;
  (!alpha, !beta)

(* The script of every connection, interleaved request by request. *)
let flatten scripts =
  let n = Array.fold_left (fun m s -> max m (Array.length s)) 0 scripts in
  List.concat (List.init n (fun i ->
      Array.to_list scripts |> List.filter_map (fun s -> if i < Array.length s then Some s.(i) else None)))

let replay tally (spec : Serve.spec) =
  let path = Common.scratch "replay.wal" in
  let state, journal = ok_or_fail "journal" (D.Journal.open_ ~path ~platform:spec.Serve.platform) in
  Common.on_cleanup (fun () -> D.Journal.close journal);
  let mutate m =
    ok_or_fail "State.apply" (timed "daemon.state.apply_ms" (fun () -> D.State.apply state m));
    timed "daemon.journal.append_ms" (fun () -> D.Journal.append journal m)
  in
  List.iter (fun app -> match Serve.register app with Pr.Mutate m -> mutate m | _ -> ()) spec.Serve.apps;
  let resident = D.Solver.resident () in
  let breaker = D.Solver.breaker () in
  let caps = Eq7.copy spec.Serve.base_caps in
  let base = ref (Allocation.zero spec.Serve.k) in
  List.iter
    (fun op ->
      match op with
      | Serve.Edit kind ->
        let m = Pr.Platform_delta [ kind ] in
        mutate m;
        Serve.apply_edit spec caps kind;
        D.Solver.resident_apply resident (D.State.warm_edits state m);
        ignore (timed "daemon.state.problem_ms" (fun () -> D.State.problem state))
      | Serve.Get objective ->
        let problem = D.State.problem state in
        let outcome =
          ok_or_fail "Solver.solve"
            (timed "daemon.solver.solve_ms" (fun () ->
                 D.Solver.solve ~resident ~breaker ~objective ~budget_s:600.0 ~base:!base problem))
        in
        base := outcome.D.Solver.allocation;
        let alpha, beta = entries outcome.D.Solver.allocation in
        let sr =
          { Pr.sr_seq = D.State.seq state; sr_objective = outcome.D.Solver.objective_value;
            sr_rung = D.Solver.rung_name outcome.D.Solver.rung; sr_degraded = outcome.D.Solver.degraded;
            sr_breaker = "closed"; sr_alpha = alpha; sr_beta = beta }
        in
        let bytes =
          timed "daemon.protocol.encode_ms" (fun () -> String.length (J.to_string (Pr.schedule_reply_to_json sr)))
        in
        add "daemon.protocol.reply_bytes" (float_of_int bytes);
        let a = outcome.D.Solver.allocation in
        Common.record_op tally
          ((if outcome.D.Solver.degraded then [ "degraded replay solve" ] else [])
          @ Eq7.check caps ~alpha:a.Allocation.alpha ~beta:a.Allocation.beta))
    (flatten spec.Serve.scripts);
  D.Journal.close journal

(* The warm LP path, stage by stage, on the states the script visits:
   an RHS edit and its re-solve, then a re-solve with nothing changed
   feeding round-down, residual, refine and the feasibility check — the
   pipeline of one warm Solver.solve, which is timed on the same states
   to see how much of it the stages explain. *)
let lp_stages tally (spec : Serve.spec) ~max_edits =
  let nominal = Serve.problem_of spec spec.Serve.base_caps in
  for i = 1 to 6 do
    let objective = if i mod 2 = 0 then Lp.Sum else Lp.Maxmin in
    ignore (timed "core.lp_relax.encode_ms" (fun () -> Inc.create ~objective nominal))
  done;
  for _ = 1 to 5 do
    timed "platform.routes_through_sweep_ms" (fun () ->
        for i = 0 to P.num_backbones spec.Serve.platform - 1 do
          ignore (P.routes_through spec.Serve.platform i)
        done)
  done;
  let edits =
    flatten spec.Serve.scripts
    |> List.filter_map (function Serve.Edit e -> Some e | Serve.Get _ -> None)
    |> List.filteri (fun i _ -> i < max_edits)
  in
  let caps = Eq7.copy spec.Serve.base_caps in
  let objectives = [ Lp.Maxmin; Lp.Sum ] in
  let handles = List.map (fun o -> (o, Inc.create ~objective:o nominal)) objectives in
  let resident = D.Solver.resident () in
  let breaker = D.Solver.breaker () in
  List.iter (fun (_, h) -> ignore (Inc.solve h)) handles;
  let cold = ref 0 and cold_seen = ref false and reinv = ref 0 and reinv_seen = ref false in
  let n_edit_solves = ref 0 and n_noedit = ref 0 in
  List.iter
    (fun kind ->
      Serve.apply_edit spec caps kind;
      let problem = Serve.problem_of spec caps in
      let platform = Problem.platform problem in
      let edit =
        match kind with
        | Faults.Cluster_throttle { cluster; _ } -> D.State.Set_speed (cluster, caps.Eq7.speed.(cluster))
        | Faults.Max_connect { link; limit } -> D.State.Set_link_cap (link, limit)
        | _ -> invalid_arg "lp_stages"
      in
      D.Solver.resident_apply resident (Some [ edit ]);
      List.iter
        (fun (objective, h) ->
          (match edit with
          | D.State.Set_speed (c, v) -> Inc.set_speed h ~cluster:c v
          | D.State.Set_link_cap (l, n) -> Inc.set_max_connect h ~link:l n
          | D.State.Set_local_bw (c, v) -> Inc.set_local_bw h ~cluster:c v);
          let (_, pivots), cold_d =
            delta "lp.cold_starts" (fun () ->
                delta "lp.pivots" (fun () -> timed "core.lp_relax.edit_solve_ms" (fun () -> Inc.solve h)))
          in
          incr n_edit_solves;
          Option.iter (fun p -> add "core.lp_relax.edit_pivots" (float_of_int p)) pivots;
          Option.iter (fun c -> cold := !cold + c; cold_seen := true) cold_d;
          let sol, reinv_d =
            delta "lp.reinversions" (fun () ->
                match timed "core.lp_relax.noedit_solve_ms" (fun () -> Inc.solve h) with
                | Lp.Solution s -> s
                | Lp.Failed m -> failwith ("Incremental.solve: " ^ m))
          in
          incr n_noedit;
          Option.iter (fun r -> reinv := !reinv + r; reinv_seen := true) reinv_d;
          let t_lp = List.hd (get "core.lp_relax.noedit_solve_ms") in
          let rounded = timed "core.lpr.round_down_ms" (fun () -> Dls_core.Lpr.round_down problem sol) in
          let residual =
            timed "core.residual.of_allocation_ms" (fun () -> Dls_core.Residual.of_allocation platform rounded)
          in
          let refined = timed "core.greedy.refine_ms" (fun () -> Dls_core.Greedy.refine problem residual rounded) in
          let feasible = timed "core.allocation.check_ms" (fun () -> Allocation.is_feasible problem refined) in
          add "stages.solver"
            (t_lp +. List.hd (get "core.lpr.round_down_ms") +. List.hd (get "core.residual.of_allocation_ms")
            +. List.hd (get "core.greedy.refine_ms") +. List.hd (get "core.allocation.check_ms"));
          (* the whole warm solve on the same state: the first call
             re-solves after the edit, the second is the timed no-edit one *)
          let solve () =
            D.Solver.solve ~resident ~breaker ~objective ~budget_s:600.0
              ~base:(Allocation.zero spec.Serve.k) problem
          in
          ignore (solve ());
          let outcome = ok_or_fail "Solver.solve" (timed "op.solver" solve) in
          Common.record_op tally
            ((if feasible then [] else [ "refined allocation infeasible" ])
            @ Eq7.check caps ~alpha:refined.Allocation.alpha ~beta:refined.Allocation.beta
            @ if outcome.D.Solver.degraded then [ "degraded solve" ] else []))
        handles)
    edits;
  if !cold_seen && !n_edit_solves > 0 then
    add "lp.cold_restarts_per_edit" (float_of_int !cold /. float_of_int !n_edit_solves);
  if !reinv_seen && !n_noedit > 0 then
    add "lp.reinversions_per_solve" (float_of_int !reinv /. float_of_int !n_noedit);
  add "daemon.solver.stage_coverage" (Common.median (get "stages.solver") /. Common.median (get "op.solver"))

(* ------------------------------------------------------------------ *)
(* Phase 3: campaign layers                                            *)
(* ------------------------------------------------------------------ *)

type campaign_input = {
  problem : Problem.t;
  params : Gen.params;
  regenerate : unit -> unit;
  rng : unit -> Prng.t;  (* LPRR's coins, the same stream each call *)
  with_lprr : bool;
}

let campaign_layers tally inputs =
  let stage name f = timed ("stage." ^ name) f in
  List.iter
    (fun c ->
      let pr = c.problem in
      timed "platform.generate_ms" c.regenerate;
      List.iter
        (fun objective ->
          match timed "core.lp_relax.cold_solve_ms" (fun () -> Lp.solve ~objective pr) with
          | Lp.Solution s ->
            let piv = float_of_int s.Lp.iterations in
            add "core.lp_relax.cold_pivots" piv;
            if piv > 0.0 then add "lp.ms_per_pivot" (List.hd (get "core.lp_relax.cold_solve_ms") /. piv)
          | Lp.Failed m -> Common.record_op tally [ "cold LP: " ^ m ])
        [ Lp.Maxmin; Lp.Sum ];
      ignore (timed "core.greedy.solve_ms" (fun () -> Dls_core.Greedy.solve pr));
      (* one record, whole, then stage by stage as Measure.evaluate runs it *)
      let values =
        timed "op.record" (fun () -> Dls_experiments.Measure.evaluate ~with_lprr:c.with_lprr ~rng:(c.rng ()) pr)
      in
      let feasible a = ignore (stage "check" (fun () -> Allocation.is_feasible pr a)) in
      List.iter (fun objective -> ignore (stage "lp" (fun () -> Dls_core.Heuristics.lp_bound ~objective pr)))
        [ Lp.Maxmin; Lp.Sum ];
      feasible (stage "g" (fun () -> Dls_core.Greedy.solve pr));
      let rng = c.rng () in
      List.iter
        (fun (name, solve) ->
          List.iter
            (fun objective -> Result.iter feasible (stage name (fun () -> solve objective)))
            [ Lp.Maxmin; Lp.Sum ])
        ([ ("lpr", fun objective -> Dls_core.Lpr.solve ~objective pr);
           ("lprg", fun objective -> Dls_core.Lprg.solve ~objective pr) ]
        @
        if c.with_lprr then
          [ ("lprr", fun objective ->
                let r = Dls_core.Lprr.solve ~objective ~rng pr in
                Result.iter (fun s -> add "core.lprr.lp_solves" (float_of_int s.Dls_core.Lprr.lp_solves)) r;
                Result.map (fun s -> s.Dls_core.Lprr.allocation) r) ]
        else []);
      if c.with_lprr then
        List.iter (fun v -> add "core.lprr.solve_ms" v) (List.filteri (fun i _ -> i < 2) (get "stage.lprr"));
      match values with
      | Error e -> Common.record_op tally [ "Measure.evaluate: " ^ e ]
      | Ok values ->
        Common.record_op tally [];
        let entry =
          Dls_experiments.Campaign.Record
            { Dls_experiments.Campaign.index = 0; params = c.params;
              active_apps = List.length (Problem.active pr); values }
        in
        ignore (timed "experiments.campaign.encode_ms" (fun () -> Dls_experiments.Campaign.entry_to_line entry)))
    inputs;
  let stages = List.fold_left (fun acc s -> acc +. total ("stage." ^ s)) 0.0 [ "lp"; "g"; "check"; "lpr"; "lprg"; "lprr" ] in
  add "experiments.measure.stage_coverage" (stages /. total "op.record")

(* ------------------------------------------------------------------ *)
(* Per-workload inputs and the report                                  *)
(* ------------------------------------------------------------------ *)

(* name, unit, how the samples are summarised *)
let reported =
  [ ("daemon.server.solves_per_get", "ratio", `Median);
    ("daemon.server.health_rtt_ms", "ms", `Median);
    ("daemon.server.mutate_rtt_ms", "ms", `Median);
    ("daemon.protocol.encode_ms", "ms", `Median);
    ("daemon.protocol.reply_bytes", "bytes", `Median);
    ("daemon.state.apply_ms", "ms", `Median);
    ("daemon.journal.append_ms", "ms", `Median);
    ("daemon.state.problem_ms", "ms", `Median);
    ("daemon.solver.solve_ms", "ms", `Median);
    ("core.lp_relax.edit_solve_ms", "ms", `Median);
    ("core.lp_relax.edit_pivots", "count", `Mean);
    ("lp.cold_restarts_per_edit", "ratio", `Median);
    ("core.lp_relax.noedit_solve_ms", "ms", `Median);
    ("lp.reinversions_per_solve", "ratio", `Median);
    ("core.lpr.round_down_ms", "ms", `Median);
    ("core.residual.of_allocation_ms", "ms", `Median);
    ("core.greedy.refine_ms", "ms", `Median);
    ("core.allocation.check_ms", "ms", `Median);
    ("platform.routes_through_sweep_ms", "ms", `Median);
    ("platform.generate_ms", "ms", `Mean);
    ("core.lp_relax.encode_ms", "ms", `Median);
    ("core.lp_relax.cold_solve_ms", "ms", `Mean);
    ("core.lp_relax.cold_pivots", "count", `Mean);
    ("lp.ms_per_pivot", "ms", `Median);
    ("core.lprr.solve_ms", "ms", `Mean);
    ("core.lprr.lp_solves", "count", `Mean);
    ("core.greedy.solve_ms", "ms", `Mean);
    ("experiments.campaign.encode_ms", "ms", `Mean);
    ("daemon.solver.stage_coverage", "ratio", `Median);
    ("experiments.measure.stage_coverage", "ratio", `Median) ]

let run workload ~seed ~seconds:_ =
  let tally = Common.tally () in
  let spec, campaign =
    match workload with
    | "serve-read" | "serve-edit" ->
      let spec = Serve.make_spec (if workload = "serve-read" then `Read else `Edit) ~seed in
      let gen_seed = match spec.Serve.source with `Gen (_, s) -> s | `File _ -> seed in
      let params = { Gen.default_params with Gen.k = spec.Serve.k } in
      (* one problem: measured three times, so one slow call does not
         decide the coverage ratio *)
      let c =
        { problem = Serve.problem_of spec spec.Serve.base_caps; params;
          regenerate = (fun () -> ignore (Gen.generate (Prng.create ~seed:gen_seed) params));
          rng = (fun () -> Prng.derive ~seed ~index:2); with_lprr = true }
      in
      (spec, [ c; c; c ])
    | _ ->
      let inputs = Paper.inputs ~seed in
      (* the daemon layers run on the first K = 15 platform, served from
         a platform file, with a serve-edit script *)
      let p0 = List.hd inputs in
      let file = Common.scratch "paper.dls" in
      Dls_platform.Platform_io.save ~path:file (Problem.platform p0.Paper.problem);
      let platform = ok_or_fail "platform file" (Dls_platform.Platform_io.load ~path:file) in
      let apps =
        List.map
          (fun c -> (Printf.sprintf "app%d" c, c, Problem.payoff p0.Paper.problem c))
          (Problem.active p0.Paper.problem)
      in
      ( Serve.spec_of ~source:(`File file) ~platform ~apps `Edit (Prng.derive ~seed ~index:3),
        List.map
          (fun (p : Paper.input) ->
            { problem = p.Paper.problem; params = p.Paper.params;
              regenerate =
                (fun () -> ignore (Gen.generate (Prng.derive ~seed ~index:p.Paper.index) p.Paper.params));
              rng = (fun () -> Paper.lprr_rng ~seed p); with_lprr = p.Paper.k <= Paper.lprr_max_k })
          inputs )
  in
  daemon_session tally spec ~seed;
  Metrics.enable ();
  replay tally spec;
  lp_stages tally spec ~max_edits:32;
  campaign_layers tally campaign;
  Metrics.disable ();
  ( tally,
    List.filter_map
      (fun (name, unit_, how) ->
        match get name with
        | [] -> None
        | xs -> Some (Common.metric name unit_ (match how with `Median -> Common.median xs | `Mean -> Common.mean xs)))
      reported )
