module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng
module J = Dls_util.Json
module Faults = Dls_flowsim.Faults
module Simulator = Dls_flowsim.Simulator
open Dls_core

type config = {
  seed : int;
  k : int;
  rates : float list;
  per_rate : int;
  periods : int;
  policy : Faults.policy;
  measure_time : bool;
}

let default_config =
  { seed = 21;
    k = 12;
    rates = [ 0.02; 0.05; 0.1 ];
    per_rate = 4;
    periods = 20;
    policy = Faults.Stall;
    measure_time = true }

let total config = config.per_rate * List.length config.rates

let rate_of_index config index = List.nth config.rates (index / config.per_rate)

type hres = {
  predicted : float;
  baseline : float;
  faulted : float;
  repaired : float;
  stage : Repair.stage;
  repair_seconds : float;
  killed : int;
  stalled : int;
}

type record = {
  index : int;
  rate : float;
  fault_events : int;
  downtime : float;
  results : (Heuristics.t * hres option) list;
}

type entry = Record of record | Skipped of { index : int; reason : string }

let entry_index = function
  | Record r -> r.index
  | Skipped { index; _ } -> index

(* ------------------------------------------------------------------ *)
(* Evaluation of one index                                             *)
(* ------------------------------------------------------------------ *)

let total_achieved (s : Simulator.stats) =
  Array.fold_left ( +. ) 0.0 s.Simulator.achieved

let total_predicted problem alloc =
  let kk = Problem.num_clusters problem in
  let acc = ref 0.0 in
  for k = 0 to kk - 1 do
    acc := !acc +. Allocation.app_throughput alloc k
  done;
  !acc

(* The fault plan's seed is its own derived function of (seed, index) so
   the plan never depends on how many draws the platform or the
   heuristics consumed. *)
let fault_seed config index = config.seed + ((index + 1) * 1_000_003)

let evaluate_index config index =
  let rate = rate_of_index config index in
  let rng = Prng.derive ~seed:config.seed ~index in
  let params = Measure.sample_params rng ~k:config.k in
  let platform = Gen.generate rng params in
  let problem = Measure.assign_workload rng platform in
  let horizon = float_of_int config.periods in
  let plan =
    Faults.random ~seed:(fault_seed config index) ~horizon ~link_rate:rate
      ~cluster_rate:(rate *. 0.5) platform
  in
  match
    let degraded = Faults.degraded_at platform plan ~time:horizon in
    let payoffs =
      Array.init (Problem.num_clusters problem) (Problem.payoff problem)
    in
    Problem.make degraded ~payoffs
  with
  | exception Invalid_argument msg -> Skipped { index; reason = msg }
  | dproblem ->
    (* LPR and LPRG share one MAXMIN relaxation. *)
    let relaxation = lazy (Relaxation.solve problem) in
    let eval_heuristic h =
      match Heuristics.run ~rng:(Prng.split rng) ~relaxation h problem with
      | Error _ -> None
      | Ok alloc -> (
        let base = Simulator.run ~periods:config.periods problem alloc in
        let fstats =
          Simulator.run ~periods:config.periods ~faults:plan
            ~fault_policy:config.policy problem alloc
        in
        match Repair.repair ~rng:(Prng.split rng) dproblem alloc with
        | Error _ -> None
        | Ok outcome ->
          let seconds =
            if not config.measure_time then 0.0
            else
              List.fold_left
                (fun acc (a : Repair.attempt) -> acc +. a.Repair.seconds)
                0.0 outcome.Repair.attempts
          in
          Some
            { predicted = total_predicted problem alloc;
              baseline = total_achieved base;
              faulted = total_achieved fstats;
              repaired = total_predicted dproblem outcome.Repair.allocation;
              stage = outcome.Repair.stage;
              repair_seconds = seconds;
              killed = fstats.Simulator.killed_transfers;
              stalled = fstats.Simulator.stalled_transfers })
    in
    let results = List.map (fun h -> (h, eval_heuristic h)) Heuristics.all in
    if List.for_all (fun (_, r) -> r = None) results then
      Skipped { index; reason = "no heuristic produced a repairable allocation" }
    else
      Record
        { index; rate;
          fault_events =
            List.length
              (List.filter
                 (fun e -> e.Faults.time < horizon)
                 (Faults.events plan));
          downtime = Faults.downtime platform plan ~horizon;
          results }

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let stage_of_name = function
  | "rescale" -> Ok Repair.Rescale
  | "refine" -> Ok Repair.Refine
  | "resolve" -> Ok Repair.Resolve
  | s -> Error (Printf.sprintf "unknown repair stage %S" s)

let hres_to_json = function
  | None -> J.Null
  | Some h ->
    J.Obj
      [ ("predicted", J.Num h.predicted);
        ("baseline", J.Num h.baseline);
        ("faulted", J.Num h.faulted);
        ("repaired", J.Num h.repaired);
        ("stage", J.Str (Repair.stage_name h.stage));
        ("repair_seconds", J.Num h.repair_seconds);
        ("killed", J.Num (float_of_int h.killed));
        ("stalled", J.Num (float_of_int h.stalled)) ]

let field name json =
  match J.member name json with
  | Some v -> Ok v
  | None -> Error ("missing field \"" ^ name ^ "\"")

let num_field name json =
  let* v = field name json in
  J.to_num v

let int_field name json =
  let* v = field name json in
  J.to_int v

let str_field name json =
  let* v = field name json in
  J.to_str v

let hres_of_json = function
  | J.Null -> Ok None
  | json ->
    let* predicted = num_field "predicted" json in
    let* baseline = num_field "baseline" json in
    let* faulted = num_field "faulted" json in
    let* repaired = num_field "repaired" json in
    let* stage_str = str_field "stage" json in
    let* stage = stage_of_name stage_str in
    let* repair_seconds = num_field "repair_seconds" json in
    let* killed = int_field "killed" json in
    let* stalled = int_field "stalled" json in
    Ok
      (Some
         { predicted; baseline; faulted; repaired; stage; repair_seconds;
           killed; stalled })

let entry_to_line = function
  | Record r ->
    J.to_string
      (J.Obj
         [ ("type", J.Str "record");
           ("index", J.Num (float_of_int r.index));
           ("rate", J.Num r.rate);
           ("fault_events", J.Num (float_of_int r.fault_events));
           ("downtime", J.Num r.downtime);
           ("results",
            J.Obj
              (List.map
                 (fun (h, res) -> (Heuristics.name h, hres_to_json res))
                 r.results)) ])
  | Skipped { index; reason } ->
    J.to_string
      (J.Obj
         [ ("type", J.Str "skipped");
           ("index", J.Num (float_of_int index));
           ("reason", J.Str reason) ])

let entry_of_line line =
  let* json = J.of_string line in
  let* kind = str_field "type" json in
  let* index = int_field "index" json in
  match kind with
  | "record" ->
    let* rate = num_field "rate" json in
    let* fault_events = int_field "fault_events" json in
    let* downtime = num_field "downtime" json in
    let* results_json = field "results" json in
    let* results =
      List.fold_left
        (fun acc h ->
          let* acc = acc in
          let* res_json = field (Heuristics.name h) results_json in
          let* res = hres_of_json res_json in
          Ok ((h, res) :: acc))
        (Ok []) Heuristics.all
    in
    Ok (Record { index; rate; fault_events; downtime; results = List.rev results })
  | "skipped" ->
    let* reason = str_field "reason" json in
    Ok (Skipped { index; reason })
  | other -> Error ("unknown entry type \"" ^ other ^ "\"")

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)
(* ------------------------------------------------------------------ *)

let policy_name = function Faults.Stall -> "stall" | Faults.Kill -> "kill"

let policy_of_name = function
  | "stall" -> Ok Faults.Stall
  | "kill" -> Ok Faults.Kill
  | s -> Error (Printf.sprintf "unknown fault policy %S" s)

let manifest_to_string config ~completed =
  J.to_string
    (J.Obj
       [ ("version", J.Num 1.0);
         ("experiment", J.Str "resilience");
         ("seed", J.Num (float_of_int config.seed));
         ("k", J.Num (float_of_int config.k));
         ("rates", J.Arr (List.map (fun r -> J.Num r) config.rates));
         ("per_rate", J.Num (float_of_int config.per_rate));
         ("periods", J.Num (float_of_int config.periods));
         ("policy", J.Str (policy_name config.policy));
         ("measure_time", J.Bool config.measure_time);
         ("total", J.Num (float_of_int (total config)));
         ("completed", J.Num (float_of_int completed)) ])

let config_of_manifest s =
  let* json = J.of_string s in
  let* version = int_field "version" json in
  if version <> 1 then
    Error (Printf.sprintf "unsupported manifest version %d" version)
  else
    let* experiment = str_field "experiment" json in
    if experiment <> "resilience" then
      Error (Printf.sprintf "manifest belongs to experiment %S" experiment)
    else
      let* seed = int_field "seed" json in
      let* k = int_field "k" json in
      let* rates_json = field "rates" json in
      let* rates_items = J.to_list rates_json in
      let* rates =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* r = J.to_num item in
            Ok (r :: acc))
          (Ok []) rates_items
      in
      let rates = List.rev rates in
      let* per_rate = int_field "per_rate" json in
      let* periods = int_field "periods" json in
      let* policy_str = str_field "policy" json in
      let* policy = policy_of_name policy_str in
      let* measure_time_json = field "measure_time" json in
      let* measure_time = J.to_bool measure_time_json in
      Ok { seed; k; rates; per_rate; periods; policy; measure_time }

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let validate config =
  if config.rates = [] then Error "resilience: rates must be non-empty"
  else if List.exists (fun r -> r < 0.0) config.rates then
    Error "resilience: rates must be >= 0"
  else if config.per_rate < 0 then Error "resilience: per_rate must be >= 0"
  else if config.periods < 3 then Error "resilience: periods must be >= 3"
  else Ok ()

let spec config =
  { Engine.log_label = "resilience";
    total = total config;
    index_of = entry_index;
    to_line = entry_to_line;
    of_line = entry_of_line;
    evaluate = evaluate_index config;
    skip_reason =
      (function Record _ -> None | Skipped { reason; _ } -> Some reason);
    entry_times =
      (function
      | Skipped _ -> []
      | Record r ->
        List.filter_map
          (fun (_, res) ->
            Option.map (fun h -> ("repair", h.repair_seconds)) res)
          r.results);
    time_labels = [ "repair" ];
    log_time_stats = config.measure_time;
    write_manifest =
      (fun ~out ~completed ->
        Engine.write_atomic ~path:(out ^ ".manifest")
          (manifest_to_string config ~completed ^ "\n"));
    check_manifest =
      (fun ~path ->
        let mpath = path ^ ".manifest" in
        if not (Sys.file_exists mpath) then Ok ()
        else
          let* c =
            config_of_manifest
              (In_channel.with_open_bin mpath In_channel.input_all)
          in
          if c <> config then
            Error
              (mpath
               ^ ": checkpoint belongs to a different resilience config; \
                  refusing to resume")
          else Ok ()) }

let run ?domains ?chunk ?checkpoint_every ?shards ?shard ?resume ?out ?on_entry
    config =
  let* () = validate config in
  Engine.run ?domains ?chunk ?checkpoint_every ?shards ?shard ?resume ?out
    ?on_entry (spec config)

let collect ?domains config =
  let records = ref [] in
  match
    run ?domains
      ~on_entry:(function Record r -> records := r :: !records | Skipped _ -> ())
      config
  with
  | Ok _ -> List.sort (fun a b -> Stdlib.compare a.index b.index) !records
  | Error msg -> invalid_arg ("Resilience.collect: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let ratio num den = if den > 0.0 then num /. den else 1.0

let table config records =
  let rows =
    List.concat_map
      (fun rate ->
        let at_rate = List.filter (fun r -> r.rate = rate) records in
        List.filter_map
          (fun h ->
            let hs =
              List.filter_map
                (fun r -> List.assoc_opt h r.results |> Option.join)
                at_rate
            in
            match hs with
            | [] -> None
            | hs ->
              let n = float_of_int (List.length hs) in
              let mean f = List.fold_left (fun a x -> a +. f x) 0.0 hs /. n in
              let retained = mean (fun x -> ratio x.faulted x.baseline) in
              let repaired = mean (fun x -> ratio x.repaired x.predicted) in
              let stage_counts =
                List.map
                  (fun s ->
                    ( s,
                      List.length (List.filter (fun x -> x.stage = s) hs) ))
                  [ Repair.Rescale; Repair.Refine; Repair.Resolve ]
              in
              let modal_stage, _ =
                List.fold_left
                  (fun (bs, bc) (s, c) -> if c > bc then (s, c) else (bs, bc))
                  (Repair.Rescale, -1) stage_counts
              in
              Some
                [ Report.cell_float rate;
                  Heuristics.name h;
                  string_of_int (List.length hs);
                  Report.cell_float retained;
                  Report.cell_float repaired;
                  Repair.stage_name modal_stage;
                  Report.cell_float (mean (fun x -> x.repair_seconds)) ])
          Heuristics.all)
      config.rates
  in
  { Report.title =
      Printf.sprintf
        "Resilience: throughput retained under faults (K=%d, %d platforms per \
         rate, policy %s)"
        config.k config.per_rate (policy_name config.policy);
    header =
      [ "rate"; "heuristic"; "n"; "retained"; "repaired"; "stage"; "repair_s" ];
    rows }
