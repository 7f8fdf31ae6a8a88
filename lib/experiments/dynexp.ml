module Gen = Dls_platform.Generator
module P = Dls_platform.Platform
module Prng = Dls_util.Prng
module J = Dls_util.Json
module Faults = Dls_flowsim.Faults
module Workload = Dls_dynsim.Workload
module Dynamic = Dls_dynsim.Dynamic

type config = {
  seed : int;
  k : int;
  platforms : int;
  jobs : int;
  rate : float;
  heavy : bool;
  swf : string option;
  work_scale : float;
  fault_rate : float;
  policies : Dynamic.policy list;
  measure_time : bool;
}

let default_config =
  { seed = 33;
    k = 4;
    platforms = 3;
    jobs = 40;
    rate = 0.4;
    heavy = false;
    swf = None;
    work_scale = 1.0;
    fault_rate = 0.0;
    policies = Dynamic.all_policies;
    measure_time = true }

let total config = config.platforms * List.length config.policies

let platform_of_index config index = index / List.length config.policies

let policy_of_index config index =
  List.nth config.policies (index mod List.length config.policies)

type record = {
  index : int;
  platform : int;
  policy : Dynamic.policy;
  jobs : int;
  completed : int;
  unfinished : int;
  makespan : float;
  completed_work : float;
  throughput : float;
  mean_response : float;
  events : int;
  replans : int;
  replan_seconds : float;
  log_digest : string;
  guard_exhausted : bool;
}

type 'r entry = 'r Engine.entry =
  | Record of 'r
  | Skipped of { index : int; reason : string }

(* ------------------------------------------------------------------ *)
(* Evaluation of one index                                             *)
(* ------------------------------------------------------------------ *)

(* The fault plan's seed is its own derived function of (seed, platform)
   so the plan never depends on how many draws platform generation
   consumed — and is shared by every policy on that platform. *)
let fault_seed config p = config.seed + ((p + 1) * 1_000_003)

let workload config =
  match config.swf with
  | Some path ->
    Workload.load_swf ~clusters:config.k ~work_scale:config.work_scale ~path ()
  | None ->
    Ok
      (Workload.synthetic ~seed:config.seed ~jobs:config.jobs ~rate:config.rate
         ~heavy:config.heavy ~clusters:config.k ())

let replay config ~index =
  let p = platform_of_index config index in
  let policy = policy_of_index config index in
  let rng = Prng.derive ~seed:config.seed ~index:p in
  let params = Measure.sample_params rng ~k:config.k in
  let platform = Gen.generate rng params in
  match workload config with
  | Error reason -> Error reason
  | Ok wl -> (
    let faults =
      if config.fault_rate <= 0.0 then None
      else begin
        let horizon = 2.0 *. Workload.makespan_lower_bound platform wl in
        if Float.is_finite horizon && horizon > 0.0 then
          Some
            (Faults.random ~seed:(fault_seed config p) ~horizon
               ~link_rate:config.fault_rate
               ~cluster_rate:(config.fault_rate *. 0.5) platform)
        else None
      end
    in
    match Dynamic.run ~policy ?faults platform wl with
    | exception Invalid_argument reason -> Error reason
    | r -> Ok (List.length wl, r))

let evaluate_index config index =
  let p = platform_of_index config index in
  let policy = policy_of_index config index in
  match replay config ~index with
  | Error reason -> Skipped { index; reason }
  | Ok (jobs, r) ->
    Record
      { index;
        platform = p;
        policy;
        jobs;
        completed = List.length r.Dynamic.completed;
        unfinished = r.Dynamic.unfinished;
        makespan = r.Dynamic.makespan;
        completed_work = r.Dynamic.completed_work;
        throughput = r.Dynamic.throughput;
        mean_response = r.Dynamic.mean_response;
        events = r.Dynamic.events;
        replans = r.Dynamic.replans;
        replan_seconds =
          (if not config.measure_time then 0.0
           else Array.fold_left ( +. ) 0.0 r.Dynamic.replan_seconds);
        log_digest = Digest.to_hex (Digest.string r.Dynamic.event_log);
        guard_exhausted = r.Dynamic.guard_exhausted }

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let policy_of_name_res s =
  match Dynamic.policy_of_name s with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown policy %S" s)

let record_fields r =
  [ ("platform", J.Num (float_of_int r.platform));
    ("policy", J.Str (Dynamic.policy_name r.policy));
    ("jobs", J.Num (float_of_int r.jobs));
    ("completed", J.Num (float_of_int r.completed));
    ("unfinished", J.Num (float_of_int r.unfinished));
    ("makespan", J.Num r.makespan);
    ("completed_work", J.Num r.completed_work);
    ("throughput", J.Num r.throughput);
    ("mean_response", J.Num r.mean_response);
    ("events", J.Num (float_of_int r.events));
    ("replans", J.Num (float_of_int r.replans));
    ("replan_seconds", J.Num r.replan_seconds);
    ("log_digest", J.Str r.log_digest);
    ("guard_exhausted", J.Bool r.guard_exhausted) ]

let record_of_json ~index json =
  let* platform = J.int_field "platform" json in
  let* policy_str = J.str_field "policy" json in
  let* policy = policy_of_name_res policy_str in
  let* jobs = J.int_field "jobs" json in
  let* completed = J.int_field "completed" json in
  let* unfinished = J.int_field "unfinished" json in
  let* makespan = J.num_field "makespan" json in
  let* completed_work = J.num_field "completed_work" json in
  let* throughput = J.num_field "throughput" json in
  let* mean_response = J.num_field "mean_response" json in
  let* events = J.int_field "events" json in
  let* replans = J.int_field "replans" json in
  let* replan_seconds = J.num_field "replan_seconds" json in
  let* log_digest = J.str_field "log_digest" json in
  let* guard_exhausted = J.bool_field "guard_exhausted" json in
  Ok
    { index; platform; policy; jobs; completed; unfinished; makespan;
      completed_work; throughput; mean_response; events; replans;
      replan_seconds; log_digest; guard_exhausted }

let codec =
  { Engine.index = (fun r -> r.index);
    to_fields = record_fields;
    of_json = record_of_json }

let entry_index = Engine.entry_index codec

let entry_to_line = Engine.entry_to_line codec

let entry_of_line = Engine.entry_of_line codec

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let validate config =
  if config.policies = [] then Error "dynamic: policies must be non-empty"
  else if config.platforms < 0 then Error "dynamic: platforms must be >= 0"
  else if config.jobs < 0 then Error "dynamic: jobs must be >= 0"
  else if not (config.rate > 0.0 && Float.is_finite config.rate) then
    Error "dynamic: rate must be positive"
  else if config.fault_rate < 0.0 then Error "dynamic: fault_rate must be >= 0"
  else if not (config.work_scale > 0.0 && Float.is_finite config.work_scale)
  then Error "dynamic: work_scale must be positive"
  else Ok ()

(* ["experiment"] leads the manifest, as it always has. *)
let config_fields config =
  [ ("experiment", J.Str "dynamic");
    ("seed", J.Num (float_of_int config.seed));
    ("k", J.Num (float_of_int config.k));
    ("platforms", J.Num (float_of_int config.platforms));
    ("jobs", J.Num (float_of_int config.jobs));
    ("rate", J.Num config.rate);
    ("heavy", J.Bool config.heavy);
    ("swf", match config.swf with None -> J.Null | Some path -> J.Str path);
    ("work_scale", J.Num config.work_scale);
    ("fault_rate", J.Num config.fault_rate);
    ("policies",
     J.Arr
       (List.map (fun p -> J.Str (Dynamic.policy_name p)) config.policies));
    ("measure_time", J.Bool config.measure_time) ]

let spec config =
  { Engine.log_label = "dynamic";
    total = total config;
    config = config_fields config;
    codec;
    evaluate = evaluate_index config;
    entry_times = (fun r -> [ ("replan", r.replan_seconds) ]);
    time_labels = [ "replan" ];
    log_time_stats = config.measure_time }

let run ?domains ?chunk ?checkpoint_every ?shards ?shard ?resume ?out ?on_entry
    config =
  let* () = validate config in
  Engine.run ?domains ?chunk ?checkpoint_every ?shards ?shard ?resume ?out
    ?on_entry (spec config)

let collect ?domains config =
  match Engine.collect codec (fun ~on_entry -> run ?domains ~on_entry config) with
  | Ok records -> records
  | Error msg -> invalid_arg ("Dynexp.collect: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let table config records =
  let rows =
    List.filter_map
      (fun policy ->
        let rs = List.filter (fun r -> r.policy = policy) records in
        match rs with
        | [] -> None
        | rs ->
          let n = float_of_int (List.length rs) in
          let mean f = List.fold_left (fun a r -> a +. f r) 0.0 rs /. n in
          Some
            [ Dynamic.policy_name policy;
              string_of_int (List.length rs);
              Report.cell_float (mean (fun r -> float_of_int r.completed));
              Report.cell_float (mean (fun r -> float_of_int r.unfinished));
              Report.cell_float (mean (fun r -> r.makespan));
              Report.cell_float (mean (fun r -> r.throughput));
              Report.cell_float (mean (fun r -> r.mean_response));
              Report.cell_float (mean (fun r -> float_of_int r.replans));
              Report.cell_float (mean (fun r -> r.replan_seconds)) ])
      config.policies
  in
  { Report.title =
      Printf.sprintf
        "Dynamic workload: online re-planning vs batch baselines (K=%d, %d \
         platforms, %s)"
        config.k config.platforms
        (match config.swf with
        | Some path -> "SWF " ^ path
        | None ->
          Printf.sprintf "%d synthetic jobs, rate %g%s" config.jobs config.rate
            (if config.heavy then ", heavy-tailed" else ""));
    header =
      [ "policy"; "n"; "completed"; "unfinished"; "makespan"; "throughput";
        "response"; "replans"; "replan_s" ];
    rows }
