(* serve-read and serve-edit: a real daemon process, clients in this
   process, every reply checked against capacities the benchmark derives
   itself from the generated platform and the edits it sent. *)

module P = Dls_platform.Platform
module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng
module Faults = Dls_flowsim.Faults
module Lp = Dls_core.Lp_relax
module Pr = Dls_daemon.Protocol

type op = Get of Lp.objective | Edit of Faults.kind

type spec = {
  k : int;
  source : [ `Gen of int * int | `File of string ];  (* how the daemon gets it *)
  platform : P.t;  (* the nominal platform, as the daemon builds it *)
  apps : (string * int * float) list;  (* name, cluster, payoff *)
  base_caps : Eq7.caps;  (* nominal capacities, every application registered *)
  scripts : op array array;  (* one round, per connection *)
  min_rounds : int;
  tail : float;
      (* the highest get percentile with at least ten distinct requests
         of a round beyond it: rounds repeat the same requests, so a
         higher one would be set by a handful of inputs *)
}

let k = 24

let obj_kind = function Lp.Sum -> `Sum | Lp.Maxmin -> `Maxmin

let obj_name = function Lp.Sum -> "sum" | Lp.Maxmin -> "maxmin"

(* [n] objectives, exactly half of each, in seeded order. *)
let objectives rng n =
  let a = Array.init n (fun i -> if i mod 2 = 0 then Lp.Maxmin else Lp.Sum) in
  Prng.shuffle rng a;
  a

let throttle rng k =
  let cluster = Prng.int rng ~lo:0 ~hi:(k - 1) in
  Faults.Cluster_throttle { cluster; factor = Prng.float rng ~lo:0.3 ~hi:1.0 }

let max_connect rng platform =
  let link = Prng.int rng ~lo:0 ~hi:(P.num_backbones platform - 1) in
  let nominal = (P.backbone platform link).P.max_connect in
  Faults.Max_connect { link; limit = Prng.int rng ~lo:1 ~hi:(max 1 nominal) }

(* Request scripts for [platform] with applications [apps]; every draw
   comes from [rng], before anything runs. *)
let spec_of ~source ~platform ~apps workload rng =
  let k = P.num_clusters platform in
  let payoff = Array.make k 0.0 in
  List.iter (fun (_, c, p) -> payoff.(c) <- p) apps;
  let scripts, (min_rounds, tail) =
    match workload with
    | `Read ->
      (* 320 requests per connection; connection 0 throttles a cluster
         every 16th request, everything else is a get: 620 gets *)
      let n = 320 in
      let objs0 = objectives rng (n - (n / 16)) and objs1 = objectives rng n in
      let g = ref 0 in
      let conn0 =
        Array.init n (fun i ->
            if (i + 1) mod 16 = 0 then Edit (throttle rng k)
            else begin
              incr g;
              Get objs0.(!g - 1)
            end)
      in
      ([| conn0; Array.map (fun o -> Get o) objs1 |], (2, 0.98))
    | `Edit ->
      (* 256 (capacity edit, get) pairs on one connection *)
      let pairs = 256 in
      let objs = objectives rng pairs in
      let conn0 =
        Array.init (2 * pairs) (fun i ->
            if i mod 2 = 0 then
              Edit (if Prng.bool rng ~p:0.5 then throttle rng k else max_connect rng platform)
            else Get objs.(i / 2))
      in
      ([| conn0 |], (4, 0.96))
  in
  { k; source; platform; apps; base_caps = Eq7.of_platform platform ~payoff; scripts;
    min_rounds; tail }

(* The serve workloads' inputs: the daemon's default generated platform
   at K = 24 (generator seed 0), with an application of seeded payoff on
   a seeded half of its clusters.  The platform is the daemon's fixed
   configuration and the seed drives everything sent to it; a platform
   drawn per seed moved the per-request cost by about 10% from seed to
   seed, on top of the host's own drift. *)
let make_spec workload ~seed =
  let gen_seed = 0 in
  let platform = Gen.generate (Prng.create ~seed:gen_seed) { Gen.default_params with k } in
  let rng = Prng.derive ~seed ~index:1 in
  let order = Array.init k Fun.id in
  Prng.shuffle rng order;
  let apps =
    List.init (k / 2) (fun i ->
        let c = order.(i) in
        (Printf.sprintf "app%d" c, c, Prng.float rng ~lo:0.5 ~hi:2.0))
  in
  spec_of ~source:(`Gen (k, gen_seed)) ~platform ~apps workload rng

let request = function
  | Get objective -> Pr.Get_schedule { objective; budget_ms = None }
  | Edit kind -> Pr.Mutate (Pr.Platform_delta [ kind ])

let register (name, cluster, payoff) = Pr.Mutate (Pr.Register_app { app = name; cluster; payoff })

(* Capacities after one more accepted edit. *)
let apply_edit spec caps = function
  | Faults.Cluster_throttle { cluster; factor } ->
    caps.Eq7.speed.(cluster) <- P.speed spec.platform cluster *. factor
  | Faults.Max_connect { link; limit } -> caps.Eq7.max_connect.(link) <- limit
  | _ -> invalid_arg "apply_edit: not a benchmark edit"

(* ------------------------------------------------------------------ *)
(* Start-up: spawn, register, first schedule                           *)
(* ------------------------------------------------------------------ *)

type session = {
  daemon : Dclient.t;
  conns : Dclient.conn array;
  setup_s : float;
  first_get : string;  (* MAXMIN reply on the registered, unedited state *)
}

let start ?(name = "serve") spec ~nconns ~seed =
  let t0 = Common.now () in
  let daemon = Dclient.spawn ~name ~platform:spec.source ~seed in
  let conns = Array.init nconns (fun _ -> Dclient.connect daemon) in
  List.iteri
    (fun i app ->
      match Dclient.mutation_seq (Dclient.call conns.(0) (register app)) with
      | Ok s when s = i + 1 -> ()
      | Ok s -> failwith (Printf.sprintf "registration %d acknowledged as seq %d" i s)
      | Error e -> failwith e)
    spec.apps;
  let first_get = Dclient.call conns.(0) (request (Get Lp.Maxmin)) in
  { daemon; conns; setup_s = Common.now () -. t0; first_get }

let stop s =
  Array.iter Dclient.close_conn s.conns;
  Dclient.stop s.daemon

(* ------------------------------------------------------------------ *)
(* Checking replies                                                    *)
(* ------------------------------------------------------------------ *)

type get_reply = { objective : Lp.objective; payload : string }

(* LP relaxation bounds, shared between replies on identical states. *)
let bounds : (string * string, float) Hashtbl.t = Hashtbl.create 64

let problem_of spec caps =
  Dls_core.Problem.make (Eq7.to_platform spec.platform caps) ~payoffs:caps.Eq7.payoff

let lp_bound spec caps objective =
  let key = (Eq7.key caps, obj_name objective) in
  match Hashtbl.find_opt bounds key with
  | Some v -> v
  | None ->
    let v =
      match Lp.solve ~objective (problem_of spec caps) with
      | Lp.Solution s -> s.Lp.objective_value
      | Lp.Failed m -> failwith ("LP bound: " ^ m)
    in
    Hashtbl.replace bounds key v;
    v

let matrices k sr =
  let alpha = Array.make_matrix k k 0.0 and beta = Array.make_matrix k k 0 in
  List.iter (fun (a, b, v) -> alpha.(a).(b) <- v) sr.Pr.sr_alpha;
  List.iter (fun (a, b, v) -> beta.(a).(b) <- v) sr.Pr.sr_beta;
  (alpha, beta)

(* Verify one get reply against the state it names; returns the
   failure reasons and, when it passed, objective / LP bound. *)
let check_get spec ~caps_at g =
  let j = Dclient.parse g.payload in
  if Dclient.status j <> "ok" then ([ "get not ok: " ^ g.payload ], None)
  else
    match Pr.schedule_reply_of_json j with
    | Error e -> ([ "undecodable reply: " ^ e ], None)
    | Ok sr ->
      let flags =
        (if sr.Pr.sr_degraded then [ "degraded reply" ] else [])
        @ if sr.Pr.sr_breaker <> "closed" then [ "breaker " ^ sr.Pr.sr_breaker ] else []
      in
      (match caps_at sr.Pr.sr_seq with
      | None -> (flags @ [ Printf.sprintf "reply names unknown seq %d" sr.Pr.sr_seq ], None)
      | Some caps ->
        let alpha, beta = matrices spec.k sr in
        let bound = lp_bound spec caps g.objective in
        let errs =
          flags
          @ Eq7.verify caps ~obj:(obj_kind g.objective) ~alpha ~beta
              ~reported:sr.Pr.sr_objective ~lp_bound:bound
        in
        let q = if bound > 0.0 then Some (sr.Pr.sr_objective /. bound) else None in
        (errs, if errs = [] then q else None))

(* The LP bound the quality ratio divides by must be the true optimum:
   compare with the exact rational simplex on [caps].  Only the SUM
   objective is cross-checked at K = 24: the exact MAXMIN solve there
   runs for minutes. *)
let exact_agrees spec caps objective =
  match Lp.solve_exact ~objective (problem_of spec caps) with
  | Lp.Solution s ->
    Common.close ~rel:1e-6 (Dls_num.Rat.to_float s.Lp.objective_value) (lp_bound spec caps objective)
  | Lp.Failed _ -> false

(* ------------------------------------------------------------------ *)
(* The measured run                                                    *)
(* ------------------------------------------------------------------ *)

let run workload ~seed ~seconds =
  let spec = make_spec workload ~seed in
  let tally = Common.tally () in
  let nconns = Array.length spec.scripts in
  let session = start spec ~nconns ~seed in
  (* set-up is short and the host's speed drifts, so it is repeated
     after every round, with the measured daemon idle *)
  let setup_times = ref [ session.setup_s ] in
  let napps = List.length spec.apps in
  let edits = ref [] and n_edits = ref 0 in
  let gets = ref [] and rounds = ref [] in
  let pid = session.daemon.Dclient.pid in
  let t0 = Common.now () in
  let requests_of_round = Array.map (Array.map request) spec.scripts in
  while List.length !rounds < spec.min_rounds || Common.now () -. t0 < seconds do
    let get_rtts = ref [] and requests = ref 0 in
    let cpu0 = Common.proc_cpu_s pid in
    let r0 = Common.now () in
    Dclient.drive session.conns requests_of_round
      ~on_reply:(fun c i rtt payload ->
        incr requests;
        match spec.scripts.(c).(i) with
        | Get objective ->
          get_rtts := rtt :: !get_rtts;
          gets := { objective; payload } :: !gets
        | Edit kind ->
          incr n_edits;
          let expect = napps + !n_edits in
          edits := kind :: !edits;
          let errs =
            match Dclient.mutation_seq payload with
            | Ok s when s = expect -> []
            | Ok s -> [ Printf.sprintf "edit acknowledged as seq %d, expected %d" s expect ]
            | Error e -> [ e ]
          in
          Common.record_op tally errs);
    let wall = Common.now () -. r0 in
    rounds :=
      { Common.wall; cpu = Common.proc_cpu_s pid -. cpu0; ops = !requests; gets = !get_rtts }
      :: !rounds;
    let extra = start ~name:"setup" spec ~nconns ~seed in
    stop extra;
    setup_times := extra.setup_s :: !setup_times
  done;
  let rss = Common.peak_rss_mb pid in
  stop session;
  (* capacities at every seq from the registered state onwards *)
  let caps_list =
    let c = Eq7.copy spec.base_caps in
    let acc = ref [ Eq7.copy c ] in
    List.iter
      (fun e ->
        apply_edit spec c e;
        acc := Eq7.copy c :: !acc)
      (List.rev !edits);
    Array.of_list (List.rev !acc)
  in
  let caps_at s =
    let i = s - napps in
    if i >= 0 && i < Array.length caps_list then Some caps_list.(i) else None
  in
  let ratios = ref [] in
  let check g =
    let errs, q = check_get spec ~caps_at g in
    Common.record_op tally errs;
    Option.iter (fun q -> ratios := q :: !ratios) q
  in
  check { objective = Lp.Maxmin; payload = session.first_get };
  List.iter check (List.rev !gets);
  (* self-tests: the checker rejects perturbed replies, and the float LP
     bound matches the exact one on a few states *)
  (match Pr.schedule_reply_of_json (Dclient.parse session.first_get) with
  | Ok sr ->
    let alpha, beta = matrices spec.k sr in
    Common.self_test tally
      (Eq7.rejects_perturbations caps_list.(0) ~alpha ~beta)
      "perturbed reply accepted"
  | Error e -> Common.self_test tally false e);
  let last = Array.length caps_list - 1 in
  List.iter
    (fun (i, o) ->
      Common.self_test tally (exact_agrees spec caps_list.(i) o)
        (Printf.sprintf "LP bound differs from the exact optimum at state %d" i))
    [ (0, Lp.Sum); (last / 2, Lp.Sum); (last, Lp.Sum) ];
  ( tally,
    (Common.metric "setup_s" "s" (Common.median !setup_times)
    :: Common.round_metrics ~get:Common.median
         ~tail:(fun xs -> Common.percentile xs spec.tail) !rounds)
    @ [ Common.metric "peak_rss_mb" "MiB" rss;
        Common.metric "quality_over_lp" "ratio" (Common.mean !ratios) ] )
