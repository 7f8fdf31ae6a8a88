(* paper-campaign: the paper's Section 6 unit of work, in process on one
   domain.  Each operation evaluates one Table 1 platform as a campaign
   record (LP bound for both objectives, G, LPR, LPRG, and LPRR at
   K = 15), encodes the record as a JSONL line and appends it to a log.
   Every heuristic allocation is then recomputed and checked with the
   benchmark's own (7a)-(7g) checker. *)

module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng
module Lp = Dls_core.Lp_relax
module Problem = Dls_core.Problem
module Measure = Dls_experiments.Measure
module Campaign = Dls_experiments.Campaign

type input = {
  index : int;
  k : int;
  params : Gen.params;
  problem : Problem.t;
  gen_s : float;  (* time to draw and generate it *)
}

let ks = [ 15; 35; 55 ]
let per_k = 8
let lprr_max_k = 15

(* Table 1 platforms at each K, drawn as [Measure.sample_problem] draws
   them, except that the eight Table 1 connectivities are each used once
   per K (in seeded order) instead of eight independent draws: the
   connectivity sets most of a platform's cost, and stratifying it keeps
   the total work of a run nearly independent of the seed. *)
let draw ~seed k i conn =
  let index = (k * 100) + i in
  let rng = Prng.derive ~seed ~index in
  let t0 = Common.now () in
  let params = { (Measure.sample_params rng ~k) with connectivity = conn } in
  let problem = Measure.assign_workload rng (Gen.generate rng params) in
  { index; k; params; problem; gen_s = Common.now () -. t0 }

let inputs ~seed =
  List.concat_map
    (fun k ->
      let conns = Array.init per_k (fun i -> 0.1 *. float_of_int (1 + (i mod 8))) in
      Prng.shuffle (Prng.derive ~seed ~index:k) conns;
      List.init per_k (fun i -> draw ~seed k i conns.(i)))
    ks

(* LPRR's coin flips: a fresh stream per platform, so every evaluation
   of a platform draws the same coins. *)
let lprr_rng ~seed p = Prng.derive ~seed ~index:(1_000_000 + p.index)

let evaluate ~seed p =
  Measure.evaluate ~with_lprr:(p.k <= lprr_max_k) ~rng:(lprr_rng ~seed p) p.problem

let entry p values =
  Campaign.Record
    { Campaign.index = p.index; params = p.params;
      active_apps = List.length (Problem.active p.problem); values }

let caps p =
  let pr = p.problem in
  Eq7.of_platform (Problem.platform pr)
    ~payoff:(Array.init (Problem.num_clusters pr) (Problem.payoff pr))

let ratio a b = if b > 0.0 then a /. b else if a = 0.0 then 1.0 else nan

(* Recompute every heuristic allocation of [p] and check it against the
   record's values.  Returns the failure reasons. *)
let check_record ~seed p (v : Measure.values) line =
  let c = caps p in
  let pr = p.problem in
  let errs = ref [] in
  let add name es = errs := List.map (fun e -> name ^ ": " ^ e) es @ !errs in
  let verify name obj alloc reported lp =
    add name
      (Eq7.verify c ~obj ~alpha:alloc.Dls_core.Allocation.alpha
         ~beta:alloc.Dls_core.Allocation.beta ~reported ~lp_bound:lp)
  in
  let both name solve mm sum =
    List.iter
      (fun (o, obj, reported, lp) ->
        match solve o with
        | Ok a -> verify name obj a reported lp
        | Error e -> add name [ e ])
      [ (Lp.Maxmin, `Maxmin, mm, v.Measure.lp_maxmin); (Lp.Sum, `Sum, sum, v.Measure.lp_sum) ]
  in
  let g = Dls_core.Greedy.solve pr in
  verify "G" `Maxmin g v.Measure.g_maxmin v.Measure.lp_maxmin;
  verify "G" `Sum g v.Measure.g_sum v.Measure.lp_sum;
  both "LPR" (fun objective -> Dls_core.Lpr.solve ~objective pr) v.Measure.lpr_maxmin v.Measure.lpr_sum;
  both "LPRG" (fun objective -> Dls_core.Lprg.solve ~objective pr) v.Measure.lprg_maxmin v.Measure.lprg_sum;
  (match (v.Measure.lprr_maxmin, v.Measure.lprr_sum) with
  | Some mm, Some sum ->
    (* the same stream, in the order the record consumed it *)
    let rng = lprr_rng ~seed p in
    both "LPRR"
      (fun objective ->
        Result.map (fun s -> s.Dls_core.Lprr.allocation) (Dls_core.Lprr.solve ~objective ~rng pr))
      mm sum
  | None, None when p.k > lprr_max_k -> ()
  | _ -> add "LPRR" [ "missing or unexpected value" ]);
  let tol = 1e-9 in
  if v.Measure.lprg_maxmin < v.Measure.lpr_maxmin -. tol || v.Measure.lprg_sum < v.Measure.lpr_sum -. tol
  then add "LPRG" [ "below LPR" ];
  if p.k <= lprr_max_k then
    List.iter
      (fun (objective, lp) ->
        match Lp.solve_exact ~objective pr with
        | Lp.Solution s when Common.close ~rel:1e-6 (Dls_num.Rat.to_float s.Lp.objective_value) lp -> ()
        | _ -> add "LP" [ "bound differs from the exact optimum" ])
      [ (Lp.Maxmin, v.Measure.lp_maxmin); (Lp.Sum, v.Measure.lp_sum) ];
  (match Campaign.entry_of_line line with
  | Ok e when Campaign.entry_to_line e = line -> ()
  | _ -> add "JSONL" [ "record does not round-trip" ]);
  !errs

(* The objective values that must repeat exactly on every evaluation. *)
let fingerprint (v : Measure.values) =
  [ v.Measure.lp_sum; v.Measure.lp_maxmin; v.Measure.g_sum; v.Measure.lprg_sum;
    v.Measure.lprg_maxmin ]

let run ~seed ~seconds =
  let tally = Common.tally () in
  let inputs = Array.of_list (inputs ~seed) in
  let log = open_out_bin (Common.scratch "campaign.jsonl") in
  Common.on_cleanup (fun () -> close_out_noerr log);
  let n = Array.length inputs in
  let first = Array.make n None in
  let ops = ref [] and rounds = ref [] in
  let t0 = Common.now () in
  while List.length !rounds < 2 || Common.now () -. t0 < seconds do
    let evals = ref [] in
    let cpu0 = Common.self_cpu_s () in
    let r0 = Common.now () in
    Array.iteri
      (fun i p ->
        let result, te = Common.time (fun () -> evaluate ~seed p) in
        evals := te :: !evals;
        match result with
        | Error e -> ops := (i, [ e ]) :: !ops
        | Ok v ->
          let line = Campaign.entry_to_line (entry p v) in
          output_string log line;
          output_char log '\n';
          flush log;
          let errs =
            match first.(i) with
            | None ->
              first.(i) <- Some (v, line);
              []
            | Some (v1, _) when fingerprint v1 = fingerprint v -> []
            | Some _ -> [ "evaluation not repeatable" ]
          in
          ops := (i, errs) :: !ops)
      inputs;
    rounds :=
      { Common.wall = Common.now () -. r0; cpu = Common.self_cpu_s () -. cpu0; ops = n;
        gets = !evals }
      :: !rounds
  done;
  (* set-up: generating the platforms, timed before the rounds (in
     [inputs]) and again after them; the mean of the two passes *)
  let setup_s =
    Array.fold_left
      (fun acc p -> acc +. p.gen_s +. (draw ~seed p.k (p.index mod 100) p.params.Gen.connectivity).gen_s)
      0.0 inputs
    /. 2.0
  in
  let checks =
    Array.mapi
      (fun i p ->
        match first.(i) with
        | Some (v, line) -> check_record ~seed p v line
        | None -> [])
      inputs
  in
  List.iter (fun (i, errs) -> Common.record_op tally (errs @ checks.(i))) (List.rev !ops);
  (match first.(0) with
  | Some _ ->
    let p = inputs.(0) in
    (match Dls_core.Lprg.solve ~objective:Lp.Sum p.problem with
    | Ok a ->
      Common.self_test tally
        (Eq7.rejects_perturbations (caps p) ~alpha:a.Dls_core.Allocation.alpha
           ~beta:a.Dls_core.Allocation.beta)
        "perturbed allocation accepted"
    | Error e -> Common.self_test tally false e)
  | None -> ());
  let quality =
    Array.to_list first
    |> List.concat_map (function
         | Some (v, _) ->
           [ ratio v.Measure.lprg_sum v.Measure.lp_sum; ratio v.Measure.lprg_maxmin v.Measure.lp_maxmin ]
         | None -> [])
  in
  ( tally,
    (Common.metric "setup_s" "s" setup_s :: Common.round_metrics ~get:Common.mean ~tail:(Common.tail_mean 0.25) !rounds)
    @ [ Common.metric "peak_rss_mb" "MiB" (Common.peak_rss_mb (Unix.getpid ()));
        Common.metric "quality_over_lp" "ratio" (Common.mean quality) ] )
