(* Tests for Dls_core: the steady-state problem, the feasibility checker
   (Equations 7a-7g), the LP relaxation (float vs exact), the four
   heuristics, the periodic-schedule reconstruction, and the Section 4
   NP-hardness gadget checked against ground-truth MIS. *)

module G = Dls_graph.Graph
module Mis = Dls_graph.Mis
module P = Dls_platform.Platform
module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng
module Q = Dls_num.Rat
module B = Dls_num.Bigint
open Dls_core

let feps = 1e-6

(* Star platform: one source cluster plus [n] workers hanging off a hub
   router; every parameter explicit for hand-computable optima. *)
let star_platform ~src_speed ~src_g ~worker_speed ~worker_g ~bw ~maxcon n =
  let topology = G.star (n + 1) in
  let clusters =
    Array.init (n + 1) (fun k ->
        if k = 0 then { P.speed = src_speed; local_bw = src_g; router = 0 }
        else { P.speed = worker_speed; local_bw = worker_g; router = k })
  in
  let backbones = Array.make n { P.bw; max_connect = maxcon } in
  P.make ~clusters ~topology ~backbones

let random_problem ?(kmin = 2) ?(kmax = 8) seed =
  let rng = Prng.create ~seed in
  let k = Prng.int rng ~lo:kmin ~hi:kmax in
  let params =
    { Gen.default_params with
      k;
      connectivity = Prng.float rng ~lo:0.1 ~hi:0.8;
      heterogeneity = Prng.float rng ~lo:0.2 ~hi:0.8;
      mean_g = Prng.float rng ~lo:50.0 ~hi:450.0;
      mean_bw = Prng.float rng ~lo:10.0 ~hi:90.0;
      mean_maxcon = Prng.float rng ~lo:5.0 ~hi:95.0 }
  in
  Problem.uniform (Gen.generate rng params)

(* ------------------------------------------------------------------ *)
(* Problem                                                             *)
(* ------------------------------------------------------------------ *)

let test_problem_basics () =
  let p = star_platform ~src_speed:0.0 ~src_g:10.0 ~worker_speed:5.0
      ~worker_g:10.0 ~bw:2.0 ~maxcon:3 2 in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0; 2.0 |] in
  Alcotest.(check (list int)) "active" [ 0; 2 ] (Problem.active pr);
  Alcotest.(check bool) "inactive" false (Problem.is_active pr 1);
  Alcotest.check_raises "payoff count"
    (Invalid_argument "Problem.make: one payoff per cluster required") (fun () ->
      ignore (Problem.make p ~payoffs:[| 1.0 |]));
  Alcotest.check_raises "negative payoff"
    (Invalid_argument "Problem.make: payoff 1 must be finite and >= 0") (fun () ->
      ignore (Problem.make p ~payoffs:[| 1.0; -2.0; 0.0 |]))

(* ------------------------------------------------------------------ *)
(* Feasibility checker                                                 *)
(* ------------------------------------------------------------------ *)

let two_cluster_problem () =
  (* C0 --l0-- C1, bw 2, maxcon 2; s = 10 each, g = 4 each. *)
  let topology = G.path_graph 2 in
  let clusters =
    Array.init 2 (fun k -> { P.speed = 10.0; local_bw = 4.0; router = k })
  in
  let backbones = [| { P.bw = 2.0; max_connect = 2 } |] in
  Problem.uniform (P.make ~clusters ~topology ~backbones)

let test_check_feasible () =
  let pr = two_cluster_problem () in
  let a = Allocation.zero 2 in
  a.Allocation.alpha.(0).(0) <- 6.0;
  a.Allocation.alpha.(0).(1) <- 4.0;
  a.Allocation.beta.(0).(1) <- 2;
  Alcotest.(check (list string)) "no violations" []
    (List.map (Format.asprintf "%a" Allocation.pp_violation) (Allocation.check pr a));
  Alcotest.(check (float feps)) "throughput" 10.0 (Allocation.app_throughput a 0);
  Alcotest.(check (float feps)) "sum" 10.0 (Allocation.sum_objective pr a);
  Alcotest.(check (float feps)) "maxmin is min" 0.0 (Allocation.maxmin_objective pr a)

let test_check_violations () =
  let pr = two_cluster_problem () in
  let has pred a = List.exists pred (Allocation.check pr a) in
  let base () = Allocation.zero 2 in
  (* CPU. *)
  let a = base () in
  a.Allocation.alpha.(0).(0) <- 11.0;
  Alcotest.(check bool) "cpu" true
    (has (function Allocation.Cpu_exceeded 0 -> true | _ -> false) a);
  (* Local link. *)
  let a = base () in
  a.Allocation.alpha.(0).(1) <- 4.5;
  a.Allocation.beta.(0).(1) <- 3;
  Alcotest.(check bool) "local link" true
    (has (function Allocation.Local_link_exceeded _ -> true | _ -> false) a);
  (* Connections. *)
  let a = base () in
  a.Allocation.alpha.(0).(1) <- 1.0;
  a.Allocation.beta.(0).(1) <- 3;
  Alcotest.(check bool) "connections" true
    (has (function Allocation.Connections_exceeded 0 -> true | _ -> false) a);
  (* Bandwidth: 3 units over 1 connection of bw 2. *)
  let a = base () in
  a.Allocation.alpha.(0).(1) <- 3.0;
  a.Allocation.beta.(0).(1) <- 1;
  Alcotest.(check bool) "bandwidth" true
    (has (function Allocation.Bandwidth_exceeded (0, 1) -> true | _ -> false) a);
  (* Negative alpha. *)
  let a = base () in
  a.Allocation.alpha.(1).(0) <- -1.0;
  Alcotest.(check bool) "negative" true
    (has (function Allocation.Negative_alpha (1, 0) -> true | _ -> false) a)

let test_check_inactive_sender () =
  let p = Problem.platform (two_cluster_problem ()) in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0 |] in
  let a = Allocation.zero 2 in
  a.Allocation.alpha.(1).(1) <- 1.0;
  Alcotest.(check bool) "inactive sender flagged" true
    (List.exists
       (function Allocation.Inactive_sender 1 -> true | _ -> false)
       (Allocation.check pr a))

(* ------------------------------------------------------------------ *)
(* LP relaxation                                                       *)
(* ------------------------------------------------------------------ *)

let lp_value ?objective pr =
  match Lp_relax.solve ?objective pr with
  | Lp_relax.Solution s -> s.Lp_relax.objective_value
  | Lp_relax.Failed msg -> Alcotest.failf "LP failed: %s" msg

let test_lp_single_cluster () =
  let topology = G.create ~n:1 ~edges:[] in
  let clusters = [| { P.speed = 100.0; local_bw = 50.0; router = 0 } |] in
  let pr = Problem.uniform (P.make ~clusters ~topology ~backbones:[||]) in
  Alcotest.(check (float feps)) "local only" 100.0 (lp_value ~objective:Lp_relax.Sum pr);
  Alcotest.(check (float feps)) "maxmin same" 100.0
    (lp_value ~objective:Lp_relax.Maxmin pr)

let test_lp_star_bottlenecks () =
  let mk ~src_g ~bw ~maxcon ~worker_speed =
    let p =
      star_platform ~src_speed:0.0 ~src_g ~worker_speed ~worker_g:100.0 ~bw
        ~maxcon 1
    in
    Problem.make p ~payoffs:[| 1.0; 0.0 |]
  in
  (* Worker-speed-bound: min(10, 5, 2*3=6) = 5. *)
  Alcotest.(check (float feps)) "speed bound" 5.0
    (lp_value (mk ~src_g:10.0 ~bw:2.0 ~maxcon:3 ~worker_speed:5.0));
  (* Connection-bound: min(10, 50, 2*1) = 2. *)
  Alcotest.(check (float feps)) "connection bound" 2.0
    (lp_value (mk ~src_g:10.0 ~bw:2.0 ~maxcon:1 ~worker_speed:50.0));
  (* Local-link-bound: min(3, 50, 2*9) = 3. *)
  Alcotest.(check (float feps)) "local link bound" 3.0
    (lp_value (mk ~src_g:3.0 ~bw:2.0 ~maxcon:9 ~worker_speed:50.0))

let test_lp_maxmin_vs_sum () =
  (* Two active apps, one worker each, asymmetric speeds: SUM piles on
     the fast side, MAXMIN equalizes. *)
  let topology = G.path_graph 2 in
  let clusters =
    [| { P.speed = 10.0; local_bw = 100.0; router = 0 };
       { P.speed = 2.0; local_bw = 100.0; router = 1 } |]
  in
  let backbones = [| { P.bw = 100.0; max_connect = 10 } |] in
  let pr = Problem.uniform (P.make ~clusters ~topology ~backbones) in
  (* Total capacity 12, SUM = 12; MAXMIN: each app can get 6. *)
  Alcotest.(check (float feps)) "sum" 12.0 (lp_value ~objective:Lp_relax.Sum pr);
  Alcotest.(check (float feps)) "maxmin" 6.0 (lp_value ~objective:Lp_relax.Maxmin pr)

let test_lp_payoff_weighting () =
  (* One cluster, two payoff levels: SUM scales by pi. *)
  let topology = G.create ~n:1 ~edges:[] in
  let clusters = [| { P.speed = 10.0; local_bw = 1.0; router = 0 } |] in
  let p = P.make ~clusters ~topology ~backbones:[||] in
  let pr = Problem.make p ~payoffs:[| 3.0 |] in
  Alcotest.(check (float feps)) "sum weighted" 30.0
    (lp_value ~objective:Lp_relax.Sum pr);
  Alcotest.(check (float feps)) "maxmin weighted" 30.0
    (lp_value ~objective:Lp_relax.Maxmin pr)

let test_lp_no_active_apps () =
  let topology = G.create ~n:1 ~edges:[] in
  let clusters = [| { P.speed = 10.0; local_bw = 1.0; router = 0 } |] in
  let pr = Problem.make (P.make ~clusters ~topology ~backbones:[||]) ~payoffs:[| 0.0 |] in
  Alcotest.(check (float feps)) "zero" 0.0 (lp_value pr)

let test_lp_exact_matches_float () =
  let pr = random_problem 123 in
  let f = lp_value ~objective:Lp_relax.Maxmin pr in
  match Lp_relax.solve_exact ~objective:Lp_relax.Maxmin pr with
  | Lp_relax.Solution s ->
    Alcotest.(check (float 1e-6)) "exact = float" (Q.to_float s.Lp_relax.objective_value) f
  | Lp_relax.Failed msg -> Alcotest.failf "exact LP failed: %s" msg

let test_lp_fixed_beta_zero_kills_route () =
  let p =
    star_platform ~src_speed:0.0 ~src_g:10.0 ~worker_speed:5.0 ~worker_g:10.0
      ~bw:2.0 ~maxcon:3 1
  in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0 |] in
  match Lp_relax.solve ~fixed:[ ((0, 1), 0) ] pr with
  | Lp_relax.Solution s ->
    Alcotest.(check (float feps)) "no work through dead route" 0.0
      s.Lp_relax.objective_value
  | Lp_relax.Failed msg -> Alcotest.failf "LP failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Heuristics: unit behaviour                                          *)
(* ------------------------------------------------------------------ *)

let test_greedy_isolated_clusters_run_locally () =
  let topology = G.create ~n:3 ~edges:[] in
  let clusters =
    Array.init 3 (fun k ->
        { P.speed = float_of_int (10 * (k + 1)); local_bw = 5.0; router = k })
  in
  let pr = Problem.uniform (P.make ~clusters ~topology ~backbones:[||]) in
  let a = Greedy.solve pr in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible pr a);
  Alcotest.(check (float feps)) "app0 local" 10.0 a.Allocation.alpha.(0).(0);
  Alcotest.(check (float feps)) "app2 local" 30.0 a.Allocation.alpha.(2).(2);
  Alcotest.(check (float feps)) "maxmin" 10.0 (Allocation.maxmin_objective pr a)

let test_greedy_single_active_app_uses_network () =
  (* Source with no speed must delegate through the star. *)
  let p =
    star_platform ~src_speed:0.0 ~src_g:100.0 ~worker_speed:5.0 ~worker_g:10.0
      ~bw:4.0 ~maxcon:2 3
  in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0; 0.0; 0.0 |] in
  let a = Greedy.solve pr in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible pr a);
  (* Each worker: min(g0, bw 4, g 10, s 5) = 4 per connection; two
     connections allowed but worker speed caps at 5. *)
  Alcotest.(check bool) "delegates substantially" true
    (Allocation.app_throughput a 0 >= 12.0 -. feps)

let test_greedy_skips_zero_payoff () =
  let pr =
    Problem.make
      (Problem.platform (two_cluster_problem ()))
      ~payoffs:[| 0.0; 0.0 |]
  in
  let a = Greedy.solve pr in
  Alcotest.(check (float feps)) "no work at all" 0.0 (Allocation.sum_objective pr a)

let test_lpr_rounds_down_to_zero () =
  (* beta~ = alpha/bw < 1 on every route => LPR kills all remote work.
     Star: source s=0, one worker s=1, bw=10: alpha~=1, beta~=0.1. *)
  let p =
    star_platform ~src_speed:0.0 ~src_g:10.0 ~worker_speed:1.0 ~worker_g:10.0
      ~bw:10.0 ~maxcon:5 1
  in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0 |] in
  (match Lpr.solve pr with
   | Ok a ->
     Alcotest.(check (float feps)) "LPR zero" 0.0 (Allocation.sum_objective pr a);
     Alcotest.(check bool) "feasible" true (Allocation.is_feasible pr a)
   | Error msg -> Alcotest.failf "LPR failed: %s" msg);
  (* LPRG reclaims the wasted route. *)
  match Lprg.solve pr with
  | Ok a ->
    Alcotest.(check bool) "LPRG feasible" true (Allocation.is_feasible pr a);
    Alcotest.(check (float feps)) "LPRG reclaims" 1.0 (Allocation.sum_objective pr a)
  | Error msg -> Alcotest.failf "LPRG failed: %s" msg

let test_lprr_stats_bounds () =
  let pr = random_problem ~kmin:3 ~kmax:5 7 in
  let rng = Prng.create ~seed:99 in
  match Lprr.solve ~rng pr with
  | Ok stats ->
    let pairs = List.length (Lp_relax.remote_pairs pr) in
    Alcotest.(check bool) "lp_solves <= pairs + 2" true
      (stats.Lprr.lp_solves <= pairs + 2);
    Alcotest.(check bool) "feasible" true
      (Allocation.is_feasible pr stats.Lprr.allocation)
  | Error msg -> Alcotest.failf "LPRR failed: %s" msg

let prop_lprr_slots_match_recompute =
  (* S4: the incremental used-slots table agrees with the brute-force
     rescan after every pin of a random pin sequence. *)
  QCheck2.Test.make ~name:"incremental slot table matches recomputed slack"
    ~count:50 (QCheck2.Gen.int_range 0 100_000) (fun seed ->
      let pr = random_problem ~kmin:3 ~kmax:7 seed in
      let rng = Prng.create ~seed:(seed + 17) in
      let pairs = Array.of_list (Lp_relax.remote_pairs pr) in
      Prng.shuffle rng pairs;
      let slots = Lprr.Slots.create pr in
      let pins = ref [] in
      Array.for_all
        (fun pair ->
          let slack = Lprr.Slots.route_slack slots pair in
          let reference = Lprr.recompute_route_slack pr !pins pair in
          let v = Prng.int rng ~lo:0 ~hi:(Stdlib.max 0 slack) in
          Lprr.Slots.pin slots pair v;
          pins := (pair, v) :: !pins;
          slack = reference
          && Lprr.Slots.route_slack slots pair
             = Lprr.recompute_route_slack pr !pins pair)
        pairs)

let prop_lprr_warm_matches_cold_lps =
  (* S5: an LPRR run, whose LPs are warm-started re-solves, must (i)
     produce a feasible allocation, and (ii) have seen, at every
     iteration, the same LP optimum a from-scratch solve under the same
     pin prefix finds — solver state carried across pins never changes
     the math.  Both objectives: SUM re-solves under pins take other
     pivots than MAXMIN's degenerate ones. *)
  QCheck2.Test.make ~name:"warm LPRR objectives match cold solves per pin prefix"
    ~count:16
    QCheck2.Gen.(pair (int_range 0 100_000) (oneofl [ Lp_relax.Sum; Lp_relax.Maxmin ]))
    (fun (seed, objective) ->
      let pr = random_problem ~kmin:3 ~kmax:5 seed in
      let rng = Prng.create ~seed:(seed + 23) in
      match Lprr.solve ~objective ~rng pr with
      | Error _ -> true (* platforms where the relaxation fails are not the point *)
      | Ok st ->
        let trace = Array.of_list st.Lprr.pin_trace in
        let npins = Array.length trace in
        let prefix n = Array.to_list (Array.sub trace 0 n) in
        let close a b =
          Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
        in
        let c = st.Lprr.counters in
        Allocation.is_feasible pr st.Lprr.allocation
        && c.Dls_lp.Revised_simplex.solves = st.Lprr.lp_solves
        && c.Dls_lp.Revised_simplex.warm_starts + c.Dls_lp.Revised_simplex.cold_starts
           = c.Dls_lp.Revised_simplex.solves
        && List.for_all Fun.id
             (List.mapi
                (fun i obj ->
                  (* Solve i of the loop ran under the first i pins; the
                     final solve under all of them. *)
                  let fixed = prefix (Stdlib.min i npins) in
                  match Lp_relax.solve ~objective ~fixed pr with
                  | Lp_relax.Solution cold ->
                    close obj cold.Lp_relax.objective_value
                  | Lp_relax.Failed _ -> false)
                st.Lprr.lp_objectives))

let test_heuristics_names () =
  List.iter
    (fun h ->
      Alcotest.(check (option string))
        (Heuristics.name h)
        (Some (Heuristics.name h))
        (Option.map Heuristics.name (Heuristics.of_name (Heuristics.name h))))
    Heuristics.all;
  Alcotest.(check bool) "unknown" true (Heuristics.of_name "nope" = None)

(* ------------------------------------------------------------------ *)
(* Heuristics: properties on random platforms                          *)
(* ------------------------------------------------------------------ *)

let seed_gen = QCheck2.Gen.int_range 0 100_000

let prop_heuristics_feasible =
  QCheck2.Test.make ~name:"every heuristic output satisfies Eqs 7a-7g" ~count:25
    seed_gen (fun seed ->
      let pr = random_problem seed in
      List.for_all
        (fun h ->
          match Heuristics.run ~rng:(Prng.create ~seed) h pr with
          | Ok a -> Allocation.is_feasible pr a
          | Error _ -> false)
        Heuristics.all)

let prop_lp_upper_bounds_heuristics =
  QCheck2.Test.make ~name:"LP bound dominates every heuristic" ~count:20 seed_gen
    (fun seed ->
      let pr = random_problem seed in
      let tol v = (1.0 +. 1e-6) *. Float.max v 1e-9 in
      List.for_all
        (fun obj ->
          let bound =
            match Heuristics.lp_bound ~objective:obj pr with
            | Ok v -> v
            | Error _ -> -1.0
          in
          bound >= 0.0
          && List.for_all
               (fun h ->
                 match Heuristics.run ~objective:obj ~rng:(Prng.create ~seed) h pr with
                 | Ok a ->
                   let v =
                     match obj with
                     | Lp_relax.Sum -> Allocation.sum_objective pr a
                     | Lp_relax.Maxmin -> Allocation.maxmin_objective pr a
                   in
                   v <= tol bound
                 | Error _ -> false)
               Heuristics.all)
        [ Lp_relax.Sum; Lp_relax.Maxmin ])

let prop_lprg_dominates_lpr =
  QCheck2.Test.make ~name:"LPRG >= LPR on both objectives" ~count:20 seed_gen
    (fun seed ->
      let pr = random_problem seed in
      List.for_all
        (fun obj ->
          match (Lpr.solve ~objective:obj pr, Lprg.solve ~objective:obj pr) with
          | Ok lpr, Ok lprg ->
            let value a =
              match obj with
              | Lp_relax.Sum -> Allocation.sum_objective pr a
              | Lp_relax.Maxmin -> Allocation.maxmin_objective pr a
            in
            value lprg >= value lpr -. 1e-6
          | _ -> false)
        [ Lp_relax.Sum; Lp_relax.Maxmin ])

(* One shared relaxation must give exactly what the per-heuristic
   wrappers give: the same bits in every alpha, the same betas and the
   same bound, on Table 1 problems for both objectives. *)
let same_alloc (a : Allocation.t) (b : Allocation.t) =
  let bits = Array.map (Array.map Int64.bits_of_float) in
  bits a.Allocation.alpha = bits b.Allocation.alpha && a.Allocation.beta = b.Allocation.beta

let prop_shared_relaxation_matches_wrappers =
  QCheck2.Test.make ~name:"shared relaxation = per-heuristic solves" ~count:15
    seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let k = Prng.int rng ~lo:3 ~hi:15 in
      let pr = Dls_experiments.Measure.sample_problem rng ~k in
      List.for_all
        (fun objective ->
          match
            ( Relaxation.solve ~objective pr,
              Lpr.solve ~objective pr,
              Lprg.solve ~objective pr,
              Heuristics.lp_bound ~objective pr )
          with
          | Ok r, Ok lpr, Ok lprg, Ok bound ->
            let relaxation = lazy (Ok r) in
            let run h = Heuristics.run ~objective ~relaxation h pr in
            same_alloc (Lpr.of_relaxation r) lpr
            && same_alloc (Lprg.of_relaxation r) lprg
            && Int64.equal (Int64.bits_of_float (Heuristics.bound_of r))
                 (Int64.bits_of_float bound)
            && (match (run Heuristics.LPR, run Heuristics.LPRG) with
                | Ok a, Ok b -> same_alloc a lpr && same_alloc b lprg
                | _ -> false)
          | _ -> false)
        [ Lp_relax.Sum; Lp_relax.Maxmin ])

let test_run_rejects_foreign_relaxation () =
  let pr = random_problem 7 in
  let relaxation = lazy (Relaxation.solve ~objective:Lp_relax.Sum pr) in
  Alcotest.check_raises "objective mismatch"
    (Invalid_argument "Heuristics.run: relaxation of another problem or objective")
    (fun () ->
      ignore (Heuristics.run ~objective:Lp_relax.Maxmin ~relaxation Heuristics.LPR pr));
  Alcotest.check_raises "problem mismatch"
    (Invalid_argument "Heuristics.run: relaxation of another problem or objective")
    (fun () ->
      ignore
        (Heuristics.run ~objective:Lp_relax.Sum ~relaxation Heuristics.LPRG
           (random_problem 8)));
  (* G and LPRR never force it. *)
  let unforced = lazy (Alcotest.fail "relaxation forced") in
  List.iter
    (fun h ->
      Alcotest.(check bool) (Heuristics.name h) true
        (Result.is_ok (Heuristics.run ~relaxation:unforced h pr)))
    [ Heuristics.G; Heuristics.LPRR ]

(* ------------------------------------------------------------------ *)
(* Schedule reconstruction                                             *)
(* ------------------------------------------------------------------ *)

let test_schedule_from_exact_lp () =
  let pr = two_cluster_problem () in
  match Lp_relax.solve_exact ~objective:Lp_relax.Maxmin pr with
  | Lp_relax.Failed msg -> Alcotest.failf "exact LP failed: %s" msg
  | Lp_relax.Solution sol ->
    (* Round betas up to integers (ceil alpha/g is feasible here because
       maxcon is generous), then build and validate the schedule. *)
    let kk = 2 in
    let exact =
      { Schedule.alpha = sol.Lp_relax.alpha;
        beta =
          Array.init kk (fun k ->
              Array.init kk (fun l ->
                  B.to_int_exn (Q.ceil sol.Lp_relax.beta.(k).(l)))) }
    in
    let sched = Schedule.build exact in
    (match Schedule.validate pr sched with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "schedule invalid: %s" msg);
    (* Throughput of the schedule equals the allocation's throughput. *)
    let a0 =
      Array.fold_left (fun acc v -> Q.add acc v) Q.zero sol.Lp_relax.alpha.(0)
    in
    Alcotest.(check bool) "throughput preserved" true
      (Q.equal a0 (Schedule.app_throughput sched 0))

let test_schedule_period_is_lcm () =
  let alpha = Array.make_matrix 2 2 Q.zero in
  alpha.(0).(0) <- Q.of_ints 1 6;
  alpha.(1).(1) <- Q.of_ints 3 4;
  let sched = Schedule.build { Schedule.alpha; beta = Array.make_matrix 2 2 0 } in
  Alcotest.(check string) "lcm(6,4)" "12" (B.to_string sched.Schedule.period);
  let amounts =
    List.map
      (fun c -> (c.Schedule.cluster, B.to_string c.Schedule.amount))
      sched.Schedule.computes
  in
  Alcotest.(check bool) "integral amounts" true
    (List.mem (0, "2") amounts && List.mem (1, "9") amounts)

let test_schedule_float_roundtrip () =
  let pr = two_cluster_problem () in
  let a = Greedy.solve pr in
  let exact = Schedule.exact_of_float a in
  let sched = Schedule.build exact in
  (match Schedule.validate pr sched with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "exact lift invalid: %s" msg);
  let t0 = Q.to_float (Schedule.app_throughput sched 0) in
  Alcotest.(check (float 1e-9)) "same throughput" (Allocation.app_throughput a 0) t0

let prop_schedule_approx_always_valid =
  (* Downward rational rounding means every approximate schedule built
     from a feasible allocation must validate, with human-scale periods. *)
  QCheck2.Test.make ~name:"approximate schedules of feasible allocations validate"
    ~count:15 (QCheck2.Gen.int_range 0 10_000)
    (fun seed ->
      let pr = random_problem seed in
      let a = Greedy.solve pr in
      let sched = Schedule.build (Schedule.exact_of_float ~approx_max_den:1000 a) in
      Schedule.validate pr sched = Ok ()
      (* lcm of <= K^2 denominators each <= 1000 stays far below the
         2^53-denominator blowup of the exact lift *)
      && B.num_bits sched.Schedule.period <= 10 * Problem.num_clusters pr * Problem.num_clusters pr)

let test_schedule_approx_and_scale () =
  let alpha = Array.make_matrix 1 1 Q.zero in
  alpha.(0).(0) <- Q.of_float 0.333333333333333;
  let e = { Schedule.alpha; beta = Array.make_matrix 1 1 0 } in
  let lifted = Schedule.exact_of_float ~approx_max_den:100 (Allocation.zero 1) in
  ignore lifted;
  let scaled = Schedule.scale_down e ~factor:(Q.of_ints 1 2) in
  Alcotest.(check bool) "halved" true
    (Q.equal scaled.Schedule.alpha.(0).(0) (Q.div_int e.Schedule.alpha.(0).(0) 2));
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Schedule.scale_down: factor must be in (0, 1]") (fun () ->
      ignore (Schedule.scale_down e ~factor:(Q.of_int 2)))

(* ------------------------------------------------------------------ *)
(* NP-hardness gadget                                                  *)
(* ------------------------------------------------------------------ *)

let gadget_graphs () =
  [ ("petersen", G.petersen ()); ("cycle5", G.cycle 5); ("path4", G.path_graph 4);
    ("complete4", G.complete 4); ("star5", G.star 5) ]

let test_reduction_platform_valid () =
  List.iter
    (fun (name, g) ->
      let pr = Reduction.build g in
      match P.validate (Problem.platform pr) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s gadget invalid: %s" name msg)
    (gadget_graphs ())

let test_reduction_mis_allocation_feasible () =
  List.iter
    (fun (name, g) ->
      let pr = Reduction.build g in
      let mis = Mis.max_independent_set g in
      let a = Reduction.allocation_of_independent_set pr mis in
      Alcotest.(check bool) (name ^ " feasible") true (Allocation.is_feasible pr a);
      Alcotest.(check (float feps)) (name ^ " throughput = MIS")
        (float_of_int (List.length mis))
        (Allocation.maxmin_objective pr a))
    (gadget_graphs ())

let test_reduction_adjacent_vertices_infeasible () =
  (* Shipping to two adjacent vertices needs two connections on the
     shared lcommon link, which has max_connect = 1. *)
  let g = G.path_graph 2 in
  let pr = Reduction.build g in
  let a = Reduction.allocation_of_independent_set pr [ 0; 1 ] in
  Alcotest.(check bool) "infeasible" false (Allocation.is_feasible pr a);
  Alcotest.(check bool) "connection violation" true
    (List.exists
       (function Allocation.Connections_exceeded _ -> true | _ -> false)
       (Allocation.check pr a))

let test_reduction_heuristics_bounded_by_mis () =
  List.iter
    (fun (name, g) ->
      let pr = Reduction.build g in
      let mis_size = float_of_int (Mis.independence_number g) in
      List.iter
        (fun h ->
          match Heuristics.run ~rng:(Prng.create ~seed:5) h pr with
          | Ok a ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s feasible" name (Heuristics.name h))
              true (Allocation.is_feasible pr a);
            let v = Allocation.sum_objective pr a in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s <= MIS" name (Heuristics.name h))
              true
              (v <= mis_size +. feps);
            let set = Reduction.independent_set_of_allocation a in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s extracts IS" name (Heuristics.name h))
              true (Mis.is_independent g set)
          | Error msg -> Alcotest.failf "%s/%s failed: %s" name (Heuristics.name h) msg)
        Heuristics.all)
    [ ("cycle5", G.cycle 5); ("path4", G.path_graph 4) ]

let test_reduction_triangle_fractional_lp () =
  (* On the triangle the integral optimum is 1 (= MIS) but the rational
     relaxation reaches 3/2 by splitting connections: exact check. *)
  let pr = Reduction.build (G.cycle 3) in
  match Lp_relax.solve_exact ~objective:Lp_relax.Maxmin pr with
  | Lp_relax.Solution s ->
    Alcotest.(check bool) "exact 3/2" true
      (Q.equal (Q.of_ints 3 2) s.Lp_relax.objective_value)
  | Lp_relax.Failed msg -> Alcotest.failf "exact LP failed: %s" msg

let prop_reduction_equivalence_small_graphs =
  QCheck2.Test.make
    ~name:"gadget: canonical IS allocation feasible iff set independent" ~count:30
    QCheck2.Gen.(pair (int_range 2 7) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Prng.create ~seed in
      let g = G.gnp rng ~n ~p:0.4 in
      let pr = Reduction.build g in
      (* Random vertex subset. *)
      let subset =
        List.filter (fun _ -> Prng.bool rng ~p:0.5) (List.init n Fun.id)
      in
      let a = Reduction.allocation_of_independent_set pr subset in
      Allocation.is_feasible pr a = Mis.is_independent g subset)

(* ------------------------------------------------------------------ *)
(* Makespan layer                                                      *)
(* ------------------------------------------------------------------ *)

let test_makespan_periodic () =
  let pr = two_cluster_problem () in
  let a = Greedy.solve pr in
  let sched = Schedule.build (Schedule.exact_of_float ~approx_max_den:100 a) in
  let w = Array.map Q.of_int [| 100; 50 |] in
  match Makespan.periodic sched ~workloads:w with
  | Error msg -> Alcotest.failf "periodic failed: %s" msg
  | Ok e ->
    Alcotest.(check bool) "efficiency in (0,1]" true
      (e.Makespan.efficiency > 0.0 && e.Makespan.efficiency <= 1.0);
    Alcotest.(check bool) "makespan >= lower bound" true
      (Q.compare e.Makespan.lower_bound e.Makespan.makespan <= 0);
    (* Every application's load fits in the scheduled periods. *)
    let period = Q.of_bigint sched.Schedule.period in
    Array.iteri
      (fun k wk ->
        let done_ =
          Q.mul (Schedule.app_throughput sched k)
            (Q.mul (Q.of_bigint e.Makespan.periods) period)
        in
        Alcotest.(check bool)
          (Printf.sprintf "app %d completes" k)
          true
          (Q.compare wk done_ <= 0))
      w

let test_makespan_zero_throughput_rejected () =
  let a = Allocation.zero 2 in
  a.Allocation.alpha.(0).(0) <- 5.0;
  let sched = Schedule.build (Schedule.exact_of_float a) in
  match Makespan.periodic sched ~workloads:[| Q.of_int 1; Q.of_int 1 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for starved application"

let test_makespan_asymptotic_optimality () =
  let pr = two_cluster_problem () in
  let a = Greedy.solve pr in
  let sched = Schedule.build (Schedule.exact_of_float ~approx_max_den:100 a) in
  let w = Array.map Q.of_int [| 7; 3 |] in
  let e1 = Makespan.asymptotic_efficiency sched ~workloads:w ~scale:1 in
  let e100 = Makespan.asymptotic_efficiency sched ~workloads:w ~scale:100 in
  let e10000 = Makespan.asymptotic_efficiency sched ~workloads:w ~scale:10_000 in
  Alcotest.(check bool) "efficiency grows" true (e100 >= e1 -. 1e-9);
  Alcotest.(check bool) "tends to 1" true (e10000 > 0.99)

let test_makespan_sequential_baseline () =
  let pr = two_cluster_problem () in
  let w = Array.map Q.of_int [| 100; 50 |] in
  match Makespan.sequential_baseline pr ~workloads:w with
  | Error msg -> Alcotest.failf "baseline failed: %s" msg
  | Ok total ->
    (* Each app alone reaches at most total speed 20; the sum of solo
       times is at least (100 + 50) / 20. *)
    Alcotest.(check bool) "sane lower limit" true
      (Q.compare (Q.of_ints 150 20) total <= 0)

(* ------------------------------------------------------------------ *)
(* Fairness metrics                                                    *)
(* ------------------------------------------------------------------ *)

let test_fairness_metrics () =
  let pr = two_cluster_problem () in
  (* Perfectly even: both apps at 5. *)
  let even = Allocation.zero 2 in
  even.Allocation.alpha.(0).(0) <- 5.0;
  even.Allocation.alpha.(1).(1) <- 5.0;
  Alcotest.(check (float 1e-9)) "jain even" 1.0 (Fairness.jain_index pr even);
  Alcotest.(check (float 1e-9)) "ratio even" 1.0 (Fairness.min_over_max pr even);
  (* One-sided: app 0 gets everything. *)
  let skewed = Allocation.zero 2 in
  skewed.Allocation.alpha.(0).(0) <- 10.0;
  Alcotest.(check (float 1e-9)) "jain skewed" 0.5 (Fairness.jain_index pr skewed);
  Alcotest.(check (float 1e-9)) "ratio skewed" 0.0 (Fairness.min_over_max pr skewed);
  (* Empty allocation: neutral by convention. *)
  Alcotest.(check (float 1e-9)) "jain empty" 1.0
    (Fairness.jain_index pr (Allocation.zero 2));
  (* Payoff weighting: pi = (1, 2) with throughputs (2, 1) is even. *)
  let p = Problem.platform pr in
  let weighted = Problem.make p ~payoffs:[| 1.0; 2.0 |] in
  let a = Allocation.zero 2 in
  a.Allocation.alpha.(0).(0) <- 2.0;
  a.Allocation.alpha.(1).(1) <- 1.0;
  Alcotest.(check (float 1e-9)) "weighted even" 1.0 (Fairness.jain_index weighted a)

let prop_fairness_lprr_at_least_as_fair_as_g =
  (* LPRR optimizes MAXMIN nearly exactly; on average its Jain index
     should not trail G's by much.  We assert the weak per-instance
     bound that both metrics stay in range. *)
  QCheck2.Test.make ~name:"fairness metrics stay in range" ~count:15 seed_gen
    (fun seed ->
      let pr = random_problem seed in
      List.for_all
        (fun h ->
          match Heuristics.run ~rng:(Prng.create ~seed) h pr with
          | Ok a ->
            let j = Fairness.jain_index pr a in
            let r = Fairness.min_over_max pr a in
            j >= 0.0 && j <= 1.0 +. 1e-9 && r >= 0.0 && r <= 1.0 +. 1e-9
          | Error _ -> false)
        Heuristics.all)

(* ------------------------------------------------------------------ *)
(* Unbounded-connection baseline ([34]-style producer/consumer)        *)
(* ------------------------------------------------------------------ *)

let test_unbounded_baseline_gap () =
  (* Connection-starved platform: one route, bw 2, maxcon 1.  The
     realistic optimum is 2; the idealized model (parallel messages
     unlimited) promises min(g, s) = 5. *)
  let p =
    star_platform ~src_speed:0.0 ~src_g:10.0 ~worker_speed:5.0 ~worker_g:10.0
      ~bw:2.0 ~maxcon:1 1
  in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0 |] in
  match Unbounded_baseline.compare pr with
  | Error msg -> Alcotest.failf "baseline failed: %s" msg
  | Ok c ->
    Alcotest.(check (float feps)) "idealized" 5.0 c.Unbounded_baseline.idealized;
    Alcotest.(check (float feps)) "realistic" 2.0 c.Unbounded_baseline.realistic;
    Alcotest.(check bool) "repair within realistic" true
      (c.Unbounded_baseline.repaired <= c.Unbounded_baseline.realistic +. feps)

let prop_unbounded_baseline_ordering =
  QCheck2.Test.make
    ~name:"idealized >= realistic >= repaired, and repairs are feasible" ~count:15
    seed_gen (fun seed ->
      let pr = random_problem seed in
      match
        (Unbounded_baseline.compare pr, Unbounded_baseline.solve pr)
      with
      | Ok c, Ok sol ->
        let repaired_alloc = Unbounded_baseline.repair pr sol in
        Allocation.is_feasible pr repaired_alloc
        && c.Unbounded_baseline.idealized >= c.Unbounded_baseline.realistic -. 1e-6
        && c.Unbounded_baseline.realistic
           >= c.Unbounded_baseline.repaired -. 1e-6
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let timeline_fixture () =
  let pr = two_cluster_problem () in
  let a = Greedy.solve pr in
  let sched = Schedule.build (Schedule.exact_of_float ~approx_max_den:100 a) in
  (pr, sched)

let test_timeline_build_and_validate () =
  let pr, sched = timeline_fixture () in
  let w = Array.map Q.of_int [| 37; 13 |] in
  match Timeline.build pr sched ~workloads:w with
  | Error msg -> Alcotest.failf "timeline failed: %s" msg
  | Ok tl ->
    (match Timeline.validate tl with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "invalid timeline: %s" msg);
    (* Every application's full workload is computed, exactly. *)
    Array.iteri
      (fun k wk ->
        Alcotest.(check bool)
          (Printf.sprintf "app %d total" k)
          true
          (Q.equal wk (Timeline.total_computed tl k)))
      w;
    (* Makespan is bounded by the estimate's (periods + 1) * T_p. *)
    (match Makespan.periodic sched ~workloads:w with
     | Ok e ->
       Alcotest.(check bool) "within makespan bound" true
         (Q.compare tl.Timeline.makespan e.Makespan.makespan <= 0)
     | Error msg -> Alcotest.failf "makespan failed: %s" msg)

let test_timeline_rejects_starved_app () =
  let pr, sched = timeline_fixture () in
  (* App 1 computes nothing in this schedule? If it does, starve an
     artificial third app id by giving workload where throughput is 0 is
     impossible here, so instead check negative workload rejection. *)
  match Timeline.build pr sched ~workloads:[| Q.of_int (-1); Q.zero |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let prop_timeline_valid_on_random_platforms =
  QCheck2.Test.make ~name:"timelines validate and conserve work" ~count:12
    (QCheck2.Gen.int_range 0 10_000)
    (fun seed ->
      let pr = random_problem ~kmin:2 ~kmax:5 seed in
      let a = Greedy.solve pr in
      let sched = Schedule.build (Schedule.exact_of_float ~approx_max_den:64 a) in
      let kk = Problem.num_clusters pr in
      let w =
        Array.init kk (fun k ->
            if Allocation.app_throughput a k > 1e-6 then Q.of_int ((seed mod 20) + 5)
            else Q.zero)
      in
      match Timeline.build pr sched ~workloads:w with
      | Error _ -> false
      | Ok tl ->
        Timeline.validate tl = Ok ()
        && Array.for_all
             (fun k -> Q.equal w.(k) (Timeline.total_computed tl k))
             (Array.init kk Fun.id))

(* ------------------------------------------------------------------ *)
(* Exact MIP (branch and bound)                                        *)
(* ------------------------------------------------------------------ *)

let test_mip_equals_mis_on_gadgets () =
  (* Theorem 1, verified exactly: the optimal integral MAXMIN throughput
     of the gadget equals the graph's independence number. *)
  List.iter
    (fun (name, g) ->
      let pr = Reduction.build g in
      match Mip.solve ~objective:Lp_relax.Maxmin pr with
      | Error msg -> Alcotest.failf "%s: MIP failed: %s" name msg
      | Ok stats ->
        Alcotest.(check bool) (name ^ " feasible") true
          (Allocation.is_feasible pr stats.Mip.allocation);
        Alcotest.(check (float 1e-6))
          (name ^ " optimum = MIS")
          (float_of_int (Mis.independence_number g))
          stats.Mip.objective_value)
    [ ("path2", G.path_graph 2); ("path3", G.path_graph 3);
      ("triangle", G.cycle 3); ("cycle4", G.cycle 4); ("cycle5", G.cycle 5) ]

let test_mip_equals_mis_exhaustive_n4 () =
  (* Theorem 1, exhaustively: over EVERY graph on 4 vertices (64 edge
     subsets), the exact integral MAXMIN optimum of the gadget equals
     the independence number. *)
  let all_pairs = [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  for mask = 0 to 63 do
    let edges = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) all_pairs in
    let g = G.create ~n:4 ~edges in
    let pr = Reduction.build g in
    match Mip.solve ~objective:Lp_relax.Maxmin pr with
    | Error msg -> Alcotest.failf "mask %d: MIP failed: %s" mask msg
    | Ok stats ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "mask %d optimum = MIS" mask)
        (float_of_int (Mis.independence_number g))
        stats.Mip.objective_value
  done

let tiny_mip_problem seed =
  (* Small caps keep the branch-and-bound domain enumerable. *)
  let rng = Prng.create ~seed in
  let k = Prng.int rng ~lo:2 ~hi:4 in
  let params =
    { Gen.default_params with
      k;
      connectivity = 0.6;
      heterogeneity = 0.2;
      mean_g = 60.0;
      mean_bw = 25.0;
      mean_maxcon = 2.0 }
  in
  Problem.uniform (Gen.generate rng params)

let prop_mip_between_heuristics_and_lp =
  QCheck2.Test.make
    ~name:"heuristics <= exact MIP optimum <= LP bound (tiny instances)" ~count:10
    (QCheck2.Gen.int_range 0 10_000)
    (fun seed ->
      let pr = tiny_mip_problem seed in
      match
        ( Mip.solve ~objective:Lp_relax.Maxmin pr,
          Heuristics.lp_bound ~objective:Lp_relax.Maxmin pr )
      with
      | Ok mip, Ok lp ->
        Allocation.is_feasible pr mip.Mip.allocation
        && mip.Mip.objective_value <= lp +. 1e-5
        && List.for_all
             (fun h ->
               match
                 Heuristics.run ~objective:Lp_relax.Maxmin ~rng:(Prng.create ~seed)
                   h pr
               with
               | Ok a ->
                 Allocation.maxmin_objective pr a
                 <= mip.Mip.objective_value +. 1e-5
               | Error _ -> false)
             Heuristics.all
      | _ -> false)

let test_analysis_utilization () =
  let pr = two_cluster_problem () in
  let a = Allocation.zero 2 in
  a.Allocation.alpha.(0).(0) <- 10.0;  (* saturates C0's cpu (s = 10) *)
  a.Allocation.alpha.(0).(1) <- 4.0;  (* saturates both local links (g = 4) *)
  a.Allocation.beta.(0).(1) <- 2;  (* saturates l0's cap and beta*bw = 4 *)
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible pr a);
  let bn = Analysis.bottlenecks pr a in
  let has r = List.exists (fun u -> u.Analysis.resource = r) bn in
  Alcotest.(check bool) "cpu 0 binding" true (has (Analysis.Cpu 0));
  Alcotest.(check bool) "local links binding" true
    (has (Analysis.Local_link 0) && has (Analysis.Local_link 1));
  Alcotest.(check bool) "connections binding" true (has (Analysis.Connections 0));
  Alcotest.(check bool) "route bw binding" true
    (has (Analysis.Route_bandwidth (0, 1)));
  Alcotest.(check bool) "cpu 1 not binding" false (has (Analysis.Cpu 1));
  (* Utilization list is sorted non-increasing. *)
  let all = Analysis.utilization pr a in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Analysis.utilization >= b.Analysis.utilization && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted all)

let test_viz_dot () =
  let pr = two_cluster_problem () in
  let a = Allocation.zero 2 in
  a.Allocation.alpha.(0).(0) <- 6.0;
  a.Allocation.alpha.(0).(1) <- 4.0;
  a.Allocation.beta.(0).(1) <- 2;
  let dot = Viz.allocation_dot pr a in
  let has_sub msg fragment =
    let n = String.length msg and m = String.length fragment in
    let rec go i = i + m <= n && (String.sub msg i m = fragment || go (i + 1)) in
    m = 0 || go 0
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true (has_sub dot fragment))
    [ "digraph allocation {"; "c0 -> c1 [label=\"4 (beta=2)\"";
      "local=6" ]

(* ------------------------------------------------------------------ *)
(* Pipelined applications (future-work extension)                      *)
(* ------------------------------------------------------------------ *)

let test_pipeline_single_stage_equals_base_model () =
  (* A one-stage unit-work pipeline is exactly the base steady-state
     model: objective values must coincide. *)
  List.iter
    (fun seed ->
      let pr = random_problem ~kmin:3 ~kmax:6 seed in
      let platform = Problem.platform pr in
      let apps =
        List.map
          (fun k ->
            { Pipeline.source = k; payoff = Problem.payoff pr k;
              stages = [ { Pipeline.work = 1.0; expansion = 0.0 } ] })
          (Problem.active pr)
      in
      match
        (Pipeline.solve ~objective:Lp_relax.Maxmin platform apps,
         Heuristics.lp_bound ~objective:Lp_relax.Maxmin pr)
      with
      | Ok pl, Ok base ->
        Alcotest.(check (float 1e-4))
          (Printf.sprintf "seed %d" seed)
          base pl.Pipeline.objective_value
      | Error msg, _ -> Alcotest.failf "pipeline failed: %s" msg
      | _, Error msg -> Alcotest.failf "base LP failed: %s" msg)
    [ 3; 17; 42 ]

let test_pipeline_two_stage_hand_instance () =
  (* Source A (no compute) feeds worker B: stage 1 costs 1 and doubles
     the data, stage 2 costs 2 per data unit.  All compute lands on B:
     alpha * (1 + 2*2) <= 12 => alpha = 2.4. *)
  let topology = G.path_graph 2 in
  let clusters =
    [| { P.speed = 0.0; local_bw = 10.0; router = 0 };
       { P.speed = 12.0; local_bw = 100.0; router = 1 } |]
  in
  let backbones = [| { P.bw = 100.0; max_connect = 10 } |] in
  let platform = P.make ~clusters ~topology ~backbones in
  let app =
    { Pipeline.source = 0; payoff = 1.0;
      stages =
        [ { Pipeline.work = 1.0; expansion = 2.0 };
          { Pipeline.work = 2.0; expansion = 0.0 } ] }
  in
  match Pipeline.solve platform [ app ] with
  | Error msg -> Alcotest.failf "pipeline failed: %s" msg
  | Ok sol ->
    Alcotest.(check (float 1e-6)) "rate" 2.4 sol.Pipeline.rates.(0);
    (* Placement totals match the rate at the last stage. *)
    let last_stage_total =
      List.fold_left
        (fun acc (a, s, _, y) -> if a = 0 && s = 2 then acc +. y else acc)
        0.0 sol.Pipeline.placement
    in
    Alcotest.(check (float 1e-6)) "placement consistent" 4.8 last_stage_total
    (* last stage input is 2 * alpha data units *)

let test_pipeline_network_bound_expansion () =
  (* Two clusters; stage 1 must run at the source (only the source has
     speed for it? no — source has all the speed; worker runs stage 2).
     Expansion 3 makes the inter-stage traffic the bottleneck. *)
  let topology = G.path_graph 2 in
  let clusters =
    [| { P.speed = 5.0; local_bw = 6.0; router = 0 };
       { P.speed = 50.0; local_bw = 100.0; router = 1 } |]
  in
  let backbones = [| { P.bw = 100.0; max_connect = 4 } |] in
  let platform = P.make ~clusters ~topology ~backbones in
  let app =
    { Pipeline.source = 0; payoff = 1.0;
      stages =
        [ { Pipeline.work = 1.0; expansion = 3.0 };
          { Pipeline.work = 10.0; expansion = 0.0 } ] }
  in
  match Pipeline.solve platform [ app ] with
  | Error msg -> Alcotest.failf "pipeline failed: %s" msg
  | Ok sol ->
    (* The optimum mixes placements: stage 1 entirely at the source
       (alpha <= 5), a sliver b of stage 2 pulled back to the source to
       relieve the worker.  Binding system: alpha + 10 b = 5 (source
       compute), 30 alpha - 10 b = 50 (worker compute) => alpha = 55/31;
       traffic 3 alpha - b < 6 is slack. *)
    Alcotest.(check (float 1e-6)) "rate" (55.0 /. 31.0) sol.Pipeline.rates.(0)

let test_pipeline_no_active_apps () =
  let pr = two_cluster_problem () in
  let app = { Pipeline.source = 0; payoff = 0.0;
              stages = [ { Pipeline.work = 1.0; expansion = 0.0 } ] } in
  match Pipeline.solve (Problem.platform pr) [ app ] with
  | Ok sol ->
    Alcotest.(check (float 0.0)) "zero" 0.0 sol.Pipeline.objective_value
  | Error msg -> Alcotest.failf "pipeline failed: %s" msg

let test_pipeline_multiple_apps_per_cluster () =
  (* "Our method is easily extensible to the case in which more than one
     application originate from the same cluster" (Section 3.1): two
     single-stage applications share source 0 and the MAXMIN objective
     splits the downstream capacity between them. *)
  let topology = G.path_graph 2 in
  let clusters =
    [| { P.speed = 0.0; local_bw = 50.0; router = 0 };
       { P.speed = 12.0; local_bw = 50.0; router = 1 } |]
  in
  let backbones = [| { P.bw = 30.0; max_connect = 4 } |] in
  let platform = P.make ~clusters ~topology ~backbones in
  let app payoff =
    { Pipeline.source = 0; payoff;
      stages = [ { Pipeline.work = 1.0; expansion = 0.0 } ] }
  in
  match Pipeline.solve platform [ app 1.0; app 1.0 ] with
  | Error msg -> Alcotest.failf "pipeline failed: %s" msg
  | Ok sol ->
    Alcotest.(check (float 1e-6)) "even split" 6.0 sol.Pipeline.rates.(0);
    Alcotest.(check (float 1e-6)) "even split 2" 6.0 sol.Pipeline.rates.(1);
    (* Weighted: payoff 2 gets half the raw rate of payoff 1. *)
    (match Pipeline.solve platform [ app 1.0; app 2.0 ] with
     | Ok sol ->
       Alcotest.(check (float 1e-6)) "weighted" 8.0 sol.Pipeline.rates.(0);
       Alcotest.(check (float 1e-6)) "weighted 2" 4.0 sol.Pipeline.rates.(1)
     | Error msg -> Alcotest.failf "weighted pipeline failed: %s" msg)

let test_pipeline_validation () =
  let platform = Problem.platform (two_cluster_problem ()) in
  Alcotest.check_raises "no stages"
    (Invalid_argument "Pipeline.solve: app 0 has no stages") (fun () ->
      ignore (Pipeline.solve platform [ { Pipeline.source = 0; payoff = 1.0; stages = [] } ]));
  Alcotest.check_raises "bad source"
    (Invalid_argument "Pipeline.solve: app 0 has a bad source") (fun () ->
      ignore
        (Pipeline.solve platform
           [ { Pipeline.source = 9; payoff = 1.0;
               stages = [ { Pipeline.work = 1.0; expansion = 0.0 } ] } ]))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dls_core"
    [ ( "problem",
        [ Alcotest.test_case "basics" `Quick test_problem_basics ] );
      ( "feasibility",
        [ Alcotest.test_case "feasible case" `Quick test_check_feasible;
          Alcotest.test_case "violations" `Quick test_check_violations;
          Alcotest.test_case "inactive sender" `Quick test_check_inactive_sender ] );
      ( "lp",
        [ Alcotest.test_case "single cluster" `Quick test_lp_single_cluster;
          Alcotest.test_case "star bottlenecks" `Quick test_lp_star_bottlenecks;
          Alcotest.test_case "maxmin vs sum" `Quick test_lp_maxmin_vs_sum;
          Alcotest.test_case "payoff weighting" `Quick test_lp_payoff_weighting;
          Alcotest.test_case "no active apps" `Quick test_lp_no_active_apps;
          Alcotest.test_case "exact matches float" `Quick test_lp_exact_matches_float;
          Alcotest.test_case "fixed beta 0" `Quick test_lp_fixed_beta_zero_kills_route ] );
      ( "heuristics",
        [ Alcotest.test_case "greedy isolated" `Quick
            test_greedy_isolated_clusters_run_locally;
          Alcotest.test_case "greedy delegates" `Quick
            test_greedy_single_active_app_uses_network;
          Alcotest.test_case "greedy zero payoff" `Quick test_greedy_skips_zero_payoff;
          Alcotest.test_case "LPR poor, LPRG reclaims" `Quick
            test_lpr_rounds_down_to_zero;
          Alcotest.test_case "LPRR stats" `Quick test_lprr_stats_bounds;
          Alcotest.test_case "names" `Quick test_heuristics_names;
          Alcotest.test_case "shared relaxation guard" `Quick
            test_run_rejects_foreign_relaxation ] );
      qsuite "heuristics-prop"
        [ prop_heuristics_feasible; prop_lp_upper_bounds_heuristics;
          prop_lprg_dominates_lpr; prop_shared_relaxation_matches_wrappers ];
      qsuite "lprr-warm-prop"
        [ prop_lprr_slots_match_recompute; prop_lprr_warm_matches_cold_lps ];
      qsuite "schedule-prop" [ prop_schedule_approx_always_valid ];
      ( "schedule",
        [ Alcotest.test_case "from exact LP" `Quick test_schedule_from_exact_lp;
          Alcotest.test_case "period lcm" `Quick test_schedule_period_is_lcm;
          Alcotest.test_case "float roundtrip" `Quick test_schedule_float_roundtrip;
          Alcotest.test_case "approx + scale" `Quick test_schedule_approx_and_scale ] );
      ( "reduction",
        [ Alcotest.test_case "platform valid" `Quick test_reduction_platform_valid;
          Alcotest.test_case "MIS allocation" `Quick
            test_reduction_mis_allocation_feasible;
          Alcotest.test_case "adjacent infeasible" `Quick
            test_reduction_adjacent_vertices_infeasible;
          Alcotest.test_case "heuristics bounded by MIS" `Quick
            test_reduction_heuristics_bounded_by_mis;
          Alcotest.test_case "triangle fractional LP" `Quick
            test_reduction_triangle_fractional_lp ] );
      qsuite "reduction-prop" [ prop_reduction_equivalence_small_graphs ];
      ( "makespan",
        [ Alcotest.test_case "periodic estimate" `Quick test_makespan_periodic;
          Alcotest.test_case "starved app rejected" `Quick
            test_makespan_zero_throughput_rejected;
          Alcotest.test_case "asymptotic optimality" `Quick
            test_makespan_asymptotic_optimality;
          Alcotest.test_case "sequential baseline" `Quick
            test_makespan_sequential_baseline ] );
      ( "fairness",
        [ Alcotest.test_case "metrics" `Quick test_fairness_metrics ] );
      qsuite "fairness-prop" [ prop_fairness_lprr_at_least_as_fair_as_g ];
      ( "unbounded-baseline",
        [ Alcotest.test_case "gap on starved platform" `Quick
            test_unbounded_baseline_gap ] );
      qsuite "unbounded-baseline-prop" [ prop_unbounded_baseline_ordering ];
      ( "timeline",
        [ Alcotest.test_case "build and validate" `Quick test_timeline_build_and_validate;
          Alcotest.test_case "rejects bad workloads" `Quick
            test_timeline_rejects_starved_app ] );
      qsuite "timeline-prop" [ prop_timeline_valid_on_random_platforms ];
      ( "mip",
        [ Alcotest.test_case "optimum = MIS on gadgets" `Slow
            test_mip_equals_mis_on_gadgets;
          Alcotest.test_case "Theorem 1 exhaustive on 4 vertices" `Slow
            test_mip_equals_mis_exhaustive_n4 ] );
      qsuite "mip-prop" [ prop_mip_between_heuristics_and_lp ];
      ( "viz",
        [ Alcotest.test_case "allocation dot" `Quick test_viz_dot;
          Alcotest.test_case "utilization analysis" `Quick test_analysis_utilization ] );
      ( "pipeline",
        [ Alcotest.test_case "single stage = base model" `Quick
            test_pipeline_single_stage_equals_base_model;
          Alcotest.test_case "two-stage hand instance" `Quick
            test_pipeline_two_stage_hand_instance;
          Alcotest.test_case "expansion binds network" `Quick
            test_pipeline_network_bound_expansion;
          Alcotest.test_case "no active apps" `Quick test_pipeline_no_active_apps;
          Alcotest.test_case "multiple apps per cluster" `Quick
            test_pipeline_multiple_apps_per_cluster;
          Alcotest.test_case "validation" `Quick test_pipeline_validation ] ) ]
