(* Tests for Dls_experiments: report rendering, the measurement unit,
   and tiny smoke runs of every figure/table generator. *)

module E = Dls_experiments
module Prng = Dls_util.Prng

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let sample_table =
  { E.Report.title = "t";
    header = [ "a"; "b" ];
    rows = [ [ "1"; "x,y" ]; [ "22"; "quo\"te" ] ] }

let test_report_csv () =
  let csv = E.Report.to_csv sample_table in
  Alcotest.(check string) "csv escaping" "a,b\n1,\"x,y\"\n22,\"quo\"\"te\"\n" csv

let test_report_pp_aligned () =
  let rendered = Format.asprintf "%a" E.Report.pp_table sample_table in
  Alcotest.(check bool) "contains title" true
    (String.length rendered > 0 && String.sub rendered 0 1 = "t");
  (* All data rows must share the same width. *)
  let lines =
    List.filter (fun l -> String.length l > 0 && l.[0] = '|')
      (String.split_on_char '\n' rendered)
  in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (match widths with [] -> false | w :: rest -> List.for_all (( = ) w) rest)

let test_report_write_csv () =
  let path = Filename.temp_file "dls_report" ".csv" in
  E.Report.write_csv ~path sample_table;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header row" "a,b" line

let test_cell_float () =
  Alcotest.(check string) "4 digits" "0.3333" (E.Report.cell_float (1.0 /. 3.0));
  Alcotest.(check string) "nan" "nan" (E.Report.cell_float Float.nan)

(* ------------------------------------------------------------------ *)
(* Measure                                                             *)
(* ------------------------------------------------------------------ *)

let test_sample_problem_properties () =
  let rng = Prng.create ~seed:21 in
  for _ = 1 to 10 do
    let pr = E.Measure.sample_problem rng ~k:9 in
    Alcotest.(check int) "k clusters" 9 (Dls_core.Problem.num_clusters pr);
    let active = Dls_core.Problem.active pr in
    Alcotest.(check bool) "at least one app" true (List.length active >= 1);
    (* Default workload: sources are pure data holders (speed 0). *)
    List.iter
      (fun k ->
        Alcotest.(check (float 0.0)) "source speed 0" 0.0
          (Dls_platform.Platform.speed (Dls_core.Problem.platform pr) k))
      active
  done

let test_sample_problem_literal_setting () =
  let rng = Prng.create ~seed:22 in
  let pr =
    E.Measure.sample_problem ~app_fraction:1.0 ~source_speed_factor:1.0 rng ~k:6
  in
  Alcotest.(check int) "all active" 6 (List.length (Dls_core.Problem.active pr));
  (* The flat-line check of DESIGN.md section 2.2: all-local is optimal,
     and G reaches the LP bound exactly. *)
  match Dls_core.Heuristics.lp_bound ~objective:Dls_core.Lp_relax.Maxmin pr with
  | Error msg -> Alcotest.failf "LP failed: %s" msg
  | Ok bound ->
    Alcotest.(check (float 1e-6)) "trivial optimum" 100.0 bound;
    let g = Dls_core.Greedy.solve pr in
    Alcotest.(check (float 1e-6)) "G reaches it" 100.0
      (Dls_core.Allocation.maxmin_objective pr g)

let test_evaluate_consistency () =
  let rng = Prng.create ~seed:23 in
  let pr = E.Measure.sample_problem rng ~k:6 in
  match E.Measure.evaluate ~with_lprr:true ~rng pr with
  | Error msg -> Alcotest.failf "evaluate failed: %s" msg
  | Ok v ->
    Alcotest.(check bool) "LP sum >= LP maxmin" true
      (v.E.Measure.lp_sum >= v.E.Measure.lp_maxmin -. 1e-6);
    Alcotest.(check bool) "bounds dominate" true
      (v.E.Measure.g_maxmin <= v.E.Measure.lp_maxmin +. 1e-6
       && v.E.Measure.lprg_sum <= v.E.Measure.lp_sum *. (1.0 +. 1e-9) +. 1e-6
       && v.E.Measure.lpr_sum <= v.E.Measure.lprg_sum +. 1e-6);
    Alcotest.(check bool) "lprr present" true
      (v.E.Measure.lprr_sum <> None && v.E.Measure.time_lprr <> None);
    Alcotest.(check bool) "timings non-negative" true
      (v.E.Measure.time_lp >= 0.0 && v.E.Measure.time_g >= 0.0)

(* The LP bound, LPR and LPRG share one relaxation per objective: a
   record without LPRR costs exactly two LP solves. *)
let test_evaluate_solves_twice () =
  let module M = Dls_obs.Metrics in
  let pr = E.Measure.sample_problem (Prng.create ~seed:24) ~k:10 in
  M.reset ();
  M.enable ();
  Fun.protect ~finally:(fun () -> M.disable (); M.reset ()) @@ fun () ->
  (match E.Measure.evaluate ~with_lprr:false pr with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "evaluate failed: %s" msg);
  match List.assoc_opt "lp.solves" (M.snapshot ()) with
  | Some (M.Counter n) -> Alcotest.(check int) "LP solves per record" 2 n
  | _ -> Alcotest.fail "lp.solves counter missing"

let test_time_measures () =
  let (), t = E.Measure.time (fun () -> Unix.sleepf 0.02) in
  Alcotest.(check bool) "time ~ 20ms" true (t >= 0.015 && t < 1.0)

(* ------------------------------------------------------------------ *)
(* Figure generators (tiny smoke runs)                                 *)
(* ------------------------------------------------------------------ *)

let test_fig5_smoke () =
  let rows = E.Fig5.run ~seed:31 ~ks:[ 4; 6 ] ~per_k:2 () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "ratios in [0, 1+eps]" true
        (r.E.Fig5.maxmin_lprg >= 0.0 && r.E.Fig5.maxmin_lprg <= 1.0 +. 1e-6
         && r.E.Fig5.sum_g >= 0.0 && r.E.Fig5.sum_g <= 1.0 +. 1e-6))
    rows;
  let table = E.Fig5.table rows in
  Alcotest.(check int) "table rows" 2 (List.length table.E.Report.rows)

let test_fig6_smoke () =
  let rows = E.Fig6.run ~seed:32 ~ks:[ 5 ] ~per_k:2 () in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check bool) "lprr ratio sane" true
    (r.E.Fig6.maxmin_lprr >= 0.0 && r.E.Fig6.maxmin_lprr <= 1.0 +. 1e-6)

let test_fig7_smoke () =
  let rows = E.Fig7.run ~seed:33 ~ks:[ 4; 6 ] ~per_k:1 ~lprr_max_k:4 () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let r4 = List.nth rows 0 and r6 = List.nth rows 1 in
  Alcotest.(check bool) "lprr only for small k" true
    (r4.E.Fig7.time_lprr <> None && r6.E.Fig7.time_lprr = None)

let test_aggregate_smoke () =
  let s = E.Aggregate.run ~seed:34 ~ks:[ 5 ] ~per_k:3 () in
  Alcotest.(check bool) "platforms counted" true (s.E.Aggregate.platforms > 0);
  Alcotest.(check bool) "LPRG >= LPR vs LP" true
    (s.E.Aggregate.lprg_over_lp_sum >= s.E.Aggregate.lpr_over_lp_sum -. 1e-9)

let test_table1_smoke () =
  let t = E.Table1.grid_table () in
  Alcotest.(check int) "seven parameters" 7 (List.length t.E.Report.rows);
  let stats = E.Table1.sample_stats ~seed:35 ~ks:[ 5 ] ~per_k:2 () in
  Alcotest.(check int) "one row" 1 (List.length stats);
  Alcotest.(check bool) "connected platforms have >= k-1 backbones" true
    ((List.hd stats).E.Table1.mean_backbones >= 4.0)

(* ------------------------------------------------------------------ *)
(* Ablations and adaptivity (smoke)                                    *)
(* ------------------------------------------------------------------ *)

let test_ablation_network_tight_smoke () =
  let rows = E.Ablation.network_tight ~seed:41 ~ks:[ 5 ] ~per_k:3 () in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check bool) "LPRG SUM >= LPR SUM" true
    (r.E.Ablation.sum_lprg >= r.E.Ablation.sum_lpr -. 1e-6);
  Alcotest.(check bool) "ratios bounded" true
    (r.E.Ablation.sum_g <= 1.0 +. 1e-6 && r.E.Ablation.maxmin_g <= 1.0 +. 1e-6)

let test_ablation_workload_smoke () =
  let rows = E.Ablation.workload ~seed:42 ~k:6 ~per_setting:2 () in
  Alcotest.(check int) "five settings" 5 (List.length rows);
  (* The literal reading (first row) is the trivial flat line. *)
  let literal = List.hd rows in
  Alcotest.(check (float 1e-6)) "flat line" 1.0 literal.E.Ablation.maxmin_g_ratio

let test_adaptivity_smoke () =
  match E.Adaptivity.run ~seed:9 ~k:8 ~periods:6 () with
  | Error msg -> Alcotest.failf "adaptivity failed: %s" msg
  | Ok trace ->
    Alcotest.(check int) "six periods" 6 (List.length trace);
    List.iter
      (fun tp ->
        Alcotest.(check bool)
          (Printf.sprintf "adaptive >= static at period %d" tp.E.Adaptivity.period)
          true
          (tp.E.Adaptivity.adaptive_value >= tp.E.Adaptivity.static_value -. 1e-6))
      trace

let test_sweep_streaming () =
  let rows = ref [] in
  let completed, skipped =
    E.Sweep.run ~seed:51 ~ks:[ 4; 6 ] ~per_k:2
      ~on_record:(fun r -> rows := r :: !rows)
      ()
  in
  Alcotest.(check int) "all evaluated" 4 completed;
  Alcotest.(check int) "none skipped" 0 skipped;
  Alcotest.(check int) "callback saw all" 4 (List.length !rows);
  (* Records arrive in campaign order. *)
  let indices = List.rev_map (fun r -> r.E.Sweep.index) !rows in
  Alcotest.(check (list int)) "ordered" [ 0; 1; 2; 3 ] indices;
  (* CSV rows have as many fields as the header. *)
  let fields s = List.length (String.split_on_char ',' s) in
  List.iter
    (fun r ->
      Alcotest.(check int) "csv arity" (fields E.Sweep.csv_header)
        (fields (E.Sweep.to_csv_row r)))
    !rows

let test_sweep_deterministic () =
  (* Drop the five trailing wall-clock columns: everything else must be
     bit-identical across runs with the same seed. *)
  let strip_timings row =
    let fields = String.split_on_char ',' row in
    let n = List.length fields in
    List.filteri (fun i _ -> i < n - 5) fields |> String.concat ","
  in
  let capture () =
    let rows = ref [] in
    ignore
      (E.Sweep.run ~seed:52 ~ks:[ 5 ] ~per_k:3
         ~on_record:(fun r -> rows := strip_timings (E.Sweep.to_csv_row r) :: !rows)
         ());
    List.rev !rows
  in
  Alcotest.(check (list string)) "same seed, same rows" (capture ()) (capture ())

let test_deliverable_fraction () =
  let rng = Prng.create ~seed:43 in
  let pr = E.Measure.sample_problem rng ~k:5 in
  let a = Dls_core.Greedy.solve pr in
  Alcotest.(check (float 1e-9)) "feasible plan delivers fully" 1.0
    (E.Adaptivity.deliverable_fraction pr a);
  (* Degrade every speed and bandwidth to 30%: at most 30% deliverable. *)
  let p = Dls_core.Problem.platform pr in
  let module P = Dls_platform.Platform in
  let clusters =
    Array.init (P.num_clusters p) (fun k ->
        let c = P.cluster p k in
        { c with P.speed = c.P.speed *. 0.3 })
  in
  let backbones =
    Array.init (P.num_backbones p) (fun i ->
        let b = P.backbone p i in
        { b with P.bw = b.P.bw *. 0.3 })
  in
  let degraded =
    Dls_core.Problem.make
      (P.make ~clusters ~topology:(P.topology p) ~backbones)
      ~payoffs:(Array.init (P.num_clusters p) (Dls_core.Problem.payoff pr))
  in
  let f = E.Adaptivity.deliverable_fraction degraded a in
  Alcotest.(check bool) "fraction shrinks to <= 0.3" true (f <= 0.3 +. 1e-6);
  Alcotest.(check bool) "fraction positive" true (f > 0.0)

(* ------------------------------------------------------------------ *)
(* Campaign: determinism, crash/resume, codecs, goldens                *)
(* ------------------------------------------------------------------ *)

module C = E.Campaign
module G = Dls_platform.Generator

(* measure_time = false zeroes every wall-clock field, so log lines are
   byte-reproducible — the only nondeterministic inputs are gone. *)
let small_config =
  { C.default_config with
    C.seed = 71; ks = [ 4; 6 ]; per_k = 3; measure_time = false }

let run_lines ?domains ?chunk ?shards ?shard ?resume ?out config =
  let lines = ref [] in
  match
    C.run ?domains ?chunk ?shards ?shard ?resume ?out
      ~on_entry:(fun e -> lines := C.entry_to_line e :: !lines)
      config
  with
  | Ok s -> (s, List.rev !lines)
  | Error msg -> Alcotest.failf "campaign run failed: %s" msg

let sort_by_index lines =
  List.map snd
    (List.sort compare
       (List.map
          (fun line ->
            match C.entry_of_line line with
            | Ok e -> (C.entry_index e, line)
            | Error msg -> Alcotest.failf "unparseable log line: %s" msg)
          lines))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_lines path =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))

let test_campaign_deterministic_across_domains () =
  let _, one = run_lines ~domains:1 small_config in
  let _, eight = run_lines ~domains:8 ~chunk:2 small_config in
  Alcotest.(check int) "all evaluated" (C.total small_config) (List.length one);
  (* Single shard: both runs deliver in index order — the streams must
     already be byte-identical line for line. *)
  Alcotest.(check (list string)) "1 vs 8 domains byte-identical" one eight

let test_campaign_deterministic_across_shards () =
  let out1 = Filename.temp_file "dls_campaign" ".jsonl" in
  let out4 = Filename.temp_file "dls_campaign" ".jsonl" in
  let s1, _ = run_lines ~shards:1 ~out:out1 small_config in
  let s4, _ = run_lines ~shards:4 ~chunk:2 ~out:out4 small_config in
  Alcotest.(check int) "shards=1 completes" (C.total small_config) s1.C.s_completed;
  Alcotest.(check int) "shards=4 completes" (C.total small_config) s4.C.s_completed;
  let l1 = sort_by_index (file_lines out1) in
  let l4 = sort_by_index (file_lines out4) in
  Alcotest.(check (list string)) "1 vs 4 shards byte-identical after sort" l1 l4;
  List.iter Sys.remove
    [ out1; out4; C.manifest_path out1; C.manifest_path out4 ]

let test_campaign_single_shard_runs_its_slice () =
  let _, lines = run_lines ~shards:3 ~shard:1 small_config in
  let indices =
    List.map
      (fun l ->
        match C.entry_of_line l with
        | Ok e -> C.entry_index e
        | Error msg -> Alcotest.failf "bad line: %s" msg)
      lines
  in
  Alcotest.(check (list int)) "only indices = 1 mod 3" [ 1; 4 ] indices

let test_campaign_crash_resume () =
  let _, baseline = run_lines small_config in
  let baseline = sort_by_index baseline in
  let out = Filename.temp_file "dls_campaign" ".jsonl" in
  (* Crash mid-campaign: the sink raises after the third durable entry
     (each line is already written when on_entry fires). *)
  let exception Simulated_crash in
  let count = ref 0 in
  (try
     ignore
       (C.run ~domains:2 ~chunk:2 ~out
          ~on_entry:(fun _ ->
            incr count;
            if !count = 3 then raise Simulated_crash)
          small_config)
   with Simulated_crash -> ());
  (* And the final append was torn mid-line by the dying process. *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 out in
  output_string oc "{\"type\":\"record\",\"index\":4,\"par";
  close_out oc;
  let s, _ = run_lines ~resume:true ~out small_config in
  Alcotest.(check bool) "some entries replayed" true (s.C.s_replayed >= 3);
  Alcotest.(check bool) "frontier re-evaluated" true (s.C.s_evaluated >= 1);
  Alcotest.(check int) "campaign complete" (C.total small_config) s.C.s_completed;
  let merged = sort_by_index (file_lines out) in
  Alcotest.(check (list string)) "merged log equals uninterrupted run"
    baseline merged;
  List.iter Sys.remove [ out; C.manifest_path out ]

let test_campaign_resume_rejects_mismatch () =
  let out = Filename.temp_file "dls_campaign" ".jsonl" in
  let _ = run_lines ~out small_config in
  (match
     C.run ~resume:true ~out { small_config with C.seed = 72 }
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "resume accepted a different campaign config");
  List.iter Sys.remove [ out; C.manifest_path out ]

let test_campaign_corrupt_middle_rejected () =
  let out = Filename.temp_file "dls_campaign" ".jsonl" in
  let _ = run_lines ~out small_config in
  (* Smash a line in the middle of the log: resume must refuse rather
     than silently drop completed work. *)
  let lines = file_lines out in
  let oc = open_out out in
  List.iteri
    (fun i l ->
      output_string oc (if i = 2 then "{\"type\":zzz}" else l);
      output_char oc '\n')
    lines;
  close_out oc;
  (match C.run ~resume:true ~out small_config with
   | Error msg ->
     Alcotest.(check bool) "mentions corruption" true
       (String.length msg > 0)
   | Ok _ -> Alcotest.fail "resume accepted a corrupt mid-log entry");
  List.iter Sys.remove [ out; C.manifest_path out ]

(* --- QCheck codecs ------------------------------------------------- *)

let gen_finite = QCheck2.Gen.float_range (-1e9) 1e9

let gen_topology =
  QCheck2.Gen.(
    oneof
      [ return G.Erdos_renyi;
        map2
          (fun alpha beta -> G.Waxman { alpha; beta })
          (float_range 0.0 1.0) (float_range 0.0 1.0);
        map (fun m -> G.Barabasi_albert { m }) (int_range 1 10) ])

let gen_params =
  QCheck2.Gen.(
    let* k = int_range 1 99 in
    let* topology_model = gen_topology in
    let* connectivity = float_range 0.0 1.0 in
    let* heterogeneity = float_range 0.0 0.99 in
    let* mean_g = gen_finite in
    let* mean_bw = gen_finite in
    let* mean_maxcon = gen_finite in
    let* speed = gen_finite in
    let* speed_heterogeneity = float_range 0.0 0.99 in
    return
      { G.k; topology_model; connectivity; heterogeneity; mean_g; mean_bw;
        mean_maxcon; speed; speed_heterogeneity })

let gen_counters =
  QCheck2.Gen.(
    let* solves = int_range 0 1_000_000 in
    let* warm_starts = int_range 0 1_000_000 in
    let* cold_starts = int_range 0 1_000_000 in
    let* pivots = int_range 0 1_000_000 in
    let* reinversions = int_range 0 1_000_000 in
    let* bland_activations = int_range 0 1_000_000 in
    let* wall_clock = float_range 0.0 1e6 in
    return
      { Dls_lp.Revised_simplex.solves; warm_starts; cold_starts; pivots;
        reinversions; bland_activations; wall_clock })

let gen_values =
  QCheck2.Gen.(
    let* lp_sum = gen_finite in
    let* lp_maxmin = gen_finite in
    let* g_sum = gen_finite in
    let* g_maxmin = gen_finite in
    let* lpr_sum = gen_finite in
    let* lpr_maxmin = gen_finite in
    let* lprg_sum = gen_finite in
    let* lprg_maxmin = gen_finite in
    let* lprr_sum = option gen_finite in
    let* lprr_maxmin = option gen_finite in
    let* lprr_counters = option gen_counters in
    let* time_lp = float_range 0.0 1e4 in
    let* time_g = float_range 0.0 1e4 in
    let* time_lpr = float_range 0.0 1e4 in
    let* time_lprg = float_range 0.0 1e4 in
    let* time_lprr = option (float_range 0.0 1e4) in
    return
      { E.Measure.lp_sum; lp_maxmin; g_sum; g_maxmin; lpr_sum; lpr_maxmin;
        lprg_sum; lprg_maxmin; lprr_sum; lprr_maxmin; lprr_counters; time_lp;
        time_g; time_lpr; time_lprg; time_lprr })

let gen_entry =
  QCheck2.Gen.(
    let record =
      let* index = int_range 0 1_000_000 in
      let* params = gen_params in
      let* active_apps = int_range 0 99 in
      let* values = gen_values in
      return (C.Record { C.index; params; active_apps; values })
    in
    let skipped =
      let* index = int_range 0 1_000_000 in
      let* reason = string_size ~gen:printable (int_range 0 40) in
      return (C.Skipped { index; reason })
    in
    oneof [ record; skipped ])

let prop_entry_roundtrip =
  QCheck2.Test.make ~name:"JSONL entry decode inverts encode" ~count:300
    gen_entry
    (fun e -> C.entry_of_line (C.entry_to_line e) = Ok e)

let prop_entry_rejects_torn =
  QCheck2.Test.make ~name:"JSONL decoder rejects torn lines" ~count:300
    QCheck2.Gen.(pair gen_entry (float_range 0.0 1.0))
    (fun (e, frac) ->
      let line = C.entry_to_line e in
      let cut = int_of_float (frac *. float_of_int (String.length line)) in
      let cut = Stdlib.min cut (String.length line - 1) in
      match C.entry_of_line (String.sub line 0 cut) with
      | Error _ -> true
      | Ok _ -> false)

let gen_config =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* ks = list_size (int_range 1 6) (int_range 1 99) in
    let* per_k = int_range 0 50 in
    let* with_lprr = bool in
    let* lprr_max_k = option (int_range 1 99) in
    let* measure_time = bool in
    return { C.seed; ks; per_k; with_lprr; lprr_max_k; measure_time })

let prop_manifest_roundtrip =
  QCheck2.Test.make ~name:"manifest decode inverts encode" ~count:300
    QCheck2.Gen.(
      let* m_config = gen_config in
      let* m_total = int_range 0 1_000_000 in
      let* m_completed = int_range 0 1_000_000 in
      return { C.m_config; m_total; m_completed })
    (fun m -> C.manifest_of_string (C.manifest_to_string m) = Ok m)

let prop_manifest_rejects_torn =
  QCheck2.Test.make ~name:"manifest decoder rejects torn input" ~count:100
    QCheck2.Gen.(pair gen_config (float_range 0.0 1.0))
    (fun (config, frac) ->
      let s =
        C.manifest_to_string
          { C.m_config = config; m_total = 10; m_completed = 3 }
      in
      let cut = int_of_float (frac *. float_of_int (String.length s)) in
      let cut = Stdlib.min cut (String.length s - 1) in
      match C.manifest_of_string (String.sub s 0 cut) with
      | Error _ -> true
      | Ok _ -> false)

(* --- Golden outputs ------------------------------------------------ *)

(* Set DLS_UPDATE_GOLDEN=<abs dir> to rewrite the expected files instead
   of comparing (e.g. DLS_UPDATE_GOLDEN=$PWD/test/golden dune runtest). *)
let golden_check name actual =
  match Sys.getenv_opt "DLS_UPDATE_GOLDEN" with
  | Some dir ->
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc actual)
  | None ->
    Alcotest.(check string) name (read_file (Filename.concat "golden" name))
      actual

let fig5_golden_table =
  lazy (E.Fig5.table (E.Fig5.run ~seed:31 ~ks:[ 4; 6 ] ~per_k:2 ()))

let test_golden_table1_pp () =
  golden_check "table1_grid.expected"
    (Format.asprintf "%a" E.Report.pp_table (E.Table1.grid_table ()))

let test_golden_table1_csv () =
  let path = Filename.temp_file "dls_golden" ".csv" in
  E.Report.write_csv ~path (E.Table1.grid_table ());
  let written = read_file path in
  Sys.remove path;
  golden_check "table1_grid_csv.expected" written

let test_golden_fig5_pp () =
  golden_check "fig5_small.expected"
    (Format.asprintf "%a" E.Report.pp_table (Lazy.force fig5_golden_table))

let test_golden_fig5_csv () =
  let path = Filename.temp_file "dls_golden" ".csv" in
  E.Report.write_csv ~path (Lazy.force fig5_golden_table);
  let written = read_file path in
  Sys.remove path;
  golden_check "fig5_small_csv.expected" written

let () =
  Alcotest.run "dls_experiments"
    [ ( "report",
        [ Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "aligned" `Quick test_report_pp_aligned;
          Alcotest.test_case "write csv" `Quick test_report_write_csv;
          Alcotest.test_case "cell float" `Quick test_cell_float ] );
      ( "measure",
        [ Alcotest.test_case "sampled problems" `Quick test_sample_problem_properties;
          Alcotest.test_case "literal setting is trivial" `Quick
            test_sample_problem_literal_setting;
          Alcotest.test_case "evaluate" `Quick test_evaluate_consistency;
          Alcotest.test_case "two LP solves per record" `Quick
            test_evaluate_solves_twice;
          Alcotest.test_case "time" `Quick test_time_measures ] );
      ( "figures",
        [ Alcotest.test_case "fig5" `Quick test_fig5_smoke;
          Alcotest.test_case "fig6" `Quick test_fig6_smoke;
          Alcotest.test_case "fig7" `Quick test_fig7_smoke;
          Alcotest.test_case "aggregate" `Quick test_aggregate_smoke;
          Alcotest.test_case "table1" `Quick test_table1_smoke ] );
      ( "ablation-adaptivity",
        [ Alcotest.test_case "network tight" `Quick test_ablation_network_tight_smoke;
          Alcotest.test_case "workload" `Quick test_ablation_workload_smoke;
          Alcotest.test_case "adaptivity" `Quick test_adaptivity_smoke;
          Alcotest.test_case "deliverable fraction" `Quick test_deliverable_fraction ] );
      ( "sweep",
        [ Alcotest.test_case "streaming" `Quick test_sweep_streaming;
          Alcotest.test_case "deterministic" `Quick test_sweep_deterministic ] );
      ( "campaign",
        [ Alcotest.test_case "deterministic across domains" `Quick
            test_campaign_deterministic_across_domains;
          Alcotest.test_case "deterministic across shards" `Quick
            test_campaign_deterministic_across_shards;
          Alcotest.test_case "single shard slice" `Quick
            test_campaign_single_shard_runs_its_slice;
          Alcotest.test_case "crash and resume" `Quick test_campaign_crash_resume;
          Alcotest.test_case "resume rejects config mismatch" `Quick
            test_campaign_resume_rejects_mismatch;
          Alcotest.test_case "corrupt mid-log rejected" `Quick
            test_campaign_corrupt_middle_rejected ] );
      ( "campaign-codec-prop",
        List.map QCheck_alcotest.to_alcotest
          [ prop_entry_roundtrip; prop_entry_rejects_torn;
            prop_manifest_roundtrip; prop_manifest_rejects_torn ] );
      ( "golden",
        [ Alcotest.test_case "table1 pp" `Quick test_golden_table1_pp;
          Alcotest.test_case "table1 csv" `Quick test_golden_table1_csv;
          Alcotest.test_case "fig5 pp" `Quick test_golden_fig5_pp;
          Alcotest.test_case "fig5 csv" `Quick test_golden_fig5_csv ] ) ]
