(* Tests for lib/obs: histogram merge algebra and quantile error bounds
   (QCheck), the snapshot JSON codec, span recording and the Chrome
   trace_event exporter (golden), and the load-bearing invariant that
   enabling observability never perturbs a numeric result — campaign
   JSONL bytes, simulator stats, domain counts and shard merges. *)

module M = Dls_obs.Metrics
module Trace = Dls_obs.Trace
module Clock = Dls_obs.Clock
module Olog = Dls_obs.Log
module Flight = Dls_obs.Flight
module Publish = Dls_obs.Publish
module Obs = Dls_obs.Obs
module J = Dls_util.Json
module Prng = Dls_util.Prng
module G = Dls_graph.Graph
module P = Dls_platform.Platform
module Gen = Dls_platform.Generator
module Faults = Dls_flowsim.Faults
module Sim = Dls_flowsim.Simulator
module E = Dls_experiments
module C = E.Campaign
open Dls_core

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let jsonl_lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")

(* Every test leaves the global registry and trace buffer the way it
   found them: off and empty.  [quiesce] is also run first thing so a
   crashed earlier test cannot leak state into this one. *)
let quiesce () =
  M.disable ();
  M.reset ();
  Trace.disable ();
  Trace.reset ()

let with_obs_on f =
  quiesce ();
  M.enable ();
  Trace.enable ();
  Fun.protect ~finally:quiesce f

(* ------------------------------------------------------------------ *)
(* Bucket geometry                                                     *)
(* ------------------------------------------------------------------ *)

let test_bucket_invariant () =
  let rng = Prng.create ~seed:5 in
  let tricky =
    [ 1.0; M.base; M.base ** 2.0; 1.0 /. M.base; 0.9999999999; 1.0000000001;
      1e-9; 1e-6; 0.5; 2.0; 3.14159; 1e6; 1e9 ]
  in
  let sampled =
    List.init 500 (fun _ -> Prng.float rng ~lo:1e-9 ~hi:1e9)
  in
  List.iter
    (fun v ->
      let b = M.bucket_of v in
      Alcotest.(check bool)
        (Printf.sprintf "bound %d <= %.17g" b v)
        true
        (M.bound b <= v);
      Alcotest.(check bool)
        (Printf.sprintf "%.17g < bound %d" v (b + 1))
        true
        (v < M.bound (b + 1)))
    (tricky @ sampled)

(* ------------------------------------------------------------------ *)
(* QCheck: merge algebra, quantile bounds, codec round-trip            *)
(* ------------------------------------------------------------------ *)

let gen_observation =
  QCheck2.Gen.(
    oneof
      [ float_range 1e-9 1e9;  (* bucketed *)
        float_range (-5.0) 0.0;  (* underflow *)
        return 0.0 ])

let gen_values = QCheck2.Gen.(list_size (int_range 0 40) gen_observation)

(* Everything except [hs_sum], which float addition reorders. *)
let hist_shape (h : M.hist_snapshot) =
  (h.M.hs_buckets, h.M.hs_underflow, h.M.hs_count, h.M.hs_min, h.M.hs_max)

let sums_close a b =
  Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a +. Float.abs b)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"histogram merge is commutative" ~count:300
    QCheck2.Gen.(pair gen_values gen_values)
    (fun (xs, ys) ->
      let a = M.hist_of_values xs and b = M.hist_of_values ys in
      M.merge_hist a b = M.merge_hist b a)

let prop_merge_associative =
  QCheck2.Test.make ~name:"histogram merge is associative" ~count:300
    QCheck2.Gen.(triple gen_values gen_values gen_values)
    (fun (xs, ys, zs) ->
      let a = M.hist_of_values xs
      and b = M.hist_of_values ys
      and c = M.hist_of_values zs in
      let l = M.merge_hist (M.merge_hist a b) c in
      let r = M.merge_hist a (M.merge_hist b c) in
      hist_shape l = hist_shape r && sums_close l.M.hs_sum r.M.hs_sum)

let prop_merge_models_concat =
  QCheck2.Test.make ~name:"merge of two folds = fold of the concatenation"
    ~count:300
    QCheck2.Gen.(pair gen_values gen_values)
    (fun (xs, ys) ->
      let merged = M.merge_hist (M.hist_of_values xs) (M.hist_of_values ys) in
      let whole = M.hist_of_values (xs @ ys) in
      hist_shape merged = hist_shape whole
      && sums_close merged.M.hs_sum whole.M.hs_sum)

let prop_quantile_bucket_bound =
  QCheck2.Test.make
    ~name:"quantile estimate within one bucket factor of the true order \
           statistic"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60) (float_range 1e-9 1e9))
        (float_range 0.0 1.0))
    (fun (values, q) ->
      let hs = M.hist_of_values values in
      let sorted = List.sort Float.compare values in
      let n = List.length values in
      let rank =
        Stdlib.max 1
          (Stdlib.min n (int_of_float (Float.ceil (q *. float_of_int n))))
      in
      let truth = List.nth sorted (rank - 1) in
      let estimate = M.hist_quantile hs ~q in
      truth <= estimate && estimate <= truth *. M.base *. (1.0 +. 1e-12))

let gen_name = QCheck2.Gen.(map (Printf.sprintf "m%d") (int_range 0 9))

let gen_metric_value =
  QCheck2.Gen.(
    oneof
      [ map (fun n -> M.Counter n) (int_range 0 1_000_000);
        map2
          (fun value seq -> M.Gauge { value; seq })
          (float_range (-1e6) 1e6) (int_range (-1) 1000);
        map (fun vs -> M.Histogram (M.hist_of_values vs)) gen_values ])

(* Distinct sorted names, as [M.snapshot] produces. *)
let gen_snapshot =
  QCheck2.Gen.(
    map
      (fun pairs ->
        List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) pairs)
      (list_size (int_range 0 8) (pair gen_name gen_metric_value)))

let prop_codec_round_trip =
  QCheck2.Test.make ~name:"snapshot JSONL codec round-trips exactly" ~count:300
    gen_snapshot
    (fun snap ->
      match M.snapshot_of_jsonl (M.snapshot_to_jsonl snap) with
      | Ok decoded -> decoded = snap
      | Error _ -> false)

let test_non_finite_values_encode_as_null () =
  (* A NaN/inf gauge (e.g. a 0-duration-derived rate) must not crash the
     exit-time flush: the encoder emits null and the decoder restores a
     NaN sentinel.  Structural equality cannot express NaN = NaN, so
     this is pinned by hand rather than folded into the round-trip
     property. *)
  List.iter
    (fun bad ->
      let snap = [ ("test.codec.bad_gauge", M.Gauge { value = bad; seq = 3 }) ] in
      let line = M.snapshot_to_jsonl snap in
      Alcotest.(check bool) "value encoded as null" true
        (let has sub s =
           let n = String.length sub in
           let rec go i = i + n <= String.length s
                          && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has "\"value\":null" line);
      match M.snapshot_of_jsonl line with
      | Ok [ (name, M.Gauge { value; seq }) ] ->
        Alcotest.(check string) "name" "test.codec.bad_gauge" name;
        Alcotest.(check int) "seq survives" 3 seq;
        Alcotest.(check bool) "null decodes to NaN" true (Float.is_nan value)
      | Ok _ -> Alcotest.fail "unexpected snapshot shape"
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* A histogram whose sum overflowed to inf also flushes cleanly. *)
  let hs = { M.empty_hist with M.hs_sum = Float.infinity } in
  let line = M.snapshot_to_jsonl [ ("test.codec.bad_hist", M.Histogram hs) ] in
  match M.snapshot_of_jsonl line with
  | Ok [ (_, M.Histogram hs') ] ->
    Alcotest.(check (float 0.0)) "null sum decodes to 0" 0.0 hs'.M.hs_sum
  | Ok _ -> Alcotest.fail "unexpected snapshot shape"
  | Error e -> Alcotest.failf "decode failed: %s" e

let same_kind a b =
  match (a, b) with
  | M.Counter _, M.Counter _ | M.Gauge _, M.Gauge _ | M.Histogram _, M.Histogram _
    -> true
  | _ -> false

(* Avoid the (intentional) Invalid_argument on one name mapping to two
   metric kinds — the live registry can never produce that. *)
let kind_compatible a b =
  List.for_all
    (fun (n, v) ->
      match List.assoc_opt n b with None -> true | Some w -> same_kind v w)
    a

let prop_merge_round_trips_codec =
  QCheck2.Test.make
    ~name:"merged counter/gauge snapshots round-trip through the codec"
    ~count:300
    QCheck2.Gen.(pair gen_snapshot gen_snapshot)
    (fun (a, b) ->
      QCheck2.assume (kind_compatible a b);
      let merged = M.merge a b in
      match M.snapshot_of_jsonl (M.snapshot_to_jsonl merged) with
      | Ok decoded ->
        (* Exact equality: sums here come from one fixed merge order. *)
        decoded = merged
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                  *)
(* ------------------------------------------------------------------ *)

let find name snap =
  match List.assoc_opt name snap with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing from snapshot" name

let test_disabled_path_records_nothing () =
  quiesce ();
  let c = M.counter "test.off.counter" in
  let g = M.gauge "test.off.gauge" in
  let h = M.histogram "test.off.hist" in
  M.incr c;
  M.add c 41;
  M.set g 3.5;
  M.observe h 1.0;
  (match find "test.off.counter" (M.snapshot ()) with
  | M.Counter 0 -> ()
  | _ -> Alcotest.fail "disabled counter moved");
  (match find "test.off.hist" (M.snapshot ()) with
  | M.Histogram hs -> Alcotest.(check int) "no observations" 0 hs.M.hs_count
  | _ -> Alcotest.fail "wrong kind");
  Alcotest.(check bool) "disabled span is null" false
    (Trace.live (Trace.start "test.off.span"));
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()))

let test_enabled_records_and_resets () =
  with_obs_on @@ fun () ->
  let c = M.counter "test.on.counter" in
  let g = M.gauge "test.on.gauge" in
  let h = M.histogram "test.on.hist" in
  M.incr c;
  M.add c 9;
  M.set g 2.0;
  M.set g 7.5;
  List.iter (M.observe h) [ 0.5; 1.5; 0.0 ];
  let snap = M.snapshot () in
  (match find "test.on.counter" snap with
  | M.Counter n -> Alcotest.(check int) "counter" 10 n
  | _ -> Alcotest.fail "wrong kind");
  (match find "test.on.gauge" snap with
  | M.Gauge { value; _ } -> Alcotest.(check (float 0.0)) "last write" 7.5 value
  | _ -> Alcotest.fail "wrong kind");
  (match find "test.on.hist" snap with
  | M.Histogram hs ->
    Alcotest.(check int) "count" 3 hs.M.hs_count;
    Alcotest.(check int) "underflow" 1 hs.M.hs_underflow;
    Alcotest.(check (float 1e-12)) "sum" 2.0 hs.M.hs_sum;
    Alcotest.(check (float 0.0)) "min" 0.0 hs.M.hs_min;
    Alcotest.(check (float 0.0)) "max" 1.5 hs.M.hs_max
  | _ -> Alcotest.fail "wrong kind");
  M.reset ();
  match find "test.on.counter" (M.snapshot ()) with
  | M.Counter 0 -> ()
  | _ -> Alcotest.fail "reset did not zero the counter"

let test_registration_idempotent_and_kind_checked () =
  quiesce ();
  let c1 = M.counter "test.reg.c" in
  let c2 = M.counter "test.reg.c" in
  Alcotest.(check bool) "same cell" true (c1 == c2);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"test.reg.c\" already registered as a counter")
    (fun () -> ignore (M.histogram "test.reg.c"))

let test_gauge_merge_last_writer_wins () =
  let a = [ ("g", M.Gauge { value = 1.0; seq = 4 }) ] in
  let b = [ ("g", M.Gauge { value = 9.0; seq = 2 }) ] in
  (match M.merge a b with
  | [ ("g", M.Gauge { value; seq }) ] ->
    Alcotest.(check (float 0.0)) "later write kept" 1.0 value;
    Alcotest.(check int) "seq kept" 4 seq
  | _ -> Alcotest.fail "unexpected merge shape");
  Alcotest.(check bool) "commutative" true (M.merge a b = M.merge b a)

let test_quantile_empty_and_underflow () =
  Alcotest.(check bool) "empty -> nan" true
    (Float.is_nan (M.hist_quantile M.empty_hist ~q:0.5));
  let hs = M.hist_of_values [ 0.0; 0.0; 5.0 ] in
  (* Ranks 1-2 are underflow observations; report the smallest finite
     observation. *)
  Alcotest.(check (float 0.0)) "underflow rank" 0.0
    (M.hist_quantile hs ~q:0.3);
  let p100 = M.hist_quantile hs ~q:1.0 in
  Alcotest.(check bool) "p100 within a bucket of max" true
    (5.0 <= p100 && p100 <= 5.0 *. M.base)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_and_instants () =
  with_obs_on @@ fun () ->
  let outer = Trace.start ~cat:"t" "outer" in
  let inner = Trace.start ~cat:"t" "inner" in
  Trace.instant ~cat:"t" "tick";
  Trace.finish inner ~args:[ ("x", "1") ];
  Trace.finish outer;
  match Trace.events () with
  | [ tick; inner_ev; outer_ev ] ->
    Alcotest.(check char) "instant" 'i' tick.Trace.ev_ph;
    Alcotest.(check int) "instant depth" 2 tick.Trace.ev_depth;
    Alcotest.(check string) "inner first (completion order)" "inner"
      inner_ev.Trace.ev_name;
    Alcotest.(check int) "inner depth" 1 inner_ev.Trace.ev_depth;
    Alcotest.(check (list (pair string string))) "args" [ ("x", "1") ]
      inner_ev.Trace.ev_args;
    Alcotest.(check int) "outer depth" 0 outer_ev.Trace.ev_depth;
    Alcotest.(check bool) "durations non-negative" true
      (inner_ev.Trace.ev_dur >= 0.0 && outer_ev.Trace.ev_dur >= 0.0)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_with_span_closes_on_raise () =
  with_obs_on @@ fun () ->
  (try Trace.with_span "doomed" (fun () -> failwith "boom") with
  | Failure _ -> ());
  match Trace.events () with
  | [ ev ] -> Alcotest.(check string) "span recorded" "doomed" ev.Trace.ev_name
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Determinism: observability never perturbs results                   *)
(* ------------------------------------------------------------------ *)

(* Mirrors test_experiments.ml: measure_time = false zeroes every
   wall-clock field, so log lines are byte-reproducible. *)
let small_config =
  { C.default_config with
    C.seed = 71; ks = [ 4; 6 ]; per_k = 3; measure_time = false }

let run_to_file ?domains ?shards ?shard config =
  let path = Filename.temp_file "dls_obs_campaign" ".jsonl" in
  (match C.run ?domains ?shards ?shard ~out:path config with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "campaign run failed: %s" msg);
  let bytes = read_file path in
  Sys.remove path;
  let manifest = path ^ ".manifest" in
  if Sys.file_exists manifest then Sys.remove manifest;
  bytes

let test_campaign_bytes_tracing_off_vs_on () =
  quiesce ();
  let baseline = run_to_file ~domains:1 small_config in
  let traced =
    with_obs_on (fun () -> run_to_file ~domains:1 small_config)
  in
  Alcotest.(check string) "byte-identical JSONL with tracing on" baseline
    traced

let line3_platform () =
  let topology = G.path_graph 3 in
  let clusters =
    Array.init 3 (fun k -> { P.speed = 10.0; local_bw = 10.0; router = k })
  in
  let backbones = Array.make 2 { P.bw = 5.0; max_connect = 4 } in
  P.make ~clusters ~topology ~backbones

let sim_fixture () =
  (* A remote allocation under a mid-run outage: exercises spawning,
     fault application and recovery — every instrumented simulator
     path. *)
  let p = line3_platform () in
  let pr = Problem.make p ~payoffs:[| 1.0; 0.0; 0.0 |] in
  let a = Allocation.zero 3 in
  a.Allocation.alpha.(0).(0) <- 2.0;
  a.Allocation.alpha.(0).(1) <- 4.0;
  a.Allocation.beta.(0).(1) <- 1;
  a.Allocation.alpha.(0).(2) <- 4.0;
  a.Allocation.beta.(0).(2) <- 1;
  let plan =
    Faults.make p
      [ { Faults.time = 4.25; kind = Faults.Link_down 0 };
        { Faults.time = 6.25; kind = Faults.Link_up 0 } ]
  in
  (pr, a, plan)

let stats_equal name (a : Sim.stats) (b : Sim.stats) =
  let check_farr what x y =
    Array.iteri
      (fun i v ->
        Alcotest.(check (float 0.0)) (Printf.sprintf "%s %s.(%d)" name what i) v
          y.(i))
      x
  in
  check_farr "predicted" a.Sim.predicted b.Sim.predicted;
  check_farr "achieved" a.Sim.achieved b.Sim.achieved;
  Alcotest.(check int) (name ^ " late") a.Sim.late_transfers b.Sim.late_transfers;
  Alcotest.(check int) (name ^ " stalled") a.Sim.stalled_transfers
    b.Sim.stalled_transfers;
  Alcotest.(check int) (name ^ " killed") a.Sim.killed_transfers
    b.Sim.killed_transfers;
  Alcotest.(check int) (name ^ " events") a.Sim.fault_events b.Sim.fault_events;
  Alcotest.(check (float 0.0)) (name ^ " downtime") a.Sim.downtime b.Sim.downtime;
  Alcotest.(check bool) (name ^ " guard healthy") false a.Sim.guard_exhausted;
  Alcotest.(check bool) (name ^ " guard") a.Sim.guard_exhausted
    b.Sim.guard_exhausted

let test_simulator_stats_tracing_off_vs_on () =
  quiesce ();
  let pr, a, plan = sim_fixture () in
  let plain = Sim.run ~periods:20 ~warmup:2 ~faults:plan pr a in
  let traced =
    with_obs_on (fun () -> Sim.run ~periods:20 ~warmup:2 ~faults:plan pr a)
  in
  stats_equal "off vs on" plain traced;
  (* And the instrumentation did actually fire while it was on. *)
  quiesce ()

let test_simulator_counters_fire () =
  with_obs_on @@ fun () ->
  let pr, a, plan = sim_fixture () in
  ignore (Sim.run ~periods:20 ~warmup:2 ~faults:plan pr a : Sim.stats);
  let snap = M.snapshot () in
  (match find "sim.runs" snap with
  | M.Counter n -> Alcotest.(check int) "one run" 1 n
  | _ -> Alcotest.fail "wrong kind");
  (match find "sim.fault_events_applied" snap with
  | M.Counter n -> Alcotest.(check int) "both events applied" 2 n
  | _ -> Alcotest.fail "wrong kind");
  match find "sim.rounds" snap with
  | M.Counter n -> Alcotest.(check bool) "rounds counted" true (n > 0)
  | _ -> Alcotest.fail "wrong kind"

(* The wall-clock-valued histogram is the one nondeterministic metric;
   everything else — counters and the zeroed campaign time histograms —
   must be exactly reproducible across domain counts and shardings. *)
let deterministic_part snap =
  List.filter (fun (name, _) -> name <> "lp.solve_seconds") snap

let test_registry_deterministic_across_domains () =
  quiesce ();
  M.enable ();
  Fun.protect ~finally:quiesce @@ fun () ->
  let one = run_to_file ~domains:1 small_config in
  let snap_one = deterministic_part (M.snapshot ()) in
  M.reset ();
  let eight = run_to_file ~domains:8 small_config in
  let snap_eight = deterministic_part (M.snapshot ()) in
  Alcotest.(check string) "JSONL bytes equal across domain counts" one eight;
  Alcotest.(check bool) "registry equal across domain counts" true
    (snap_one = snap_eight)

let test_shard_snapshots_merge_exactly () =
  quiesce ();
  M.enable ();
  Fun.protect ~finally:quiesce @@ fun () ->
  let _ = run_to_file ~domains:2 ~shards:2 ~shard:0 small_config in
  let snap0 = M.snapshot () in
  M.reset ();
  let _ = run_to_file ~domains:2 ~shards:2 ~shard:1 small_config in
  let snap1 = M.snapshot () in
  M.reset ();
  let _ = run_to_file ~domains:2 ~shards:2 small_config in
  let whole = deterministic_part (M.snapshot ()) in
  let merged = deterministic_part (M.merge snap0 snap1) in
  Alcotest.(check bool) "merge of per-shard snapshots = whole-run snapshot"
    true (merged = whole)

(* ------------------------------------------------------------------ *)
(* Snapshot deltas: diff is the inverse of merge                       *)
(* ------------------------------------------------------------------ *)

(* One tick's worth of activity against a model registry holding one
   counter, one gauge and one histogram. *)
type batch = { b_add : int; b_obs : float list; b_set : float option }

let gen_batch =
  QCheck2.Gen.(
    map3
      (fun b_add b_obs b_set -> { b_add; b_obs; b_set })
      (int_range 0 1000) gen_values
      (opt (float_range (-1e6) 1e6)))

(* The cumulative snapshot after the given batches, mirroring what the
   live registry would hold: counters accumulate, observations fold,
   and the gauge keeps the last write (seq = batch index, increasing
   like the registry's global write sequence). *)
let cumulative batches =
  let add = List.fold_left (fun s b -> s + b.b_add) 0 batches in
  let obs = List.concat_map (fun b -> b.b_obs) batches in
  let _, set =
    List.fold_left
      (fun (i, acc) b ->
        (i + 1, match b.b_set with Some v -> Some (v, i) | None -> acc))
      (0, None) batches
  in
  let gauge =
    match set with
    | Some (value, seq) -> M.Gauge { value; seq }
    | None -> M.Gauge { value = 0.0; seq = -1 }
  in
  [ ("c", M.Counter add); ("g", gauge);
    ("h", M.Histogram (M.hist_of_values obs)) ]

(* Everything except hs_sum, which telescopes through float addition in
   a different order, compares exactly. *)
let snapshots_agree a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, va) (nb, vb) ->
         na = nb
         &&
         match (va, vb) with
         | M.Histogram x, M.Histogram y ->
           hist_shape x = hist_shape y && sums_close x.M.hs_sum y.M.hs_sum
         | _ -> va = vb)
       a b

let prop_deltas_remerge =
  QCheck2.Test.make
    ~name:"fold of merge over per-tick diffs = final cumulative snapshot"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 8) gen_batch)
    (fun batches ->
      let n = List.length batches in
      let prefix i = cumulative (List.filteri (fun j _ -> j < i) batches) in
      let deltas =
        List.init n (fun i -> M.diff (prefix (i + 1)) ~since:(prefix i))
      in
      let merged = List.fold_left M.merge (prefix 0) deltas in
      snapshots_agree merged (prefix n))

(* ------------------------------------------------------------------ *)
(* Trace buffer cap                                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_cap_and_dropped_counter () =
  quiesce ();
  M.enable ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_capacity Trace.default_capacity;
      quiesce ())
  @@ fun () ->
  Trace.set_capacity 10;
  for i = 1 to 25 do
    Trace.instant (Printf.sprintf "tick%d" i)
  done;
  Alcotest.(check int) "buffer capped" 10 (List.length (Trace.events ()));
  Alcotest.(check int) "overflow counted" 15 (Trace.dropped ());
  (match find "obs.trace.dropped" (M.snapshot ()) with
  | M.Counter n -> Alcotest.(check int) "registry counter follows" 15 n
  | _ -> Alcotest.fail "wrong kind");
  Trace.reset ();
  Alcotest.(check int) "reset clears the drop count" 0 (Trace.dropped ());
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Trace.set_capacity: capacity must be >= 1") (fun () ->
      Trace.set_capacity 0)

(* ------------------------------------------------------------------ *)
(* Structured log                                                      *)
(* ------------------------------------------------------------------ *)

let with_log_file f =
  let path = Filename.temp_file "dls_obs_log" ".jsonl" in
  let oc = Out_channel.open_bin path in
  Fun.protect
    ~finally:(fun () ->
      Olog.close_sink ();
      Out_channel.close oc;
      Sys.remove path)
  @@ fun () -> f path oc

let test_log_levels_filter_and_lines_parse () =
  with_log_file @@ fun path oc ->
  Alcotest.(check bool) "disabled by default" false (Olog.enabled Olog.Error);
  Olog.set_sink ~level:Olog.Warn oc;
  Alcotest.(check bool) "warn passes" true (Olog.enabled Olog.Warn);
  Alcotest.(check bool) "info filtered" false (Olog.enabled Olog.Info);
  Olog.info "dropped";
  Olog.warn "kept"
    ~fields:
      [ ("k", Olog.Str "v"); ("n", Olog.Int 3); ("x", Olog.Float 1.5);
        ("b", Olog.Bool true) ];
  Olog.error "also kept";
  Olog.set_level Olog.Debug;
  Olog.debug "kept after set_level";
  Olog.close_sink ();
  Olog.warn "after close must be a no-op";
  let lines = jsonl_lines (read_file path) in
  Alcotest.(check int) "exactly the unfiltered records" 3 (List.length lines);
  List.iter
    (fun l ->
      match J.of_string l with
      | Ok j ->
        (match J.member "level" j with
        | Some _ -> ()
        | None -> Alcotest.failf "record lacks level: %s" l);
        (match J.member "msg" j with
        | Some _ -> ()
        | None -> Alcotest.failf "record lacks msg: %s" l)
      | Error e -> Alcotest.failf "log line is not strict JSON (%s): %s" e l)
    lines;
  Alcotest.(check bool) "typed fields rendered" true
    (contains "\"n\":3" (List.nth lines 0))

let test_log_reserved_keys_and_non_finite () =
  let j =
    Olog.record_to_json ~ts:12.0 Olog.Info "m"
      [ ("msg", Olog.Str "clash"); ("bad", Olog.Float Float.nan) ]
  in
  let s = J.to_string j in
  Alcotest.(check bool) "reserved key prefixed, not dropped" true
    (contains "\"_msg\":\"clash\"" s);
  Alcotest.(check bool) "record msg survives" true (contains "\"msg\":\"m\"" s);
  Alcotest.(check bool) "non-finite field encodes as null" true
    (contains "\"bad\":null" s);
  match J.of_string s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rendered record is not strict JSON: %s" e

let test_log_multi_domain_no_torn_lines () =
  with_log_file @@ fun path oc ->
  Olog.set_sink ~level:Olog.Debug oc;
  let per_domain = 200 and n_domains = 4 in
  let worker d () =
    for i = 1 to per_domain do
      Olog.info "concurrent"
        ~fields:
          [ ("domain", Olog.Int d); ("i", Olog.Int i);
            ("pad", Olog.Str (String.make 64 (Char.chr (65 + d)))) ]
    done
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  Olog.close_sink ();
  let lines = jsonl_lines (read_file path) in
  Alcotest.(check int) "every record present" (n_domains * per_domain)
    (List.length lines);
  List.iter
    (fun l ->
      match J.of_string l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "torn/interleaved line (%s): %S" e l)
    lines

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_flight_ring_overwrites_oldest () =
  Fun.protect ~finally:Flight.disable @@ fun () ->
  Flight.enable ~capacity:3 ();
  for i = 1 to 7 do
    Flight.record ~kind:"test" (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "seen counts overwritten entries" 7 (Flight.seen ());
  let whats = List.map (fun e -> e.Flight.fl_what) (Flight.entries ()) in
  Alcotest.(check (list string)) "oldest-first, newest kept"
    [ "e5"; "e6"; "e7" ] whats;
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Flight.enable: capacity must be >= 1") (fun () ->
      Flight.enable ~capacity:0 ())

let test_flight_disabled_records_nothing () =
  Flight.disable ();
  Flight.reset ();
  Flight.record ~kind:"test" "ignored";
  Flight.note_span ~name:"ignored" ~dur_us:1.0;
  Alcotest.(check int) "no entries" 0 (List.length (Flight.entries ()))

(* ------------------------------------------------------------------ *)
(* Publish: ticker and scrape endpoint                                 *)
(* ------------------------------------------------------------------ *)

let tick_index j =
  match J.member "tick" j with
  | Some t -> (
    match J.to_int t with
    | Ok n -> n
    | Error e -> Alcotest.failf "tick is not an int: %s" e)
  | None -> Alcotest.fail "tick line lacks a tick field"

let test_publish_ticker_deltas_remerge () =
  quiesce ();
  M.enable ();
  let path = Filename.temp_file "dls_obs_ticks" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Publish.stop ();
      Sys.remove path;
      quiesce ())
  @@ fun () ->
  let c = M.counter "test.pub.ticker" in
  let h = M.histogram "test.pub.hist" in
  Publish.start_snapshots ~interval:0.02 ~path ();
  for i = 1 to 5 do
    M.add c i;
    M.observe h (float_of_int i);
    Thread.delay 0.03
  done;
  Publish.stop ();
  let final = M.snapshot () in
  (* Decode every line (the ts/tick extras must not break the metric
     codec), group into per-tick delta snapshots, and re-merge. *)
  let entries =
    List.map
      (fun l ->
        match J.of_string l with
        | Error e -> Alcotest.failf "tick line is not JSON (%s): %s" e l
        | Ok j -> (
          match M.value_of_json j with
          | Ok kv -> (tick_index j, kv)
          | Error e -> Alcotest.failf "tick line is not a metric (%s): %s" e l))
      (jsonl_lines (read_file path))
  in
  let max_tick = List.fold_left (fun m (t, _) -> Stdlib.max m t) 0 entries in
  Alcotest.(check bool) "at least two ticks recorded" true (max_tick >= 2);
  let tick t = List.filter_map (fun (u, kv) -> if u = t then Some kv else None)
      entries in
  let merged =
    List.fold_left (fun acc t -> M.merge acc (tick t)) []
      (List.init max_tick (fun i -> i + 1))
  in
  Alcotest.(check bool) "merged ticks = final cumulative registry" true
    (snapshots_agree merged final);
  (match find "test.pub.ticker" merged with
  | M.Counter n -> Alcotest.(check int) "counter total" 15 n
  | _ -> Alcotest.fail "wrong kind");
  match find "test.pub.hist" merged with
  | M.Histogram hs -> Alcotest.(check int) "observation count" 5 hs.M.hs_count
  | _ -> Alcotest.fail "wrong kind"

let recv_all fd =
  let buf = Bytes.create 4096 in
  let b = Buffer.create 256 in
  let rec go () =
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    if n > 0 then begin
      Buffer.add_subbytes b buf 0 n;
      go ()
    end
  in
  (try go () with Unix.Unix_error _ -> ());
  Buffer.contents b

let test_publish_http_scrape () =
  quiesce ();
  M.enable ();
  let sock_path = Filename.temp_file "dls_obs_http" ".sock" in
  Sys.remove sock_path;
  Fun.protect
    ~finally:(fun () ->
      Publish.stop ();
      quiesce ())
  @@ fun () ->
  let c = M.counter "test.pub.scrape" in
  M.add c 7;
  let h = M.histogram "test.pub.lat" in
  M.observe h 0.5;
  Publish.start_http (Publish.Unix_sock sock_path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let resp =
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX sock_path);
    let req = "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n" in
    ignore (Unix.write_substring fd req 0 (String.length req) : int);
    recv_all fd
  in
  Alcotest.(check bool) "200" true (contains "HTTP/1.1 200 OK" resp);
  Alcotest.(check bool) "exposition content type" true
    (contains "text/plain; version=0.0.4" resp);
  Alcotest.(check bool) "counter exposed" true
    (contains "test_pub_scrape_total 7" resp);
  Alcotest.(check bool) "histogram count exposed" true
    (contains "test_pub_lat_count 1" resp);
  Alcotest.(check bool) "+Inf bucket exposed" true
    (contains "test_pub_lat_bucket{le=\"+Inf\"} 1" resp)

let test_publish_addr_parsing () =
  (match Publish.addr_of_string "unix:/tmp/m.sock" with
  | Ok (Publish.Unix_sock p) -> Alcotest.(check string) "path" "/tmp/m.sock" p
  | _ -> Alcotest.fail "unix addr");
  (match Publish.addr_of_string "0.0.0.0:9100" with
  | Ok (Publish.Tcp (h, p)) ->
    Alcotest.(check string) "host" "0.0.0.0" h;
    Alcotest.(check int) "port" 9100 p
  | _ -> Alcotest.fail "host:port addr");
  (match Publish.addr_of_string "9100" with
  | Ok (Publish.Tcp (h, p)) ->
    Alcotest.(check string) "loopback default" "127.0.0.1" h;
    Alcotest.(check int) "port" 9100 p
  | _ -> Alcotest.fail "bare port addr");
  match Publish.addr_of_string "no-port" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted"

(* ------------------------------------------------------------------ *)
(* Obs lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

let test_obs_configure_once_finalize_idempotent () =
  quiesce ();
  Obs.reset_for_tests ();
  let dir = Filename.temp_file "dls_obs_cfg" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let p name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () ->
      Obs.reset_for_tests ();
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir;
      quiesce ())
  @@ fun () ->
  Alcotest.(check bool) "not configured yet" false (Obs.configured ());
  Obs.configure ~metrics:(p "metrics.jsonl") ~log:(p "log.jsonl")
    ~log_level:Olog.Debug ~flight:(p "flight.jsonl") ();
  Alcotest.(check bool) "configured" true (Obs.configured ());
  Alcotest.check_raises "second configure fails loudly"
    (Invalid_argument
       "Obs.configure: already configured (sinks are once-per-process)")
    (fun () -> Obs.configure ());
  Olog.info "one line" ~fields:[ ("k", Olog.Int 1) ];
  M.incr (M.counter "test.obs.cfg");
  Flight.record ~kind:"test" "entry";
  Obs.finalize ();
  let metrics1 = read_file (p "metrics.jsonl") in
  let flight1 = read_file (p "flight.jsonl") in
  Alcotest.(check bool) "log flushed" true
    (List.length (jsonl_lines (read_file (p "log.jsonl"))) = 1);
  Alcotest.(check bool) "metrics dump holds the counter" true
    (contains "test.obs.cfg" metrics1);
  Alcotest.(check bool) "flight dump holds the entry" true
    (contains "\"entry\"" flight1);
  (* Mutate after finalize: a second finalize must be a no-op, not a
     rewrite. *)
  Flight.record ~kind:"test" "late entry";
  Obs.finalize ();
  Alcotest.(check string) "metrics dump unchanged" metrics1
    (read_file (p "metrics.jsonl"));
  Alcotest.(check string) "flight dump unchanged" flight1
    (read_file (p "flight.jsonl"))

(* A scraper that connects and never sends its request must cost at
   most [recv_timeout], not wedge the single-threaded responder: the
   honest scraper queued behind it still gets served.  Regression for
   the unbounded-blocking responder. *)
let test_publish_http_slow_scraper () =
  quiesce ();
  M.enable ();
  let sock_path = Filename.temp_file "dls_obs_slow" ".sock" in
  Sys.remove sock_path;
  Fun.protect
    ~finally:(fun () ->
      Publish.stop ();
      quiesce ())
  @@ fun () ->
  M.add (M.counter "test.pub.slow") 3;
  Publish.start_http ~recv_timeout:0.2 ~send_timeout:0.2
    (Publish.Unix_sock sock_path);
  (* The slowloris: connect, send nothing, keep the socket open. *)
  let stalled = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect stalled (Unix.ADDR_UNIX sock_path);
  Fun.protect ~finally:(fun () -> Unix.close stalled) @@ fun () ->
  (* An honest scrape right behind it must still be answered (the
     responder spends at most recv_timeout on the stalled one). *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let resp =
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX sock_path);
    let req = "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n" in
    ignore (Unix.write_substring fd req 0 (String.length req) : int);
    recv_all fd
  in
  Alcotest.(check bool) "served despite the stalled peer" true
    (contains "test_pub_slow_total 3" resp)

(* The daemon supervisor path: [finalize] closes an epoch, after which
   a fresh [configure] is legal; within an epoch double-configure still
   fails loudly.  The metrics registry survives epochs so counters like
   restarts accumulate. *)
let test_obs_epoch_reconfigure () =
  quiesce ();
  Obs.reset_for_tests ();
  let dir = Filename.temp_file "dls_obs_epoch" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let p name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () ->
      Obs.reset_for_tests ();
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir;
      quiesce ())
  @@ fun () ->
  Obs.configure ~metrics:(p "m1.jsonl") ();
  let c = M.counter "test.obs.epoch" in
  M.incr c;
  Obs.finalize ();
  (* New epoch after finalize: legal, and the registry carried over. *)
  Obs.configure ~metrics:(p "m2.jsonl") ();
  M.incr c;
  (* Within the new epoch, configure-without-finalize still raises. *)
  Alcotest.check_raises "double configure still fails"
    (Invalid_argument
       "Obs.configure: already configured (sinks are once-per-process)")
    (fun () -> Obs.configure ());
  Obs.finalize ();
  Alcotest.(check bool) "first epoch saw one increment" true
    (contains "\"value\":1" (read_file (p "m1.jsonl")));
  Alcotest.(check bool) "second epoch accumulated across epochs" true
    (contains "\"value\":2" (read_file (p "m2.jsonl")))

(* ------------------------------------------------------------------ *)
(* Goldens                                                             *)
(* ------------------------------------------------------------------ *)

let test_golden_chrome_trace () =
  quiesce ();
  Trace.enable ();
  Fun.protect ~finally:quiesce @@ fun () ->
  let config = { small_config with C.per_k = 1 } in
  (match C.run ~domains:1 config with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "campaign run failed: %s" msg);
  let trace = Trace.to_chrome_json ~normalize:true () in
  (* Sanity: the exporter's output is strict JSON by our own codec. *)
  (match J.of_string trace with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg);
  Golden.check "obs_trace.expected" (trace ^ "\n")

(* Shared by the summary-table and Prometheus goldens: one counter pair,
   a gauge, a populated histogram (with underflow) and an empty one. *)
let table_fixture =
  [ ("campaign.entries", M.Counter 6);
    ("campaign.time.LP",
     M.Histogram (M.hist_of_values [ 0.001; 0.002; 0.004; 0.008; 0.0; 0.0 ]));
    ("engine.load", M.Gauge { value = 0.75; seq = 3 });
    ("lp.pivots", M.Counter 294);
    ("sim.empty", M.Histogram M.empty_hist) ]

let test_golden_pp_summary () =
  Golden.check "obs_summary.expected"
    (Format.asprintf "%a" M.pp_summary table_fixture)

let test_golden_prometheus () =
  let body = M.to_prometheus table_fixture in
  Golden.check "obs_prometheus.expected" body;
  (* Cumulative-bucket sanity independent of the golden bytes: the +Inf
     bucket equals the count, and underflow observations are included
     from the first bucket on. *)
  Alcotest.(check bool) "+Inf equals count" true
    (contains "campaign_time_LP_bucket{le=\"+Inf\"} 6" body);
  Alcotest.(check bool) "count line" true
    (contains "campaign_time_LP_count 6" body)

let test_golden_flight_dump () =
  quiesce ();
  let t = ref 0.0 in
  Clock.set_override (fun () ->
      t := !t +. 250.0;
      !t);
  Fun.protect
    ~finally:(fun () ->
      Clock.clear_override ();
      Flight.disable ();
      quiesce ())
  @@ fun () ->
  Flight.enable ~capacity:4 ();
  Flight.record ~kind:"fault" "link 0 down" ~fields:[ ("sim_t", "4.25") ];
  Flight.note_span ~name:"sim.run" ~dur_us:1234.5;
  Flight.note_log ~ts:(Clock.now ()) ~level:"warn" ~msg:"guard low"
    ~fields:[ ("left", "2") ];
  Flight.record ~kind:"checkpoint" "engine checkpoint";
  Flight.record ~kind:"replan" "fault outage" (* overwrites the oldest *);
  Alcotest.(check int) "seen counts the overwritten entry" 5 (Flight.seen ());
  Alcotest.(check int) "ring keeps capacity entries" 4
    (List.length (Flight.entries ()));
  let dump = Flight.dump () in
  List.iter
    (fun l ->
      match J.of_string l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "dump line is not strict JSON (%s): %S" e l)
    (jsonl_lines dump);
  Golden.check "obs_flight.expected" dump

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dls_obs"
    [ ( "buckets",
        [ Alcotest.test_case "bound/bucket_of invariant" `Quick
            test_bucket_invariant ] );
      ( "merge",
        [ qc prop_merge_commutative;
          qc prop_merge_associative;
          qc prop_merge_models_concat;
          qc prop_quantile_bucket_bound;
          qc prop_codec_round_trip;
          qc prop_merge_round_trips_codec;
          Alcotest.test_case "gauge last-writer-wins" `Quick
            test_gauge_merge_last_writer_wins;
          Alcotest.test_case "non-finite values encode as null" `Quick
            test_non_finite_values_encode_as_null;
          Alcotest.test_case "quantile edge cases" `Quick
            test_quantile_empty_and_underflow ] );
      ( "registry",
        [ Alcotest.test_case "disabled path records nothing" `Quick
            test_disabled_path_records_nothing;
          Alcotest.test_case "enabled records and resets" `Quick
            test_enabled_records_and_resets;
          Alcotest.test_case "registration idempotent, kind-checked" `Quick
            test_registration_idempotent_and_kind_checked ] );
      ( "spans",
        [ Alcotest.test_case "nesting and instants" `Quick
            test_span_nesting_and_instants;
          Alcotest.test_case "with_span closes on raise" `Quick
            test_with_span_closes_on_raise ] );
      ( "determinism",
        [ Alcotest.test_case "campaign bytes, tracing off vs on" `Quick
            test_campaign_bytes_tracing_off_vs_on;
          Alcotest.test_case "simulator stats, tracing off vs on" `Quick
            test_simulator_stats_tracing_off_vs_on;
          Alcotest.test_case "simulator counters fire" `Quick
            test_simulator_counters_fire;
          Alcotest.test_case "registry equal, 1 vs 8 domains" `Quick
            test_registry_deterministic_across_domains;
          Alcotest.test_case "shard snapshots merge exactly" `Quick
            test_shard_snapshots_merge_exactly ] );
      ( "deltas",
        [ qc prop_deltas_remerge;
          Alcotest.test_case "ticker deltas re-merge to the registry" `Quick
            test_publish_ticker_deltas_remerge ] );
      ( "log",
        [ Alcotest.test_case "levels filter, lines parse" `Quick
            test_log_levels_filter_and_lines_parse;
          Alcotest.test_case "reserved keys and non-finite fields" `Quick
            test_log_reserved_keys_and_non_finite;
          Alcotest.test_case "multi-domain sink, no torn lines" `Quick
            test_log_multi_domain_no_torn_lines ] );
      ( "flight",
        [ Alcotest.test_case "ring overwrites oldest" `Quick
            test_flight_ring_overwrites_oldest;
          Alcotest.test_case "disabled records nothing" `Quick
            test_flight_disabled_records_nothing ] );
      ( "publish",
        [ Alcotest.test_case "addr parsing" `Quick test_publish_addr_parsing;
          Alcotest.test_case "http scrape endpoint" `Quick
            test_publish_http_scrape;
          Alcotest.test_case "slow scraper cannot wedge" `Quick
            test_publish_http_slow_scraper ] );
      ( "lifecycle",
        [ Alcotest.test_case "trace cap and dropped counter" `Quick
            test_trace_cap_and_dropped_counter;
          Alcotest.test_case "configure once, finalize idempotent" `Quick
            test_obs_configure_once_finalize_idempotent;
          Alcotest.test_case "finalize opens a new epoch" `Quick
            test_obs_epoch_reconfigure ] );
      ( "golden",
        [ Alcotest.test_case "chrome trace exporter" `Quick
            test_golden_chrome_trace;
          Alcotest.test_case "pp summary table" `Quick test_golden_pp_summary;
          Alcotest.test_case "prometheus exposition" `Quick
            test_golden_prometheus;
          Alcotest.test_case "flight recorder dump" `Quick
            test_golden_flight_dump ] ) ]
