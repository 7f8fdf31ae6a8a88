(* Tests for Dls_dynsim: event-heap ordering, workload generation and
   SWF round-trips, the event-driven simulator's determinism contract
   (byte-identical event logs across runs, domain counts and
   kill/resume) and the policy comparison on the bundled trace. *)

module G = Dls_graph.Graph
module P = Dls_platform.Platform
module Heap = Dls_dynsim.Event_heap
module W = Dls_dynsim.Workload
module D = Dls_dynsim.Dynamic
module Faults = Dls_flowsim.Faults
module E = Dls_experiments

let sample_swf = "../examples/traces/sample.swf"

let line3_platform () =
  let topology = G.path_graph 3 in
  let clusters =
    Array.init 3 (fun k -> { P.speed = 10.0; local_bw = 10.0; router = k })
  in
  let backbones = Array.make 2 { P.bw = 5.0; max_connect = 4 } in
  P.make ~clusters ~topology ~backbones

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

let test_heap_basics () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (float 0.0))) "no peek" None (Heap.peek_time h);
  Heap.push h ~time:2.0 "b";
  Heap.push h ~time:1.0 "a";
  Heap.push h ~time:3.0 "c";
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option (float 0.0))) "peek min" (Some 1.0) (Heap.peek_time h);
  Alcotest.(check (option (pair (float 0.0) string)))
    "pop a" (Some (1.0, "a")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string)))
    "pop b" (Some (2.0, "b")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string)))
    "pop c" (Some (3.0, "c")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "drained" None (Heap.pop h)

let test_heap_fifo_on_ties () =
  let h = Heap.create () in
  List.iteri (fun i s -> Heap.push h ~time:(float_of_int (i mod 2)) s)
    [ "a"; "b"; "c"; "d"; "e"; "f" ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, s) ->
      order := s :: !order;
      drain ()
  in
  drain ();
  (* times 0: a c e (insertion order); times 1: b d f *)
  Alcotest.(check (list string)) "stable ties"
    [ "a"; "c"; "e"; "b"; "d"; "f" ]
    (List.rev !order)

let test_heap_rejects_nan () =
  let h = Heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.push: NaN time")
    (fun () -> Heap.push h ~time:Float.nan ())

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:100
    QCheck.(list (float_bound_exclusive 1e6))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.push h ~time:t i) times;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (t, _) -> prev <= t && drain t
      in
      drain neg_infinity)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_synthetic_deterministic_and_sane () =
  let mk () = W.synthetic ~seed:5 ~jobs:50 ~rate:0.3 ~clusters:4 () in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "reproducible" true (a = b);
  Alcotest.(check int) "count" 50 (List.length a);
  let prev = ref neg_infinity in
  List.iteri
    (fun i j ->
      Alcotest.(check int) "dense ids" i j.W.id;
      Alcotest.(check bool) "sorted arrivals" true (j.W.arrival >= !prev);
      prev := j.W.arrival;
      Alcotest.(check bool) "cluster in range" true
        (j.W.cluster >= 0 && j.W.cluster < 4);
      Alcotest.(check bool) "work in band" true
        (j.W.work >= 100.0 && j.W.work <= 300.0))
    a

let test_synthetic_heavy_truncated () =
  let wl = W.synthetic ~seed:11 ~jobs:200 ~rate:1.0 ~heavy:true ~clusters:2 () in
  List.iter
    (fun j ->
      Alcotest.(check bool) "positive" true (j.W.work > 0.0);
      Alcotest.(check bool) "truncated" true (j.W.work <= 100.0 *. 200.0))
    wl

let test_synthetic_validates () =
  Alcotest.check_raises "rate"
    (Invalid_argument "Workload.synthetic: rate must be positive") (fun () ->
      ignore (W.synthetic ~seed:1 ~jobs:1 ~rate:0.0 ~clusters:1 ()))

let test_swf_round_trip () =
  let wl = W.synthetic ~seed:3 ~jobs:20 ~rate:0.5 ~clusters:3 () in
  match W.of_swf ~clusters:3 (W.to_swf wl) with
  | Error e -> Alcotest.failf "parse back: %s" e
  | Ok back ->
    Alcotest.(check int) "count" (List.length wl) (List.length back);
    let t0 = (List.hd wl).W.arrival in
    List.iter2
      (fun j b ->
        Alcotest.(check int) "id" j.W.id b.W.id;
        (* of_swf shifts arrivals so the earliest lands at 0 *)
        Alcotest.(check (float 0.0)) "arrival" (j.W.arrival -. t0) b.W.arrival;
        Alcotest.(check int) "cluster" j.W.cluster b.W.cluster;
        Alcotest.(check (float 0.0)) "work" j.W.work b.W.work)
      wl back

let test_swf_sample_trace_loads () =
  match W.load_swf ~clusters:4 ~path:sample_swf () with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok wl ->
    (* 26 data lines, 2 of them cancelled (run_time -1 / 0) *)
    Alcotest.(check int) "jobs" 24 (List.length wl);
    Alcotest.(check (float 0.0)) "shifted to 0" 0.0 (List.hd wl).W.arrival;
    List.iter
      (fun j ->
        Alcotest.(check bool) "cluster in range" true
          (j.W.cluster >= 0 && j.W.cluster < 4);
        Alcotest.(check bool) "work positive" true (j.W.work > 0.0))
      wl

let test_swf_rejects_garbage () =
  (match W.of_swf ~clusters:2 "1 0 x 100 1" with
  | Ok _ -> Alcotest.fail "accepted non-numeric field"
  | Error e ->
    Alcotest.(check bool) "names the line" true
      (String.length e > 0 && String.sub e 0 4 = "line"));
  match W.of_swf ~clusters:2 "1 0 -1" with
  | Ok _ -> Alcotest.fail "accepted short line"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Dynamic                                                             *)
(* ------------------------------------------------------------------ *)

let saturated_workload () = W.synthetic ~seed:7 ~jobs:24 ~rate:0.6 ~clusters:3 ()

let test_dynamic_completes_everything () =
  let p = line3_platform () in
  let wl = saturated_workload () in
  let r = D.run p wl in
  Alcotest.(check int) "all complete" (List.length wl)
    (List.length r.D.completed);
  Alcotest.(check int) "none left" 0 r.D.unfinished;
  Alcotest.(check bool) "guard healthy" false r.D.guard_exhausted;
  Alcotest.(check (float 1e-9)) "completed work" (W.total_work wl)
    r.D.completed_work;
  let last =
    List.fold_left (fun acc jr -> Float.max acc jr.D.finished) 0.0 r.D.completed
  in
  Alcotest.(check (float 0.0)) "makespan is last completion" last r.D.makespan;
  Alcotest.(check bool) "lower bound respected" true
    (r.D.makespan >= W.makespan_lower_bound p wl -. 1e-6);
  List.iter
    (fun jr ->
      Alcotest.(check bool) "started after arrival" true
        (jr.D.started >= jr.D.job.W.arrival);
      Alcotest.(check bool) "finished after start" true
        (jr.D.finished >= jr.D.started))
    r.D.completed

let test_dynamic_event_log_deterministic () =
  let p = line3_platform () in
  let wl = saturated_workload () in
  let a = D.run p wl and b = D.run p wl in
  Alcotest.(check bool) "byte-identical" true
    (String.equal a.D.event_log b.D.event_log);
  Alcotest.(check bool) "log ends with end line" true
    (let lines = String.split_on_char '\n' a.D.event_log in
     match List.filter (fun l -> l <> "") lines with
     | [] -> false
     | l ->
       let last = List.nth l (List.length l - 1) in
       String.length last > 0
       &&
       (match String.index_opt last ' ' with
       | Some i -> String.sub last (i + 1) 3 = "end"
       | None -> false))

let test_dynamic_lp_beats_fcfs_when_saturated () =
  let p = line3_platform () in
  let wl = saturated_workload () in
  let lp = D.run ~policy:D.Lp_repair p wl in
  let fcfs = D.run ~policy:D.Fcfs p wl in
  Alcotest.(check bool) "higher throughput" true
    (lp.D.throughput > fcfs.D.throughput);
  Alcotest.(check bool) "lower mean response" true
    (lp.D.mean_response < fcfs.D.mean_response)

let test_dynamic_lp_beats_fcfs_on_bundled_trace () =
  let p = line3_platform () in
  match W.load_swf ~clusters:3 ~work_scale:4.0 ~path:sample_swf () with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok wl ->
    let lp = D.run ~policy:D.Lp_repair p wl in
    let fcfs = D.run ~policy:D.Fcfs p wl in
    Alcotest.(check int) "lp completes all" (List.length wl)
      (List.length lp.D.completed);
    Alcotest.(check int) "fcfs completes all" (List.length wl)
      (List.length fcfs.D.completed);
    Alcotest.(check bool) "lp-repair beats fcfs throughput" true
      (lp.D.throughput > fcfs.D.throughput)

let test_dynamic_faults_replan_and_recover () =
  let p = line3_platform () in
  let wl = saturated_workload () in
  let plan =
    Faults.make p
      [ { Faults.time = 20.0; kind = Faults.Link_down 0 };
        { Faults.time = 60.0; kind = Faults.Link_up 0 } ]
  in
  let r = D.run ~faults:plan p wl in
  Alcotest.(check int) "still completes" (List.length wl)
    (List.length r.D.completed);
  Alcotest.(check bool) "guard healthy" false r.D.guard_exhausted;
  let has_fault_line =
    List.exists
      (fun l ->
        match String.index_opt l ' ' with
        | Some i ->
          String.length l >= i + 6 && String.sub l (i + 1) 5 = "fault"
        | None -> false)
      (String.split_on_char '\n' r.D.event_log)
  in
  Alcotest.(check bool) "fault logged" true has_fault_line;
  (* the outage must cost wall-clock against the fault-free replay *)
  let base = D.run p wl in
  Alcotest.(check bool) "slower than fault-free" true
    (r.D.makespan >= base.D.makespan)

let test_dynamic_until_truncates () =
  let p = line3_platform () in
  let wl = saturated_workload () in
  let r = D.run ~until:0.0 p wl in
  Alcotest.(check int) "nothing completed" 0 (List.length r.D.completed);
  Alcotest.(check int) "everything unfinished" (List.length wl) r.D.unfinished

let test_dynamic_validates () =
  let p = line3_platform () in
  Alcotest.check_raises "until" (Invalid_argument "Dynamic.run: until must be >= 0")
    (fun () -> ignore (D.run ~until:(-1.0) p []));
  Alcotest.check_raises "flow"
    (Invalid_argument "Dynamic.run: Flow fidelity needs >= 2 periods")
    (fun () -> ignore (D.run ~fidelity:(D.Flow 1) p []))

let test_dynamic_flow_fidelity_runs () =
  let p = line3_platform () in
  let wl = W.synthetic ~seed:2 ~jobs:6 ~rate:0.2 ~clusters:3 () in
  let r = D.run ~fidelity:(D.Flow 6) p wl in
  Alcotest.(check int) "completes" 6 (List.length r.D.completed);
  Alcotest.(check bool) "guard healthy" false r.D.guard_exhausted;
  let a = D.run ~fidelity:(D.Flow 6) p wl in
  Alcotest.(check bool) "flow fidelity deterministic" true
    (String.equal a.D.event_log r.D.event_log)

(* ------------------------------------------------------------------ *)
(* Dynexp: codec, engine integration, determinism                      *)
(* ------------------------------------------------------------------ *)

(* measure_time = false keeps entries byte-reproducible for the
   determinism and resume comparisons. *)
let tiny_config =
  { E.Dynexp.default_config with
    E.Dynexp.k = 3;
    platforms = 2;
    jobs = 8;
    rate = 0.5;
    measure_time = false }

let test_dynexp_codec_round_trip () =
  for index = 0 to E.Dynexp.total tiny_config - 1 do
    let entry = E.Dynexp.evaluate_index tiny_config index in
    let line = E.Dynexp.entry_to_line entry in
    match E.Dynexp.entry_of_line line with
    | Error msg -> Alcotest.failf "decode: %s" msg
    | Ok back ->
      Alcotest.(check string) "round trip" line (E.Dynexp.entry_to_line back)
  done

let test_dynexp_skip_codec () =
  let entry = E.Dynexp.Skipped { index = 3; reason = "no such trace" } in
  match E.Dynexp.entry_of_line (E.Dynexp.entry_to_line entry) with
  | Ok (E.Dynexp.Skipped { index = 3; reason = "no such trace" }) -> ()
  | Ok _ -> Alcotest.fail "wrong entry"
  | Error msg -> Alcotest.failf "decode: %s" msg

let test_dynexp_records_healthy () =
  let records = E.Dynexp.collect ~domains:2 tiny_config in
  Alcotest.(check int) "all indices" (E.Dynexp.total tiny_config)
    (List.length records);
  List.iter
    (fun r ->
      Alcotest.(check bool) "guard healthy" false r.E.Dynexp.guard_exhausted;
      Alcotest.(check bool) "digest is hex md5" true
        (String.length r.E.Dynexp.log_digest = 32);
      Alcotest.(check int) "all jobs complete" r.E.Dynexp.jobs
        r.E.Dynexp.completed)
    records;
  let table = E.Dynexp.table tiny_config records in
  Alcotest.(check bool) "table renders" true
    (String.length (Format.asprintf "%a" E.Report.pp_table table) > 0)

let test_dynexp_deterministic_across_domains () =
  let lines domains =
    E.Dynexp.collect ~domains tiny_config
    |> List.map (fun r -> E.Dynexp.entry_to_line (E.Dynexp.Record r))
  in
  let one = lines 1 and eight = lines 8 in
  Alcotest.(check int) "same count" (List.length one) (List.length eight);
  List.iter2 (fun a b -> Alcotest.(check string) "same bytes" a b) one eight

let test_dynexp_resume_replays () =
  let out = Filename.temp_file "dls_dynexp" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out with Sys_error _ -> ());
      try Sys.remove (out ^ ".manifest") with Sys_error _ -> ())
    (fun () ->
      (match E.Dynexp.run ~domains:2 ~out tiny_config with
      | Error msg -> Alcotest.failf "fresh run: %s" msg
      | Ok s ->
        Alcotest.(check int) "all evaluated" (E.Dynexp.total tiny_config)
          s.E.Engine.s_evaluated);
      match E.Dynexp.run ~domains:2 ~out ~resume:true tiny_config with
      | Error msg -> Alcotest.failf "resume: %s" msg
      | Ok s ->
        Alcotest.(check int) "nothing re-evaluated" 0 s.E.Engine.s_evaluated;
        Alcotest.(check int) "everything replayed" (E.Dynexp.total tiny_config)
          s.E.Engine.s_replayed)

(* Kill + resume: truncate the JSONL log mid-run and resume; the final
   record set — including each run's event-log digest — must be
   byte-identical to the uninterrupted run's. *)
let test_dynexp_kill_resume_identical () =
  let read_lines path =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let sorted_records out =
    match Dls_util.Wal.load ~of_line:E.Dynexp.entry_of_line ~path:out with
    | Error msg -> Alcotest.failf "Wal.load: %s" msg
    | Ok (entries, _) ->
      List.sort
        (fun a b ->
          Stdlib.compare (E.Dynexp.entry_index a) (E.Dynexp.entry_index b))
        entries
      |> List.map E.Dynexp.entry_to_line
  in
  let out1 = Filename.temp_file "dls_dynexp_full" ".jsonl" in
  let out2 = Filename.temp_file "dls_dynexp_cut" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p ->
          (try Sys.remove p with Sys_error _ -> ());
          try Sys.remove (p ^ ".manifest") with Sys_error _ -> ())
        [ out1; out2 ])
    (fun () ->
      (match E.Dynexp.run ~domains:1 ~out:out1 tiny_config with
      | Error msg -> Alcotest.failf "uninterrupted: %s" msg
      | Ok _ -> ());
      (* simulate a kill after two completed records *)
      let prefix =
        match read_lines out1 with
        | a :: b :: _ -> a ^ "\n" ^ b ^ "\n"
        | _ -> Alcotest.fail "expected at least two records"
      in
      Out_channel.with_open_bin out2 (fun oc ->
          Out_channel.output_string oc prefix);
      (match E.Dynexp.run ~domains:1 ~out:out2 ~resume:true tiny_config with
      | Error msg -> Alcotest.failf "resumed: %s" msg
      | Ok s ->
        Alcotest.(check int) "replayed the prefix" 2 s.E.Engine.s_replayed;
        Alcotest.(check int) "evaluated the rest"
          (E.Dynexp.total tiny_config - 2)
          s.E.Engine.s_evaluated);
      List.iter2
        (fun a b -> Alcotest.(check string) "same bytes" a b)
        (sorted_records out1) (sorted_records out2))

let test_dynexp_replay_exposes_event_log () =
  match E.Dynexp.replay tiny_config ~index:0 with
  | Error msg -> Alcotest.failf "replay: %s" msg
  | Ok (jobs, r) ->
    Alcotest.(check int) "workload length" tiny_config.E.Dynexp.jobs jobs;
    Alcotest.(check bool) "log non-empty" true
      (String.length r.D.event_log > 0);
    let digest = Digest.to_hex (Digest.string r.D.event_log) in
    let records = E.Dynexp.collect ~domains:1 tiny_config in
    let r0 = List.hd records in
    Alcotest.(check string) "digest matches engine record" digest
      r0.E.Dynexp.log_digest

let test_dynexp_golden_log () =
  Golden.log_format "dynamic"
    ~line:(E.Dynexp.entry_to_line (E.Dynexp.evaluate_index tiny_config 0))
    ~run:(fun ~out ->
      match E.Dynexp.run ~domains:1 ~out tiny_config with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "run: %s" msg)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dls_dynsim"
    [ ( "event-heap",
        [ Alcotest.test_case "basics" `Quick test_heap_basics;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "rejects nan" `Quick test_heap_rejects_nan ] );
      qsuite "event-heap-props" [ prop_heap_sorts ];
      ( "workload",
        [ Alcotest.test_case "synthetic deterministic" `Quick
            test_synthetic_deterministic_and_sane;
          Alcotest.test_case "heavy tail truncated" `Quick
            test_synthetic_heavy_truncated;
          Alcotest.test_case "validates" `Quick test_synthetic_validates;
          Alcotest.test_case "swf round trip" `Quick test_swf_round_trip;
          Alcotest.test_case "sample trace loads" `Quick
            test_swf_sample_trace_loads;
          Alcotest.test_case "rejects garbage" `Quick test_swf_rejects_garbage ] );
      ( "dynamic",
        [ Alcotest.test_case "completes everything" `Quick
            test_dynamic_completes_everything;
          Alcotest.test_case "event log deterministic" `Quick
            test_dynamic_event_log_deterministic;
          Alcotest.test_case "lp beats fcfs when saturated" `Quick
            test_dynamic_lp_beats_fcfs_when_saturated;
          Alcotest.test_case "lp beats fcfs on bundled trace" `Quick
            test_dynamic_lp_beats_fcfs_on_bundled_trace;
          Alcotest.test_case "faults replan and recover" `Quick
            test_dynamic_faults_replan_and_recover;
          Alcotest.test_case "until truncates" `Quick test_dynamic_until_truncates;
          Alcotest.test_case "validates" `Quick test_dynamic_validates;
          Alcotest.test_case "flow fidelity" `Quick test_dynamic_flow_fidelity_runs ] );
      ( "dynexp",
        [ Alcotest.test_case "codec round trip" `Quick test_dynexp_codec_round_trip;
          Alcotest.test_case "skip codec" `Quick test_dynexp_skip_codec;
          Alcotest.test_case "records healthy" `Quick test_dynexp_records_healthy;
          Alcotest.test_case "deterministic across domains" `Quick
            test_dynexp_deterministic_across_domains;
          Alcotest.test_case "resume replays" `Quick test_dynexp_resume_replays;
          Alcotest.test_case "kill+resume identical" `Quick
            test_dynexp_kill_resume_identical;
          Alcotest.test_case "replay exposes event log" `Quick
            test_dynexp_replay_exposes_event_log;
          Alcotest.test_case "golden record and manifest" `Quick
            test_dynexp_golden_log ] ) ]
