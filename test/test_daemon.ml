(* Tests for the allocation daemon: wire protocol, state machine, WAL
   journal (crash-recovery replay properties), the deadline-budgeted
   solver ladder with its circuit breaker, and the event-loop server
   end-to-end over a unix socket — including the misbehaving clients
   (malformed, slowloris, flooding, abandoning) the robustness
   machinery exists for. *)

module D = Dls_daemon
module P = D.Protocol
module J = Dls_util.Json
module Faults = Dls_flowsim.Faults
module Prng = Dls_util.Prng

let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let platform ?(k = 6) ?(seed = 42) () =
  Dls_platform.Generator.generate (Prng.create ~seed)
    { Dls_platform.Generator.default_params with k }

let temp_dir () =
  let dir = Filename.temp_file "dls_daemon" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let payload = {|{"op":"health"}|} in
  let wire = P.frame payload in
  (match P.split_frame wire with
  | `Frame (p, consumed) ->
    Alcotest.(check string) "payload" payload p;
    Alcotest.(check int) "consumed everything" (String.length wire) consumed
  | `Incomplete -> Alcotest.fail "incomplete"
  | `Bad r -> Alcotest.failf "bad: %s" r);
  (* Two pipelined frames: the first split leaves the second intact. *)
  let wire2 = P.frame "abc" ^ P.frame "defg" in
  match P.split_frame wire2 with
  | `Frame ("abc", consumed) -> (
    match
      P.split_frame (String.sub wire2 consumed (String.length wire2 - consumed))
    with
    | `Frame ("defg", _) -> ()
    | _ -> Alcotest.fail "second frame lost")
  | _ -> Alcotest.fail "first frame"

let test_frame_incomplete_and_bad () =
  (match P.split_frame "12" with
  | `Incomplete -> ()
  | _ -> Alcotest.fail "header fragment should be incomplete");
  (match P.split_frame "5\nab" with
  | `Incomplete -> ()
  | _ -> Alcotest.fail "short payload should be incomplete");
  (match P.split_frame "nan\n{}" with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "non-digit header accepted");
  (match P.split_frame "\n{}" with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "empty header accepted");
  match P.split_frame (string_of_int (P.max_frame + 1) ^ "\nx") with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "oversized frame accepted"

let prop_frame_roundtrip =
  QCheck2.Test.make ~name:"split_frame inverts frame" ~count:300
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun payload ->
      match P.split_frame (P.frame payload) with
      | `Frame (p, c) -> p = payload && c = String.length (P.frame payload)
      | _ -> false)

let prop_frame_prefix_incomplete =
  QCheck2.Test.make ~name:"no proper frame prefix parses" ~count:300
    QCheck2.Gen.(
      pair (string_size (int_range 1 100)) (float_range 0.0 1.0))
    (fun (payload, frac) ->
      let wire = P.frame payload in
      let cut = int_of_float (frac *. float_of_int (String.length wire)) in
      let cut = min cut (String.length wire - 1) in
      match P.split_frame (String.sub wire 0 cut) with
      | `Incomplete -> true
      | `Frame _ | `Bad _ -> false)

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let sample_requests =
  [ P.Mutate (P.Register_app { app = "a"; cluster = 3; payoff = 2.5 });
    P.Mutate (P.Retire_app { app = "a" });
    P.Mutate
      (P.Platform_delta
         [ Faults.Link_down 2; Faults.Link_up 2;
           Faults.Link_degrade { link = 1; factor = 0.5 };
           Faults.Max_connect { link = 0; limit = 3 };
           Faults.Cluster_throttle { cluster = 1; factor = 0.25 };
           Faults.Cluster_crash 4 ]);
    P.Get_schedule { objective = Dls_core.Lp_relax.Maxmin; budget_ms = None };
    P.Get_schedule
      { objective = Dls_core.Lp_relax.Sum; budget_ms = Some 120.0 };
    P.Health; P.Drain; P.Crash ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let j = P.request_to_json req in
      match P.request_of_json j with
      | Ok req' ->
        if req <> req' then
          Alcotest.failf "request changed through codec: %s" (J.to_string j)
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    sample_requests;
  (* The wire form survives reserialization too. *)
  List.iter
    (fun req ->
      let s = J.to_string (P.request_to_json req) in
      match Result.bind (J.of_string s) P.request_of_json with
      | Ok req' -> Alcotest.(check bool) "string roundtrip" true (req = req')
      | Error msg -> Alcotest.failf "string decode failed: %s" msg)
    sample_requests

let test_request_rejects_junk () =
  let bad =
    [ {|{"no_op":1}|}; {|{"op":"frobnicate"}|};
      {|{"op":"register_app","app":"x"}|};
      {|{"op":"register_app","app":"x","cluster":1,"payoff":"lots"}|};
      {|{"op":"get_schedule","budget_ms":-5}|};
      {|{"op":"get_schedule","objective":"median"}|};
      {|{"op":"platform_delta","events":[{"fault":"meteor"}]}|} ]
  in
  List.iter
    (fun s ->
      match Result.bind (J.of_string s) P.request_of_json with
      | Ok _ -> Alcotest.failf "accepted junk: %s" s
      | Error _ -> ())
    bad

let test_schedule_reply_roundtrip () =
  let sr =
    { P.sr_seq = 7; sr_objective = 12.5; sr_rung = "refine";
      sr_degraded = true; sr_breaker = "open";
      sr_alpha = [ (0, 1, 2.5); (2, 2, 0.125) ]; sr_beta = [ (0, 1, 3) ] }
  in
  match P.schedule_reply_of_json (P.schedule_reply_to_json sr) with
  | Ok sr' ->
    Alcotest.(check bool) "roundtrip equal" true (P.equal_schedule sr sr');
    Alcotest.(check bool) "seq differences detected" false
      (P.equal_schedule sr { sr' with P.sr_seq = 8 });
    Alcotest.(check bool) "breaker ignored by equal_schedule" true
      (P.equal_schedule sr { sr' with P.sr_breaker = "closed" });
    Alcotest.(check bool) "alpha differences detected" false
      (P.equal_schedule sr { sr' with P.sr_alpha = [ (0, 1, 2.6) ] })
  | Error msg -> Alcotest.failf "decode failed: %s" msg

(* ------------------------------------------------------------------ *)
(* State machine                                                       *)
(* ------------------------------------------------------------------ *)

let test_state_apply_validation () =
  let st = D.State.create (platform ()) in
  let ok m =
    match D.State.apply st m with
    | Ok () -> ()
    | Error e -> Alcotest.failf "unexpected rejection: %s" e
  in
  let rejected m =
    match D.State.apply st m with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "mutation should have been rejected"
  in
  let seq_before = D.State.seq st in
  rejected (P.Register_app { app = ""; cluster = 0; payoff = 1.0 });
  rejected (P.Register_app { app = "a"; cluster = -1; payoff = 1.0 });
  rejected (P.Register_app { app = "a"; cluster = 99; payoff = 1.0 });
  rejected (P.Register_app { app = "a"; cluster = 0; payoff = 0.0 });
  rejected (P.Register_app { app = "a"; cluster = 0; payoff = infinity });
  rejected (P.Retire_app { app = "ghost" });
  rejected (P.Platform_delta []);
  rejected (P.Platform_delta [ Faults.Link_down 9999 ]);
  rejected
    (P.Platform_delta [ Faults.Link_degrade { link = 0; factor = 2.0 } ]);
  Alcotest.(check int) "rejections do not bump seq" seq_before
    (D.State.seq st);
  ok (P.Register_app { app = "a"; cluster = 0; payoff = 1.0 });
  rejected (P.Register_app { app = "a"; cluster = 1; payoff = 1.0 });
  rejected (P.Register_app { app = "b"; cluster = 0; payoff = 1.0 });
  ok (P.Register_app { app = "b"; cluster = 1; payoff = 2.0 });
  ok (P.Retire_app { app = "a" });
  ok (P.Register_app { app = "c"; cluster = 0; payoff = 3.0 });
  ok (P.Platform_delta [ Faults.Link_degrade { link = 0; factor = 0.5 } ]);
  Alcotest.(check int) "five accepted" (seq_before + 5) (D.State.seq st);
  Alcotest.(check (list string)) "registry sorted" [ "b"; "c" ]
    (List.map fst (D.State.apps st))

let test_state_problem_payoffs () =
  let pf = platform () in
  let st = D.State.create pf in
  (match D.State.apply st (P.Register_app { app = "x"; cluster = 2; payoff = 4.0 }) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let pb = D.State.problem st in
  let kk = Dls_core.Problem.num_clusters pb in
  Alcotest.(check int) "problem covers the platform" kk
    (Dls_platform.Platform.num_clusters pf);
  for k = 0 to kk - 1 do
    let expected = if k = 2 then 4.0 else 0.0 in
    Alcotest.(check (float 0.0)) "payoff placement" expected
      (Dls_core.Problem.payoff pb k)
  done

(* ------------------------------------------------------------------ *)
(* Journal: WAL replay                                                 *)
(* ------------------------------------------------------------------ *)

(* A deterministic stream of valid mutations driven against a model of
   the registry, so any prefix is itself a valid history. *)
let gen_mutations pf rng n =
  let num_clusters = Dls_platform.Platform.num_clusters pf in
  let registered = Hashtbl.create 8 in
  let owned = Hashtbl.create 8 in
  let fresh = ref 0 in
  let rec mutation () =
    match Prng.int rng ~lo:0 ~hi:9 with
    | 0 | 1 | 2 | 3 ->
      let cluster = Prng.int rng ~lo:0 ~hi:(num_clusters - 1) in
      if Hashtbl.mem owned cluster then mutation ()
      else begin
        incr fresh;
        let app = Printf.sprintf "app%d" !fresh in
        Hashtbl.replace registered app cluster;
        Hashtbl.replace owned cluster ();
        P.Register_app
          { app; cluster; payoff = Prng.float rng ~lo:0.5 ~hi:4.0 }
      end
    | 4 ->
      let apps = Hashtbl.fold (fun a _ acc -> a :: acc) registered [] in
      (match apps with
      | [] -> mutation ()
      | _ ->
        let app = List.nth apps (Prng.int rng ~lo:0 ~hi:(List.length apps - 1)) in
        Hashtbl.remove owned (Hashtbl.find registered app);
        Hashtbl.remove registered app;
        P.Retire_app { app })
    | _ ->
      let link () = Prng.int rng ~lo:0 ~hi:(num_clusters - 1) in
      let kinds =
        List.init
          (Prng.int rng ~lo:1 ~hi:3)
          (fun _ ->
            match Prng.int rng ~lo:0 ~hi:10 with
            | 0 | 1 -> Faults.Link_down (link ())
            | 2 | 3 -> Faults.Link_up (link ())
            | 4 | 5 ->
              Faults.Link_degrade
                { link = link (); factor = Prng.float rng ~lo:0.1 ~hi:0.9 }
            | 6 | 7 ->
              Faults.Max_connect
                { link = link (); limit = Prng.int rng ~lo:0 ~hi:5 }
            | 8 ->
              (* rare: permanent, so too many leave a trivial platform *)
              Faults.Cluster_crash (Prng.int rng ~lo:0 ~hi:(num_clusters - 1))
            | _ ->
              Faults.Cluster_throttle
                { cluster = Prng.int rng ~lo:0 ~hi:(num_clusters - 1);
                  factor = Prng.float rng ~lo:0.1 ~hi:0.9 })
      in
      P.Platform_delta kinds
  in
  List.init n (fun _ -> mutation ())

let write_journal dir pf mutations =
  let path = Filename.concat dir "wal.jsonl" in
  match D.Journal.open_ ~path ~platform:pf with
  | Error e -> Alcotest.failf "journal open: %s" e
  | Ok (state, journal) ->
    List.iter
      (fun m ->
        match D.State.apply state m with
        | Ok () -> D.Journal.append journal m
        | Error e -> Alcotest.failf "generated mutation rejected: %s" e)
      mutations;
    D.Journal.close journal;
    (path, state)

let test_journal_reopen_restores_state () =
  with_dir @@ fun dir ->
  let pf = platform () in
  let mutations = gen_mutations pf (Prng.create ~seed:11) 20 in
  let path, state = write_journal dir pf mutations in
  match D.Journal.open_ ~path ~platform:pf with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok (state', journal) ->
    D.Journal.close journal;
    Alcotest.(check bool) "replayed state equals original" true
      (D.State.equal state state');
    Alcotest.(check int) "sequence preserved" (D.State.seq state)
      (D.State.seq state')

(* The manifest is written at open only: appends leave it alone, and
   reopening writes it again. *)
let test_journal_manifest_written_at_open () =
  with_dir @@ fun dir ->
  let pf = platform () in
  let path = Filename.concat dir "wal.jsonl" in
  let manifest = D.Journal.manifest_path path in
  match D.Journal.open_ ~path ~platform:pf with
  | Error e -> Alcotest.failf "journal open: %s" e
  | Ok (state, journal) ->
    Alcotest.(check bool) "written at open" true (Sys.file_exists manifest);
    Sys.remove manifest;
    List.iter
      (fun m ->
        match D.State.apply state m with
        | Ok () -> D.Journal.append journal m
        | Error e -> Alcotest.failf "generated mutation rejected: %s" e)
      (gen_mutations pf (Prng.create ~seed:5) 5);
    Alcotest.(check int) "entries counted" 5 (D.Journal.entries journal);
    D.Journal.close journal;
    Alcotest.(check bool) "appends leave it alone" false (Sys.file_exists manifest);
    (match D.Journal.open_ ~path ~platform:pf with
    | Ok (state', j) ->
      D.Journal.close j;
      Alcotest.(check bool) "replay without a manifest" true
        (D.State.equal state state')
    | Error e -> Alcotest.failf "reopen: %s" e);
    Alcotest.(check bool) "rewritten at reopen" true (Sys.file_exists manifest)

let test_journal_rejects_foreign_platform () =
  with_dir @@ fun dir ->
  let pf = platform () in
  let path, _ = write_journal dir pf (gen_mutations pf (Prng.create ~seed:3) 5) in
  match D.Journal.open_ ~path ~platform:(platform ~seed:43 ()) with
  | Error msg ->
    Alcotest.(check bool) "error names the platform mismatch" true
      (contains "different platform" msg)
  | Ok _ -> Alcotest.fail "foreign journal accepted"

let test_journal_rejects_corrupt_middle () =
  with_dir @@ fun dir ->
  let pf = platform () in
  let path, _ =
    write_journal dir pf (gen_mutations pf (Prng.create ~seed:4) 6)
  in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  let mangled =
    List.mapi (fun i l -> if i = 2 then "{\"seq\":oops" else l) lines
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.concat "\n" mangled));
  match D.Journal.open_ ~path ~platform:pf with
  | Error msg ->
    Alcotest.(check bool) "error pinpoints the line" true
      (contains "line 3" msg)
  | Ok _ -> Alcotest.fail "corrupt journal accepted"

(* The crash-recovery property (issue satellite): {e any} prefix of the
   WAL — including one ending in a torn, partially-written line —
   replays to a valid state equal to applying that prefix of mutations
   in memory. *)
let prop_wal_prefix_replays =
  QCheck2.Test.make ~name:"any WAL prefix (even torn) replays to a valid state"
    ~count:30
    QCheck2.Gen.(triple (int_bound 1000) (int_range 0 15) (int_range 0 60))
    (fun (seed, prefix_len, torn_bytes) ->
      with_dir @@ fun dir ->
      let pf = platform () in
      let mutations = gen_mutations pf (Prng.create ~seed) 15 in
      let path, _ = write_journal dir pf mutations in
      let content = In_channel.with_open_bin path In_channel.input_all in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' content)
      in
      let p = min prefix_len (List.length lines) in
      let prefix = List.filteri (fun i _ -> i < p) lines in
      (* Torn tail: the first bytes of the record the crash cut short. *)
      let torn =
        if p >= List.length lines then ""
        else
          let next = List.nth lines p in
          String.sub next 0 (min torn_bytes (String.length next - 1))
      in
      let path2 = Filename.concat dir "prefix.jsonl" in
      Out_channel.with_open_bin path2 (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) prefix;
          Out_channel.output_string oc torn);
      let expected = D.State.create pf in
      List.iteri
        (fun i m ->
          if i < p then
            match D.State.apply expected m with
            | Ok () -> ()
            | Error e -> Alcotest.failf "model apply: %s" e)
        mutations;
      let opened, records =
        Log_capture.records (fun () -> D.Journal.open_ ~path:path2 ~platform:pf)
      in
      (* A dropped tail is reported by exactly one warn record naming
         its byte count; an intact log by none. *)
      let warns =
        List.filter (fun r -> Log_capture.str "level" r = Some "warn") records
      in
      let expected_warns =
        if torn = "" then []
        else [ (Some "daemon.journal.torn_tail", Some (String.length torn)) ]
      in
      List.map
        (fun r -> (Log_capture.str "msg" r, Log_capture.int "dropped_bytes" r))
        warns
      = expected_warns
      &&
      match opened with
      | Error e -> Alcotest.failf "prefix replay failed: %s" e
      | Ok (state, journal) ->
        D.Journal.close journal;
        D.State.equal expected state && D.State.seq state = p)

(* Kill -9 equivalence, in-process: state rebuilt from the WAL produces
   the same schedule as the state that wrote it. *)
let test_journal_schedule_equivalence () =
  with_dir @@ fun dir ->
  let pf = platform () in
  let mutations =
    [ P.Register_app { app = "a"; cluster = 0; payoff = 1.0 };
      P.Register_app { app = "b"; cluster = 2; payoff = 2.0 };
      P.Platform_delta [ Faults.Link_degrade { link = 0; factor = 0.5 } ] ]
  in
  let path, state = write_journal dir pf mutations in
  let solve st =
    let breaker = D.Solver.breaker () in
    match
      D.Solver.solve ~breaker ~objective:Dls_core.Lp_relax.Maxmin
        ~budget_s:30.0
        ~base:(Dls_core.Allocation.zero (Dls_platform.Platform.num_clusters pf))
        (D.State.problem st)
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "solve: %s" e
  in
  let before = solve state in
  match D.Journal.open_ ~path ~platform:pf with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok (state', journal) ->
    D.Journal.close journal;
    let after = solve state' in
    Alcotest.(check (float 1e-12)) "same objective"
      before.D.Solver.objective_value after.D.Solver.objective_value;
    Alcotest.(check bool) "same allocation" true
      (before.D.Solver.allocation.Dls_core.Allocation.alpha
       = after.D.Solver.allocation.Dls_core.Allocation.alpha
      && before.D.Solver.allocation.Dls_core.Allocation.beta
         = after.D.Solver.allocation.Dls_core.Allocation.beta)

(* ------------------------------------------------------------------ *)
(* Solver ladder + breaker                                             *)
(* ------------------------------------------------------------------ *)

let small_problem () =
  let st = D.State.create (platform ()) in
  List.iter
    (fun m ->
      match D.State.apply st m with Ok () -> () | Error e -> Alcotest.fail e)
    [ P.Register_app { app = "a"; cluster = 0; payoff = 1.0 };
      P.Register_app { app = "b"; cluster = 3; payoff = 2.0 } ];
  D.State.problem st

let test_solver_zero_budget_degrades () =
  let pb = small_problem () in
  let breaker = D.Solver.breaker () in
  let base = Dls_core.Allocation.zero (Dls_core.Problem.num_clusters pb) in
  match
    D.Solver.solve ~breaker ~objective:Dls_core.Lp_relax.Maxmin ~budget_s:0.0
      ~base pb
  with
  | Error e -> Alcotest.failf "zero budget must still answer: %s" e
  | Ok o ->
    Alcotest.(check string) "floor rung" "rescale"
      (D.Solver.rung_name o.D.Solver.rung);
    Alcotest.(check bool) "flagged degraded" true o.D.Solver.degraded;
    Alcotest.(check int) "one attempt" 1 (List.length o.D.Solver.attempts);
    Alcotest.(check int) "three rungs skipped" 3
      (List.length o.D.Solver.skipped);
    Alcotest.(check bool) "feasible even so" true
      (Dls_core.Allocation.is_feasible pb o.D.Solver.allocation)

let test_solver_full_budget_resolves () =
  let pb = small_problem () in
  let breaker = D.Solver.breaker () in
  let base = Dls_core.Allocation.zero (Dls_core.Problem.num_clusters pb) in
  match
    D.Solver.solve ~breaker ~objective:Dls_core.Lp_relax.Maxmin ~budget_s:30.0
      ~base pb
  with
  | Error e -> Alcotest.failf "solve: %s" e
  | Ok o ->
    Alcotest.(check string) "LP rung wins" "resolve_lp"
      (D.Solver.rung_name o.D.Solver.rung);
    Alcotest.(check bool) "not degraded" false o.D.Solver.degraded;
    Alcotest.(check bool) "objective positive" true
      (o.D.Solver.objective_value > 0.0);
    Alcotest.(check bool) "feasible" true
      (Dls_core.Allocation.is_feasible pb o.D.Solver.allocation)

let test_solver_breaker_open_skips_lp () =
  let pb = small_problem () in
  let b = D.Solver.breaker ~threshold:1 ~base_backoff_s:60.0 ~max_backoff_s:120.0 () in
  (* One failure trips a threshold-1 breaker open, on the real clock so
     the minute-long backoff comfortably covers the solve below. *)
  let now = Unix.gettimeofday () in
  D.Solver.note_lp_failure b ~now;
  Alcotest.(check string) "open" "open"
    (D.Solver.breaker_state_name (D.Solver.breaker_state b ~now));
  let base = Dls_core.Allocation.zero (Dls_core.Problem.num_clusters pb) in
  match
    D.Solver.solve ~breaker:b ~objective:Dls_core.Lp_relax.Maxmin
      ~budget_s:30.0 ~base pb
  with
  | Error e -> Alcotest.failf "solve: %s" e
  | Ok o ->
    Alcotest.(check bool) "LP rung skipped" true
      (List.mem D.Solver.Resolve_lp o.D.Solver.skipped);
    Alcotest.(check bool) "greedy backstop attempted" true
      (List.exists
         (fun (a : D.Solver.attempt) -> a.D.Solver.a_rung = D.Solver.Resolve_greedy)
         o.D.Solver.attempts);
    Alcotest.(check bool) "degraded" true o.D.Solver.degraded

let test_breaker_cycle () =
  let b = D.Solver.breaker ~threshold:3 ~base_backoff_s:1.0 ~max_backoff_s:60.0 () in
  let state now = D.Solver.breaker_state_name (D.Solver.breaker_state b ~now) in
  Alcotest.(check string) "starts closed" "closed" (state 0.0);
  D.Solver.note_lp_failure b ~now:0.0;
  D.Solver.note_lp_failure b ~now:0.0;
  Alcotest.(check string) "below threshold stays closed" "closed" (state 0.0);
  D.Solver.note_lp_failure b ~now:0.0;
  Alcotest.(check string) "third failure trips" "open" (state 0.0);
  Alcotest.(check int) "one trip" 1 (D.Solver.breaker_trips b);
  (* Backoff is 1.0 * 2^0 stretched by jitter in [1, 1.5]: still open
     before 1 s, half-open after 1.5 s. *)
  Alcotest.(check string) "still open inside backoff" "open" (state 0.5);
  Alcotest.(check string) "half-open after backoff" "half_open" (state 2.0);
  (* A failed probe goes straight back open with doubled backoff. *)
  D.Solver.note_lp_failure b ~now:2.0;
  Alcotest.(check string) "probe failure re-opens" "open" (state 2.0);
  Alcotest.(check int) "second trip" 2 (D.Solver.breaker_trips b);
  Alcotest.(check string) "doubled backoff still open" "open" (state 3.5);
  Alcotest.(check string) "eventually half-open" "half_open" (state 6.0);
  (* A clean probe closes the breaker and resets the exponent. *)
  D.Solver.note_lp_success b;
  Alcotest.(check string) "success closes" "closed" (state 6.0);
  D.Solver.note_lp_failure b ~now:6.0;
  Alcotest.(check string) "failure count was reset" "closed" (state 6.0)

(* ------------------------------------------------------------------ *)
(* Server end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

type server_handle = {
  h_addr : Dls_obs.Publish.addr;
  h_stop : bool Atomic.t;
  h_thread : Thread.t;
  h_result : (unit, string) result option Atomic.t;
}

let start_server ?(configure = Fun.id) dir state journal =
  let sock = Filename.concat dir "daemon.sock" in
  let addr = Dls_obs.Publish.Unix_sock sock in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let result = Atomic.make None in
  let config =
    configure
      { (D.Server.default_config addr) with
        D.Server.conn_timeout = 5.0; allow_crash = true }
  in
  let thread =
    Thread.create
      (fun () ->
        let r =
          try
            D.Server.serve
              ~should_stop:(fun () -> Atomic.get stop)
              ~on_ready:(fun () -> Atomic.set ready true)
              config state journal
          with exn -> Error (Printexc.to_string exn)
        in
        Atomic.set result (Some r))
      ()
  in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get ready)) && Unix.gettimeofday () -. t0 < 5.0 do
    Thread.yield ()
  done;
  if not (Atomic.get ready) then Alcotest.fail "server did not come up";
  { h_addr = addr; h_stop = stop; h_thread = thread; h_result = result }

let stop_server h =
  Atomic.set h.h_stop true;
  Thread.join h.h_thread

let connect h =
  let path =
    match h.h_addr with
    | Dls_obs.Publish.Unix_sock p -> p
    | _ -> Alcotest.fail "test server is unix-domain"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let request fd req =
  P.write_frame fd (J.to_string (P.request_to_json req));
  let buf = Buffer.create 256 in
  match P.read_frame ~timeout:10.0 ~buf fd with
  | Ok reply -> (
    match J.of_string reply with
    | Ok j -> j
    | Error e -> Alcotest.failf "unparseable reply: %s" e)
  | Error e -> Alcotest.failf "no reply: %s" e

let status j =
  match J.member "status" j with Some (J.Str s) -> s | _ -> "?"

let num_field name j =
  match J.member name j with
  | Some (J.Num v) -> v
  | _ -> Alcotest.failf "missing numeric field %s" name

let test_server_end_to_end () =
  with_dir @@ fun dir ->
  let pf = platform () in
  let wal = Filename.concat dir "wal.jsonl" in
  match D.Journal.open_ ~path:wal ~platform:pf with
  | Error e -> Alcotest.fail e
  | Ok (state, journal) ->
    let h = start_server dir state (Some journal) in
    Fun.protect ~finally:(fun () -> stop_server h; D.Journal.close journal)
    @@ fun () ->
    let fd = connect h in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let r =
      request fd (P.Mutate (P.Register_app { app = "a"; cluster = 0; payoff = 1.0 }))
    in
    Alcotest.(check string) "register ok" "ok" (status r);
    let r =
      request fd (P.Mutate (P.Register_app { app = "a"; cluster = 1; payoff = 1.0 }))
    in
    Alcotest.(check string) "duplicate rejected" "error" (status r);
    let r =
      request fd
        (P.Mutate
           (P.Platform_delta
              [ Faults.Link_degrade { link = 0; factor = 0.5 } ]))
    in
    Alcotest.(check string) "delta ok" "ok" (status r);
    let r =
      request fd
        (P.Get_schedule
           { objective = Dls_core.Lp_relax.Maxmin; budget_ms = Some 5000.0 })
    in
    Alcotest.(check string) "schedule ok" "ok" (status r);
    (match P.schedule_reply_of_json r with
    | Ok sr ->
      Alcotest.(check bool) "some work allocated" true (sr.P.sr_alpha <> [])
    | Error e -> Alcotest.failf "schedule reply: %s" e);
    let r = request fd P.Health in
    Alcotest.(check string) "health ok" "ok" (status r);
    Alcotest.(check (float 0.0)) "two mutations accepted" 2.0
      (num_field "mutations" r);
    Alcotest.(check (float 0.0)) "one rejection counted" 1.0
      (num_field "errors" r);
    Alcotest.(check (float 0.0)) "journal has both" 2.0
      (num_field "wal_entries" r)

let test_server_malformed_input () =
  with_dir @@ fun dir ->
  let state = D.State.create (platform ()) in
  let h = start_server dir state None in
  Fun.protect ~finally:(fun () -> stop_server h) @@ fun () ->
  (* Garbage header: error reply, then the connection is closed. *)
  let fd = connect h in
  let junk = "not-a-length\n{}" in
  ignore (Unix.write_substring fd junk 0 (String.length junk));
  let buf = Buffer.create 64 in
  (match P.read_frame ~timeout:5.0 ~buf fd with
  | Ok reply ->
    Alcotest.(check bool) "error reply" true
      (contains "error" reply)
  | Error e -> Alcotest.failf "expected an error reply, got: %s" e);
  (match P.read_frame ~timeout:5.0 ~buf fd with
  | Error _ -> ()  (* closed *)
  | Ok r -> Alcotest.failf "connection survived garbage: %s" r);
  Unix.close fd;
  (* Valid frame, invalid JSON inside. *)
  let fd = connect h in
  P.write_frame fd "{\"op\":";
  let buf = Buffer.create 64 in
  (match P.read_frame ~timeout:5.0 ~buf fd with
  | Ok reply ->
    Alcotest.(check bool) "error reply" true
      (contains "error" reply)
  | Error e -> Alcotest.failf "expected an error reply, got: %s" e);
  Unix.close fd;
  (* And the server still serves honest clients. *)
  let fd = connect h in
  let r = request fd P.Health in
  Alcotest.(check string) "still alive" "ok" (status r);
  Unix.close fd

let test_server_backpressure_sheds () =
  with_dir @@ fun dir ->
  let state = D.State.create (platform ()) in
  let h =
    start_server
      ~configure:(fun c ->
        { c with D.Server.queue_cap = 2; max_requests_per_tick = 1 })
      dir state None
  in
  Fun.protect ~finally:(fun () -> stop_server h) @@ fun () ->
  let fd = connect h in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* Pipeline a burst bigger than the queue in one write: the server
     reads them all in one wake-up, so at most [queue_cap] can be
     admitted and the rest must be shed with a retry hint. *)
  let n = 10 in
  let burst =
    String.concat ""
      (List.init n (fun _ ->
           P.frame (J.to_string (P.request_to_json P.Health))))
  in
  ignore (Unix.write_substring fd burst 0 (String.length burst));
  let buf = Buffer.create 256 in
  let ok = ref 0 and overloaded = ref 0 in
  for _ = 1 to n do
    match P.read_frame ~timeout:10.0 ~buf fd with
    | Ok reply -> (
      match Result.map status (J.of_string reply) with
      | Ok "ok" -> incr ok
      | Ok "overloaded" -> incr overloaded
      | Ok s -> Alcotest.failf "unexpected status %s" s
      | Error e -> Alcotest.fail e)
    | Error e -> Alcotest.failf "burst reply %s" e
  done;
  Alcotest.(check int) "every request answered" n (!ok + !overloaded);
  Alcotest.(check bool) "some shed" true (!overloaded > 0);
  Alcotest.(check bool) "queue depth honoured" true (!ok <= 2 + n - !overloaded);
  (* Shed is load shedding, not rejection of the client: the same
     connection still works afterwards. *)
  let r = request fd P.Health in
  Alcotest.(check string) "connection survives shedding" "ok" (status r);
  Alcotest.(check bool) "shed counter matches" true
    (num_field "shed" r = float_of_int !overloaded)

let test_server_reaps_slow_clients () =
  with_dir @@ fun dir ->
  let state = D.State.create (platform ()) in
  let h =
    start_server
      ~configure:(fun c -> { c with D.Server.conn_timeout = 0.3 })
      dir state None
  in
  Fun.protect ~finally:(fun () -> stop_server h) @@ fun () ->
  (* A slowloris: half a frame, then silence. *)
  let fd = connect h in
  let partial = "999\n{\"op\"" in
  ignore (Unix.write_substring fd partial 0 (String.length partial));
  Unix.sleepf 1.0;
  (* The server must have closed it... *)
  let buf = Bytes.create 16 in
  (match Unix.read fd buf 0 16 with
  | 0 -> ()
  | n -> Alcotest.failf "expected EOF from reaped connection, got %d bytes" n
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
  Unix.close fd;
  (* ...and still answer a live client, which reports the reap. *)
  let fd = connect h in
  let r = request fd P.Health in
  Alcotest.(check string) "alive after slowloris" "ok" (status r);
  Alcotest.(check bool) "reap accounted" true (num_field "reaped" r >= 1.0);
  Unix.close fd

let test_server_drain_returns () =
  with_dir @@ fun dir ->
  let state = D.State.create (platform ()) in
  let h = start_server dir state None in
  let fd = connect h in
  let r = request fd P.Drain in
  Alcotest.(check string) "drain acknowledged" "ok" (status r);
  Unix.close fd;
  Thread.join h.h_thread;
  match Atomic.get h.h_result with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "drain exit: %s" e
  | None -> Alcotest.fail "no exit result"

let test_server_crash_propagates () =
  with_dir @@ fun dir ->
  let state = D.State.create (platform ()) in
  let h = start_server dir state None in
  let fd = connect h in
  (* No reply is owed: the serving loop dies with Crash_requested, and
     the exception must escape serve (containment is the supervisor's
     contract, not the server's). *)
  P.write_frame fd (J.to_string (P.request_to_json P.Crash));
  Thread.join h.h_thread;
  Unix.close fd;
  match Atomic.get h.h_result with
  | Some (Error e) ->
    Alcotest.(check bool) "crash escaped the loop" true
      (contains "Crash_requested" e)
  | Some (Ok ()) -> Alcotest.fail "crash swallowed"
  | None -> Alcotest.fail "no exit result"

(* Clients that send a get and hang up before the reply is written:
   the server's write then fails with EPIPE.  The default SIGPIPE
   disposition is restored first, so that the test relies on [serve]
   ignoring the signal itself, not on an earlier test having started a
   server; without that, the whole test process would die. *)
let test_server_survives_abandoned_gets () =
  with_dir @@ fun dir ->
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let state = D.State.create (platform ~k:24 ()) in
  for c = 0 to 11 do
    match
      D.State.apply state
        (P.Register_app { app = Printf.sprintf "a%d" c; cluster = 2 * c; payoff = 1.0 })
    with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  let h = start_server dir state None in
  Fun.protect ~finally:(fun () -> stop_server h) @@ fun () ->
  for i = 0 to 9 do
    let fd = connect h in
    let objective =
      if i mod 2 = 0 then Dls_core.Lp_relax.Maxmin else Dls_core.Lp_relax.Sum
    in
    P.write_frame fd
      (J.to_string
         (P.request_to_json (P.Get_schedule { objective; budget_ms = Some 5000.0 })));
    Unix.close fd
  done;
  let fd = connect h in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let r = request fd P.Health in
  Alcotest.(check string) "health after abandoned gets" "ok" (status r);
  Alcotest.(check bool) "server still running" true (Atomic.get h.h_result = None)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let test_supervisor_restarts_from_wal () =
  with_dir @@ fun dir ->
  let pf = platform () in
  let wal = Filename.concat dir "wal.jsonl" in
  let sock = Filename.concat dir "daemon.sock" in
  let addr = Dls_obs.Publish.Unix_sock sock in
  let config =
    { (D.Server.default_config addr) with D.Server.allow_crash = true }
  in
  let loads = ref 0 in
  let load () =
    incr loads;
    Result.map
      (fun (s, j) -> (s, Some j))
      (D.Journal.open_ ~path:wal ~platform:pf)
  in
  let restarts = ref [] in
  let stop = Atomic.make false in
  let result = Atomic.make None in
  let thread =
    Thread.create
      (fun () ->
        Atomic.set result
          (Some
             (D.Supervisor.run
                ~should_stop:(fun () -> Atomic.get stop)
                ~on_restart:(fun _exn n -> restarts := n :: !restarts)
                ~backoff_base_s:0.01 ~sleep:Unix.sleepf config ~load)))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join thread)
  @@ fun () ->
  let rec wait_up tries =
    if tries = 0 then Alcotest.fail "daemon never came up";
    match connect { h_addr = addr; h_stop = stop; h_thread = thread; h_result = result } with
    | fd -> fd
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.05;
      wait_up (tries - 1)
  in
  let fd = wait_up 100 in
  let r =
    request fd (P.Mutate (P.Register_app { app = "a"; cluster = 0; payoff = 1.0 }))
  in
  Alcotest.(check string) "mutation accepted" "ok" (status r);
  (* Crash the serving loop; the supervisor must reload from the WAL
     and come back with the mutation intact. *)
  P.write_frame fd (J.to_string (P.request_to_json P.Crash));
  Unix.close fd;
  let rec wait_back tries =
    if tries = 0 then Alcotest.fail "daemon never came back";
    match
      let fd = wait_up 100 in
      let r = request fd P.Health in
      (fd, r)
    with
    | fd, r ->
      if status r = "ok" && num_field "restarts" r >= 1.0 then (fd, r)
      else begin
        Unix.close fd;
        Unix.sleepf 0.05;
        wait_back (tries - 1)
      end
    | exception _ ->
      Unix.sleepf 0.05;
      wait_back (tries - 1)
  in
  let fd, r = wait_back 100 in
  Alcotest.(check (float 0.0)) "state survived the crash" 1.0
    (num_field "apps" r);
  Alcotest.(check bool) "load ran once per serve epoch" true (!loads >= 2);
  Alcotest.(check bool) "restart callback fired" true (!restarts <> []);
  let r = request fd P.Drain in
  Alcotest.(check string) "drain after restart" "ok" (status r);
  Unix.close fd;
  Thread.join thread;
  match Atomic.get result with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "supervisor exit: %s" e
  | None -> Alcotest.fail "no supervisor result"

let test_supervisor_gives_up () =
  with_dir @@ fun dir ->
  let sock = Filename.concat dir "daemon.sock" in
  let addr = Dls_obs.Publish.Unix_sock sock in
  let config =
    { (D.Server.default_config addr) with D.Server.allow_crash = true }
  in
  (* A load that always succeeds into a server we immediately crash:
     cap the restarts and check the supervisor reports giving up. *)
  let state = D.State.create (platform ()) in
  let crasher = Atomic.make true in
  let stop = Atomic.make false in
  let load () = Ok (state, None) in
  let result = Atomic.make None in
  let thread =
    Thread.create
      (fun () ->
        Atomic.set result
          (Some
             (D.Supervisor.run
                ~should_stop:(fun () -> Atomic.get stop)
                ~max_restarts:2 ~backoff_base_s:0.01 ~sleep:Unix.sleepf config
                ~load)))
      ()
  in
  (* Crash it every time it comes up.  Bounded by time, not by tries:
     connections that land on a server already crashing on an earlier
     request are lost, and a burst of them must not use up the budget
     while the next server is still to come.  Past the deadline the
     supervisor is stopped, so the join below cannot hang. *)
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec crash_loop () =
    if Atomic.get crasher && Atomic.get result = None then
      if Unix.gettimeofday () > deadline then Atomic.set stop true
      else begin
        (match
           let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
           Unix.connect fd (Unix.ADDR_UNIX sock);
           P.write_frame fd (J.to_string (P.request_to_json P.Crash))
         with
        | () -> Unix.sleepf 0.01
        | exception Unix.Unix_error _ -> Unix.sleepf 0.05);
        crash_loop ()
      end
  in
  crash_loop ();
  Thread.join thread;
  match Atomic.get result with
  | Some (Error msg) ->
    Alcotest.(check bool) "gave up after the cap" true
      (contains "giving up" msg)
  | Some (Ok ()) -> Alcotest.fail "supervisor should have given up"
  | None -> Alcotest.fail "no supervisor result"

(* ------------------------------------------------------------------ *)
(* Soak: mixed honest/hostile clients against a live server            *)
(* ------------------------------------------------------------------ *)

let test_soak_mixed_clients () =
  with_dir @@ fun dir ->
  let pf = platform () in
  let wal = Filename.concat dir "wal.jsonl" in
  match D.Journal.open_ ~path:wal ~platform:pf with
  | Error e -> Alcotest.fail e
  | Ok (state, journal) ->
    let h =
      start_server
        ~configure:(fun c ->
          { c with D.Server.queue_cap = 8; conn_timeout = 0.4;
            default_budget_s = 0.25 })
        dir state (Some journal)
    in
    Fun.protect ~finally:(fun () -> stop_server h; D.Journal.close journal)
    @@ fun () ->
    let rng = Prng.create ~seed:99 in
    let num_clusters = Dls_platform.Platform.num_clusters pf in
    let latencies = ref [] in
    let sent_mutations = ref 0 in
    let registered = ref [] in
    let fresh = ref 0 in
    for _round = 1 to 60 do
      match Prng.int rng ~lo:0 ~hi:9 with
      | 0 | 1 ->
        (* Honest mutation: register on a random cluster (may be
           rejected if owned — both outcomes are fine, the server must
           just answer). *)
        let fd = connect h in
        incr fresh;
        let app = Printf.sprintf "soak%d" !fresh in
        let cluster = Prng.int rng ~lo:0 ~hi:(num_clusters - 1) in
        let t0 = Unix.gettimeofday () in
        let r =
          request fd
            (P.Mutate
               (P.Register_app
                  { app; cluster; payoff = Prng.float rng ~lo:0.5 ~hi:2.0 }))
        in
        latencies := (Unix.gettimeofday () -. t0) :: !latencies;
        if status r = "ok" then begin
          incr sent_mutations;
          registered := app :: !registered
        end;
        Unix.close fd
      | 2 -> (
        match !registered with
        | [] -> ()
        | app :: rest ->
          let fd = connect h in
          let t0 = Unix.gettimeofday () in
          let r = request fd (P.Mutate (P.Retire_app { app })) in
          latencies := (Unix.gettimeofday () -. t0) :: !latencies;
          if status r = "ok" then begin
            incr sent_mutations;
            registered := rest
          end;
          Unix.close fd)
      | 3 | 4 ->
        (* Fault plan delta riding along with the client mix. *)
        let fd = connect h in
        let t0 = Unix.gettimeofday () in
        let r =
          request fd
            (P.Mutate
               (P.Platform_delta
                  [ Faults.Link_degrade
                      { link = Prng.int rng ~lo:0 ~hi:(num_clusters - 1);
                        factor = Prng.float rng ~lo:0.2 ~hi:0.9 } ]))
        in
        latencies := (Unix.gettimeofday () -. t0) :: !latencies;
        if status r = "ok" then incr sent_mutations;
        Unix.close fd
      | 5 | 6 ->
        let fd = connect h in
        let t0 = Unix.gettimeofday () in
        let r =
          request fd
            (P.Get_schedule
               { objective = Dls_core.Lp_relax.Maxmin;
                 budget_ms = Some (Prng.float rng ~lo:1.0 ~hi:200.0) })
        in
        latencies := (Unix.gettimeofday () -. t0) :: !latencies;
        Alcotest.(check bool) "schedule answered" true
          (status r = "ok" || status r = "overloaded");
        Unix.close fd
      | 7 ->
        (* Malformed client. *)
        let fd = connect h in
        let junk = "@@@@\n" in
        ignore (Unix.write_substring fd junk 0 (String.length junk));
        let buf = Buffer.create 64 in
        ignore (P.read_frame ~timeout:5.0 ~buf fd);
        Unix.close fd
      | 8 ->
        (* Abandoning client: connects and walks away. *)
        let fd = connect h in
        Unix.close fd
      | _ ->
        (* Slowloris: half a frame and silence; reaped in background. *)
        let fd = connect h in
        let partial = "57\n{\"op\":" in
        ignore (Unix.write_substring fd partial 0 (String.length partial));
        Unix.close fd
    done;
    (* Give the reaper a chance to account for the stragglers. *)
    Unix.sleepf 0.6;
    let fd = connect h in
    let r = request fd P.Health in
    Unix.close fd;
    Alcotest.(check string) "alive after the soak" "ok" (status r);
    Alcotest.(check (float 0.0)) "every accepted mutation journaled"
      (float_of_int !sent_mutations)
      (num_field "wal_entries" r);
    Alcotest.(check (float 0.0)) "no queue residue" 0.0
      (num_field "queue_depth" r);
    let lat = Array.of_list !latencies in
    Array.sort compare lat;
    let p99 = lat.(min (Array.length lat - 1)
                     (int_of_float (0.99 *. float_of_int (Array.length lat)))) in
    Alcotest.(check bool) "p99 latency bounded" true (p99 < 5.0);
    (* Liveness after everything: the journal replays cleanly. *)
    match D.Journal.open_ ~path:wal ~platform:pf with
    | Error e -> Alcotest.failf "post-soak replay: %s" e
    | Ok (state', journal') ->
      D.Journal.close journal';
      Alcotest.(check bool) "post-soak state replays equal" true
        (D.State.equal state state')

(* ------------------------------------------------------------------ *)
(* Resident warm LP: warm-vs-cold equivalence, pivots, breaker carry   *)
(* ------------------------------------------------------------------ *)

module Lp_relax = Dls_core.Lp_relax

let apply_edits h edits =
  List.iter
    (function
      | D.State.Set_speed (c, v) ->
        Lp_relax.Incremental.set_speed h ~cluster:c v
      | D.State.Set_local_bw (c, v) ->
        Lp_relax.Incremental.set_local_bw h ~cluster:c v
      | D.State.Set_link_cap (l, n) ->
        Lp_relax.Incremental.set_max_connect h ~link:l n)
    edits

(* The daemon's resident-handle lifecycle modelled directly against
   Lp_relax: one handle kept across a random mutation-log prefix
   (capacity deltas applied as RHS edits via State.warm_edits,
   structural mutations dropping the handle), checked after EVERY
   mutation against a cold re-solve of the current problem.  The
   relaxation optima must agree to float tolerance. *)
let prop_warm_equals_cold =
  QCheck2.Test.make ~name:"warm-incremental equals cold re-solve" ~count:24
    QCheck2.Gen.(
      triple (int_bound 10_000) (int_range 1 12)
        (oneofl [ Lp_relax.Sum; Lp_relax.Maxmin ]))
    (fun (seed, n, objective) ->
      let pf = platform () in
      let st = D.State.create pf in
      let handle = ref None in
      let solve_warm () =
        let h =
          match !handle with
          | Some h -> h
          | None ->
            let h =
              Lp_relax.Incremental.create ~objective (D.State.problem st)
            in
            handle := Some h;
            h
        in
        match Lp_relax.Incremental.solve h with
        | Lp_relax.Solution s -> s.Lp_relax.objective_value
        | Lp_relax.Failed m -> Alcotest.failf "warm solve failed: %s" m
      in
      let solve_cold () =
        match Lp_relax.solve ~objective (D.State.problem st) with
        | Lp_relax.Solution s -> s.Lp_relax.objective_value
        | Lp_relax.Failed m -> Alcotest.failf "cold solve failed: %s" m
      in
      let close a b =
        Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)
      in
      ignore (solve_warm ());
      let mutations = gen_mutations pf (Prng.create ~seed) n in
      List.for_all
        (fun m ->
          (match D.State.apply st m with
          | Ok () -> ()
          | Error e -> Alcotest.failf "generated mutation rejected: %s" e);
          (match D.State.warm_edits st m with
          | Some edits -> (
            match !handle with Some h -> apply_edits h edits | None -> ())
          | None -> handle := None);
          close (solve_warm ()) (solve_cold ()))
        mutations)

(* Warm re-solves after capacity edits must pay fewer simplex pivots
   than cold solves of the same problems — the whole point of keeping
   the handle resident.  Aggregated over a run of throttle edits so a
   single degenerate case cannot flip the comparison. *)
let test_resident_pivots_warm_lt_cold () =
  let pf = platform ~k:10 () in
  let st = D.State.create pf in
  List.iter
    (fun (app, cluster) ->
      match
        D.State.apply st (P.Register_app { app; cluster; payoff = 1.0 })
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ ("a", 0); ("b", 3); ("c", 6) ];
  let h =
    Lp_relax.Incremental.create ~objective:Lp_relax.Maxmin
      (D.State.problem st)
  in
  (match Lp_relax.Incremental.solve h with
  | Lp_relax.Solution _ -> ()
  | Lp_relax.Failed m -> Alcotest.failf "initial solve: %s" m);
  let sum_warm = ref 0 and sum_cold = ref 0 in
  for i = 1 to 6 do
    let cluster = i mod 10 in
    let m =
      P.Platform_delta
        [ Faults.Cluster_throttle { cluster; factor = 0.8 } ]
    in
    (match D.State.apply st m with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    (match D.State.warm_edits st m with
    | Some edits -> apply_edits h edits
    | None -> Alcotest.fail "throttle must be a warm edit");
    let before = (Lp_relax.Incremental.counters h).Dls_lp.Revised_simplex.pivots in
    (match Lp_relax.Incremental.solve h with
    | Lp_relax.Solution _ -> ()
    | Lp_relax.Failed m -> Alcotest.failf "warm solve: %s" m);
    sum_warm :=
      !sum_warm
      + (Lp_relax.Incremental.counters h).Dls_lp.Revised_simplex.pivots
      - before;
    match Lp_relax.solve ~objective:Lp_relax.Maxmin (D.State.problem st) with
    | Lp_relax.Solution s -> sum_cold := !sum_cold + s.Lp_relax.iterations
    | Lp_relax.Failed m -> Alcotest.failf "cold solve: %s" m
  done;
  Alcotest.(check bool)
    (Printf.sprintf "warm pivots (%d) < cold pivots (%d)" !sum_warm !sum_cold)
    true
    (!sum_warm < !sum_cold)

(* The resident lifecycle through Solver.solve: first solve is a
   rebuild on the cold ladder, later solves take the warm fast path
   (single Resolve-LP attempt, heuristic prelude skipped), capacity
   deltas keep the handle warm and agree with a cold outcome, and
   structural deltas force a rebuild. *)
let test_resident_solver_warm_path () =
  let pf = platform () in
  let st = D.State.create pf in
  List.iter
    (fun m ->
      match D.State.apply st m with Ok () -> () | Error e -> Alcotest.fail e)
    [ P.Register_app { app = "a"; cluster = 0; payoff = 1.0 };
      P.Register_app { app = "b"; cluster = 3; payoff = 2.0 } ];
  let r = D.Solver.resident () in
  let breaker = D.Solver.breaker () in
  let base =
    Dls_core.Allocation.zero (Dls_platform.Platform.num_clusters pf)
  in
  let solve ?resident () =
    match
      D.Solver.solve ?resident ~breaker ~objective:Dls_core.Lp_relax.Maxmin
        ~budget_s:30.0 ~base (D.State.problem st)
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "solve: %s" e
  in
  (* First resident solve: no handle yet, so the cold ladder runs in
     its usual order and the LP rung builds the handle (a rebuild). *)
  let o1 = solve ~resident:r () in
  Alcotest.(check string) "first solve won by LP" "resolve_lp"
    (D.Solver.rung_name o1.D.Solver.rung);
  (match o1.D.Solver.attempts with
  | { D.Solver.a_rung = D.Solver.Rescale; _ } :: _ -> ()
  | _ -> Alcotest.fail "first solve must start at the rescale floor");
  let w, rb, _ = D.Solver.resident_stats r in
  Alcotest.(check (pair int int)) "first solve is a rebuild" (0, 1) (w, rb);
  (* Second solve: the warm fast path — one attempt, prelude skipped,
     not degraded. *)
  let o2 = solve ~resident:r () in
  Alcotest.(check int) "warm fast path: single attempt" 1
    (List.length o2.D.Solver.attempts);
  (match o2.D.Solver.attempts with
  | [ { D.Solver.a_rung = D.Solver.Resolve_lp; _ } ] -> ()
  | _ -> Alcotest.fail "warm fast path must attempt only Resolve_lp");
  Alcotest.(check bool) "prelude reported skipped" true
    (List.mem D.Solver.Rescale o2.D.Solver.skipped
    && List.mem D.Solver.Refine o2.D.Solver.skipped);
  Alcotest.(check bool) "warm fast path not degraded" false
    o2.D.Solver.degraded;
  let w, rb, _ = D.Solver.resident_stats r in
  Alcotest.(check (pair int int)) "second solve is a warm hit" (1, 1) (w, rb);
  (* Capacity deltas (throttle, then a crash) stay warm and match the
     cold solve on the mutated problem. *)
  List.iter
    (fun kinds ->
      let m = P.Platform_delta kinds in
      (match D.State.apply st m with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match D.State.warm_edits st m with
      | Some _ as edits -> D.Solver.resident_apply r edits
      | None -> Alcotest.fail "capacity delta must be warm");
      let ow = solve ~resident:r () in
      let oc = solve () in
      Alcotest.(check bool) "warm allocation feasible" true
        (Dls_core.Allocation.is_feasible (D.State.problem st)
           ow.D.Solver.allocation);
      (* The warm fast path rounds the LP rung only, while the cold
         ladder keeps the best across all rungs — final outcomes agree
         to rounding noise, not bit-exactly (the exact warm=cold claim
         holds at the relaxation level, see the QCheck property). *)
      Alcotest.(check bool)
        (Printf.sprintf "warm objective within 5%% of cold (%g vs %g)"
           ow.D.Solver.objective_value oc.D.Solver.objective_value)
        true
        (Float.abs
           (ow.D.Solver.objective_value -. oc.D.Solver.objective_value)
        <= 0.05 *. Float.max 1.0 oc.D.Solver.objective_value))
    [ [ Faults.Cluster_throttle { cluster = 0; factor = 0.5 } ];
      [ Faults.Cluster_crash 5 ] ];
  let _, rb, edits = D.Solver.resident_stats r in
  Alcotest.(check int) "still one rebuild" 1 rb;
  Alcotest.(check bool) "edits accounted" true (edits >= 3);
  (* A structural delta invalidates; the next solve rebuilds. *)
  let m =
    P.Platform_delta [ Faults.Link_degrade { link = 1; factor = 0.5 } ]
  in
  (match D.State.apply st m with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match D.State.warm_edits st m with
  | None -> D.Solver.resident_apply r None
  | Some _ -> Alcotest.fail "degradation must be structural");
  ignore (solve ~resident:r ());
  let _, rb, _ = D.Solver.resident_stats r in
  Alcotest.(check int) "structural delta forces a rebuild" 2 rb

(* Satellite regression: the circuit breaker's state must carry over a
   resident-handle rebuild.  Drive the breaker Half_open with a fake
   clock, invalidate the resident (the structural-delta path), and
   check the breaker is still Half_open with its trip count intact —
   then let the rebuilt handle's solve act as the half-open probe. *)
let test_breaker_half_open_across_rebuild () =
  let pf = platform () in
  let st = D.State.create pf in
  (match
     D.State.apply st (P.Register_app { app = "a"; cluster = 0; payoff = 1.0 })
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let b =
    D.Solver.breaker ~threshold:1 ~base_backoff_s:1.0 ~max_backoff_s:60.0 ()
  in
  let r = D.Solver.resident () in
  let now = ref 0.0 in
  let clock () = !now in
  let base =
    Dls_core.Allocation.zero (Dls_platform.Platform.num_clusters pf)
  in
  let solve () =
    match
      D.Solver.solve ~now:clock ~resident:r ~breaker:b
        ~objective:Dls_core.Lp_relax.Maxmin ~budget_s:30.0 ~base
        (D.State.problem st)
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "solve: %s" e
  in
  ignore (solve ());  (* builds the handle, closes the breaker *)
  D.Solver.note_lp_failure b ~now:!now;  (* threshold 1: trips open *)
  Alcotest.(check string) "tripped open" "open"
    (D.Solver.breaker_state_name (D.Solver.breaker_state b ~now:!now));
  (* While open, even a live warm handle must not be solved. *)
  let o = solve () in
  Alcotest.(check bool) "open breaker skips the warm fast path" true
    (List.mem D.Solver.Resolve_lp o.D.Solver.skipped);
  Alcotest.(check bool) "degraded while open" true o.D.Solver.degraded;
  (* Backoff is 1.0 stretched by jitter in [1, 1.5]: half-open by 2 s. *)
  now := 2.0;
  Alcotest.(check string) "half-open after backoff" "half_open"
    (D.Solver.breaker_state_name (D.Solver.breaker_state b ~now:!now));
  let trips = D.Solver.breaker_trips b in
  (* THE regression: a resident rebuild must not reset the breaker. *)
  D.Solver.resident_invalidate r;
  Alcotest.(check string) "still half-open across the rebuild" "half_open"
    (D.Solver.breaker_state_name (D.Solver.breaker_state b ~now:!now));
  Alcotest.(check int) "trip count carried over" trips
    (D.Solver.breaker_trips b);
  (* The rebuilt handle's solve is the half-open probe; success closes. *)
  let o = solve () in
  Alcotest.(check string) "probe solved by LP" "resolve_lp"
    (D.Solver.rung_name o.D.Solver.rung);
  Alcotest.(check string) "probe success re-closes" "closed"
    (D.Solver.breaker_state_name (D.Solver.breaker_state b ~now:!now));
  Alcotest.(check int) "no extra trip" trips (D.Solver.breaker_trips b)

(* ------------------------------------------------------------------ *)
(* Batching: same-seq coalescing and stale-seq isolation               *)
(* ------------------------------------------------------------------ *)

let send_burst fd reqs =
  let wire =
    String.concat ""
      (List.map (fun r -> P.frame (J.to_string (P.request_to_json r))) reqs)
  in
  ignore (Unix.write_substring fd wire 0 (String.length wire))

let read_replies fd n =
  let buf = Buffer.create 1024 in
  List.init n (fun i ->
      match P.read_frame ~timeout:10.0 ~buf fd with
      | Ok reply -> (
        match J.of_string reply with
        | Ok j -> j
        | Error e -> Alcotest.failf "unparseable reply %d: %s" i e)
      | Error e -> Alcotest.failf "missing reply %d: %s" i e)

let op_of j = match J.member "op" j with Some (J.Str s) -> s | _ -> "?"

let schedule_of j =
  match P.schedule_reply_of_json j with
  | Ok sr -> sr
  | Error e -> Alcotest.failf "schedule reply: %s" e

let registered_state pf =
  let st = D.State.create pf in
  List.iter
    (fun m ->
      match D.State.apply st m with Ok () -> () | Error e -> Alcotest.fail e)
    [ P.Register_app { app = "a"; cluster = 0; payoff = 1.0 };
      P.Register_app { app = "b"; cluster = 3; payoff = 2.0 } ];
  st

(* N gets pipelined in ONE write land in one tick, form one batch and
   are served by ONE solve whose reply fans out to every waiter. *)
let test_batching_coalesces () =
  List.iter
    (fun workers ->
      with_dir @@ fun dir ->
      let state = registered_state (platform ()) in
      let h =
        start_server
          ~configure:(fun c ->
            { c with D.Server.workers; max_requests_per_tick = 16 })
          dir state None
      in
      Fun.protect ~finally:(fun () -> stop_server h) @@ fun () ->
      let fd = connect h in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let get =
        P.Get_schedule
          { objective = Dls_core.Lp_relax.Maxmin; budget_ms = Some 5000.0 }
      in
      send_burst fd [ get; get; get; get ];
      let replies = read_replies fd 4 in
      let schedules = List.map schedule_of replies in
      (match schedules with
      | first :: rest ->
        List.iteri
          (fun i sr ->
            Alcotest.(check bool)
              (Printf.sprintf "reply %d equals the first (workers=%d)"
                 (i + 1) workers)
              true
              (P.equal_schedule first sr))
          rest
      | [] -> Alcotest.fail "no replies");
      let r = request fd P.Health in
      Alcotest.(check (float 0.0)) "one solve served the batch" 1.0
        (num_field "solves" r);
      Alcotest.(check (float 0.0)) "three requests coalesced" 3.0
        (num_field "coalesced" r);
      Alcotest.(check (float 0.0)) "four schedules delivered" 4.0
        (num_field "schedules" r))
    [ 0; 1 ]

(* A delta arriving mid-burst splits the batch: requests admitted
   before it answer for the old seq (solved against the snapshot taken
   at batch creation), the request after it for the new seq — no
   stale-seq reply ever leaks across. *)
let test_batching_stale_seq_isolation () =
  List.iter
    (fun workers ->
      with_dir @@ fun dir ->
      let state = registered_state (platform ()) in
      let seq0 = D.State.seq state in
      let h =
        start_server
          ~configure:(fun c ->
            { c with D.Server.workers; max_requests_per_tick = 16 })
          dir state None
      in
      Fun.protect ~finally:(fun () -> stop_server h) @@ fun () ->
      let fd = connect h in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let get =
        P.Get_schedule
          { objective = Dls_core.Lp_relax.Maxmin; budget_ms = Some 5000.0 }
      in
      let delta =
        P.Mutate
          (P.Platform_delta
             [ Faults.Cluster_throttle { cluster = 0; factor = 0.5 } ])
      in
      send_burst fd [ get; get; delta; get ];
      let replies = read_replies fd 4 in
      let mutates, scheds =
        List.partition (fun j -> op_of j = "mutate") replies
      in
      Alcotest.(check int) "one mutate reply" 1 (List.length mutates);
      let srs = List.map schedule_of scheds in
      let old_seq, new_seq =
        List.partition (fun sr -> sr.P.sr_seq = seq0) srs
      in
      Alcotest.(check int)
        (Printf.sprintf "two replies at the admit seq (workers=%d)" workers)
        2 (List.length old_seq);
      Alcotest.(check int) "one reply at the post-delta seq" 1
        (List.length new_seq);
      List.iter
        (fun sr ->
          Alcotest.(check int) "post-delta seq value" (seq0 + 1) sr.P.sr_seq)
        new_seq;
      (match old_seq with
      | [ a; b ] ->
        Alcotest.(check bool) "same-batch replies equal" true
          (P.equal_schedule a b)
      | _ -> ());
      let r = request fd P.Health in
      Alcotest.(check (float 0.0)) "two solves: one per seq" 2.0
        (num_field "solves" r);
      Alcotest.(check (float 0.0)) "one coalesced join" 1.0
        (num_field "coalesced" r))
    [ 0; 1 ]

(* With coalescing off, every get pays its own solve. *)
let test_batching_disabled () =
  with_dir @@ fun dir ->
  let state = registered_state (platform ()) in
  let h =
    start_server
      ~configure:(fun c ->
        { c with D.Server.coalesce = false; max_requests_per_tick = 16 })
      dir state None
  in
  Fun.protect ~finally:(fun () -> stop_server h) @@ fun () ->
  let fd = connect h in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let get =
    P.Get_schedule
      { objective = Dls_core.Lp_relax.Maxmin; budget_ms = Some 5000.0 }
  in
  send_burst fd [ get; get ];
  ignore (read_replies fd 2);
  let r = request fd P.Health in
  Alcotest.(check (float 0.0)) "two solves without coalescing" 2.0
    (num_field "solves" r);
  Alcotest.(check (float 0.0)) "nothing coalesced" 0.0
    (num_field "coalesced" r)

(* ------------------------------------------------------------------ *)
(* Worker pool: soak + crash drill at workers in {1, 4}                *)
(* ------------------------------------------------------------------ *)

(* Deterministic client population against a live multi-domain server:
   zero failed requests (no wedged connections), bounded tail latency,
   the warm path actually exercised, and a clean post-load server. *)
let test_worker_soak () =
  List.iter
    (fun workers ->
      with_dir @@ fun dir ->
      let pf = platform () in
      let state = registered_state pf in
      let h =
        start_server
          ~configure:(fun c -> { c with D.Server.workers })
          dir state None
      in
      Fun.protect ~finally:(fun () -> stop_server h) @@ fun () ->
      let stats =
        D.Load.run ~mutate_every:8 ~addr:h.h_addr ~seed:21 ~clients:6
          ~duration_s:1.2
          ~k:(Dls_platform.Platform.num_clusters pf)
          ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "progress under load (workers=%d)" workers)
        true (stats.D.Load.ok > 0);
      Alcotest.(check int) "zero failed requests" 0 stats.D.Load.errors;
      Alcotest.(check bool) "p99 bounded" true (D.Load.p99 stats < 5.0);
      (* Load clients closed their connections; the loop notices on its
         next tick and the server is left quiescent. *)
      Unix.sleepf 0.3;
      let fd = connect h in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let r = request fd P.Health in
      Alcotest.(check (float 0.0)) "no wedged connections" 1.0
        (num_field "conns" r);
      Alcotest.(check (float 0.0)) "queue drained" 0.0
        (num_field "queue_depth" r);
      Alcotest.(check (float 0.0)) "no pending batches" 0.0
        (num_field "pending_batches" r);
      Alcotest.(check (float 0.0)) "no in-flight solves" 0.0
        (num_field "inflight_solves" r);
      Alcotest.(check bool) "warm path exercised" true
        (num_field "warm_hits" r > 0.0);
      Alcotest.(check bool) "solves batched below request count" true
        (num_field "solves" r <= num_field "schedules" r))
    [ 1; 4 ]

(* Crash drill: kill the serving loop mid-load, then prove the WAL
   determinism guarantee survived the worker pool — the journal
   replays to the live state, twice-replayed states agree, and the
   single-threaded cold solve over the replay is byte-identical. *)
let test_worker_crash_drill () =
  List.iter
    (fun workers ->
      with_dir @@ fun dir ->
      let pf = platform () in
      let wal = Filename.concat dir "wal.jsonl" in
      match D.Journal.open_ ~path:wal ~platform:pf with
      | Error e -> Alcotest.fail e
      | Ok (state, journal) ->
        List.iter
          (fun m ->
            match D.State.apply state m with
            | Ok () -> D.Journal.append journal m
            | Error e -> Alcotest.fail e)
          [ P.Register_app { app = "a"; cluster = 0; payoff = 1.0 };
            P.Register_app { app = "b"; cluster = 3; payoff = 2.0 } ];
        let h =
          start_server
            ~configure:(fun c -> { c with D.Server.workers })
            dir state (Some journal)
        in
        let crasher =
          Thread.create
            (fun () ->
              Thread.delay 0.7;
              match connect h with
              | fd ->
                (try
                   P.write_frame fd (J.to_string (P.request_to_json P.Crash))
                 with _ -> ());
                (try Unix.close fd with _ -> ())
              | exception _ -> ())
            ()
        in
        let _stats =
          D.Load.run ~mutate_every:4 ~addr:h.h_addr ~seed:7 ~clients:4
            ~duration_s:1.0
            ~k:(Dls_platform.Platform.num_clusters pf)
            ()
        in
        Thread.join crasher;
        Thread.join h.h_thread;
        (match Atomic.get h.h_result with
        | Some (Error e) ->
          Alcotest.(check bool) "died by crash request" true
            (contains "Crash_requested" e)
        | _ -> Alcotest.fail "server should have crashed");
        D.Journal.close journal;
        let reopen () =
          match D.Journal.open_ ~path:wal ~platform:pf with
          | Error e -> Alcotest.failf "replay: %s" e
          | Ok (st, j) ->
            D.Journal.close j;
            st
        in
        let st1 = reopen () in
        let st2 = reopen () in
        Alcotest.(check bool) "replay equals the live state" true
          (D.State.equal state st1);
        Alcotest.(check bool) "replay is deterministic" true
          (D.State.equal st1 st2);
        (* Single-threaded cold path over the replayed log: same
           mutation log => byte-identical schedules. *)
        let solve st =
          let breaker = D.Solver.breaker () in
          match
            D.Solver.solve ~breaker ~objective:Dls_core.Lp_relax.Maxmin
              ~budget_s:30.0
              ~base:
                (Dls_core.Allocation.zero
                   (Dls_platform.Platform.num_clusters pf))
              (D.State.problem st)
          with
          | Ok o -> o
          | Error e -> Alcotest.failf "solve: %s" e
        in
        let o1 = solve st1 and o2 = solve st2 in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "identical objective (workers=%d)" workers)
          o1.D.Solver.objective_value o2.D.Solver.objective_value;
        Alcotest.(check bool) "identical allocation" true
          (o1.D.Solver.allocation.Dls_core.Allocation.alpha
           = o2.D.Solver.allocation.Dls_core.Allocation.alpha
          && o1.D.Solver.allocation.Dls_core.Allocation.beta
             = o2.D.Solver.allocation.Dls_core.Allocation.beta))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dls_daemon"
    [ ( "framing",
        [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "incomplete and bad" `Quick
            test_frame_incomplete_and_bad ] );
      qsuite "framing-prop" [ prop_frame_roundtrip; prop_frame_prefix_incomplete ];
      ( "codec",
        [ Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "rejects junk" `Quick test_request_rejects_junk;
          Alcotest.test_case "schedule reply roundtrip" `Quick
            test_schedule_reply_roundtrip ] );
      ( "state",
        [ Alcotest.test_case "apply validation" `Quick
            test_state_apply_validation;
          Alcotest.test_case "problem payoffs" `Quick test_state_problem_payoffs ] );
      ( "journal",
        [ Alcotest.test_case "reopen restores state" `Quick
            test_journal_reopen_restores_state;
          Alcotest.test_case "manifest written at open" `Quick
            test_journal_manifest_written_at_open;
          Alcotest.test_case "foreign platform rejected" `Quick
            test_journal_rejects_foreign_platform;
          Alcotest.test_case "corrupt middle rejected" `Quick
            test_journal_rejects_corrupt_middle;
          Alcotest.test_case "schedule equivalence across reopen" `Slow
            test_journal_schedule_equivalence ] );
      qsuite "journal-prop" [ prop_wal_prefix_replays ];
      ( "solver",
        [ Alcotest.test_case "zero budget degrades" `Quick
            test_solver_zero_budget_degrades;
          Alcotest.test_case "full budget resolves" `Slow
            test_solver_full_budget_resolves;
          Alcotest.test_case "open breaker skips LP" `Slow
            test_solver_breaker_open_skips_lp;
          Alcotest.test_case "breaker cycle" `Quick test_breaker_cycle ] );
      ( "server",
        [ Alcotest.test_case "end to end" `Slow test_server_end_to_end;
          Alcotest.test_case "malformed input" `Quick test_server_malformed_input;
          Alcotest.test_case "backpressure sheds" `Quick
            test_server_backpressure_sheds;
          Alcotest.test_case "reaps slow clients" `Quick
            test_server_reaps_slow_clients;
          Alcotest.test_case "drain returns" `Quick test_server_drain_returns;
          Alcotest.test_case "survives abandoned gets" `Quick
            test_server_survives_abandoned_gets;
          Alcotest.test_case "crash propagates" `Quick
            test_server_crash_propagates ] );
      ( "supervisor",
        [ Alcotest.test_case "restarts from WAL" `Slow
            test_supervisor_restarts_from_wal;
          Alcotest.test_case "gives up at the cap" `Quick
            test_supervisor_gives_up ] );
      ("soak", [ Alcotest.test_case "mixed clients" `Slow test_soak_mixed_clients ]);
      qsuite "resident-prop" [ prop_warm_equals_cold ];
      ( "resident",
        [ Alcotest.test_case "warm pivots below cold" `Slow
            test_resident_pivots_warm_lt_cold;
          Alcotest.test_case "solver warm fast path" `Slow
            test_resident_solver_warm_path;
          Alcotest.test_case "breaker half-open across rebuild" `Slow
            test_breaker_half_open_across_rebuild ] );
      ( "batching",
        [ Alcotest.test_case "same-seq burst coalesces" `Slow
            test_batching_coalesces;
          Alcotest.test_case "mid-batch delta isolates seqs" `Slow
            test_batching_stale_seq_isolation;
          Alcotest.test_case "disabled coalescing solves per request" `Slow
            test_batching_disabled ] );
      ( "workers",
        [ Alcotest.test_case "soak at 1 and 4 workers" `Slow test_worker_soak;
          Alcotest.test_case "crash drill replays deterministically" `Slow
            test_worker_crash_drill ] ) ]
