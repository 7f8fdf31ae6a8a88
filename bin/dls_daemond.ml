(* Long-running allocation daemon plus a scriptable client.

   [serve] supervises the event-loop server over a WAL-backed state:
   kill -9 it mid-run and the next [serve] replays the journal back to
   the exact accepted state.  [client] speaks one framed-JSON request
   per invocation — enough for the CI smoke scripts and shell
   experiments without a second tool. *)

open Cmdliner
module J = Dls_util.Json
module D = Dls_daemon

let addr_arg =
  let doc = "Listen/connect address: PORT, HOST:PORT or unix:PATH." in
  Arg.(required & opt (some Obs_cli.addr_conv) None & info [ "addr" ] ~docv:"ADDR" ~doc)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let load_platform platform_file gen_k gen_seed =
  match platform_file with
  | Some path -> Dls_platform.Platform_io.load ~path
  | None ->
    let params = { Dls_platform.Generator.default_params with k = gen_k } in
    Ok
      (Dls_platform.Generator.generate
         (Dls_util.Prng.create ~seed:gen_seed)
         params)

let serve_cmd =
  let platform_arg =
    Arg.(value & opt (some string) None
         & info [ "platform" ] ~docv:"FILE"
             ~doc:"Nominal platform file ($(b,dls_solve --dump-platform) \
                   format).  Default: generate one with --gen-k/--gen-seed.")
  in
  let gen_k_arg =
    Arg.(value & opt int 8
         & info [ "gen-k" ] ~docv:"K"
             ~doc:"Clusters of the generated platform (no --platform).")
  in
  let gen_seed_arg =
    Arg.(value & opt int 0
         & info [ "gen-seed" ] ~docv:"SEED"
             ~doc:"Seed of the generated platform (no --platform).")
  in
  let wal_arg =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"FILE"
             ~doc:"Write-ahead log: accepted mutations are appended (and \
                   fsynced) here before they are acknowledged, and replayed \
                   on startup — kill -9 and restart lands in the exact \
                   pre-crash state.  Without it the daemon is in-memory \
                   only.")
  in
  let queue_cap_arg =
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Bounded request queue; beyond it requests are answered \
                   $(b,overloaded) with a retry_after_ms hint.")
  in
  let max_conns_arg =
    Arg.(value & opt int 64
         & info [ "max-conns" ] ~docv:"N" ~doc:"Connection cap.")
  in
  let conn_timeout_arg =
    Arg.(value & opt float 10.0
         & info [ "conn-timeout" ] ~docv:"SECS"
             ~doc:"Idle-connection reap threshold (the slowloris bound).")
  in
  let budget_arg =
    Arg.(value & opt float 500.0
         & info [ "budget-ms" ] ~docv:"MS"
             ~doc:"Default per-request solve budget for get_schedule \
                   requests that carry none.")
  in
  let breaker_threshold_arg =
    Arg.(value & opt int 3
         & info [ "breaker-threshold" ] ~docv:"N"
             ~doc:"Consecutive LP deadline blowouts before the circuit \
                   breaker opens and re-solves are skipped.")
  in
  let breaker_backoff_arg =
    Arg.(value & opt float 1.0
         & info [ "breaker-backoff" ] ~docv:"SECS"
             ~doc:"First breaker-open interval; doubles per re-open, \
                   jittered.")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Seed of the breaker/backoff jitter streams.")
  in
  let max_restarts_arg =
    Arg.(value & opt int 100
         & info [ "max-restarts" ] ~docv:"N"
             ~doc:"Supervisor gives up after this many serving-loop crashes.")
  in
  let allow_crash_arg =
    Arg.(value & flag
         & info [ "allow-crash" ]
             ~doc:"Honour the $(b,crash) request (tests/CI only): raises in \
                   the serving loop so the supervisor restart path can be \
                   exercised from a script.")
  in
  let workers_arg =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Solver worker domains behind the event loop; 0 \
                   (default) solves inline on the loop.")
  in
  let no_resident_arg =
    Arg.(value & flag
         & info [ "no-resident" ]
             ~doc:"Disable the resident warm-LP handles: every \
                   Resolve-LP rung re-encodes and cold-solves (the \
                   pre-batching baseline; used by the load benchmark).")
  in
  let no_coalesce_arg =
    Arg.(value & flag
         & info [ "no-coalesce" ]
             ~doc:"Disable request batching: every get_schedule gets \
                   its own solve even when concurrent requests target \
                   the same state seq.")
  in
  let run addr platform_file gen_k gen_seed wal queue_cap max_conns
      conn_timeout budget_ms breaker_threshold breaker_backoff seed
      max_restarts allow_crash workers no_resident no_coalesce obs =
    Obs_cli.configure obs;
    at_exit Dls_obs.Obs.finalize;
    match load_platform platform_file gen_k gen_seed with
    | Error msg ->
      Format.eprintf "dls_daemond: %s@." msg;
      exit 2
    | Ok platform ->
      let config =
        {
          (D.Server.default_config addr) with
          queue_cap;
          max_conns;
          conn_timeout;
          default_budget_s = budget_ms /. 1000.0;
          breaker_threshold;
          breaker_base_backoff_s = breaker_backoff;
          seed;
          allow_crash;
          workers;
          resident = not no_resident;
          coalesce = not no_coalesce;
        }
      in
      let load () =
        match wal with
        | None -> Ok (D.State.create platform, None)
        | Some path ->
          Result.map
            (fun (state, journal) -> (state, Some journal))
            (D.Journal.open_ ~path ~platform)
      in
      (* Each supervisor restart opens a fresh Obs epoch so sinks are
         reattached exactly as a process restart would. *)
      let on_restart _exn _n =
        Dls_obs.Obs.finalize ();
        Obs_cli.configure obs
      in
      (match
         D.Supervisor.run ~on_restart ~max_restarts config ~load
       with
      | Ok () -> ()
      | Error msg ->
        Format.eprintf "dls_daemond: %s@." msg;
        exit 1)
  in
  let doc = "run the supervised allocation daemon" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(const run $ addr_arg $ platform_arg $ gen_k_arg $ gen_seed_arg
          $ wal_arg $ queue_cap_arg $ max_conns_arg $ conn_timeout_arg
          $ budget_arg $ breaker_threshold_arg $ breaker_backoff_arg
          $ seed_arg $ max_restarts_arg $ allow_crash_arg $ workers_arg
          $ no_resident_arg $ no_coalesce_arg $ Obs_cli.term)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let connect addr =
  match addr with
  | Dls_obs.Publish.Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | Dls_obs.Publish.Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
        | _ -> failwith ("cannot resolve " ^ host))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (ip, port));
    fd

let parse_request op op_args objective budget_ms =
  let module P = D.Protocol in
  match (op, op_args) with
  | "register", [ app; cluster; payoff ] -> (
    match (int_of_string_opt cluster, float_of_string_opt payoff) with
    | Some cluster, Some payoff ->
      Ok (P.Mutate (P.Register_app { app; cluster; payoff }))
    | _ -> Error "register: usage APP CLUSTER PAYOFF")
  | "register", _ -> Error "register: usage APP CLUSTER PAYOFF"
  | "retire", [ app ] -> Ok (P.Mutate (P.Retire_app { app }))
  | "retire", _ -> Error "retire: usage APP"
  | "delta", [ json ] ->
    Result.bind (J.of_string json) (fun j ->
        match j with
        | J.Arr kinds ->
          Result.map
            (fun ks -> P.Mutate (P.Platform_delta ks))
            (List.fold_left
               (fun acc k ->
                 Result.bind acc (fun ks ->
                     Result.map
                       (fun k -> k :: ks)
                       (Dls_flowsim.Faults.kind_of_json k)))
               (Ok []) (List.rev kinds))
        | _ -> Error "delta: expected a JSON array of fault events")
  | "delta", _ -> Error "delta: usage '[{\"fault\":...},...]'"
  | "get", [] ->
    let objective =
      match objective with
      | "sum" -> Dls_core.Lp_relax.Sum
      | _ -> Dls_core.Lp_relax.Maxmin
    in
    Ok (P.Get_schedule { objective; budget_ms })
  | "get", _ -> Error "get: takes no positional arguments"
  | "health", [] -> Ok P.Health
  | "health", _ -> Error "health: takes no positional arguments"
  | "drain", [] -> Ok P.Drain
  | "drain", _ -> Error "drain: takes no positional arguments"
  | "crash", [] -> Ok P.Crash
  | "crash", _ -> Error "crash: takes no positional arguments"
  | op, _ -> Error (Printf.sprintf "unknown op %S" op)

let client_cmd =
  let op_arg =
    let doc =
      "Request: $(b,register) APP CLUSTER PAYOFF, $(b,retire) APP, \
       $(b,delta) FAULTS-JSON, $(b,get), $(b,health), $(b,drain) or \
       $(b,crash)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let op_args_arg =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS")
  in
  let objective_arg =
    Arg.(value & opt string "maxmin"
         & info [ "objective" ] ~docv:"OBJ"
             ~doc:"get: LP objective, sum or maxmin.")
  in
  let budget_arg =
    Arg.(value & opt (some float) None
         & info [ "budget-ms" ] ~docv:"MS"
             ~doc:"get: per-request solve deadline.")
  in
  let timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~docv:"SECS" ~doc:"Reply timeout.")
  in
  let linger_arg =
    Arg.(value & opt (some float) None
         & info [ "linger" ] ~docv:"SECS"
             ~doc:"Misbehave on purpose: send only half of the request \
                   frame, hold the connection open for $(docv) seconds, \
                   then exit without finishing — the slow-client probe the \
                   CI soak uses to check the server reaps rather than \
                   wedges.")
  in
  let run addr op op_args objective budget_ms timeout linger =
    match parse_request op op_args objective budget_ms with
    | Error msg ->
      Format.eprintf "dls_daemond client: %s@." msg;
      exit 2
    | Ok req -> (
      let payload = J.to_string (D.Protocol.request_to_json req) in
      match connect addr with
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "dls_daemond client: cannot connect to %s: %s@."
          (Dls_obs.Publish.addr_to_string addr)
          (Unix.error_message e);
        exit 1
      | fd -> (
        match linger with
        | Some secs ->
          (* Half a frame, then stall: from the server's side this is a
             slowloris client that must be reaped, never waited on. *)
          let framed = D.Protocol.frame payload in
          let half = String.length framed / 2 in
          let _ = Unix.write_substring fd framed 0 half in
          Unix.sleepf secs;
          Unix.close fd
        | None -> (
          D.Protocol.write_frame fd payload;
          let buf = Buffer.create 256 in
          match D.Protocol.read_frame ~timeout ~buf fd with
          | Ok reply ->
            print_endline reply;
            Unix.close fd;
            let ok =
              match
                Result.bind (J.of_string reply) (fun j ->
                    match J.member "status" j with
                    | Some (J.Str s) -> Ok s
                    | _ -> Error "no status")
              with
              | Ok "ok" -> true
              | _ -> false
            in
            if not ok then exit 3
          | Error msg ->
            Format.eprintf "dls_daemond client: %s@." msg;
            Unix.close fd;
            exit 1)))
  in
  let doc = "send one framed-JSON request to a running daemon" in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(const run $ addr_arg $ op_arg $ op_args_arg $ objective_arg
          $ budget_arg $ timeout_arg $ linger_arg)

let () =
  let doc = "fault-tolerant divisible-load allocation daemon" in
  let info = Cmd.info "dls_daemond" ~version:"%%VERSION%%" ~doc in
  exit (Cmd.eval (Cmd.group info [ serve_cmd; client_cmd ]))
