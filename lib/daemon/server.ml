module J = Dls_util.Json
module Allocation = Dls_core.Allocation
module M = Dls_obs.Metrics
module Olog = Dls_obs.Log
module Flight = Dls_obs.Flight

exception Crash_requested

type config = {
  addr : Dls_obs.Publish.addr;
  queue_cap : int;
  max_conns : int;
  conn_timeout : float;
  default_budget_s : float;
  max_requests_per_tick : int;
  breaker_threshold : int;
  breaker_base_backoff_s : float;
  seed : int;
  allow_crash : bool;
  workers : int;  (* solver domains; 0 = solve on the event loop *)
  resident : bool;  (* keep warm LP handles across requests *)
  coalesce : bool;  (* batch same-seq get_schedule requests *)
}

let default_config addr =
  {
    addr;
    queue_cap = 64;
    max_conns = 64;
    conn_timeout = 10.0;
    default_budget_s = 0.5;
    max_requests_per_tick = 8;
    breaker_threshold = 3;
    breaker_base_backoff_s = 1.0;
    seed = 0;
    allow_crash = false;
    workers = 0;
    resident = true;
    coalesce = true;
  }

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;  (* pending outbound bytes *)
  mutable last : float;  (* last successful read/write, for the reaper *)
  mutable closing : bool;  (* close once [out] is flushed *)
  mutable alive : bool;
}

type stats = {
  mutable requests : int;
  mutable mutations : int;
  mutable schedules : int;
  mutable shed : int;
  mutable degraded : int;
  mutable reaped : int;
  mutable errors : int;
  mutable conns_shed : int;
  mutable solves : int;  (* ladder solves actually executed *)
  mutable coalesced : int;  (* get_schedule requests that joined a batch *)
}

(* A batch is one solve serving every get_schedule request admitted at
   the same state seq (and objective).  The problem is snapshotted at
   batch creation so a delta arriving before the batch is dispatched
   cannot leak into it: the batch still answers for the state its
   waiters asked about, stamped with [b_seq]. *)
type batch = {
  b_seq : int;
  b_objective : Dls_core.Lp_relax.objective;
  b_problem : Dls_core.Problem.t;
  mutable b_budget_s : float;  (* max budget among waiters *)
  mutable b_waiters : (conn * float) list;  (* (conn, admit time), newest first *)
}

type job =
  | J_edit of State.capacity_edit list option
      (* resident update for one accepted mutation; pinned to worker 0 *)
  | J_solve of {
      batch : batch;
      warm : bool;  (* solve from the resident handle (pinned) *)
      budget_s : float;
      base : Allocation.t;
    }

type job_result =
  | R_edit
  | R_solve of batch * bool (* pinned *) * (Solver.outcome, string) result

(* Registry mirrors of [stats] — health replies read the local ints
   (always live), the registry exposes the same counts through
   --telemetry/--metrics when enabled. *)
let m_requests = M.counter "daemon.requests"
let m_mutations = M.counter "daemon.mutations"
let m_schedules = M.counter "daemon.schedules"
let m_shed = M.counter "daemon.shed"
let m_degraded = M.counter "daemon.degraded"
let m_reaped = M.counter "daemon.reaped"
let m_errors = M.counter "daemon.errors"
let m_conns_shed = M.counter "daemon.conns.shed"
let m_queue_depth = M.gauge "daemon.queue.depth"
let m_conns = M.gauge "daemon.conns"
let m_request_s = M.histogram "daemon.request.seconds"
let m_solves = M.counter "daemon.solves"
let m_coalesced = M.counter "daemon.coalesced"

let validate config =
  if config.queue_cap < 1 then Error "daemon: queue_cap must be >= 1"
  else if config.max_conns < 1 then Error "daemon: max_conns must be >= 1"
  else if not (config.conn_timeout > 0.0) then
    Error "daemon: conn_timeout must be > 0"
  else if not (config.default_budget_s >= 0.0) then
    Error "daemon: default_budget_s must be >= 0"
  else if config.max_requests_per_tick < 1 then
    Error "daemon: max_requests_per_tick must be >= 1"
  else if config.workers < 0 || config.workers > 128 then
    Error "daemon: workers must be in [0, 128]"
  else Ok ()

let bind_listen addr =
  match addr with
  | Dls_obs.Publish.Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
        | _ -> raise (Unix.Unix_error (Unix.EINVAL, "getaddrinfo", host)))
    in
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt s Unix.SO_REUSEADDR true;
    Unix.bind s (Unix.ADDR_INET (ip, port));
    (s, fun () -> ())
  | Dls_obs.Publish.Unix_sock path ->
    (* A previous crash leaves the socket file behind; rebinding over it
       is the restart path. *)
    if Sys.file_exists path then Sys.remove path;
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_UNIX path);
    (s, fun () -> try Sys.remove path with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

let send conn j =
  if conn.alive then conn.out <- conn.out ^ Protocol.frame (J.to_string j)

let ok_fields op fields = J.Obj (("status", J.Str "ok") :: ("op", J.Str op) :: fields)

let error_reply msg = J.Obj [ ("status", J.Str "error"); ("error", J.Str msg) ]

let overloaded_reply ~retry_after_ms =
  J.Obj
    [ ("status", J.Str "overloaded"); ("retry_after_ms", J.Num retry_after_ms) ]

let schedule_entries alloc =
  let kk = Array.length alloc.Allocation.alpha in
  let alpha = ref [] and beta = ref [] in
  for k = kk - 1 downto 0 do
    for l = kk - 1 downto 0 do
      if alloc.Allocation.alpha.(k).(l) > 0.0 then
        alpha := (k, l, alloc.Allocation.alpha.(k).(l)) :: !alpha;
      if alloc.Allocation.beta.(k).(l) > 0 then
        beta := (k, l, alloc.Allocation.beta.(k).(l)) :: !beta
    done
  done;
  (!alpha, !beta)

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

let serve ?(should_stop = fun () -> false) ?(on_ready = fun () -> ())
    ?(restarts = 0) config state journal =
  match validate config with
  | Error _ as e -> e
  | Ok () ->
    (* A peer that closes before its reply is written must surface as
       EPIPE in [do_write], not kill the process. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let listen_fd, cleanup =
      try
        let fd, cleanup = bind_listen config.addr in
        Unix.listen fd 16;
        Unix.set_nonblock fd;
        (fd, cleanup)
      with Unix.Unix_error (e, fn, arg) ->
        raise
          (Failure
             (Printf.sprintf "daemon: cannot listen on %s: %s(%s): %s"
                (Dls_obs.Publish.addr_to_string config.addr)
                fn arg (Unix.error_message e)))
    in
    let breaker =
      Solver.breaker ~threshold:config.breaker_threshold
        ~base_backoff_s:config.breaker_base_backoff_s ~seed:config.seed ()
    in
    let stats =
      { requests = 0; mutations = 0; schedules = 0; shed = 0; degraded = 0;
        reaped = 0; errors = 0; conns_shed = 0; solves = 0; coalesced = 0 }
    in
    let conns : conn list ref = ref [] in
    let queue : (conn * Protocol.request) Queue.t = Queue.create () in
    let t_start = Unix.gettimeofday () in
    let accepting = ref true in
    let draining = ref false in
    let running = ref true in
    (* Cached last-good allocation, stamped with the seq it was computed
       against: the warm base the rescale/refine rungs repair.  Kept
       across platform deltas (that is the repair scenario), dropped
       when the application set changes (the cached matrix may ship
       work for a retired application).  The stamp keeps a slow stale
       batch from clobbering a fresher result. *)
    let cached : (int * Allocation.t) option ref = ref None in
    (* Resident warm LP handles.  With workers, the resident is owned
       by worker 0 and every edit/warm-solve reaches it through the
       pool's pinned FIFO; inline, the event loop owns it. *)
    let resident =
      if config.resident then Some (Solver.resident ()) else None
    in
    (* Batching: one pending batch per (state seq, objective) collects
       every same-seq get_schedule until it is dispatched; its one
       solve fans out to all waiters.  A waiter can only join a batch
       that has not been dispatched yet — once a job is submitted, its
       batch record crosses a domain boundary and only the event loop
       keeps touching the waiter list, which the worker never reads. *)
    let pending : batch Queue.t = Queue.create () in
    let in_flight = ref 0 in
    let pinned_in_flight = ref 0 in
    let run ~worker:_ job =
      match job with
      | J_edit e ->
        (match resident with
        | Some r -> Solver.resident_apply r e
        | None -> ());
        R_edit
      | J_solve { batch; warm; budget_s; base } ->
        let res =
          try
            Solver.solve
              ?resident:(if warm then resident else None)
              ~breaker ~objective:batch.b_objective ~budget_s ~base
              batch.b_problem
          with exn -> Error ("solve: " ^ Printexc.to_string exn)
        in
        R_solve (batch, warm, res)
    in
    let pool =
      if config.workers > 0 then Some (Pool.create ~workers:config.workers ~run)
      else None
    in
    let close_conn c =
      if c.alive then begin
        c.alive <- false;
        conns := List.filter (fun c' -> c' != c) !conns;
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      end
    in
    (* Deliver one finished batch solve to every still-live waiter. *)
    let complete_batch b result =
      let now = Unix.gettimeofday () in
      let waiters = List.rev b.b_waiters in
      stats.solves <- stats.solves + 1;
      M.incr m_solves;
      match result with
      | Ok outcome ->
        (match !cached with
        | Some (s, _) when s > b.b_seq -> ()
        | _ -> cached := Some (b.b_seq, outcome.Solver.allocation));
        let alpha, beta = schedule_entries outcome.Solver.allocation in
        let sr =
          {
            Protocol.sr_seq = b.b_seq;
            sr_objective = outcome.Solver.objective_value;
            sr_rung = Solver.rung_name outcome.Solver.rung;
            sr_degraded = outcome.Solver.degraded;
            sr_breaker =
              Solver.breaker_state_name (Solver.breaker_state breaker ~now);
            sr_alpha = alpha;
            sr_beta = beta;
          }
        in
        let attempts =
          J.Arr
            (List.map
               (fun (a : Solver.attempt) ->
                 J.Obj
                   [ ("rung", J.Str (Solver.rung_name a.Solver.a_rung));
                     ("seconds", J.Num a.Solver.a_seconds);
                     ("within_budget", J.Bool a.Solver.a_within_budget);
                     ("feasible", J.Bool a.Solver.a_feasible);
                     ("objective", J.Num a.Solver.a_objective) ])
               outcome.Solver.attempts)
        in
        let skipped =
          J.Arr
            (List.map
               (fun r -> J.Str (Solver.rung_name r))
               outcome.Solver.skipped)
        in
        let reply =
          match Protocol.schedule_reply_to_json sr with
          | J.Obj fields ->
            ok_fields "get_schedule"
              (fields @ [ ("attempts", attempts); ("skipped", skipped) ])
          | j -> j
        in
        List.iter
          (fun (c, t0) ->
            if c.alive then begin
              stats.schedules <- stats.schedules + 1;
              M.incr m_schedules;
              if outcome.Solver.degraded then begin
                stats.degraded <- stats.degraded + 1;
                M.incr m_degraded
              end;
              send c reply;
              M.observe m_request_s (now -. t0)
            end)
          waiters
      | Error msg ->
        List.iter
          (fun (c, t0) ->
            if c.alive then begin
              stats.errors <- stats.errors + 1;
              M.incr m_errors;
              send c (error_reply msg);
              M.observe m_request_s (now -. t0)
            end)
          waiters
    in
    let handle_request c req =
      let t0 = Unix.gettimeofday () in
      stats.requests <- stats.requests + 1;
      M.incr m_requests;
      (match req with
      | Protocol.Mutate m -> (
        match State.apply state m with
        | Ok () ->
          Option.iter (fun j -> Journal.append j m) journal;
          (match m with
          | Protocol.Register_app _ | Protocol.Retire_app _ -> cached := None
          | Protocol.Platform_delta _ -> ());
          (* Keep the resident handles in step with the state: capacity
             deltas become RHS edits, structural mutations invalidate.
             With workers this goes through the pinned FIFO, so edits
             and warm solves reach worker 0 in mutation order. *)
          (match resident with
          | None -> ()
          | Some r -> (
            let edits = State.warm_edits state m in
            match pool with
            | Some p -> Pool.submit ~pinned:true p (J_edit edits)
            | None -> Solver.resident_apply r edits));
          stats.mutations <- stats.mutations + 1;
          M.incr m_mutations;
          send c
            (ok_fields "mutate"
               [ ("seq", J.Num (float_of_int (State.seq state))) ])
        | Error msg ->
          stats.errors <- stats.errors + 1;
          M.incr m_errors;
          send c (error_reply msg))
      | Protocol.Get_schedule { objective; budget_ms } ->
        let budget_s =
          match budget_ms with
          | Some ms -> ms /. 1000.0
          | None -> config.default_budget_s
        in
        let seq = State.seq state in
        let joined =
          config.coalesce
          && Queue.fold
               (fun hit b ->
                 hit
                 ||
                 if b.b_seq = seq && b.b_objective = objective then begin
                   b.b_budget_s <- Float.max b.b_budget_s budget_s;
                   b.b_waiters <- (c, t0) :: b.b_waiters;
                   stats.coalesced <- stats.coalesced + 1;
                   M.incr m_coalesced;
                   true
                 end
                 else false)
               false pending
        in
        if not joined then
          Queue.push
            {
              b_seq = seq;
              b_objective = objective;
              b_problem = State.problem state;
              b_budget_s = budget_s;
              b_waiters = [ (c, t0) ];
            }
            pending
      | Protocol.Health ->
        send c
          (ok_fields "health"
             [ ("uptime_s", J.Num (Unix.gettimeofday () -. t_start));
               ("apps", J.Num (float_of_int (List.length (State.apps state))));
               ( "deltas",
                 J.Num (float_of_int (List.length (State.deltas state))) );
               ( "wal_entries",
                 J.Num
                   (float_of_int
                      (match journal with
                      | Some j -> Journal.entries j
                      | None -> 0)) );
               ("queue_depth", J.Num (float_of_int (Queue.length queue)));
               ("queue_cap", J.Num (float_of_int config.queue_cap));
               ("conns", J.Num (float_of_int (List.length !conns)));
               ("requests", J.Num (float_of_int stats.requests));
               ("mutations", J.Num (float_of_int stats.mutations));
               ("schedules", J.Num (float_of_int stats.schedules));
               ("shed", J.Num (float_of_int stats.shed));
               ("degraded", J.Num (float_of_int stats.degraded));
               ("reaped", J.Num (float_of_int stats.reaped));
               ("errors", J.Num (float_of_int stats.errors));
               ("conns_shed", J.Num (float_of_int stats.conns_shed));
               ("solves", J.Num (float_of_int stats.solves));
               ("coalesced", J.Num (float_of_int stats.coalesced));
               ("workers", J.Num (float_of_int config.workers));
               ("pending_batches", J.Num (float_of_int (Queue.length pending)));
               ("inflight_solves", J.Num (float_of_int !in_flight));
               ( "warm_hits",
                 J.Num
                   (float_of_int
                      (match resident with
                      | Some r ->
                        let w, _, _ = Solver.resident_stats r in
                        w
                      | None -> 0)) );
               ( "rebuilds",
                 J.Num
                   (float_of_int
                      (match resident with
                      | Some r ->
                        let _, rb, _ = Solver.resident_stats r in
                        rb
                      | None -> 0)) );
               ("restarts", J.Num (float_of_int restarts));
               ( "breaker",
                 J.Str
                   (Solver.breaker_state_name
                      (Solver.breaker_state breaker
                         ~now:(Unix.gettimeofday ()))) );
               ( "breaker_trips",
                 J.Num (float_of_int (Solver.breaker_trips breaker)) );
               ("draining", J.Bool !draining) ])
      | Protocol.Drain ->
        draining := true;
        if !accepting then begin
          accepting := false;
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          cleanup ()
        end;
        if Olog.enabled Olog.Info then Olog.info "daemon.drain" ~fields:[];
        send c (ok_fields "drain" [])
      | Protocol.Crash ->
        if config.allow_crash then begin
          Flight.record ~kind:"daemon" "crash requested";
          raise Crash_requested
        end
        else begin
          stats.errors <- stats.errors + 1;
          M.incr m_errors;
          send c (error_reply "crash: not enabled on this server")
        end);
      match req with
      | Protocol.Get_schedule _ -> ()  (* observed at batch completion *)
      | _ -> M.observe m_request_s (Unix.gettimeofday () -. t0)
    in
    let admit c req =
      if Queue.length queue >= config.queue_cap then begin
        stats.shed <- stats.shed + 1;
        M.incr m_shed;
        send c
          (overloaded_reply
             ~retry_after_ms:
               (20.0 *. float_of_int (Queue.length queue)))
      end
      else Queue.push (c, req) queue
    in
    let feed c =
      (* Extract every complete frame buffered on the connection. *)
      let continue = ref true in
      while !continue && c.alive do
        match Protocol.split_frame (Buffer.contents c.inbuf) with
        | `Incomplete -> continue := false
        | `Bad reason ->
          stats.errors <- stats.errors + 1;
          M.incr m_errors;
          send c (error_reply ("protocol: " ^ reason));
          c.closing <- true;
          continue := false
        | `Frame (payload, consumed) -> (
          let rest = Buffer.contents c.inbuf in
          Buffer.clear c.inbuf;
          Buffer.add_substring c.inbuf rest consumed
            (String.length rest - consumed);
          match
            Result.bind (J.of_string payload) Protocol.request_of_json
          with
          | Ok req -> admit c req
          | Error msg ->
            stats.errors <- stats.errors + 1;
            M.incr m_errors;
            send c (error_reply msg);
            c.closing <- true;
            continue := false)
      done
    in
    let read_chunk = Bytes.create 4096 in
    let do_read c =
      match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
      | 0 -> close_conn c  (* peer closed (possibly abandoning replies) *)
      | n ->
        Buffer.add_subbytes c.inbuf read_chunk 0 n;
        c.last <- Unix.gettimeofday ();
        feed c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error _ -> close_conn c
    in
    let do_write c =
      if c.out <> "" then (
        match Unix.write_substring c.fd c.out 0 (String.length c.out) with
        | n ->
          c.out <- String.sub c.out n (String.length c.out - n);
          c.last <- Unix.gettimeofday ();
          if c.out = "" && c.closing then close_conn c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          ()
        | exception Unix.Unix_error _ -> close_conn c)
      else if c.closing then close_conn c
    in
    let do_accept () =
      let continue = ref true in
      while !continue do
        match Unix.accept listen_fd with
        | fd, _ ->
          if List.length !conns >= config.max_conns then begin
            stats.conns_shed <- stats.conns_shed + 1;
            M.incr m_conns_shed;
            (* Best-effort shed notice; the socket is closed either way. *)
            (try
               let notice =
                 Protocol.frame
                   (J.to_string (overloaded_reply ~retry_after_ms:200.0))
               in
               ignore
                 (Unix.write_substring fd notice 0 (String.length notice))
             with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ()
          end
          else begin
            Unix.set_nonblock fd;
            conns :=
              { fd; inbuf = Buffer.create 256; out = ""; closing = false;
                last = Unix.gettimeofday (); alive = true }
              :: !conns
          end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          continue := false
        | exception Unix.Unix_error _ -> continue := false
      done
    in
    let reap now =
      List.iter
        (fun c ->
          if now -. c.last > config.conn_timeout then begin
            stats.reaped <- stats.reaped + 1;
            M.incr m_reaped;
            if Olog.enabled Olog.Debug then
              Olog.debug "daemon.conn.reaped" ~fields:[];
            close_conn c
          end)
        !conns
    in
    on_ready ();
    if Olog.enabled Olog.Info then
      Olog.info "daemon.serving"
        ~fields:
          [ ("addr", Olog.Str (Dls_obs.Publish.addr_to_string config.addr));
            ("restarts", Olog.Int restarts) ];
    (* Dispatch pending batches: inline when there is no pool (the
       batch solves on the event loop, end of tick), otherwise submit
       up to the worker count and let completions come back through
       the self-pipe.  A batch is warm only if its seq is still
       current — a stale batch (delta arrived while it waited) solves
       cold against its problem snapshot, so it can never read resident
       state that is ahead of it. *)
    let base_for b =
      match !cached with
      | Some (_, a) -> Allocation.copy a
      | None ->
        Allocation.zero (Dls_core.Problem.num_clusters b.b_problem)
    in
    let dispatch () =
      match pool with
      | None ->
        while not (Queue.is_empty pending) do
          let b = Queue.pop pending in
          let warm = resident <> None && b.b_seq = State.seq state in
          match
            run ~worker:0
              (J_solve
                 { batch = b; warm; budget_s = b.b_budget_s;
                   base = base_for b })
          with
          | R_solve (b, _, r) -> complete_batch b r
          | R_edit -> ()
        done
      | Some p ->
        (* Warm solves serialize on worker 0's FIFO, so while one is in
           flight a later warm batch stays pending — and joinable — and
           every request arriving during the solve window coalesces
           into it instead of queueing behind the pin as a singleton.
           Cold (stale-seq) batches fan out to any free worker. *)
        let keep = Queue.create () in
        while not (Queue.is_empty pending) do
          let b = Queue.pop pending in
          let warm = resident <> None && b.b_seq = State.seq state in
          if !in_flight >= config.workers || (warm && !pinned_in_flight > 0)
          then Queue.push b keep
          else begin
            Pool.submit ~pinned:warm p
              (J_solve
                 { batch = b; warm; budget_s = b.b_budget_s;
                   base = base_for b });
            incr in_flight;
            if warm then incr pinned_in_flight
          end
        done;
        Queue.transfer keep pending
    in
    let drain_pool () =
      match pool with
      | None -> ()
      | Some p ->
        List.iter
          (function
            | R_edit -> ()
            | R_solve (b, pinned, r) ->
              decr in_flight;
              if pinned then decr pinned_in_flight;
              complete_batch b r)
          (Pool.drain p)
    in
    Fun.protect
      ~finally:(fun () ->
        (match pool with Some p -> Pool.shutdown p | None -> ());
        List.iter (fun c -> close_conn c) !conns;
        if !accepting then begin
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          cleanup ()
        end)
      (fun () ->
        while !running do
          let reads =
            (if !accepting then [ listen_fd ] else [])
            @ (match pool with Some p -> [ Pool.wake_fd p ] | None -> [])
            @ List.map (fun c -> c.fd) !conns
          in
          let writes =
            List.filter_map
              (fun c -> if c.out <> "" then Some c.fd else None)
              !conns
          in
          (match Unix.select reads writes [] 0.05 with
          | rs, ws, _ ->
            drain_pool ();
            if !accepting && List.memq listen_fd rs then do_accept ();
            List.iter
              (fun c -> if c.alive && List.memq c.fd rs then do_read c)
              !conns;
            let budget = ref config.max_requests_per_tick in
            while !budget > 0 && not (Queue.is_empty queue) do
              decr budget;
              let c, req = Queue.pop queue in
              if c.alive then handle_request c req
            done;
            dispatch ();
            List.iter
              (fun c -> if c.alive && (List.memq c.fd ws || c.out <> "") then do_write c)
              !conns
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          reap (Unix.gettimeofday ());
          M.set m_queue_depth (float_of_int (Queue.length queue));
          M.set m_conns (float_of_int (List.length !conns));
          if should_stop () then running := false;
          if
            !draining
            && Queue.is_empty queue
            && Queue.is_empty pending
            && !in_flight = 0
            && List.for_all (fun c -> c.out = "") !conns
          then running := false
        done);
    Ok ()
