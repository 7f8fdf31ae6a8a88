(* Deterministic load generator for the allocation daemon.

   Each client is a thread with a persistent connection and its own
   [Prng.derive] stream, so the *sequence* of requests (objectives,
   mutation payloads) is a pure function of the seed and client index —
   two runs against equivalent servers issue the same request mix,
   which is what lets the tests assert invariants over the aggregate
   counters.  Only the wall-clock interleaving varies run to run. *)

module P = Protocol
module J = Dls_util.Json
module Prng = Dls_util.Prng

type stats = { ok : int; errors : int; latencies : float array }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let p = Float.max 0.0 (Float.min 1.0 p) in
    let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    sorted.(idx)
  end

(* Per-client accumulator; merged under [agg_lock] at thread exit. *)
type client_acc = {
  mutable c_ok : int;
  mutable c_errors : int;
  mutable c_lat : float list;
}

let connect addr =
  match addr with
  | Dls_obs.Publish.Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e -> Unix.close fd; raise e);
    fd
  | Dls_obs.Publish.Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_loopback
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (ip, port))
     with e -> Unix.close fd; raise e);
    fd

let status_of_reply reply =
  match J.of_string reply with
  | Ok j -> (
    match J.member "status" j with Some (J.Str s) -> s | _ -> "error")
  | Error _ -> "error"

(* One request/reply round trip on a persistent connection; [fd_ref]
   is re-established after an IO error (server reaped us, or a crash
   drill restarted it) so a transient failure costs one error count,
   not the rest of the client's run. *)
let round_trip ~timeout fd_ref buf addr req acc =
  let req_json = J.to_string (P.request_to_json req) in
  let attempt () =
    let fd =
      match !fd_ref with
      | Some fd -> fd
      | None ->
        let fd = connect addr in
        fd_ref := Some fd;
        Buffer.clear buf;
        fd
    in
    P.write_frame fd req_json;
    P.read_frame ~timeout ~buf fd
  in
  let t0 = Unix.gettimeofday () in
  match (try attempt () with _ -> Error "io") with
  | Ok reply -> (
    let dt = Unix.gettimeofday () -. t0 in
    match status_of_reply reply with
    | "ok" ->
      acc.c_ok <- acc.c_ok + 1;
      acc.c_lat <- dt :: acc.c_lat
    | "overloaded" -> ()  (* shed by admission control: not a failure *)
    | _ -> acc.c_errors <- acc.c_errors + 1)
  | Error _ ->
    acc.c_errors <- acc.c_errors + 1;
    (match !fd_ref with
    | Some fd -> (try Unix.close fd with _ -> ())
    | None -> ());
    fd_ref := None

let run ?(budget_ms = 2000.0) ?(timeout = 10.0)
    ?(mutate_every = 0) ~addr ~seed ~clients ~duration_s ~k () =
  if clients < 1 then invalid_arg "Load.run: clients must be >= 1";
  if k < 1 then invalid_arg "Load.run: k must be >= 1";
  (* a write to a connection the server dropped is an error to count *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let deadline = Unix.gettimeofday () +. duration_s in
  let agg_lock = Mutex.create () in
  let accs = ref [] in
  let client idx () =
    let rng = Prng.derive ~seed ~index:idx in
    let acc = { c_ok = 0; c_errors = 0; c_lat = [] } in
    let fd_ref = ref None in
    let buf = Buffer.create 4096 in
    let n = ref 0 in
    while Unix.gettimeofday () < deadline do
      incr n;
      let req =
        if mutate_every > 0 && idx = 0 && !n mod mutate_every = 0 then begin
          (* client 0 doubles as the mutator: warm-path deltas only,
             so the resident handle stays hot across the run *)
          let cluster = Prng.int rng ~lo:0 ~hi:(k - 1) in
          let factor = Prng.float rng ~lo:0.5 ~hi:1.0 in
          P.Mutate
            (P.Platform_delta
               [ Dls_flowsim.Faults.Cluster_throttle { cluster; factor } ])
        end
        else
          let objective =
            if Prng.bool rng ~p:0.5 then Dls_core.Lp_relax.Maxmin
            else Dls_core.Lp_relax.Sum
          in
          P.Get_schedule { objective; budget_ms = Some budget_ms }
      in
      round_trip ~timeout fd_ref buf addr req acc
    done;
    (match !fd_ref with
    | Some fd -> (try Unix.close fd with _ -> ())
    | None -> ());
    Mutex.lock agg_lock;
    accs := acc :: !accs;
    Mutex.unlock agg_lock
  in
  let threads = List.init clients (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  let accs = !accs in
  let sum f = List.fold_left (fun a c -> a + f c) 0 accs in
  let latencies =
    Array.of_list (List.concat_map (fun c -> c.c_lat) accs)
  in
  Array.sort compare latencies;
  { ok = sum (fun c -> c.c_ok); errors = sum (fun c -> c.c_errors); latencies }

let p99 t = percentile t.latencies 0.99
