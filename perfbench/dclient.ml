(* A real [dls_daemond serve] process and the benchmark's client side of
   it: spawning, connecting, pipelined request scripts over several
   connections, and teardown on every exit path. *)

module D = Dls_daemon
module J = Dls_util.Json
module Pr = D.Protocol

let daemon_exe = "_build/default/bin/dls_daemond.exe"

type t = {
  pid : int;
  sock : string;
  wal : string;
  mutable alive : bool;
}

let remove_files d =
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ d.sock; d.wal; D.Journal.manifest_path d.wal; d.wal ^ ".manifest.tmp" ]

(* Stop the process, wait for it, and remove its socket and journal. *)
let stop d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let rec reap () =
      match Unix.waitpid [] d.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ()
  end;
  remove_files d

(* One worker domain, a journal, and a default budget far above any
   solve time.  The platform comes either from the daemon's own
   generator ([`Gen (k, seed)]) or from a platform file. *)
let spawn ~name ~platform ~seed =
  let sock = Common.scratch (name ^ ".sock") in
  let wal = Common.scratch (name ^ ".wal") in
  let platform_args =
    match platform with
    | `Gen (k, gen_seed) -> [ "--gen-k"; string_of_int k; "--gen-seed"; string_of_int gen_seed ]
    | `File path -> [ "--platform"; path ]
  in
  let args =
    [ daemon_exe; "serve"; "--addr"; "unix:" ^ sock; "--wal"; wal; "--workers"; "1";
      "--budget-ms"; "600000"; "--queue-cap"; "256"; "--max-conns"; "16";
      "--conn-timeout"; "600"; "--seed"; string_of_int seed ]
    @ platform_args
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let d = { pid = 0; sock; wal; alive = false } in
  remove_files d;
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process daemon_exe (Array.of_list args) devnull devnull Unix.stderr)
  in
  let d = { d with pid; alive = true } in
  Common.on_cleanup (fun () -> stop d);
  d

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable open_ : bool }

let close_conn c =
  if c.open_ then begin
    c.open_ <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Connect, retrying while the daemon is still starting. *)
let connect d =
  let deadline = Common.now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () ->
      let c = { fd; buf = Buffer.create 8192; open_ = true } in
      Common.on_cleanup (fun () -> close_conn c);
      c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Common.now () < deadline ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ ->
        d.alive <- false;
        failwith "dls_daemond exited during start-up");
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let send c req = Pr.write_frame c.fd (J.to_string (Pr.request_to_json req))

let recv c =
  match Pr.read_frame ~timeout:60.0 ~buf:c.buf c.fd with
  | Ok s -> s
  | Error e -> failwith ("daemon reply: " ^ e)

let call c req =
  send c req;
  recv c

(* Run one request script per connection, all connections from this one
   process, in lock-step: at step [i] every connection that has an [i]-th
   request sends it, and the next step starts when all of them have their
   reply.  So the server sees the same interleaving on every run, and a
   reply's round trip depends on the script rather than on how the
   connections drifted against each other.  [on_reply conn index rtt_s
   payload] sees every reply as it arrives. *)
let drive conns scripts ~on_reply =
  let n = Array.length conns in
  let steps = Array.fold_left (fun m s -> max m (Array.length s)) 0 scripts in
  let sent_at = Array.make n 0.0 in
  for step = 0 to steps - 1 do
    let waiting = ref [] in
    for i = 0 to n - 1 do
      if step < Array.length scripts.(i) then begin
        sent_at.(i) <- Common.now ();
        send conns.(i) scripts.(i).(step);
        waiting := i :: !waiting
      end
    done;
    while !waiting <> [] do
      let ready, _, _ = Unix.select (List.map (fun i -> conns.(i).fd) !waiting) [] [] 60.0 in
      if ready = [] then failwith "daemon: no reply within 60 s";
      List.iter
        (fun i ->
          if List.memq conns.(i).fd ready then begin
            let payload = recv conns.(i) in
            on_reply i step (Common.now () -. sent_at.(i)) payload;
            waiting := List.filter (( <> ) i) !waiting
          end)
        !waiting
    done
  done

(* ------------------------------------------------------------------ *)
(* Reading replies                                                     *)
(* ------------------------------------------------------------------ *)

let parse payload =
  match J.of_string payload with Ok j -> j | Error e -> failwith ("reply: " ^ e)

let status j = match J.member "status" j with Some (J.Str s) -> s | _ -> "?"

let num_field name j =
  match J.member name j with Some (J.Num v) -> Some v | _ -> None

(* A mutation reply must be ok and carry the state seq after it. *)
let mutation_seq payload =
  let j = parse payload in
  if status j <> "ok" then Error ("mutation rejected: " ^ payload)
  else match num_field "seq" j with
    | Some s -> Ok (int_of_float s)
    | None -> Error "mutation reply without seq"
