module J = Dls_util.Json
module Wal = Dls_util.Wal
module Olog = Dls_obs.Log

let ( let* ) = Result.bind

type t = {
  oc : out_channel;
  mutable seq : int;  (* next sequence number to append *)
}

let manifest_path path = path ^ ".manifest"

let record_to_line ~seq m =
  match Protocol.mutation_to_json m with
  | J.Obj fields ->
    J.to_string (J.Obj (("seq", J.Num (float_of_int seq)) :: fields))
  | j -> J.to_string j

let record_of_line line =
  let* j = J.of_string line in
  let* seq =
    match J.member "seq" j with
    | None -> Error "journal record: missing seq"
    | Some v -> J.to_int v
  in
  let* m = Protocol.mutation_of_json j in
  Ok (seq, m)

let manifest_to_string ~fingerprint =
  J.to_string
    (J.Obj [ ("daemon_wal", J.Num 1.0); ("platform", J.Str fingerprint) ])
  ^ "\n"

let check_manifest ~path ~fingerprint =
  let mpath = manifest_path path in
  if not (Sys.file_exists mpath) then Ok ()
  else
    let content = In_channel.with_open_bin mpath In_channel.input_all in
    let* j =
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" mpath e)
        (J.of_string (String.trim content))
    in
    let* recorded =
      match J.member "platform" j with
      | None -> Error (mpath ^ ": missing platform fingerprint")
      | Some v -> J.to_str v
    in
    if recorded <> fingerprint then
      Error
        (Printf.sprintf
           "%s: journal belongs to a different platform (%s, expected %s)"
           mpath recorded fingerprint)
    else Ok ()

let open_ ~path ~platform =
  let state = State.create platform in
  let fingerprint = State.fingerprint state in
  let* () = check_manifest ~path ~fingerprint in
  let* replayed =
    if Sys.file_exists path then begin
      let* entries, valid_len = Wal.load ~of_line:record_of_line ~path in
      let dropped = Wal.truncate_torn ~path ~valid_len in
      if dropped > 0 && Olog.enabled Olog.Warn then
        Olog.warn "daemon.journal.torn_tail"
          ~fields:
            [ ("path", Olog.Str path); ("dropped_bytes", Olog.Int dropped) ];
      Ok entries
    end
    else Ok []
  in
  let* () =
    List.fold_left
      (fun acc (seq, m) ->
        let* () = acc in
        if seq <> State.seq state then
          Error
            (Printf.sprintf
               "%s: journal sequence gap (record %d where %d expected)" path
               seq (State.seq state))
        else
          Result.map_error
            (fun e ->
              Printf.sprintf "%s: replayed mutation %d rejected: %s" path seq
                e)
            (State.apply state m))
      (Ok ()) replayed
  in
  Wal.write_atomic ~path:(manifest_path path) (manifest_to_string ~fingerprint);
  Ok (state, { oc = Wal.open_append ~path; seq = State.seq state })

let append t m =
  Wal.append_line t.oc (record_to_line ~seq:t.seq m);
  t.seq <- t.seq + 1

let entries t = t.seq

let close t = close_out_noerr t.oc
