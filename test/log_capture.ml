(* Capture the [Dls_obs.Log] records (every level) emitted while a
   function runs: point the sink at a temporary file, run, detach the
   sink and parse every line back into a JSON object. *)

module J = Dls_util.Json

let records f =
  let path = Filename.temp_file "dls_log" ".jsonl" in
  let oc = open_out_bin path in
  Dls_obs.Log.set_sink ~level:Dls_obs.Log.Debug oc;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Dls_obs.Log.close_sink ();
        close_out oc)
      f
  in
  let content = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let records =
    List.filter_map
      (fun line ->
        if line = "" then None
        else
          match J.of_string line with
          | Ok j -> Some j
          | Error e -> Alcotest.failf "log line is not JSON (%s): %s" e line)
      (String.split_on_char '\n' content)
  in
  (result, records)

let str key r =
  match J.member key r with Some (J.Str s) -> Some s | _ -> None

let int key r =
  match J.member key r with
  | Some j -> Result.to_option (J.to_int j)
  | None -> None

(* The records at [level] (a level name such as ["warn"]) whose
   [msg] is [msg]. *)
let find ~level ~msg records =
  List.filter (fun r -> str "level" r = Some level && str "msg" r = Some msg)
    records
