(* Entry point of the benchmark:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   prints the end-to-end metrics (trace 0) or the per-layer metrics
   (trace 1) of one workload as the last line of standard output, as one
   JSON object.  Anything else on the command line is refused. *)

let workloads = [ "serve-read"; "serve-edit"; "paper-campaign" ]

let usage () =
  prerr_endline
    ("usage: bench.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let set r name conv v =
    match (!r, conv v) with
    | None, Some x -> r := Some x
    | Some _, _ -> Printf.eprintf "bench: %s given twice\n" name; usage ()
    | None, None -> Printf.eprintf "bench: bad value %S for %s\n" v name; usage ()
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      set workload "--workload" (fun v -> if List.mem v workloads then Some v else None) v;
      go rest
    | "--seed" :: v :: rest -> set seed "--seed" int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
      set seconds "--seconds" (fun v -> match float_of_string_opt v with Some s when s > 0.0 -> Some s | _ -> None) v;
      go rest
    | "--trace" :: v :: rest ->
      set trace "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) v;
      go rest
    | arg :: _ -> Printf.eprintf "bench: unexpected argument %S\n" arg; usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t -> (w, s, secs, t)
  | _ -> prerr_endline "bench: --workload, --seed, --seconds and --trace are all required"; usage ()

let () =
  let workload, seed, seconds, trace = parse_args Sys.argv in
  if not (Sys.file_exists Dclient.daemon_exe) then begin
    prerr_endline ("bench: " ^ Dclient.daemon_exe ^ " is missing; run through perfbench/run.sh");
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  at_exit Common.run_cleanups;
  let tally, metrics =
    try
      match (workload, trace) with
      | "serve-read", false -> Serve.run `Read ~seed ~seconds
      | "serve-edit", false -> Serve.run `Edit ~seed ~seconds
      | "paper-campaign", false -> Paper.run ~seed ~seconds
      | w, true -> Layers.run w ~seed ~seconds
      | _ -> usage ()
    with e ->
      Common.run_cleanups ();
      Printf.eprintf "bench: %s failed: %s\n" workload (Printexc.to_string e);
      exit 1
  in
  Common.run_cleanups ();
  Common.print_result tally metrics
