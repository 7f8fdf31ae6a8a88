(* Golden-file comparison shared by the test suites.  Set
   DLS_UPDATE_GOLDEN=<abs dir> to rewrite the expected files instead of
   comparing (e.g. DLS_UPDATE_GOLDEN=$PWD/test/golden dune runtest). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check name actual =
  match Sys.getenv_opt "DLS_UPDATE_GOLDEN" with
  | Some dir ->
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc actual)
  | None ->
    Alcotest.(check string) name (read_file (Filename.concat "golden" name))
      actual

(* An experiment's on-disk log format, pinned byte for byte: one record
   line ([<name>_record.expected]) and the manifest a complete
   [run ~out] leaves next to its log ([<name>_manifest.expected]). *)
let log_format name ~line ~run =
  let out = Filename.temp_file ("dls_golden_" ^ name) ".jsonl" in
  let manifest = out ^ ".manifest" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ out; manifest ])
    (fun () ->
      run ~out;
      check (name ^ "_record.expected") (line ^ "\n");
      check (name ^ "_manifest.expected") (read_file manifest))
