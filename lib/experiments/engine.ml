module Parallel = Dls_util.Parallel
module M = Dls_obs.Metrics
module Trace = Dls_obs.Trace
module Olog = Dls_obs.Log
module Flight = Dls_obs.Flight

type 'e spec = {
  log_label : string;
  total : int;
  index_of : 'e -> int;
  to_line : 'e -> string;
  of_line : string -> ('e, string) result;
  evaluate : int -> 'e;
  skip_reason : 'e -> string option;
  entry_times : 'e -> (string * float) list;
  time_labels : string list;
  log_time_stats : bool;
  write_manifest : out:string -> completed:int -> unit;
  check_manifest : path:string -> (unit, string) result;
}

type summary = {
  s_total : int;
  s_completed : int;
  s_skipped : int;
  s_evaluated : int;
  s_replayed : int;
  s_wall : float;
  s_times : (string * float array) list;
}

let ( let* ) = Result.bind

(* The JSONL/torn-tail/atomic-manifest machinery lives in
   {!Dls_util.Wal} (the daemon journals through the same code); these
   aliases keep the Engine API stable for the experiment specs. *)
let load_log ~of_line ~path = Dls_util.Wal.load ~of_line ~path

let write_atomic ~path content = Dls_util.Wal.write_atomic ~path content

let validate spec ~shards ~shard =
  if spec.total < 0 then Error (spec.log_label ^ ": negative total")
  else if shards < 1 then Error (spec.log_label ^ ": shards must be >= 1")
  else
    match shard with
    | Some s when s < 0 || s >= shards ->
      Error
        (Printf.sprintf "%s: shard %d outside [0, %d)" spec.log_label s shards)
    | _ -> Ok ()

let run ?domains ?chunk ?(checkpoint_every = 256) ?(shards = 1) ?shard
    ?(resume = false) ?out ?(on_entry = fun _ -> ()) spec =
  let* () = validate spec ~shards ~shard in
  let n = spec.total in
  (* `Pending / `Record / `Skipped per index; replay flips entries out
     of `Pending so only the frontier is evaluated. *)
  let status = Array.make (Stdlib.max n 1) `Pending in
  let* replayed =
    match out with
    | Some path when resume && Sys.file_exists path ->
      let* () = spec.check_manifest ~path in
      let* entries, valid_len = load_log ~of_line:spec.of_line ~path in
      let dropped = Dls_util.Wal.truncate_torn ~path ~valid_len in
      if dropped > 0 && Olog.enabled Olog.Warn then
        Olog.warn "engine.torn_tail"
          ~fields:
            [ ("experiment", Olog.Str spec.log_label);
              ("path", Olog.Str path);
              ("dropped_bytes", Olog.Int dropped) ];
      let* entries =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let i = spec.index_of e in
            if i < 0 || i >= n then
              Error
                (Printf.sprintf
                   "%s: entry index %d outside experiment of %d entries; log \
                    belongs to a different config"
                   path i n)
            else if status.(i) <> `Pending then Ok acc (* duplicate *)
            else begin
              status.(i) <-
                (match spec.skip_reason e with
                | None -> `Record
                | Some _ -> `Skipped);
              Ok (e :: acc)
            end)
          (Ok []) entries
      in
      Ok (List.rev entries)
    | Some path ->
      (* Fresh start: clear stale artifacts of a previous run. *)
      if Sys.file_exists path then Sys.remove path;
      let mpath = path ^ ".manifest" in
      if Sys.file_exists mpath then Sys.remove mpath;
      Ok []
    | None -> Ok []
  in
  let replayed_n = List.length replayed in
  List.iter on_entry replayed;
  let shards_to_run =
    match shard with Some s -> [ s ] | None -> List.init shards Fun.id
  in
  let pending_of s =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if i mod shards = s && status.(i) = `Pending then acc := i :: !acc
    done;
    Array.of_list !acc
  in
  let pending_total =
    List.fold_left (fun acc s -> acc + Array.length (pending_of s)) 0
      shards_to_run
  in
  let oc = Option.map (fun path -> Dls_util.Wal.open_append ~path) out in
  let logged_total = ref replayed_n in
  let checkpoint () =
    match out with
    | Some path ->
      spec.write_manifest ~out:path ~completed:!logged_total;
      if Olog.enabled Olog.Debug then
        Olog.debug "engine.checkpoint"
          ~fields:
            [ ("experiment", Olog.Str spec.log_label);
              ("completed", Olog.Int !logged_total) ];
      Flight.record ~kind:"checkpoint" spec.log_label
        ~fields:[ ("completed", string_of_int !logged_total) ]
    | None -> ()
  in
  let t0 = Unix.gettimeofday () in
  let evaluated = ref 0 in
  let since_checkpoint = ref 0 in
  let last_progress = ref t0 in
  let time_samples = List.map (fun label -> (label, ref [])) spec.time_labels in
  (* Registry mirrors of the per-label samples: log-bucketed histograms
     whose mergeable snapshots let per-shard runs combine exactly
     (registration is idempotent, so re-runs reuse the same cells). *)
  let time_hists =
    List.map
      (fun label -> (label, M.histogram (spec.log_label ^ ".time." ^ label)))
      spec.time_labels
  in
  let m_entries = M.counter (spec.log_label ^ ".entries") in
  let m_skipped = M.counter (spec.log_label ^ ".skipped") in
  let handle_entry e =
    (match oc with
    | Some oc ->
      output_string oc (spec.to_line e);
      output_char oc '\n'
    | None -> ());
    (match spec.skip_reason e with
    | None ->
      status.(spec.index_of e) <- `Record;
      M.incr m_entries;
      List.iter
        (fun (label, t) ->
          (match List.assoc_opt label time_samples with
          | Some samples -> samples := t :: !samples
          | None -> ());
          match List.assoc_opt label time_hists with
          | Some h -> M.observe h t
          | None -> ())
        (spec.entry_times e)
    | Some reason ->
      status.(spec.index_of e) <- `Skipped;
      M.incr m_skipped;
      if Olog.enabled Olog.Warn then
        Olog.warn "engine.entry.skipped"
          ~fields:
            [ ("experiment", Olog.Str spec.log_label);
              ("index", Olog.Int (spec.index_of e));
              ("reason", Olog.Str reason) ]);
    incr evaluated;
    incr since_checkpoint;
    incr logged_total;
    on_entry e
  in
  let progress () =
    let now = Unix.gettimeofday () in
    if now -. !last_progress >= 2.0 && !evaluated > 0
       && Olog.enabled Olog.Info
    then begin
      last_progress := now;
      let rate = float_of_int !evaluated /. (now -. t0) in
      let remaining = pending_total - !evaluated in
      Olog.info "engine.progress"
        ~fields:
          [ ("experiment", Olog.Str spec.log_label);
            ("evaluated", Olog.Int !evaluated);
            ("pending", Olog.Int pending_total);
            ("records_per_s", Olog.Float rate);
            ("eta_s",
             Olog.Float (float_of_int remaining /. Stdlib.max 1e-9 rate)) ]
    end
  in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out oc)
    (fun () ->
      checkpoint ();
      List.iter
        (fun s ->
          let sp = Trace.start ~cat:"campaign" (spec.log_label ^ ".shard") in
          let before = !evaluated in
          if Olog.enabled Olog.Info then
            Olog.info "engine.shard.start"
              ~fields:
                [ ("experiment", Olog.Str spec.log_label);
                  ("shard", Olog.Int s);
                  ("pending", Olog.Int (Array.length (pending_of s))) ];
          Parallel.map_chunked ?domains ?chunk spec.evaluate (pending_of s)
            ~on_chunk:(fun ~offset:_ results ->
              Array.iter handle_entry results;
              Option.iter flush oc;
              if !since_checkpoint >= checkpoint_every then begin
                since_checkpoint := 0;
                checkpoint ()
              end;
              progress ());
          if Olog.enabled Olog.Info then
            Olog.info "engine.shard.finish"
              ~fields:
                [ ("experiment", Olog.Str spec.log_label);
                  ("shard", Olog.Int s);
                  ("entries", Olog.Int (!evaluated - before)) ];
          if Flight.enabled () then
            Flight.record ~kind:"shard" (spec.log_label ^ ".shard")
              ~fields:
                [ ("shard", string_of_int s);
                  ("entries", string_of_int (!evaluated - before)) ];
          if Trace.live sp then
            Trace.finish sp
              ~args:
                [ ("shard", string_of_int s);
                  ("entries", string_of_int (!evaluated - before)) ])
        shards_to_run;
      checkpoint ());
  let wall = Unix.gettimeofday () -. t0 in
  let completed = ref 0 and skipped = ref 0 in
  Array.iteri
    (fun i st ->
      if i < n then
        match st with
        | `Record -> incr completed
        | `Skipped -> incr skipped
        | `Pending -> ())
    status;
  (* Per-label wall-clock digest for long runs. *)
  let times =
    List.map
      (fun (label, samples) -> (label, Array.of_list (List.rev !samples)))
      time_samples
  in
  if spec.log_time_stats && !evaluated > 0 && Olog.enabled Olog.Info then
    List.iter
      (fun (label, samples) ->
        if Array.length samples > 0 then
          Olog.info "engine.time_stats"
            ~fields:
              [ ("experiment", Olog.Str spec.log_label);
                ("label", Olog.Str label);
                ("mean_s", Olog.Float (Dls_util.Stats.mean samples));
                ("median_s", Olog.Float (Dls_util.Stats.median samples));
                ("p95_s",
                 Olog.Float (Dls_util.Stats.percentile samples ~p:95.0));
                ("records", Olog.Int (Array.length samples)) ])
      times;
  Ok
    { s_total = n;
      s_completed = !completed;
      s_skipped = !skipped;
      s_evaluated = !evaluated;
      s_replayed = replayed_n;
      s_wall = wall;
      s_times = times }
