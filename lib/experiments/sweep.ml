module Gen = Dls_platform.Generator

type record = Campaign.record = {
  index : int;
  params : Gen.params;
  active_apps : int;
  values : Measure.values;
}

let run ?(seed = 12) ?(ks = [ 5; 15; 25; 35; 45; 55 ]) ?(per_k = 5)
    ?(with_lprr = false) ?(on_record = fun _ -> ()) () =
  let config =
    { Campaign.default_config with
      Campaign.seed; ks; per_k; with_lprr }
  in
  match
    Campaign.run
      ~on_entry:(function
        | Campaign.Record r -> on_record r
        (* [Engine] logs every skip once, as [engine.entry.skipped]. *)
        | Campaign.Skipped _ -> ())
      config
  with
  | Ok s -> (s.Campaign.s_completed, s.Campaign.s_skipped)
  | Error msg ->
    (* No log file is involved, so the only errors are invalid configs. *)
    invalid_arg ("Sweep.run: " ^ msg)

let csv_header =
  String.concat ","
    [ "index"; "k"; "connectivity"; "heterogeneity"; "mean_g"; "mean_bw";
      "mean_maxcon"; "active_apps"; "lp_sum"; "lp_maxmin"; "g_sum"; "g_maxmin";
      "lpr_sum"; "lpr_maxmin"; "lprg_sum"; "lprg_maxmin"; "lprr_sum";
      "lprr_maxmin"; "time_lp"; "time_g"; "time_lpr"; "time_lprg"; "time_lprr" ]

let to_csv_row r =
  let f v = Printf.sprintf "%.6g" v in
  let opt = function Some v -> f v | None -> "" in
  let v = r.values in
  String.concat ","
    [ string_of_int r.index; string_of_int r.params.Gen.k;
      f r.params.Gen.connectivity; f r.params.Gen.heterogeneity;
      f r.params.Gen.mean_g; f r.params.Gen.mean_bw; f r.params.Gen.mean_maxcon;
      string_of_int r.active_apps;
      f v.Measure.lp_sum; f v.Measure.lp_maxmin; f v.Measure.g_sum;
      f v.Measure.g_maxmin; f v.Measure.lpr_sum; f v.Measure.lpr_maxmin;
      f v.Measure.lprg_sum; f v.Measure.lprg_maxmin; opt v.Measure.lprr_sum;
      opt v.Measure.lprr_maxmin; f v.Measure.time_lp; f v.Measure.time_g;
      f v.Measure.time_lpr; f v.Measure.time_lprg; opt v.Measure.time_lprr ]
