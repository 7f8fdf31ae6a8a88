type t = G | LPR | LPRG | LPRR

let all = [ G; LPR; LPRG; LPRR ]

let name = function G -> "G" | LPR -> "LPR" | LPRG -> "LPRG" | LPRR -> "LPRR"

let of_name s =
  match String.lowercase_ascii s with
  | "g" | "greedy" -> Some G
  | "lpr" -> Some LPR
  | "lprg" -> Some LPRG
  | "lprr" -> Some LPRR
  | _ -> None

let default_seed = 0x5EED

let run ?(objective = Lp_relax.Maxmin) ?rng ?relaxation spec problem =
  let relaxed post =
    match relaxation with
    | None -> Result.map post (Relaxation.solve ~objective problem)
    | Some r ->
      Result.map
        (fun (r : Relaxation.t) ->
          if r.problem != problem || r.objective <> objective then
            invalid_arg "Heuristics.run: relaxation of another problem or objective";
          post r)
        (Lazy.force r)
  in
  match spec with
  | G -> Ok (Greedy.solve problem)
  | LPR -> relaxed Lpr.of_relaxation
  | LPRG -> relaxed Lprg.of_relaxation
  | LPRR ->
    let rng =
      match rng with
      | Some r -> r
      | None -> Dls_util.Prng.create ~seed:default_seed
    in
    Result.map
      (fun stats -> stats.Lprr.allocation)
      (Lprr.solve ~objective ~rng problem)

let bound_of (r : Relaxation.t) = r.solution.Lp_relax.objective_value

let lp_bound ?objective problem = Result.map bound_of (Relaxation.solve ?objective problem)
