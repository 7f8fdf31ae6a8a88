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

let run ?objective ?rng spec problem =
  match spec with
  | G -> Ok (Greedy.solve problem)
  | LPR -> Lpr.solve ?objective problem
  | LPRG -> Lprg.solve ?objective problem
  | LPRR ->
    let rng =
      match rng with
      | Some r -> r
      | None -> Dls_util.Prng.create ~seed:default_seed
    in
    Result.map
      (fun stats -> stats.Lprr.allocation)
      (Lprr.solve ?objective ~rng problem)

let lp_bound ?objective problem =
  match Lp_relax.solve ?objective problem with
  | Lp_relax.Solution sol -> Ok sol.Lp_relax.objective_value
  | Lp_relax.Failed msg -> Error msg
