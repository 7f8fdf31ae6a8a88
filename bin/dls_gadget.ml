(* Explore the NP-completeness reduction of Section 4 on any graph.

   Takes a named graph (petersen, cycle N, path N, complete N, gnp N P)
   or an edge-list file (one "u v" pair per line, 0-based), builds the
   STEADY-STATE-DIVISIBLE-LOAD gadget, and reports: the exact maximum
   independent set, every heuristic's throughput with its extracted
   independent set, the exact MIP optimum when affordable, and the
   fractional LP bound. *)

open Cmdliner
module G = Dls_graph.Graph
module Mis = Dls_graph.Mis
module Prng = Dls_util.Prng
open Dls_core

let parse_edge_list path =
  let ic = open_in path in
  let edges = ref [] in
  let max_node = ref (-1) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then begin
            match
              String.split_on_char ' ' line |> List.filter (( <> ) "")
              |> List.map int_of_string_opt
            with
            | [ Some u; Some v ] ->
              edges := (u, v) :: !edges;
              max_node := Stdlib.max !max_node (Stdlib.max u v)
            | _ -> failwith ("bad edge line: " ^ line)
          end
        done;
        assert false
      with
      | End_of_file -> G.create ~n:(!max_node + 1) ~edges:(List.rev !edges))

let parse_graph_spec spec seed =
  match String.split_on_char ' ' spec |> List.filter (( <> ) "") with
  | [ "petersen" ] -> G.petersen ()
  | [ "cycle"; n ] -> G.cycle (int_of_string n)
  | [ "path"; n ] -> G.path_graph (int_of_string n)
  | [ "complete"; n ] -> G.complete (int_of_string n)
  | [ "star"; n ] -> G.star (int_of_string n)
  | [ "gnp"; n; p ] ->
    let rng = Prng.create ~seed in
    G.gnp rng ~n:(int_of_string n) ~p:(float_of_string p)
  | _ -> failwith ("unknown graph spec: " ^ spec)

let run graph_spec edge_file seed with_mip =
  let graph =
    match edge_file with
    | Some path -> parse_edge_list path
    | None -> parse_graph_spec graph_spec seed
  in
  let n = G.num_nodes graph in
  Format.printf "graph: %d vertices, %d edges@." n (G.num_edges graph);
  if n > 62 then begin
    Format.eprintf "graphs above 62 vertices exceed the exact MIS solver@.";
    exit 2
  end;
  let mis = Mis.max_independent_set graph in
  Format.printf "maximum independent set: {%s} (size %d)@.@."
    (String.concat ", " (List.map string_of_int mis))
    (List.length mis);
  let problem = Reduction.build graph in
  Format.printf "gadget: %d clusters, %d routers, %d unit backbones@.@."
    (Problem.num_clusters problem)
    (Dls_platform.Platform.num_routers (Problem.platform problem))
    (Dls_platform.Platform.num_backbones (Problem.platform problem));
  (* One MAXMIN relaxation serves LPR, LPRG and the LP line. *)
  let relaxation = lazy (Relaxation.solve problem) in
  List.iter
    (fun h ->
      match Heuristics.run ~rng:(Prng.create ~seed) ~relaxation h problem with
      | Error msg -> Format.printf "%-5s failed: %s@." (Heuristics.name h) msg
      | Ok alloc ->
        let set = Reduction.independent_set_of_allocation alloc in
        Format.printf "%-5s throughput %.3f  vertices {%s}  independent: %b@."
          (Heuristics.name h)
          (Allocation.sum_objective problem alloc)
          (String.concat ", " (List.map string_of_int set))
          (Mis.is_independent graph set))
    Heuristics.all;
  (match Lazy.force relaxation with
   | Ok r ->
     Format.printf "%-5s %.3f (fractional connections)@." "LP" (Heuristics.bound_of r)
   | Error msg -> Format.printf "LP failed: %s@." msg);
  if with_mip then begin
    match Mip.solve ~objective:Lp_relax.Maxmin problem with
    | Ok stats ->
      Format.printf "%-5s %.3f in %d nodes (must equal the MIS size: %b)@." "MIP"
        stats.Mip.objective_value stats.Mip.nodes
        (Float.abs (stats.Mip.objective_value -. float_of_int (List.length mis))
         < 1e-6)
    | Error msg -> Format.printf "MIP: %s@." msg
  end

let () =
  let graph_spec =
    Arg.(value & opt string "petersen"
         & info [ "graph" ] ~docv:"SPEC"
             ~doc:
               "Named graph: petersen | cycle N | path N | complete N | star N \
                | gnp N P.")
  in
  let edge_file =
    Arg.(value & opt (some string) None
         & info [ "edges" ] ~docv:"FILE"
             ~doc:"Edge-list file (one 'u v' pair per line) instead of a named graph.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let with_mip =
    Arg.(value & flag
         & info [ "mip" ]
             ~doc:"Also compute the exact MIP optimum (exponential; small graphs only).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "dls_gadget" ~version:"1.0.0"
         ~doc:"Explore the Section 4 NP-completeness gadget on a graph.")
      Term.(const run $ graph_spec $ edge_file $ seed $ with_mip)
  in
  exit (Cmd.eval cmd)
