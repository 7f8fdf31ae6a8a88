(* Tests for Dls_graph: structural invariants, shortest paths (BFS and
   Dijkstra cross-checked on unit weights), random generation, and exact
   MIS against brute force. *)

module G = Dls_graph.Graph
module Dij = Dls_graph.Dijkstra
module Mis = Dls_graph.Mis
module Prng = Dls_util.Prng

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let test_create_basic () =
  let g = G.create ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  Alcotest.(check int) "nodes" 3 (G.num_nodes g);
  Alcotest.(check int) "edges" 2 (G.num_edges g);
  Alcotest.(check (pair int int)) "e0" (0, 1) (G.endpoints g 0);
  Alcotest.(check bool) "mem 0-1" true (G.mem_edge g 0 1);
  Alcotest.(check bool) "mem 0-2" false (G.mem_edge g 0 2);
  Alcotest.(check int) "deg 1" 2 (G.degree g 1)

let test_create_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (G.create ~n:2 ~edges:[ (1, 1) ]))

let test_create_rejects_out_of_range () =
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Graph.create: endpoint out of range") (fun () ->
      ignore (G.create ~n:2 ~edges:[ (0, 2) ]))

let test_parallel_edges_allowed () =
  let g = G.create ~n:2 ~edges:[ (0, 1); (0, 1) ] in
  Alcotest.(check int) "two parallel edges" 2 (G.num_edges g);
  Alcotest.(check int) "degree counts both" 2 (G.degree g 0)

let test_constructors () =
  Alcotest.(check int) "complete 5 edges" 10 (G.num_edges (G.complete 5));
  Alcotest.(check int) "path 5 edges" 4 (G.num_edges (G.path_graph 5));
  Alcotest.(check int) "cycle 5 edges" 5 (G.num_edges (G.cycle 5));
  Alcotest.(check int) "star 5 edges" 4 (G.num_edges (G.star 5));
  let p = G.petersen () in
  Alcotest.(check int) "petersen nodes" 10 (G.num_nodes p);
  Alcotest.(check int) "petersen edges" 15 (G.num_edges p);
  Alcotest.(check bool) "petersen 3-regular" true
    (List.for_all (fun v -> G.degree p v = 3) (List.init 10 Fun.id))

(* ------------------------------------------------------------------ *)
(* Connectivity and paths                                              *)
(* ------------------------------------------------------------------ *)

let test_connectivity () =
  Alcotest.(check bool) "path connected" true (G.is_connected (G.path_graph 6));
  Alcotest.(check bool) "empty-edge graph" false
    (G.is_connected (G.create ~n:3 ~edges:[]));
  Alcotest.(check bool) "single node" true (G.is_connected (G.create ~n:1 ~edges:[]));
  Alcotest.(check bool) "empty graph" true (G.is_connected (G.create ~n:0 ~edges:[]))

let test_components () =
  let g = G.create ~n:5 ~edges:[ (0, 1); (2, 3) ] in
  let c = G.components g in
  Alcotest.(check bool) "0~1" true (c.(0) = c.(1));
  Alcotest.(check bool) "2~3" true (c.(2) = c.(3));
  Alcotest.(check bool) "0!~2" true (c.(0) <> c.(2));
  Alcotest.(check bool) "4 alone" true (c.(4) <> c.(0) && c.(4) <> c.(2))

let test_bfs_distances () =
  let g = G.path_graph 5 in
  let d = G.bfs_distances g ~src:0 in
  Alcotest.(check (array int)) "line distances" [| 0; 1; 2; 3; 4 |] d;
  let g2 = G.create ~n:3 ~edges:[ (0, 1) ] in
  let d2 = G.bfs_distances g2 ~src:0 in
  Alcotest.(check int) "unreachable" max_int d2.(2)

let test_shortest_path () =
  let g = G.cycle 6 in
  (match G.shortest_path g ~src:0 ~dst:2 with
   | Some (nodes, edge_ids) ->
     Alcotest.(check (list int)) "nodes" [ 0; 1; 2 ] nodes;
     Alcotest.(check int) "two hops" 2 (List.length edge_ids)
   | None -> Alcotest.fail "expected path");
  (match G.shortest_path g ~src:3 ~dst:3 with
   | Some (nodes, edge_ids) ->
     Alcotest.(check (list int)) "trivial path" [ 3 ] nodes;
     Alcotest.(check (list int)) "no edges" [] edge_ids
   | None -> Alcotest.fail "expected trivial path");
  let disconnected = G.create ~n:4 ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "no path" true
    (G.shortest_path disconnected ~src:0 ~dst:3 = None)

let test_path_edges_consistent () =
  (* Every consecutive node pair on a reported path must be the endpoints
     of the reported edge id. *)
  let rng = Prng.create ~seed:7 in
  let g = G.connect_components rng (G.gnp rng ~n:20 ~p:0.15) in
  let ok = ref true in
  for dst = 1 to 19 do
    match G.shortest_path g ~src:0 ~dst with
    | None -> ok := false
    | Some (nodes, edge_ids) ->
      let rec check nodes edge_ids =
        match (nodes, edge_ids) with
        | [ _ ], [] -> true
        | u :: (v :: _ as rest), e :: es ->
          let a, b = G.endpoints g e in
          ((a = u && b = v) || (a = v && b = u)) && check rest es
        | _ -> false
      in
      if not (check nodes edge_ids) then ok := false
  done;
  Alcotest.(check bool) "paths consistent" true !ok

let test_dijkstra_matches_bfs_on_unit_weights () =
  let rng = Prng.create ~seed:11 in
  let g = G.connect_components rng (G.gnp rng ~n:30 ~p:0.1) in
  let bfs = G.bfs_distances g ~src:0 in
  let dij = Dij.distances g ~weight:(fun _ -> 1.0) ~src:0 in
  Array.iteri
    (fun v d ->
      let expected = if d = max_int then infinity else float_of_int d in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "node %d" v) expected dij.(v))
    bfs

let test_dijkstra_weighted () =
  (* Triangle with a cheap two-hop detour: 0-1 cost 10, 0-2-1 cost 3. *)
  let g = G.create ~n:3 ~edges:[ (0, 1); (0, 2); (2, 1) ] in
  let weight = function 0 -> 10.0 | 1 -> 1.0 | _ -> 2.0 in
  match Dij.shortest_path g ~weight ~src:0 ~dst:1 with
  | Some (nodes, _) -> Alcotest.(check (list int)) "detour" [ 0; 2; 1 ] nodes
  | None -> Alcotest.fail "expected path"

let test_connect_components () =
  let rng = Prng.create ~seed:3 in
  let g = G.create ~n:8 ~edges:[ (0, 1); (2, 3); (4, 5) ] in
  let g' = G.connect_components rng g in
  Alcotest.(check bool) "connected" true (G.is_connected g');
  Alcotest.(check (pair int int)) "original ids kept" (0, 1) (G.endpoints g' 0);
  (* 4 components need exactly 3 extra edges (nodes 6 and 7 are isolated,
     forming singleton components, so 5 components and 4 extra edges). *)
  Alcotest.(check int) "extra edges" (3 + 4) (G.num_edges g')

(* ------------------------------------------------------------------ *)
(* MIS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mis_known () =
  Alcotest.(check int) "petersen" 4 (Mis.independence_number (G.petersen ()));
  Alcotest.(check int) "complete 6" 1 (Mis.independence_number (G.complete 6));
  Alcotest.(check int) "path 5" 3 (Mis.independence_number (G.path_graph 5));
  Alcotest.(check int) "cycle 5" 2 (Mis.independence_number (G.cycle 5));
  Alcotest.(check int) "cycle 6" 3 (Mis.independence_number (G.cycle 6));
  Alcotest.(check int) "star 7" 6 (Mis.independence_number (G.star 7));
  Alcotest.(check int) "empty edges" 4
    (Mis.independence_number (G.create ~n:4 ~edges:[]))

let test_mis_set_is_independent () =
  let g = G.petersen () in
  let s = Mis.max_independent_set g in
  Alcotest.(check bool) "independent" true (Mis.is_independent g s);
  Alcotest.(check int) "size" 4 (List.length s)

let brute_force_mis g =
  let n = G.num_nodes g in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let nodes = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
    if Mis.is_independent g nodes then best := Stdlib.max !best (List.length nodes)
  done;
  !best

let prop_mis_matches_brute_force =
  QCheck2.Test.make ~name:"MIS matches brute force on random graphs" ~count:60
    QCheck2.Gen.(pair (int_range 1 10) (float_range 0.0 0.9))
    (fun (n, p) ->
      let rng = Prng.create ~seed:(n + int_of_float (p *. 1000.0)) in
      let g = G.gnp rng ~n ~p in
      Mis.independence_number g = brute_force_mis g)

let prop_gnp_connected_after_repair =
  QCheck2.Test.make ~name:"connect_components always yields connected graph"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 25) (float_range 0.0 0.3))
    (fun (n, p) ->
      let rng = Prng.create ~seed:(n * 37) in
      G.is_connected (G.connect_components rng (G.gnp rng ~n ~p)))

let prop_bfs_triangle_inequality =
  QCheck2.Test.make ~name:"BFS distances satisfy edge relaxation" ~count:60
    (QCheck2.Gen.int_range 2 30)
    (fun n ->
      let rng = Prng.create ~seed:n in
      let g = G.connect_components rng (G.gnp rng ~n ~p:0.2) in
      let d = G.bfs_distances g ~src:0 in
      G.fold_edges
        (fun _ (u, v) ok -> ok && abs (d.(u) - d.(v)) <= 1)
        g true)

(* One BFS per (src, dst) pair that stops at [dst], scanning each
   visited node's neighbours after sorting them by (node, edge id): the
   tie-breaking rule the one-tree-per-source search must reproduce. *)
let reference_shortest_path g ~src ~dst =
  let n = G.num_nodes g in
  let parent = Array.make n (-1) and parent_edge = Array.make n (-1) in
  let seen = Array.make n false in
  seen.(src) <- true;
  let queue = Queue.create () in
  Queue.add src queue;
  while (not seen.(dst)) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun (v, e) ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          parent_edge.(v) <- e;
          Queue.add v queue
        end)
      (List.sort Stdlib.compare (G.neighbors g u))
  done;
  if not seen.(dst) then None
  else
    let rec walk v nodes es =
      if v = src then (v :: nodes, es)
      else walk parent.(v) (v :: nodes) (parent_edge.(v) :: es)
    in
    Some (walk dst [] [])

let prop_shortest_path_matches_per_pair_bfs =
  QCheck2.Test.make ~name:"shortest_path equals a per-pair BFS" ~count:200
    QCheck2.Gen.(pair (int_range 1 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      (* sparse, often disconnected, with parallel edges *)
      let rng = Prng.create ~seed in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Prng.bool rng ~p:0.25 then edges := (u, v) :: !edges;
          if Prng.bool rng ~p:0.05 then edges := (v, u) :: !edges
        done
      done;
      let g = G.create ~n ~edges:!edges in
      List.for_all
        (fun src ->
          let tree = G.bfs_tree g ~src in
          List.for_all
            (fun dst ->
              let expected = reference_shortest_path g ~src ~dst in
              G.shortest_path g ~src ~dst = expected
              && G.tree_path tree ~dst = expected)
            (List.init n Fun.id))
        (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Topology models                                                     *)
(* ------------------------------------------------------------------ *)

module Topo = Dls_graph.Topologies

let test_waxman_parameters_checked () =
  let rng = Prng.create ~seed:1 in
  Alcotest.check_raises "alpha range"
    (Invalid_argument "Topologies.waxman: alpha and beta must be in (0, 1]")
    (fun () -> ignore (Topo.waxman rng ~n:5 ~alpha:0.0 ~beta:0.5))

let test_waxman_prefers_short_links () =
  (* With a small beta, long links are rare: denser alpha with tiny beta
     must produce fewer edges than the same alpha with beta = 1. *)
  let edges ~beta =
    let rng = Prng.create ~seed:5 in
    let total = ref 0 in
    for _ = 1 to 10 do
      total := !total + G.num_edges (Topo.waxman rng ~n:30 ~alpha:0.9 ~beta)
    done;
    !total
  in
  Alcotest.(check bool) "short-bias" true (edges ~beta:0.05 < edges ~beta:1.0)

let test_barabasi_albert_shape () =
  let rng = Prng.create ~seed:6 in
  let g = Topo.barabasi_albert rng ~n:50 ~m:2 in
  Alcotest.(check int) "nodes" 50 (G.num_nodes g);
  (* Seed clique of 3 edges + 2 per arriving node. *)
  Alcotest.(check int) "edges" (3 + (2 * 47)) (G.num_edges g);
  Alcotest.(check bool) "connected" true (G.is_connected g);
  (* Preferential attachment produces at least one well-connected hub. *)
  let max_degree =
    List.fold_left (fun acc v -> Stdlib.max acc (G.degree g v)) 0
      (List.init 50 Fun.id)
  in
  Alcotest.(check bool) "hub exists" true (max_degree >= 8)

let prop_topologies_valid_graphs =
  QCheck2.Test.make ~name:"topology models produce valid simple-ish graphs"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Prng.create ~seed in
      let w = Topo.waxman rng ~n ~alpha:0.7 ~beta:0.4 in
      let b = Topo.barabasi_albert rng ~n ~m:2 in
      G.num_nodes w = n && G.num_nodes b = n
      && G.fold_edges (fun _ (u, v) ok -> ok && u <> v) w true
      && G.fold_edges (fun _ (u, v) ok -> ok && u <> v) b true)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dls_graph"
    [ ( "construction",
        [ Alcotest.test_case "basic" `Quick test_create_basic;
          Alcotest.test_case "self loop rejected" `Quick test_create_rejects_self_loop;
          Alcotest.test_case "range checked" `Quick test_create_rejects_out_of_range;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges_allowed;
          Alcotest.test_case "constructors" `Quick test_constructors ] );
      ( "paths",
        [ Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          Alcotest.test_case "path/edge consistency" `Quick test_path_edges_consistent;
          Alcotest.test_case "dijkstra = bfs on unit weights" `Quick
            test_dijkstra_matches_bfs_on_unit_weights;
          Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
          Alcotest.test_case "connect components" `Quick test_connect_components ] );
      ( "mis",
        [ Alcotest.test_case "known values" `Quick test_mis_known;
          Alcotest.test_case "set independent" `Quick test_mis_set_is_independent ] );
      ( "topologies",
        [ Alcotest.test_case "waxman validation" `Quick test_waxman_parameters_checked;
          Alcotest.test_case "waxman short bias" `Quick test_waxman_prefers_short_links;
          Alcotest.test_case "barabasi-albert shape" `Quick test_barabasi_albert_shape ] );
      qsuite "graph-prop"
        [ prop_mis_matches_brute_force; prop_gnp_connected_after_repair;
          prop_bfs_triangle_inequality; prop_shortest_path_matches_per_pair_bfs;
          prop_topologies_valid_graphs ] ]
