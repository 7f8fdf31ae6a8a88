type t = {
  n : int;
  edge_ends : (int * int) array;
  adj : (int * int) list array;  (* (neighbor, edge_id), reversed insertion order *)
  sorted_adj : (int * int) array array;  (* [adj] ascending by (neighbor, edge_id) *)
}

let create ~n ~edges =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  let edge_ends = Array.of_list edges in
  let adj = Array.make (Stdlib.max n 1) [] in
  Array.iteri
    (fun id (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.create: endpoint out of range";
      if u = v then invalid_arg "Graph.create: self-loop";
      adj.(u) <- (v, id) :: adj.(u);
      adj.(v) <- (u, id) :: adj.(v))
    edge_ends;
  let sorted_adj =
    Array.map
      (fun nbrs ->
        let a = Array.of_list nbrs in
        Array.sort Stdlib.compare a;
        a)
      adj
  in
  { n; edge_ends; adj; sorted_adj }

let num_nodes g = g.n
let num_edges g = Array.length g.edge_ends

let endpoints g id =
  if id < 0 || id >= Array.length g.edge_ends then
    invalid_arg "Graph.endpoints: bad edge id";
  g.edge_ends.(id)

let neighbors g u =
  if u < 0 || u >= g.n then invalid_arg "Graph.neighbors: bad node";
  g.adj.(u)

let degree g u = List.length (neighbors g u)

let mem_edge g u v = List.exists (fun (w, _) -> w = v) (neighbors g u)

let edges g = Array.copy g.edge_ends

let fold_edges f g acc =
  let acc = ref acc in
  Array.iteri (fun id ends -> acc := f id ends !acc) g.edge_ends;
  !acc

let components g =
  let label = Array.make (Stdlib.max g.n 1) (-1) in
  let next = ref 0 in
  for s = 0 to g.n - 1 do
    if label.(s) < 0 then begin
      let c = !next in
      incr next;
      let queue = Queue.create () in
      Queue.add s queue;
      label.(s) <- c;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun (v, _) ->
            if label.(v) < 0 then begin
              label.(v) <- c;
              Queue.add v queue
            end)
          g.adj.(u)
      done
    end
  done;
  Array.sub label 0 g.n

let is_connected g =
  if g.n <= 1 then true
  else begin
    let label = components g in
    Array.for_all (fun c -> c = 0) label
  end

let bfs_distances g ~src =
  if src < 0 || src >= g.n then invalid_arg "Graph.bfs_distances: bad node";
  let dist = Array.make g.n max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun (v, _) ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      g.adj.(u)
  done;
  dist

type bfs_tree = {
  src : int;
  parent : int array;  (* -1 for the source and unreachable nodes *)
  parent_edge : int array;
}

let bfs_tree g ~src =
  if src < 0 || src >= g.n then invalid_arg "Graph.bfs_tree: bad node";
  (* Neighbours are scanned in ascending (node, edge id) order, so the
     tree, and every path read from it, is deterministic. *)
  let parent = Array.make g.n (-1) in
  let parent_edge = Array.make g.n (-1) in
  let seen = Array.make g.n false in
  seen.(src) <- true;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun (v, e) ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          parent_edge.(v) <- e;
          Queue.add v queue
        end)
      g.sorted_adj.(u)
  done;
  { src; parent; parent_edge }

let tree_path tr ~dst =
  if dst < 0 || dst >= Array.length tr.parent then
    invalid_arg "Graph.tree_path: bad node";
  if dst <> tr.src && tr.parent.(dst) < 0 then None
  else begin
    let rec walk v nodes edges_acc =
      if v = tr.src then (v :: nodes, edges_acc)
      else walk tr.parent.(v) (v :: nodes) (tr.parent_edge.(v) :: edges_acc)
    in
    Some (walk dst [] [])
  end

let shortest_path g ~src ~dst =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Graph.shortest_path: bad node";
  tree_path (bfs_tree g ~src) ~dst

let complete n =
  let edges = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      edges := (u, v) :: !edges
    done
  done;
  create ~n ~edges:!edges

let path_graph n =
  create ~n ~edges:(List.init (Stdlib.max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Graph.cycle: need at least 3 nodes";
  create ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let star n =
  create ~n ~edges:(List.init (Stdlib.max 0 (n - 1)) (fun i -> (0, i + 1)))

let petersen () =
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  create ~n:10 ~edges:(outer @ spokes @ inner)

let gnp rng ~n ~p =
  let edges = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      if Dls_util.Prng.bool rng ~p then edges := (u, v) :: !edges
    done
  done;
  create ~n ~edges:!edges

let connect_components rng g =
  let label = components g in
  let ncomp = Array.fold_left (fun m c -> Stdlib.max m (c + 1)) 0 label in
  if ncomp <= 1 then g
  else begin
    (* Pick one random representative pair per merge, chaining components
       in a random order. *)
    let members = Array.make ncomp [] in
    Array.iteri (fun v c -> members.(c) <- v :: members.(c)) label;
    let order = Array.init ncomp (fun c -> c) in
    Dls_util.Prng.shuffle rng order;
    let new_edges = ref [] in
    for i = 0 to ncomp - 2 do
      let a = Array.of_list members.(order.(i)) in
      let b = Array.of_list members.(order.(i + 1)) in
      let u = Dls_util.Prng.pick rng a in
      let v = Dls_util.Prng.pick rng b in
      new_edges := (u, v) :: !new_edges
    done;
    create ~n:g.n ~edges:(Array.to_list g.edge_ends @ List.rev !new_edges)
  end

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@," g.n (num_edges g);
  Array.iteri (fun id (u, v) -> Format.fprintf fmt "  e%d: %d -- %d@," id u v) g.edge_ends;
  Format.fprintf fmt "@]"
