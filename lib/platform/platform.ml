module G = Dls_graph.Graph

type backbone = { bw : float; max_connect : int }

type cluster = { speed : float; local_bw : float; router : int }

type t = {
  clusters : cluster array;
  topology : G.t;
  backbones : backbone array;
  routes : int list option array array;  (* [k].[l] -> backbone ids *)
  through : int array array;
      (* [link] -> ascending [k * K + l] of every pair [k <> l] whose
         route crosses it: Eq. 3's summation domain, packed *)
}

let check_inputs ~clusters ~topology ~backbones =
  if Array.length backbones <> G.num_edges topology then
    invalid_arg "Platform.make: one backbone descriptor per topology edge required";
  Array.iteri
    (fun k c ->
      if c.speed < 0.0 then
        invalid_arg (Printf.sprintf "Platform.make: cluster %d has negative speed" k);
      if c.local_bw < 0.0 then
        invalid_arg (Printf.sprintf "Platform.make: cluster %d has negative local_bw" k);
      if c.router < 0 || c.router >= G.num_nodes topology then
        invalid_arg (Printf.sprintf "Platform.make: cluster %d references bad router" k))
    clusters;
  Array.iteri
    (fun i b ->
      if b.bw <= 0.0 then
        invalid_arg (Printf.sprintf "Platform.make: backbone %d has non-positive bw" i);
      if b.max_connect < 0 then
        invalid_arg (Printf.sprintf "Platform.make: backbone %d has negative max_connect" i))
    backbones

(* Validates that [links] is a path of backbone edges from router [src]
   to router [dst]; returns unit or raises. *)
let check_route topology ~src ~dst links =
  let pos = ref src in
  List.iter
    (fun e ->
      if e < 0 || e >= G.num_edges topology then
        invalid_arg "Platform: route references unknown backbone link";
      let u, v = G.endpoints topology e in
      if u = !pos then pos := v
      else if v = !pos then pos := u
      else invalid_arg "Platform: route is not a connected path")
    links;
  if !pos <> dst then invalid_arg "Platform: route does not reach the destination router"

(* One BFS per distinct source router answers every destination.
   Clusters on one router get copies of its row: overrides write into
   the table, and must not leak to a co-located cluster. *)
let compute_routes ~clusters ~topology =
  let kk = Array.length clusters in
  let router k = clusters.(k).router in
  let rows = Array.make (G.num_nodes topology) [||] in
  Array.init kk (fun k ->
      if rows.(router k) = [||] then begin
        let tree = G.bfs_tree topology ~src:(router k) in
        rows.(router k) <-
          Array.init kk (fun l -> Option.map snd (G.tree_path tree ~dst:(router l)))
      end;
      Array.copy rows.(router k))

(* Packed link -> pairs index, in pair order; a pair whose route repeats
   a link (an override may) is listed once. *)
let build_through ~num_links routes =
  let kk = Array.length routes in
  let count = Array.make num_links 0 in
  let last = Array.make num_links (-1) in
  let each f =
    Array.fill last 0 num_links (-1);
    for k = 0 to kk - 1 do
      for l = 0 to kk - 1 do
        if k <> l then
          match routes.(k).(l) with
          | None -> ()
          | Some links ->
            let code = (k * kk) + l in
            List.iter
              (fun e ->
                if last.(e) <> code then begin
                  last.(e) <- code;
                  f e code
                end)
              links
      done
    done
  in
  each (fun e _ -> count.(e) <- count.(e) + 1);
  let through = Array.map (fun n -> Array.make n 0) count in
  Array.fill count 0 num_links 0;
  each (fun e code ->
      through.(e).(count.(e)) <- code;
      count.(e) <- count.(e) + 1);
  through

let make_with_routes ~clusters ~topology ~backbones ~routes:overrides =
  check_inputs ~clusters ~topology ~backbones;
  let routes = compute_routes ~clusters ~topology in
  let kk = Array.length clusters in
  List.iter
    (fun (k, l, links) ->
      if k < 0 || k >= kk || l < 0 || l >= kk then
        invalid_arg "Platform.make_with_routes: bad cluster index in override";
      check_route topology ~src:clusters.(k).router ~dst:clusters.(l).router links;
      routes.(k).(l) <- Some links)
    overrides;
  let through = build_through ~num_links:(Array.length backbones) routes in
  { clusters; topology; backbones; routes; through }

let make ~clusters ~topology ~backbones =
  make_with_routes ~clusters ~topology ~backbones ~routes:[]

let with_capacities t ~clusters ~backbones =
  if Array.length clusters <> Array.length t.clusters then
    invalid_arg "Platform.with_capacities: cluster count changed";
  Array.iteri
    (fun k c ->
      if c.router <> t.clusters.(k).router then
        invalid_arg
          (Printf.sprintf "Platform.with_capacities: cluster %d moved router" k))
    clusters;
  check_inputs ~clusters ~topology:t.topology ~backbones;
  { t with clusters; backbones }

let num_clusters t = Array.length t.clusters
let num_routers t = G.num_nodes t.topology
let num_backbones t = Array.length t.backbones

let cluster t k =
  if k < 0 || k >= num_clusters t then invalid_arg "Platform.cluster: bad index";
  t.clusters.(k)

let backbone t i =
  if i < 0 || i >= num_backbones t then invalid_arg "Platform.backbone: bad index";
  t.backbones.(i)

let topology t = t.topology

let speed t k = (cluster t k).speed
let local_bw t k = (cluster t k).local_bw

let route t k l =
  if k < 0 || k >= num_clusters t || l < 0 || l >= num_clusters t then
    invalid_arg "Platform.route: bad cluster index";
  t.routes.(k).(l)

let route_bottleneck t k l =
  match route t k l with
  | None -> None
  | Some [] -> Some infinity
  | Some links ->
    Some (List.fold_left (fun acc e -> Float.min acc t.backbones.(e).bw) infinity links)

let routes_through t link =
  if link < 0 || link >= num_backbones t then
    invalid_arg "Platform.routes_through: bad link";
  let kk = num_clusters t in
  Array.fold_right (fun code acc -> (code / kk, code mod kk) :: acc) t.through.(link) []

let total_speed t = Array.fold_left (fun s c -> s +. c.speed) 0.0 t.clusters

let validate t =
  try
    check_inputs ~clusters:t.clusters ~topology:t.topology ~backbones:t.backbones;
    let kk = num_clusters t in
    if Array.length t.routes <> kk then failwith "route table has wrong row count";
    for k = 0 to kk - 1 do
      if Array.length t.routes.(k) <> kk then failwith "route table has wrong column count";
      for l = 0 to kk - 1 do
        match t.routes.(k).(l) with
        | None -> if k = l then failwith "missing self route"
        | Some links ->
          check_route t.topology ~src:t.clusters.(k).router
            ~dst:t.clusters.(l).router links
      done
    done;
    if t.through <> build_through ~num_links:(num_backbones t) t.routes then
      failwith "link index disagrees with the route table";
    Ok ()
  with
  | Invalid_argument msg | Failure msg -> Error msg

let pp fmt t =
  Format.fprintf fmt "@[<v>platform: %d clusters, %d routers, %d backbones@,"
    (num_clusters t) (num_routers t) (num_backbones t);
  Array.iteri
    (fun k c ->
      Format.fprintf fmt "  C%d: s=%g g=%g router=%d@," k c.speed c.local_bw c.router)
    t.clusters;
  Array.iteri
    (fun i b ->
      let u, v = G.endpoints t.topology i in
      Format.fprintf fmt "  l%d: %d--%d bw=%g maxcon=%d@," i u v b.bw b.max_connect)
    t.backbones;
  Format.fprintf fmt "@]"
