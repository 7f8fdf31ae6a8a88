(** Undirected multigraph with integer nodes and identified edges.

    The platform's inter-cluster topology (Section 2 of the paper) is a
    graph of routers and backbone links; edge identities matter because
    each backbone link carries its own [bw]/[max-connect] parameters and
    the routing tables are ordered lists of edge ids. *)

type t

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds a graph on nodes [0 .. n-1]; edge [i] of
    the list gets id [i].  Self-loops are rejected; parallel edges are
    allowed (they are distinct backbone links).
    @raise Invalid_argument on out-of-range endpoints or self-loops. *)

val num_nodes : t -> int
val num_edges : t -> int

val endpoints : t -> int -> int * int
(** Endpoints of an edge id.
    @raise Invalid_argument on a bad id. *)

val neighbors : t -> int -> (int * int) list
(** [(neighbor, edge_id)] pairs incident to a node. *)

val degree : t -> int -> int

val mem_edge : t -> int -> int -> bool
(** Whether some edge joins the two nodes. *)

val edges : t -> (int * int) array
(** Endpoint array indexed by edge id. *)

val fold_edges : (int -> int * int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g acc] folds [f edge_id (u, v)] over all edges. *)

val is_connected : t -> bool
(** True for the empty and one-node graphs. *)

val components : t -> int array
(** Component label per node (labels are arbitrary but consistent). *)

val bfs_distances : t -> src:int -> int array
(** Hop distances from [src]; [max_int] for unreachable nodes. *)

type bfs_tree
(** Minimum-hop paths from one source to every node. *)

val bfs_tree : t -> src:int -> bfs_tree
(** One breadth-first search from [src], scanning neighbours in
    ascending (node, edge id) order: ties are broken toward smaller node
    ids, then smaller edge ids.
    @raise Invalid_argument on a bad node. *)

val tree_path : bfs_tree -> dst:int -> (int list * int list) option
(** The tree's path to [dst], as {!shortest_path} returns it; O(hops).
    @raise Invalid_argument on a bad node. *)

val shortest_path : t -> src:int -> dst:int -> (int list * int list) option
(** Minimum-hop path as [(node_list, edge_id_list)], with
    [node_list = src :: ... :: dst] and one edge id per hop.  [None] when
    unreachable; [Some ([src], [])] when [src = dst].  Deterministic:
    [tree_path (bfs_tree g ~src) ~dst], so a caller that needs many
    destinations should build the tree once. *)

(** {2 Constructors used by tests and examples} *)

val complete : int -> t
val path_graph : int -> t
val cycle : int -> t
(** @raise Invalid_argument for [cycle n] with [n < 3]. *)

val star : int -> t
(** [star n]: node 0 joined to nodes [1 .. n-1]. *)

val petersen : unit -> t
(** The Petersen graph (10 nodes, 15 edges); its maximum independent set
    has size 4 — a classic witness for the MIS-based reduction tests. *)

val gnp : Dls_util.Prng.t -> n:int -> p:float -> t
(** Erdos-Renyi random graph: each pair joined with probability [p]. *)

val connect_components : Dls_util.Prng.t -> t -> t
(** Adds uniformly chosen inter-component edges until the graph is
    connected (at most [#components - 1] new edges); the input edges keep
    their ids, new edges get fresh ids at the end. *)

val pp : Format.formatter -> t -> unit
