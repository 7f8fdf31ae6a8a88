(** The multi-cluster Grid platform model of Section 2 of the paper.

    A platform is a set of {e clusters}, each reduced to its front-end
    processor with cumulated speed [s_k] (load units per time unit) and a
    local-area link of capacity [g_k] (load units per time unit, shared
    proportionally among flows), attached to a {e router}.  Routers are
    joined by {e backbone links}, each granting a fixed bandwidth [bw]
    to every connection and capping the number of simultaneous
    connections at [max_connect].  Routing between clusters is fixed:
    [route p k l] is the ordered list of backbone link ids of the path
    used by all cluster-[k] to cluster-[l] traffic.

    Values of this type are immutable; heuristics that consume capacity
    (the greedy allocator) work on their own mutable residual copies. *)

type backbone = {
  bw : float;  (** bandwidth granted to each connection on this link *)
  max_connect : int;  (** cap on simultaneous connections (both directions) *)
}

type cluster = {
  speed : float;  (** cumulated compute speed [s_k] *)
  local_bw : float;  (** local link capacity [g_k] *)
  router : int;  (** index of the attached router in the topology *)
}

type t

val make :
  clusters:cluster array ->
  topology:Dls_graph.Graph.t ->
  backbones:backbone array ->
  t
(** [make ~clusters ~topology ~backbones] assembles a platform; the
    topology's nodes are routers and its edge ids index [backbones].
    Routes are computed once, as minimum-hop router paths with
    deterministic tie-breaking (the paper's routing is fixed but
    otherwise unspecified): one breadth-first search per distinct
    source router.  The link -> pairs index behind {!routes_through} is
    built here too.
    @raise Invalid_argument if array lengths disagree with the topology,
    a cluster references a missing router, or a parameter is negative. *)

val make_with_routes :
  clusters:cluster array ->
  topology:Dls_graph.Graph.t ->
  backbones:backbone array ->
  routes:(int * int * int list) list ->
  t
(** Like {!make} but with explicit routing-table overrides: each
    [(k, l, links)] entry forces the route from cluster [k] to cluster
    [l] to follow the given backbone link ids (used by the NP-hardness
    gadget, whose routes are part of the reduction).  Unlisted pairs use
    shortest paths.  Overridden routes are validated: the link sequence
    must form a path from [k]'s router to [l]'s router.
    @raise Invalid_argument on an invalid override. *)

val with_capacities : t -> clusters:cluster array -> backbones:backbone array -> t
(** [with_capacities p ~clusters ~backbones] is [p] with new cluster and
    backbone parameters on the same topology, keeping [p]'s routes
    (overrides included) and link index: no route is recomputed.  Used
    for capacity-only changes such as fault-degraded platforms.
    @raise Invalid_argument if the cluster count changes, a cluster
    moves to another router, or the inputs fail {!make}'s checks. *)

val num_clusters : t -> int
val num_routers : t -> int
val num_backbones : t -> int

val cluster : t -> int -> cluster
val backbone : t -> int -> backbone
val topology : t -> Dls_graph.Graph.t

val speed : t -> int -> float
(** [speed p k] is [s_k]. *)

val local_bw : t -> int -> float
(** [local_bw p k] is [g_k]. *)

val route : t -> int -> int -> int list option
(** Backbone link ids from cluster [k] to cluster [l]; [Some \[\]] when
    both clusters share a router (no backbone is crossed) and for
    [k = l]; [None] when no path exists. *)

val route_bottleneck : t -> int -> int -> float option
(** [g_{k,l}]: bandwidth available to one connection from [k] to [l] —
    the minimum [bw] over the route (Equation 4 of the paper).
    [Some infinity] for an empty route, [None] when unreachable. *)

val routes_through : t -> int -> (int * int) list
(** All ordered cluster pairs [(k, l)], [k <> l], whose route crosses the
    given backbone link — the summation domain of Equation 3 — sorted by
    [k], then [l], each pair once.  Read from an index built with the
    routes, in O(result). *)

val total_speed : t -> float
(** Sum of cluster speeds (an upper bound on aggregate throughput). *)

val validate : t -> (unit, string) result
(** Re-checks every internal invariant (parameter signs, route
    well-formedness, the link index against the route table); used by
    property tests and after manual construction. *)

val pp : Format.formatter -> t -> unit
