(** Ball-carving results: a clustering of part of a node set, with the
    remaining nodes {i dead} (removed). This is the output type of both the
    weak-diameter algorithm [A] and the paper's strong-diameter algorithm
    [B] of Theorem 2.1. *)

type t = {
  clustering : Clustering.t;
  domain : Dsgraph.Mask.t;
      (** The node set the carving ran on (the algorithm may be invoked on
          an induced subgraph [G\[S\]]). *)
}

val make : Clustering.t -> domain:Dsgraph.Mask.t -> t
(** @raise Invalid_argument if a clustered node lies outside the domain. *)

val of_clusters :
  Dsgraph.Graph.t -> domain:Dsgraph.Mask.t -> int array array -> t
(** The carving of [domain] whose clusters are the disjoint member
    arrays [clusters]; domain nodes in none are dead. Raises as {!make}. *)

type carver =
  ?cost:Congest.Cost.t ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  int array array
(** The one carver contract: a ball carving of [G\[domain\]], [domain]
    being strictly ascending node ids. It returns the clusters' disjoint
    member arrays, in any order and each in any order; domain nodes in
    none are dead. A carver makes its node-indexed memory once, when it
    is built, so a call costs its domain, not the graph. The [LS93] color
    loop, Theorem 3.2's black box and every strong carver of Table 1
    meet here. *)

val check_domain : string -> Dsgraph.Graph.t -> int array -> unit
(** [check_domain name g domain] checks the {!carver} contract's domain.
    @raise Invalid_argument ["<name>: domain must be strictly ascending
    node ids of the graph"]. *)

val of_carver :
  ?cost:Congest.Cost.t -> carver -> Dsgraph.Graph.t -> epsilon:float -> t
(** One call of the carver on all of [g]'s nodes, as a carving. *)

val dead : t -> int list
(** Domain nodes left unclustered. *)

val dead_fraction : t -> float
(** [|dead| / |domain|]; [0] on an empty domain. *)

val check_weak :
  ?epsilon:float ->
  ?steiner:Steiner.forest ->
  ?depth_bound:int ->
  ?congestion_bound:int ->
  t ->
  (unit, string) result
(** Validates the weak-carving contract: clusters are non-adjacent and
    confined to the domain, the dead fraction is at most [epsilon], and —
    when a Steiner forest is supplied — each cluster has a valid tree
    within the given depth and congestion bounds. *)

val check_strong :
  ?epsilon:float -> ?diameter_bound:int -> t -> (unit, string) result
(** Validates the strong-carving contract: additionally every cluster's
    {e induced} subgraph is connected with diameter at most
    [diameter_bound]. *)
