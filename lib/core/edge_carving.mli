(** The edge version of ball carving (Section 1.3): remove at most an [ε]
    fraction of the {e edges} so that every remaining connected component
    has small strong diameter. The paper notes the proofs mirror the node
    version; we provide the classic ball-growing instantiation, which is
    also the sequential template behind the [LS93] existential bound.

    Repeatedly grow a BFS ball from the smallest-identifier unprocessed
    node until the edge boundary is at most [ε · (edges inside + 1)];
    carve the ball, cut its boundary edges, continue on the rest. Each
    ball needs at most [O(log m / (ε))] growth steps, giving cluster
    diameter [O(log m/ε)] and at most [ε·(m + #clusters)] cut edges. *)

type result = {
  clustering : Cluster.Clustering.t;
      (** every domain node is clustered; clusters = components after
          removing [cut_edges] *)
  cut_edges : (int * int) list;
  max_radius : int;
}

val carve :
  ?cost:Congest.Cost.t ->
  ?domain:int array ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  result
(** [carve g ~epsilon] carves the ascending [domain] (default: every
    node).
    @raise Invalid_argument if [epsilon] is outside (0, 1) or [domain]
    fails {!Cluster.Carving.check_domain}. *)

val check :
  result -> epsilon:float -> Dsgraph.Graph.t -> (unit, string) Stdlib.result
(** Validates: clusters partition the domain, no surviving (non-cut) edge
    joins two clusters, cut fraction [<= ε·(m+k)/m], and every cluster's
    induced diameter is at most [2·max_radius]. *)
