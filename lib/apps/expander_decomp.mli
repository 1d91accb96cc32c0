(** Expander decomposition driven by Lemma 3.1 — the application family
    the paper's introduction cites for ball carving ([CS20], [CPSZ21]).

    Recursively apply {!Strongdecomp.Sparse_cut}: when it returns a
    balanced sparse cut, split and recurse on both sides (the separating
    layer is absorbed into the smaller side as singleton clusters after
    the recursion bottoms out — no node is lost); when it returns a large
    small-diameter component, emit it as a cluster and recurse on the
    rest. Parts without balanced sparse cuts at the [ε n/log n] scale are
    exactly the "no-sparse-cut" certificates Lemma 3.1 can give, so the
    emitted clusters are low-diameter or well-connected regions.

    This is a {e Lemma 3.1-powered} decomposition with measured quality —
    we report the fraction of inter-cluster edges and each cluster's sweep
    conductance — rather than a reproduction of the full [CS20]
    machinery. *)

type t = {
  clustering : Cluster.Clustering.t;  (** covers every node *)
  inter_cluster_edges : int;
  levels : int;
}

val decompose :
  ?cost:Congest.Cost.t ->
  ?epsilon:float ->
  Dsgraph.Graph.t ->
  t
(** [epsilon] (default 1/2) controls the sparse-cut scale. *)

val inter_cluster_fraction : Dsgraph.Graph.t -> t -> float

val check : Dsgraph.Graph.t -> t -> (unit, string) result
(** Clusters partition the node set and each induces a connected
    subgraph. *)
