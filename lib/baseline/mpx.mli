(** Miller–Peng–Xu (2013) random-shift clustering and the Elkin–Neiman
    (2016) style strong-diameter carving/decomposition built on it — the
    Table 1/2 randomized {e strong} rows.

    Every node [u] draws a shift [δ_u ~ Exp(β)]; node [v] is assigned to
    the center minimizing [dist(u, v) - δ_u]. Along a key-realizing
    shortest path every node is assigned to the same center, so clusters
    induce connected subgraphs of radius [O(log n / β)] w.h.p.

    For the carving we additionally kill every node whose best and
    second-best keys differ by at most 2 hops; surviving clusters are
    pairwise non-adjacent, and by the exponential padding property a node
    is killed with probability [O(β)], independent of its degree. A Las
    Vegas retry enforces the dead fraction. After the kill a cluster may
    split; we emit its connected components as separate clusters (a small
    deviation from EN16, measured rather than proven: the diameter shape
    stays [O(log n/ε)], see EXPERIMENTS.md). *)

val partition :
  Dsgraph.Rng.t -> Dsgraph.Graph.t -> beta:float -> Cluster.Clustering.t
(** The plain MPX partition: every node assigned to a center; clusters
    induce connected subgraphs. No dead nodes, clusters may be
    adjacent. *)

val carve : ?max_retries:int -> Dsgraph.Rng.t -> Cluster.Carving.carver
(** [carve rng] is the strong-diameter ball carving as a
    {!Cluster.Carving.carver}, whose calls share one scratch and draw
    from [rng]: non-adjacent connected clusters (each ascending), dead
    fraction [<= ε] (enforced by retry, default 60 attempts; [β = ε/6]).
    Work per attempt: the domain's volume, the heap aside.
    @raise Invalid_argument on [ε] outside (0, 1) or a domain failing
    {!Cluster.Carving.check_domain}.
    @raise Failure if no attempt succeeds. *)

val decompose :
  ?cost:Congest.Cost.t ->
  Dsgraph.Rng.t ->
  Dsgraph.Graph.t ->
  Cluster.Decomposition.t
(** [O(log n)]-color strong-diameter decomposition via repeated carving
    with [ε = 1/2]. *)
