(** Linial–Saks (1993) randomized weak-diameter ball carving and network
    decomposition — the Table 1/2 randomized weak rows.

    One carving round: every domain node [u] samples a radius
    [r_u ~ Geometric(ε)] capped at [O(log n)]; every node [v] elects, among
    the nodes [u] whose sampled ball [B_{r_u}(u)] covers it, the one with
    the largest identifier. If [dist(v, u) < r_u] (strict interior), [v]
    joins [u]'s cluster; if [dist(v, u) = r_u] it dies. By memorylessness
    of the geometric distribution each node dies with probability [<= ε];
    a Las Vegas retry enforces the bound per invocation. Same-color
    clusters are non-adjacent by the standard priority argument; clusters
    have weak diameter [<= 2·r_max = O(log n / ε)]. *)

val carve : ?max_retries:int -> Dsgraph.Rng.t -> Cluster.Carving.carver
(** [carve rng] is the carving as a {!Cluster.Carving.carver}, whose
    calls share one scratch and draw from [rng]. Each call retries the
    sampling (default 60 attempts) until the dead fraction is at most
    [ε]; the clusters come ascending, in order of smallest member. Work
    per attempt: the domain, plus each center's search up to the nodes
    a higher-priority center already covers with as much radius left.
    @raise Invalid_argument on [ε] outside (0, 1) or a domain failing
    {!Cluster.Carving.check_domain}.
    @raise Failure if no attempt succeeds. *)

val max_radius : n:int -> epsilon:float -> int
(** The radius cap [O(log n/ε)]. *)

val winners :
  Dsgraph.Rng.t ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  (int * int) array * int
(** One sampling pass, without retry: for each domain position the
    winning center (the largest-id center whose ball covers the node)
    and its remaining radius there ([>= 1]: clustered, [0]: dead), and
    the largest radius drawn. Exposed for tests. *)

val decompose :
  ?cost:Congest.Cost.t ->
  Dsgraph.Rng.t ->
  Dsgraph.Graph.t ->
  Cluster.Decomposition.t
(** [O(log n)]-color weak-diameter network decomposition via repeated
    carving with [ε = 1/2]. *)

val carve_with_trees :
  ?max_retries:int ->
  Dsgraph.Rng.t ->
  ?cost:Congest.Cost.t ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  int array array * Cluster.Steiner.forest
(** Like {!carve}, additionally materializing each cluster's Steiner tree
    (same indexing): the shortest-path tree from the cluster center to
    its members (depth [<= r_center <= ]{!max_radius}), possibly routing
    through nodes outside the cluster — exactly the augmentation the
    weak-carving interface of Theorem 2.1 requires. A tree lists its
    pairs as the members' BFS chains, walked from the largest member. *)

val weak_carver : Dsgraph.Rng.t -> Strongdecomp.Transform.weak_carver
(** Package Linial–Saks as the black box [A] of Theorem 2.1: {!carve}'s
    clusters with their centers, the largest member distance as the
    depth and the most trees on one edge as the congestion, counted on
    the trees' own edges without listing them. Composing
    [Transform.strong_carve ~weak:(weak_carver rng)] yields a {e
    randomized} strong-diameter ball carving through the paper's
    transformation — the paper notes such a transformation was previously
    unknown even for randomized algorithms. See
    {!Ls_transform}. *)
