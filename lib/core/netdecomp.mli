(** Network decompositions from ball carvings — the standard [LS93]
    reduction used by Theorems 2.3 and 3.4: repeat the carving with
    [ε = 1/2] on the not-yet-clustered nodes; the clusters produced by
    repetition [i] get color [i]. Each repetition clusters at least half
    of the remaining nodes, so [O(log n)] colors suffice. *)

val of_carver :
  ?cost:Congest.Cost.t ->
  ?epsilon:float ->
  ?domain:int array ->
  Cluster.Carving.carver ->
  Dsgraph.Graph.t ->
  Cluster.Decomposition.t
(** [of_carver carver g] builds a decomposition of the ascending
    [domain] (default: all nodes). Repetition [i] calls the
    {!Cluster.Carving.carver} on the domain nodes no earlier repetition
    clustered, in ascending order, and its clusters get color [i].
    [epsilon] (default [1/2]) is the per-repetition boundary parameter;
    any value in (0,1) yields [O(log_{1/(1-ε)} n)] colors. Beyond the
    carver's work, a color costs its remaining nodes.
    @raise Invalid_argument if a given [domain] fails
    {!Cluster.Carving.check_domain} (the domains the loop builds itself
    are ascending by construction and not checked again).
    @raise Failure if a repetition clusters nothing (broken carver). *)

val strong :
  ?cost:Congest.Cost.t ->
  ?preset:Weakdiam.Weak_carving.preset ->
  Dsgraph.Graph.t ->
  Cluster.Decomposition.t
(** Theorem 2.3: strong-diameter network decomposition with [O(log n)]
    colors and [O(log^3 n)]-shaped cluster diameter. *)

val strong_improved :
  ?cost:Congest.Cost.t ->
  ?preset:Weakdiam.Weak_carving.preset ->
  Dsgraph.Graph.t ->
  Cluster.Decomposition.t
(** Theorem 3.4: strong-diameter network decomposition with [O(log n)]
    colors and [O(log^2 n)]-shaped cluster diameter. *)

val weak :
  ?cost:Congest.Cost.t ->
  ?preset:Weakdiam.Weak_carving.preset ->
  Dsgraph.Graph.t ->
  Cluster.Decomposition.t
(** The weak-diameter decomposition rows of Table 1 ([RG20]/[GGR21]):
    iterate the weak carving directly. Clusters may induce disconnected
    subgraphs; their {e weak} diameter is the relevant parameter. *)
