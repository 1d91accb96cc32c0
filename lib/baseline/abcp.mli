(** The Awerbuch–Berger–Cowen–Peleg (1996) weak→strong transformation —
    the paper's foil. It achieves strong diameter by {e gathering whole
    cluster topologies} to cluster centers and carving centrally, which
    requires messages proportional to the cluster's edge count: perfectly
    fine in the LOCAL model, but not a CONGEST algorithm. We implement it
    and {e measure} the maximum message size; experiment F.MSG contrasts
    it with the [O(log n)]-bit messages of the paper's transformation.

    Recipe (Section 1.4 of the paper): run a weak-diameter decomposition
    on the power graph [G^{2d}], [d = ceil(log2 n)], so same-color
    clusters are [> 2d] apart in [G]. Process colors in order; per
    cluster, gather the topology of the cluster plus its [d]-hop
    neighborhood at the center (disjoint across same-color clusters) and
    run the sequential carving: repeatedly pick an unprocessed cluster
    node [v], find the smallest [r] with
    [|B_{r+1}(v)| <= (1/(1-ε))·|B_r(v)|] among the still-alive nodes
    ([r <= d] always suffices), emit [B_r(v)] as a strong cluster and kill
    the next layer. *)

type info = {
  max_message_bits : int;
      (** the headline number: bits of the largest topology-gathering
          message, [Θ(cluster edges · log n)] *)
  power_colors : int;  (** colors of the decomposition on [G^{2d}] *)
  rounds : int;
}

val carve :
  ?cost:Congest.Cost.t ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  int array array * info
(** Strong-diameter ball carving of the ascending [domain], as a
    {!Cluster.Carving.carver} with [info]: dead fraction [<= ε] and
    cluster diameter [<= 2·log_{1/(1-ε)} n]. Beyond the power graph,
    which is built on all of [G], every search is truncated (to [2d] or
    [d] hops, or at the carved ball's kill layer) and counts the edges
    it gathers on the rows it reached.
    @raise Invalid_argument on [ε] outside (0, 1) or a domain failing
    {!Cluster.Carving.check_domain}. *)

val decompose :
  ?cost:Congest.Cost.t -> Dsgraph.Graph.t -> Cluster.Decomposition.t * info
(** Strong decomposition via repeated carving with [ε = 1/2]; [info]
    aggregates the maxima across repetitions. *)
