(** Theorem 3.2: improving the diameter of a strong-diameter ball carving
    to [O(log^2 n/ε)] via recursive application of Lemma 3.1
    ({!Sparse_cut}).

    Level-synchronously: run the given strong carver [A] with boundary
    parameter [Θ(ε/log n)] on the active parts (pairwise non-adjacent by
    construction), then run Lemma 3.1 on each resulting cluster. A
    balanced sparse cut recurses on both sides (killing the separating
    layer); a large small-diameter component joins the final clustering
    (killing its outside boundary) and the remainder recurses. Every part
    shrinks by a factor [>= 3/2] per level, so there are [O(log n)]
    levels. *)

type stats = {
  levels : int;
  carver_invocations : int;
  lemma_invocations : int;
  cuts_taken : int;
  components_taken : int;
}

val improve :
  strong:Cluster.Carving.carver ->
  ?cost:Congest.Cost.t ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  int array array * stats
(** [improve ~strong] is Theorem 3.2 over the black box [A = strong],
    a {!Cluster.Carving.carver} with the stats of each call. Applying
    it to [~strong] makes the Lemma 3.1 scratch that all its calls
    share, so build it once per decomposition.

    Output contract: the clusters' member arrays (each ascending),
    pairwise non-adjacent, each inducing a connected subgraph with the
    [O(log^2 n/ε)] diameter shape; at most an [ε] fraction of the
    ascending [domain] dead (enforced by the constant choices in the
    implementation, verified by the test suite). Work: beyond [A]'s, a
    level costs the volume of its parts plus sorting them; nothing is
    [O(n)].
    @raise Invalid_argument if [epsilon] is outside (0, 1) or [domain]
    fails {!Cluster.Carving.check_domain}. *)
