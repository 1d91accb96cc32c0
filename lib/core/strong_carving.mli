(** Instantiations of the paper's strong-diameter ball carving theorems.

    - {!carve} is Theorem 2.2: the Theorem 2.1 transformation
      ({!Transform}) applied to the deterministic weak-diameter carving of
      [lib/weakdiam], giving strong diameter [O(log^3 n/ε)] in
      [O(log^7 n/ε^2)] rounds.
    - {!carve_improved} is Theorem 3.3: Theorem 3.2 ({!Improve}) applied
      to Theorem 2.2, giving strong diameter [O(log^2 n/ε)] in
      [O(log^10 n/ε^2)] rounds. *)

val weak_of_preset :
  ?scratch:Weakdiam.Weak_carving.scratch ->
  Weakdiam.Weak_carving.preset ->
  Transform.weak_carver
(** Package the weak-diameter engine as the black box [A] of
    Theorem 2.1. Every invocation of the returned carver runs through one
    {!Weakdiam.Weak_carving.scratch}: [scratch] if given, else one made
    when [weak_of_preset] is applied. *)

val carve :
  ?cost:Congest.Cost.t ->
  ?preset:Weakdiam.Weak_carving.preset ->
  ?scratch:Weakdiam.Weak_carving.scratch ->
  ?domain:Dsgraph.Mask.t ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  Cluster.Carving.t * Transform.stats
(** Theorem 2.2. Every output cluster induces a connected subgraph;
    clusters are pairwise non-adjacent; at most an [ε] fraction of the
    domain is dead. All weak carvings of the call share [scratch] (a
    fresh one if absent); pass one scratch to every call of a
    decomposition. *)

val carve_improved :
  ?cost:Congest.Cost.t ->
  ?preset:Weakdiam.Weak_carving.preset ->
  ?scratch:Weakdiam.Weak_carving.scratch ->
  ?domain:Dsgraph.Mask.t ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  Cluster.Carving.t * Improve.stats
(** Theorem 3.3: same contract with the improved [O(log^2 n/ε)] diameter
    shape. *)

type carver =
  ?cost:Congest.Cost.t ->
  ?domain:Dsgraph.Mask.t ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  Cluster.Carving.t
(** Uniform signature shared by every strong carver in this repository
    (paper algorithms and baselines), used by the decomposition reduction
    and the benchmarks. *)

val as_carver :
  (?cost:Congest.Cost.t ->
  ?domain:Dsgraph.Mask.t ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  Cluster.Carving.t * 'a) ->
  carver
(** Drop the stats component. *)
