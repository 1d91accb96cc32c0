(** Instantiations of the paper's strong-diameter ball carving theorems.

    - {!carve} is Theorem 2.2: the Theorem 2.1 transformation
      ({!Transform}) applied to the deterministic weak-diameter carving of
      [lib/weakdiam], giving strong diameter [O(log^3 n/ε)] in
      [O(log^7 n/ε^2)] rounds.
    - {!carve_improved} is Theorem 3.3: Theorem 3.2 ({!Improve}) applied
      to Theorem 2.2, giving strong diameter [O(log^2 n/ε)] in
      [O(log^10 n/ε^2)] rounds. *)

val weak_of_preset : Weakdiam.Weak_carving.preset -> Transform.weak_carver
(** Package the weak-diameter engine as the black box [A] of
    Theorem 2.1. Every invocation of the returned carver runs through one
    {!Weakdiam.Weak_carving.scratch}, made when [weak_of_preset] is
    applied. *)

val carve :
  ?preset:Weakdiam.Weak_carving.preset -> unit -> Cluster.Carving.carver
(** Theorem 2.2 as a {!Cluster.Carving.carver}: {!Transform.strong_carve}
    over {!weak_of_preset}, under the ["strong_carving"] span. Every
    output cluster induces a connected subgraph; clusters are pairwise
    non-adjacent; at most an [ε] fraction of the ascending domain is
    dead. The returned carver owns one weak and one {!Transform}
    scratch, which all its calls share; build it once per
    decomposition. *)

val carve_improved :
  ?preset:Weakdiam.Weak_carving.preset -> unit -> Cluster.Carving.carver
(** Theorem 3.3: {!Improve.improve} over {!carve}, under the
    ["strong_carving_improved"] span: the same contract with the
    improved [O(log^2 n/ε)] diameter shape. [carve_improved ()] builds
    the scratches that all calls of the returned carver share. Its
    {!Improve.stats} are read by calling
    [Improve.improve ~strong:(carve ())] directly. *)
