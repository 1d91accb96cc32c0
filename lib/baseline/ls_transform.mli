(** Theorem 2.1 applied to a {e randomized} black box: the paper points
    out that its weak→strong transformation is new even for randomized
    algorithms (Elkin–Neiman's strong-diameter construction is a new
    algorithm, not a transformation). Composing the transformation with
    the Linial–Saks weak carving demonstrates exactly that: a randomized
    strong-diameter ball carving obtained {e purely} through Theorem 2.1.

    Since the black box has [R = O(log n/ε)] depth trees, the resulting
    strong diameter is [2·R(n, ε/(2 log n)) + O(log n/ε) = O(log² n/ε)] —
    one log factor better than the deterministic Theorem 2.2, matching the
    general statement of Theorem 2.1. *)

val carve : Dsgraph.Rng.t -> Cluster.Carving.carver
(** [carve rng] is the randomized strong-diameter ball carving via
    Theorem 2.1 over Linial–Saks: {!Strongdecomp.Transform.strong_carve}
    over {!Linial_saks.weak_carver}. All calls share one Linial–Saks and
    one transformation scratch, and draw from [rng]. *)

val decompose :
  ?cost:Congest.Cost.t ->
  Dsgraph.Rng.t ->
  Dsgraph.Graph.t ->
  Cluster.Decomposition.t
(** Randomized strong-diameter network decomposition: [O(log n)] colors,
    [O(log² n)]-shaped cluster diameter. *)
