(** Sequential greedy ball-growing decomposition — the classic
    Awerbuch-style construction behind the [LS93] existential
    [(O(log n), O(log n))] bound and, with larger growth bases, the
    quality profile of the [AGLP89]/[PS92]/[Gha19] [2^{O(√log n)}]
    deterministic rows of Table 1.

    Per color: repeatedly pick the smallest-identifier remaining node,
    grow its ball until a radius [r] with [|B_{r+1}| <= β·|B_r|] (found
    within [log_β n] steps), cluster [B_r], and postpone the boundary
    layer to later colors. Each color clusters at least a [1/β] fraction
    of what it touches, so there are [O(β log n)] colors with clusters of
    strong diameter [O(log_β n)] — a (colors vs diameter) trade-off dial.

    These baselines exist as {e output-quality} comparators; their round
    columns in Table 1 are analytical (the originals' contribution is
    round complexity, not output quality). *)

type preset =
  | Ls93_existential  (** [β = 2]: [(O(log n), O(log n))] *)
  | Aglp  (** [β = 2^√(log n · log log n)] *)
  | Gha19  (** [β = 2^√(log n)] *)

val beta_of_preset : preset -> n:int -> float

val carve :
  ?cost:Congest.Cost.t ->
  ?beta:float ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  int array array
(** One greedy pass over [G\[domain\]], [domain] being ascending ids
    ([β] defaults to [1/(1-ε)], so that at most an [ε] fraction of the
    domain is dead): the member arrays of non-adjacent connected clusters
    of strong diameter [<= 2·log_β n], the {!Cluster.Carving.carver}
    contract ({!Cluster.Carving.of_clusters} makes them a carving).
    @raise Invalid_argument as {!Cluster.Carving.check_domain}. *)

val decompose :
  ?cost:Congest.Cost.t ->
  ?preset:preset ->
  Dsgraph.Graph.t ->
  Cluster.Decomposition.t
(** Full colored decomposition (default preset {!Ls93_existential}). *)
