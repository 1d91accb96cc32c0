(** Deterministic weak-diameter ball carving — the Rozhoň–Ghaffari (STOC
    2020) bit-phase cluster-growing algorithm, with the Ghaffari–Grunau–
    Rozhoň (SODA 2021) parameter preset. This is the black-box algorithm
    [A] consumed by the paper's Theorem 2.1 transformation.

    The algorithm runs [b = ceil(log2 n)] phases, one per identifier bit.
    Every node starts as its own cluster labeled by its identifier. In
    phase [i], clusters whose label has bit [i] clear are {e blue}, the
    others {e red}. Repeatedly, every red node adjacent to a live blue
    cluster proposes to one such cluster; a blue cluster that receives
    enough proposals absorbs the proposers (they adopt its label and hang
    onto its Steiner tree via the proposal edge); a blue cluster that
    receives too few stops for the phase and its proposers die. At the end
    of phase [i], adjacent alive nodes agree on identifier bits [0..i], so
    after all phases the surviving clusters are non-adjacent.

    Presets differ in the growth threshold:
    - {!Rg20} grows when proposals [>= ε/(2b) · |C|]. Worst-case
      guarantees: dead fraction [<= ε], Steiner depth
      [R = O(log^3 n / ε)], congestion [L <= b + 1 = O(log n)].
    - {!Ggr21} grows when proposals [>= ε/2 · max(joined this phase, 1)],
      reproducing GGR21's depth [R = O(log^2 n / ε)] and step count
      [O(log n/ε)] per phase. Its worst-case dead-fraction argument is the
      part of GGR21 we simplified away (see DESIGN.md §2); the [ε] bound
      is enforced empirically by the test suite across the whole workload
      suite, and holds with large slack in practice because a cluster only
      kills when it stops with a nonzero but sub-threshold proposal set.
    - {!Hybrid} grows when {e either} criterion is met (threshold =
      min of the two) — the {e minimum-deaths} point of the design
      space. Stopping is rarest here and a stopping cluster kills fewer
      than its RG20 threshold, so the RG20 worst-case dead-fraction proof
      carries over verbatim. The flip side, visible in ablation A1, is
      that GGR21's shallower trees come precisely from stopping {e more}
      aggressively, so Hybrid's depths track the RG20 preset. Use it when
      dead nodes are expensive and diameter is not. *)

type preset = Rg20 | Ggr21 | Hybrid

type local = {
  members : int array array;
      (** each cluster's members, ascending; clusters in order of their
          smallest member (the order {!Cluster.Clustering.make}
          normalizes to) *)
  roots : int array;
      (** each cluster's label, the root of its Steiner tree, same
          indexing *)
  dead : int array;  (** the unclustered domain nodes, ascending *)
  steps : int;  (** total growth/stop exchange steps across phases *)
  phases : int;
  steps_per_phase : int list;
  max_depth : int;  (** measured max Steiner depth [R] *)
  congestion : int;  (** measured max trees per edge [L] *)
}
(** A carving described by its domain alone: no array, list or mask
    indexed by the graph's nodes, so it costs the domain's size. The
    Steiner trees themselves are not materialized: listing each one as
    [(node, parent)] pairs costs a list cell and a pair per tree entry,
    which Theorem 2.1 never reads (it reads each tree's root, depth and
    congestion). {!carve} returns them. *)

type result = {
  carving : Cluster.Carving.t;
  forest : Cluster.Steiner.forest;
      (** tree per cluster, same indexing; each tree's [parent] pairs are
          every node that ever entered it, in ascending node order *)
  steps : int;  (** total growth/stop exchange steps across phases *)
  phases : int;
  steps_per_phase : int list;
      (** step counts per phase, used to schedule the genuinely
          distributed execution ({!Distributed}) *)
  max_depth : int;  (** measured max Steiner depth [R] *)
  congestion : int;  (** measured max trees per edge [L] *)
}

type scratch
(** Caller-owned working memory for {!carve} and {!carve_local}:
    per-label and per-node arrays, the Steiner trail arena (written only
    by {!carve}) and per-edge congestion counts. Hold
    one per decomposition and pass it to every call; a call without one
    allocates its own. A scratch serves any number of calls, on any
    graphs, one call at a time: it grows to the largest graph it has
    carved and is reset in [O(|domain| + tree edges)] as each call
    returns (also when it raises). *)

val scratch : unit -> scratch
(** An empty scratch; the first {!carve} sizes it. *)

val carve_local :
  ?preset:preset ->
  ?scratch:scratch ->
  ?cost:Congest.Cost.t ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  local
(** [carve_local g ~domain ~epsilon] runs the carving on [G\[domain\]],
    [domain] being ascending node ids. Same guarantees, schedule and
    cost charges as {!carve} on the same node set.

    Work: the first step of each phase scans the alive red domain nodes
    and their rows; every later step scans only the red neighbours of the
    previous step's joiners (its frontier), so a step costs the volume of
    its frontier, not [n]. A join updates the joiner's depth and one
    per-edge congestion count and never looks at the trees the node was
    in before: no node re-enters a tree it left (DESIGN.md §5). Setup,
    output and reset are [O(|domain|)] plus the tree edges, so with a
    warm [scratch] a call costs [O(b · |domain| + volume scanned)]
    whatever [Graph.n g] is, and allocates only its result.

    @raise Invalid_argument if [epsilon] is outside (0, 1) or [domain]
    is not strictly ascending ids of [g]'s nodes. *)

val carve :
  ?preset:preset ->
  ?scratch:scratch ->
  ?cost:Congest.Cost.t ->
  ?domain:int array ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  result
(** [carve g ~epsilon] runs the carving on [G\[domain\]], [domain]
    being strictly ascending node ids (the {!Cluster.Carving.carver}
    contract's domain; default: all nodes). Guarantees on the output:
    clusters are pairwise non-adjacent; every non-dead domain node is
    clustered; each cluster has a valid Steiner tree containing all its
    members as nodes.

    Work: {!carve_local} on [domain], plus one arena entry per join
    (chunked, grown once per scratch, never copied) from which the trees
    are listed, plus [O(n)] to build the {!Cluster.Carving.t}, whose
    [domain] is the mask of [domain].

    Cost charging (see DESIGN.md §5): each step charges one round for the
    proposal exchange plus [2·(d + L) + 2] rounds for the per-cluster
    count/decision convergecast-broadcast over Steiner trees of current
    max depth [d] and congestion [L], with [O(log n)]-bit messages.

    @param preset default {!Ggr21} (the paper composes with GGR21).
    @raise Invalid_argument if [epsilon] is outside (0, 1) or [domain]
    fails {!Cluster.Carving.check_domain} (named ["Weak_carving.carve"]). *)

val default_preset : preset
