(** Local repair of decompositions and carvings under fault deltas.

    A long-running decomposition service cannot re-run its algorithm
    from scratch on every fault. This engine maintains a {e fault
    state} (which nodes are crash-stopped, which edges deviate from the
    base graph), computes — per fault delta — the {e dirty region}:
    exactly the clusters whose membership, witness tree, or separation
    the delta can invalidate, and re-carves only that region on the
    survivor subgraph, merging the result with the untouched clusters.

    The dirty rules mirror what the certificate verifier
    ([Workload.Audit.verify]) checks, so a cluster is dirtied iff its
    certificate could now be rejected:

    - a cluster containing a crashed node loses a member — dirty;
    - an edge deleted or inserted {e inside} a cluster can change its
      induced subgraph's distances, and a strong certificate witnesses
      an exact eccentric-pair distance — dirty;
    - an edge inserted between two distinct clusters of equal color
      (for carvings every color is [-1], so between {e any} two
      clusters) breaks separation — both dirty;
    - a {e weakly} certified cluster's witnesses run through arbitrary
      host-graph nodes, so any delta at all dirties it (conservative,
      and the price of weak certificates);
    - strong certificates are confined to their cluster, so strongly
      certified clusters are immune to changes elsewhere.

    A configurable {e halo} adds a safety margin: with [halo = h >= 1],
    every cluster within distance [h] (in the post-fault graph) of a
    fault site is dirtied too, giving the re-carver room to rebuild
    natural cluster shapes around the damage. [halo = 0] is the minimal
    certified-invalidation set.

    Re-carving is delegated to a caller-supplied [recarve] callback
    (the workload layer plugs in the registered sequential engines), so
    this module stays below the algorithm registry in the dependency
    order. Merging recolors fresh clusters greedily (decompositions —
    always possible, may grow the palette) or leaves frontier nodes
    dead (carvings — nodes whose re-carved cluster would touch an
    untouched cluster are excluded up front, preserving full
    non-adjacency). *)

type delta = {
  crash : int list;  (** nodes that crash-stop (must be up) *)
  revive : int list;  (** nodes that come back (must be down) *)
  del_edges : (int * int) list;  (** edges removed (must exist) *)
  add_edges : (int * int) list;  (** edges inserted (must not exist) *)
}

val delta :
  ?crash:int list ->
  ?revive:int list ->
  ?del_edges:(int * int) list ->
  ?add_edges:(int * int) list ->
  unit ->
  delta
(** Smart constructor; everything defaults to empty. *)

val is_empty : delta -> bool

type state
(** Base graph plus fault history: the down set, and the set of edges
    deleted from / added to the base graph. A crashed node is isolated
    in the current graph (all incident edges removed) but its logical
    edges — base edges minus deletions plus insertions — reappear when
    it revives. The current graph is kept, not rebuilt: {!step} edits
    it by the delta. *)

val init : Dsgraph.Graph.t -> state
(** Fault-free initial state over a base graph. *)

val graph : state -> Dsgraph.Graph.t
(** The current post-fault graph (same node universe [0 .. n-1];
    crashed nodes isolated). *)

val base : state -> Dsgraph.Graph.t

val down : state -> int list
(** Sorted list of currently crashed nodes; O(1), it is kept by
    {!step}. *)

val is_down : state -> int -> bool

val survivors : state -> Dsgraph.Mask.t
(** Fresh mask of the up nodes. *)

val step : state -> delta -> state
(** Applies a delta; [state] is unchanged (persistent-style). All
    delta components refer to the pre-delta state: crash targets must
    be up, revive targets down, deleted edges present between up
    nodes, inserted edges absent with both endpoints up after the
    delta's own crashes and revives are accounted. A node listed twice
    in [crash] or in [revive], and an edge listed twice in [del_edges]
    or [add_edges] (in either orientation), is an inconsistency.

    Cost: what the delta touches, not the fault history. Only the
    delta's own edges, the current edges of crashed nodes and the
    logical edges of revived nodes can change; each has its presence
    re-derived from the post-delta fault state, and the current graph
    is edited by exactly those that differ ({!Dsgraph.Graph.apply_edits}).
    Beyond that splice's O(n + m) copy, one step is O(D log H) for the
    D candidate edges and the H edges of the history, plus an O(n)-byte
    copy of the down set and an update of the sorted down list in its
    length ({!down} returns that list).
    @raise Invalid_argument on any inconsistency, with a message that
    starts with ["Repair.step"]. *)

type plan = {
  dirty : int list;  (** invalidated cluster ids of the old clustering *)
  region : int list;
      (** sorted surviving nodes to re-carve: members of dirty
          clusters, revived nodes, and unclustered survivors inside
          the halo ball *)
  seeds : int list;
      (** fault sites the halo ball grows from: pre-graph neighbors of
          crashed nodes, endpoints of changed edges, revived nodes *)
}

type scratch
(** Node-indexed flags, labels and a BFS queue for {!plan} and {!merge},
    reused across calls and left cleared after each one, whether it
    returns or raises. Use it from one domain at a time. *)

val scratch : int -> scratch
(** [scratch n] for graphs of [n] nodes. *)

val plan :
  ?halo:int ->
  scratch:scratch ->
  weak:int list ->
  color:(int -> int) ->
  old:Clustering.t ->
  state ->
  delta ->
  plan
(** [plan ~halo ~weak ~color ~old st delta] computes the dirty region
    of [old] (a clustering of the {e pre}-delta graph) under [delta],
    where [st] is the {e post}-delta state ([step pre delta]),
    [weak] lists the clusters that are only weakly certified, and
    [color c] is its color ([-1] for every cluster of a carving, which
    makes any inserted inter-cluster edge dirty both sides).
    [halo] defaults to [0]. The halo ball runs on [scratch]; beyond one
    k-byte flag set, a plan costs what the delta, the halo ball and the
    dirty clusters hold.
    @raise Invalid_argument on a negative halo, a clustering or scratch
    of another size, or a [weak] id out of range. *)

type kind = Decomposition | Carving

type merged = {
  clustering : Clustering.t;  (** over {!graph}[ st] *)
  colors : int array;
      (** per new cluster id; all [-1] for carvings *)
  carried : (int * int) list;
      (** [(old id, new id)] of every untouched cluster, sorted; dirty
          (retired) clusters are not listed *)
  fresh : int list;  (** new ids of re-carved clusters, sorted *)
  touched_nodes : int;  (** size of the re-carve region *)
}

val merge :
  scratch:scratch ->
  kind:kind ->
  old:Clustering.t ->
  color_of:(int -> int) ->
  plan:plan ->
  state:state ->
  recarve:(Dsgraph.Graph.t -> int array * int array) ->
  merged
(** Re-carves [plan.region] on the survivor subgraph and merges with
    the untouched clusters of [old]. [recarve sub] must return a
    cluster label per node of [sub] ([-1] = leave dead, only allowed
    for carvings) and a color per label (ignored for carvings; for
    decompositions the labels' colors are {e not} trusted — fresh
    clusters are greedily recolored against their merged
    neighborhood, which may grow the palette but never breaks
    validity). Untouched clusters keep their exact member sets; for
    carvings, region nodes adjacent to an untouched cluster are
    withheld from [recarve] and left dead, so full non-adjacency is
    preserved by construction.

    The merged clustering is built from [old]: untouched clusters keep
    their member lists (shared, not copied), and one pass over the
    nodes renumbers carried and fresh clusters in order of first
    appearance, exactly as [Clustering.make] would on the merged
    labels. Beyond the re-carve, a merge allocates the new cluster-of
    array (n words), the new member-list and color arrays, the
    [carried] list and the fresh clusters' lists.
    @raise Invalid_argument if a decomposition [recarve] leaves a
    region node unclustered, a dirty id or region node is out of range,
    or [old] or [scratch] was made for another number of nodes. *)
