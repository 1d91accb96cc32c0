(** Breadth-first traversals, with optional alive-masks.

    These are the sequential reference implementations; the CONGEST-model
    algorithms charge their round cost separately (see [Congest.Cost]).
    Distances are hop counts; [-1] means unreachable (or outside the mask). *)

val distances : ?mask:Mask.t -> Graph.t -> source:int -> int array
(** Single-source BFS distances in [G\[mask\]]. *)

val multi_distances : ?mask:Mask.t -> Graph.t -> sources:int list -> int array
(** Multi-source BFS: distance to the nearest source. *)

val parents : ?mask:Mask.t -> Graph.t -> source:int -> int array
(** BFS-tree parent pointers; [parents.(source) = source], [-1] if
    unreachable. *)

val eccentricity : ?mask:Mask.t -> Graph.t -> int -> int
(** Largest finite distance from the node within its component. *)

val diameter_of_set : Graph.t -> int list -> int
(** Strong diameter of the sub{i graph induced by} the set: max pairwise
    distance measured inside the set. Returns [-1] if the induced subgraph
    is disconnected, [0] for singletons and the empty set. O(k·(k+m)). *)

val weak_diameter_of_set : Graph.t -> int list -> int
(** Max pairwise distance between set members measured in [G] (paths
    may leave the set). [-1] if some pair is disconnected. *)

type scratch = private {
  dist : int array;
  parent : int array;
  queue : int array;
}
(** Caller-owned buffers for {!restricted_into} and the layer steps: one
    per whole-clustering pass, never one per cluster. Between searches
    every [dist] cell is [-1]; {!release} restores that after each
    search. *)

val scratch : int -> scratch
(** [scratch n] for graphs with at most [n] nodes. *)

val restricted_into :
  Graph.t ->
  owner:int array ->
  id:int ->
  members:int list ->
  source:int ->
  scratch ->
  int
(** Allocation-free BFS over the subgraph induced by the nodes [v] with
    [owner.(v) = id] — a cluster's members — in [O(volume of members)]
    time, independent of [Graph.n]. Membership is one array read; no
    hashing. [members] must list exactly those nodes (any order).

    Fills [dist] (hop counts) and [parent] for every reached member and
    lists the reached members in [queue.(0 .. k-1)], layer by layer
    (distances along [queue] are non-decreasing), where [k] is the
    returned count ([0] when [owner.(source) <> id]). [dist]/[parent]
    cells of unreached nodes keep their previous contents, so read
    [parent.(v)] only when [dist.(v) >= 0].

    Parent contract: [parent.(source) = source], and every other reached
    [v] gets the {e smallest-id} member neighbour [u] with
    [dist.(u) = dist.(v) - 1] — a function of the distances alone, so it
    does not depend on the direction each layer was expanded in.

    Each layer is expanded top-down (push: the frontier scans its rows)
    unless bottom-up is cheaper by Beamer's test: the frontier's arc
    volume, less the [members] count, exceeds 1/14 of the members'
    volume still unexplored. A bottom-up step (pull) is one pass over
    [members] in which each unvisited member scans its own sorted row
    and stops at its first frontier neighbour, the min-id one. Hub
    clusters of small depth thus cost a few early-stopping pulls rather
    than one read of every arc; deep, thin clusters never pull. The
    order of a layer within [queue] depends on the direction; distances
    and the reached set do not. Call {!release} with [k] before the next
    search.
    @raise Invalid_argument when the scratch is smaller than the graph. *)

val release : scratch -> int -> unit
(** [release s k] resets [dist] on the [k] nodes the last search
    visited, in [O(k)]. *)

val reach :
  Graph.t ->
  owner:int array ->
  id:int ->
  count:int ->
  source:int ->
  scratch ->
  int
(** BFS from [source] over the whole graph (paths may leave the class
    [owner.(v) = id]) that stops as soon as it has reached [count] class
    nodes, or its component is exhausted. Every node it reaches gets its
    exact distance in [dist] and a place in [queue.(0 .. k-1)], [k]
    being the returned count; [parent] is meaningless. The search is
    push-only and allocates nothing. Call {!release} with [k] before the
    next search.
    @raise Invalid_argument when the scratch is smaller than the graph. *)

(** {2 Layer steps}

    The pieces of {!restricted_into}'s search, for searches that stop
    after some layer (greedy ball growing). The class is again
    [owner.(v) = id]; the search's layers live in [queue], layer 0 being
    [queue.(0 .. 0)]. *)

val start : scratch -> int -> unit
(** [start s source] makes [source] layer 0: [dist] 0, its own parent,
    [queue.(0)]. *)

val step :
  Graph.t ->
  owner:int array ->
  id:int ->
  scratch ->
  lo:int ->
  hi:int ->
  frontier:int ->
  unexplored:int ->
  first:int ->
  last:int ->
  int
(** Expands the layer [queue.(lo .. hi-1)] into the next one, appended
    from [queue.(hi)], and returns the new tail (= [hi] when the layer
    has no unvisited class neighbour). [frontier] is the layer's arc
    volume ({!volume}) and [unexplored] the volume of the class nodes
    not yet reached. The step pulls when [frontier], less the candidate
    count [last - first], exceeds [unexplored / 14]; a pull scans the
    candidate ids [first .. last-1], which must include every unvisited
    class node. Distances and parents follow the contract of
    {!restricted_into}. *)

val volume : Graph.t -> scratch -> lo:int -> hi:int -> int
(** Sum of the degrees of [queue.(lo .. hi-1)]. *)
