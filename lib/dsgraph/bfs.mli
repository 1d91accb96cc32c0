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

val ball : ?mask:Mask.t -> Graph.t -> center:int -> radius:int -> int list
(** Nodes at distance [<= radius] from [center] in [G\[mask\]]. *)

val layer_sizes : ?mask:Mask.t -> Graph.t -> sources:int list -> int array
(** [layer_sizes g ~sources] where cell [r] holds [|B_r(sources)|], the
    number of nodes within distance [r]; the array extends to the largest
    finite distance. Cumulative, i.e. non-decreasing. *)

val eccentricity : ?mask:Mask.t -> Graph.t -> int -> int
(** Largest finite distance from the node within its component. *)

val diameter_of_set : Graph.t -> int list -> int
(** Strong diameter of the sub{i graph induced by} the set: max pairwise
    distance measured inside the set. Returns [-1] if the induced subgraph
    is disconnected, [0] for singletons and the empty set. O(k·(k+m)). *)

val weak_diameter_of_set : ?mask:Mask.t -> Graph.t -> int list -> int
(** Max pairwise distance between set members measured in [G\[mask\]]
    (paths may leave the set). [-1] if some pair is disconnected. *)

val component_of : ?mask:Mask.t -> Graph.t -> int -> int list
(** The connected component of a node in [G\[mask\]], sorted. *)

val distances_into :
  ?mask:Mask.t -> Graph.t -> source:int -> dist:int array -> queue:int array -> int
(** Allocation-free BFS into caller-owned scratch, for per-cluster loops
    at scale. [dist] (length [>= n], every reachable cell [-1] on entry)
    receives hop counts; [queue] (length [>= n]) receives the visited
    nodes in BFS order — it doubles as the touched-list, so the caller
    restores the [-1] invariant by resetting exactly
    [dist.(queue.(0 .. k-1))], where [k] is the returned visit count
    ([0] when the source is outside the mask). Distances along [queue]
    are non-decreasing; results equal {!distances} on the same mask. *)

type scratch = private {
  dist : int array;
  parent : int array;
  queue : int array;
}
(** Caller-owned buffers for {!restricted_into}: one per whole-clustering
    pass, never one per cluster. Between searches every [dist] cell is
    [-1]; {!release} restores that after each search. *)

val scratch : int -> scratch
(** [scratch n] for graphs with at most [n] nodes. *)

val restricted_into :
  Graph.t -> owner:int array -> id:int -> source:int -> scratch -> int
(** Allocation-free BFS over the subgraph induced by the nodes [v] with
    [owner.(v) = id] — a cluster's members — in [O(volume of members)]
    time, independent of [Graph.n]. Membership is one array read; no
    hashing. Fills [dist] (hop counts) and [parent] (BFS parent, the
    source its own) for every reached member and lists the reached
    members in BFS order in [queue.(0 .. k-1)], where [k] is the
    returned count ([0] when [owner.(source) <> id]). [dist]/[parent]
    cells of unreached nodes keep their previous contents, so read
    [parent.(v)] only when [dist.(v) >= 0]. Visit order (and hence
    parents) match {!distances}/{!parents} under the equivalent
    {!Mask}. Call {!release} with [k] before the next search.
    @raise Invalid_argument when the scratch is smaller than the graph. *)

val release : scratch -> int -> unit
(** [release s k] resets [dist] on the [k] nodes the last search
    visited, in [O(k)]. *)
