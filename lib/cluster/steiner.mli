(** Steiner trees attached to weak-diameter clusters.

    A weak-diameter cluster [C] comes with a tree [T] of depth [R] in the
    host graph whose terminal set contains all of [C]; tree nodes need not
    belong to [C] (they may meanwhile belong to other clusters or be dead).
    The congestion [L] of a forest is the maximum number of trees any single
    edge participates in. *)

type tree = {
  root : int;
  parent : (int * int) list;
      (** [(node, parent)] pairs; the root appears as [(root, root)].
          Every non-root pair must be a host-graph edge. The checkers
          here read the pairs as a set; [Weakdiam.Weak_carving] emits
          them in ascending node order. *)
}

type forest = tree array
(** Indexed by cluster id. *)

val nodes : tree -> int list
(** All nodes of the tree, sorted. *)

val depth : tree -> int
(** Max hop distance from the root along parent pointers.
    @raise Invalid_argument on a malformed tree (cycle or missing parent). *)

val check :
  Dsgraph.Graph.t -> tree -> terminals:int list -> (unit, string) result
(** Validates: parent pairs are edges, the root is present, parent chains
    reach the root (connected, acyclic), and every terminal is a tree
    node. *)

val congestion : Dsgraph.Graph.t -> forest -> int
(** Maximum, over host edges, of the number of trees containing the edge. *)

val check_forest :
  Dsgraph.Graph.t ->
  forest ->
  clustering:Clustering.t ->
  depth_bound:int ->
  congestion_bound:int ->
  (unit, string) result
(** Validates every tree against its cluster's members, and the forest-wide
    depth and congestion bounds. *)
