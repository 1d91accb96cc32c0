(** Clusterings: assignments of (a subset of) nodes to disjoint clusters.

    A clustering does not carry colors (see {!Decomposition}) or dead-node
    bookkeeping (see {!Carving}); it is the common core both build on.
    Cluster identifiers are normalized to [0 .. num_clusters - 1];
    unclustered nodes carry [-1]. *)

type t

val make : Dsgraph.Graph.t -> cluster_of:int array -> t
(** [make g ~cluster_of] normalizes arbitrary non-negative cluster labels
    to dense ids, in order of first appearance. [cluster_of.(v) < 0]
    marks [v] unclustered. The array is copied. O(n) time and memory
    whatever the size of the labels. *)

val of_parts :
  Dsgraph.Graph.t -> cluster_of:int array -> members:int list array -> t
(** The clustering whose cluster [c] is [members.(c)], for builders that
    derive one clustering from another and share its member lists.
    Both arrays are taken over, not copied. They must already be in
    {!make}'s normal form: [cluster_of.(v)] is [v]'s id or [-1], every
    list is non-empty, sorted and holds exactly the nodes of its id,
    and ids run in order of first appearance (each list's head above
    the previous one's). Checked in O(n) time without allocating.
    @raise Invalid_argument when the parts disagree. *)

val graph : t -> Dsgraph.Graph.t

val cluster_of : t -> int -> int
(** [-1] when unclustered. *)

val num_clusters : t -> int

val members : t -> int -> int list
(** Sorted members of a cluster. *)

val clusters : t -> int list list
(** All clusters' member lists, by cluster id. *)

val sizes : t -> int array

val clustered_count : t -> int

val unclustered : t -> int list

val non_adjacent : t -> bool
(** True when no edge joins two {e distinct} clusters — the ball-carving
    separation requirement. *)

val adjacent_cluster_pairs : t -> (int * int) list
(** Distinct-cluster pairs joined by at least one edge (each pair once). *)

val strong_diameter : t -> int -> int
(** Diameter of the subgraph induced by a cluster; [-1] if disconnected. *)

val max_strong_diameter : t -> int
(** Max over clusters; [-1] if any cluster is internally disconnected;
    [0] when there are no clusters. *)

val weak_diameter : t -> int -> int
(** Max pairwise distance of a cluster's members measured in the host
    graph. *)

val max_weak_diameter : t -> int

(** {2 Member-restricted searches}

    The strong searches below take a [~scratch] of [Bfs.scratch n]
    ([n = Graph.n (graph t)]) and run in O(cluster volume): allocate
    one scratch per pass over the clustering and hand it to every
    cluster, never one per cluster. *)

val strong_diameter_estimate : scratch:Dsgraph.Bfs.scratch -> t -> int -> int
(** Double-sweep estimate of {!strong_diameter}: BFS inside the cluster
    from an arbitrary member, then from the farthest node found. Exact on
    trees, a lower bound within a factor 2 in general, O(cluster) instead
    of O(cluster²). [-1] when disconnected. Used by the measurement
    harness at large [n]; the test suite cross-checks it against the exact
    value on small graphs. *)

val max_strong_diameter_estimate : t -> int
(** Max of {!strong_diameter_estimate} over clusters (one scratch for
    the whole pass); [-1] if any cluster is disconnected. *)

val weak_diameter_estimate : scratch:Dsgraph.Bfs.scratch -> t -> int -> int
(** Double-sweep in the host graph between cluster members: a BFS from
    the first member, then one from the farthest member found (first in
    member order on ties); the larger eccentricity, or [-1] when some
    member is unreachable. Each sweep stops once every member has been
    reached ({!Dsgraph.Bfs.reach}), so it costs the ball that covers the
    cluster, not the graph. *)

val max_weak_diameter_estimate : t -> int
(** Max of {!weak_diameter_estimate} over clusters (one scratch for the
    whole pass); [-1] if some cluster's members are disconnected. *)

val strong_witnesses :
  scratch:Dsgraph.Bfs.scratch ->
  t ->
  int ->
  ((int * (int * int) list * int) * (int * int * int)) option
(** [Some (tree, pair)], the two witnesses of the cluster's strong
    diameter, or [None] when the induced subgraph is disconnected (then
    only a weak witness exists — see {!weak_witness_tree}).

    [tree = (root, parents, height)] is a BFS tree {e inside} the
    cluster's induced subgraph from its first member: [parents] is one
    [(node, parent)] pair per non-root member (sorted by node), every
    pair a real graph edge with both endpoints in the cluster, the
    parent being the node's min-id neighbour one layer up, and
    [height] the largest BFS depth over the members. It certifies that
    the induced subgraph is connected with strong diameter at most
    [2 * height].

    [pair = (u, v, d)] is a double-sweep witness pair inside the induced
    subgraph: members at distance exactly [d], so [d] is a certified
    lower bound on the strong diameter (within a factor 2 of it, exact
    on trees).

    Two restricted searches: the tree's search from the first member
    doubles as the first eccentric sweep. Both witnesses equal
    {!weak_witness_tree} and {!weak_eccentric_pair} in the graph of the
    cluster's own edges. *)

val weak_witness_tree : t -> int -> (int * (int * int) list * int) option
(** As the tree of {!strong_witnesses} but the BFS runs in the host
    graph, so the tree may route through non-members (Steiner nodes); it
    is pruned to the union of the root-to-member paths. Each node's
    parent is again its min-id neighbour one layer up, read off the
    distances.
    Certifies weak diameter at most [2 * height]. [None] when some
    member is unreachable even in the host graph. *)

val weak_eccentric_pair : t -> int -> int * int * int
(** As the pair of {!strong_witnesses}, measured in the host graph: a
    lower bound on the weak diameter. [(-1, -1, -1)] when some
    member is unreachable. *)

val pp : Format.formatter -> t -> unit
