(** Per-cluster quality certificates.

    A decomposition or carving row reports aggregate numbers (colors,
    max diameter, dead fraction); an {e audit} turns each claim into an
    explicit, independently checkable witness per cluster:

    - a BFS {b witness tree} — inside the cluster's induced subgraph
      when it is connected (certifying the {e strong} diameter is at
      most [2 * height]), otherwise in the host graph pruned to the
      root-to-member paths (certifying the {e weak} diameter);
    - a double-sweep {b eccentric pair} of members at a witnessed
      distance, lower-bounding the same diameter;
    - the cluster's {b color} (decompositions), so same-color
      adjacency can be refuted by one edge scan;
    - {b dead-node accounting} (carvings): the claimed dead count
      against the domain and the member lists.

    {!verify} re-checks a certificate against the raw graph using only
    graph primitives ([is_edge], [iter_edges], BFS) and an owner index
    it builds from the certificate's own member lists — it never
    consults the clustering structures that produced the certificate,
    so a bug in a decomposition algorithm (or a tampered certificate)
    cannot vouch for itself. The test suite seeds corruptions (wrong
    diameter witness, overlapping colors, miscounted dead nodes,
    repeated cluster ids) and asserts they are rejected. *)

type witness = {
  w_root : int;
  w_parents : (int * int) list;
      (** one [(node, parent)] pair per non-root tree node, sorted;
          every pair is a graph edge *)
  w_height : int;  (** max BFS depth over the cluster's members *)
}

type cert = {
  cluster : int;
  color : int;  (** [-1] in carvings (carved clusters carry no colors) *)
  members : int list;  (** sorted *)
  strong : bool;
      (** the witness tree is confined to the cluster (strong-diameter
          certificate); [false] means host-graph (weak) witnesses *)
  tree : witness option;
      (** [None] only when some member is unreachable even in the host
          graph *)
  diameter_lb : int;
      (** witnessed member distance ([-1] when disconnected) *)
  lb_pair : int * int;
  diameter_ub : int option;  (** [2 * w_height] when a tree exists *)
}

type kind = Decomposition | Carving

type t = {
  kind : kind;
  n : int;
  certs : cert list;  (** by cluster id *)
  num_colors : int;  (** [0] for carvings *)
  domain : int list;  (** sorted; every node for decompositions *)
  dead : int;  (** claimed domain nodes left unclustered *)
  dead_fraction : float;
}

val certify_decomposition : Cluster.Decomposition.t -> t

val certify_carving : Cluster.Carving.t -> t

val cert_of_cluster :
  scratch:Dsgraph.Bfs.scratch ->
  Cluster.Clustering.t ->
  color:int ->
  int ->
  cert
(** Certificate of one cluster: strong witnesses when its induced
    subgraph is connected, host-graph (weak) witnesses otherwise.
    Exposed so the repair engine can re-certify {e only} the clusters
    it touched and carry every other certificate over verbatim.
    [scratch] is a [Bfs.scratch n] shared by every cluster of the pass
    (see [Cluster.Clustering.strong_witnesses]). *)

val certs_by_id : t -> (cert array, string) result
(** The certificates as an array indexed by cluster id. [Error] names
    the first id that breaks the rule every producer follows — ids
    [0 .. k-1] in list order — as out of range, repeated, or out of
    order. *)

val cert_ids : t -> (int, string) result
(** The check of {!certs_by_id} alone: [Ok k] for [k] certificates
    whose ids run [0 .. k-1] in list order, else its [Error]. Walks the
    list and stores nothing. *)

val verify : Dsgraph.Graph.t -> t -> (unit, string) result
(** Re-checks every claim against [g] alone: cluster ids run
    [0 .. k-1] in list order (as {!certs_by_id} requires); members
    partition the domain (disjoint, in range) and the dead count and
    fraction are recounted; no edge joins two distinct same-color clusters (for
    carvings, where all colors are [-1], this is full cluster
    non-adjacency); every witness tree is a real tree — each pair a
    graph edge, acyclic, rooted at a member, spanning exactly the
    members (strong) or covering all members (weak), with the claimed
    height recomputed from the parent pointers and
    [diameter_ub = 2 * height]; every eccentric pair's distance is
    re-derived by BFS (inside the claimed members for strong
    certificates, in [g] for weak ones) and must equal [diameter_lb], and
    [diameter_lb <= diameter_ub] where both exist. A weak pair's BFS
    stops once it reaches the pair's second node. A one-node cluster
    whose certificate is the trivial one (root its member, no pairs,
    height 0, the pair (v, v) at lower bound 0, upper bound 0) costs
    its claim and a few comparisons: once its member is claimed, the
    tree and pair checks cannot fail. Every other certificate takes
    the full checks. Allocates a fresh {!workspace}; see
    {!verify_with}. *)

type workspace
(** Reusable buffers for {!verify_with}: seven [n]-cell int arrays and a
    [Bfs.scratch n]. Entries are stamped per verify, so a workspace is
    never cleared, and a verify that rejects partway leaves nothing a
    later one can read. It holds scratch only, never a result. Use it
    from one domain at a time. *)

val workspace : int -> workspace
(** [workspace n] for graphs of [n] nodes. *)

val verify_with : workspace -> Dsgraph.Graph.t -> t -> (unit, string) result
(** {!verify} on caller-owned buffers: the same verdicts and messages,
    and no [n]-sized array; it allocates one list cell per certificate
    that is not a one-node cluster's trivial one.
    @raise Invalid_argument when the workspace was made for another
    number of nodes than the graph has. *)

val witness_ok :
  workspace -> Dsgraph.Graph.t -> owner:int array -> id:int -> cert -> bool
(** [witness_ok ws g ~owner ~id cert] runs on one certificate the
    witness checks {!verify_with} runs on each: the tree (every pair a
    graph edge, acyclic, rooted at a member, covering the members;
    strong trees inside the cluster, with the height and
    [diameter_ub = 2 * height] recomputed), the eccentric pair's
    distance re-derived by BFS, and [diameter_lb <= diameter_ub]. The
    cluster is the class [owner.(v) = id]: the caller must have checked
    that this holds for exactly [cert.members], which must be non-empty
    and in range — the claim checks of a verify. [true] when every
    check passes; a one-node cluster's trivial certificate passes
    without them, as in {!verify_with}. For verifiers that re-check
    only some clusters of an audit they keep an owner index of.
    @raise Invalid_argument as {!verify_with}. *)

val check_survivors :
  Dsgraph.Graph.t ->
  survivors:int list ->
  labels:int array ->
  (unit, string) result * float
(** Post-fault validity, routed through {!verify}: restrict [labels]
    (a per-node cluster label, [< 0] = unclustered) to the subgraph
    induced by [survivors], certify it as a carving, and re-verify the
    certificate against that subgraph alone — so cluster
    non-adjacency and domain confinement on the survivor subgraph
    have exactly one checker. Also returns the dead fraction among
    survivors. *)

val max_diameter_lb : t -> int
(** Largest witnessed lower bound over clusters ([-1] if any cluster
    is disconnected for its metric). *)

val max_diameter_ub : t -> int option
(** Largest certified upper bound; [None] when some cluster has no
    witness tree. *)

val pp_table : ?max_rows:int -> Format.formatter -> t -> unit
(** Cluster-by-cluster table (size, color, witness kind, height,
    diameter bounds); rows beyond [max_rows] (default 40) are
    summarized in a trailing "... and k more clusters" line. *)
