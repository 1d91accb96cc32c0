(** Theorem 2.1 — the paper's core contribution: a message-efficient
    deterministic transformation from {e any} weak-diameter ball carving
    algorithm [A] into a strong-diameter ball carving algorithm [B].

    The transformation runs [log n] size-halving iterations. In iteration
    [i], on each connected component [S] of alive nodes (guaranteed
    [|S| <= n/2^(i-1)]), it invokes [A] with boundary parameter
    [ε' = ε/(2 log n)]:
    - {b Case I}: every weak cluster has at most [n/2^i] nodes. Then [A]'s
      unclustered nodes die and each alive component (a subset of one
      cluster) moves to the next iteration.
    - {b Case II}: some cluster [C] exceeds [n/2^i] nodes (at most one
      can). A BFS from the root [a] of [C]'s Steiner tree grows a ball,
      starting at the tree depth and for [O(log n/ε)] more hops, until a
      radius [r*] with [|B_{r*}| >= (1 - ε/2)·|B_{r*+1}|] appears. The
      ball [B_{r*}(a)] — which covers all of [C] — becomes one cluster of
      the output, the next layer dies, and the remaining components
      (each [<= n/2^i] nodes) move on.

    Dead fraction: [≤ ε/2] from the [A]-invocations plus [≤ ε/2] from the
    carved-ball boundaries, i.e. [≤ ε] total. Each output cluster has
    strong diameter [<= 2·R(n, ε/(2 log n)) + O(log n/ε)]. *)

type weak_result = {
  clusters : int array array;
      (** non-adjacent clusters on the domain, each one's members
          ascending, in order of their smallest member; domain nodes in
          no cluster are removed *)
  roots : int array;  (** each cluster's Steiner tree root, same indexing *)
  depth : int;  (** measured Steiner depth [R] *)
  congestion : int;  (** measured congestion [L] *)
}
(** A weak carving of one domain, described by the domain's nodes
    alone: what Theorem 2.1 reads of [A]'s clusters and Steiner trees.
    The trees enter through their roots (Case II's ball centre) and
    their depth and congestion (the rounds charged). *)

type weak_carver =
  ?cost:Congest.Cost.t ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  weak_result
(** The black box [A] of Theorem 2.1, run on [G\[domain\]]; [domain] is
    ascending node ids. *)

type stats = {
  iterations : int;  (** size-halving levels actually used *)
  weak_invocations : int;
  max_ball_radius : int;  (** largest [r*] used in Case II *)
}

type scratch = Dsgraph.Stamp.t
(** Caller-owned working memory for {!strong_carve}; one serves
    any number of calls, on any graphs, one call at a time. *)

val scratch : unit -> scratch
(** An empty scratch; the first call sizes it. *)

val levels :
  ?cost:Congest.Cost.t ->
  trace:Congest.Trace.sink option ->
  weak:
    (cost:Congest.Cost.t ->
    Dsgraph.Graph.t ->
    domain:int array ->
    epsilon:float ->
    weak_result) ->
  ball:
    (cost:Congest.Cost.t ->
    scratch ->
    Dsgraph.Graph.t ->
    int array ->
    inside:int ->
    root:int ->
    radius:(maxd:int -> (int -> int * int) -> int) ->
    int) ->
  scratch ->
  Dsgraph.Graph.t ->
  emit:(int array -> unit) ->
  epsilon:float ->
  int array ->
  stats
(** [levels ~trace ~weak ~ball s g ~emit ~epsilon set]: Theorem 2.1's
    levels on [G\[set\]] ([set] ascending, [n = |set|]), each output
    cluster passed to [emit]. Each component runs its two stages on its
    own meter: [weak] is [A]; [ball comp ~inside ~root ~radius] is Case
    II's ball on the component (stamped [inside]), a BFS from [root]
    inside it that leaves each node it reaches stamped [inside + 1] with
    its distance in [value], returning [radius ~maxd counts], [maxd]
    being the largest distance and [counts r = (|B_r|, |B_{r+1}|)]. A
    level charges [cost] the {!Congest.Cost.parallel} composition of its
    components' meters; its spans (see {!strong_carve}) go to [trace].
    {!strong_carve} passes the model stages (the charges of
    DESIGN.md §5), {!Transform_distributed} simulated node programs. *)

val strong_carve :
  ?cost:Congest.Cost.t ->
  weak:weak_carver ->
  ?scratch:scratch ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  int array array * stats
(** [strong_carve ~weak g ~domain ~epsilon] removes at most an [ε]
    fraction of the ascending [domain] so that every cluster
    (equivalently, every remaining connected component of [G\[domain\]])
    induces a connected subgraph of bounded diameter. It returns the
    clusters' member arrays (each ascending; the clusters in no
    particular order), the domain nodes in none of them being dead. A
    returned array may be [domain] itself or one of [weak]'s cluster
    arrays; none is modified.

    Cost charging (DESIGN.md §5): components of one iteration level run in
    parallel (per-level round cost = max over components); per component,
    the [A] invocation charges through the shared meter, the giant-cluster
    size check charges [depth·congestion] rounds, and the Case II BFS
    charges [r* + 2] rounds.

    Work: components are ascending member arrays, found by BFS over the
    node-indexed [scratch] (default: a fresh one), whose marks are
    stamped afresh per node set and never cleared. Beyond what [weak]
    costs, a component costs its own volume: Case I's alive components
    and Case II's ball BFS (which stops at the component's edge) and
    remaining components read only the component's nodes and rows. The
    call allocates only arrays of the domain's size; with a warm
    [scratch] nothing in it is [O(n)].

    Trace spans: ["transform/level=i"] per level, and inside it
    ["weak"], ["case_i"] and ["case_ii"] around each component's [A]
    call and its two cases. The level's rounds are charged once, after
    its components, so these inner spans carry only wall time and
    words.

    @raise Invalid_argument if [epsilon] is outside (0, 1) or [domain]
    fails {!Cluster.Carving.check_domain}. *)

val ball_growth_limit : n:int -> epsilon:float -> int
(** The number of radius-growth steps [O(log n/ε)] Case II may need:
    smallest [K] with [(1/(1-ε/2))^K > n]. Exposed for tests. *)

val strong_carve_unknown_n :
  ?cost:Congest.Cost.t ->
  weak:weak_carver ->
  Dsgraph.Graph.t ->
  domain:int array ->
  epsilon:float ->
  int array array
(** The paper's Section 2 remark: Theorem 2.1 assumes the node count is
    global knowledge, and the assumption is removed by first running the
    weak carving with boundary parameter [ε/2], letting each cluster count
    its own [n' = |C|], and then applying the transformation inside each
    cluster with parameter [ε/2] (using that cluster-local [n']). This
    function implements exactly that wrapper on the ascending [domain];
    dead fraction [<= ε/2 + ε/2 = ε], same diameter shape. Once [~weak]
    is applied it is a {!Cluster.Carving.carver}.
    @raise Invalid_argument if [epsilon] is outside (0, 1) or [domain]
    fails {!Cluster.Carving.check_domain}. *)
