(** Classic CONGEST node programs, used to validate the simulator, to
    anchor the {!Cost} charging formulas, and as the tree stages of the
    simulated Theorem 2.1 ([Strongdecomp.Transform_distributed]'s Case
    II runs {!bfs}, {!convergecast} and {!broadcast}): a radius-[r] BFS
    wave really does take [r + O(1)] rounds, a convergecast or a
    broadcast over a depth-[d] tree takes [d + O(1)] rounds, and all
    messages stay within [O(log n)] bits.

    The programs are {!leader_election}, {!bfs}, {!convergecast} (with
    {!subtree_counts} as one instance) and {!broadcast}. Every entry
    point accepts a {!Conformance.instrumentor}, so the model invariants
    (edge discipline, halt monotonicity, inbox-order robustness) can be
    checked on the programs themselves. [leader_election],
    [convergecast] with a commutative [add] (so [subtree_counts]) and
    [broadcast] (a node only ever hears from its parent) may be
    instrumented order-invariant; [bfs] breaks distance ties by
    {e first arrival in inbox order} when choosing a parent, so it must
    not be. *)

val leader_election :
  ?adversary:Fault.t ->
  ?conformance:Conformance.instrumentor ->
  ?trace:Trace.sink ->
  Dsgraph.Graph.t ->
  int array * Sim.stats
(** Min-identifier flooding. Returns the leader elected at each node (all
    equal to the component's minimum id) and run statistics; terminates in
    [O(diameter)] rounds on connected graphs. Under a lossy [adversary]
    nodes may quiesce before the minimum reaches them (dropped updates are
    never resent), electing inconsistent leaders — wrap with {!Reliable}
    to recover exactness. *)

val bfs :
  ?adversary:Fault.t ->
  ?conformance:Conformance.instrumentor ->
  ?trace:Trace.sink ->
  ?member:(int -> bool) ->
  Dsgraph.Graph.t ->
  source:int ->
  (int array * int array) * Sim.stats
(** Distributed BFS from [source] over the nodes [member] admits
    (default: all): per-node [(dist, parent)] with [-1] for unreached,
    [parent.(source) = source]. A member announces its distance to every
    neighbour; a non-member halts on whatever it receives and never
    joins, so from a member [source] the distances are those of
    [G\[member\]]. Under an [adversary], distances are only upper
    bounds — wrap with {!Reliable} to recover exactness. *)

val convergecast :
  ?adversary:Fault.t ->
  ?conformance:Conformance.instrumentor ->
  ?trace:Trace.sink ->
  Dsgraph.Graph.t ->
  parent:int array ->
  value:(int -> 'a) ->
  add:('a -> 'a -> 'a) ->
  bits:('a -> int) ->
  'a array * Sim.stats
(** Convergecast over a rooted forest given by [parent] (a root has
    [parent.(v) = v]; [-1] = not in any tree, halts at once): each tree
    node ends with [add] folded over its subtree's [value]s, its own
    first. Round 1 sends a 1-bit [Child] to the parent; a node sends its
    sum up, a [bits]-bit message, once every child has. *)

val subtree_counts :
  ?adversary:Fault.t ->
  ?conformance:Conformance.instrumentor ->
  ?trace:Trace.sink ->
  Dsgraph.Graph.t ->
  parent:int array ->
  int array * Sim.stats
(** {!convergecast} of [1] per node: each node ends with the size of its
    subtree. *)

val broadcast :
  ?adversary:Fault.t ->
  ?conformance:Conformance.instrumentor ->
  ?trace:Trace.sink ->
  Dsgraph.Graph.t ->
  parent:int array ->
  root:int ->
  value:int ->
  int array * Sim.stats
(** Broadcast of [value] from [root] down the tree given by [parent]
    (as in {!convergecast}): a node relays to the neighbours naming it
    their parent, in descending id order. Each node ends with [value],
    or [-1] if it is in no tree or the value never reached it.
    @raise Invalid_argument if [value] is negative. *)
