(** The weak-diameter carving as a {e genuinely distributed} CONGEST node
    program, executed round by round on {!Congest.Sim} with
    bandwidth-checked [O(log n)]-bit messages.

    This is the strongest validation artifact in the repository: the
    step-granular engine ({!Weak_carving}) is the workhorse used by the
    paper's transformations, and this module replays the {e same
    algorithm} as real message passing — proposals over edges, per-cluster
    proposal counting by convergecast over the (possibly non-member)
    Steiner-tree nodes, grow/stop decisions broadcast back down, joins
    attaching to the tree, departures reported upward — with one message
    per edge per round enforced by per-edge FIFO queues. The test suite
    asserts the distributed execution produces {e exactly} the same
    clustering and Steiner trees as the engine ({!matches_engine}).

    The program runs on graphs of at most [2^29 - 1] nodes: a message
    is one immediate int holding a 4-bit tag and up to two 29-bit fields
    (a cluster label and a count), and {!carve} and {!carve_reliable}
    raise [Invalid_argument] on a larger graph rather than misencode.

    Scheduling: every step runs for a fixed budget of rounds and every
    phase for a fixed number of steps, as in the paper (that is how
    CONGEST algorithms synchronize without global coordination). A real
    deployment would use worst-case bounds for both; to keep the
    simulation at laptop scale we take the step/phase schedule from a
    prior engine run and a round budget derived from the measured tree
    depth and congestion — the {e execution} is faithful, only the
    schedule lengths are oracle-provided (see DESIGN.md §2). *)

type result = {
  carving : Cluster.Carving.t;
  sim_stats : Congest.Sim.stats;  (** measured rounds/messages/bits *)
  step_budget : int;  (** rounds allotted to each step *)
  total_steps : int;
  engine : Weak_carving.result;  (** the oracle run it is compared to *)
  forest : Cluster.Steiner.forest Lazy.t;
      (** the simulated Steiner trees of the engine's clusters, indexed
          and listed as [engine.forest]: each node that ever entered a
          tree, with the neighbour it attached to *)
}

val carve :
  ?conformance:Congest.Conformance.instrumentor ->
  ?preset:Weak_carving.preset ->
  ?domain:Dsgraph.Mask.t ->
  ?trace:Congest.Trace.sink ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  result
(** Runs the engine (for the schedule and as the comparison oracle), then
    the full synchronous simulation. [result.carving] is built from the
    {e simulated} node states. A [trace] sink observes the simulated
    rounds and messages. A [conformance] instrumentor wraps the node
    program with the model-invariant checks; the per-node state is
    mutable, so the instrumentor must {e not} be built with
    [~order_invariant:true] (the re-run would corrupt it). *)

val matches_engine : result -> bool
(** True iff the simulated clustering equals the engine's exactly
    (same cluster membership per node, same dead set) and so do the
    Steiner trees ([forest = engine.forest]). *)

type reliable_result = {
  cluster_of : int array;
      (** simulated labels ([>= 0] cluster, [-1] outside domain, [-2]
          dead); crashed nodes are forced to [-2] *)
  crashed : int list;  (** ground truth from the fault schedule *)
  finished : bool array;  (** per node: executed all inner rounds *)
  dead_view : int list array;  (** per node: neighbors it declared dead *)
  r_sim_stats : Congest.Sim.stats;
  transport : Congest.Reliable.transport_stats;
  inner_rounds : int;
  oracle_rounds : int;  (** rounds the fault-free sizing run used *)
  r_step_budget : int;
  r_total_steps : int;
  r_engine : Weak_carving.result;
}

val carve_reliable :
  ?adversary:Congest.Fault.t ->
  ?conformance:Congest.Conformance.instrumentor ->
  ?liveness_timeout:int ->
  ?preset:Weak_carving.preset ->
  ?domain:Dsgraph.Mask.t ->
  ?trace:Congest.Trace.sink ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  reliable_result
(** The same node program wrapped in {!Congest.Reliable} and run against
    an optional fault adversary. The program is deterministic, so a
    fault-free run first sizes [inner_rounds = rounds_used + step_budget
    + 8]; with no adversary the resulting labels are {e identical} to
    {!carve}'s (zero-fault transparency). Under crashes the surviving
    labels may violate non-adjacency (a broken convergecast can
    mis-decide); callers wanting a guaranteed-valid carving re-run on the
    survivor-induced subgraph — see [Workload.Faults]. *)
