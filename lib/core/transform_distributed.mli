(** Theorem 2.1 executed as {e genuinely distributed} stages on
    {!Congest.Sim} — the paper's own algorithm as message passing.

    The level loop is {!Transform.levels}, the one Theorem 2.1 loop: it
    keeps the levels, components, threshold, giant check, Case I/II
    next-level sets and the emitted clusters. This module hands it, per
    component, two simulated stages in place of the model ones:
    + [A], the weak-diameter carving as a real node program
      ({!Weakdiam.Distributed}) on the component, whose ascending node
      array is the carving's [domain] (nodes outside it sleep),
      returning the simulated clusters with the engine's roots, depth
      and congestion;
    + Case II's ball as three of the shared {!Congest.Programs}: a BFS
      wave ({!Congest.Programs.bfs} with [~member] the component) from
      the giant cluster's Steiner root (B1), one paired-count
      {!Congest.Programs.convergecast} over the BFS tree per radius [r]
      the [|B_r| >= (1-ε/2)·|B_{r+1}|] rule asks about (B2), and a
      {!Congest.Programs.broadcast} of [r*] (B3) after which each node
      decides locally whether it is clustered, dead, or survives to the
      next level.

    Each stage charges its simulated rounds, messages and largest
    message to the component's meter, and the loop composes each level
    with {!Congest.Cost.parallel}, as it does for the model charges.
    Schedule lengths and the giant-cluster threshold comparison are
    oracle-assisted, as with {!Weakdiam.Distributed} (worst-case bounds
    in a real deployment); the test suite asserts the result equals the
    centralized {!Strong_carving.carve} exactly. *)

type stats = {
  iterations : int;  (** size-halving levels used *)
  rounds : int;
      (** simulated rounds: per level the max over its components of
          the component's stage rounds (A, then its Case II stages),
          summed over levels *)
  messages : int;  (** simulated messages over all stages *)
  max_bits : int;  (** largest message over all stages *)
  all_matched : bool;  (** every weak stage matched its engine *)
}

val strong_carve :
  ?preset:Weakdiam.Weak_carving.preset ->
  ?trace:Congest.Trace.sink ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  Cluster.Carving.t * stats
(** When [trace] is attached, every stage's simulated run reports into
    it, under the loop's spans [transform/level=<i>/{weak,case_i,case_ii}]
    ({!Weakdiam.Distributed}'s own ["weakdiam_sim"] inside ["weak"];
    ["bfs"], ["pair_counts"] and ["broadcast"] inside ["case_ii"]), so
    per-stage rounds and messages roll up with {!Congest.Span.rollups}.
    The meter that composes [stats] writes no [Cost_charged] event: the
    trace's rounds are exactly the simulated ones. *)

val matches_centralized :
  ?preset:Weakdiam.Weak_carving.preset ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  bool
(** Runs both the distributed and the centralized Theorem 2.1 and compares
    the clusterings node by node. *)
