(** Causal critical-path analysis over a recorded trace.

    A replay-time consumer of the {!Trace} event stream (like
    {!Span.rollups} and {!Metrics.of_trace}): it never writes events,
    it only folds over [Trace.iter]. The analysis reconstructs the
    happens-before order of a run and extracts its {e critical path} —
    the longest chain of causally dependent messages — which
    lower-bounds the number of rounds any schedule of the same causal
    structure must pay. Rounds not covered by the critical chain are
    {e slack}: the run spent them, but no single dependency chain
    required them.

    Two kinds of traces occur in this repository and both are handled:

    - {b Simulator traces} ([Sim.simulate] with a sink attached) carry
      the full per-message stream. A message [m'] sent by node [v]
      causally depends on a message [m] delivered to [v] at a round
      [<= sent_round m'] (the simulator records a round's deliveries
      from its round buffer before stepping the nodes, and a node reads
      its inbox before it sends, so within one trace the deliveries of a
      round precede its sends — one forward pass suffices). The chain value of
      a delivered message is its in-flight latency
      [delivered - sent] plus the best chain value delivered to its
      sender beforehand; the critical path is the maximum over all
      messages. Because consecutive chain hops occupy disjoint round
      intervals, that value never exceeds [rounds_used] — it is a true
      lower bound, and under fault-free FIFO delivery (exactly one
      round of latency, no drops or duplicates) the send/delivery
      matching is exact.
    - {b Engine traces} (step-granular algorithms charging
      {!Cost.charge}) contain only [Cost_charged] events. The engine is
      a single sequential thread, so every charged round is causally
      ordered after the previous one: the critical path equals the sum
      of charged rounds exactly — [critical_rounds = Cost.rounds] on
      every fault-free registry run (test/test_causal.ml asserts this
      over the whole registry), and the slack is zero.

    Under an adversary (drops, duplicates, delays) the per-edge FIFO
    matching of sends to deliveries is a best-effort approximation
    ({!field-exact} is [false]); the result is still a valid chain of
    real deliveries, hence still a lower bound. *)

type hop = {
  src : int;
  dst : int;
  sent_round : int;
  delivered_round : int;
  bits : int;
}
(** One delivered message on the witness chain. *)

type t = {
  nodes : int;  (** [1 + ] the largest node id seen; [0] if none *)
  sim_rounds : int;  (** [Round_start] events (simulator rounds) *)
  engine_rounds : int;  (** total rounds from [Cost_charged] events *)
  rounds : int;  (** [sim_rounds + engine_rounds] *)
  chain_rounds : int;
      (** in-flight rounds along the best message chain ([<= sim_rounds]
          on complete traces) *)
  critical_rounds : int;  (** [engine_rounds + chain_rounds] *)
  slack_rounds : int;  (** [rounds - critical_rounds] *)
  chain : hop list;
      (** the witness chain in causal order: each hop is sent by the
          destination of the previous one, at or after its delivery *)
  node_depth : int array;
      (** [nodes] cells; best chain value over deliveries into each
          node ([0] for nodes that never received) *)
  node_active : bool array;
      (** [nodes] cells; whether the node appears as a message
          endpoint *)
  round_critical : bool array;
      (** [sim_rounds + 1] cells, 1-indexed by round; whether the round
          is covered by a witness-chain hop's flight interval.
          {!Span.rollups} splits each span's self rounds into critical
          and slack with it (every [Cost_charged] round is critical) *)
  exact : bool;
      (** no drops, duplicates, delays, or crashes were seen, so the
          FIFO send/delivery matching is exact *)
}

val analyze : Trace.sink -> t

val metrics : ?into:Metrics.t -> t -> Metrics.t
(** Exports counters [causal_rounds], [causal_chain_rounds],
    [causal_critical_rounds], [causal_slack_rounds], [causal_chain_hops]
    and the pow2 histogram [causal_node_slack] — per active node, the
    gap [chain_rounds - node_depth] between the run's critical depth
    and the deepest chain that reached the node (0 = the node is on a
    deepest chain's frontier). *)

val pp : Format.formatter -> t -> unit
(** One-paragraph summary: rounds, critical/slack split, chain shape. *)
