(** A {e genuinely distributed} Linial–Saks carving, run on the true
    synchronous CONGEST simulator ({!Congest.Sim}) with [O(log n)]-bit
    messages — no cost-model shortcuts.

    Every node samples a radius [r_v ~ Geometric(ε)] (capped) and floods
    the pair [(priority = id, slack)]; each node keeps the
    lexicographically largest pair it has seen and re-broadcasts it with
    the slack decremented while positive. A node whose final slack is
    [>= 1] joins the cluster of its winning priority; slack [0] means it
    lies on the winner's boundary and dies.

    Separation is a purely local consequence of the flood rule: an
    interior node forwards [(p, s-1)] to every neighbor, so two adjacent
    interior nodes must agree on the winning priority.

    This module exists to {e anchor the cost model}: the step-granular
    [Linial_saks.carve] charges [2·max_radius + 2] rounds per attempt, and
    the test suite checks the simulator's actual round count agrees. *)

val attempt :
  ?conformance:Congest.Conformance.instrumentor ->
  ?trace:Congest.Trace.sink ->
  Dsgraph.Rng.t ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  int array * Congest.Sim.stats
(** One carving attempt on the fault-free simulator: per-node cluster
    labels ([-1] = dead/boundary) and the measured statistics. Exposed for
    the fault experiments, which compare it against {!attempt_reliable}
    run from an equal RNG state. A [conformance] instrumentor wraps the
    node program with the model-invariant checks; the program is pure and
    order-invariant (its inbox fold is a lexicographic max), so it may be
    instrumented with [~order_invariant:true]. *)

type reliable_attempt = {
  cluster_of : int array;
      (** labels as in {!attempt}; crashed nodes are forced to [-1] *)
  crashed : int list;  (** ground truth from the fault schedule *)
  finished : bool array;  (** per node: executed all inner rounds *)
  dead_view : int list array;  (** per node: neighbors it declared dead *)
  sim_stats : Congest.Sim.stats;
  transport : Congest.Reliable.transport_stats;
  inner_rounds : int;
}

val attempt_reliable :
  ?adversary:Congest.Fault.t ->
  ?conformance:Congest.Conformance.instrumentor ->
  ?liveness_timeout:int ->
  ?trace:Congest.Trace.sink ->
  Dsgraph.Rng.t ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  reliable_attempt
(** The same attempt wrapped in {!Congest.Reliable} and run against an
    optional fault adversary, with [inner_rounds = 2·max_radius + 8].
    With no adversary (or one with all rates zero and no crashes) the
    resulting [cluster_of] is {e identical} to {!attempt} run from an
    equal RNG state — zero-fault transparency. *)

val carve :
  ?max_retries:int ->
  ?trace:Congest.Trace.sink ->
  Dsgraph.Rng.t ->
  Dsgraph.Graph.t ->
  epsilon:float ->
  Cluster.Carving.t * Congest.Sim.stats
(** Runs the node program under [Sim.simulate] (Las Vegas retry on the dead
    fraction, default 60 attempts) and returns the carving together with
    the accepted attempt's {e measured} simulator statistics (rounds,
    messages, max message bits). A [trace] sink sees each retry under an
    [ls_carve/attempt=<k>] span. @raise Failure when retries are
    exhausted. *)

type decompose_stats = {
  total_rounds : int;
      (** summed over every carving attempt of every color repetition,
          the rejected retries included *)
  total_messages : int;  (** likewise *)
  max_bits : int;  (** over every attempt *)
}

val decompose :
  ?max_retries:int ->
  ?trace:Congest.Trace.sink ->
  Dsgraph.Rng.t ->
  Dsgraph.Graph.t ->
  Cluster.Decomposition.t * decompose_stats
(** A complete network decomposition computed {e entirely} on the
    synchronous simulator: {!Strongdecomp.Netdecomp.of_carver} with
    [ε = 1/2] over a carver that runs {!carve}'s retry loop on the
    (materialized) subgraph induced by the not-yet-clustered nodes;
    repetition [i]'s clusters get color [i]. Every message of every
    round fits the CONGEST bandwidth — the end-to-end small-messages
    execution of a full decomposition. A [trace] sink sees color
    repetition [i] under the color loop's [netdecomp/color=<i>] span and
    each attempt under [netdecomp/color=<i>/ls_carve/attempt=<k>]; the
    totals then equal the trace's [Round_start] and [Message_sent]
    events. No [Cost_charged] event is written. *)
