(** Dynamic CONGEST model-conformance verifier.

    The paper's headline claims (Theorem 2.1, Tables 1–2) are statements
    about the CONGEST model: [O(log n)]-bit messages, at most one message
    per incident edge per round, state transitions that depend only on the
    local inbox. This module certifies that the node programs and
    engine-level runs in this repository actually adhere to that model,
    instead of quietly cheating (e.g. closing over the global graph and
    reading remote state).

    Five invariants are checked:

    - {b (a) replay determinism} — two runs of the same configuration
      produce byte-identical {!Trace} streams ({!verify_run});
    - {b (b) bandwidth cross-check} — per-edge bits summed over the trace
      equal {!Metrics.of_trace}'s aggregates, the simulator's own
      {!Sim.stats}, and (for engine-level runs) the {!Cost} meter totals,
      {e exactly};
    - {b (c) edge discipline} — at most one program message per incident
      edge per round, addressed to neighbors only ({!instrument});
    - {b (d) halt monotonicity} — a node that voted to halt sends nothing
      and stays halted unless re-awakened by a delivery ({!instrument});
    - {b (e) inbox-order robustness} — for programs registered as
      order-invariant, re-running a round with a permuted inbox yields the
      same (state, outbox set, halt vote) ({!instrument}).

    (a)–(b) apply to any traced run, including the step-granular engine
    algorithms; (c)–(e) wrap a {!Sim.program} and therefore apply to the
    genuinely distributed executions. The order-invariance re-run requires
    the wrapped [round] function to be pure in its [state] argument —
    programs with mutable per-node state (e.g.
    [Weakdiam.Distributed]) must not be registered order-invariant. *)

type violation = {
  invariant : string;  (** ["edge-discipline"], ["halt-monotonic"], ... *)
  node : int;
  step : int;  (** per-node [round] invocation count, 1-based *)
  detail : string;
}

type check = {
  name : string;
  passed : bool;
  detail : string;  (** the compared quantities, or why a check was skipped *)
}

type report = {
  label : string;
  checks : check list;  (** whole-run checks: determinism, exact sums *)
  violations : violation list;  (** per-round violations from {!instrument} *)
  violations_dropped : int;  (** recorded beyond the recorder's limit *)
}

val ok : report -> bool
(** Every check passed and no violation was recorded. *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Json.t
(** One JSON object, machine-readable companion to
    [lint_results.json]. *)

(** {2 Per-round instrumentation — invariants (c), (d), (e)} *)

type recorder
(** Accumulates violations across the rounds of a run. *)

val recorder : ?limit:int -> unit -> recorder
(** At most [limit] (default 200) violations are retained; the rest are
    counted in {!dropped}. *)

val recorded : recorder -> violation list
(** Violations in the order they occurred. *)

val dropped : recorder -> int

val clear : recorder -> unit

val instrument :
  ?order_invariant:bool ->
  recorder ->
  Dsgraph.Graph.t ->
  ('st, 'msg) Sim.program ->
  ('st, 'msg) Sim.program
(** Wraps a program so that every [round] invocation is checked for
    invariants (c) and (d), and — when [order_invariant] (default
    [false]) — (e): the inner [round] is re-run on the reversed inbox and
    the resulting state, outbox {e set}, and halt vote must coincide.
    Comparison uses structural equality; states containing closures are
    compared only by their halt/outbox behavior. (c) and (d) read the
    sends the inner round appended to the outbox it was handed; the
    re-run of (e) sends into a fresh outbox that is then discarded. The
    wrapper adds no messages and never alters the program's observable
    behavior. *)

type instrumentor = {
  instrument : 'st 'msg. ('st, 'msg) Sim.program -> ('st, 'msg) Sim.program;
}
(** A polymorphic wrapping hook, for algorithms that build their node
    program internally (e.g. [Ls_distributed.attempt ~conformance]). *)

val instrumentor :
  ?order_invariant:bool -> recorder -> Dsgraph.Graph.t -> instrumentor
(** {!instrument} with the recorder and graph pre-applied. *)

(** {2 Whole-run verification — invariants (a), (b)} *)

type totals = { rounds : int; messages : int; max_bits : int }

type expectation =
  | Cost_totals of totals
      (** the final {!Cost} meter: must equal the [Cost_charged] sums *)
  | Sim_totals of totals
      (** a {!Sim.stats}: must equal the [Message_sent]/[Round_start]
          sums of the trace *)

val verify_run :
  ?label:string ->
  ?capacity:int ->
  ?recorder:recorder ->
  run:(Trace.sink -> expectation list) ->
  unit ->
  report
(** Runs [run] twice, each time against a fresh sink. [run] must rebuild
    {e all} of its state (graph, RNG, adversary from a {!Fault.spec}) so
    the two executions are replays of one configuration; it returns the
    independently-accounted totals of that execution. Checks: (a) the two
    JSONL-serialized traces are byte-identical and the returned
    expectations coincide; (b) the first run's per-edge bit sums and
    message/round/cost totals agree exactly with {!Metrics.of_trace} and
    every expectation (skipped, plus a failing [capacity] check, when the
    sink overflowed).
    When a [recorder] is given (shared with an {!instrumentor} inside
    [run]) it is cleared between the runs, both runs must record the same
    violations, and the report carries them. [capacity] bounds each sink
    (the {!Trace.sink} default); raise it for chatty programs, since an
    overflowing sink yields a failing [capacity] check. *)
