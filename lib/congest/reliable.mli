(** Reliable transport over a faulty {!Sim} fabric.

    [wrap cfg program] turns any CONGEST program into one that survives a
    {!Fault} adversary (message drops, duplication, bounded reordering,
    crash-stop nodes). It is an alpha-synchronizer running the inner
    program in lockstep: one {e token} — the inner message, or an explicit
    "nothing this round" — per live neighbor per inner round, carrying a
    sequence number and a cumulative acknowledgement. A node executes
    inner round [r] only once it holds every live neighbor's round-[r-1]
    token, so under any fault schedule the inner program observes exactly
    the synchronous semantics of {!Sim.simulate}: delivery is
    exactly-once and in order per sequence number.

    The wrapped program runs the inner program for a {e fixed} number of
    rounds, [cfg.inner_rounds] — distributed termination detection under
    message loss is deliberately out of scope — so callers size
    [inner_rounds] generously; all of this repo's distributed programs
    idle harmlessly after quiescence, which is what makes the zero-fault
    transparency guarantee exact rather than approximate.

    {b Pipelining.} A send window of [window] tokens per neighbor lets a
    node run ahead of acknowledgements: with the default [window = 2], a
    fault-free run advances one inner round per outer round — the wrapper
    costs only a small additive number of drain rounds. Under loss it
    degrades towards stop-and-wait, retransmitting the oldest
    unacknowledged token every [rto] outer rounds; retransmissions of
    already-delivered tokens trigger re-acknowledgements rather than
    duplicate deliveries.

    {b Crash detection.} A link is declared dead when the node has been
    {e awaiting} it (unacknowledged tokens outstanding, or blocked on its
    next token) and has heard nothing for [liveness_timeout] outer rounds.
    Pure-ack heartbeats every [heartbeat_every] rounds keep live-but-idle
    links audible, so with the default timeout only genuinely crashed
    neighbors are excluded. Survivors then continue the inner program on
    the induced live subgraph (the dead neighbor simply stops appearing in
    inboxes).

    {b Bit accounting.} Every frame pays {!header_bits} on top of its
    payload — two sequence-number-sized fields plus flags — and
    {!simulate} checks frames against [inner bandwidth + header_bits].
    Since [inner_rounds] is polynomial in [n] for every program in this
    repo, the header is [O(log n)] and the CONGEST claim survives
    wrapping. *)

type config = {
  inner_rounds : int;  (** exact number of inner rounds to execute *)
  window : int;  (** send window per neighbor (tokens in flight) *)
  rto : int;  (** retransmit oldest unacked token after this many rounds *)
  heartbeat_every : int;
      (** an unfinished node pings otherwise-silent links at this cadence *)
  liveness_timeout : int;
      (** declare an awaited link dead after this many silent rounds *)
  backoff : float;
      (** exponential backoff factor: the [k]-th retransmission of a
          token waits [rto * backoff^k] rounds; [1.0] (the default)
          keeps the classic fixed-interval behavior byte-identical *)
  max_rto : int;  (** cap on the backed-off interval; [0] = uncapped *)
  max_retries : int;
      (** declare a link dead once its oldest token has been
          retransmitted this many times unacknowledged, even before the
          silence timeout; [0] (the default) = retry forever *)
  jitter : int;
      (** add a deterministic pseudo-random extra wait in
          [0 .. jitter] rounds per retransmission, de-synchronizing
          retry storms; [0] = none *)
  jitter_seed : int;
      (** seeds the jitter mixer; the jitter of a retransmission is a
          pure function of (seed, node, neighbor, seq, attempt), so
          replays stay deterministic *)
}

val config :
  ?window:int ->
  ?rto:int ->
  ?heartbeat_every:int ->
  ?liveness_timeout:int ->
  ?backoff:float ->
  ?max_rto:int ->
  ?max_retries:int ->
  ?jitter:int ->
  ?jitter_seed:int ->
  inner_rounds:int ->
  unit ->
  config
(** Defaults: [window = 2], [rto = 2], [heartbeat_every = 8],
    [liveness_timeout = 64], [backoff = 1.0], [max_rto = 0] (uncapped),
    [max_retries = 0] (unbounded), [jitter = 0], [jitter_seed = 0] —
    the adaptive-backoff knobs all default {e off}, preserving
    byte-identical traces for pre-existing runs.
    @raise Invalid_argument unless [inner_rounds >= 1], [window >= 1],
    [rto >= 1], [heartbeat_every >= 1],
    [liveness_timeout > rto + heartbeat_every] (anything tighter risks
    declaring slow-but-live links dead), [backoff >= 1.0], and the
    remaining knobs are non-negative with [max_rto >= rto] when set. *)

val header_bits : inner_rounds:int -> int
(** Per-frame overhead: sequence number + cumulative ack + flag bits. *)

type 'msg frame
(** Wire format of the wrapped program: token and/or acknowledgement. *)

type ('st, 'msg) node
(** Transport state of one node: inner state plus per-neighbor link
    bookkeeping (send queue, expected sequence, liveness clock). *)

val wrap :
  config -> ('st, 'msg) Sim.program -> (('st, 'msg) node, 'msg frame) Sim.program
(** The transport combinator. Run it through {!simulate}, which sizes a
    frame as {!header_bits} plus the payload's [bits] (if any) and widens
    the bandwidth by {!header_bits}. *)

val finished : ('st, 'msg) node -> bool
(** Whether the node executed all [inner_rounds] inner rounds. *)

type transport_stats = {
  retransmissions : int;
  heartbeats : int;
  detected_dead : int list;
      (** union of the nodes' declared-crashed neighbors, sorted *)
}

val transport_stats : ('st, 'msg) node array -> transport_stats

type 'st result = {
  states : 'st array;  (** final inner states (crashed nodes: frozen) *)
  finished : bool array;
  dead_view : int list array;  (** per node, neighbors it declared crashed *)
  sim_stats : Sim.stats;
  transport : transport_stats;
}

val simulate :
  ?sim:Sim.Config.t ->
  config ->
  bits:('msg -> int) ->
  Dsgraph.Graph.t ->
  ('st, 'msg) Sim.program ->
  'st result
(** [simulate ~sim cfg ~bits g program] wraps [program] and simulates it
    under the run configuration [sim] (default {!Sim.Config.default}).
    [sim.bandwidth] is the {e inner} budget (default {!Bits.bandwidth});
    the outer simulation enforces [bandwidth + header_bits].
    [sim.max_rounds] defaults to
    [6 * inner_rounds + 8 * liveness_timeout + 64], ample for drop rates
    well beyond the benchmarked 0.1. A [sim.trace] sink observes the
    {e outer} (transport-level) rounds and frames. The transport's own
    knobs (window, timeouts, backoff) are [cfg]'s. *)
