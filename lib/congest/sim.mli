(** Faithful synchronous CONGEST simulator.

    Nodes run the same program; per round each node reads its inbox (one
    message per neighbor at most on a fault-free fabric; an adversary may
    duplicate or delay deliveries), updates its state, and sends at most
    one message per incident edge. Messages travel through a ring of
    flat round buffers, one per round of delay the adversary may add
    plus two, so the fault-free and the adversarial runs share one
    delivery path. Message sizes are measured by a
    user-supplied [bits] function and checked against the bandwidth;
    exceeding it raises {!Bandwidth_exceeded} — this is how the ABCP96
    baseline's unbounded messages are surfaced.

    The fabric is perfectly reliable unless an adversary ({!Fault.t}) is
    interposed via the run {!Config}, in which case messages may be
    dropped, duplicated, or delayed, and nodes may crash-stop; every
    injected fault is counted in {!stats.faults}. Programs that must
    survive such an adversary should be wrapped with
    {!Reliable.simulate}.

    All run options live in one {!Config.t} record consumed by
    {!simulate}; build one with {!Config.default} and the [with_*]
    setters (or a record update). *)

exception
  Bandwidth_exceeded of {
    node : int;
    dst : int;  (** destination neighbor of the offending message *)
    round : int;  (** 1-based round in which it was sent *)
    bits : int;
    bandwidth : int;
  }

exception Incomplete of { max_rounds : int; running : int }
(** Raised by [`Raise] on incomplete runs: [max_rounds] elapsed with
    [running] nodes still not halted (or messages still in flight). *)

(** {2 Node programs}

    A round is push-based: the simulator hands a node a read-only view
    of the messages delivered to it this round and an outbox; the node
    returns its new state and, during the call, {!send}s messages and
    may vote to {!halt}. Both values are owned by the simulator and
    reused across calls, so an idle round allocates nothing; a program
    must not keep either beyond the call that received it.

    A program that knows it has nothing to do may also pass a wake hint
    with {!idle}: {!simulate} then skips the node's next rounds until the
    hint runs out or mail arrives for it. The hint never changes a run's
    result, only how often [round] is called: a program that never calls
    {!idle} is called every round. *)

type 'msg inbox
(** The messages delivered to one node in one round, in send order
    (senders in increasing node order; a sender's messages in its own
    send order; with an adversary, delayed copies in the order they were
    scheduled). *)

type 'msg out
(** One node's outbox for one round. *)

val send : 'msg out -> int -> 'msg -> unit
(** [send out dst msg] sends [msg] to neighbor [dst], arriving next
    round on a fault-free fabric. Sending twice to the same neighbor in
    one round, or to a non-neighbor, makes {!simulate} raise
    [Invalid_argument] after the round returns. *)

val halt : 'msg out -> unit
(** Votes to halt this round. A node that does not call [halt] keeps
    the run going; the vote is cast afresh every round the node is
    called, and a skipped node (see {!idle}) keeps its last vote. *)

val idle : 'msg out -> rounds:int -> unit
(** [idle out ~rounds:k] is a wake hint: the node has nothing to do in
    its next [k] rounds unless mail arrives, so {!simulate} may skip
    them. It is only a hint. A skipped node keeps the halt vote of this
    call, and a delivery wakes it early. Skipping is sound only when the
    program, called in a skipped round with an empty inbox, would have
    sent nothing and voted as it did here; a woken node catches up with
    {!round}. [k <= 0] gives no hint; [k = max_int] means "until mail"
    (the wake round saturates). Wrappers that run an inner program on a
    private outbox may drop the hint and call it every round. *)

val round : 'msg out -> int
(** The 1-based round this call runs, so a node woken after skipped
    rounds can count them. An outbox made with {!Out.create} reads 0
    until {!Out.set_round}. *)

module Inbox : sig
  type 'msg t = 'msg inbox

  val length : 'msg t -> int
  val is_empty : 'msg t -> bool

  val iter : (int -> 'msg -> unit) -> 'msg t -> unit
  (** [iter f inbox] calls [f src msg] in delivery order. *)

  val fold : ('acc -> int -> 'msg -> 'acc) -> 'acc -> 'msg t -> 'acc
  val to_list : 'msg t -> (int * 'msg) list

  (** {3 Building inboxes} for wrappers that run an inner program
      ({!Reliable}, {!Conformance}) and for tests. *)

  val create : unit -> 'msg t
  val of_list : (int * 'msg) list -> 'msg t
  val clear : 'msg t -> unit

  val add : 'msg t -> int -> 'msg -> unit
  (** [add inbox src msg] appends one delivery. *)
end

module Out : sig
  type 'msg t = 'msg out
  (** Reading an outbox back, for wrappers and tests. *)

  val create : unit -> 'msg t

  val reset : 'msg t -> unit
  (** Empties the outbox and clears the halt vote and the wake hint;
      the round number stays. *)

  val set_round : 'msg t -> int -> unit
  (** Sets the round {!round} reports. A wrapper that owns a private
      outbox sets it to its inner round before each inner call. *)

  val length : 'msg t -> int

  val dst : 'msg t -> int -> int
  (** [dst out i] is the destination of the [i]-th message sent. *)

  val msg : 'msg t -> int -> 'msg
  val halted : 'msg t -> bool
end

type ('st, 'msg) program = {
  init : node:int -> neighbors:int array -> 'st;
      (** Initial state; a node knows its own identifier and its neighbors'
          (standard after one round of identifier exchange). *)
  round : node:int -> state:'st -> inbox:'msg inbox -> out:'msg out -> 'st;
      (** [round ~node ~state ~inbox ~out] reads this round's deliveries,
          sends through [out], and returns the new state. It is called
          every round the node is alive, except rounds it declared
          {!idle} and received no mail in. *)
}

type fault_stats = {
  dropped : int;  (** messages lost (iid, burst, or sent to a crashed node) *)
  duplicated : int;  (** extra copies injected *)
  delayed : int;  (** deliveries postponed past the next round *)
  crashed : int list;  (** nodes crash-stopped during the run, sorted *)
}

type stats = {
  rounds_used : int;
  total_messages : int;  (** program-sent messages (injected copies excluded) *)
  max_bits_seen : int;
  all_halted : bool;  (** false when stopped by [max_rounds] *)
  faults : fault_stats;  (** all zero when no adversary was given *)
}

(** Run configuration: every knob of a simulation in one value, so entry
    points take [?config] instead of a growing pile of optional
    arguments, and new knobs (like tracing) do not ripple through every
    caller's signature. *)
module Config : sig
  type t = {
    max_rounds : int option;  (** [None] means [4 * n + 16] *)
    bandwidth : int option;  (** [None] means {!Bits.bandwidth} *)
    adversary : Fault.t option;
    on_incomplete : [ `Ignore | `Warn | `Raise ];
    trace : Trace.sink option;  (** event sink; [None] = tracing off *)
  }
  (** The reliable transport's own knobs (window, timeouts) live in
      {!Reliable.config}, not here. *)

  val default : t
  (** No adversary, no trace, defaults for rounds/bandwidth, [`Warn]. *)

  val with_max_rounds : int -> t -> t
  val with_bandwidth : int -> t -> t
  val with_adversary : Fault.t -> t -> t
  val with_on_incomplete : [ `Ignore | `Warn | `Raise ] -> t -> t

  val with_trace : Trace.sink -> t -> t
  (** Setters take the configuration last for pipeline style:
      [Config.(default |> with_max_rounds 64 |> with_trace sink)]. *)
end

val log_src : Logs.src
(** Logs source ["congest.sim"] used by [`Warn] on incomplete runs. *)

val simulate :
  ?config:Config.t ->
  bits:('msg -> int) ->
  Dsgraph.Graph.t ->
  ('st, 'msg) program ->
  'st array * stats
(** Runs until every node votes to halt {e and} no message is in flight,
    or until [config.max_rounds] (default [4 * n + 16]); a node skipped
    under an {!idle} hint counts with the vote it last cast, and a
    crashed node counts as halted.
    [config.bandwidth] defaults to {!Bits.bandwidth}. Returns final
    states (a crashed node's state is frozen at its crash round).

    Cost: a round visits only its due nodes, those with mail and those
    whose wake round (or, under an adversary, crash or revive round)
    it is, in increasing node order. It costs O(due nodes + n / 62)
    plus the calls, their sends and deliveries; once every 64 rounds
    the nodes whose wake round was further ahead are re-filed. Set-up
    is O(n + m); the scheduler keeps O(n) words.

    When the run is cut off by [max_rounds] with nodes still running or
    messages still in flight, [config.on_incomplete] decides what
    happens: [`Warn] (default) logs a warning on {!log_src} —
    easy-to-miss silent truncation was a real bug source — [`Raise]
    raises {!Incomplete}, and [`Ignore] stays silent for callers that
    use the cutoff deliberately (Las Vegas retries, adversarial-fault
    sweeps).

    When [config.trace] holds a sink, every round boundary, message
    event (sent / delivered / dropped / duplicated / delayed), halt and
    crash transition, and bandwidth high-water mark is recorded in it;
    with [trace = None] no event is allocated at all. *)
