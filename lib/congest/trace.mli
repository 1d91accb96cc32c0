(** Round-level event tracing for the CONGEST simulator.

    A {!sink} is an in-memory event buffer that {!Sim.simulate},
    {!Reliable.simulate}, and {!Cost.charge} report into when one is
    attached via {!Sim.Config.with_trace} (or [Cost.create ~trace]).
    Tracing is strictly opt-in and zero-cost when off: every emission
    site in the simulator is guarded by a [match sink with None -> ()]
    so that no event value is ever allocated unless a sink is attached.

    Events mirror the simulator's own accounting, so a trace can be
    checked against {!Sim.stats}: the number of [Message_sent] events
    equals [stats.total_messages], [Message_dropped] events equal
    [stats.faults.dropped], and [Round_start] events equal
    [stats.rounds_used] (test/test_trace.ml asserts exactly this).

    The JSONL lines are written and read through {!Json}: one object
    per line with a fixed field order, parseable by {!event_of_jsonl}
    and by any standard JSON reader. *)

type drop_reason =
  | Adversary  (** iid or burst loss injected by {!Fault.fate} *)
  | Crashed_destination  (** destination had crash-stopped *)

type event =
  | Round_start of { round : int }
  | Round_end of {
      round : int;
      sent : int;  (** program messages sent this round *)
      delivered : int;
          (** messages delivered from this round's buffer (excludes those
              addressed to crashed nodes) *)
      in_flight : int;  (** messages still scheduled for later rounds *)
      halted : int;  (** nodes currently voting to halt *)
    }
  | Message_sent of { round : int; src : int; dst : int; bits : int }
  | Message_delivered of { round : int; src : int; dst : int }
  | Message_dropped of {
      round : int;
      src : int;
      dst : int;
      reason : drop_reason;
    }
  | Message_duplicated of {
      round : int;
      src : int;
      dst : int;
      copy_delay : int;  (** extra rounds before the injected copy lands *)
    }
  | Message_delayed of { round : int; src : int; dst : int; delay : int }
  | Node_halted of { round : int; node : int }
      (** emitted on the transition into a halt vote only *)
  | Node_crashed of { round : int; node : int }
  | Bandwidth_high_water of { round : int; node : int; bits : int }
      (** a message strictly larger than any earlier one in the run *)
  | Cost_charged of {
      tag : string;
      rounds : int;
      messages : int;
      max_bits : int;
    }  (** step-granular {!Cost.charge} accounting, for engine-level runs *)
  | Span_enter of { path : string }
      (** a named phase opened; [path] is the full ["/"]-joined nesting,
          e.g. ["netdecomp/color=3/transform/level=7"]. Carries no
          wall-clock time so traces of identical runs stay byte-identical
          (wall-clock and GC attribution live in {!Resource}). *)
  | Span_exit of { path : string }  (** the matching close *)

type sink

val sink : ?capacity:int -> ?spans:bool -> ?spill:string -> unit -> sink
(** Fresh empty sink. At most [capacity] events are held in memory
    (default 1_000_000). Without [spill], later events are counted in
    {!truncated} but not stored, bounding memory on very long runs.
    With [~spill:path], a full buffer is instead appended to [path] as
    packed native-endian words (the in-memory layout verbatim) and
    recording continues — {!truncated} stays 0 and {!iter}/{!length}/
    {!events} replay the spilled prefix followed by the in-memory tail,
    so Span/Causal/Audit replay keep working past the old memory
    ceiling. The file is created lazily on first flush and deleted by
    {!clear}. [spans] (default [true]) controls whether
    {!enter_span}/{!exit_span} record anything — [~spans:false] gives a
    tracing-only sink with the span machinery compiled to no-ops, the
    baseline the overhead budget is measured against. *)

val spilled : sink -> int
(** Number of events flushed to the spill file ([0] without [~spill]). *)

val record : sink -> event -> unit

val emit_message_sent :
  sink -> round:int -> src:int -> dst:int -> bits:int -> unit
(** Equivalent to recording a {!constructor-Message_sent} event, but
    without constructing one. Events are stored packed as immediate
    ints, so this is a handful of unboxed stores with no allocation —
    the form the simulator uses on its per-message hot path. *)

val emit_message_delivered : sink -> round:int -> src:int -> dst:int -> unit
(** As {!emit_message_sent}, for {!constructor-Message_delivered}. *)

val emit_round_start : sink -> round:int -> unit
(** As {!emit_message_sent}, for {!constructor-Round_start}. *)

val emit_round_end :
  sink ->
  round:int ->
  sent:int ->
  delivered:int ->
  in_flight:int ->
  halted:int ->
  unit
(** As {!emit_message_sent}, for {!constructor-Round_end}. *)

val emit_node_halted : sink -> round:int -> node:int -> unit
(** As {!emit_message_sent}, for {!constructor-Node_halted}. *)

val enter_span : sink -> string -> unit
(** Opens a phase named by one path segment; the recorded
    {!constructor-Span_enter} carries the full path (the open ancestors
    joined with ["/"]). Paths are interned in the same side table as
    cost tags, so recording is packed-int like every other event. No
    clock is read here: wall-time/GC attribution happens only when a
    {!Resource.t} is attached via {!set_span_hooks}, and stays out of
    the event stream either way. Most callers want {!Span.enter}, which
    takes the [sink option] the run configuration carries. *)

val exit_span : sink -> unit
(** Closes the innermost open span.
    @raise Invalid_argument when no span is open. *)

val span_depth : sink -> int
(** Number of currently open spans. *)

val spans_enabled : sink -> bool

val span_path : sink -> int -> string
(** Resolves an interned span path id (as passed to the hooks) back to
    the full ["/"]-joined path. *)

val unspanned : string
(** ["(unspanned)"]: the synthetic path that per-span attribution
    ({!Span.rollups}, {!Resource.rollups}) charges while no span is
    open. *)

val path_depth : string -> int
(** Nesting depth of a span path: [1] for a root, one more per ["/"],
    and [0] for {!unspanned}. *)

val set_span_hooks : sink -> enter:(int -> unit) -> exit:(int -> unit) -> unit
(** Registers span observers: [enter]/[exit] fire from
    {!enter_span}/{!exit_span} with the interned path id. Installed by
    {!Resource.attach}; reset to no-ops by {!clear} (path ids restart,
    so an attached recorder would go stale). *)

val length : sink -> int

val truncated : sink -> int
(** Events discarded because the sink hit its capacity. *)

val events : sink -> event list
(** All retained events in emission order. *)

val iter : (event -> unit) -> sink -> unit
val clear : sink -> unit

val pp_event : Format.formatter -> event -> unit

val event_to_jsonl : event -> string
(** One JSON object, no trailing newline, fields in a fixed order, e.g.
    [{"ev":"message_sent","round":3,"src":0,"dst":5,"bits":14}]. *)

val event_of_jsonl : string -> (event, string) result
(** Inverse of {!event_to_jsonl}; [Error] describes the first problem. *)

val to_jsonl : sink -> string
(** All retained events, one per line, each line ending in ['\n']. *)

val of_jsonl : string -> (event list, string) result
(** Parses the output of {!to_jsonl} (blank lines are skipped). *)

val save : ?dir:string -> file:string -> sink -> string
(** Writes {!to_jsonl} to [dir/file] (default dir ["bench_results"],
    created if missing) and returns the path written. *)
