(** Hierarchical phase spans: named, nested regions of a run, with every
    traced round boundary, message, and {!Cost.charge} attributed to the
    span path that was open when it happened.

    A span is one path segment pushed onto the sink's open-span stack;
    the recorded events carry the full ["/"]-joined path (e.g.
    ["netdecomp/color=3/strong_carving/transform/level=7"]). The entry
    points take the [Trace.sink option] that run configurations already
    carry, so instrumentation sites need no configuration of their own:
    with no sink attached (or a [~spans:false] sink) every call here is
    a no-op that allocates nothing.

    Attribution happens at replay time ({!rollups}): an event's {e self}
    cost goes to the innermost open span — or to the {!Trace.unspanned}
    bucket when none is open, so per-span self totals always sum exactly
    to the {!Metrics.of_trace} globals — and its {e inclusive} cost to
    every open ancestor. {!rollups} is the one per-span table of a run:
    wall-clock and GC columns join in from a {!Resource} snapshot (the
    recorder reads the clock at {!val-enter}/{!val-exit} but keeps the
    readings out of the event stream, so traces of identical runs remain
    byte-identical), critical/slack columns from a {!Causal.t}. *)

val enter : Trace.sink option -> string -> unit
(** Opens a phase named by one path segment. No-op without a sink. *)

val enter_idx : Trace.sink option -> string -> int -> unit
(** [enter_idx t name i] = [enter t (name ^ "=" ^ string_of_int i)],
    except the label is only formatted when a sink is attached — the
    form loop instrumentation uses ([enter_idx trace "color" k]). *)

val exit : Trace.sink option -> unit
(** Closes the innermost open span.
    @raise Invalid_argument when a sink is attached and no span is
    open. *)

val with_span : Trace.sink option -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] brackets [f ()] in {!val-enter}/{!val-exit},
    exiting also on exceptions. The closure allocates, so per-iteration
    hot loops prefer explicit [enter_idx]/[exit] pairs. *)

type split = {
  critical : int;  (** self rounds on the witness chain; every
                       [Cost_charged] round counts as critical *)
  slack : int;  (** [rounds - critical] *)
}

type rollup = {
  path : string;  (** full ["/"]-joined span path *)
  depth : int;  (** {!Trace.path_depth}: [1] for roots, [0] unspanned *)
  entries : int;  (** number of activations *)
  rounds : int;  (** self: simulator [Round_start]s + [Cost_charged] rounds *)
  rounds_incl : int;  (** inclusive: self + all descendants *)
  messages : int;  (** self: [Message_sent]s + [Cost_charged] messages *)
  messages_incl : int;
  bits : int;  (** self: total [Message_sent] payload bits *)
  bits_incl : int;
  max_message_bits : int;  (** largest message/charge watermark seen *)
  resource : Resource.rollup option;
      (** the path's row of the snapshot passed as [?resource]: self and
          inclusive wall seconds, minor/promoted/major words and major
          collections *)
  causal : split option;  (** present when [?causal] was passed *)
}

val rollups :
  ?resource:Resource.rollup list -> ?causal:Causal.t -> Trace.sink -> rollup list
(** One replay of the sink's event stream into one row per path, in
    order of first appearance (chronological). The sum of the self
    [rounds] / [messages] / [bits] over all rows (including
    {!Trace.unspanned}) equals the corresponding {!Metrics.of_trace}
    totals: [rounds + cost_rounds], [messages_sent + cost_messages], and
    the [bits_per_message] sum. On a capacity-truncated sink the replay
    is best-effort.

    [resource] is the row list of one {!Resource.snapshot}: each row
    joins its path's table row, and rows the stream never saw (normally
    only the unspanned bucket) are placed first, so the self word
    columns still sum exactly to that snapshot's totals. [causal] is
    {!Causal.analyze} of the same sink; the [critical + slack] sum over
    all rows is then [causal.rounds]. *)

type weight = [ `Rounds | `Messages | `Bits | `Seconds | `Minor_words | `Major_words ]

val to_folded : ?weight:weight -> rollup list -> string
(** Flamegraph-compatible folded stacks: one ["frame;frame;... value"]
    line per span path with nonzero self weight (default [`Rounds];
    [`Seconds] in microseconds; the resource weights read [0] on rows
    without the resource columns). Feed to [flamegraph.pl] or any
    folded-stack renderer. *)

val of_folded : string -> ((string * int) list, string) result
(** Parses {!to_folded} output back into [(path, weight)] pairs with
    ["/"] separators restored; blank lines are skipped. *)

val to_json : rollup list -> Json.t
(** The table as an array of objects, one per row, with the same
    column names and number formats as {!csv}. *)

val csv : rollup list -> string
(** One row per path; header [path,depth,entries,rounds,rounds_incl,
    messages,messages_incl,bits,bits_incl,max_message_bits], then
    [seconds,seconds_incl,minor_words,minor_words_incl,promoted_words,
    promoted_words_incl,major_words,major_words_incl,major_collections,
    major_collections_incl] when rows carry resource columns, then
    [critical,slack] when they carry causal ones. *)

val pp_rollups : Format.formatter -> rollup list -> unit
(** Indented per-phase table (inclusive columns), for CLI output. *)

val save :
  ?dir:string -> ?weight:weight -> prefix:string -> rollup list -> string list
(** Writes [<prefix>_phases.csv] ({!csv}) and [<prefix>.folded]
    ({!to_folded} with [weight]) under [dir] (default ["bench_results"],
    created if missing); returns the paths written. *)
