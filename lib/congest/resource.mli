(** Side-channel resource profiler: wall-clock and GC attribution per
    span path.

    A {!t} hooks the {!Trace.enter_span}/{!Trace.exit_span} events of a
    sink (via {!attach}) and charges, per span path, wall-clock seconds
    and GC allocation (minor/major/promoted words, major collections)
    to the innermost open span — or to the synthetic ["(unspanned)"]
    bucket when no span is open — plus inclusive totals to every open
    ancestor. Nothing is ever written into the packed event stream:
    traces of identical runs stay byte-identical whether or not a
    recorder is attached (test/test_resource.ml asserts exactly this).

    Attribution uses a single sample cursor: at every span transition
    the clock and GC counters are read once and the delta since the
    previous sample is charged. Word deltas therefore telescope — the
    per-path self values plus ["(unspanned)"] sum {e exactly} to the
    process totals over the observation window (floats of integral word
    counts add exactly below 2^53); seconds obey the same invariant up
    to float rounding. This is the resource analogue of the span
    profiler's exact-sum invariant.

    This module is also the single sanctioned clock/GC read point
    outside [bench/]: the [wallclock] lint rule confines
    [Unix.gettimeofday], [Unix.time], [Sys.time] and [Gc.*] to here, so
    node programs and engines can never observe time or GC state. *)

type t

val now : unit -> float
(** Wall-clock seconds since the epoch — the one sanctioned timebase
    for the whole tree (harness timing in [Workload] goes through
    here). *)

val create : unit -> t
(** Fresh recorder; the observation window (and the Chrome-trace time
    origin) starts now. Usable standalone for process-wide totals and
    {!heartbeat}s, or hooked to a sink with {!attach}. *)

val attach : t -> Trace.sink -> unit
(** Registers [t] on the sink's span hooks: subsequent
    [enter_span]/[exit_span] calls feed the per-path tables and the
    Chrome timeline; pass {!snapshot}'s rows to {!Span.rollups} to join
    them onto the per-span table. Attach a fresh recorder after
    {!Trace.clear} — clearing resets the hooks because path interning
    restarts. *)

type rollup = {
  r_path : string;  (** full "/"-joined span path, or {!Trace.unspanned} *)
  r_depth : int;  (** {!Trace.path_depth}: [1] for roots, [0] unspanned *)
  r_entries : int;  (** closed or open activations seen *)
  r_seconds : float;  (** self wall seconds (excludes open descendants) *)
  r_seconds_incl : float;
  r_minor_words : float;  (** self minor-heap allocation, words *)
  r_minor_words_incl : float;
  r_promoted_words : float;
  r_promoted_words_incl : float;
  r_major_words : float;  (** major-heap allocation incl. promotions *)
  r_major_words_incl : float;
  r_major_collections : int;
  r_major_collections_incl : int;
}

type totals = {
  t_seconds : float;  (** window length: create/attach to last sample *)
  t_minor_words : float;
  t_promoted_words : float;
  t_major_words : float;
  t_major_collections : int;
  t_peak_heap_words : int;
      (** process-wide [top_heap_words] watermark, sampled at
          transitions — monotone over the process lifetime, not scoped
          to the window *)
}

val rollups : t -> rollup list
(** Per-path attribution sorted by path, ["(unspanned)"] first. Self
    columns over all paths sum to {!totals} (exactly for words, to
    float rounding for seconds). Reading samples the cursor, so idle
    tail time is folded into ["(unspanned)"]. *)

val totals : t -> totals

val snapshot : t -> rollup list * totals
(** Both views of the {e same} sample: one cursor flush, then the
    per-path rollups and the window totals read from identical state.
    Separate {!rollups}/{!totals} calls each sample again, so work done
    between them (allocating the first result!) shifts the totals —
    exact-sum comparisons must use [snapshot]. *)

val peak_heap_mb : totals -> float
(** [t_peak_heap_words] in megabytes ([Sys.word_size] bytes/word). *)

val metrics : ?into:Metrics.t -> totals -> Metrics.t
(** Exports window totals (one {!snapshot}'s, so they agree with its
    rollups) as gauges ([res.seconds],
    [res.minor_words], [res.promoted_words], [res.major_words],
    [res.peak_heap_mb]) and a counter ([res.major_collections]). *)

val heartbeat : t -> string -> unit
(** [heartbeat t phase] prints a one-line progress pulse to stderr:
    phase name, elapsed seconds since {!create}, peak heap and minor
    words so far. Used by [bench scale] so the ~90 s RMAT pipeline is
    not completely dark. *)

(** {2 Chrome trace-event export}

    {!chrome_json} renders the recorded span timeline as catapult
    trace-event JSON — balanced [B]/[E] duration pairs with
    microsecond timestamps — loadable in [chrome://tracing] and
    Perfetto. Timestamps come from the resource side channel, never
    from the packed trace. *)

type chrome_event = {
  ce_path : string;  (** full span path *)
  ce_phase : [ `B | `E ];
  ce_ts : float;  (** microseconds since the recorder's origin *)
}

val chrome_events : t -> chrome_event list
(** The raw timeline in emission order; balanced iff every span entered
    during the window has exited. *)

val chrome_json : t -> string
(** [{"traceEvents":[...],"displayTimeUnit":"ms"}]; event names are the
    last path segment (so stacks nest in the viewer) and each event
    carries the full path under ["args"]. *)

val chrome_of_json : string -> (chrome_event list, string) result
(** Parses {!chrome_json} output (or any catapult document with a
    ["traceEvents"] array of B/E events) back; [Error] describes the
    parse failure or the first malformed event. *)
