(** Unified run reports: one self-contained document per
    algorithm-on-family run, aggregating everything the observability
    stack can say about it —

    - the measurement row ({!Measure}): colors, diameters, rounds,
      message sizes, checker verdict;
    - replayed {!Congest.Metrics} (counters, gauges, histograms);
    - the causal critical path and slack ({!Congest.Causal});
    - the one per-span table ({!Congest.Span.rollups}): logical cost,
      wall-clock and GC attribution from a {!Congest.Resource} recorder
      attached for the run, and the per-span critical/slack split;
    - the process totals of that recorder (peak heap, minor/major
      words);
    - the per-cluster {!Audit} certificate table and the independent
      {!Audit.verify} verdict against the raw graph.

    Rendered as markdown (for humans and CI artifacts) and as a single
    JSON object (for downstream tooling); both carry the same data. *)

type t = {
  algo : string;
  reference : string;
  family : string;
  n : int;
  m : int;
  seed : int;
  epsilon : float option;  (** carvings only *)
  colors : int;  (** [0] for carvings *)
  strong_diameter : int option;
  weak_diameter : int;
  dead_fraction : float option;  (** carvings only *)
  rounds : int;
  messages : int;
  max_message_bits : int;
  valid : bool;
  seconds : float;
  trace : Congest.Trace.sink;
      (** the run's span-enabled event stream (the JSON's [events] and
          [truncated] are its {!Congest.Trace.length} and
          {!Congest.Trace.truncated}) *)
  resource : Congest.Resource.t;
      (** the recorder attached for the run; its span timeline is the
          [chrome] file of {!save} *)
  metrics : Congest.Metrics.t;
  spans : Congest.Span.rollup list;
      (** the per-span table with the resource and causal column groups *)
  res_totals : Congest.Resource.totals;
      (** process totals over the run window, one sample with the
          resource columns of [spans] and the [res.*] metrics so the
          exact-sum invariant holds between them. The window is the
          measured row alone: it closes before the certificate audit *)
  causal : Congest.Causal.t;
  audit : Audit.t;
  audit_verdict : (unit, string) result;
  fingerprint : Stats.fingerprint;
      (** the environment the run was recorded in — embedded in the
          JSON so {!Diff} can refuse cross-environment comparisons *)
}

val of_decomposer :
  ?seed:int -> Algorithms.decomposer -> Suite.family -> n:int -> t
(** Runs the decomposer once with a span-enabled trace sink and
    assembles the full report, including the certificate audit and its
    independent verification. *)

val of_carver :
  ?seed:int -> ?epsilon:float -> Algorithms.carver -> Suite.family -> n:int -> t
(** As {!of_decomposer} for carvers; [epsilon] defaults to [0.25]. *)

val to_markdown : t -> string
(** Self-contained markdown document: headline table, causal summary,
    the per-span table ({!Congest.Span.csv}), metrics, and the cluster
    audit table (capped rows are noted explicitly, never dropped
    silently). *)

val schema : int
(** Version of the {!to_json} layout, written as ["report"]["schema"];
    {!Diff} refuses report sides of any other version. *)

val to_json : t -> string
(** One JSON object mirroring {!to_markdown}'s content: [report],
    [fingerprint], [causal], [spans] ({!Congest.Span.to_json}),
    [resources] (the recorder's totals), [metrics] (the array of
    {!Congest.Metrics.to_json} objects) and [audit]. *)

val save :
  ?dir:string ->
  ?weight:Congest.Span.weight ->
  ?chrome:string ->
  t ->
  string list
(** Writes every artifact of the run under [dir] (default
    ["bench_results"], created if missing), each named
    [report_<algo>_<family>] plus: [.md], [.json], [.jsonl] (the event
    stream, {!Congest.Trace.save}), [_metrics.csv] and [_metrics.jsonl]
    ({!Congest.Metrics.save}), [_phases.csv] and [.folded] (the per-span
    table and its folded stacks under [weight], default rounds,
    {!Congest.Span.save}); with [chrome], also the span timeline as
    Chrome trace-event JSON at that path. Returns the paths written, in
    that order. *)

val pp_summary : Format.formatter -> t -> unit
(** Short CLI summary: headline verdicts plus where the files landed
    belongs to the caller. *)
