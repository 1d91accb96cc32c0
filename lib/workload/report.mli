(** Unified run reports: one self-contained document per
    algorithm-on-family run, aggregating everything the observability
    stack can say about it —

    - the measurement row ({!Measure}): colors, diameters, rounds,
      message sizes, checker verdict;
    - replayed {!Congest.Metrics} (counters, gauges, histograms);
    - per-phase {!Congest.Span} rollups;
    - the causal critical path and slack ({!Congest.Causal}),
      including the per-span critical/slack split;
    - the {!Congest.Resource} side channel: per-span wall-clock and
      GC-allocation attribution plus the process totals (peak heap,
      minor/major words), gathered by a recorder attached for the run;
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
  events : int;  (** trace events recorded *)
  truncated : int;  (** events dropped by the sink's capacity bound *)
  metrics : Congest.Metrics.t;
  rollups : Congest.Span.rollup list;
  res_rollups : Congest.Resource.rollup list;
      (** per-span resource attribution, ["(unspanned)"] included *)
  res_totals : Congest.Resource.totals;
      (** process totals over the run window, one sample with
          [res_rollups] so the exact-sum invariant holds between them *)
  causal : Congest.Causal.t;
  span_slack : Congest.Causal.span_slack list;
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
    per-span critical/slack table, metrics, phase rollups, and the
    cluster audit table (capped rows are noted explicitly, never
    dropped silently). *)

val to_json : t -> string
(** One JSON object mirroring {!to_markdown}'s content; metrics are
    embedded as the array of {!Congest.Metrics.to_json} objects. *)

val save : ?dir:string -> t -> string list
(** Writes [report_<algo>_<family>.md] and [.json] under [dir]
    (default ["bench_results"], created if missing); returns the paths
    written. *)

val pp_summary : Format.formatter -> t -> unit
(** Short CLI summary: headline verdicts plus where the files landed
    belongs to the caller. *)
