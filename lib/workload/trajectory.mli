(** The persistent headline-metrics time series (BENCH_trajectory.json)
    and its noise-aware regression comparator.

    The trajectory file is a JSON array with exactly one snapshot
    object per line:
    [{"time":...,"fingerprint":{...},"workloads":[{...},{...}]}]. Each
    workload object carries the headline columns — logical costs
    (rounds, messages, max_bits, phases) plus the resource columns
    (seconds with its median/MAD, minor_words_per_node, peak_heap_mb) —
    and each snapshot carries the {!Stats.fingerprint} it was recorded
    under. [bench record] appends snapshots and diffs the newest
    against the previous one; CI greps the rendered ["regression: ..."]
    lines as warnings.

    Extracted from bench/main.ml so the comparator's edge cases
    (missing baseline row, newly-added row, zero baseline, resource
    columns, MAD widening, fingerprint refusal, malformed lines) are
    unit-testable (test/test_trajectory.ml). *)

type entry = {
  name : string;
  rounds : int;
  messages : int;
  max_bits : int;
  phases : int;  (** distinct span paths seen *)
  seconds : float;
      (** median of the {!Stats.measure} samples (kept under the
          historical ["seconds"] key for back-compat; also emitted as
          ["seconds_median"]) *)
  seconds_mad : float;
      (** median absolute deviation of the samples; [0.] for
          single-shot measurements *)
  minor_words_per_node : float;
      (** minor-heap allocation divided by workload node count — the
          per-node allocation pressure the hot-path work must drive
          down *)
  peak_heap_mb : float;  (** process peak-heap watermark, MB *)
}

val snapshot_json :
  ?fingerprint:Stats.fingerprint -> time:float -> entry list -> string
(** One snapshot line (no trailing newline). [time] is the caller's
    epoch timestamp — this module never reads the clock. *)

val read_snapshot_lines :
  ?warn:(line_number:int -> string -> unit) -> string -> string list
(** The snapshot lines of a trajectory file (trailing comma removed),
    oldest first; [[]] when the file does not exist. A malformed line
    (non-empty content that is neither one JSON object nor an array
    delimiter) is skipped and reported to [warn] with its 1-based line
    number; the default [warn] is silent, matching the historical
    behavior. *)

val write : string -> string list -> unit
(** Rewrites the file as a JSON array, one snapshot per line. *)

val workloads : Json.t -> (string * Json.t) list
(** The named workload objects of a parsed snapshot line, in file
    order, each with its name. *)

type regression = {
  r_name : string;
  r_metric : string;
  r_old : float;
  r_new : float;
  r_pct : float;  (** percentage increase over the baseline *)
}

val default_metrics : string list
(** ["rounds"; "messages"; "max_bits"; "seconds";
    "minor_words_per_node"; "peak_heap_mb"] — [phases] is
    informational, not gated. *)

val compare_lines :
  ?metrics:string list ->
  ?k:float ->
  old_line:string ->
  new_line:string ->
  unit ->
  regression list
(** Every metric of every workload present in both snapshots that grew
    past {!Stats.threshold} [~rel:0.10 ~k ~mad] — i.e. by more than
    [max(10%, k*MAD)], where the MAD comes from the recorded
    ["<metric>_mad"] column (the larger of the two sides; [0.] when
    absent, restoring the pure 10% gate). [k] defaults to [3.].
    [seconds] must additionally grow by more than an absolute 5 ms
    (mirroring {!Diff.options.min_seconds}), so sub-millisecond
    headline jitter on the fast workloads never flags. Workloads
    missing from the baseline (newly added rows), metrics missing from
    either side (e.g. a baseline predating the resource columns), and
    zero or negative baseline values are all skipped, never flagged. *)

type verdict =
  | Regressions of regression list
  | Incomparable of { old_fp : string; new_fp : string }
      (** the fingerprint object of each side, re-emitted *)

val compare_snapshots :
  ?metrics:string list ->
  ?k:float ->
  old_line:string ->
  new_line:string ->
  unit ->
  verdict
(** {!compare_lines} guarded by the environment fingerprint: when both
    snapshots carry one and they differ, the comparison is refused
    ([Incomparable]) instead of flagging phantom cross-machine deltas.
    Lines without fingerprints (pre-observatory history) compare as
    before. *)

val regression_line : regression -> string
(** ["regression: <name> <metric>: <old> -> <new> (+<pct>%)"] — the
    exact shape CI greps for. *)
