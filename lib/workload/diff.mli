(** Span-level differential profiling: align the phase trees of two
    runs by interned span path and report per-phase deltas for
    rounds/messages/bits/seconds/minor-words, with added/removed/
    renamed-phase detection and significance annotations against the
    noise floor.

    A side is loaded from a run-report JSON (the [decompose report]
    artifact, whose ["spans"] array carries the span tree) or from a
    BENCH_trajectory.json snapshot (each row a depth-0 phase). Two
    sides recorded in different environments
    ({!Stats.same_environment}) are refused unless forced —
    cross-machine phase timings are not comparable.

    This is the repository's one comparator: [decompose diff], the
    trajectory regression lines of [bench record]/[scale]/[analyze]
    ({!against_history}, {!regressions}) and the dashboard's flags all
    come from {!compare}'s alignment and gates.

    Significance is per metric: logical metrics (rounds, messages,
    bits, minor words) are deterministic for seeded runs, so they use
    the pure relative gate; [seconds] additionally needs to clear an
    absolute floor ([min_seconds]) and the MAD-widened gate
    ({!Stats.threshold}), so sub-millisecond phase jitter never
    flags. Surfaced as [decompose diff <A> <B>]. *)

type phase = {
  path : string;  (** interned span path, ['/']-joined *)
  depth : int;
  columns : (string * float) list;
      (** the compared metrics, by name: [rounds], [messages], [bits],
          [seconds] and [minor_words] for a report span; a trajectory
          row's own numeric columns *)
  seconds_mad : float;
      (** recorded MAD of this phase's seconds (a report's headline
          MAD, a trajectory row's [seconds_mad]); [0.] for single-shot
          measurements *)
}

type side = {
  label : string;
  fingerprint : Stats.fingerprint option;
  phases : phase list;
}

val load : string -> (side, string) result
(** Loads a side from a spec:
    - a JSON document with a ["report"] member (in any layout) — a run
      report of schema {!Report.schema}; its ["spans"] rows become the
      phases, and a missing schema, array or compared column (path,
      depth, rounds, messages, bits, seconds, minor_words) is an
      [Error] naming the file and the key;
    - [path] or [path#N] — a trajectory file; [N] is the 1-based
      snapshot index (negative counts from the end; default [-1], the
      newest); each workload row becomes a depth-0 phase whose columns
      are the row's numeric members except [*_mad] and schema 1's
      [seconds_median] alias; a column one side lacks reads as [0].
    Errors mention the spec, never raise. *)

val side_of_report_json : label:string -> string -> (side, string) result
(** Parses a run-report JSON document (see {!Report.to_json}) as
    strictly as {!load}. *)

val side_of_trajectory_line : label:string -> string -> side
(** One trajectory snapshot line as a side of depth-0 phases. *)

type status =
  | Matched
  | Added
  | Removed
  | Renamed of string  (** the old path this phase was paired with *)

type mdelta = {
  m_name : string;
  m_old : float;
  m_new : float;
  m_sig : bool;  (** |new - old| cleared the significance gate *)
}

type row = {
  r_path : string;
  r_depth : int;
  r_status : status;
  r_metrics : mdelta list;
  r_score : float;
      (** ranking key: the largest significant relative delta across
          metrics; [0.] for rows with no significant delta *)
}

type t = {
  a_label : string;
  b_label : string;
  forced : bool;  (** fingerprints differed but comparison was forced *)
  rows : row list;  (** most significant first, ties by path *)
  significant : int;  (** rows with at least one significant delta *)
}

type options = {
  rel : float;  (** relative gate, default [0.10] *)
  k : float;  (** MAD multiplier, default [3.0] *)
  min_seconds : float;
      (** absolute floor for a seconds delta to matter, default
          [0.005] (5 ms) *)
  force : bool;  (** compare across differing fingerprints *)
}

val default_options : options

val compare : ?options:options -> side -> side -> (t, string) result
(** Aligns [b] (new) against [a] (old). [Error] only when both sides
    carry fingerprints of different environments and [force] is unset
    — the message names both. Renamed-phase detection pairs a removed
    and an added phase that share parent and depth, in order, when
    their round counts are within a factor of two (or both zero). The
    MAD widening a matched seconds delta is the larger of the two
    phases' [seconds_mad]. *)

val to_markdown : t -> string
(** Human summary: verdict line plus a per-phase table with old -> new
    and delta columns, significant cells marked with [!]. *)

val to_json : t -> string
(** Machine shape: labels, verdict, and the full row list. *)

val to_folded : t -> string
(** Differential flamegraph folded stacks: ["a;b;c <old> <new>"] per
    phase with seconds in microseconds — the input difffolded.pl and
    flamegraph renderers expect. Added phases have old 0; removed
    phases have new 0. *)

val significant_rows : t -> row list
(** The rows with at least one significant delta, in rank order. *)

val against_history : string list -> string -> t
(** [against_history history line] compares each row of the snapshot
    [line] with the same-named row of the newest snapshot in [history]
    (oldest first, as {!Trajectory.read_snapshot_lines} returns them)
    that has one in the same environment — or lacks a fingerprint on
    either side. A row no such snapshot has aligns as [Added]. Uses
    {!default_options}. *)

val regressions : t -> (string * mdelta) list
(** The significant increases of matched phases over a positive
    baseline, each with its phase path: decreases, added, removed and
    renamed phases, and zero or missing baselines are never
    regressions. *)

val regression_line : string * mdelta -> string
(** ["regression: <path> <metric>: <old> -> <new> (+<pct>%)"] — the
    exact shape CI greps for. *)
