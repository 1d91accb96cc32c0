(** Span-level differential profiling: align the phase trees of two
    runs by interned span path and report per-phase deltas for
    rounds/messages/bits/seconds/minor-words, with added/removed/
    renamed-phase detection and significance annotations against the
    noise floor.

    A side is loaded from a run-report JSON (the [decompose report]
    artifact, whose ["spans"] array carries the span tree) or from a
    BENCH_trajectory.json row (headline workloads only, each a depth-0
    phase). Two sides recorded under
    different {!Stats.fingerprint}s are refused unless forced —
    cross-machine phase timings are not comparable.

    Significance is per metric: logical metrics (rounds, messages,
    bits, minor words) are deterministic for seeded runs, so they use
    the pure relative gate; [seconds] additionally needs to clear an
    absolute floor ([min_seconds]) and the MAD-widened gate
    ({!Stats.threshold}), so sub-millisecond phase jitter never
    flags. Surfaced as [decompose diff <A> <B>]. *)

type phase = {
  path : string;  (** interned span path, ['/']-joined *)
  depth : int;
  rounds : float;
  messages : float;
  bits : float;
  seconds : float;
  minor_words : float;
}

type side = {
  label : string;
  fingerprint : Stats.fingerprint option;
  seconds_mad : float;
      (** recorded MAD of the side's headline seconds; [0.] for
          single-shot reports *)
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
      newest); each workload row becomes a depth-0 phase, and a column
      an older snapshot lacks reads as [0].
    Errors mention the spec, never raise. *)

val side_of_report_json : label:string -> string -> (side, string) result
(** Parses a run-report JSON document (see {!Report.to_json}) as
    strictly as {!load}. *)

val side_of_trajectory_line : label:string -> string -> side
(** One trajectory snapshot line as a side of headline phases. *)

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
(** Aligns [b] (new) against [a] (old). [Error] only on fingerprint
    mismatch without [force] — the message names both environments.
    Renamed-phase detection pairs a removed and an added phase that
    share parent and depth, in order, when their round counts are
    within a factor of two (or both zero). *)

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
