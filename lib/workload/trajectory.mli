(** The persistent headline-metrics time series (BENCH_trajectory.json).

    The trajectory file is a JSON array with exactly one snapshot
    object per line:
    [{"time":...,"schema":2,"fingerprint":{...},"workloads":[{...}]}].
    Each workload object is a row: a ["name"] plus named numeric
    columns, each holding exactly the quantity its name says
    (["seconds"] is always seconds; ["<column>_mad"] is the MAD of
    ["<column>"]). [bench record] appends the rows of an e2e run
    ({!of_e2e}); [bench scale] and [bench analyze] append their own.
    Comparing snapshots is {!Diff}'s job ({!Diff.against_history}).

    Lines without a ["schema"] member are schema 1, whose rows all had
    the fixed columns rounds, messages, max_bits, phases, seconds,
    seconds_median, seconds_mad, minor_words_per_node and
    peak_heap_mb, some of them holding other quantities (the repair and
    analyze rows). *)

type entry = { name : string; columns : (string * Json.t) list }

val snapshot_json :
  ?fingerprint:Stats.fingerprint -> time:float -> entry list -> string
(** One schema-2 snapshot line (no trailing newline). [time] is
    the caller's epoch timestamp — this module never reads the
    clock. *)

val of_e2e : Json.t -> (Stats.fingerprint * entry list, string) result
(** The rows of a [bench/e2e] [results.json] document and the
    fingerprint it was recorded under. Per workload [W]:
    - [e2e/W]: [seconds] and [seconds_mad], the median and MAD
      ({!Stats.summarize}) of [end_to_end.run_s.values], and the exact
      counts [rounds], [messages] and [max_bits] of the traced pass's
      [congest.*];
    - [e2e/W/setup], [e2e/W/step_p50], [e2e/W/step_p99]: the same two
      columns of [setup_s], [step_ms_p50] and [step_ms_p99], converted
      to seconds. A step row is left out when its values are [run_s]'s
      times 1e3, sample for sample (relative tolerance 1e-12): there a
      step is the whole iteration, and the row would repeat [e2e/W];
    - [e2e/W/<layer>]: [seconds], each non-zero per-layer [<layer>.s].

    Strict: a missing [fingerprint], [failed], [workloads] or
    [run_s], empty or non-numeric [values], or [failed > 0] (a run
    with failed operations is not a trajectory point) is an [Error]
    naming the key. *)

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
