(** Statistical measurement: multi-sample timing with warmup and GC
    settling, median/MAD summaries, the instrumentation-overhead
    calibration, and the environment fingerprint every persisted
    measurement carries.

    Instead of a single-shot [seconds] headline that drifts with
    machine noise, callers run {!measure} and persist the median
    together with the MAD (median absolute deviation), so the {!Diff}
    comparator can tell noise from regression — a delta is only significant when it exceeds
    [max(rel * baseline, k * MAD)] (see {!threshold}). {!overhead} is
    the calibration every [bench overhead <layer>] row goes through.

    Alongside [congest/resource] and [bench/], this module is the only
    sanctioned wall-clock/GC site (the [wallclock] lint rule admits it
    by name); all timing goes through {!Congest.Resource.now}. *)

type fingerprint = {
  git_sha : string;  (** short commit sha, or ["unknown"] outside a checkout *)
  ocaml_version : string;
  word_size : int;
  flambda : bool;
  hostname : string;
}
(** The environment a measurement was taken in, and the commit it
    measured. Rows recorded in different environments (see
    {!same_environment}) are not hard-comparable: the comparator
    refuses rather than flag phantom regressions across machines or
    compiler configurations. *)

val current_fingerprint : unit -> fingerprint
(** Resolves the git sha from [GITHUB_SHA] when set, else by walking up
    from the cwd to [.git] (HEAD -> ref -> packed-refs); never raises —
    unresolvable fields degrade to ["unknown"]. *)

val fingerprint_value : fingerprint -> Json.t
(** Flat JSON object, e.g.
    [{"git_sha":"abc123","ocaml_version":"5.1.1","word_size":64,"flambda":false,"hostname":"ci"}]. *)

val fingerprint_json : fingerprint -> string
(** {!fingerprint_value}, rendered. *)

val fingerprint_of_value : Json.t -> fingerprint option
(** Inverse of {!fingerprint_value}; [None] when any field is missing or
    malformed. *)

val same_environment : fingerprint -> fingerprint -> bool
(** Equal on everything but [git_sha]: [ocaml_version], [word_size],
    [flambda] and [hostname]. Two commits measured on one machine
    compare; one commit measured on two machines does not. *)

val pp_fingerprint : Format.formatter -> fingerprint -> unit

type plan = {
  warmup : int;  (** untimed runs before sampling *)
  samples : int;  (** timed runs; clamped to at least 1 *)
  settle : bool;  (** [Gc.full_major] before each timed run *)
}

val default_plan : plan
(** [{ warmup = 1; samples = 5; settle = true }] *)

val quick_plan : plan
(** [{ warmup = 1; samples = 3; settle = true }] — for expensive
    workloads where five samples would blow the CI budget. *)

val settle : unit -> unit
(** [Gc.full_major] — exposed so samplers living outside this module
    (e.g. {!Measure}) can settle the heap between samples without
    touching [Gc] directly, which the [wallclock] lint rule confines
    to the sanctioned sites. *)

type summary = {
  runs : int;
  median : float;
  mad : float;  (** median absolute deviation from the median *)
  lo : float;
  hi : float;
}

val summarize : float list -> summary
(** Median/MAD/extremes of a sample list. Raises [Invalid_argument] on
    the empty list. *)

val measure : ?plan:plan -> (unit -> 'a) -> 'a * summary
(** Runs [f] [plan.warmup] untimed times, then [plan.samples] timed
    times (each preceded by [Gc.full_major] when [plan.settle]),
    returning the last run's result and the timing summary. Timing uses
    {!Congest.Resource.now}, the repo's single sanctioned clock. *)

type overhead = {
  base : summary;  (** the instrumentation off *)
  layer : summary;  (** the instrumentation on *)
  base2 : summary;  (** off again: the noise floor *)
  overhead_pct : float;  (** [100 * (layer - base) / base], on medians *)
  floor_pct : float;  (** [100 * (base2 - base) / base], on medians *)
}
(** The cost of one instrumentation layer, reported next to the
    measured run-to-run noise it has to be read against. *)

val overhead :
  ?plan:plan -> base:(unit -> 'a) -> layer:(unit -> 'b) -> unit -> overhead
(** The base/layer/base sandwich: [plan.warmup] untimed runs of
    [layer] and [base], alternating, then three {!measure} batches of
    [plan.samples] timed runs each — [base], [layer], [base] again.
    With [plan.settle] the heap is settled once before each batch, so
    no batch pays the previous one's garbage, but not before each
    sample, which would make every sample regrow the heap. The second base
    batch bounds the noise: an [overhead_pct] inside [floor_pct] is
    not a cost. *)

val threshold : ?rel:float -> ?k:float -> mad:float -> float -> float
(** [threshold ~mad baseline] is the absolute delta a measurement must
    exceed to be significant against [baseline]:
    [max (rel *. |baseline|) (k *. mad)]. [rel] defaults to [0.10]
    (the historical 10% gate), [k] to [3.0]. With [mad = 0.] this
    degrades to the pure relative gate, so pre-MAD baselines keep
    their old behavior. *)
