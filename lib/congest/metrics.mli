(** Metrics registry: named counters, gauges, and histograms, with CSV
    and JSONL emitters under [bench_results/].

    A registry is either populated directly (e.g. the reliable transport's
    retransmission counter) or derived from a {!Trace.sink} with
    {!of_trace}, which aggregates the event stream into the standard
    observability metrics: messages per round, bits-per-message and
    per-round inbox-size histograms, fault counters, and per-tag cost
    accounting for engine-level (Cost-traced) runs. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Registers (or returns the existing) counter named [name]. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val count : t -> string -> int
(** The value of the counter named [name], [0] when there is none;
    unlike {!counter} it registers nothing. *)

val gauge : t -> string -> gauge
(** A gauge keeps the last value set and the maximum ever set. *)

val set : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_max : gauge -> float

val histogram : t -> string -> histogram
(** Integer-valued histogram with power-of-two buckets: bucket [k]
    counts observations [v] with [2^(k-1) <= v < 2^k] ([v <= 0] lands in
    bucket 0). *)

val observe : histogram -> int -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> int

val hist_min : histogram -> int
(** [max_int] when empty. *)

val hist_max : histogram -> int
(** [min_int] when empty. *)

val hist_mean : histogram -> float
(** [nan] when empty. *)

val hist_buckets : histogram -> (int * int) list
(** [(upper_bound_exclusive, count)] for each non-empty bucket, ascending. *)

val of_trace : ?into:t -> Trace.sink -> t
(** Aggregates a trace into a registry (a fresh one unless [into] is
    given). Simulator-level events feed counters [rounds],
    [messages_sent], [messages_delivered], [messages_dropped],
    [messages_duplicated], [messages_delayed], [nodes_halted],
    [nodes_crashed]; histograms [messages_per_round], [bits_per_message],
    [inbox_size] (deliveries grouped per round and destination); gauges
    [max_message_bits] and [max_in_flight]. Cost-level events feed
    counters [cost_rounds], [cost_messages], per-tag counters
    [cost.<tag>.rounds], and histogram [cost_charge_rounds]. Span
    events contribute nothing here — the per-span table is
    {!Span.rollups}. *)

val to_csv : t -> string
(** Long format, one statistic per row: [metric,stat,value]. Histograms
    emit [count]/[sum]/[min]/[max]/[mean] plus one [lt_<2^k>] row per
    non-empty bucket (the bucket with upper bound [2^k] counts the
    observations with [2^(k-1) <= v < 2^k]; values [<= 0] land in
    [lt_1]). *)

val to_json : t -> Json.t list
(** One JSON object per metric, e.g.
    [{"metric":"bits_per_message","kind":"histogram","count":..,"sum":..,
    "min":..,"max":..,"buckets":[[8,120],[16,3]]}]. Non-finite gauge
    values are [null]. *)

val to_jsonl : t -> string
(** {!to_json}, one object per line. *)

val save : ?dir:string -> prefix:string -> t -> string list
(** Writes [<prefix>_metrics.csv] and [<prefix>_metrics.jsonl] under
    [dir] (default ["bench_results"], created if missing); returns the
    paths written. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line-per-metric summary. *)
