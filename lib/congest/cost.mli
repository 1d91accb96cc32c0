(** Round-cost meter for CONGEST-model algorithms.

    The polylogarithmic-round algorithms in this repository execute at
    {i step} granularity (a step = one BFS wave, one Steiner-tree
    convergecast, one cluster-growing exchange, ...) and charge this meter
    the number of CONGEST rounds the step costs, together with message
    counts and the maximum message size in bits. This keeps execution
    feasible at interesting [n] while reporting honest round complexities;
    the charging formulas are listed in DESIGN.md §5 and anchored against
    the true synchronous simulator ({!Sim}) in the test suite. *)

type t

val create : ?trace:Trace.sink -> unit -> t
(** A meter, optionally reporting each charge into a {!Trace.sink} as a
    [Cost_charged] event so engine-level runs are observable with the
    same machinery as simulator-level runs. *)

val trace : t -> Trace.sink option
(** The sink this meter reports into, if any. *)

val charge : t -> ?rounds:int -> ?messages:int -> ?max_bits:int -> string -> unit
(** [charge t ~rounds ~messages ~max_bits tag] adds [rounds] CONGEST rounds
    (default 1) under the breakdown key [tag], plus [messages] messages
    (default 0) and updates the maximum observed message size. When the
    meter was created with a [trace] sink, the charge is also recorded
    there as a [Cost_charged] event. *)

val rounds : t -> int
(** Total rounds charged. *)

val messages : t -> int

val max_message_bits : t -> int
(** Largest single message charged, in bits; 0 if none recorded. *)

val breakdown : t -> (string * int) list
(** Rounds per tag, sorted by tag. *)

val reset : t -> unit

val parallel : t -> t list -> string -> unit
(** [parallel acc metered tag] charges [acc] the {e maximum} round count
    among the [metered] sub-meters (components running simultaneously) and
    the {e sum} of their messages, under [tag]. *)

val pp : Format.formatter -> t -> unit
