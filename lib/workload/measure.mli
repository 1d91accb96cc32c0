(** Measurement harness: run a registered algorithm on a workload graph
    and record the quantities the paper's tables report — colors,
    diameters, rounds, message sizes — together with validity verdicts
    from the {!Cluster} checkers.

    Rows can optionally carry a per-run {!Congest.Trace.sink}: pass
    [~trace] and the meter given to the algorithm reports every
    {!Congest.Cost.charge} into it ([Cost_charged] events), so a row's
    headline numbers can be drilled into round by round afterwards. *)

type decomp_row = {
  algorithm : string;
  reference : string;
  kind : Algorithms.kind;
  model : Algorithms.model;
  family : string;
  n : int;
  m : int;
  colors : int;
  strong_diameter : int option;
      (** [None] when some cluster induces a disconnected subgraph, so no
          strong diameter exists (weak algorithms) *)
  weak_diameter : int;
  rounds : int;
  messages : int;
  max_message_bits : int;
  valid : bool;
  seconds : float;
  trace : Congest.Trace.sink option;  (** the sink passed in, if any *)
}

type carve_row = {
  algorithm : string;
  reference : string;
  kind : Algorithms.kind;
  family : string;
  n : int;
  epsilon : float;
  strong_diameter : int option;  (** as {!decomp_row.strong_diameter} *)
  weak_diameter : int;
  dead_fraction : float;
  rounds : int;
  max_message_bits : int;
  valid : bool;
  seconds : float;
  trace : Congest.Trace.sink option;
}

val decomposition_row :
  ?seed:int ->
  ?trace:Congest.Trace.sink ->
  Algorithms.decomposer ->
  Suite.family ->
  n:int ->
  decomp_row

val decomposition_result :
  ?seed:int ->
  ?trace:Congest.Trace.sink ->
  Algorithms.decomposer ->
  Suite.family ->
  n:int ->
  decomp_row * Cluster.Decomposition.t * Dsgraph.Graph.t
(** As {!decomposition_row}, also returning the decomposition and the
    workload graph it ran on, so callers can audit the result (see
    {!Audit}) without re-running the algorithm. *)

val carving_row :
  ?seed:int ->
  ?trace:Congest.Trace.sink ->
  Algorithms.carver ->
  Suite.family ->
  n:int ->
  epsilon:float ->
  carve_row

val carving_result :
  ?seed:int ->
  ?trace:Congest.Trace.sink ->
  Algorithms.carver ->
  Suite.family ->
  n:int ->
  epsilon:float ->
  carve_row * Cluster.Carving.t * Dsgraph.Graph.t
(** As {!carving_row}, also returning the carving and the graph. *)

val pp_decomp_table : Format.formatter -> decomp_row list -> unit
val pp_carve_table : Format.formatter -> carve_row list -> unit

val decomp_csv : decomp_row list -> string
(** Missing strong diameters are emitted as [NA] (never [-1], which
    plotting pipelines would average into real diameters). *)

val carve_csv : carve_row list -> string
