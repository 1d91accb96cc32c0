(** Seeded chaos sweeps over the self-healing repair engine.

    A chaos {!spec} names an algorithm, a graph family and a fault
    profile; {!run} builds the graph, runs the algorithm once, then
    drives [steps] seeded fault deltas (crashes, timed revivals, edge
    deletions and insertions) through {!Repair.repair}, asserting after
    every step:

    - the repair certificate passes {!Repair.verify_cert} — carried
      clusters byte-identical, dirty/carried and fresh/carried
      partitions exact, merged audit accepted by the graph-only
      [Audit.verify] on the post-fault graph;
    - decompositions leave no survivor unclustered (carvings are
      additionally cross-checked through [Audit.check_survivors], the
      same verifier the fault sweeps use);
    - the touched-node fraction stays under the spec's bound.

    Each step also times a from-scratch re-run of the same engine on
    the survivor subgraph (including certification), so every row
    carries a repair-cost ratio. Everything is derived from the spec's
    integer seed — two runs of the same spec are identical. *)

type algo = Decomposer of string | Carver of string
(** Registry name (see {!Algorithms.find_decomposer} /
    {!Algorithms.find_carver}). Chaos defaults use strong algorithms:
    weak certificates are invalidated by {e any} delta, so weak
    engines degrade to from-scratch behaviour by design. *)

type spec = {
  algo : algo;
  family : string;
  n : int;
  epsilon : float;  (** carvers only *)
  seed : int;
  steps : int;
  crashes : int;  (** crash-stops injected per step (at most) *)
  revive_prob : float;  (** per down node, per step *)
  edge_dels : int;
  edge_adds : int;
  halo : int;
  max_touched : float;
      (** invariant bound on the per-step touched fraction; [>= 1]
          effectively disables it *)
}

val spec :
  ?epsilon:float ->
  ?steps:int ->
  ?crashes:int ->
  ?revive_prob:float ->
  ?edge_dels:int ->
  ?edge_adds:int ->
  ?halo:int ->
  ?max_touched:float ->
  algo ->
  family:string ->
  n:int ->
  seed:int ->
  spec
(** Defaults: [epsilon = 0.2], [steps = 2], [crashes = 1],
    [revive_prob = 0.25], [edge_dels = 1], [edge_adds = 1], [halo = 1],
    [max_touched = 1.0]. *)

val algo_label : algo -> string

type step_row = {
  r_spec : spec;
  step : int;  (** 1-based *)
  d_crashes : int;
  d_revives : int;
  d_dels : int;
  d_adds : int;
  survivors : int;  (** up nodes after the delta *)
  dirty : int;
  carried : int;
  fresh : int;
  touched : int;
  touched_fraction : float;
  repair_seconds : float;
  scratch_seconds : float;  (** from-scratch re-run incl. certification *)
  scratch_valid : bool;
  violations : string list;  (** empty when every invariant held *)
}

type result = { rows : step_row list; failures : (int * string) list }
(** [failures] is every violation, tagged with its 1-based step. *)

val run : spec -> result

val sweep : spec list -> result list

val default_specs :
  ?algos:algo list ->
  ?families:string list ->
  ?n:int ->
  ?steps:int ->
  ?count:int ->
  seed:int ->
  unit ->
  spec list
(** [count] specs (default 24) cycling over [algos] x [families]
    (defaults: greedy / gha19 / ls93 / thm2.3 decomposers + the thm2.2
    carver — a mix of fine strong clusters, weak certificates and
    giant single clusters; grid / er / reg4) with distinct derived
    seeds. *)

val csv : step_row list -> string
