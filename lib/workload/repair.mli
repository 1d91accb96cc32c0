(** Self-healing sessions: audited decompositions under fault deltas.

    [Cluster.Repair] is the pure engine (dirty region, local re-carve,
    merge); this module is the workload-layer harness around it. A
    {!session} bundles the fault state with the current clustering, its
    per-cluster colors and its {!Audit} certificate. {!repair} applies
    one fault delta: it plans the dirty region, re-carves it with a
    registered sequential engine, merges, and re-certifies {e only} the
    touched clusters — every untouched cluster's certificate is carried
    over verbatim (modulo the renumbered cluster id). The result is a
    {!cert}: a checkable claim that the repair was local.

    {!verify_cert} re-checks that claim against the previous session
    and the post-fault graph alone: both audits' cluster ids run
    [0 .. k-1] in order, the dirty and carried cluster ids partition
    the old clustering, every carried certificate is
    byte-identical to its predecessor except for the cluster id, the
    carried and fresh ids partition the new clustering, and the merged
    audit passes the graph-only [Audit.verify] on the post-fault
    graph. *)

type workspace
(** Scratch of one session lineage: a {!Audit.workspace} for
    {!verify_cert}'s full verify, a [Bfs.scratch] for certifying fresh
    clusters, the merge's {!Cluster.Repair.scratch} and the id-indexed
    certificate buffers. {!start_decomposition} and {!start_carving}
    make one, and every session {!repair} derives from it shares it. It
    holds scratch only, never a result, so a lineage may branch; but its
    sessions must be repaired and verified from one domain at a
    time. *)

type session = {
  state : Cluster.Repair.state;
  clustering : Cluster.Clustering.t;  (** over [Cluster.Repair.graph state] *)
  colors : int array;  (** per cluster id; all [-1] for carvings *)
  base_domain : bool array;
      (** the domain the original carving ran on (all-[true] for
          decompositions); survivors outside it stay out of the audit
          domain *)
  audit : Audit.t;  (** certificate of [clustering] on the current graph *)
  work : workspace;  (** shared with every session of the lineage *)
}

val start_decomposition : Cluster.Decomposition.t -> session
(** Fault-free session over the decomposition's graph. *)

val start_carving : Cluster.Carving.t -> session

type cert = {
  c_delta : Cluster.Repair.delta;
  c_halo : int;
  c_dirty : int list;  (** old cluster ids invalidated and re-carved *)
  c_carried : (int * int) list;
      (** [(old id, new id)] for every untouched cluster, sorted *)
  c_fresh : int list;  (** new ids of re-carved clusters, sorted *)
  c_audit : Audit.t;  (** merged certificate on the post-fault graph *)
}

type report = {
  dirty_clusters : int;
  touched_nodes : int;  (** nodes handed to the re-carver *)
  touched_fraction : float;  (** touched / survivors *)
  fresh_clusters : int;
  carried_clusters : int;
  seconds : float;  (** wall time of plan + re-carve + merge + re-certify *)
  cert : cert;
}

val repair :
  ?halo:int ->
  recarve:(Dsgraph.Graph.t -> int array * int array) ->
  session ->
  Cluster.Repair.delta ->
  session * report
(** Applies one delta and heals the clustering locally. [recarve] is as
    in [Cluster.Repair.merge] (see {!recarve_decomposer} /
    {!recarve_carver}); [halo] defaults to [0]. Fresh clusters are
    certified over the lineage's workspace. The certificate list is
    built fresh, one entry per new cluster id: a carried certificate
    that keeps its cluster id is reused physically, a renumbered one is
    copied with its new id.
    @raise Invalid_argument on an inconsistent delta, or when the
    session's audit breaks the cluster-id rule of [Audit.certs_by_id]. *)

val verify_cert :
  prev:session -> post:Dsgraph.Graph.t -> cert -> (unit, string) result
(** Checks the locality claim (see the module header). [post] must be
    the post-delta graph ([Cluster.Repair.graph] of the new state); a
    graph of another size is rejected. The full [Audit.verify] runs on
    [prev]'s workspace ([Audit.verify_with]), with the same verdicts and
    messages. *)

val recarve_decomposer :
  Algorithms.decomposer -> seed:int -> Dsgraph.Graph.t -> int array * int array
(** Runs a registered decomposer component-by-component (the re-carve
    region is rarely connected) and returns dense labels plus a color
    per label, the shape [Cluster.Repair.merge] consumes. Singleton
    components skip the engine. *)

val recarve_carver :
  Algorithms.carver ->
  seed:int ->
  epsilon:float ->
  Dsgraph.Graph.t ->
  int array * int array
(** As {!recarve_decomposer} for carvers; nodes the carver leaves dead
    stay [-1] (colors returned are all [-1]). *)
