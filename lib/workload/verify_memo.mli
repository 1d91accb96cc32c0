(** The memo of {!Repair.verify_cert}'s incremental verify, and the
    carried-certificate comparison. The one module of the workload
    layer that compares by physical identity ([==]): the memo is keyed
    on the identity of the last accepted audit and its graph, and
    lists that a repair shared between two certificates are equal
    without a walk. Identity only picks a fast path whose verdicts
    equal the full checks' (DESIGN.md §11). *)

type t
(** The audit [verify_cert] last accepted, by physical identity, the
    graph it was accepted on, and node-indexed owner, color and domain
    flags of that audit. Scratch of one session lineage. *)

val create : int -> t
(** An empty memo for graphs of [n] nodes. *)

val carried_equal : Audit.cert -> Audit.cert -> cluster:int -> bool
(** [carried_equal a b ~cluster]: [b] is [a] with its cluster id set to
    [cluster], every other field equal. *)

val remember : t -> Dsgraph.Graph.t -> Audit.t -> unit
(** [remember t g a] records [a], which the full checks accepted on
    [g]. O(n + k). *)

val accept :
  t ->
  Audit.workspace ->
  prev:Audit.t ->
  prev_graph:Dsgraph.Graph.t ->
  k_old:int ->
  post:Dsgraph.Graph.t ->
  dirty:int list ->
  carried:(int * int) list ->
  fresh:int list ->
  Audit.t ->
  bool
(** [accept t ws ~prev ~prev_graph ~k_old ~post ~dirty ~carried ~fresh
    b]: [true] only when [Repair.verify_cert]'s locality checks pass
    ([dirty] and the old sides of [carried] partition the [k_old]
    clusters of [prev], [fresh] and the new sides partition [b]'s, both
    audits list their certificates in id order, every carried
    certificate equals its predecessor but for the id) and [b] passes
    [Audit.verify_with] on [post]; [false] means "don't know". Decides
    only when the memo holds [prev] on [prev_graph], [post] is
    [prev_graph] or was made from it by one [Graph.apply_edits], and
    the ids and pairs ascend, as a repair lists them. It then checks
    the locality claim in one walk of both certificate lists, and
    re-checks the fresh clusters, the weak ones, those holding an
    endpoint of an edge the edits changed, the domain, the colors'
    range and the dead count. On [true] the memo holds [b] on [post].
    [ws] serves the witness checks. *)

val fast_accepts : t -> int
(** How many times {!accept} has answered [true]. *)
