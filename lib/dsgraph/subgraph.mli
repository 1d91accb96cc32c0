(** Materialized induced subgraphs.

    Most algorithms avoid materialization by taking {!Mask} arguments, but
    genuinely distributed executions (e.g. re-running a node program on
    the not-yet-clustered remainder) need a real graph with compact node
    identifiers. *)

val induce : Graph.t -> int list -> Graph.t * int array
(** [induce g nodes] returns the subgraph induced by [nodes] (compacted to
    identifiers [0 .. k-1], in the sorted order of [nodes]) together with
    the map back: cell [i] holds the original identifier of new node [i].
    It costs O(k log k + vol log k) for the k nodes and their total degree
    vol in [g]; nothing is proportional to [Graph.n g].
    @raise Invalid_argument on duplicate or out-of-range nodes. *)
