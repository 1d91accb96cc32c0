(** Immutable simple undirected graphs in flat CSR form.

    Nodes are the integers [0 .. n-1]; this plays the role of the
    {i O(log n)-bit unique identifiers} of the CONGEST model. Graphs are
    simple (no self-loops, no parallel edges) and undirected; every edge
    appears in both rows, and rows are sorted.

    The representation is two Bigarrays of native ints: {!offsets}
    ([n+1] cells) and {!targets} ([2m] cells), so million-node graphs
    are two contiguous buffers that {!Io.save_csr} / {!Io.load_csr} can
    write and mmap wholesale. Construction goes through {!Builder} (or
    {!of_edge_seq}), which streams packed edges and finishes with one
    counting-sort + dedup pass — never a per-edge heap value. *)

type t

type int_array1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type builder
(** A write-once graph under construction: stream edges in with
    {!Builder.add_edge}, finish with {!Builder.build}. *)

module Builder : sig
  val create : n:int -> builder
  (** Fresh builder on nodes [0..n-1].
      @raise Invalid_argument if [n] is negative or exceeds [2^31]. *)

  val create_sized : n:int -> capacity:int -> builder
  (** [create_sized ~n ~capacity] is {!create} with its edge buffer
      allocated for [capacity] {!add_edge} calls up front. A generator
      that knows its sample count passes it, so no add doubles the
      buffer: the doubled copies live outside the OCaml heap, and a
      generator that allocates nothing on the heap runs no GC that
      would free them. More adds than [capacity] still work, by
      doubling. @raise Invalid_argument as {!create}, or if [capacity]
      is negative. *)

  val add_edge : builder -> int -> int -> unit
  (** Adds an undirected edge; orientation is irrelevant and duplicates
      (in either orientation) are merged at {!build} time. O(1) amortized,
      one packed int per call. @raise Invalid_argument on out-of-range
      endpoints, self-loops, or a builder already built. *)

  val build : builder -> t
  (** Sorts, dedups and freezes into CSR; the builder is consumed and
      must not be reused. O(k log k) in the number of added edges. *)
end

val of_edge_seq : n:int -> (int * int) Seq.t -> t
(** [of_edge_seq ~n seq] streams [seq] through a {!Builder}. *)

val edges_seq : t -> (int * int) Seq.t
(** All edges with [u < v], in lexicographic order, produced lazily. *)

val of_csr_unchecked :
  n:int -> m:int -> offsets:int_array1 -> targets:int_array1 -> t
(** Wraps raw CSR buffers without validating sortedness or symmetry —
    the constructor {!Io.load_csr} uses on mmapped data, where the
    checksummed header vouches for integrity. Only O(1) shape checks
    ([dim offsets >= n+1], [dim targets >= 2m], [offsets.{0} = 0],
    [offsets.{n} = 2m]) are performed.
    @raise Invalid_argument when those fail. *)

val validate : t -> (unit, string) result
(** Checks the CSR invariants every other function assumes: offsets
    monotone and ending at [2m], every target in [\[0, n)], rows
    strictly sorted, no self-loops, and symmetry (each [u -> v] has its
    [v -> u]). [Error] names the first broken invariant and where.
    [O(m log Δ)]. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges. *)

val degree : t -> int -> int

val max_degree : t -> int

val offsets : t -> int_array1
(** The CSR row-offset buffer, [n+1] cells; row [u] of {!targets} is
    [offsets.{u} .. offsets.{u+1} - 1]. A view of the live structure —
    treat as read-only. *)

val targets : t -> int_array1
(** The CSR adjacency buffer, [2m] cells, each row sorted. A view of the
    live structure — treat as read-only. *)

val neighbors : t -> int -> int array
(** Sorted adjacency of a node, as a freshly allocated array the caller
    owns (a copying convenience). Hot paths should use {!iter_neighbors}
    or the {!offsets}/{!targets} views, which allocate nothing. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Applies the function to each neighbor in sorted order; allocation-free. *)

val is_edge : t -> int -> int -> bool
(** Binary search on the adjacency row; [O(log degree)]. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterates each undirected edge once, with [u < v]. *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

val edge_index : t -> int * int -> int
(** [edge_index g (u, v)] is a dense index in [0 .. m-1] identifying the
    undirected edge, usable for per-edge accounting (e.g. congestion).
    The numbering table is computed on first use and cached.
    @raise Not_found if [(u, v)] is not an edge. *)

val apply_edits : t -> del:(int * int) list -> add:(int * int) list -> t
(** [apply_edits t ~del ~add] is a new graph with the edges of [del]
    removed and the edges of [add] inserted; [t] is unchanged. Both
    lists are sets: an edge listed twice, in either orientation, is one
    edit. This is the {e only} sanctioned way to derive a faulted graph
    from a base graph — the conformance lint confines its callers to
    [lib/dsgraph] and the repair engine ([lib/cluster/repair.ml]), so
    every fault delta flows through one audited path.

    Cost: the edits are spliced into a copy. Each row with an edited
    endpoint is merged with its sorted edits; every other row is copied
    as is, a run of such rows at a time. That is O(n) offset copies, one
    blit of the untouched adjacency and O(d log d) in the [d] edits,
    with no sort of the whole edge set and no per-edge hashing.
    @raise Invalid_argument on out-of-range endpoints, self-loops,
    deleting a non-edge, adding an existing edge, or an edge listed in
    both [del] and [add]. *)

val nodes : t -> int list

val pp : Format.formatter -> t -> unit
(** Short human-readable summary ([n], [m], max degree). *)

val equal : t -> t -> bool
(** Structural equality (same node count and edge set). *)

val diff_rows : t -> t -> (int -> unit) -> bool
(** [diff_rows a b f] lists the rows that differ between [a] and [b]
    when [b] is [a] or was made from [a] by one {!apply_edits}, which
    records the rows it edits: it calls [f u], in ascending [u], for
    every node whose adjacency row in [b] differs from its row in [a]
    (the endpoints of the edges in one graph and not the other) and
    returns [true], at the cost of those rows. For any other pair it
    calls nothing and returns [false]. Allocation-free.
    @raise Invalid_argument when the node counts differ. *)
