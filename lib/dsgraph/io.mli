(** Reading and writing graphs.

    Two formats:

    {ul
    {- A plain text edge list: an optional header line [# n <count>]
       (needed to preserve isolated trailing nodes), then one [u v] pair
       per line; [#]-lines and blank lines are ignored. Human-readable,
       fine up to tens of thousands of edges.}
    {- A binary CSR image ({!save_csr} / {!load_csr}): a checksummed
       64-byte header followed by the graph's two CSR buffers verbatim,
       so loading is an [O(1)] mmap — the format for the
       million-node generators and the [bench scale] smoke.}} *)

val to_edge_list : Graph.t -> string

val of_edge_list : string -> Graph.t
(** @raise Invalid_argument on malformed lines or bad endpoints. *)

val save : string -> Graph.t -> unit
(** [save path g] writes the edge-list format to a file. *)

val load : string -> Graph.t
(** @raise Sys_error on IO failure, [Invalid_argument] on parse errors. *)

val save_csr : string -> Graph.t -> unit
(** [save_csr path g] writes the binary CSR image: magic ["DSGCSR01"],
    native-endianness marker, format version, [n], [m], a 62-bit
    splitmix checksum of the payload, then the [n+1] offset words and
    [2m] target words exactly as held in memory. The payload is written
    through one shared mapping, so saving a loaded graph is a page-level
    copy. @raise Sys_error / [Unix.Unix_error] on IO failure. *)

val checksum_csr :
  n:int -> m:int -> Graph.int_array1 -> Graph.int_array1 -> int
(** [checksum_csr ~n ~m offsets targets] is the 62-bit splitmix fold
    over [n], [m], the [n+1] offsets and the [2m] targets that
    {!save_csr} stores in the header: a fingerprint of the exact CSR
    bytes, so two graphs with equal checksums are byte-identical with
    overwhelming probability. [O(n+m)]. *)

val load_csr : ?verify:bool -> string -> Graph.t
(** [load_csr path] maps the file and wraps the two buffer slices as a
    graph without copying or parsing — [O(1)] in the graph size; pages
    are faulted in on first touch. Header validation always runs: bad
    magic, a byte-order mismatch, an unknown version, an [n] above
    [2^31] or an [m] whose byte count overflows, or a file whose size
    disagrees with its claimed [n]/[m] (truncation) all raise.
    [~verify:true] additionally refolds the payload checksum and runs
    {!Graph.validate} on the structure — an [O(m log Δ)] scan, off by
    default to keep loads constant-time.
    @raise Invalid_argument on any of the above,
    [Unix.Unix_error] / [Sys_error] on IO failure. *)

val to_dot : ?cluster_of:(int -> int) -> Graph.t -> string
(** Graphviz output. With [cluster_of], nodes are filled with one of 12
    repeating colors by cluster id (negative = unclustered, white). *)
