(** Node subsets ("alive" sets) used to run algorithms on induced subgraphs
    [G\[S\]] without materializing them.

    Every traversal primitive in {!Bfs} and {!Components} takes an optional
    mask; nodes outside the mask are treated as deleted. *)

type t

val full : int -> t
(** All of [0..n-1]. *)

val empty : int -> t

val of_list : int -> int list -> t

val copy : t -> t

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val count : t -> int
(** Number of member nodes; O(1). *)

val size : t -> int
(** Size of the underlying universe [n]. *)

val to_list : t -> int list
(** Members in increasing order. *)

val to_array : t -> int array
(** Members in increasing order. *)

val iter : t -> (int -> unit) -> unit

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool

val pp : Format.formatter -> t -> unit
