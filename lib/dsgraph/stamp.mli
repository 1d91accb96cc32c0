(** Node-indexed working memory that is never cleared: every node set a
    search looks at is stamped afresh. [mark.(v) = inside] lists [v] in
    the set and [inside + 1] says a search reached it, with its distance
    (or what the caller stores) in [value.(v)]. Stamps only grow, so a
    set costs its own volume, not [n]. One scratch serves any number of
    searches on any graphs, one at a time. *)

type t = private {
  mutable mark : int array;
  mutable value : int array;
  mutable queue : int array;
  mutable stamp : int;
}

val create : unit -> t
(** An empty scratch; {!fit} sizes it. *)

val fit : t -> Graph.t -> unit
(** Grow the arrays to [Graph.n g] nodes if they are shorter. *)

val fresh : t -> int
(** A stamp no node carries yet; the one after it is reserved too. *)

val stamp : t -> int array -> int
(** Stamp every node of the set with a {!fresh} stamp; returns it. *)

val push : t -> inside:int -> int -> int -> int
(** [push s ~inside v tail] marks [v] reached at distance 0 and puts it
    at [queue.(tail)]; returns [tail + 1]. *)

val expand : t -> Graph.t -> inside:int -> int -> int -> int
(** [expand s g ~inside head tail] runs the BFS queued in
    [queue.(head .. tail-1)] over the nodes stamped [inside], appending
    them layer by layer with their distance in [value]; returns the new
    tail. *)

val bfs : t -> Graph.t -> inside:int -> source:int -> int -> int
(** {!push} then {!expand} from [source], appending from the tail. *)

val components : t -> Graph.t -> int array -> inside:int -> int array array
(** The connected components of [G\[S\]], [S] being the nodes of the
    ascending [set] stamped [inside]: ascending arrays in order of
    smallest node ({!Components.components}' order); [set] itself when
    [S] is all of it and connected. *)
