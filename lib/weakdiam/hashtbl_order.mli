(** The order in which an unseeded [Stdlib.Hashtbl] with int keys that
    is only ever added to visits its keys, kept without the table.

    A table made with [Hashtbl.create k] starts with the smallest power
    of two [>= max 16 k] buckets and doubles them when it holds more
    than two keys a bucket. [Hashtbl.iter] and [Hashtbl.fold] visit the
    buckets in ascending order ([Hashtbl.hash key] masked to the bucket
    count) and each bucket newest key first; a resize keeps each
    bucket's order. [Weakdiam.Distributed] uses this to send and to
    aggregate in the orders its Hashtbl program had, which the golden
    trace pins. *)

type t = private {
  mutable hashes : int array;  (** [Hashtbl.hash] of each key, in visit order *)
  mutable values : int array;  (** each key's value, in visit order *)
  mutable length : int;
  mutable buckets : int;
}
(** [values.(0 .. length - 1)] is the visit order. *)

val create : int -> t
(** As [Hashtbl.create k ~random:false], with no keys. *)

val add : t -> int -> int -> unit
(** [add t key value] adds a key the table does not hold yet. *)
