(** Deterministic, seedable pseudo-random number generator (splitmix64).

    All randomized algorithms and workload generators in this repository
    draw their randomness from this module, so every experiment is
    reproducible from an integer seed. *)

type t
(** Mutable generator state: 8 bytes, read and written in place.

    {b Cost.} One draw is one splitmix64 step (an add, three
    xor-shifts, two multiplies). {!int}, {!bits53}, {!bool} and
    {!bernoulli} return immediates and allocate nothing; {!int64} boxes
    its result (3 words) and {!float} its result (2 words) when called
    from another module. Prefer {!bits53} or {!bernoulli} in per-sample
    loops. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded with [seed]. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Useful for giving sub-experiments their own streams. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]: the next {!bits53} draw scaled
    by [x / 2^53]. *)

val bits53 : t -> int
(** The 53 random bits {!float} scales, as an immediate int in
    [\[0, 2^53)]: [float t x = float_of_int (bits53 t) /. 2^53 *. x]
    for the same state. Allocation-free. *)

val threshold : float -> int
(** [threshold p] is the integer [k] in [\[0, 2^53\]] with
    [bits < k] exactly when [float_of_int bits /. 2^53 < p], for every
    [bits] in [\[0, 2^53)]: [ceil (p * 2^53)], clamped. It is [0] for
    [p <= 0] and NaN, and [2^53] for [p >= 1]. Lets a sampler hoist
    the comparison of a per-sample {!bits53} draw against a fixed
    probability out of its loop. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [bits53 t < threshold p]: the same value as
    [float t 1.0 < p], from the same one draw, for every [p] (including
    [p <= 0], [p >= 1], subnormals and NaN), without making a float. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> float -> float
(** [exponential t rate] samples from Exp(rate) (mean [1/rate]),
    the distribution used by the MPX random-shift clustering. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of
    a Bernoulli([p]) trial sequence (support {0, 1, 2, ...}), as used by
    the Linial–Saks radius sampling. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)
