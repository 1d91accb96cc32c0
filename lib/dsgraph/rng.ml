(* splitmix64 over an 8-byte state buffer, read and written with
   [Bytes.get_int64_ne]/[set_int64_ne] rather than held in a
   [mutable int64] field, which would box every new state. The whole
   step lives in the [[@inline]] [next], so in every draw below the
   int64 intermediates stay in registers (no flambda needed). The draws
   that hand back an immediate — [int], [bits53], [bool], [bernoulli] —
   allocate nothing, even called across the library's opaque module
   boundaries. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

(* advance the state by the golden gamma, return its splitmix64 mix *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next t

(* the child's state is the parent's full 64-bit draw, not a 63-bit int *)
let split t =
  let child = Bytes.create 8 in
  Bytes.set_int64_ne child 0 (next t);
  child

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit native int *)
  Int64.to_int (Int64.logand (next t) 0x3FFF_FFFF_FFFF_FFFFL) mod bound

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let two53 = 9007199254740992.0

(* a value below 2^53 converts exactly, and dividing by 2^53 is exact *)
let float t x = float_of_int (bits53 t) /. two53 *. x

let bool t = Int64.logand (next t) 1L = 1L

(* [float t 1.0] is exactly [bits / 2^53], and [p *. 2^53] is exact
   short of overflow, so [bits / 2^53 < p] iff [bits < ceil (p * 2^53)].
   Clamping to [0, 2^53] keeps [int_of_float] in range and covers
   [p <= 0] (never), [p >= 1] (always) and NaN (never: [p > 0.] fails).
   The ceiling is a truncation plus a fix-up, not a libm call, because
   [bernoulli] pays it on every draw. *)
let[@inline] threshold p =
  if p > 0.0 then
    if p >= 1.0 then 1 lsl 53
    else
      let x = p *. two53 in
      let k = int_of_float x in
      if float_of_int k = x then k else k + 1
  else 0

let bernoulli t p = bits53 t < threshold p

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = float t 1.0 in
  -.log (1.0 -. u) /. rate

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    int_of_float (Float.floor (log (1.0 -. u) /. log (1.0 -. p)))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
