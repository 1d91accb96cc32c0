(* Test-only oracle: the splitmix64 generator that lib/dsgraph/rng.ml
   implemented before its state moved into an 8-byte buffer and its draws
   stopped allocating, kept as it was — a boxed [mutable int64] state and
   boxed int64/float results — so the stream-equality property in
   test_dsgraph.ml can diff the two, draw for draw. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_seed t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

(* splitmix64 finalizer *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = mix (next_seed t)

let split t = { state = int64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit native int *)
  let r = Int64.to_int (Int64.logand (int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  r mod bound

let float t x =
  (* 53 random bits mapped to [0,1) *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. x

let bool t = Int64.logand (int64 t) 1L = 1L

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
