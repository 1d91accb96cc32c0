(* Nearest-rank order statistics over timing samples. *)

let sorted xs = List.sort Float.compare xs

(* [quantile q xs] is the sample of nearest rank [ceil (q * n)], so it
   is always one of the measured values. *)
let quantile q xs =
  match sorted xs with
  | [] -> invalid_arg "Stat.quantile: no samples"
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      List.nth s (max 1 (min n rank) - 1)

let median xs = quantile 0.5 xs
let q1 xs = quantile 0.25 xs
let q3 xs = quantile 0.75 xs

(* Interquartile distance as a share of the median; 0 when the median
   is 0 (count metrics that never move). *)
let spread xs =
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 xs -. q1 xs) /. Float.abs m
