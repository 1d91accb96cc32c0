(* The small random graphs the equivalence properties draw from: ER,
   RMAT, or a grid with scrambled ids, chosen by [family] (0, 1, 2). *)

open Dsgraph

let make rng family =
  match family with
  | 0 ->
      let n = 2 + Rng.int rng 80 in
      Gen.erdos_renyi rng n (0.01 +. Rng.float rng 0.15)
  | 1 ->
      let n = 1 lsl (2 + Rng.int rng 6) in
      Gen.rmat rng ~n ~m:(n * (1 + Rng.int rng 4))
  | _ ->
      let side = 2 + Rng.int rng 10 in
      let g = Gen.grid side side in
      let perm = Rng.permutation rng (Graph.n g) in
      Graph.of_edge_seq ~n:(Graph.n g)
        (Seq.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges_seq g))
