(* Test-only oracle: the fault-state replay that lib/cluster/repair.ml
   ran before [Cluster.Repair.step] became delta-sized, kept as it was
   in substance. Every step re-derives the current graph from the base
   graph plus the whole fault history: base edges minus deletions plus
   insertions, restricted to up nodes. test_repair.ml diffs the
   delta-sized step against it. The graph is built with
   [Graph.Builder], not [Graph.apply_edits], so the oracle sits outside
   the graph-edit lint rule. Deltas are assumed valid: each one is fed
   to [Cluster.Repair.step] first, which validates it. *)

open Dsgraph

type t = {
  base : Graph.t;
  down : bool array;
  removed : (int * int) list;  (** base edges currently deleted, u < v *)
  extra : (int * int) list;  (** non-base edges currently present, u < v *)
  graph : Graph.t;
}

let norm (u, v) = if u < v then (u, v) else (v, u)

let materialize base ~down ~removed ~extra =
  let b = Graph.Builder.create ~n:(Graph.n base) in
  let up u = not down.(u) in
  Graph.iter_edges base (fun u v ->
      if up u && up v && not (List.mem (u, v) removed) then
        Graph.Builder.add_edge b u v);
  List.iter (fun (u, v) -> if up u && up v then Graph.Builder.add_edge b u v) extra;
  Graph.Builder.build b

let init g =
  {
    base = g;
    down = Array.make (Graph.n g) false;
    removed = [];
    extra = [];
    graph = g;
  }

let step t (d : Cluster.Repair.delta) =
  let down = Array.copy t.down in
  List.iter (fun v -> down.(v) <- true) d.crash;
  List.iter (fun v -> down.(v) <- false) d.revive;
  let removed, extra =
    List.fold_left
      (fun (removed, extra) e ->
        let e = norm e in
        if List.mem e extra then (removed, List.filter (( <> ) e) extra)
        else (e :: removed, extra))
      (t.removed, t.extra) d.del_edges
  in
  let removed, extra =
    List.fold_left
      (fun (removed, extra) e ->
        let e = norm e in
        if List.mem e removed then (List.filter (( <> ) e) removed, extra)
        else (removed, e :: extra))
      (removed, extra) d.add_edges
  in
  {
    t with
    down;
    removed;
    extra;
    graph = materialize t.base ~down ~removed ~extra;
  }

let graph t = t.graph
let is_down t v = t.down.(v)
let removed t = t.removed
let extra t = t.extra

let down t =
  List.filter (fun v -> t.down.(v)) (List.init (Array.length t.down) Fun.id)

let survivors t =
  List.filter (fun v -> not t.down.(v)) (List.init (Array.length t.down) Fun.id)

(* the edge is in the logical graph: present once both ends are up *)
let logical t u v =
  let e = norm (u, v) in
  (Graph.is_edge t.base (fst e) (snd e) && not (List.mem e t.removed))
  || List.mem e t.extra
