(* The seeded fault schedule of the grid-churn workload. Each delta
   crashes one up node, revives each down node with probability 1/4,
   deletes one live edge and adds one absent edge. Every component is
   drawn against the state the delta applies to, so
   [Cluster.Repair.step] accepts the whole schedule. *)

open Dsgraph
module CR = Cluster.Repair

let revive_prob = 0.25

let delta rng st =
  let g = CR.graph st in
  let up = Array.of_list (Mask.to_list (CR.survivors st)) in
  (* keep at least two nodes up, so an edge can still be added *)
  let crash = if Array.length up > 3 then [ up.(Rng.int rng (Array.length up)) ] else [] in
  let crashed v = List.mem v crash in
  let revive =
    List.filter (fun _ -> Rng.float rng 1.0 < revive_prob) (CR.down st)
  in
  let live = ref [] in
  Graph.iter_edges g (fun u v ->
      if not (crashed u || crashed v) then live := (u, v) :: !live);
  let del_edges =
    match !live with
    | [] -> []
    | l ->
        let a = Array.of_list l in
        [ a.(Rng.int rng (Array.length a)) ]
  in
  let pool = Array.of_list (List.filter (fun v -> not (crashed v)) (Array.to_list up)) in
  let rec pick tries =
    if tries = 0 || Array.length pool < 2 then []
    else
      let u = pool.(Rng.int rng (Array.length pool)) in
      let v = pool.(Rng.int rng (Array.length pool)) in
      let e = (min u v, max u v) in
      if u = v || Graph.is_edge g u v || List.mem e del_edges then pick (tries - 1)
      else [ e ]
  in
  CR.delta ~crash ~revive ~del_edges ~add_edges:(pick 100) ()

(* [schedule ~seed ~steps g] is [steps] deltas replayable from the
   fault-free state over [g]. *)
let schedule ~seed ~steps g =
  let rng = Rng.create seed in
  let st = ref (CR.init g) in
  Array.init steps (fun _ ->
      let d = delta rng !st in
      st := CR.step !st d;
      d)
