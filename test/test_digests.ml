(* Output fixture for every registered decomposer and carver, and for
   [Edge_carving]: on the
   grid and er families at n = 512, seed 42, the MD5 of every node's
   (cluster, color) -- for a carver at epsilon = 1/2, every node's
   cluster and then the dead set -- and the run's Cost rounds, messages
   and max_bits, compared with fixtures/decomposer_digests.txt. A change
   that alters any decomposition, carving or their charges fails here.

   Regenerate (only after a deliberate output change, and say so):
     dune exec test/test_digests.exe -- --print > test/fixtures/decomposer_digests.txt *)

open Workload

let families = [ "grid"; "er" ]
let n = 512
let seed = 42

let format name family b cost =
  Printf.sprintf "%s %s %s %d %d %d" name family
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    (Congest.Cost.rounds cost) (Congest.Cost.messages cost)
    (Congest.Cost.max_message_bits cost)

let line (d : Algorithms.decomposer) family =
  let g = (Suite.find family).Suite.build ~seed ~n in
  let cost = Congest.Cost.create () in
  let decomp = d.run ~cost ~seed g in
  let clustering = Cluster.Decomposition.clustering decomp in
  let b = Buffer.create (8 * n) in
  for v = 0 to Dsgraph.Graph.n g - 1 do
    Printf.bprintf b "%d,%d\n"
      (Cluster.Clustering.cluster_of clustering v)
      (Cluster.Decomposition.color_of_node decomp v)
  done;
  format d.name family b cost

let carver_line (c : Algorithms.carver) family =
  let g = (Suite.find family).Suite.build ~seed ~n in
  let cost = Congest.Cost.create () in
  let carving = c.run ~cost ~seed g ~epsilon:0.5 in
  let clustering = carving.Cluster.Carving.clustering in
  let b = Buffer.create (8 * n) in
  for v = 0 to Dsgraph.Graph.n g - 1 do
    Printf.bprintf b "%d\n" (Cluster.Clustering.cluster_of clustering v)
  done;
  List.iter (Printf.bprintf b "dead %d\n") (Cluster.Carving.dead carving);
  format ("carve:" ^ c.name) family b cost

(* [Edge_carving] is in no registry: its line digests every node's
   cluster, the cut edges in order and the max radius, at epsilon =
   1/4 *)
let edge_carving_line family =
  let g = (Suite.find family).Suite.build ~seed ~n in
  let cost = Congest.Cost.create () in
  let r = Strongdecomp.Edge_carving.carve ~cost g ~epsilon:0.25 in
  let b = Buffer.create (8 * n) in
  for v = 0 to Dsgraph.Graph.n g - 1 do
    Printf.bprintf b "%d\n"
      (Cluster.Clustering.cluster_of r.Strongdecomp.Edge_carving.clustering v)
  done;
  List.iter
    (fun (u, v) -> Printf.bprintf b "cut %d %d\n" u v)
    r.Strongdecomp.Edge_carving.cut_edges;
  Printf.bprintf b "radius %d\n" r.Strongdecomp.Edge_carving.max_radius;
  format "edge_carving" family b cost

let lines () =
  List.concat_map
    (fun d -> List.map (line d) families)
    Algorithms.decomposers
  @ List.concat_map
      (fun c -> List.map (carver_line c) families)
      Algorithms.carvers
  @ List.map edge_carving_line families

let fixture = "fixtures/decomposer_digests.txt"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_digests () =
  Alcotest.(check (list string)) "decomposer digests" (read_lines fixture)
    (lines ())

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter print_endline (lines ())
  else
    Alcotest.run "digests"
      [
        ( "decomposers",
          [ Alcotest.test_case "grid and er at n=512" `Quick test_digests ] );
      ]
