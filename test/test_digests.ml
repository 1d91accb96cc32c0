(* Output fixture for every registered decomposer: on the grid and er
   families at n = 512, seed 42, the MD5 of every node's (cluster, color)
   and the run's Cost rounds, messages and max_bits, compared with
   fixtures/decomposer_digests.txt. A change that alters any
   decomposition or its charges fails here.

   Regenerate (only after a deliberate output change, and say so):
     dune exec test/test_digests.exe -- --print > test/fixtures/decomposer_digests.txt *)

open Workload

let families = [ "grid"; "er" ]
let n = 512
let seed = 42

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
  Printf.sprintf "%s %s %s %d %d %d" d.name family
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    (Congest.Cost.rounds cost) (Congest.Cost.messages cost)
    (Congest.Cost.max_message_bits cost)

let lines () =
  List.concat_map
    (fun d -> List.map (line d) families)
    Algorithms.decomposers

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
