open Dsgraph

type preset = Ls93_existential | Aglp | Gha19

let beta_of_preset preset ~n =
  let logn = Float.max 1.0 (log (float_of_int (max n 2)) /. log 2.0) in
  match preset with
  | Ls93_existential -> 2.0
  | Aglp -> Float.max 2.0 (2.0 ** sqrt (logn *. Float.max 1.0 (log logn /. log 2.0)))
  | Gha19 -> Float.max 2.0 (2.0 ** sqrt logn)

(* The remaining nodes are the class [owner.(v) = 0] of the layer steps;
   a node leaves it when it is carved or postponed, so [owner] is all -1
   again on return. [volume] is their total degree: what a pull step
   could still read. Only the cells listed in the BFS scratch's [queue]
   are ever non-(-1), and each ball resets exactly those, so 10^5
   singleton balls cost 10^5 steps rather than 10^10. [owner] and the
   scratch serve every color of a decomposition. *)
let grow_balls ~owner s ?cost ~beta g ~domain =
  let n = Graph.n g in
  let volume = ref 0 in
  Array.iter
    (fun v ->
      owner.(v) <- 0;
      volume := !volume + Graph.degree g v)
    domain;
  let left = ref (Array.length domain) in
  let last = if !left = 0 then 0 else domain.(!left - 1) + 1 in
  let balls = ref [] in
  (* The smallest remaining id is monotone (nodes are only ever removed),
     so a cursor over the ascending domain finds every center. *)
  let cursor = ref 0 in
  while !left > 0 do
    while owner.(domain.(!cursor)) <> 0 do
      incr cursor
    done;
    let center = domain.(!cursor) in
    (* Grow one layer at a time: layer r is queue.(lo .. hi-1), so
       ball(r) = hi, and the step appends layer r+1, so ball(r+1) = the
       new tail. Stop at the first r with ball(r+1) <= beta * ball(r); an
       empty layer r+1 (r = the center's eccentricity) always stops it.
       Layers past r+1 never affect the output, so they are never
       searched. A pull step's candidates are the ids center .. last-1,
       which hold every remaining node. *)
    let rec grow r lo hi frontier explored =
      let tail =
        Bfs.step g ~owner ~id:0 s ~lo ~hi ~frontier
          ~unexplored:(!volume - explored)
          ~first:center ~last
      in
      if float_of_int tail <= beta *. float_of_int hi then (r, hi, tail)
      else
        let next = Bfs.volume g s ~lo:hi ~hi:tail in
        grow (r + 1) hi tail next (explored + next)
    in
    Bfs.start s center;
    let d = Graph.degree g center in
    let r, inner, outer = grow 0 0 1 d d in
    (match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.charge c ~rounds:(r + 2) ~messages:outer
          ~max_bits:(2 * Congest.Bits.id_bits ~n) "greedy.grow");
    balls := Array.sub s.Bfs.queue 0 inner :: !balls;
    for i = 0 to outer - 1 do
      let v = s.Bfs.queue.(i) in
      owner.(v) <- -1;
      volume := !volume - Graph.degree g v
    done;
    left := !left - outer;
    Bfs.release s outer
  done;
  Array.of_list (List.rev !balls)

let carve ?cost ?beta g ~domain ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Greedy.carve: epsilon must be in (0, 1)";
  let beta = match beta with Some b -> b | None -> 1.0 /. (1.0 -. epsilon) in
  if beta <= 1.0 then invalid_arg "Greedy.carve: beta must exceed 1";
  let n = Graph.n g in
  grow_balls ~owner:(Array.make n (-1)) (Bfs.scratch n) ?cost ~beta g ~domain

let decompose ?cost ?(preset = Ls93_existential) g =
  let n = Graph.n g in
  let beta = beta_of_preset preset ~n in
  let epsilon = 1.0 -. (1.0 /. beta) in
  let epsilon = Float.min 0.9 (Float.max 0.25 epsilon) in
  let owner = Array.make n (-1) and s = Bfs.scratch n in
  let carver ?cost g ~domain ~epsilon:_ =
    grow_balls ~owner s ?cost ~beta g ~domain
  in
  Strongdecomp.Netdecomp.of_carver ?cost ~epsilon carver g
