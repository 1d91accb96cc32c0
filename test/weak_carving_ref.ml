(* Test-only oracle: the Hashtbl weak-carving engine that
   lib/weakdiam/weak_carving.ml implemented before its frontier-driven,
   flat-array rewrite, kept verbatim (one Hashtbl trail per domain node,
   a full rescan of all n nodes per step, tuple-keyed congestion) so the
   equivalence property in test_weakdiam.ml can diff the two engines.
   It reuses the library's [preset] and [result] types and emits each
   tree's [(node, parent)] pairs in Hashtbl order, so compare forests as
   sorted pairs. [rejoins] counts how often [join]'s rejoin check
   finds the joining node already in the tree; the flat engine dropped
   that check, and a property in test_weakdiam.ml asserts it never
   fires. *)

open Dsgraph
open Weakdiam.Weak_carving

(* Per-cluster bookkeeping, keyed by label (= identifier of the origin
   node). *)
type cluster_info = {
  mutable size : int;
  mutable joined_this_phase : int;
  mutable stopped : bool;
}

(* A node's membership record in one cluster's Steiner tree. *)
type tree_entry = { parent : int; depth : int }

let rejoins = ref 0

let carve ?(preset = default_preset) ?cost ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Weak_carving.carve: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let charge ?rounds ?messages ?max_bits tag =
    match cost with
    | None -> ()
    | Some c -> Congest.Cost.charge c ?rounds ?messages ?max_bits tag
  in
  let id_bits = Congest.Bits.id_bits ~n in
  let b = id_bits in
  (* label.(v): current cluster label; -1 = outside the domain; -2 = dead *)
  let label = Array.make n (-1) in
  Mask.iter domain (fun v -> label.(v) <- v);
  let alive v = label.(v) >= 0 in
  let clusters : (int, cluster_info) Hashtbl.t = Hashtbl.create 64 in
  (* trails.(label): the Steiner tree built for that cluster *)
  let trails : (int, (int, tree_entry) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  Mask.iter domain (fun v ->
      Hashtbl.replace clusters v
        { size = 1; joined_this_phase = 0; stopped = false };
      let t = Hashtbl.create 4 in
      Hashtbl.replace t v { parent = v; depth = 0 };
      Hashtbl.replace trails v t);
  let info lbl = Hashtbl.find clusters lbl in
  let trail lbl = Hashtbl.find trails lbl in
  (* congestion tracking: number of distinct trees using each edge *)
  let edge_trees : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let max_congestion = ref 0 in
  let note_tree_edge v p =
    if v <> p then begin
      let key = (min v p, max v p) in
      let c = 1 + Option.value ~default:0 (Hashtbl.find_opt edge_trees key) in
      Hashtbl.replace edge_trees key c;
      if c > !max_congestion then max_congestion := c
    end
  in
  let max_depth = ref 0 in
  let total_steps = ref 0 in
  let phase_steps = ref [] in
  let grow_threshold lbl =
    let inf = info lbl in
    let rg20 = epsilon /. (2.0 *. float_of_int b) *. float_of_int inf.size in
    let ggr21 = epsilon /. 2.0 *. float_of_int (max inf.joined_this_phase 1) in
    match preset with
    | Rg20 -> rg20
    | Ggr21 -> ggr21
    | Hybrid ->
        (* grow whenever either criterion is satisfied: stops are rarest,
           and a stopping cluster kills less than its RG20 threshold, so
           RG20's worst-case dead-fraction budget holds a fortiori; depth
           behaves like RG20 (GGR21's shallow trees come from stopping
           more, not growing faster) *)
        Float.min rg20 ggr21
  in
  (* Join v into cluster [lbl] through neighbor [w] (already in [lbl]). *)
  let join v w lbl =
    let old = label.(v) in
    if old >= 0 then begin
      let oi = info old in
      oi.size <- oi.size - 1
    end;
    label.(v) <- lbl;
    let inf = info lbl in
    inf.size <- inf.size + 1;
    inf.joined_this_phase <- inf.joined_this_phase + 1;
    let t = trail lbl in
    let wd =
      match Hashtbl.find_opt t w with
      | Some e -> e.depth
      | None ->
          (* w must be in the tree: it is a current member of [lbl] *)
          invalid_arg "Weak_carving: join target missing from tree"
    in
    (* Trees are append-only: entries are never removed or replaced, so
       every parent chain stays valid and acyclic. If [v] once belonged to
       this cluster and rejoins it, its old tree position still connects it
       to the root — reusing it avoids parent cycles (e.g. the root
       reparenting under its own descendant). *)
    if Hashtbl.mem t v then incr rejoins
    else begin
      Hashtbl.replace t v { parent = w; depth = wd + 1 };
      note_tree_edge v w;
      if wd + 1 > !max_depth then max_depth := wd + 1
    end
  in
  let kill v =
    let old = label.(v) in
    if old >= 0 then begin
      let oi = info old in
      oi.size <- oi.size - 1
    end;
    label.(v) <- -2
  in
  (* One phase: separate red (bit set) from blue (bit clear) clusters. *)
  let run_phase bit =
    Hashtbl.iter
      (fun _ inf ->
        inf.joined_this_phase <- 0;
        inf.stopped <- false)
      clusters;
    let is_red lbl = (lbl lsr bit) land 1 = 1 in
    let continue = ref true in
    while !continue do
      (* Collect proposals: each alive red node adjacent to a live blue
         cluster proposes to the smallest-label such cluster (via the
         smallest such neighbor). *)
      let proposals : (int, (int * int) list ref) Hashtbl.t =
        Hashtbl.create 64
      in
      let num_proposals = ref 0 in
      for v = 0 to n - 1 do
        if alive v && is_red label.(v) then begin
          let best = ref None in
          Graph.iter_neighbors g v (fun w ->
              if alive w && not (is_red label.(w)) then begin
                let lw = label.(w) in
                if not (info lw).stopped then
                  match !best with
                  | None -> best := Some (lw, w)
                  | Some (bl, bw) ->
                      if lw < bl || (lw = bl && w < bw) then best := Some (lw, w)
              end);
          match !best with
          | None -> ()
          | Some (lbl, w) ->
              incr num_proposals;
              let cell =
                match Hashtbl.find_opt proposals lbl with
                | Some r -> r
                | None ->
                    let r = ref [] in
                    Hashtbl.replace proposals lbl r;
                    r
              in
              cell := (v, w) :: !cell
        end
      done;
      if !num_proposals = 0 then continue := false
      else begin
        incr total_steps;
        (* Decide per target cluster. *)
        Hashtbl.iter
          (fun lbl cell ->
            let plist = !cell in
            let count = List.length plist in
            if float_of_int count >= grow_threshold lbl then
              List.iter (fun (v, w) -> join v w lbl) plist
            else begin
              (info lbl).stopped <- true;
              List.iter (fun (v, _) -> kill v) plist
            end)
          proposals;
        (* CONGEST cost of one step: proposal exchange (1 round), count
           convergecast + decision broadcast over the Steiner trees
           (2·(depth + congestion)), join confirmations (1 round). *)
        let d = !max_depth and l = max 1 !max_congestion in
        charge
          ~rounds:(2 + (2 * (d + l)))
          ~messages:!num_proposals ~max_bits:(2 * id_bits) "weak_carving.step"
      end
    done
  in
  let trace = Option.bind cost Congest.Cost.trace in
  Congest.Span.enter trace "weak_carving";
  for bit = 0 to b - 1 do
    Congest.Span.enter_idx trace "phase" bit;
    let before = !total_steps in
    run_phase bit;
    phase_steps := (!total_steps - before) :: !phase_steps;
    Congest.Span.exit trace
  done;
  Congest.Span.exit trace;
  (* Assemble the output: dense cluster ids in order of first appearance by
     node index, so that [Clustering.make]'s normalization is the
     identity and the forest indexing matches. *)
  let cluster_of = Array.make n (-1) in
  let order : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let labels_in_order = ref [] in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if alive v then begin
      let lbl = label.(v) in
      let id =
        match Hashtbl.find_opt order lbl with
        | Some id -> id
        | None ->
            let id = !next in
            incr next;
            Hashtbl.replace order lbl id;
            labels_in_order := lbl :: !labels_in_order;
            id
      in
      cluster_of.(v) <- id
    end
  done;
  let labels = Array.of_list (List.rev !labels_in_order) in
  let forest =
    Array.map
      (fun lbl ->
        let t = trail lbl in
        let parent =
          Hashtbl.fold (fun v e acc -> (v, e.parent) :: acc) t []
        in
        { Cluster.Steiner.root = lbl; parent })
      labels
  in
  let clustering = Cluster.Clustering.make g ~cluster_of in
  let carving = Cluster.Carving.make clustering ~domain in
  {
    carving;
    forest;
    steps = !total_steps;
    phases = b;
    steps_per_phase = List.rev !phase_steps;
    max_depth = !max_depth;
    congestion = !max_congestion;
  }
