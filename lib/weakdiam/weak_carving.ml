open Dsgraph

type preset = Rg20 | Ggr21 | Hybrid

let default_preset = Ggr21

type result = {
  carving : Cluster.Carving.t;
  forest : Cluster.Steiner.forest;
  steps : int;
  phases : int;
  steps_per_phase : int list;
  max_depth : int;
  congestion : int;
}

(* The engine's state, flat and reusable across calls. Labels are node
   ids, so every per-cluster table is an array indexed by label.

   Steiner trails live in one append-only arena of entries (e_label,
   e_parent, e_depth): a node's entries are chained newest-first through
   e_next from head.(v), and cur.(v) is the entry of its current cluster.
   A node joins at most one cluster per phase, so its chain holds at most
   b + 1 entries, one per tree it ever entered.

   Congestion is counted per CSR arc, at the smaller endpoint's arc of
   each tree edge; touched lists the arcs with a nonzero count.

   Between calls label is -1 and cnt and arc_trees are 0 everywhere, and
   the arena is empty; every other array is initialized over the domain
   when a call starts. *)
type scratch = {
  mutable label : int array;  (* by node: label; -1 off-domain, -2 dead *)
  mutable size : int array;  (* by label: current members *)
  mutable joined : int array;  (* by label: joins this phase *)
  mutable stopped : bool array;  (* by label: stopped this phase *)
  mutable cnt : int array;  (* by label: proposals this step *)
  mutable cur : int array;
  mutable head : int array;
  mutable stamp : int array;  (* by node: last epoch it entered front *)
  mutable epoch : int;
  mutable dom : int array;  (* the domain, ascending *)
  mutable front : int array;  (* nodes the next step scans *)
  mutable prop : int array;  (* this step's proposers ... *)
  mutable via : int array;  (* ... and the neighbour each proposes through *)
  mutable nprop : int;
  mutable e_label : int array;
  mutable e_parent : int array;
  mutable e_depth : int array;
  mutable e_next : int array;
  mutable entries : int;
  mutable arc_trees : int array;
  mutable touched : int array;
  mutable ntouched : int;
}

let scratch () =
  {
    label = [||];
    size = [||];
    joined = [||];
    stopped = [||];
    cnt = [||];
    cur = [||];
    head = [||];
    stamp = [||];
    epoch = 0;
    dom = [||];
    front = [||];
    prop = [||];
    via = [||];
    nprop = 0;
    e_label = [||];
    e_parent = [||];
    e_depth = [||];
    e_next = [||];
    entries = 0;
    arc_trees = [||];
    touched = [||];
    ntouched = 0;
  }

(* Size the scratch for [g]; arrays only ever grow. *)
let fit s g =
  let n = Graph.n g in
  if Array.length s.label < n then begin
    s.label <- Array.make n (-1);
    s.size <- Array.make n 0;
    s.joined <- Array.make n 0;
    s.stopped <- Array.make n false;
    s.cnt <- Array.make n 0;
    s.cur <- Array.make n 0;
    s.head <- Array.make n 0;
    s.stamp <- Array.make n 0;
    s.dom <- Array.make n 0;
    s.front <- Array.make n 0;
    s.prop <- Array.make n 0;
    s.via <- Array.make n 0;
    s.e_label <- Array.make (2 * n) 0;
    s.e_parent <- Array.make (2 * n) 0;
    s.e_depth <- Array.make (2 * n) 0;
    s.e_next <- Array.make (2 * n) 0
  end;
  if Array.length s.arc_trees < 2 * Graph.m g then begin
    s.arc_trees <- Array.make (2 * Graph.m g) 0;
    s.touched <- Array.make (Graph.m g) 0
  end

let grow_arena s =
  let double a =
    let b = Array.make (max 1 (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  s.e_label <- double s.e_label;
  s.e_parent <- double s.e_parent;
  s.e_depth <- double s.e_depth;
  s.e_next <- double s.e_next

(* Append a tree entry for node [v] and make it the head of v's chain. *)
let push_entry s v ~label ~parent ~depth =
  if s.entries = Array.length s.e_label then grow_arena s;
  let e = s.entries in
  s.entries <- e + 1;
  s.e_label.(e) <- label;
  s.e_parent.(e) <- parent;
  s.e_depth.(e) <- depth;
  s.e_next.(e) <- s.head.(v);
  s.head.(v) <- e;
  e

(* v's entry in the tree of [label], or -1 if it never entered it. *)
let rec entry_in s e label =
  if e < 0 || s.e_label.(e) = label then e else entry_in s s.e_next.(e) label

(* Index of the arc u -> x in u's sorted CSR row; x must be a neighbour. *)
let arc_index (offsets : Graph.int_array1) (targets : Graph.int_array1) u x =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    let t = targets.{mid} in
    if t = x then mid else if t < x then go (mid + 1) hi else go lo mid
  in
  go offsets.{u} offsets.{u + 1}

(* The best proposal target in the row [targets.{i .. hi-1}]: the alive
   neighbour with the smallest blue, unstopped label, ties to the smaller
   node; -1 if there is none. *)
let rec best_neighbour s (targets : Graph.int_array1) bit i hi best =
  if i >= hi then best
  else
    let w = targets.{i} in
    let lw = s.label.(w) in
    if
      lw >= 0
      && (lw lsr bit) land 1 = 0
      && (not s.stopped.(lw))
      && (best < 0
         || lw < s.label.(best)
         || (lw = s.label.(best) && w < best))
    then best_neighbour s targets bit (i + 1) hi w
    else best_neighbour s targets bit (i + 1) hi best
[@@hot]

(* One step's proposal scan over [src.(0 .. len-1)]: each alive red node
   there with a target records itself in [prop], the target's neighbour in
   [via], and bumps the target label's [cnt]. Returns the proposal count. *)
let propose s (offsets : Graph.int_array1) targets bit src len =
  s.nprop <- 0;
  for k = 0 to len - 1 do
    let v = src.(k) in
    let lv = s.label.(v) in
    if lv >= 0 && (lv lsr bit) land 1 = 1 then begin
      let w = best_neighbour s targets bit offsets.{v} offsets.{v + 1} (-1) in
      if w >= 0 then begin
        let i = s.nprop in
        s.prop.(i) <- v;
        s.via.(i) <- w;
        s.nprop <- i + 1;
        let lw = s.label.(w) in
        s.cnt.(lw) <- s.cnt.(lw) + 1
      end
    end
  done;
  s.nprop
[@@hot]

(* Restore the between-calls invariants. *)
let release s ndom =
  for k = 0 to ndom - 1 do
    let v = s.dom.(k) in
    s.label.(v) <- -1;
    s.cnt.(v) <- 0
  done;
  for k = 0 to s.ntouched - 1 do
    s.arc_trees.(s.touched.(k)) <- 0
  done;
  s.ntouched <- 0;
  s.entries <- 0

let carve ?(preset = default_preset) ?scratch:s ?cost ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Weak_carving.carve: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let domain =
    match domain with
    | None -> Mask.full n
    | Some d ->
        if Mask.size d <> n then
          invalid_arg
            (Printf.sprintf
               "Weak_carving.carve: domain mask has size %d, graph has %d \
                nodes"
               (Mask.size d) n);
        d
  in
  let s = match s with Some s -> s | None -> scratch () in
  fit s g;
  let charge ?rounds ?messages ?max_bits tag =
    match cost with
    | None -> ()
    | Some c -> Congest.Cost.charge c ?rounds ?messages ?max_bits tag
  in
  let id_bits = Congest.Bits.id_bits ~n in
  let b = id_bits in
  let offsets = Graph.offsets g and targets = Graph.targets g in
  let label = s.label and size = s.size and joined = s.joined in
  let stopped = s.stopped and cnt = s.cnt and dom = s.dom in
  let ndom = ref 0 in
  Mask.iter domain (fun v ->
      dom.(!ndom) <- v;
      incr ndom);
  let ndom = !ndom in
  Fun.protect ~finally:(fun () -> release s ndom) @@ fun () ->
  for k = 0 to ndom - 1 do
    let v = dom.(k) in
    label.(v) <- v;
    size.(v) <- 1;
    s.head.(v) <- -1;
    s.cur.(v) <- push_entry s v ~label:v ~parent:v ~depth:0
  done;
  let max_depth = ref 0 and max_congestion = ref 0 in
  let total_steps = ref 0 in
  let phase_steps = ref [] in
  let grow_threshold lbl =
    let rg20 = epsilon /. (2.0 *. float_of_int b) *. float_of_int size.(lbl) in
    let ggr21 = epsilon /. 2.0 *. float_of_int (max joined.(lbl) 1) in
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
  let note_tree_edge v w =
    let a = arc_index offsets targets (min v w) (max v w) in
    let c = s.arc_trees.(a) + 1 in
    s.arc_trees.(a) <- c;
    if c = 1 then begin
      s.touched.(s.ntouched) <- a;
      s.ntouched <- s.ntouched + 1
    end;
    if c > !max_congestion then max_congestion := c
  in
  (* Join v into cluster [lbl] through neighbor [w] (already in [lbl]). *)
  let join v w lbl =
    let old = label.(v) in
    size.(old) <- size.(old) - 1;
    label.(v) <- lbl;
    size.(lbl) <- size.(lbl) + 1;
    joined.(lbl) <- joined.(lbl) + 1;
    let cw = s.cur.(w) in
    (* w must be in the tree: it is a current member of [lbl] *)
    if s.e_label.(cw) <> lbl then
      invalid_arg "Weak_carving: join target missing from tree";
    (* Trees are append-only: entries are never removed or replaced, so
       every parent chain stays valid and acyclic. If [v] once belonged to
       this cluster and rejoins it, its old tree position still connects it
       to the root — reusing it avoids parent cycles (e.g. the root
       reparenting under its own descendant). *)
    let e = entry_in s s.head.(v) lbl in
    if e >= 0 then s.cur.(v) <- e
    else begin
      let depth = s.e_depth.(cw) + 1 in
      s.cur.(v) <- push_entry s v ~label:lbl ~parent:w ~depth;
      note_tree_edge v w;
      if depth > !max_depth then max_depth := depth
    end
  in
  let kill v =
    let old = label.(v) in
    size.(old) <- size.(old) - 1;
    label.(v) <- -2
  in
  (* One phase: separate red (bit set) from blue (bit clear) clusters.
     Blue nodes keep their labels, stopped clusters stay stopped, and every
     proposer joins or dies, so after the first step a red node can only
     gain a target through a neighbour that has just joined: each later
     step scans only the red neighbours of the last step's joiners. *)
  let run_phase bit =
    for k = 0 to ndom - 1 do
      let v = dom.(k) in
      joined.(v) <- 0;
      stopped.(v) <- false
    done;
    let is_red lbl = (lbl lsr bit) land 1 = 1 in
    let src = ref dom and len = ref ndom in
    let continue = ref true in
    while !continue do
      let np = propose s offsets targets bit !src !len in
      if np = 0 then continue := false
      else begin
        incr total_steps;
        (* Decide per target cluster, at its first proposer: the threshold
           reads only the target's own size and joins, which none of this
           step's other decisions touch. *)
        for k = 0 to np - 1 do
          let v = s.prop.(k) and w = s.via.(k) in
          let lbl = label.(w) in
          let c = cnt.(lbl) in
          if c > 0 then begin
            cnt.(lbl) <- 0;
            if float_of_int c < grow_threshold lbl then stopped.(lbl) <- true
          end;
          if stopped.(lbl) then kill v else join v w lbl
        done;
        (* CONGEST cost of one step: proposal exchange (1 round), count
           convergecast + decision broadcast over the Steiner trees
           (2·(depth + congestion)), join confirmations (1 round). *)
        let d = !max_depth and l = max 1 !max_congestion in
        charge
          ~rounds:(2 + (2 * (d + l)))
          ~messages:np ~max_bits:(2 * id_bits) "weak_carving.step";
        s.epoch <- s.epoch + 1;
        let epoch = s.epoch and nf = ref 0 in
        for k = 0 to np - 1 do
          let v = s.prop.(k) in
          if label.(v) >= 0 then
            for i = offsets.{v} to offsets.{v + 1} - 1 do
              let u = targets.{i} in
              let lu = label.(u) in
              if lu >= 0 && is_red lu && s.stamp.(u) <> epoch then begin
                s.stamp.(u) <- epoch;
                s.front.(!nf) <- u;
                incr nf
              end
            done
        done;
        src := s.front;
        len := !nf
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
     identity and the forest indexing matches. The phases are over, so
     [joined] holds each label's cluster id (-1: no survivor). *)
  let id_of = joined in
  for k = 0 to ndom - 1 do
    id_of.(dom.(k)) <- -1
  done;
  let cluster_of = Array.make n (-1) in
  let roots = ref [] and next = ref 0 in
  for k = 0 to ndom - 1 do
    let v = dom.(k) in
    let lbl = label.(v) in
    if lbl >= 0 then begin
      if id_of.(lbl) < 0 then begin
        id_of.(lbl) <- !next;
        incr next;
        roots := lbl :: !roots
      end;
      cluster_of.(v) <- id_of.(lbl)
    end
  done;
  (* Each tree lists every node that ever entered it, in ascending node
     order: walk the domain downwards, consing each entry onto its tree. *)
  let parents = Array.make !next [] in
  for k = ndom - 1 downto 0 do
    let v = dom.(k) in
    let e = ref s.head.(v) in
    while !e >= 0 do
      let id = id_of.(s.e_label.(!e)) in
      if id >= 0 then parents.(id) <- (v, s.e_parent.(!e)) :: parents.(id);
      e := s.e_next.(!e)
    done
  done;
  let forest =
    Array.of_list
      (List.rev_map
         (fun root ->
           { Cluster.Steiner.root; parent = parents.(id_of.(root)) })
         !roots)
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
