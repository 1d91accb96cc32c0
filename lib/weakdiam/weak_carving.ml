open Dsgraph

type preset = Rg20 | Ggr21 | Hybrid

let default_preset = Ggr21

type local = {
  members : int array array;
  roots : int array;
  dead : int array;
  steps : int;
  phases : int;
  steps_per_phase : int list;
  max_depth : int;
  congestion : int;
}

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

   Steiner trails live in one append-only arena with an entry (label,
   parent, next) per join: a node's entries are chained newest-first
   through next from head.(v). The entry of node v in the tree it roots
   is implicit, (v, v). A node joins at most one cluster per phase, so
   its chain holds at most b entries, and never two of one tree (see
   [join]). The arena is a list of fixed-size chunks that only grows:
   it costs the largest call's joins, with no copying. dep.(v) is v's
   depth in the tree of its current cluster.

   Congestion is counted per CSR arc, at the smaller endpoint's arc of
   each tree edge; touched lists the arcs with a nonzero count.

   Between calls label is -1 and cnt and arc_trees are 0 everywhere, and
   the arena is empty; every other array is initialized over the domain
   when a call starts. The domain itself is the caller's array. *)
type scratch = {
  mutable label : int array;  (* by node: label; -1 off-domain, -2 dead *)
  mutable size : int array;  (* by label: current members *)
  mutable joined : int array;  (* by label: joins this phase *)
  mutable stopped : bool array;  (* by label: stopped this phase *)
  mutable cnt : int array;  (* by label: proposals this step *)
  mutable dep : int array;
  mutable head : int array;
  mutable stamp : int array;  (* by node: last epoch it entered front *)
  mutable epoch : int;
  mutable front : int array;  (* nodes the next step scans *)
  mutable prop : int array;  (* this step's proposers ... *)
  mutable via : int array;  (* ... and the neighbour each proposes through *)
  mutable nprop : int;
  mutable arena : int array array;  (* chunks; the first [nchunks] used *)
  mutable nchunks : int;
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
    dep = [||];
    head = [||];
    stamp = [||];
    epoch = 0;
    front = [||];
    prop = [||];
    via = [||];
    nprop = 0;
    arena = [||];
    nchunks = 0;
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
    s.dep <- Array.make n 0;
    s.head <- Array.make n 0;
    s.stamp <- Array.make n 0;
    s.front <- Array.make n 0;
    s.prop <- Array.make n 0;
    s.via <- Array.make n 0
  end;
  if Array.length s.arc_trees < 2 * Graph.m g then begin
    s.arc_trees <- Array.make (2 * Graph.m g) 0;
    s.touched <- Array.make (Graph.m g) 0
  end

let chunk_bits = 12
let chunk_mask = (1 lsl chunk_bits) - 1

(* The chunk holding entry [e], and the offset of its label; parent and
   next follow. *)
let chunk s e = s.arena.(e lsr chunk_bits)
let slot e = 3 * (e land chunk_mask)

(* Append a tree entry for node [v] and make it the head of v's chain. *)
let push_entry s v ~label ~parent =
  let e = s.entries in
  let c = e lsr chunk_bits in
  if c = s.nchunks then begin
    if c = Array.length s.arena then begin
      let a = Array.make (max 8 (2 * c)) [||] in
      Array.blit s.arena 0 a 0 c;
      s.arena <- a
    end;
    s.arena.(c) <- Array.make (3 lsl chunk_bits) 0;
    s.nchunks <- c + 1
  end;
  let a = s.arena.(c) and i = slot e in
  a.(i) <- label;
  a.(i + 1) <- parent;
  a.(i + 2) <- s.head.(v);
  s.head.(v) <- e;
  s.entries <- e + 1

(* Index of [x] in the sorted row [targets.{lo .. hi-1}], which holds it. *)
let rec arc_search (targets : Graph.int_array1) x lo hi =
  let mid = (lo + hi) / 2 in
  let t = targets.{mid} in
  if t = x then mid
  else if t < x then arc_search targets x (mid + 1) hi
  else arc_search targets x lo mid

(* Index of the arc u -> x in u's sorted CSR row; x must be a neighbour. *)
let arc_index (offsets : Graph.int_array1) targets u x =
  arc_search targets x offsets.{u} offsets.{u + 1}

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
let release s dom =
  for k = 0 to Array.length dom - 1 do
    let v = dom.(k) in
    s.label.(v) <- -1;
    s.cnt.(v) <- 0
  done;
  for k = 0 to s.ntouched - 1 do
    s.arc_trees.(s.touched.(k)) <- 0
  done;
  s.ntouched <- 0;
  s.entries <- 0

let check_epsilon epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Weak_carving.carve: epsilon must be in (0, 1)"

(* The carving of G[dom], [dom] ascending, and, when [trees], each
   cluster's Steiner tree (else [||]). Only the trees read the arena, so
   without them no entry is written: depth and congestion are kept in
   dep and arc_trees. *)
let run ~trees ?(preset = default_preset) ?scratch:s ?cost g ~domain:dom
    ~epsilon =
  check_epsilon epsilon;
  let n = Graph.n g in
  Cluster.Carving.check_domain
    (if trees then "Weak_carving.carve" else "Weak_carving.carve_local")
    g dom;
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
  let stopped = s.stopped and cnt = s.cnt in
  let ndom = Array.length dom in
  Fun.protect ~finally:(fun () -> release s dom) @@ fun () ->
  for k = 0 to ndom - 1 do
    let v = dom.(k) in
    label.(v) <- v;
    size.(v) <- 1;
    s.head.(v) <- -1;
    s.dep.(v) <- 0
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
    (* Trees are append-only, and [v] has never been in [lbl]'s tree:
       [v] is red, so [lbl] is not its current label, and no label it
       left comes back. It left each one in some phase j for a label
       with bit j clear, and every label it takes later comes from an
       alive neighbour, which shares bits 0..j with it after phase j, so
       bit j stays clear (DESIGN.md §5). So the new entry makes no
       parent cycle. *)
    let depth = s.dep.(w) + 1 in
    s.dep.(v) <- depth;
    if trees then push_entry s v ~label:lbl ~parent:w;
    note_tree_edge v w;
    if depth > !max_depth then max_depth := depth
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
     node index (the order [Clustering.make] normalizes to), each
     cluster's members ascending. The phases are over, so [joined] holds
     each label's cluster id (-1: no survivor), [size] each survivor's
     member count and [cnt] (reset by [release]) the fill cursor. *)
  let id_of = joined in
  for k = 0 to ndom - 1 do
    id_of.(dom.(k)) <- -1
  done;
  let roots = ref [] and next = ref 0 and ndead = ref 0 in
  for k = 0 to ndom - 1 do
    let lbl = label.(dom.(k)) in
    if lbl < 0 then incr ndead
    else if id_of.(lbl) < 0 then begin
      id_of.(lbl) <- !next;
      incr next;
      roots := lbl :: !roots
    end
  done;
  let roots = Array.of_list (List.rev !roots) in
  let members = Array.map (fun root -> Array.make size.(root) 0) roots in
  let dead = Array.make !ndead 0 and nd = ref 0 in
  for k = 0 to ndom - 1 do
    let v = dom.(k) in
    let lbl = label.(v) in
    if lbl < 0 then begin
      dead.(!nd) <- v;
      incr nd
    end
    else begin
      members.(id_of.(lbl)).(cnt.(lbl)) <- v;
      cnt.(lbl) <- cnt.(lbl) + 1
    end
  done;
  (* Each tree lists every node that ever entered it, in ascending node
     order: walk the domain downwards, consing each entry onto its tree,
     then the node's root pair if it roots a surviving tree. *)
  let parents = Array.make (if trees then Array.length roots else 0) [] in
  if trees then
  for k = ndom - 1 downto 0 do
    let v = dom.(k) in
    let e = ref s.head.(v) in
    while !e >= 0 do
      let a = chunk s !e and i = slot !e in
      let id = id_of.(a.(i)) in
      if id >= 0 then parents.(id) <- (v, a.(i + 1)) :: parents.(id);
      e := a.(i + 2)
    done;
    let id = id_of.(v) in
    if id >= 0 then parents.(id) <- (v, v) :: parents.(id)
  done;
  ( {
      members;
      roots;
      dead;
      steps = !total_steps;
      phases = b;
      steps_per_phase = List.rev !phase_steps;
      max_depth = !max_depth;
      congestion = !max_congestion;
    },
    Array.mapi
      (fun id root -> { Cluster.Steiner.root; parent = parents.(id) })
      (if trees then roots else [||]) )

let carve_local ?preset ?scratch ?cost g ~domain ~epsilon =
  fst (run ~trees:false ?preset ?scratch ?cost g ~domain ~epsilon)

let carve ?preset ?scratch ?cost ?domain g ~epsilon =
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Array.init n Fun.id in
  let l, forest = run ~trees:true ?preset ?scratch ?cost g ~domain ~epsilon in
  {
    carving =
      Cluster.Carving.of_clusters g
        ~domain:(Mask.of_list n (Array.to_list domain))
        l.members;
    forest;
    steps = l.steps;
    phases = l.phases;
    steps_per_phase = l.steps_per_phase;
    max_depth = l.max_depth;
    congestion = l.congestion;
  }
