(* Flat CSR (compressed sparse row) graph core. The whole structure is two
   Bigarrays of native ints — [offsets] (n+1 cells) and [targets] (2m cells,
   each undirected edge stored in both rows, rows sorted ascending) — so a
   10^6-node / 10^7-edge graph is two contiguous buffers with no per-node
   heap blocks, and Io.save_csr/load_csr can blit or mmap them directly. *)

type int_array1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  m : int;
  offsets : int_array1;
  targets : int_array1;
  (* Per-node offsets into the dense edge numbering; edge (u,v) with u < v
     gets index [edge_offset.(u) + position of v among u's larger
     neighbors]. Computed on first [edge_index] call: only the congestion
     accounting needs it, and skipping it keeps mmap loads O(1). *)
  mutable edge_offset : int array option;
  (* Provenance for [diff_rows]: [id] is unique to this graph's
     construction, and a graph [apply_edits] made records its source's
     id and the rows the edits changed, ascending ([source] is -1 and
     [rows] empty otherwise). A graph is never mutated, so an id names
     one edge set. *)
  id : int;
  source : int;
  rows : int array;
}

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

let ba_create len : int_array1 =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 len)

let n t = t.n
let m t = t.m
let degree t v = t.offsets.{v + 1} - t.offsets.{v}
let offsets t = t.offsets
let targets t = t.targets

let iter_neighbors t v f =
  let hi = t.offsets.{v + 1} in
  for i = t.offsets.{v} to hi - 1 do
    f t.targets.{i}
  done
[@@hot]

let neighbors t v =
  let lo = t.offsets.{v} in
  Array.init (t.offsets.{v + 1} - lo) (fun i -> t.targets.{lo + i})

let nodes t = List.init t.n (fun i -> i)

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    let d = degree t v in
    if d > !best then best := d
  done;
  !best

(* Edges are accumulated packed, one per add: (min lsl 31) lor max. This
   keeps the builder a single growable int buffer (no tuple per edge) and
   makes sort-and-dedup a plain int sort; it caps n at 2^31, far beyond
   what a 63-bit address space can hold as CSR anyway. *)

let shift = 31
let lowmask = (1 lsl shift) - 1

type builder = {
  bn : int;
  mutable packed : int_array1;
  mutable blen : int;
  mutable built : bool;
}

module Builder = struct
  let make ~fn ~n ~capacity =
    if n < 0 then invalid_arg (fn ^ ": negative n");
    if n > 1 lsl shift then invalid_arg (fn ^ ": n exceeds 2^31");
    if capacity < 0 then invalid_arg (fn ^ ": negative capacity");
    { bn = n; packed = ba_create capacity; blen = 0; built = false }

  let create ~n = make ~fn:"Graph.Builder.create" ~n ~capacity:1024

  let create_sized ~n ~capacity =
    make ~fn:"Graph.Builder.create_sized" ~n ~capacity

  let add_edge b u v =
    if b.built then invalid_arg "Graph.Builder.add_edge: already built";
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg "Graph.Builder.add_edge: endpoint out of range";
    if u = v then invalid_arg "Graph.Builder.add_edge: self-loop";
    let lo = if u < v then u else v and hi = if u < v then v else u in
    let len = b.blen in
    if len = Bigarray.Array1.dim b.packed then begin
      let grown = ba_create (2 * len) in
      Bigarray.Array1.blit b.packed (Bigarray.Array1.sub grown 0 len);
      b.packed <- grown
    end;
    b.packed.{len} <- (lo lsl shift) lor hi;
    b.blen <- len + 1

  (* top level, not a local closure over [a]: a closure would be
     allocated by every partitioning call, ~8 words per node at 2^20 *)
  let swap (a : int_array1) i j =
    let tmp = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- tmp

  (* monomorphic in-place quicksort on a slice; inclusive bounds *)
  let rec qsort (a : int_array1) lo hi =
    if hi - lo < 16 then
      for i = lo + 1 to hi do
        let x = a.{i} in
        let j = ref (i - 1) in
        while !j >= lo && a.{!j} > x do
          a.{!j + 1} <- a.{!j};
          decr j
        done;
        a.{!j + 1} <- x
      done
    else begin
      let mid = (lo + hi) / 2 in
      if a.{mid} < a.{lo} then swap a mid lo;
      if a.{hi} < a.{lo} then swap a hi lo;
      if a.{hi} < a.{mid} then swap a hi mid;
      let pivot = a.{mid} in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.{!i} < pivot do
          incr i
        done;
        while a.{!j} > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap a !i !j;
          incr i;
          decr j
        end
      done;
      qsort a lo !j;
      qsort a !i hi
    end

  let build b =
    if b.built then invalid_arg "Graph.Builder.build: already built";
    b.built <- true;
    let n = b.bn and k = b.blen in
    let packed = b.packed in
    (* group by smaller endpoint (counting sort), then sort each group by
       the packed value — i.e. by larger endpoint *)
    let group = Array.make (n + 1) 0 in
    for i = 0 to k - 1 do
      let u = packed.{i} lsr shift in
      group.(u + 1) <- group.(u + 1) + 1
    done;
    for u = 1 to n do
      group.(u) <- group.(u) + group.(u - 1)
    done;
    let cursor = Array.sub group 0 (max 1 n) in
    let sorted = ba_create k in
    for i = 0 to k - 1 do
      let p = packed.{i} in
      let u = p lsr shift in
      sorted.{cursor.(u)} <- p;
      cursor.(u) <- cursor.(u) + 1
    done;
    b.packed <- ba_create 0;
    for u = 0 to n - 1 do
      qsort sorted group.(u) (group.(u + 1) - 1)
    done;
    (* dedup pass: degrees over distinct edges only *)
    let deg = Array.make (max 1 n) 0 in
    let m = ref 0 in
    for u = 0 to n - 1 do
      let prev = ref (-1) in
      for i = group.(u) to group.(u + 1) - 1 do
        let p = sorted.{i} in
        if p <> !prev then begin
          prev := p;
          incr m;
          let v = p land lowmask in
          deg.(u) <- deg.(u) + 1;
          deg.(v) <- deg.(v) + 1
        end
      done
    done;
    let m = !m in
    let offsets = ba_create (n + 1) in
    offsets.{0} <- 0;
    for u = 0 to n - 1 do
      offsets.{u + 1} <- offsets.{u} + deg.(u)
    done;
    let targets = ba_create (2 * m) in
    let fill = Array.make (max 1 n) 0 in
    for u = 0 to n - 1 do
      fill.(u) <- offsets.{u}
    done;
    (* scatter in (u,v)-sorted order: each row first receives its smaller
       partners (in increasing order of their ids), then — once its own
       group is reached — its larger partners in increasing order, so
       every row comes out sorted without a second per-row sort *)
    for u = 0 to n - 1 do
      let prev = ref (-1) in
      for i = group.(u) to group.(u + 1) - 1 do
        let p = sorted.{i} in
        if p <> !prev then begin
          prev := p;
          let v = p land lowmask in
          targets.{fill.(u)} <- v;
          fill.(u) <- fill.(u) + 1;
          targets.{fill.(v)} <- u;
          fill.(v) <- fill.(v) + 1
        end
      done
    done;
    {
      n;
      m;
      offsets;
      targets;
      edge_offset = None;
      id = fresh_id ();
      source = -1;
      rows = [||];
    }
end

let of_edge_seq ~n seq =
  let b = Builder.create ~n in
  Seq.iter (fun (u, v) -> Builder.add_edge b u v) seq;
  Builder.build b

let edges_seq t =
  let rec from u i () =
    if u >= t.n then Seq.Nil
    else if i >= t.offsets.{u + 1} then from (u + 1) t.offsets.{u + 1} ()
    else
      let v = t.targets.{i} in
      if v > u then Seq.Cons ((u, v), from u (i + 1)) else from u (i + 1) ()
  in
  fun () -> if t.n = 0 then Seq.Nil else from 0 0 ()

let of_csr_unchecked ~n ~m ~offsets ~targets =
  if n < 0 || m < 0 then invalid_arg "Graph.of_csr_unchecked: negative size";
  if Bigarray.Array1.dim offsets < n + 1 then
    invalid_arg "Graph.of_csr_unchecked: offsets too short";
  if Bigarray.Array1.dim targets < 2 * m then
    invalid_arg "Graph.of_csr_unchecked: targets too short";
  if offsets.{0} <> 0 || offsets.{n} <> 2 * m then
    invalid_arg "Graph.of_csr_unchecked: inconsistent offsets";
  {
    n;
    m;
    offsets;
    targets;
    edge_offset = None;
    id = fresh_id ();
    source = -1;
    rows = [||];
  }

(* binary search of a sorted row; top level, so no closure per call *)
let rec row_mem (row : int_array1) v lo hi =
  if lo >= hi then false
  else
    let mid = (lo + hi) / 2 in
    let x = row.{mid} in
    if x = v then true
    else if x < v then row_mem row v (mid + 1) hi
    else row_mem row v lo mid

let is_edge t u v = row_mem t.targets v t.offsets.{u} t.offsets.{u + 1}

let validate t =
  let fail fmt = Printf.ksprintf (fun s -> raise_notrace (Failure s)) fmt in
  try
    for u = 0 to t.n - 1 do
      if t.offsets.{u + 1} < t.offsets.{u} then
        fail "offsets not monotone at node %d" u
    done;
    if t.offsets.{t.n} <> 2 * t.m then
      fail "offsets end at %d, not 2m = %d" t.offsets.{t.n} (2 * t.m);
    for u = 0 to t.n - 1 do
      for i = t.offsets.{u} to t.offsets.{u + 1} - 1 do
        let v = t.targets.{i} in
        if v < 0 || v >= t.n then
          fail "target %d of node %d out of range (n = %d)" v u t.n;
        if v = u then fail "self-loop at node %d" u;
        if i > t.offsets.{u} && t.targets.{i - 1} >= v then
          fail "row of node %d not strictly sorted" u
      done
    done;
    for u = 0 to t.n - 1 do
      for i = t.offsets.{u} to t.offsets.{u + 1} - 1 do
        let v = t.targets.{i} in
        if not (is_edge t v u) then
          fail "not symmetric: edge %d -> %d has no reverse" u v
      done
    done;
    Ok ()
  with Failure msg -> Error msg

let iter_edges t f =
  for u = 0 to t.n - 1 do
    let hi = t.offsets.{u + 1} in
    for i = t.offsets.{u} to hi - 1 do
      let v = t.targets.{i} in
      if u < v then f u v
    done
  done

let fold_edges t ~init ~f =
  let acc = ref init in
  iter_edges t (fun u v -> acc := f !acc u v);
  !acc

let edge_offset t =
  match t.edge_offset with
  | Some a -> a
  | None ->
      let a = Array.make (max 1 t.n) 0 in
      let acc = ref 0 in
      for u = 0 to t.n - 1 do
        a.(u) <- !acc;
        iter_neighbors t u (fun v -> if v > u then incr acc)
      done;
      t.edge_offset <- Some a;
      a

let edge_index t (u, v) =
  let u, v = if u < v then (u, v) else (v, u) in
  if not (is_edge t u v) then raise Not_found;
  (* count neighbors of u that are > u and < v *)
  let pos = ref 0 in
  iter_neighbors t u (fun w -> if w > u && w < v then incr pos);
  (edge_offset t).(u) + !pos

(* Edits are spliced into a copy, not rebuilt: the edit lists are
   packed ((lo lsl shift) lor hi, as the builder packs), sorted and
   deduplicated, then expanded to both orientations and sorted by row.
   Each edited row is one merge of its old row with its deletions and
   additions; every run of unedited rows is blitted over with its
   offsets shifted by the degree change so far. Cost: O(n) offset
   copies, one blit per unedited run, and O(d log d) in the d edits —
   never a sort of the whole edge set. *)

(* sorted, deduplicated array of a packed list *)
let sorted_set l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  let k = ref 0 in
  Array.iter
    (fun p ->
      if !k = 0 || p <> a.(!k - 1) then begin
        a.(!k) <- p;
        incr k
      end)
    a;
  Array.sub a 0 !k

let rec sorted_mem (a : int array) p lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let x = a.(mid) in
  x = p || if x < p then sorted_mem a p (mid + 1) hi else sorted_mem a p lo mid

(* both orientations (row lsl shift) lor col of packed edges, by row *)
let directed (edges : int array) =
  let d = Array.make (2 * Array.length edges) 0 in
  Array.iteri
    (fun i p ->
      d.(2 * i) <- p;
      d.((2 * i) + 1) <- ((p land lowmask) lsl shift) lor (p lsr shift))
    edges;
  Array.sort Int.compare d;
  d

let apply_edits t ~del ~add =
  let norm what (u, v) =
    if u = v then
      invalid_arg (Printf.sprintf "Graph.apply_edits: self-loop in %s" what);
    if u < 0 || u >= t.n || v < 0 || v >= t.n then
      invalid_arg
        (Printf.sprintf "Graph.apply_edits: %s endpoint out of range" what);
    if u < v then (u, v) else (v, u)
  in
  let dels =
    sorted_set
      (List.map
         (fun e ->
           let u, v = norm "del" e in
           if not (is_edge t u v) then
             invalid_arg
               (Printf.sprintf "Graph.apply_edits: deleting non-edge (%d,%d)"
                  u v);
           (u lsl shift) lor v)
         del)
  in
  let adds =
    sorted_set
      (List.map
         (fun e ->
           let u, v = norm "add" e in
           let p = (u lsl shift) lor v in
           if sorted_mem dels p 0 (Array.length dels) then
             invalid_arg
               (Printf.sprintf
                  "Graph.apply_edits: edge (%d,%d) both deleted and added" u v);
           if is_edge t u v then
             invalid_arg
               (Printf.sprintf "Graph.apply_edits: adding existing edge (%d,%d)"
                  u v);
           p)
         add)
  in
  let m = t.m - Array.length dels + Array.length adds in
  let rdel = directed dels and radd = directed adds in
  let nd = Array.length rdel and na = Array.length radd in
  let offsets = ba_create (t.n + 1) and targets = ba_create (2 * m) in
  (* [di]/[ai] walk rdel/radd in row order; rows before [copied] are
     written, and [moved] is how far the next row's start has shifted *)
  let di = ref 0 and ai = ref 0 and copied = ref 0 and moved = ref 0 in
  let rows = ref [] in
  let copy_rows upto =
    let lo = t.offsets.{!copied} and hi = t.offsets.{upto} in
    for u = !copied to upto - 1 do
      offsets.{u} <- t.offsets.{u} + !moved
    done;
    if hi > lo then
      Bigarray.Array1.blit
        (Bigarray.Array1.sub t.targets lo (hi - lo))
        (Bigarray.Array1.sub targets (lo + !moved) (hi - lo));
    copied := upto
  in
  while !di < nd || !ai < na do
    let x =
      if !ai >= na then rdel.(!di) lsr shift
      else if !di >= nd then radd.(!ai) lsr shift
      else min (rdel.(!di) lsr shift) (radd.(!ai) lsr shift)
    in
    copy_rows x;
    rows := x :: !rows;
    (* merge row x: its old neighbours minus deletions, plus additions,
       with [max_int] standing for an exhausted side *)
    let out = ref (t.offsets.{x} + !moved) in
    offsets.{x} <- !out;
    let i = ref t.offsets.{x} and hi = t.offsets.{x + 1} in
    let added () =
      if !ai < na && radd.(!ai) lsr shift = x then radd.(!ai) land lowmask
      else max_int
    in
    let a = ref (added ()) in
    while !i < hi || !a < max_int do
      let y = if !i < hi then t.targets.{!i} else max_int in
      if !a < y then begin
        targets.{!out} <- !a;
        incr out;
        incr ai;
        a := added ()
      end
      else begin
        if !di < nd && rdel.(!di) = (x lsl shift) lor y then incr di
        else begin
          targets.{!out} <- y;
          incr out
        end;
        incr i
      end
    done;
    moved := !out - hi;
    copied := x + 1
  done;
  copy_rows t.n;
  offsets.{t.n} <- 2 * m;
  {
    n = t.n;
    m;
    offsets;
    targets;
    edge_offset = None;
    id = fresh_id ();
    source = t.id;
    rows = Array.of_list (List.rev !rows);
  }

let pp fmt t =
  Format.fprintf fmt "graph(n=%d, m=%d, maxdeg=%d)" t.n t.m (max_degree t)

let equal a b =
  a.n = b.n
  && a.m = b.m
  &&
  let ok = ref true in
  for u = 0 to a.n do
    if a.offsets.{u} <> b.offsets.{u} then ok := false
  done;
  if !ok then
    for i = 0 to (2 * a.m) - 1 do
      if a.targets.{i} <> b.targets.{i} then ok := false
    done;
  !ok

let diff_rows a b f =
  if a.n <> b.n then
    invalid_arg
      (Printf.sprintf "Graph.diff_rows: graphs of %d and %d nodes" a.n b.n);
  if a.id = b.id then true
  else if b.source = a.id then begin
    Array.iter f b.rows;
    true
  end
  else false
