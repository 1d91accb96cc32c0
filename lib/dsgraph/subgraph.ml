(* The induced CSR is written directly: [back] is sorted, so a node's
   new id is its rank there (a binary search, no table), and a row of
   [g], being sorted, maps to a sorted row of the subgraph. One pass
   ranks the neighbours of every kept node and counts the kept ones,
   a second copies those out. *)

(* index of [v] in the sorted [back.(lo .. hi - 1)], or -1 *)
let rec rank (back : int array) v lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = back.(mid) in
    if x = v then mid
    else if x < v then rank back v (mid + 1) hi
    else rank back v lo mid

let rec strictly_sorted (a : int array) i =
  i >= Array.length a || (a.(i - 1) < a.(i) && strictly_sorted a (i + 1))

let induce g nodes =
  let n = Graph.n g in
  let back = Array.of_list nodes in
  let k = Array.length back in
  if not (strictly_sorted back 1) then begin
    Array.stable_sort Int.compare back;
    for i = 1 to k - 1 do
      if back.(i - 1) = back.(i) then
        invalid_arg "Subgraph.induce: duplicate nodes"
    done
  end;
  if k > 0 && (back.(0) < 0 || back.(k - 1) >= n) then
    invalid_arg "Subgraph.induce: node out of range";
  let offsets = Graph.offsets g and targets = Graph.targets g in
  (* ranks.(p) is the new id of the p-th neighbour entry of the kept
     rows, or -1 when that neighbour is not kept *)
  let vol = ref 0 in
  Array.iter (fun v -> vol := !vol + Graph.degree g v) back;
  let ranks = Array.make !vol (-1) in
  let sub_offsets =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (k + 1)
  in
  sub_offsets.{0} <- 0;
  let p = ref 0 in
  for i = 0 to k - 1 do
    let v = back.(i) in
    let d = ref 0 in
    for j = offsets.{v} to offsets.{v + 1} - 1 do
      let r = rank back targets.{j} 0 k in
      ranks.(!p) <- r;
      incr p;
      if r >= 0 then incr d
    done;
    sub_offsets.{i + 1} <- sub_offsets.{i} + !d
  done;
  let m2 = sub_offsets.{k} in
  let sub_targets =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 m2)
  in
  let q = ref 0 in
  Array.iter
    (fun r ->
      if r >= 0 then begin
        sub_targets.{!q} <- r;
        incr q
      end)
    ranks;
  ( Graph.of_csr_unchecked ~n:k ~m:(m2 / 2) ~offsets:sub_offsets
      ~targets:sub_targets,
    back )
