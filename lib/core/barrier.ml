open Dsgraph

let build ?(epsilon = 0.5) rng ~target_n =
  if target_n < 16 then invalid_arg "Barrier.build: target_n too small";
  let nf = float_of_int target_n in
  let seg = max 1 (int_of_float (Float.round (log nf /. epsilon))) in
  (* n' nodes of degree 4 -> 2·n' edges, each contributing [seg] interior
     nodes: total ≈ n' · (1 + 2·seg); solve for n' *)
  let n' = max 8 (target_n / (1 + (2 * seg))) in
  let n' = if n' mod 2 = 0 then n' else n' + 1 in
  let base = Gen.expander rng n' in
  Gen.subdivide base seg

type analysis = {
  n : int;
  outcome : [ `Cut | `Component ];
  separator_size : int;
  separator_bound : float;
  u_diameter : int;
  diameter_scale : float;
}

let analyze ?(epsilon = 0.5) g =
  let n = Graph.n g in
  let nf = float_of_int n in
  let separator_bound = epsilon *. nf /. Float.max (log nf) 1.0 in
  let diameter_scale = log nf *. log nf /. epsilon in
  match
    Sparse_cut.run ~epsilon (Sparse_cut.scratch ()) g
      ~domain:(Array.init n Fun.id)
  with
  | Sparse_cut.Cut { removed; _ } ->
      {
        n;
        outcome = `Cut;
        separator_size = Array.length removed;
        separator_bound;
        u_diameter = -1;
        diameter_scale;
      }
  | Sparse_cut.Component { u; boundary } ->
      {
        n;
        outcome = `Component;
        separator_size = Array.length boundary;
        separator_bound;
        u_diameter = Bfs.diameter_of_set g (Array.to_list u);
        diameter_scale;
      }
