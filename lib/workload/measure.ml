open Dsgraph

type decomp_row = {
  algorithm : string;
  reference : string;
  kind : Algorithms.kind;
  model : Algorithms.model;
  family : string;
  n : int;
  m : int;
  colors : int;
  strong_diameter : int option;
  weak_diameter : int;
  rounds : int;
  messages : int;
  max_message_bits : int;
  valid : bool;
  seconds : float;
  trace : Congest.Trace.sink option;
}

type carve_row = {
  algorithm : string;
  reference : string;
  kind : Algorithms.kind;
  family : string;
  n : int;
  epsilon : float;
  strong_diameter : int option;
  weak_diameter : int;
  dead_fraction : float;
  rounds : int;
  max_message_bits : int;
  valid : bool;
  seconds : float;
  trace : Congest.Trace.sink option;
}

(* the clustering estimators use -1 as "no strong diameter exists" *)
let diameter_opt d = if d < 0 then None else Some d

let decomposition_result ?(seed = 42) ?trace (d : Algorithms.decomposer)
    family ~n : decomp_row * Cluster.Decomposition.t * Graph.t =
  let g = family.Suite.build ~seed ~n in
  let cost = Congest.Cost.create ?trace () in
  let t0 = Congest.Resource.now () in
  let decomp = d.run ~cost ~seed g in
  let seconds = Congest.Resource.now () -. t0 in
  let clustering = Cluster.Decomposition.clustering decomp in
  let colors = Cluster.Decomposition.num_colors decomp in
  let strong_diameter =
    diameter_opt (Cluster.Clustering.max_strong_diameter_estimate clustering)
  in
  let weak_diameter = Cluster.Clustering.max_weak_diameter_estimate clustering in
  let valid =
    match Cluster.Decomposition.check decomp with
    | Ok () -> (
        match d.kind with
        | Algorithms.Weak -> weak_diameter >= 0
        | Algorithms.Strong -> strong_diameter <> None)
    | Error _ -> false
  in
  ( {
      algorithm = d.name;
      reference = d.reference;
      kind = d.kind;
      model = d.model;
      family = family.Suite.name;
      n = Graph.n g;
      m = Graph.m g;
      colors;
      strong_diameter;
      weak_diameter;
      rounds = Congest.Cost.rounds cost;
      messages = Congest.Cost.messages cost;
      max_message_bits = Congest.Cost.max_message_bits cost;
      valid;
      seconds;
      trace;
    },
    decomp,
    g )

let decomposition_row ?seed ?trace d family ~n : decomp_row =
  let row, _, _ = decomposition_result ?seed ?trace d family ~n in
  row

let carving_result ?(seed = 42) ?trace (c : Algorithms.carver) family ~n
    ~epsilon : carve_row * Cluster.Carving.t * Graph.t =
  let g = family.Suite.build ~seed ~n in
  let cost = Congest.Cost.create ?trace () in
  let t0 = Congest.Resource.now () in
  let carving = c.run ~cost ~seed g ~epsilon in
  let seconds = Congest.Resource.now () -. t0 in
  let clustering = carving.Cluster.Carving.clustering in
  let strong_diameter =
    diameter_opt (Cluster.Clustering.max_strong_diameter_estimate clustering)
  in
  let weak_diameter = Cluster.Clustering.max_weak_diameter_estimate clustering in
  let valid =
    match c.kind with
    | Algorithms.Weak -> (
        match Cluster.Carving.check_weak ~epsilon carving with
        | Ok () -> weak_diameter >= 0
        | Error _ -> false)
    | Algorithms.Strong -> (
        match Cluster.Carving.check_strong ~epsilon carving with
        | Ok () -> true
        | Error _ -> false)
  in
  ( {
      algorithm = c.name;
      reference = c.reference;
      kind = c.kind;
      family = family.Suite.name;
      n = Graph.n g;
      epsilon;
      strong_diameter;
      weak_diameter;
      dead_fraction = Cluster.Carving.dead_fraction carving;
      rounds = Congest.Cost.rounds cost;
      max_message_bits = Congest.Cost.max_message_bits cost;
      valid;
      seconds;
      trace;
    },
    carving,
    g )

let carving_row ?seed ?trace c family ~n ~epsilon : carve_row =
  let row, _, _ = carving_result ?seed ?trace c family ~n ~epsilon in
  row

let kind_label = function Algorithms.Weak -> "weak" | Algorithms.Strong -> "strong"

let model_label = function
  | Algorithms.Deterministic -> "det"
  | Algorithms.Randomized -> "rand"

(* table cell / CSV cell for an optional diameter *)
let diam_cell = function Some d -> string_of_int d | None -> "-"
let diam_csv = function Some d -> string_of_int d | None -> "NA"

let pp_decomp_table fmt rows =
  Format.fprintf fmt
    "%-10s %-6s %-5s %-9s %6s %7s %7s %6s %6s %10s %8s %6s %8s@."
    "algo" "kind" "model" "family" "n" "m" "colors" "sDiam" "wDiam" "rounds"
    "maxbits" "valid" "secs";
  List.iter
    (fun (r : decomp_row) ->
      Format.fprintf fmt
        "%-10s %-6s %-5s %-9s %6d %7d %7d %6s %6d %10d %8d %6s %8.2f@."
        r.algorithm (kind_label r.kind) (model_label r.model) r.family r.n r.m
        r.colors
        (diam_cell r.strong_diameter)
        r.weak_diameter r.rounds r.max_message_bits
        (if r.valid then "ok" else "FAIL")
        r.seconds)
    rows

let pp_carve_table fmt rows =
  Format.fprintf fmt "%-10s %-6s %-9s %6s %6s %6s %6s %6s %10s %8s %6s %8s@."
    "algo" "kind" "family" "n" "eps" "sDiam" "wDiam" "dead%" "rounds" "maxbits"
    "valid" "secs";
  List.iter
    (fun (r : carve_row) ->
      Format.fprintf fmt
        "%-10s %-6s %-9s %6d %6.3f %6s %6d %6.1f %10d %8d %6s %8.2f@."
        r.algorithm (kind_label r.kind) r.family r.n r.epsilon
        (diam_cell r.strong_diameter)
        r.weak_diameter
        (100.0 *. r.dead_fraction)
        r.rounds r.max_message_bits
        (if r.valid then "ok" else "FAIL")
        r.seconds)
    rows

let decomp_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "algorithm,kind,model,family,n,m,colors,strong_diameter,weak_diameter,rounds,messages,max_message_bits,valid,seconds\n";
  List.iter
    (fun (r : decomp_row) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%s,%d,%d,%d,%s,%d,%d,%d,%d,%b,%.4f\n"
           r.algorithm (kind_label r.kind) (model_label r.model) r.family r.n
           r.m r.colors
           (diam_csv r.strong_diameter)
           r.weak_diameter r.rounds r.messages r.max_message_bits r.valid
           r.seconds))
    rows;
  Buffer.contents buf

let carve_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "algorithm,kind,family,n,epsilon,strong_diameter,weak_diameter,dead_fraction,rounds,max_message_bits,valid,seconds\n";
  List.iter
    (fun (r : carve_row) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%d,%.4f,%s,%d,%.4f,%d,%d,%b,%.4f\n"
           r.algorithm (kind_label r.kind) r.family r.n r.epsilon
           (diam_csv r.strong_diameter)
           r.weak_diameter r.dead_fraction r.rounds r.max_message_bits
           r.valid r.seconds))
    rows;
  Buffer.contents buf
