open Dsgraph

type t = { clustering : Clustering.t; domain : Mask.t }

let make clustering ~domain =
  let g = Clustering.graph clustering in
  for v = 0 to Graph.n g - 1 do
    if Clustering.cluster_of clustering v >= 0 && not (Mask.mem domain v) then
      invalid_arg "Carving.make: clustered node outside domain"
  done;
  { clustering; domain }

let of_clusters g ~domain clusters =
  let cluster_of = Array.make (Graph.n g) (-1) in
  Array.iteri (fun id -> Array.iter (fun v -> cluster_of.(v) <- id)) clusters;
  make (Clustering.make g ~cluster_of) ~domain

type carver =
  ?cost:Congest.Cost.t ->
  Graph.t ->
  domain:int array ->
  epsilon:float ->
  int array array

let check_domain name g domain =
  let n = Graph.n g in
  for k = 0 to Array.length domain - 1 do
    let v = domain.(k) in
    if v < 0 || v >= n || (k > 0 && v <= domain.(k - 1)) then
      invalid_arg
        (name ^ ": domain must be strictly ascending node ids of the graph")
  done

let of_carver ?cost (carver : carver) g ~epsilon =
  let n = Graph.n g in
  of_clusters g ~domain:(Mask.full n)
    (carver ?cost g ~domain:(Array.init n Fun.id) ~epsilon)

let dead t =
  List.filter
    (fun v -> Clustering.cluster_of t.clustering v < 0)
    (Mask.to_list t.domain)

let dead_fraction t =
  let total = Mask.count t.domain in
  if total = 0 then 0.0
  else float_of_int (List.length (dead t)) /. float_of_int total

let ( let* ) r f = Result.bind r f

let check_common ?epsilon t =
  let* () =
    if Clustering.non_adjacent t.clustering then Ok ()
    else
      Error
        (Printf.sprintf "carving: adjacent clusters %s"
           (String.concat ","
              (List.map
                 (fun (a, b) -> Printf.sprintf "(%d,%d)" a b)
                 (Clustering.adjacent_cluster_pairs t.clustering))))
  in
  match epsilon with
  | None -> Ok ()
  | Some eps ->
      let f = dead_fraction t in
      if f <= eps +. 1e-9 then Ok ()
      else Error (Printf.sprintf "carving: dead fraction %.4f > epsilon %.4f" f eps)

let check_weak ?epsilon ?steiner ?depth_bound ?congestion_bound t =
  let* () = check_common ?epsilon t in
  match steiner with
  | None -> Ok ()
  | Some forest ->
      let depth_bound = Option.value depth_bound ~default:max_int in
      let congestion_bound = Option.value congestion_bound ~default:max_int in
      Steiner.check_forest
        (Clustering.graph t.clustering)
        forest ~clustering:t.clustering ~depth_bound ~congestion_bound

let check_strong ?epsilon ?diameter_bound t =
  let* () = check_common ?epsilon t in
  let bound = Option.value diameter_bound ~default:max_int in
  let k = Clustering.num_clusters t.clustering in
  let rec go c =
    if c >= k then Ok ()
    else
      match Clustering.strong_diameter t.clustering c with
      | -1 -> Error (Printf.sprintf "carving: cluster %d internally disconnected" c)
      | d when d > bound ->
          Error
            (Printf.sprintf "carving: cluster %d strong diameter %d > bound %d"
               c d bound)
      | _ -> go (c + 1)
  in
  go 0
