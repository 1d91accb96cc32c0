open Dsgraph

type result = {
  clustering : Cluster.Clustering.t;
  sim_stats : Congest.Sim.stats;
  shift_cap : int;
}

let cap ~n ~beta =
  max 2 (int_of_float (Float.ceil (4.0 *. log (float_of_int (max n 2)) /. beta)))

let shifts ?(seed = 1) g ~beta =
  let n = Graph.n g in
  let cap = cap ~n ~beta in
  let p = 1.0 -. exp (-.beta) in
  let rng = Rng.create (seed + 17) in
  (Array.init n (fun _ -> min cap (Rng.geometric rng p)), cap)

(* Centralized oracle: synchronous wavefront with start times cap - δ_u,
   ties to the smallest center id among same-round arrivals. *)
let reference_of_shifts g (delta, cap) =
  let n = Graph.n g in
  let center = Array.make n (-1) in
  let frontier = ref [] in
  for r = 0 to cap + n do
    (* wave arrivals from the previous round *)
    let arrivals = Hashtbl.create 16 in
    List.iter
      (fun v ->
        Graph.iter_neighbors g v (fun w ->
            if center.(w) = -1 then
              let c = center.(v) in
              match Hashtbl.find_opt arrivals w with
              | Some c' when c' <= c -> ()
              | _ -> Hashtbl.replace arrivals w c))
      !frontier;
    (* own starts compete with arrivals this round *)
    for v = 0 to n - 1 do
      if center.(v) = -1 && cap - delta.(v) = r then begin
        match Hashtbl.find_opt arrivals v with
        | Some c when c <= v -> ()
        | _ -> Hashtbl.replace arrivals v v
      end
    done;
    let next = ref [] in
    Hashtbl.iter
      (fun v c ->
        if center.(v) = -1 then begin
          center.(v) <- c;
          next := v :: !next
        end)
      arrivals;
    frontier := !next
  done;
  center

let reference ?seed g ~beta = reference_of_shifts g (shifts ?seed g ~beta)

type nstate = {
  mutable center : int;
  mutable announced : bool;
  start_round : int;
  mutable round : int;
}

let partition ?(seed = 1) ?adversary ?conformance ?trace g ~beta =
  if beta <= 0.0 then invalid_arg "Mpx_distributed.partition: beta must be positive";
  let n = Graph.n g in
  let delta, shift_cap = shifts ~seed g ~beta in
  let id_bits = Congest.Bits.id_bits ~n in
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors:_ ->
          {
            center = -1;
            announced = false;
            start_round = shift_cap - delta.(node) + 1;
            round = 0;
          });
      round =
        (fun ~node ~state:st ~inbox ~out ->
          st.round <- st.round + 1;
          (* adopt the best wave among this round's arrivals and our own
             start, if still unclaimed *)
          if st.center = -1 then begin
            let best = Congest.Sim.Inbox.fold (fun b _ c -> min b c) max_int inbox in
            let best =
              if st.round = st.start_round && node < best then node else best
            in
            if best < max_int then st.center <- best
          end;
          if st.center >= 0 && not st.announced then begin
            st.announced <- true;
            Graph.iter_neighbors g node (fun nb ->
                Congest.Sim.send out nb st.center)
          end
          else if st.center >= 0 then Congest.Sim.halt out;
          st);
    }
  in
  let config =
    {
      Congest.Sim.Config.default with
      max_rounds = Some (shift_cap + (4 * n) + 16);
      adversary;
      trace;
    }
  in
  let program =
    match conformance with
    | None -> program
    | Some c -> c.Congest.Conformance.instrument program
  in
  let states, sim_stats =
    Congest.Span.with_span trace "mpx_partition" (fun () ->
        Congest.Sim.simulate ~config ~bits:(fun _ -> id_bits) g program)
  in
  let cluster_of = Array.map (fun st -> st.center) states in
  {
    clustering = Cluster.Clustering.make g ~cluster_of;
    sim_stats;
    shift_cap;
  }

let matches_reference ?(seed = 1) g ~beta =
  let r = partition ~seed g ~beta in
  let oracle = reference ~seed g ~beta in
  let n = Graph.n g in
  (* Clustering normalizes ids, so compare partitions up to a bijective
     relabeling *)
  let ok = ref true in
  let map = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let a = Cluster.Clustering.cluster_of r.clustering v and b = oracle.(v) in
    (match Hashtbl.find_opt map a with
    | None -> Hashtbl.replace map a b
    | Some b' -> if b' <> b then ok := false);
    if a = -1 || b = -1 then ok := false
  done;
  (* injectivity of the relabeling *)
  let seen = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ b ->
      if Hashtbl.mem seen b then ok := false else Hashtbl.replace seen b ())
    map;
  !ok
