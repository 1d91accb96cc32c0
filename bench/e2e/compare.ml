(* The rule that compares a metric's runs on two commits, A (parent)
   and B (change), against the bound BENCHMARK.json fixes for it. *)

type verdict = Better | Worse | Same | Unresolved

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Same -> "same"
  | Unresolved -> "unresolved"

(* How much worse B's median is than A's, as a share of A's median
   (absolute when A's median is 0); negative when B is better. *)
let worse_by ~lower_is_better a b =
  let ma = Stat.median a and mb = Stat.median b in
  let d = if lower_is_better then mb -. ma else ma -. mb in
  if ma = 0.0 then d else d /. Float.abs ma

(* A row is unresolved when either side's quartile spread is wider than
   the bound, unless every B run beats every A run; otherwise the
   medians decide. *)
let classify ~lower_is_better ~bound a b =
  let beats y x = if lower_is_better then y < x else y > x in
  let b_beats_all = List.for_all (fun y -> List.for_all (beats y) a) b in
  let spread = Float.max (Stat.spread a) (Stat.spread b) in
  let w = worse_by ~lower_is_better a b in
  if spread > bound && not b_beats_all then Unresolved
  else if w > bound then Worse
  else if w < -.bound then Better
  else Same

(* Per-layer counts that repeat exactly for a seed: output quality and
   CONGEST cost. They are compared with bound 0, lower being better.
   BENCHMARK.json cannot bound them, since they differ between seeds
   and some workloads do not produce them. *)
let exact =
  [
    "quality.colors";
    "quality.diam_ub";
    "congest.rounds";
    "congest.max_bits";
    "weakdiam.dead_frac";
    "cluster.repair.touched_frac";
  ]

type row = {
  workload : string;
  metric : string;
  verdict : verdict;
  a : float list;
  b : float list;  (** [] when B lacks the row: it is then worse *)
  bound : float;
}

(* (workload, metric) -> samples in one section of a results.json: the
   "values" of each end_to_end metric, the one "value" of each
   per_layer metric. *)
let samples section j =
  List.concat_map
    (fun w ->
      let name = Option.value (Option.bind (Json.member "name" w) Json.to_str) ~default:"" in
      match Json.member section w with
      | Some (Json.Obj kvs) ->
          List.map
            (fun (k, m) ->
              ( (name, k),
                match Json.member "values" m with
                | Some vs -> List.filter_map Json.to_float (Json.to_list vs)
                | None -> Option.to_list (Option.bind (Json.member "value" m) Json.to_float) ))
            kvs
      | _ -> [])
    (Json.to_list (Option.value (Json.member "workloads" j) ~default:Json.Null))

(* A file that does not say how many operations failed failed them all. *)
let fail_rate j = Option.value (Option.bind (Json.member "fail_rate" j) Json.to_float) ~default:1.0

(* One row per (workload, metric) that A measured: the end-to-end
   metrics of [bounds] (name, lower_is_better, bound), the [exact]
   counts where either side is not 0, and the overall fail rate, which
   may not rise. *)
let rows ~bounds a b =
  let row (workload, metric) ~lower_is_better ~bound va vb =
    let verdict = if vb = [] then Worse else classify ~lower_is_better ~bound va vb in
    { workload; metric; verdict; a = va; b = vb; bound }
  in
  let lookup section =
    let sb = samples section b in
    fun key -> Option.value (List.assoc_opt key sb) ~default:[]
  in
  let end_to_end =
    let vb = lookup "end_to_end" in
    List.filter_map
      (fun (((_, k) as key), va) ->
        match List.find_opt (fun (n, _, _) -> n = k) bounds with
        | Some (_, lower_is_better, bound) when va <> [] ->
            Some (row key ~lower_is_better ~bound va (vb key))
        | _ -> None)
      (samples "end_to_end" a)
  in
  let counts =
    let vb = lookup "per_layer" in
    List.filter_map
      (fun (((_, k) as key), va) ->
        let vb = vb key in
        if List.mem k exact && va <> [] && List.exists (fun x -> x <> 0.0) (va @ vb) then
          Some (row key ~lower_is_better:true ~bound:0.0 va vb)
        else None)
      (samples "per_layer" a)
  in
  end_to_end @ counts
  @ [ row ("all", "fail_rate") ~lower_is_better:true ~bound:0.0 [ fail_rate a ] [ fail_rate b ] ]
