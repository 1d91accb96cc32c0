type entry = {
  name : string;
  rounds : int;
  messages : int;
  max_bits : int;
  phases : int;
  seconds : float;
  seconds_mad : float;
  minor_words_per_node : float;
  peak_heap_mb : float;
}

let snapshot_json ?fingerprint ~time entries =
  let row e =
    Json.Obj
      [
        ("name", Json.Str e.name);
        ("rounds", Json.int e.rounds);
        ("messages", Json.int e.messages);
        ("max_bits", Json.int e.max_bits);
        ("phases", Json.int e.phases);
        ("seconds", Json.float "%.4f" e.seconds);
        ("seconds_median", Json.float "%.4f" e.seconds);
        ("seconds_mad", Json.float "%.6f" e.seconds_mad);
        ("minor_words_per_node", Json.float "%.1f" e.minor_words_per_node);
        ("peak_heap_mb", Json.float "%.1f" e.peak_heap_mb);
      ]
  in
  let fingerprint =
    match fingerprint with
    | Some fp -> [ ("fingerprint", Stats.fingerprint_value fp) ]
    | None -> []
  in
  Json.to_string
    (Json.Obj
       ((("time", Json.float "%.0f" time) :: fingerprint)
       @ [ ("workloads", Json.Arr (List.map row entries)) ]))

(* the trajectory file is a JSON array with exactly one snapshot object
   per line, so appending = collect the snapshot lines and rewrite; the
   array delimiter lines '[' / ']' are structure, and any other line
   that is not one JSON object is malformed *)
let read_snapshot_lines ?(warn = fun ~line_number:_ _ -> ()) path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter_map (fun (line_number, line) ->
           let line =
             if String.ends_with ~suffix:"," line then
               String.sub line 0 (String.length line - 1)
             else line
           in
           match Json.parse line with
           | Ok (Json.Obj _) -> Some line
           | _ ->
               if not (List.mem line [ ""; "["; "]" ]) then
                 warn ~line_number line;
               None)

let write path lines =
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" lines);
  output_string oc "\n]\n";
  close_out oc

let workloads doc =
  List.filter_map
    (fun w ->
      Option.map (fun name -> (name, w)) (Json.to_str (Json.member "name" w)))
    (Option.value (Json.to_list (Json.member "workloads" doc)) ~default:[])

let parse_line line = Result.value (Json.parse line) ~default:Json.Null

type regression = {
  r_name : string;
  r_metric : string;
  r_old : float;
  r_new : float;
  r_pct : float;
}

let default_metrics =
  [
    "rounds";
    "messages";
    "max_bits";
    "seconds";
    "minor_words_per_node";
    "peak_heap_mb";
  ]

let compare_docs ~metrics ~k old_doc new_doc =
  let olds = workloads old_doc in
  let metric name w = Json.to_float (Json.member name w) in
  List.concat_map
    (fun (name, nobj) ->
      match List.assoc_opt name olds with
      | None -> []  (* newly-added row: nothing to diff against *)
      | Some oobj ->
          List.filter_map
            (fun m ->
              match (metric m oobj, metric m nobj) with
              | Some ov, Some nv when ov > 0.0 ->
                  (* noisy metrics carry a recorded "<metric>_mad"
                     column; the gate widens to max(10%, k*MAD), and
                     metrics without one keep the pure 10% gate *)
                  let mad_of w =
                    Option.value (metric (m ^ "_mad") w) ~default:0.0
                  in
                  let mad = Float.max (mad_of oobj) (mad_of nobj) in
                  (* seconds additionally needs to clear an absolute
                     floor (as in {!Diff}): sub-millisecond headline
                     jitter on the fast workloads never flags *)
                  let floor = if m = "seconds" then 0.005 else 0.0 in
                  if Stats.exceeds ~k ~mad ~baseline:ov nv && nv -. ov > floor
                  then
                    Some
                      {
                        r_name = name;
                        r_metric = m;
                        r_old = ov;
                        r_new = nv;
                        r_pct = 100.0 *. (nv -. ov) /. ov;
                      }
                  else None
              | _ -> None)
            metrics)
    (workloads new_doc)

let compare_lines ?(metrics = default_metrics) ?(k = 3.0) ~old_line ~new_line
    () =
  compare_docs ~metrics ~k (parse_line old_line) (parse_line new_line)

type verdict =
  | Regressions of regression list
  | Incomparable of { old_fp : string; new_fp : string }

let compare_snapshots ?(metrics = default_metrics) ?(k = 3.0) ~old_line
    ~new_line () =
  let old_doc = parse_line old_line and new_doc = parse_line new_line in
  let fp = Json.member "fingerprint" in
  match (fp old_doc, fp new_doc) with
  | (Json.Obj _ as o), (Json.Obj _ as n) when o <> n ->
      Incomparable { old_fp = Json.to_string o; new_fp = Json.to_string n }
  | _ -> Regressions (compare_docs ~metrics ~k old_doc new_doc)

let regression_line r =
  Printf.sprintf "regression: %s %s: %g -> %g (+%.1f%%)" r.r_name r.r_metric
    r.r_old r.r_new r.r_pct
