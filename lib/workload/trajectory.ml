type entry = { name : string; columns : (string * Json.t) list }

let snapshot_json ?fingerprint ~time entries =
  let row e = Json.Obj (("name", Json.Str e.name) :: e.columns) in
  let fingerprint =
    match fingerprint with
    | Some fp -> [ ("fingerprint", Stats.fingerprint_value fp) ]
    | None -> []
  in
  Json.to_string
    (Json.Obj
       ((("time", Json.float "%.0f" time) :: ("schema", Json.int 2)
        :: fingerprint)
       @ [ ("workloads", Json.Arr (List.map row entries)) ]))

(* ------------------------------------------------------------------ *)
(* Rows from an e2e results.json                                        *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let rec all_ok = function
  | [] -> Ok []
  | r :: rest ->
      let* x = r in
      let* xs = all_ok rest in
      Ok (x :: xs)

let seconds s = Json.float "%.6f" s

(* one end_to_end metric's pass values *)
let values ~fail e2e key =
  match Json.to_list (Json.member "values" (Json.member key e2e)) with
  | None -> fail (Printf.sprintf "missing end_to_end.%s.values" key)
  | Some [] -> fail (Printf.sprintf "end_to_end.%s.values is empty" key)
  | Some vs ->
      let floats = List.filter_map Json.to_float vs in
      if List.length floats < List.length vs then
        fail (Printf.sprintf "end_to_end.%s.values holds a non-number" key)
      else Ok floats

(* [seconds] and [seconds_mad] of pass values, scaled to seconds *)
let timing ~scale floats =
  let s = Stats.summarize (List.map (fun v -> v *. scale) floats) in
  [ ("seconds", seconds s.Stats.median); ("seconds_mad", seconds s.Stats.mad) ]

(* Where a step is the whole iteration, the step percentiles in ms are
   the run times, sample for sample: such a row adds nothing, and would
   flag one slowdown three times. *)
let repeats_run ~run_s step_ms =
  List.length step_ms = List.length run_s
  && List.for_all2
       (fun ms s ->
         let scaled = s *. 1e3 in
         Float.abs (ms -. scaled) <= 1e-12 *. Float.abs scaled)
       step_ms run_s

let workload_rows i w =
  let* name =
    Option.to_result (Json.to_str (Json.member "name" w))
      ~none:(Printf.sprintf "workloads[%d] has no string \"name\"" i)
  in
  let fail msg = Error (Printf.sprintf "workload %s: %s" name msg) in
  let e2e = Json.member "end_to_end" w in
  let layers = Json.member "per_layer" w in
  let row suffix columns = { name = "e2e/" ^ name ^ suffix; columns } in
  let* run_s = values ~fail e2e "run_s" in
  let* setup_s = values ~fail e2e "setup_s" in
  let* p50 = values ~fail e2e "step_ms_p50" in
  let* p99 = values ~fail e2e "step_ms_p99" in
  let step suffix step_ms =
    if repeats_run ~run_s step_ms then None
    else Some (row suffix (timing ~scale:1e-3 step_ms))
  in
  let layer_value key v =
    Option.to_result (Json.to_float (Json.member "value" v))
      ~none:
        (Printf.sprintf "workload %s: missing numeric per_layer.%s.value" name
           key)
  in
  let* counts =
    all_ok
      (List.map
         (fun (col, key) ->
           let* v = layer_value key (Json.member key layers) in
           Ok (col, Json.int (int_of_float v)))
         [
           ("rounds", "congest.rounds");
           ("messages", "congest.messages");
           ("max_bits", "congest.max_bits");
         ])
  in
  let* stages =
    match layers with
    | Json.Obj members ->
        all_ok
          (List.filter_map
             (fun (key, v) ->
               Option.map
                 (fun layer ->
                   let* s = layer_value key v in
                   Ok
                     (if s = 0.0 then None
                      else Some (row ("/" ^ layer) [ ("seconds", seconds s) ])))
                 (Filename.chop_suffix_opt ~suffix:".s" key))
             members)
    | _ -> fail "missing \"per_layer\" object"
  in
  Ok
    (row "" (timing ~scale:1.0 run_s @ counts)
     :: row "/setup" (timing ~scale:1.0 setup_s)
     :: List.filter_map Fun.id
          (step "/step_p50" p50 :: step "/step_p99" p99 :: stages))

let of_e2e doc =
  let* fp =
    Option.to_result
      (Stats.fingerprint_of_value (Json.member "fingerprint" doc))
      ~none:"missing or malformed \"fingerprint\""
  in
  let* () =
    match Json.to_float (Json.member "failed" doc) with
    | Some 0.0 -> Ok ()
    | Some f ->
        Error
          (Printf.sprintf
             "\"failed\" is %g: a run with failed operations is not a \
              trajectory point"
             f)
    | None -> Error "missing numeric \"failed\""
  in
  let* ws =
    match Json.to_list (Json.member "workloads" doc) with
    | Some (_ :: _ as ws) -> Ok ws
    | Some [] -> Error "\"workloads\" is empty"
    | None -> Error "missing \"workloads\" array"
  in
  let* rows = all_ok (List.mapi workload_rows ws) in
  Ok (fp, List.concat rows)

(* ------------------------------------------------------------------ *)
(* The file                                                             *)
(* ------------------------------------------------------------------ *)

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
