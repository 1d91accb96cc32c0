(* End-to-end benchmark of certified strong-diameter decompositions.

     e2e.exe run --workload W --seed N --seconds S --trace 0|1
       one run of one workload; prints every metric as "name value unit",
       then one JSON result line
     e2e.exe run [--seed N] [--seconds S]
       every workload as a child process, in 4 interleaved passes plus
       one traced pass; writes bench_results/e2e/results.json
     e2e.exe compare A.json B.json
       two results files of one seed: one verdict per (metric,
       workload), with the bounds of BENCHMARK.json; exit 1 if any is
       "worse"

   Exit codes: 0 ok, 1 a failed operation (or a "worse" row), 2 bad
   usage. *)

open E2e_core

let usage () =
  prerr_string
    "usage: e2e.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
    \       e2e.exe compare A.json B.json\n";
  exit 2

let results_dir = "bench_results/e2e"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* "--key value" pairs, each key at most once *)
let parse_opts allowed args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when List.mem k allowed && not (List.mem_assoc k acc) ->
        go ((k, v) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let int_opt opts k default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
       metrics)

let result_line ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", metrics_json metrics);
       ])

let run_single (w : Workloads.t) ~seed ~seconds ~trace =
  mkdir_p results_dir;
  match
    Measure.run ~size:Workloads.full ~seed ~seconds:(float_of_int seconds) ~trace
      ~dir:results_dir w
  with
  | r ->
      List.iter (fun m -> prerr_endline ("FAILED: " ^ m)) r.Measure.failures;
      if trace then begin
        let path = Filename.concat results_dir ("trace-" ^ w.Workloads.name ^ ".json") in
        Option.iter (fun j -> write_file path (Json.to_string j)) r.Measure.chrome;
        let total = List.fold_left (fun s (_, x) -> s +. x) 0.0 r.Measure.layers in
        Printf.printf "self time per traced iteration of %s (trace: %s)\n"
          w.Workloads.name path;
        List.iter
          (fun (l, s) ->
            Printf.printf "  %-14s %10.4f s %6.1f%%\n" l s
              (if total > 0.0 then 100.0 *. s /. total else 0.0))
          r.Measure.layers
      end;
      List.iter
        (fun (k, v, u) -> Printf.printf "%s %s %s\n" k (Json.number v) u)
        r.Measure.metrics;
      print_endline
        (result_line ~attempted:r.Measure.attempted ~failed:r.Measure.failed
           r.Measure.metrics);
      exit (if r.Measure.failed = 0 then 0 else 1)
  | exception e ->
      prerr_endline ("FAILED: " ^ Printexc.to_string e);
      print_endline (result_line ~attempted:1 ~failed:1 []);
      exit 1

(* One child run; its last stdout line is the JSON result. A child that
   dies or prints no result counts as one failed operation. *)
let child ~workload ~seed ~seconds ~trace =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "run"; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    List.fold_left (fun acc l -> if l = "" then acc else Some l) None
      (String.split_on_char '\n' out)
  in
  let parsed = Option.map Json.parse last in
  match (status, parsed) with
  | Unix.WEXITED (0 | 1), Some (Ok j) ->
      let num k = Option.bind (Json.member k j) Json.to_float in
      let metrics =
        match Json.member "metrics" j with
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, m) ->
                match
                  ( Option.bind (Json.member "value" m) Json.to_float,
                    Option.bind (Json.member "unit" m) Json.to_str )
                with
                | Some v, Some u -> Some (k, v, u)
                | _ -> None)
              kvs
        | _ -> []
      in
      ( int_of_float (Option.value (num "attempted") ~default:1.0),
        int_of_float (Option.value (num "failed") ~default:1.0),
        metrics )
  | _ ->
      Printf.eprintf "FAILED: child run of %s did not finish\n%!" workload;
      (1, 1, [])

let fingerprint () =
  Workload.Stats.(fingerprint_json (current_fingerprint ()))
  |> Json.parse |> Result.value ~default:Json.Null

(* Interleaved passes (W1 W2 W3 W4, W1 W2 ...), so a slow period of the
   machine spreads over all workloads instead of landing on one. *)
let passes = 4

let run_all ~seed ~seconds =
  mkdir_p results_dir;
  let attempted = ref 0 and failed = ref 0 in
  let samples = Hashtbl.create 64 and layers = Hashtbl.create 8 in
  let record (a, f, metrics) =
    attempted := !attempted + a;
    failed := !failed + f;
    metrics
  in
  for pass = 1 to passes do
    List.iter
      (fun (w : Workloads.t) ->
        Printf.printf "pass %d/%d %s\n%!" pass passes w.name;
        List.iter
          (fun (k, v, u) ->
            let prev = Option.value (Hashtbl.find_opt samples (w.name, k)) ~default:(u, []) in
            Hashtbl.replace samples (w.name, k) (u, v :: snd prev))
          (record (child ~workload:w.name ~seed ~seconds ~trace:false)))
      Workloads.all
  done;
  List.iter
    (fun (w : Workloads.t) ->
      Printf.printf "traced pass %s\n%!" w.name;
      Hashtbl.replace layers w.name
        (record (child ~workload:w.name ~seed ~seconds ~trace:true)))
    Workloads.all;
  let summary w =
    List.filter_map
      (fun (k, _) ->
        Option.map
          (fun (u, vs) ->
            Printf.printf "%-12s %-12s %12.6g %s  (n=%d, q1 %.6g, q3 %.6g)\n" w k
              (Stat.median vs) u (List.length vs) (Stat.q1 vs) (Stat.q3 vs);
            ( k,
              Json.Obj
                [
                  ("unit", Json.Str u);
                  ("median", Json.Num (Stat.median vs));
                  ("q1", Json.Num (Stat.q1 vs));
                  ("q3", Json.Num (Stat.q3 vs));
                  ("values", Json.Arr (List.rev_map (fun v -> Json.Num v) vs));
                ] ))
          (Hashtbl.find_opt samples (w, k)))
      Measure.end_to_end
  in
  let workloads =
    List.map
      (fun (w : Workloads.t) ->
        let e2e = summary w.name in
        let traced = Option.value (Hashtbl.find_opt layers w.name) ~default:[] in
        List.iter
          (fun (k, v, u) ->
            if v <> 0.0 then Printf.printf "%-12s %s %s %s\n" w.name k (Json.number v) u)
          traced;
        Json.Obj
          [
            ("name", Json.Str w.name);
            ("end_to_end", Json.Obj e2e);
            ("per_layer", metrics_json traced);
          ])
      Workloads.all
  in
  let fail_rate = float_of_int !failed /. float_of_int (max 1 !attempted) in
  Printf.printf "fail_rate %s ratio  (%d of %d operations)\n" (Json.number fail_rate) !failed
    !attempted;
  let path = Filename.concat results_dir "results.json" in
  write_file path
    (Json.to_string
       (Json.Obj
          [
            ("fingerprint", fingerprint ());
            ("seed", Json.Num (float_of_int seed));
            ("seconds", Json.Num (float_of_int seconds));
            ("passes", Json.Num (float_of_int passes));
            ("attempted", Json.Num (float_of_int !attempted));
            ("failed", Json.Num (float_of_int !failed));
            ("fail_rate", Json.Num fail_rate);
            ("workloads", Json.Arr workloads);
          ])
    ^ "\n");
  Printf.printf "wrote %s\n" path;
  exit (if !failed = 0 then 0 else 1)

let run_cmd args =
  let opts = parse_opts [ "--workload"; "--seed"; "--seconds"; "--trace" ] args in
  let seed = int_opt opts "--seed" 42 and seconds = int_opt opts "--seconds" 5 in
  let trace =
    match int_opt opts "--trace" 0 with 0 -> false | 1 -> true | _ -> usage ()
  in
  if seconds < 0 then usage ();
  match List.assoc_opt "--workload" opts with
  | Some name -> (
      match Workloads.find name with
      | Some w -> run_single w ~seed ~seconds ~trace
      | None ->
          Printf.eprintf "unknown workload %s\n" name;
          exit 2)
  | None -> run_all ~seed ~seconds

let load path =
  match Json.read_file path with
  | Ok j -> j
  | Error e ->
      prerr_endline e;
      exit 2

let compare_cmd = function
  | [ a; b ] ->
      let bounds =
        List.filter_map
          (fun m ->
            match
              ( Option.bind (Json.member "name" m) Json.to_str,
                Option.bind (Json.member "better" m) Json.to_str,
                Option.bind (Json.member "bound" m) Json.to_float )
            with
            | Some n, Some better, Some bound -> Some (n, better = "lower", bound)
            | _ -> None)
          (Json.to_list
             (Option.value (Json.member "end_to_end" (load "BENCHMARK.json"))
                ~default:Json.Null))
      in
      let a = load a and b = load b in
      (* the counts of two seeds differ by design *)
      if Json.member "seed" a <> Json.member "seed" b then begin
        prerr_endline "compare: A and B were run with different seeds";
        exit 2
      end;
      let rows = Compare.rows ~bounds a b in
      let median = function [] -> "-" | vs -> Printf.sprintf "%.6g" (Stat.median vs) in
      Printf.printf "%-12s %-28s %-10s %12s %12s %8s\n" "workload" "metric" "verdict"
        "median A" "median B" "bound";
      List.iter
        (fun (r : Compare.row) ->
          Printf.printf "%-12s %-28s %-10s %12s %12s %7.1f%%\n" r.workload r.metric
            (Compare.to_string r.verdict) (median r.a) (median r.b) (100.0 *. r.bound))
        rows;
      exit (if List.exists (fun (r : Compare.row) -> r.verdict = Compare.Worse) rows then 1 else 0)
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run_cmd args
  | _ :: "compare" :: args -> compare_cmd args
  | _ -> usage ()
