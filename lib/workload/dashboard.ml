let metric_columns =
  [
    ("seconds", "seconds");
    ("rounds", "rounds");
    ("messages", "messages");
    ("minor_words_per_node", "minor words / node");
    ("peak_heap_mb", "peak heap MB");
  ]

let html_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_compact v =
  let a = Float.abs v in
  if a >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if a >= 1e4 then Printf.sprintf "%.1fk" (v /. 1e3)
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

(* panel geometry: a small sparkline with room for the last-value label *)
let svg_w = 240.0
let svg_h = 56.0
let pad_l = 6.0
let pad_r = 58.0
let pad_v = 8.0

let style =
  {css|
  :root {
    color-scheme: light;
    --page:        #f9f9f7;
    --surface-1:   #fcfcfb;
    --text-primary:   #0b0b0b;
    --text-secondary: #52514e;
    --muted:       #898781;
    --gridline:    #e1e0d9;
    --baseline:    #c3c2b7;
    --series-1:    #2a78d6;
    --critical:    #d03b3b;
    --border:      rgba(11, 11, 11, 0.10);
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --page:        #0d0d0d;
      --surface-1:   #1a1a19;
      --text-primary:   #ffffff;
      --text-secondary: #c3c2b7;
      --muted:       #898781;
      --gridline:    #2c2c2a;
      --baseline:    #383835;
      --series-1:    #3987e5;
      --critical:    #d03b3b;
      --border:      rgba(255, 255, 255, 0.10);
    }
  }
  body {
    background: var(--page);
    color: var(--text-primary);
    font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
    margin: 24px;
  }
  h1 { font-size: 18px; margin: 0 0 4px 0; }
  .meta { color: var(--text-secondary); font-size: 12px; margin-bottom: 18px; }
  .legend { color: var(--muted); font-size: 12px; margin-bottom: 14px; }
  .workload { margin-bottom: 20px; }
  .workload h2 { font-size: 13px; margin: 0 0 6px 0; }
  .panels { display: flex; flex-wrap: wrap; gap: 10px; }
  .panel {
    background: var(--surface-1);
    border: 1px solid var(--border);
    border-radius: 6px;
    padding: 8px 10px 6px 10px;
  }
  .panel .label { color: var(--muted); font-size: 11px; margin-bottom: 2px; }
  .lastval { font-variant-numeric: tabular-nums; fill: var(--text-secondary); font-size: 11px; }
  .spark { stroke: var(--series-1); fill: none; stroke-width: 2; stroke-linejoin: round; }
  .base { stroke: var(--baseline); stroke-width: 1; }
  .fpmark { stroke: var(--muted); stroke-width: 1; stroke-dasharray: 3 3; }
  .dot-last { fill: var(--series-1); }
  .dot-reg { fill: var(--critical); }
  .hit { fill: transparent; }
  details { margin-top: 20px; }
  summary { color: var(--text-secondary); font-size: 13px; cursor: pointer; }
  table { border-collapse: collapse; font-size: 12px; margin-top: 8px; }
  th, td {
    border-bottom: 1px solid var(--gridline);
    padding: 4px 10px;
    text-align: right;
    font-variant-numeric: tabular-nums;
  }
  th:first-child, td:first-child { text-align: left; }
  th { color: var(--muted); font-weight: 500; }
  .regnote { color: var(--critical); font-size: 12px; margin-top: 6px; }
|css}

type point = { idx : int; value : float }

let sparkline buf ~series ~fp_changes ~flagged ~times =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_snaps = Array.length times in
  let xs i =
    if n_snaps <= 1 then pad_l +. ((svg_w -. pad_l -. pad_r) /. 2.0)
    else
      pad_l
      +. float_of_int i *. (svg_w -. pad_l -. pad_r) /. float_of_int (n_snaps - 1)
  in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) p -> (Float.min lo p.value, Float.max hi p.value))
      (infinity, neg_infinity) series
  in
  let ys v =
    if hi <= lo then svg_h /. 2.0
    else svg_h -. pad_v -. ((v -. lo) /. (hi -. lo) *. (svg_h -. (2.0 *. pad_v)))
  in
  add "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\" role=\"img\">"
    svg_w svg_h svg_w svg_h;
  add "<line class=\"base\" x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\"/>"
    pad_l (svg_h -. pad_v +. 2.0)
    (svg_w -. pad_r)
    (svg_h -. pad_v +. 2.0);
  List.iter
    (fun (i, note) ->
      add
        "<line class=\"fpmark\" x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" \
         y2=\"%.1f\"><title>%s</title></line>"
        (xs i) pad_v (xs i)
        (svg_h -. pad_v)
        (html_escape note))
    fp_changes;
  (match series with
  | [] | [ _ ] -> ()
  | _ ->
      add "<polyline class=\"spark\" points=\"";
      List.iter (fun p -> add "%.1f,%.1f " (xs p.idx) (ys p.value)) series;
      add "\"/>");
  (* hover targets bigger than the mark, one per point *)
  List.iter
    (fun p ->
      let t = times.(p.idx) in
      add
        "<circle class=\"hit\" cx=\"%.1f\" cy=\"%.1f\" \
         r=\"7\"><title>snapshot %d (time %.0f): %s</title></circle>"
        (xs p.idx) (ys p.value) (p.idx + 1) t (fmt_compact p.value))
    series;
  List.iter
    (fun (p, note) ->
      add
        "<circle class=\"dot-reg\" cx=\"%.1f\" cy=\"%.1f\" \
         r=\"3.5\"><title>%s</title></circle>"
        (xs p.idx) (ys p.value) (html_escape note))
    flagged;
  (match List.rev series with
  | last :: _ ->
      add "<circle class=\"dot-last\" cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\"/>"
        (xs last.idx) (ys last.value);
      add "<text class=\"lastval\" x=\"%.1f\" y=\"%.1f\">%s</text>"
        (svg_w -. pad_r +. 8.0)
        (ys last.value +. 4.0)
        (html_escape (fmt_compact last.value))
  | [] -> ());
  add "</svg>"

let render ?(title = "Benchmark trajectory") lines =
  let snaps = Array.of_list lines in
  let n_snaps = Array.length snaps in
  let docs =
    Array.map (fun l -> Result.value (Json.parse l) ~default:Json.Null) snaps
  in
  let objs = Array.map Trajectory.workloads docs in
  let fps = Array.map (Json.member "fingerprint") docs in
  let times =
    Array.map
      (fun doc ->
        Option.value (Json.to_float (Json.member "time" doc)) ~default:0.0)
      docs
  in
  (* workload names in order of first appearance *)
  let names =
    Array.fold_left
      (List.fold_left (fun acc (name, _) ->
           if List.mem name acc then acc else acc @ [ name ]))
      [] objs
  in
  let value name metric i =
    Option.bind (List.assoc_opt name objs.(i)) (fun obj ->
        Json.to_float (Json.member metric obj))
  in
  (* regression highlights come from the same comparator the CI gate
     uses, run over each consecutive pair; incomparable pairs (the
     fingerprint changed) contribute markers instead of flags *)
  let flagged = Hashtbl.create 16 in
  for i = 1 to n_snaps - 1 do
    match
      Trajectory.compare_snapshots ~old_line:snaps.(i - 1) ~new_line:snaps.(i)
        ()
    with
    | Trajectory.Regressions rs ->
        List.iter
          (fun (r : Trajectory.regression) ->
            Hashtbl.replace flagged
              (r.Trajectory.r_name, r.Trajectory.r_metric, i)
              (Trajectory.regression_line r))
          rs
    | Trajectory.Incomparable _ -> ()
  done;
  let fp_changes =
    List.filter_map
      (fun i ->
        if i > 0 && fps.(i) <> fps.(i - 1) then
          let sha =
            match Stats.fingerprint_of_value fps.(i) with
            | Some fp -> fp.Stats.git_sha
            | None -> "unknown"
          in
          Some (i, Printf.sprintf "environment changed at snapshot %d (sha %s)" (i + 1) sha)
        else None)
      (List.init n_snaps (fun i -> i))
  in
  let buf = Buffer.create 16384 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n";
  add "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\"/>\n";
  add "<title>%s</title>\n<style>%s</style>\n</head>\n<body>\n"
    (html_escape title) style;
  add "<h1>%s</h1>\n" (html_escape title);
  let latest_fp =
    if n_snaps = 0 then "no snapshots"
    else
      match Stats.fingerprint_of_value fps.(n_snaps - 1) with
      | Some fp -> Format.asprintf "%a" Stats.pp_fingerprint fp
      | None -> "no fingerprint recorded"
  in
  add "<div class=\"meta\">%d snapshots &middot; latest environment: %s</div>\n"
    n_snaps (html_escape latest_fp);
  add
    "<div class=\"legend\">dashed vertical line = environment fingerprint \
     changed; red point = comparator-flagged regression against the previous \
     snapshot (hover any point for its value)</div>\n";
  if n_snaps = 0 then add "<p>The trajectory file has no snapshots yet.</p>\n";
  List.iter
    (fun name ->
      add "<div class=\"workload\">\n<h2>%s</h2>\n<div class=\"panels\">\n"
        (html_escape name);
      let reg_notes = ref [] in
      List.iter
        (fun (metric, label) ->
          let series =
            List.filter_map
              (fun i ->
                Option.map
                  (fun v -> { idx = i; value = v })
                  (value name metric i))
              (List.init n_snaps (fun i -> i))
          in
          let flags =
            List.filter_map
              (fun p ->
                match Hashtbl.find_opt flagged (name, metric, p.idx) with
                | Some note ->
                    reg_notes := note :: !reg_notes;
                    Some (p, note)
                | None -> None)
              series
          in
          add "<div class=\"panel\">\n<div class=\"label\">%s</div>\n"
            (html_escape label);
          sparkline buf ~series ~fp_changes ~flagged:flags ~times;
          add "\n</div>\n")
        metric_columns;
      add "</div>\n";
      List.iter
        (fun note -> add "<div class=\"regnote\">%s</div>\n" (html_escape note))
        (List.rev !reg_notes);
      add "</div>\n")
    names;
  (* the table view: the same data readable without the charts *)
  if n_snaps > 0 then begin
    add "<details>\n<summary>Latest snapshot as a table</summary>\n<table>\n<tr><th>workload</th>";
    List.iter (fun (_, label) -> add "<th>%s</th>" (html_escape label)) metric_columns;
    add "</tr>\n";
    List.iter
      (fun name ->
        add "<tr><td>%s</td>" (html_escape name);
        List.iter
          (fun (metric, _) ->
            match value name metric (n_snaps - 1) with
            | Some v -> add "<td>%s</td>" (html_escape (fmt_compact v))
            | None -> add "<td>-</td>")
          metric_columns;
        add "</tr>\n")
      names;
    add "</table>\n</details>\n"
  end;
  add "</body>\n</html>\n";
  Buffer.contents buf

let write ?title ~path lines =
  let oc = open_out path in
  output_string oc (render ?title lines);
  close_out oc
