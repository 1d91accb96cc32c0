type phase = {
  path : string;
  depth : int;
  columns : (string * float) list;
  seconds_mad : float;
}

type side = {
  label : string;
  fingerprint : Stats.fingerprint option;
  phases : phase list;
}

(* ------------------------------------------------------------------ *)
(* Loading sides                                                        *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let rec all_ok = function
  | [] -> Ok []
  | r :: rest ->
      let* x = r in
      let* xs = all_ok rest in
      Ok (x :: xs)

let num k j = Option.value (Json.to_float (Json.member k j)) ~default:0.0
let str k j = Json.to_str (Json.member k j)

(* A report side is read strictly: the schema, the spans array and
   every column compared must be present, so an older or misspelled
   artifact is refused instead of diffing as a side of zeros. *)
let side_of_report ~label doc =
  let fail fmt = Printf.ksprintf (fun m -> Error (label ^ ": " ^ m)) fmt in
  let report = Json.member "report" doc in
  let* () =
    match Json.to_int (Json.member "schema" report) with
    | Some v when v = Report.schema -> Ok ()
    | Some v -> fail "report.schema is %d, expected %d" v Report.schema
    | None -> fail "report.schema missing (expected %d)" Report.schema
  in
  let* spans =
    match Json.to_list (Json.member "spans" doc) with
    | Some spans -> Ok spans
    | None -> fail "missing \"spans\" array"
  in
  let seconds_mad = num "seconds_mad" report in
  let phase k r =
    let need c =
      match Json.to_float (Json.member c r) with
      | Some v -> Ok (c, v)
      | None -> fail "spans[%d] has no numeric %S" k c
    in
    let* path =
      match str "path" r with
      | Some p -> Ok p
      | None -> fail "spans[%d] has no string \"path\"" k
    in
    let* _, depth = need "depth" in
    let* columns =
      all_ok
        (List.map need
           [ "rounds"; "messages"; "bits"; "seconds"; "minor_words" ])
    in
    Ok { path; depth = int_of_float depth; columns; seconds_mad }
  in
  let* phases = all_ok (List.mapi phase spans) in
  Ok
    {
      label;
      fingerprint = Stats.fingerprint_of_value (Json.member "fingerprint" doc);
      phases;
    }

let is_report doc = Json.member "report" doc <> Json.Null

let side_of_report_json ~label text =
  match Json.parse text with
  | Error e -> Error (Printf.sprintf "%s: JSON parse failed: %s" label e)
  | Ok doc when is_report doc -> side_of_report ~label doc
  | Ok _ ->
      Error (Printf.sprintf "%s: not a run report (no \"report\" object)" label)

(* every numeric column of a row is compared, except the MADs that
   widen the seconds gate and schema 1's [seconds_median] alias *)
let row_columns = function
  | Json.Obj members ->
      List.filter_map
        (fun (k, v) ->
          if k = "seconds_median" || String.ends_with ~suffix:"_mad" k then None
          else Option.map (fun x -> (k, x)) (Json.to_float v))
        members
  | _ -> []

let side_of_trajectory_line ~label line =
  let doc = Result.value (Json.parse line) ~default:Json.Null in
  {
    label;
    fingerprint = Stats.fingerprint_of_value (Json.member "fingerprint" doc);
    phases =
      List.map
        (fun (name, w) ->
          {
            path = name;
            depth = 0;
            columns = row_columns w;
            seconds_mad = num "seconds_mad" w;
          })
        (Trajectory.workloads doc);
  }

let load spec =
  let file, idx =
    match String.rindex_opt spec '#' with
    | Some i when i < String.length spec - 1 -> (
        match
          int_of_string_opt
            (String.sub spec (i + 1) (String.length spec - i - 1))
        with
        | Some k -> (String.sub spec 0 i, Some k)
        | None -> (spec, None))
    | _ -> (spec, None)
  in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "%s: no such file" file)
  else
    let text = In_channel.with_open_bin file In_channel.input_all in
    match Json.parse text with
    | Ok doc when is_report doc ->
        if idx <> None then
          Error
            (Printf.sprintf "%s: '#<index>' only applies to trajectory files"
               spec)
        else side_of_report ~label:(Filename.basename file) doc
    | _ -> (
        let lines = Trajectory.read_snapshot_lines file in
        let count = List.length lines in
        if count = 0 then Error (Printf.sprintf "%s: no snapshot lines" file)
        else
          let k = Option.value idx ~default:(-1) in
          let pos = if k < 0 then count + k else k - 1 in
          if pos < 0 || pos >= count then
            Error
              (Printf.sprintf "%s: snapshot index %d out of range (1..%d)" spec
                 k count)
          else
            Ok
              (side_of_trajectory_line
                 ~label:
                   (Printf.sprintf "%s#%d" (Filename.basename file) (pos + 1))
                 (List.nth lines pos)))

(* ------------------------------------------------------------------ *)
(* Alignment and significance                                           *)
(* ------------------------------------------------------------------ *)

type status = Matched | Added | Removed | Renamed of string

type mdelta = { m_name : string; m_old : float; m_new : float; m_sig : bool }

type row = {
  r_path : string;
  r_depth : int;
  r_status : status;
  r_metrics : mdelta list;
  r_score : float;
}

type t = {
  a_label : string;
  b_label : string;
  forced : bool;
  rows : row list;
  significant : int;
}

type options = { rel : float; k : float; min_seconds : float; force : bool }

let default_options = { rel = 0.10; k = 3.0; min_seconds = 0.005; force = false }

let column name p = Option.value (List.assoc_opt name p.columns) ~default:0.0

(* seconds is the only noisy column: it must clear both the MAD-widened
   relative gate and an absolute floor; the logical metrics are
   deterministic for seeded runs, so the pure relative gate suffices *)
let significant_delta ~opts ~mad name ov nv =
  let gate =
    if name = "seconds" then
      Float.max (Stats.threshold ~rel:opts.rel ~k:opts.k ~mad ov) opts.min_seconds
    else Stats.threshold ~rel:opts.rel ~k:0.0 ~mad:0.0 ov
  in
  Float.abs (nv -. ov) > gate

(* the missing side of an added or removed phase: no columns, and the
   noise of the side it is missing from *)
let zero_phase ~(noise : side) p =
  {
    p with
    columns = [];
    seconds_mad =
      List.fold_left
        (fun acc q -> Float.max acc q.seconds_mad)
        0.0 noise.phases;
  }

let parent_of path =
  match String.rindex_opt path '/' with
  | None -> ""
  | Some i -> String.sub path 0 i

(* compared columns: the new phase's, then any only the old one has *)
let row_of ~opts status (old_p : phase) (new_p : phase) =
  let mad = Float.max old_p.seconds_mad new_p.seconds_mad in
  let names =
    List.map fst new_p.columns
    @ List.filter_map
        (fun (c, _) -> if List.mem_assoc c new_p.columns then None else Some c)
        old_p.columns
  in
  let metrics =
    List.map
      (fun name ->
        let ov = column name old_p and nv = column name new_p in
        {
          m_name = name;
          m_old = ov;
          m_new = nv;
          m_sig = significant_delta ~opts ~mad name ov nv;
        })
      names
  in
  let score =
    List.fold_left
      (fun acc m ->
        if m.m_sig then
          Float.max acc
            (Float.abs (m.m_new -. m.m_old) /. Float.max (Float.abs m.m_old) 1e-9)
        else acc)
      0.0 metrics
  in
  let keep = match status with Removed -> old_p | _ -> new_p in
  {
    r_path = keep.path;
    r_depth = keep.depth;
    r_status = status;
    r_metrics = metrics;
    r_score = score;
  }

let comparable (a : side) (b : side) =
  match (a.fingerprint, b.fingerprint) with
  | Some fa, Some fb -> Stats.same_environment fa fb
  | _ -> true

(* the alignment itself, fingerprints already judged *)
let align ~opts (a : side) (b : side) =
  let forced = not (comparable a b) in
  let find side path = List.find_opt (fun p -> p.path = path) side.phases in
  let matched =
    List.filter_map
      (fun bp ->
        Option.map (fun ap -> row_of ~opts Matched ap bp) (find a bp.path))
      b.phases
  in
  let added = List.filter (fun bp -> find a bp.path = None) b.phases in
  let removed = List.filter (fun ap -> find b ap.path = None) a.phases in
  (* renamed-phase pairing: a removed and an added phase sharing
     parent and depth, taken in order, count as a rename when their
     round totals are within 2x (or both zero) *)
  let renamed = ref [] in
  let still_added = ref [] in
  let remaining_removed = ref removed in
  List.iter
    (fun bp ->
      let candidate =
        List.find_opt
          (fun ap ->
            ap.depth = bp.depth
            && parent_of ap.path = parent_of bp.path
            &&
            let r_old = column "rounds" ap and r_new = column "rounds" bp in
            if r_old = 0.0 && r_new = 0.0 then true
            else
              r_old > 0.0 && r_new > 0.0
              && r_new /. r_old >= 0.5
              && r_new /. r_old <= 2.0)
          !remaining_removed
      in
      match candidate with
      | Some ap ->
          remaining_removed :=
            List.filter (fun p -> p.path <> ap.path) !remaining_removed;
          renamed := row_of ~opts (Renamed ap.path) ap bp :: !renamed
      | None -> still_added := bp :: !still_added)
    added;
  let added_rows =
    List.map
      (fun bp -> row_of ~opts Added (zero_phase ~noise:a bp) bp)
      (List.rev !still_added)
  in
  let removed_rows =
    List.map
      (fun ap -> row_of ~opts Removed ap (zero_phase ~noise:b ap))
      !remaining_removed
  in
  let rows = matched @ List.rev !renamed @ added_rows @ removed_rows in
  let rows =
    List.stable_sort
      (fun r1 r2 ->
        match Float.compare r2.r_score r1.r_score with
        | 0 -> String.compare r1.r_path r2.r_path
        | c -> c)
      rows
  in
  let significant =
    List.length
      (List.filter (fun r -> List.exists (fun m -> m.m_sig) r.r_metrics) rows)
  in
  { a_label = a.label; b_label = b.label; forced; rows; significant }

let compare ?(options = default_options) (a : side) (b : side) =
  match (a.fingerprint, b.fingerprint) with
  | Some fa, Some fb when not (Stats.same_environment fa fb || options.force)
    ->
      Error
        (Format.asprintf
           "refusing to compare across environments (use --force):@ %s: %a@ \
            %s: %a"
           a.label Stats.pp_fingerprint fa b.label Stats.pp_fingerprint fb)
  | _ -> Ok (align ~opts:options a b)

let significant_rows t =
  List.filter (fun r -> List.exists (fun m -> m.m_sig) r.r_metrics) t.rows

(* each row of the new snapshot against the newest earlier snapshot
   that has a row of that name under the same environment; the rows
   are picked comparable, so the baseline side carries no fingerprint *)
let against_history history line =
  let b = side_of_trajectory_line ~label:"new" line in
  let olds =
    List.rev_map (side_of_trajectory_line ~label:"baseline") history
  in
  let baseline (p : phase) =
    List.find_map
      (fun a ->
        if comparable a b then List.find_opt (fun q -> q.path = p.path) a.phases
        else None)
      olds
  in
  align ~opts:default_options
    {
      label = "baseline";
      fingerprint = None;
      phases = List.filter_map baseline b.phases;
    }
    b

let regressions t =
  List.concat_map
    (fun r ->
      match r.r_status with
      | Matched ->
          List.filter_map
            (fun m ->
              if m.m_sig && m.m_old > 0.0 && m.m_new > m.m_old then
                Some (r.r_path, m)
              else None)
            r.r_metrics
      | Added | Removed | Renamed _ -> [])
    t.rows

let regression_line (path, m) =
  Printf.sprintf "regression: %s %s: %g -> %g (+%.1f%%)" path m.m_name m.m_old
    m.m_new
    (100.0 *. (m.m_new -. m.m_old) /. m.m_old)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let status_cell = function
  | Matched -> ""
  | Added -> "added"
  | Removed -> "removed"
  | Renamed old -> "renamed from " ^ old

let delta_cell m =
  if m.m_old = m.m_new then "·"
  else
    let pct =
      if m.m_old <> 0.0 then
        Printf.sprintf " (%+.1f%%)" (100.0 *. (m.m_new -. m.m_old) /. m.m_old)
      else ""
    in
    Printf.sprintf "%s%g -> %g%s" (if m.m_sig then "! " else "") m.m_old m.m_new pct

let to_markdown t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# Differential profile: %s vs %s\n\n" t.a_label t.b_label;
  if t.forced then
    add "**Warning:** environment fingerprints differ; comparison was forced.\n\n";
  if t.significant = 0 then
    add "No significant phase deltas (%d phases aligned).\n\n"
      (List.length t.rows)
  else
    add "%d of %d phases changed significantly (marked `!`).\n\n" t.significant
      (List.length t.rows);
  (* one column per compared metric, in order of first appearance *)
  let names =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc m ->
            if List.mem m.m_name acc then acc else acc @ [ m.m_name ])
          acc r.r_metrics)
      [] t.rows
  in
  add "| phase | status |";
  List.iter
    (fun name -> add " %s |" (String.map (function '_' -> ' ' | c -> c) name))
    names;
  add "\n|---|---|%s\n" (String.concat "" (List.map (fun _ -> "---|") names));
  List.iter
    (fun r ->
      add "| %s | %s |" r.r_path (status_cell r.r_status);
      List.iter
        (fun name ->
          match List.find_opt (fun m -> m.m_name = name) r.r_metrics with
          | Some m -> add " %s |" (delta_cell m)
          | None -> add "  |")
        names;
      add "\n")
    t.rows;
  add "\n";
  Buffer.contents buf

let to_json t =
  let status = function
    | Matched -> "matched"
    | Added -> "added"
    | Removed -> "removed"
    | Renamed old -> "renamed:" ^ old
  in
  let metric m =
    Json.Obj
      [
        ("name", Json.Str m.m_name);
        ("old", Json.float "%g" m.m_old);
        ("new", Json.float "%g" m.m_new);
        ("significant", Json.Bool m.m_sig);
      ]
  in
  let row r =
    Json.Obj
      [
        ("path", Json.Str r.r_path);
        ("depth", Json.int r.r_depth);
        ("status", Json.Str (status r.r_status));
        ("score", Json.float "%.6f" r.r_score);
        ("metrics", Json.Arr (List.map metric r.r_metrics));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ( "diff",
           Json.Obj
             [
               ("old", Json.Str t.a_label);
               ("new", Json.Str t.b_label);
               ("forced", Json.Bool t.forced);
               ("significant", Json.int t.significant);
               ("rows", Json.Arr (List.map row t.rows));
             ] );
       ])

(* difffolded input: "frame;frame old new", one line per stack, weights
   as integer microseconds of SELF time *)
let to_folded t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      let sec name =
        match List.find_opt (fun m -> m.m_name = name) r.r_metrics with
        | Some m -> (m.m_old, m.m_new)
        | None -> (0.0, 0.0)
      in
      let o, v = sec "seconds" in
      Buffer.add_string buf
        (Printf.sprintf "%s %.0f %.0f\n"
           (String.map (fun c -> if c = '/' then ';' else c) r.r_path)
           (o *. 1e6) (v *. 1e6)))
    (List.stable_sort (fun r1 r2 -> String.compare r1.r_path r2.r_path) t.rows);
  Buffer.contents buf
