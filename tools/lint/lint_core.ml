type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  detail : string;
}

type config = {
  disabled : string list;
  allow : (string * string) list;
}

let rules =
  [
    ("random", "Stdlib.Random outside Dsgraph.Rng breaks seeded replay");
    ("obj", "Obj.* defeats the type system");
    ("catchall", "unguarded 'try ... with _ ->' swallows model violations");
    ( "print-in-program",
      "printing inside a Sim.program: nodes talk through outboxes only" );
    ("physeq", "physical equality (==/!=) is representation-dependent");
    ( "trace-emit",
      "writing trace events outside lib/congest bypasses the sink's \
       event-order contract" );
    ( "graph-edit",
      "Graph.apply_edits outside the repair engine: fault deltas must \
       flow through Cluster.Repair's audited state" );
    ( "raw-io",
      "raw Unix file I/O outside Dsgraph.Io / the trace sink bypasses \
       the checksummed CSR format and the spill protocol" );
    ( "wallclock",
      "clock/GC reads outside Congest.Resource / bench let node \
       programs observe real time and allocator state, breaking \
       deterministic replay" );
    ("parse-error", "file does not parse");
  ]

let default_config =
  {
    disabled = [];
    allow =
      [
        ("random", "dsgraph/rng");
        ("trace-emit", "lib/congest");
        ("graph-edit", "cluster/repair");
        ("graph-edit", "dsgraph");
        ("raw-io", "dsgraph/io");
        ("raw-io", "congest/trace");
        ("wallclock", "congest/resource");
        ("wallclock", "workload/stats");
        ("wallclock", "bench/");
        (* the memo of the incremental verify and its carried-certificate
           shortcut: identity only selects a fast path whose verdicts
           equal the full checks' *)
        ("physeq", "workload/verify_memo.ml");
      ];
  }

(* Trace writers: the record/emit side of the sink API. Consumers
   (length, iter, events, clear, of_jsonl, ...) are fine anywhere. *)
let trace_emit_names =
  [
    "record";
    "emit_message_sent";
    "emit_message_delivered";
    "enter_span";
    "exit_span";
  ]

(* Raw file-descriptor I/O: mapping, opening, reading, writing, seeking.
   Unix.gettimeofday and friends are the wallclock rule's business. *)
let raw_io_names =
  [
    "map_file";
    "openfile";
    "read";
    "write";
    "single_write";
    "lseek";
    "ftruncate";
  ]

(* substring check, for allow-list path matching *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let print_names =
  [
    "print_string";
    "print_bytes";
    "print_char";
    "print_int";
    "print_float";
    "print_endline";
    "print_newline";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
  ]

let lint_structure ~config ~file structure =
  let findings = ref [] in
  let add loc rule detail =
    let allowed =
      List.mem rule config.disabled
      || List.exists
           (fun (r, sub) -> r = rule && contains ~sub file)
           config.allow
    in
    if not allowed then begin
      let p = loc.Location.loc_start in
      findings :=
        {
          file;
          line = p.Lexing.pos_lnum;
          col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
          rule;
          detail;
        }
        :: !findings
    end
  in
  let check_path loc path =
    (match path with
    | "Random" :: _ | "Stdlib" :: "Random" :: _ ->
        add loc "random"
          (String.concat "." path ^ ": draw from Dsgraph.Rng instead")
    | "Obj" :: _ | "Stdlib" :: "Obj" :: _ ->
        add loc "obj" (String.concat "." path)
    | "Gc" :: _ | "Stdlib" :: "Gc" :: _ ->
        add loc "wallclock"
          (String.concat "." path
          ^ ": GC introspection belongs in Congest.Resource")
    | _ -> ());
    match List.rev path with
    | ("==" | "!=") :: _ ->
        add loc "physeq"
          (List.hd (List.rev path) ^ ": use structural (=/<>) equality")
    | name :: "Trace" :: _ when List.mem name trace_emit_names ->
        add loc "trace-emit"
          (String.concat "." path
          ^ ": only lib/congest may write trace events")
    | "apply_edits" :: "Graph" :: _ ->
        add loc "graph-edit"
          (String.concat "." path
          ^ ": derive faulted graphs through Cluster.Repair")
    | name :: "Unix" :: _ when List.mem name raw_io_names ->
        add loc "raw-io"
          (String.concat "." path
          ^ ": raw file I/O belongs in Dsgraph.Io or the trace sink")
    | "gettimeofday" :: "Unix" :: _
    | "time" :: "Unix" :: _
    | "time" :: "Sys" :: _ ->
        add loc "wallclock"
          (String.concat "." path
          ^ ": read the clock through Congest.Resource.now")
    | _ -> ()
  in
  (* depth of enclosing { init; round; ... } program literals *)
  let in_program = ref 0 in
  let check_print loc path =
    if !in_program > 0 then
      match path with
      | [ name ] when List.mem name print_names ->
          add loc "print-in-program" name
      | ("Printf" | "Format") :: _ ->
          add loc "print-in-program" (String.concat "." path)
      | _ -> ()
  in
  let is_program_record fields =
    let last lid =
      match List.rev (Longident.flatten lid.Location.txt) with
      | x :: _ -> x
      | [] -> ""
    in
    let labels = List.map (fun (lid, _) -> last lid) fields in
    List.mem "init" labels && List.mem "round" labels
  in
  let open Parsetree in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident lid ->
        let path = Longident.flatten lid.Location.txt in
        check_path e.pexp_loc path;
        check_print e.pexp_loc path
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            match (c.pc_lhs.ppat_desc, c.pc_guard) with
            | Ppat_any, None ->
                add c.pc_lhs.ppat_loc "catchall"
                  "match the exceptions you expect, or add a 'when' guard"
            | _ -> ())
          cases
    | _ -> ());
    match e.pexp_desc with
    | Pexp_record (fields, _) when is_program_record fields ->
        incr in_program;
        super.expr it e;
        decr in_program
    | _ -> super.expr it e
  in
  let module_expr it m =
    (match m.pmod_desc with
    | Pmod_ident lid -> check_path m.pmod_loc (Longident.flatten lid.Location.txt)
    | _ -> ());
    super.module_expr it m
  in
  let iterator = { super with expr; module_expr } in
  iterator.structure iterator structure;
  List.rev !findings

let lint_file ?(config = default_config) file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf file;
      match Parse.implementation lexbuf with
      | structure -> lint_structure ~config ~file structure
      | exception exn ->
          let line, col =
            match Location.error_of_exn exn with
            | Some (`Ok err) ->
                let p = err.Location.main.Location.loc.Location.loc_start in
                (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
            | _ -> (1, 0)
          in
          [
            {
              file;
              line;
              col;
              rule = "parse-error";
              detail = Printexc.to_string exn;
            };
          ])

let ml_files roots =
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter
        (fun entry ->
          if
            entry <> "_build"
            && entry <> ".git"
            && not (String.length entry > 0 && entry.[0] = '.')
          then walk (Filename.concat path entry))
        (Sys.readdir path)
    else if Filename.check_suffix path ".ml" then acc := path :: !acc
  in
  List.iter (fun r -> if Sys.file_exists r then walk r) roots;
  List.sort compare !acc

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.detail

(* (file, line, col, rule) order, so the report and the JSON payload are
   byte-stable regardless of the filesystem walk order that produced the
   findings *)
let sort_findings findings =
  List.sort
    (fun a b ->
      compare (a.file, a.line, a.col, a.rule, a.detail)
        (b.file, b.line, b.col, b.rule, b.detail))
    findings

let to_json ~files_scanned findings =
  let findings = sort_findings findings in
  let finding f =
    Json.Obj
      [
        ("file", Json.Str f.file);
        ("line", Json.int f.line);
        ("col", Json.int f.col);
        ("rule", Json.Str f.rule);
        ("detail", Json.Str f.detail);
      ]
  in
  let count (name, _) =
    let hits = List.filter (fun f -> f.rule = name) findings in
    (name, Json.int (List.length hits))
  in
  Json.to_string
    (Json.Obj
       [
         ( "rules",
           Json.Arr
             (List.map
                (fun (name, doc) ->
                  Json.Obj [ ("name", Json.Str name); ("doc", Json.Str doc) ])
                rules) );
         ("files_scanned", Json.int files_scanned);
         ("findings", Json.Arr (List.map finding findings));
         ("counts", Json.Obj (List.map count rules));
       ])
