(* Driver for the typed whole-program analyzer: sweep every .cmt under
   the given roots (default: dune's output for lib/, bench/ and bin/),
   print findings and the per-module domain-safety summary, optionally
   write the JSON report, and exit non-zero when un-annotated shared
   mutable state or hot-path allocations remain.

   Usage:
     analyze [--json FILE] [--baseline FILE] [--allow RULE:PATH]
             [--disable RULE] [--rules] [ROOT...]

   ROOTs are directories searched recursively for .cmt files; run
   `dune build @check` (or a plain build) first so they exist. *)

let default_roots =
  [ "_build/default/lib"; "_build/default/bench"; "_build/default/bin" ]

let usage () =
  prerr_endline
    "usage: analyze [--json FILE] [--baseline FILE] [--allow RULE:PATH] \
     [--disable RULE] [--rules] [ROOT...]";
  exit 2

let () =
  let json_out = ref None in
  let baseline = ref None in
  let allow = ref [] in
  let disabled = ref [] in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse rest
    | "--baseline" :: file :: rest ->
        baseline := Some file;
        parse rest
    | "--allow" :: spec :: rest ->
        (match String.index_opt spec ':' with
        | Some i ->
            allow :=
              ( String.sub spec 0 i,
                String.sub spec (i + 1) (String.length spec - i - 1) )
              :: !allow
        | None -> usage ());
        parse rest
    | "--disable" :: rule :: rest ->
        disabled := rule :: !disabled;
        parse rest
    | "--rules" :: _ ->
        List.iter
          (fun (name, doc) -> Printf.printf "%-14s %s\n" name doc)
          Analyze_core.rules;
        exit 0
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | root :: rest ->
        roots := root :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots = if !roots = [] then default_roots else List.rev !roots in
  let config =
    { Analyze_core.allow = List.rev !allow; disabled = List.rev !disabled }
  in
  let result = Analyze_core.analyze ~config roots in
  if result.Analyze_core.r_units = 0 then begin
    Printf.eprintf
      "analyze: no .cmt files under %s — run `dune build @check` first\n"
      (String.concat ", " roots);
    exit 2
  end;
  let accept =
    match !baseline with
    | None -> []
    | Some file -> (
        match Analyze_core.read_baseline file with
        | Ok keys -> keys
        | Error e ->
            Printf.eprintf "analyze: bad baseline %s\n" e;
            exit 2)
  in
  let open_findings, accepted =
    Analyze_core.split_baseline ~accept result.Analyze_core.r_findings
  in
  (match !json_out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc
        (Analyze_core.to_json ~accepted
           { result with Analyze_core.r_findings = open_findings });
      output_char oc '\n';
      close_out oc);
  Analyze_core.pp_summary Format.std_formatter result;
  List.iter
    (fun f -> Format.printf "%a@." Analyze_core.pp_finding f)
    open_findings;
  Format.printf
    "%d units, %d mutable values (%d shared), %d [@hot] functions, %d \
     findings%s@."
    result.Analyze_core.r_units
    (List.length result.Analyze_core.r_entries)
    (List.length
       (List.filter
          (fun e -> e.Analyze_core.e_class = Analyze_core.Shared)
          result.Analyze_core.r_entries))
    (List.length result.Analyze_core.r_hots)
    (List.length open_findings)
    (if accepted = [] then ""
     else Printf.sprintf " (+%d baseline-accepted)" (List.length accepted));
  if open_findings <> [] then exit 1
