(* Hierarchical phase spans over the trace sink. The recording half is
   in Trace (the sink owns the open-span stack and the packed buffer);
   this module is the user-facing API plus the replay that attributes
   rounds, messages, and bits to span paths, joined with the resource
   and critical-path columns into the one per-span table. *)

let enter trace name =
  match trace with None -> () | Some s -> Trace.enter_span s name

let enter_idx trace name i =
  match trace with
  | None -> ()
  | Some s -> Trace.enter_span s (Printf.sprintf "%s=%d" name i)

let exit trace = match trace with None -> () | Some s -> Trace.exit_span s

let with_span trace name f =
  match trace with
  | None -> f ()
  | Some s -> (
      Trace.enter_span s name;
      match f () with
      | v ->
          Trace.exit_span s;
          v
      | exception e ->
          Trace.exit_span s;
          raise e)

type split = { critical : int; slack : int }

type rollup = {
  path : string;
  depth : int;
  entries : int;
  rounds : int;
  rounds_incl : int;
  messages : int;
  messages_incl : int;
  bits : int;
  bits_incl : int;
  max_message_bits : int;
  resource : Resource.rollup option;
  causal : split option;
}

type acc = {
  mutable a_entries : int;
  mutable a_rounds : int;
  mutable a_rounds_incl : int;
  mutable a_messages : int;
  mutable a_messages_incl : int;
  mutable a_bits : int;
  mutable a_bits_incl : int;
  mutable a_max_bits : int;
  mutable a_critical : int;
}

(* Replay attribution: self goes to the innermost open span at the time
   of the event ([Trace.unspanned] when none is open — kept as an
   explicit bucket so per-span self totals sum exactly to the
   Metrics.of_trace globals), inclusive to every open ancestor. Open
   paths are pairwise distinct (each extends its parent), so inclusive
   counts each once. Critical rounds are self-attributed like rounds:
   a simulator round is critical when the witness chain covers it, an
   engine-charged round always is (the engine is one causal thread). *)
let rollups ?resource ?causal sink =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let get path =
    match Hashtbl.find_opt tbl path with
    | Some a -> a
    | None ->
        let a =
          {
            a_entries = 0;
            a_rounds = 0;
            a_rounds_incl = 0;
            a_messages = 0;
            a_messages_incl = 0;
            a_bits = 0;
            a_bits_incl = 0;
            a_max_bits = 0;
            a_critical = 0;
          }
        in
        Hashtbl.add tbl path a;
        order := path :: !order;
        a
  in
  (* the open frames' accumulators, innermost first, so an event costs
     no path hashing *)
  let stack = ref [] in
  let charge ~rounds ~critical ~messages ~bits ~maxb =
    let open_accs =
      match !stack with [] -> [ get Trace.unspanned ] | accs -> accs
    in
    let a = List.hd open_accs in
    a.a_rounds <- a.a_rounds + rounds;
    a.a_critical <- a.a_critical + critical;
    a.a_messages <- a.a_messages + messages;
    a.a_bits <- a.a_bits + bits;
    if maxb > a.a_max_bits then a.a_max_bits <- maxb;
    List.iter
      (fun a ->
        a.a_rounds_incl <- a.a_rounds_incl + rounds;
        a.a_messages_incl <- a.a_messages_incl + messages;
        a.a_bits_incl <- a.a_bits_incl + bits)
      open_accs
  in
  let round_critical =
    match causal with Some c -> c.Causal.round_critical | None -> [||]
  in
  let cur_round = ref 0 in
  Trace.iter
    (fun ev ->
      match ev with
      | Trace.Span_enter { path } ->
          let a = get path in
          a.a_entries <- a.a_entries + 1;
          stack := a :: !stack
      | Trace.Span_exit _ -> (
          match !stack with [] -> () | _ :: rest -> stack := rest)
      | Trace.Round_start _ ->
          incr cur_round;
          let critical =
            if
              !cur_round < Array.length round_critical
              && round_critical.(!cur_round)
            then 1
            else 0
          in
          charge ~rounds:1 ~critical ~messages:0 ~bits:0 ~maxb:0
      | Trace.Message_sent { bits; _ } ->
          charge ~rounds:0 ~critical:0 ~messages:1 ~bits ~maxb:bits
      | Trace.Cost_charged { rounds; messages; max_bits; _ } ->
          charge ~rounds ~critical:rounds ~messages ~bits:0 ~maxb:max_bits
      | _ -> ())
    sink;
  (* paths only the recorder saw (normally just the unspanned bucket,
     which holds the time before the first span) come first *)
  let logical = List.rev !order in
  let res_tbl = Hashtbl.create 32 in
  let res_only =
    List.filter_map
      (fun (r : Resource.rollup) ->
        Hashtbl.replace res_tbl r.Resource.r_path r;
        if Hashtbl.mem tbl r.Resource.r_path then None
        else begin
          (get r.Resource.r_path).a_entries <- r.Resource.r_entries;
          Some r.Resource.r_path
        end)
      (Option.value resource ~default:[])
  in
  List.map
    (fun path ->
      let a = Hashtbl.find tbl path in
      {
        path;
        depth = Trace.path_depth path;
        entries = a.a_entries;
        rounds = a.a_rounds;
        rounds_incl = a.a_rounds_incl;
        messages = a.a_messages;
        messages_incl = a.a_messages_incl;
        bits = a.a_bits;
        bits_incl = a.a_bits_incl;
        max_message_bits = a.a_max_bits;
        resource = Hashtbl.find_opt res_tbl path;
        causal =
          Option.map
            (fun _ ->
              { critical = a.a_critical; slack = a.a_rounds - a.a_critical })
            causal;
      })
    (res_only @ logical)

type weight = [ `Rounds | `Messages | `Bits | `Seconds | `Minor_words | `Major_words ]

let weight_of r w =
  let res f = Option.fold ~none:0 ~some:f r.resource in
  match w with
  | `Rounds -> r.rounds
  | `Messages -> r.messages
  | `Bits -> r.bits
  | `Seconds -> res (fun x -> int_of_float (x.Resource.r_seconds *. 1e6))
  | `Minor_words -> res (fun x -> int_of_float x.Resource.r_minor_words)
  | `Major_words -> res (fun x -> int_of_float x.Resource.r_major_words)

(* flamegraph folded-stack format: frames joined by ';', one
   "stack value" line per path, weight = the span's SELF count (the
   flamegraph renderer re-derives inclusive totals by summation) *)
let to_folded ?(weight = `Rounds) rs =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      let v = weight_of r weight in
      if v > 0 then begin
        Buffer.add_string b
          (String.map (fun c -> if c = '/' then ';' else c) r.path);
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b '\n'
      end)
    rs;
  Buffer.contents b

let of_folded text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        if String.trim line = "" then go acc rest
        else
          match String.rindex_opt line ' ' with
          | None -> Error (Printf.sprintf "folded line without weight: %s" line)
          | Some i -> (
              let stack = String.sub line 0 i in
              let count =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              match int_of_string_opt (String.trim count) with
              | None ->
                  Error (Printf.sprintf "bad folded weight %S in %s" count line)
              | Some v ->
                  let path =
                    String.map (fun c -> if c = ';' then '/' else c) stack
                  in
                  go ((path, v) :: acc) rest))
  in
  go [] (String.split_on_char '\n' text)

(* the one column list: CSV and JSON both render it, so the two
   artifacts cannot disagree on names or formats *)
let columns r =
  let i = Json.int and f6 = Json.float "%.6f" and f0 = Json.float "%.0f" in
  [
    ("path", Json.Str r.path);
    ("depth", i r.depth);
    ("entries", i r.entries);
    ("rounds", i r.rounds);
    ("rounds_incl", i r.rounds_incl);
    ("messages", i r.messages);
    ("messages_incl", i r.messages_incl);
    ("bits", i r.bits);
    ("bits_incl", i r.bits_incl);
    ("max_message_bits", i r.max_message_bits);
  ]
  @ (match r.resource with
    | None -> []
    | Some x ->
        Resource.
          [
            ("seconds", f6 x.r_seconds);
            ("seconds_incl", f6 x.r_seconds_incl);
            ("minor_words", f0 x.r_minor_words);
            ("minor_words_incl", f0 x.r_minor_words_incl);
            ("promoted_words", f0 x.r_promoted_words);
            ("promoted_words_incl", f0 x.r_promoted_words_incl);
            ("major_words", f0 x.r_major_words);
            ("major_words_incl", f0 x.r_major_words_incl);
            ("major_collections", i x.r_major_collections);
            ("major_collections_incl", i x.r_major_collections_incl);
          ])
  @
  match r.causal with
  | None -> []
  | Some c -> [ ("critical", i c.critical); ("slack", i c.slack) ]

let to_json rs = Json.Arr (List.map (fun r -> Json.Obj (columns r)) rs)

(* header = the widest row's columns; a row lacking a group (a path the
   passed snapshot never saw) leaves those cells empty *)
let csv rs =
  let header =
    List.fold_left
      (fun h r ->
        let names = List.map fst (columns r) in
        if List.length names > List.length h then names else h)
      [] rs
  in
  let cell = function Json.Str s | Json.Num s -> s | _ -> "" in
  let line cells = String.concat "," cells ^ "\n" in
  String.concat ""
    (line header
    :: List.map
         (fun r ->
           let cols = columns r in
           line
             (List.map
                (fun k -> Option.fold ~none:"" ~some:cell (List.assoc_opt k cols))
                header))
         rs)

let pp_rollups ppf rs =
  Format.fprintf ppf "%-52s %10s %10s %10s %9s@." "phase" "rounds" "messages"
    "bits" "seconds";
  List.iter
    (fun r ->
      let indent = String.make (2 * max 0 (r.depth - 1)) ' ' in
      let label =
        match String.rindex_opt r.path '/' with
        | Some i -> String.sub r.path (i + 1) (String.length r.path - i - 1)
        | None -> r.path
      in
      Format.fprintf ppf "%-52s %10d %10d %10d %9.4f@."
        (indent ^ label)
        r.rounds_incl r.messages_incl r.bits_incl
        (Option.fold ~none:0.0
           ~some:(fun x -> x.Resource.r_seconds_incl)
           r.resource))
    rs

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let save ?(dir = "bench_results") ?weight ~prefix rs =
  ensure_dir dir;
  let csv_path = Filename.concat dir (prefix ^ "_phases.csv") in
  let folded_path = Filename.concat dir (prefix ^ ".folded") in
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write csv_path (csv rs);
  write folded_path (to_folded ?weight rs);
  [ csv_path; folded_path ]
