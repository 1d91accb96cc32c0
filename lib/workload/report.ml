type t = {
  algo : string;
  reference : string;
  family : string;
  n : int;
  m : int;
  seed : int;
  epsilon : float option;
  colors : int;
  strong_diameter : int option;
  weak_diameter : int;
  dead_fraction : float option;
  rounds : int;
  messages : int;
  max_message_bits : int;
  valid : bool;
  seconds : float;
  trace : Congest.Trace.sink;
  resource : Congest.Resource.t;
  metrics : Congest.Metrics.t;
  spans : Congest.Span.rollup list;
  res_totals : Congest.Resource.totals;
  causal : Congest.Causal.t;
  audit : Audit.t;
  audit_verdict : (unit, string) result;
  fingerprint : Stats.fingerprint;
}

(* a span-enabled sink with a resource recorder on it; the recorder's
   window opens here, on a settled heap, so it does not count the
   promotion of start-up data still in the minor heap *)
let instruments () =
  Stats.settle ();
  let sink = Congest.Trace.sink ~spans:true () in
  let resource = Congest.Resource.create () in
  Congest.Resource.attach resource sink;
  (sink, resource)

(* [snapshot] closes the recorder's window: the caller takes it right
   after the measured run, so the certificate audit stays outside it *)
let assemble ~algo ~reference ~family ~n ~m ~seed ~epsilon ~colors
    ~strong_diameter ~weak_diameter ~dead_fraction ~rounds ?messages
    ~max_message_bits ~valid ~seconds ~sink ~resource ~snapshot ~audit ~graph
    () =
  let res_rollups, res_totals = snapshot in
  let metrics = Congest.Metrics.of_trace sink in
  (* a carving row has no message count: the trace's is the one *)
  let messages =
    match messages with
    | Some k -> k
    | None ->
        Congest.Metrics.count metrics "messages_sent"
        + Congest.Metrics.count metrics "cost_messages"
  in
  let causal = Congest.Causal.analyze sink in
  let metrics = Congest.Causal.metrics ~into:metrics causal in
  let metrics = Congest.Resource.metrics ~into:metrics res_totals in
  {
    algo;
    reference;
    family;
    n;
    m;
    seed;
    epsilon;
    colors;
    strong_diameter;
    weak_diameter;
    dead_fraction;
    rounds;
    messages;
    max_message_bits;
    valid;
    seconds;
    trace = sink;
    resource;
    metrics;
    spans = Congest.Span.rollups ~resource:res_rollups ~causal sink;
    res_totals;
    causal;
    audit;
    audit_verdict = Audit.verify graph audit;
    fingerprint = Stats.current_fingerprint ();
  }

let of_decomposer ?(seed = 42) (d : Algorithms.decomposer) family ~n =
  let sink, resource = instruments () in
  let row, decomp, graph =
    Measure.decomposition_result ~seed ~trace:sink d family ~n
  in
  let snapshot = Congest.Resource.snapshot resource in
  assemble ~algo:row.Measure.algorithm ~reference:row.Measure.reference
    ~family:row.Measure.family ~n:row.Measure.n ~m:row.Measure.m ~seed
    ~epsilon:None ~colors:row.Measure.colors
    ~strong_diameter:row.Measure.strong_diameter
    ~weak_diameter:row.Measure.weak_diameter ~dead_fraction:None
    ~rounds:row.Measure.rounds ~messages:row.Measure.messages
    ~max_message_bits:row.Measure.max_message_bits ~valid:row.Measure.valid
    ~seconds:row.Measure.seconds ~sink ~resource ~snapshot
    ~audit:(Audit.certify_decomposition decomp)
    ~graph ()

let of_carver ?(seed = 42) ?(epsilon = 0.25) (c : Algorithms.carver) family ~n
    =
  let sink, resource = instruments () in
  let row, carving, graph =
    Measure.carving_result ~seed ~trace:sink c family ~n ~epsilon
  in
  let snapshot = Congest.Resource.snapshot resource in
  assemble ~algo:row.Measure.algorithm ~reference:row.Measure.reference
    ~family:row.Measure.family ~n:row.Measure.n
    ~m:(Dsgraph.Graph.m graph) ~seed ~epsilon:(Some epsilon) ~colors:0
    ~strong_diameter:row.Measure.strong_diameter
    ~weak_diameter:row.Measure.weak_diameter
    ~dead_fraction:(Some row.Measure.dead_fraction) ~rounds:row.Measure.rounds
    ~max_message_bits:row.Measure.max_message_bits
    ~valid:row.Measure.valid ~seconds:row.Measure.seconds ~sink ~resource
    ~snapshot
    ~audit:(Audit.certify_carving carving)
    ~graph ()

(* ------------------------------------------------------------------ *)
(* Markdown                                                             *)
(* ------------------------------------------------------------------ *)

let opt_int = function Some d -> string_of_int d | None -> "-"
let verdict_cell = function Ok () -> "ok" | Error e -> "REJECTED: " ^ e

let max_chain_rows = 20

let to_markdown t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# Run report: %s on %s (n=%d)\n\n" t.algo t.family t.n;
  add "Reference: %s. Seed %d. %d events recorded" t.reference t.seed
    (Congest.Trace.length t.trace);
  let truncated = Congest.Trace.truncated t.trace in
  if truncated > 0 then add " (%d truncated)" truncated;
  add ".\n\n";
  add "Environment: %s.\n\n"
    (Format.asprintf "%a" Stats.pp_fingerprint t.fingerprint);
  add "| quantity | value |\n|---|---|\n";
  add "| nodes / edges | %d / %d |\n" t.n t.m;
  (match t.epsilon with Some e -> add "| epsilon | %.3f |\n" e | None -> ());
  if t.colors > 0 then add "| colors | %d |\n" t.colors;
  add "| strong diameter | %s |\n" (opt_int t.strong_diameter);
  add "| weak diameter | %d |\n" t.weak_diameter;
  (match t.dead_fraction with
  | Some f -> add "| dead fraction | %.4f |\n" f
  | None -> ());
  add "| rounds | %d |\n" t.rounds;
  add "| messages | %d |\n" t.messages;
  add "| max message bits | %d |\n" t.max_message_bits;
  add "| checker verdict | %s |\n" (if t.valid then "ok" else "FAIL");
  add "| certificate audit | %s |\n" (verdict_cell t.audit_verdict);
  add "| wall seconds | %.3f |\n" t.seconds;
  add "| minor words | %.0f |\n" t.res_totals.Congest.Resource.t_minor_words;
  add "| major words | %.0f |\n" t.res_totals.Congest.Resource.t_major_words;
  add "| peak heap MB | %.1f |\n\n"
    (Congest.Resource.peak_heap_mb t.res_totals);
  add "## Causal critical path\n\n";
  add "%s\n\n" (Format.asprintf "%a" Congest.Causal.pp t.causal);
  let c = t.causal in
  add
    "Of %d total rounds, %d are on the critical path (%d engine-charged + \
     a %d-round happens-before chain over %d message hops) and %d are \
     slack.%s\n\n"
    c.Congest.Causal.rounds c.Congest.Causal.critical_rounds
    c.Congest.Causal.engine_rounds c.Congest.Causal.chain_rounds
    (List.length c.Congest.Causal.chain)
    c.Congest.Causal.slack_rounds
    (if c.Congest.Causal.exact then ""
     else
       " The chain is approximate: the trace contains faults, unmatched \
        deliveries, or was truncated.");
  (if c.Congest.Causal.chain <> [] then begin
     add "| hop | src | dst | sent | delivered | bits |\n|---|---|---|---|---|---|\n";
     List.iteri
       (fun i (h : Congest.Causal.hop) ->
         if i < max_chain_rows then
           add "| %d | %d | %d | %d | %d | %d |\n" (i + 1) h.Congest.Causal.src
             h.Congest.Causal.dst h.Congest.Causal.sent_round
             h.Congest.Causal.delivered_round h.Congest.Causal.bits)
       c.Congest.Causal.chain;
     let rest = List.length c.Congest.Causal.chain - max_chain_rows in
     if rest > 0 then add "\n... and %d more hops (full chain in the JSON report).\n" rest;
     add "\n"
   end);
  add "## Spans\n\n";
  add
    "One row per span path: self and inclusive rounds, messages and bits; \
     wall-clock and GC attribution (self values sum to the process \
     totals; \"(unspanned)\" absorbs time outside any span); critical vs. \
     slack self rounds.\n\n";
  add "```\n%s```\n\n" (Congest.Span.csv t.spans);
  add "## Metrics\n\n```\n%s```\n\n"
    (Format.asprintf "%a" Congest.Metrics.pp t.metrics);
  add "## Cluster audit\n\n";
  add "%d clusters; max diameter lower bound %s, upper bound %s. Verdict: \
       %s.\n\n"
    (List.length t.audit.Audit.certs)
    (let lb = Audit.max_diameter_lb t.audit in
     if lb < 0 then "-" else string_of_int lb)
    (opt_int (Audit.max_diameter_ub t.audit))
    (verdict_cell t.audit_verdict);
  add "```\n%s```\n" (Format.asprintf "%a" (Audit.pp_table ?max_rows:None) t.audit);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

let schema = 2

let to_json t =
  let i = Json.int and f6 = Json.float "%.6f" and f0 = Json.float "%.0f" in
  let opt conv = function Some x -> conv x | None -> Json.Null in
  let str s = Json.Str s and bool b = Json.Bool b in
  let list f xs = Json.Arr (List.map f xs) in
  let c = t.causal in
  let tot = t.res_totals in
  let a = t.audit in
  let open Congest in
  Json.to_string
    (Json.Obj
       [
         ( "report",
           Json.Obj
             [
               ("schema", i schema);
               ("algo", str t.algo);
               ("reference", str t.reference);
               ("family", str t.family);
               ("n", i t.n);
               ("m", i t.m);
               ("seed", i t.seed);
               ("epsilon", opt f6 t.epsilon);
               ("colors", i t.colors);
               ("strong_diameter", opt i t.strong_diameter);
               ("weak_diameter", i t.weak_diameter);
               ("dead_fraction", opt f6 t.dead_fraction);
               ("rounds", i t.rounds);
               ("messages", i t.messages);
               ("max_message_bits", i t.max_message_bits);
               ("valid", bool t.valid);
               ("seconds", f6 t.seconds);
               ("events", i (Trace.length t.trace));
               ("truncated", i (Trace.truncated t.trace));
             ] );
         ("fingerprint", Stats.fingerprint_value t.fingerprint);
         ( "causal",
           Json.Obj
             [
               ("rounds", i c.Causal.rounds);
               ("sim_rounds", i c.Causal.sim_rounds);
               ("engine_rounds", i c.Causal.engine_rounds);
               ("chain_rounds", i c.Causal.chain_rounds);
               ("critical_rounds", i c.Causal.critical_rounds);
               ("slack_rounds", i c.Causal.slack_rounds);
               ("exact", bool c.Causal.exact);
               ( "chain",
                 list
                   (fun (h : Causal.hop) ->
                     Json.Obj
                       [
                         ("src", i h.Causal.src);
                         ("dst", i h.Causal.dst);
                         ("sent", i h.Causal.sent_round);
                         ("delivered", i h.Causal.delivered_round);
                         ("bits", i h.Causal.bits);
                       ])
                   c.Causal.chain );
             ] );
         ("spans", Span.to_json t.spans);
         ( "resources",
           Json.Obj
             [
               ("seconds", f6 tot.Resource.t_seconds);
               ("minor_words", f0 tot.Resource.t_minor_words);
               ("promoted_words", f0 tot.Resource.t_promoted_words);
               ("major_words", f0 tot.Resource.t_major_words);
               ("major_collections", i tot.Resource.t_major_collections);
               ("peak_heap_mb", Json.float "%.3f" (Resource.peak_heap_mb tot));
             ] );
         ("metrics", Json.Arr (Metrics.to_json t.metrics));
         ( "audit",
           Json.Obj
             [
               ( "kind",
                 str
                   (match a.Audit.kind with
                   | Audit.Decomposition -> "decomposition"
                   | Audit.Carving -> "carving") );
               ("n", i a.Audit.n);
               ("num_colors", i a.Audit.num_colors);
               ("dead", i a.Audit.dead);
               ("dead_fraction", f6 a.Audit.dead_fraction);
               ("max_diameter_lb", i (Audit.max_diameter_lb a));
               ("max_diameter_ub", opt i (Audit.max_diameter_ub a));
               ( "verdict",
                 str
                   (match t.audit_verdict with Ok () -> "ok" | Error e -> e) );
               ( "certs",
                 list
                   (fun (cert : Audit.cert) ->
                     Json.Obj
                       [
                         ("cluster", i cert.Audit.cluster);
                         ("color", i cert.Audit.color);
                         ("size", i (List.length cert.Audit.members));
                         ("strong", bool cert.Audit.strong);
                         ( "height",
                           opt (fun w -> i w.Audit.w_height) cert.Audit.tree );
                         ("diameter_lb", i cert.Audit.diameter_lb);
                         ("diameter_ub", opt i cert.Audit.diameter_ub);
                       ])
                   a.Audit.certs );
             ] );
       ])

let save ?(dir = "bench_results") ?weight ?chrome t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let prefix = Printf.sprintf "report_%s_%s" t.algo t.family in
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    path
  in
  let in_dir ext = Filename.concat dir (prefix ^ ext) in
  let md = write (in_dir ".md") (to_markdown t) in
  let json = write (in_dir ".json") (to_json t) in
  let jsonl = Congest.Trace.save ~dir ~file:(prefix ^ ".jsonl") t.trace in
  let metrics = Congest.Metrics.save ~dir ~prefix t.metrics in
  let phases = Congest.Span.save ~dir ?weight ~prefix t.spans in
  let chrome =
    Option.map
      (fun path -> write path (Congest.Resource.chrome_json t.resource))
      chrome
  in
  (md :: json :: jsonl :: metrics) @ phases @ Option.to_list chrome

let pp_summary ppf t =
  Format.fprintf ppf
    "report: %s on %s n=%d — %s; %d rounds (%d critical, %d slack); audit %s@."
    t.algo t.family t.n
    (if t.valid then "valid" else "INVALID")
    t.rounds t.causal.Congest.Causal.critical_rounds
    t.causal.Congest.Causal.slack_rounds
    (match t.audit_verdict with Ok () -> "ok" | Error e -> "REJECTED: " ^ e)
