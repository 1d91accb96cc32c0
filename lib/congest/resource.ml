(* The single sanctioned clock/GC read point outside bench/ (enforced
   by the [wallclock] lint rule). Attribution works on a sample cursor:
   every span transition reads the clock and the GC counters once and
   charges the delta since the previous sample to the innermost open
   bucket (self) and to every open frame (inclusive). Deltas telescope,
   so self totals across all buckets reproduce the process totals
   exactly for word counts (integral floats below 2^53 add exactly) and
   up to float rounding for seconds. *)

let now () = Unix.gettimeofday ()
let word_bytes = float_of_int (Sys.word_size / 8)

type acc = {
  a_path : string;
  a_depth : int;
  mutable a_entries : int;
  mutable self_s : float;
  mutable incl_s : float;
  mutable self_minor : float;
  mutable incl_minor : float;
  mutable self_promoted : float;
  mutable incl_promoted : float;
  mutable self_major : float;
  mutable incl_major : float;
  mutable self_majors : int;
  mutable incl_majors : int;
}

type t = {
  accs : (int, acc) Hashtbl.t;  (* sink path id -> accumulator *)
  unspanned : acc;
  mutable stack : acc array;  (* open frames, innermost last *)
  mutable depth : int;
  t0 : float;
  (* sample cursor: the last (clock, GC counters) reading *)
  mutable l_time : float;
  mutable l_minor : float;
  mutable l_promoted : float;
  mutable l_major : float;
  mutable l_majors : int;
  mutable peak_heap : int;
  (* window totals, accumulated transition-by-transition so the
     exact-sum invariant is a telescoping identity, not a definition *)
  mutable tot_s : float;
  mutable tot_minor : float;
  mutable tot_promoted : float;
  mutable tot_major : float;
  mutable tot_majors : int;
  (* chrome timeline: one (phase, acc, ts) triple per span transition *)
  mutable ev_phase : Bytes.t;  (* 'B' or 'E' *)
  mutable ev_acc : acc array;
  mutable ev_ts : float array;  (* microseconds since t0 *)
  mutable ev_len : int;
}

let fresh_acc path depth =
  {
    a_path = path;
    a_depth = depth;
    a_entries = 0;
    self_s = 0.0;
    incl_s = 0.0;
    self_minor = 0.0;
    incl_minor = 0.0;
    self_promoted = 0.0;
    incl_promoted = 0.0;
    self_major = 0.0;
    incl_major = 0.0;
    self_majors = 0;
    incl_majors = 0;
  }

let create () =
  let st = Gc.quick_stat () in
  let unspanned = fresh_acc Trace.unspanned 0 in
  {
    accs = Hashtbl.create 16;
    unspanned;
    stack = Array.make 8 unspanned;
    depth = 0;
    t0 = now ();
    l_time = now ();
    l_minor = Gc.minor_words ();
    l_promoted = st.Gc.promoted_words;
    l_major = st.Gc.major_words;
    l_majors = st.Gc.major_collections;
    peak_heap = st.Gc.top_heap_words;
    tot_s = 0.0;
    tot_minor = 0.0;
    tot_promoted = 0.0;
    tot_major = 0.0;
    tot_majors = 0;
    ev_phase = Bytes.create 64;
    ev_acc = Array.make 64 unspanned;
    ev_ts = Array.make 64 0.0;
    ev_len = 0;
  }

(* read the clock + GC once, charge the delta since the previous sample,
   advance the cursor. The innermost open frame gets self; every open
   frame gets inclusive; no open frame means "(unspanned)". *)
let transition t =
  let tm = now () in
  let minor = Gc.minor_words () in
  let st = Gc.quick_stat () in
  let ds = tm -. t.l_time in
  let dminor = minor -. t.l_minor in
  let dpromoted = st.Gc.promoted_words -. t.l_promoted in
  let dmajor = st.Gc.major_words -. t.l_major in
  let dmajors = st.Gc.major_collections - t.l_majors in
  let self = if t.depth = 0 then t.unspanned else t.stack.(t.depth - 1) in
  self.self_s <- self.self_s +. ds;
  self.self_minor <- self.self_minor +. dminor;
  self.self_promoted <- self.self_promoted +. dpromoted;
  self.self_major <- self.self_major +. dmajor;
  self.self_majors <- self.self_majors + dmajors;
  (if t.depth = 0 then begin
     t.unspanned.incl_s <- t.unspanned.incl_s +. ds;
     t.unspanned.incl_minor <- t.unspanned.incl_minor +. dminor;
     t.unspanned.incl_promoted <- t.unspanned.incl_promoted +. dpromoted;
     t.unspanned.incl_major <- t.unspanned.incl_major +. dmajor;
     t.unspanned.incl_majors <- t.unspanned.incl_majors + dmajors
   end
   else
     for i = 0 to t.depth - 1 do
       let a = t.stack.(i) in
       a.incl_s <- a.incl_s +. ds;
       a.incl_minor <- a.incl_minor +. dminor;
       a.incl_promoted <- a.incl_promoted +. dpromoted;
       a.incl_major <- a.incl_major +. dmajor;
       a.incl_majors <- a.incl_majors + dmajors
     done);
  t.tot_s <- t.tot_s +. ds;
  t.tot_minor <- t.tot_minor +. dminor;
  t.tot_promoted <- t.tot_promoted +. dpromoted;
  t.tot_major <- t.tot_major +. dmajor;
  t.tot_majors <- t.tot_majors + dmajors;
  if st.Gc.top_heap_words > t.peak_heap then
    t.peak_heap <- st.Gc.top_heap_words;
  t.l_time <- tm;
  t.l_minor <- minor;
  t.l_promoted <- st.Gc.promoted_words;
  t.l_major <- st.Gc.major_words;
  t.l_majors <- st.Gc.major_collections

let push_event t phase acc =
  let n = t.ev_len in
  if n = Bytes.length t.ev_phase then begin
    let cap = 2 * n in
    let phase' = Bytes.make cap ' '
    and acc' = Array.make cap t.unspanned
    and ts' = Array.make cap 0.0 in
    Bytes.blit t.ev_phase 0 phase' 0 n;
    Array.blit t.ev_acc 0 acc' 0 n;
    Array.blit t.ev_ts 0 ts' 0 n;
    t.ev_phase <- phase';
    t.ev_acc <- acc';
    t.ev_ts <- ts'
  end;
  Bytes.set t.ev_phase n phase;
  t.ev_acc.(n) <- acc;
  (* quantize to the 3-decimal grid the JSON prints, so the in-memory
     timeline and a chrome_of_json round-trip are bit-identical *)
  t.ev_ts.(n) <- Float.round ((t.l_time -. t.t0) *. 1e9) /. 1e3;
  t.ev_len <- n + 1

let on_enter t sink pid =
  transition t;
  let acc =
    match Hashtbl.find_opt t.accs pid with
    | Some a -> a
    | None ->
        let path = Trace.span_path sink pid in
        let a = fresh_acc path (Trace.path_depth path) in
        Hashtbl.add t.accs pid a;
        a
  in
  acc.a_entries <- acc.a_entries + 1;
  if t.depth = Array.length t.stack then begin
    let grown = Array.make (2 * t.depth) t.unspanned in
    Array.blit t.stack 0 grown 0 t.depth;
    t.stack <- grown
  end;
  t.stack.(t.depth) <- acc;
  t.depth <- t.depth + 1;
  push_event t 'B' acc

let on_exit t _sink _pid =
  transition t;
  if t.depth > 0 then begin
    t.depth <- t.depth - 1;
    push_event t 'E' t.stack.(t.depth)
  end

let attach t sink =
  Trace.set_span_hooks sink
    ~enter:(fun pid -> on_enter t sink pid)
    ~exit:(fun pid -> on_exit t sink pid)

type rollup = {
  r_path : string;
  r_depth : int;
  r_entries : int;
  r_seconds : float;
  r_seconds_incl : float;
  r_minor_words : float;
  r_minor_words_incl : float;
  r_promoted_words : float;
  r_promoted_words_incl : float;
  r_major_words : float;
  r_major_words_incl : float;
  r_major_collections : int;
  r_major_collections_incl : int;
}

type totals = {
  t_seconds : float;
  t_minor_words : float;
  t_promoted_words : float;
  t_major_words : float;
  t_major_collections : int;
  t_peak_heap_words : int;
}

let rollup_of_acc a =
  {
    r_path = a.a_path;
    r_depth = a.a_depth;
    r_entries = a.a_entries;
    r_seconds = a.self_s;
    r_seconds_incl = a.incl_s;
    r_minor_words = a.self_minor;
    r_minor_words_incl = a.incl_minor;
    r_promoted_words = a.self_promoted;
    r_promoted_words_incl = a.incl_promoted;
    r_major_words = a.self_major;
    r_major_words_incl = a.incl_major;
    r_major_collections = a.self_majors;
    r_major_collections_incl = a.incl_majors;
  }

(* readers of the current state, no sampling: [snapshot] needs both
   views of the same instant for the exact-sum invariant to be checkable *)
let rollups_now t =
  let spanned =
    Hashtbl.fold (fun _ a l -> rollup_of_acc a :: l) t.accs []
    |> List.sort (fun a b -> compare a.r_path b.r_path)
  in
  rollup_of_acc t.unspanned :: spanned

let totals_now t =
  {
    t_seconds = t.tot_s;
    t_minor_words = t.tot_minor;
    t_promoted_words = t.tot_promoted;
    t_major_words = t.tot_major;
    t_major_collections = t.tot_majors;
    t_peak_heap_words = t.peak_heap;
  }

let rollups t =
  transition t;
  rollups_now t

let totals t =
  transition t;
  totals_now t

let snapshot t =
  transition t;
  let tot = totals_now t in
  (rollups_now t, tot)

let peak_heap_mb tot = float_of_int tot.t_peak_heap_words *. word_bytes /. 1e6

let metrics ?into tot =
  let m = match into with Some m -> m | None -> Metrics.create () in
  Metrics.set (Metrics.gauge m "res.seconds") tot.t_seconds;
  Metrics.set (Metrics.gauge m "res.minor_words") tot.t_minor_words;
  Metrics.set (Metrics.gauge m "res.promoted_words") tot.t_promoted_words;
  Metrics.set (Metrics.gauge m "res.major_words") tot.t_major_words;
  Metrics.set (Metrics.gauge m "res.peak_heap_mb") (peak_heap_mb tot);
  Metrics.incr
    ~by:tot.t_major_collections
    (Metrics.counter m "res.major_collections");
  m

let heartbeat t phase =
  let tot = totals t in
  Printf.eprintf "[resource] %-14s +%7.1fs peak_heap=%.1fMB minor=%.1fMw\n%!"
    phase tot.t_seconds (peak_heap_mb tot) (tot.t_minor_words /. 1e6)

(* Chrome trace-event (catapult) export. One JSON object per span
   transition: B/E duration pairs, microsecond timestamps, event name =
   last path segment so the viewer nests stacks, full path in args. *)

type chrome_event = {
  ce_path : string;
  ce_phase : [ `B | `E ];
  ce_ts : float;
}

let chrome_events t =
  List.init t.ev_len (fun i ->
      {
        ce_path = t.ev_acc.(i).a_path;
        ce_phase = (if Bytes.get t.ev_phase i = 'B' then `B else `E);
        ce_ts = t.ev_ts.(i);
      })

let last_segment path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let chrome_json t =
  let event ev =
    Json.Obj
      [
        ("name", Json.Str (last_segment ev.ce_path));
        ("cat", Json.Str "span");
        ("ph", Json.Str (match ev.ce_phase with `B -> "B" | `E -> "E"));
        ("ts", Json.float "%.3f" ev.ce_ts);
        ("pid", Json.int 1);
        ("tid", Json.int 1);
        ("args", Json.Obj [ ("path", Json.Str ev.ce_path) ]);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.map event (chrome_events t)));
         ("displayTimeUnit", Json.Str "ms");
       ])
  ^ "\n"

let chrome_of_json text =
  let event j =
    let ts = Json.to_float (Json.member "ts" j)
    and path = Json.to_str (Json.member "path" (Json.member "args" j)) in
    match (Json.to_str (Json.member "ph" j), ts, path) with
    | Some ("B" | "E" as ph), Some ce_ts, Some ce_path ->
        Ok { ce_path; ce_phase = (if ph = "B" then `B else `E); ce_ts }
    | _ -> Error ("malformed event: " ^ Json.to_string j)
  in
  let rec events acc = function
    | [] -> Ok (List.rev acc)
    | j :: rest -> Result.bind (event j) (fun e -> events (e :: acc) rest)
  in
  match Json.parse text with
  | Error e -> Error e
  | Ok doc -> (
      match Json.to_list (Json.member "traceEvents" doc) with
      | None -> Error "no traceEvents array"
      | Some evs -> events [] evs)
