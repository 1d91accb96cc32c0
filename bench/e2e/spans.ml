(* The benchmark's own spans, recorded around calls into public library
   functions: [Span.enter]/[exit] on a trace sink with a
   [Congest.Resource] recorder attached, which charges wall time, minor
   words and major collections to each span path. The benchmark adds
   only each call's minor words, for the Chrome trace. A [None] tracer
   costs one match per call. *)

module Resource = Congest.Resource
module Span = Congest.Span

type t = {
  sink : Congest.Trace.sink option;
  res : Resource.t;
  mutable words : float list;  (** [Gc.minor_words] at each span transition, newest first *)
}

let create () =
  let sink = Congest.Trace.sink () in
  let res = Resource.create () in
  Resource.attach res sink;
  { sink = Some sink; res; words = [] }

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      Span.enter t.sink name;
      t.words <- Gc.minor_words () :: t.words;
      Fun.protect f ~finally:(fun () ->
          t.words <- Gc.minor_words () :: t.words;
          Span.exit t.sink)

let leaf path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let root path =
  match String.index_opt path '/' with Some i -> String.sub path 0 i | None -> path

type stat = {
  calls : int;
  seconds : float;  (** inclusive *)
  self : float;  (** minus children *)
  words : float;  (** inclusive minor words *)
  gcs : int;  (** inclusive major collections *)
}

(* Totals per call name over the span paths under the root span [under],
   sorted by name. *)
let rollup t ~under =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Resource.rollup) ->
      if root r.r_path = under then begin
        let name = leaf r.r_path in
        let prev =
          Option.value (Hashtbl.find_opt tbl name)
            ~default:{ calls = 0; seconds = 0.0; self = 0.0; words = 0.0; gcs = 0 }
        in
        Hashtbl.replace tbl name
          {
            calls = prev.calls + r.r_entries;
            seconds = prev.seconds +. r.r_seconds_incl;
            self = prev.self +. r.r_seconds;
            words = prev.words +. r.r_minor_words_incl;
            gcs = prev.gcs + r.r_major_collections_incl;
          }
      end)
    (Resource.rollups t.res);
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* The layer of a call is its name up to the first dot. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self seconds per layer, sorted by name. *)
let self_by_layer rolled =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, st) ->
      let l = layer name in
      Hashtbl.replace tbl l
        (st.self +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0))
    rolled;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* Chrome trace-event JSON: the recorder's nested B/E timeline, with the
   minor words of each call in the args of its E event. *)
let chrome t =
  let opened = Stack.create () in
  let event acc (ev : Resource.chrome_event) w =
    let ph, words =
      match ev.ce_phase with
      | `B ->
          Stack.push w opened;
          ("B", [])
      | `E -> ("E", [ ("minor_words", Json.Num (w -. Stack.pop opened)) ])
    in
    Json.Obj
      [
        ("name", Json.Str (leaf ev.ce_path));
        ("cat", Json.Str (layer (leaf ev.ce_path)));
        ("ph", Json.Str ph);
        ("ts", Json.Num ev.ce_ts);
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ("args", Json.Obj (("path", Json.Str ev.ce_path) :: words));
      ]
    :: acc
  in
  let events =
    List.fold_left2 event [] (Resource.chrome_events t.res) (List.rev t.words)
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev events));
      ("displayTimeUnit", Json.Str "ms");
    ]
