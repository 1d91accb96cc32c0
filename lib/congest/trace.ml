type drop_reason = Adversary | Crashed_destination

type event =
  | Round_start of { round : int }
  | Round_end of {
      round : int;
      sent : int;
      delivered : int;
      in_flight : int;
      halted : int;
    }
  | Message_sent of { round : int; src : int; dst : int; bits : int }
  | Message_delivered of { round : int; src : int; dst : int }
  | Message_dropped of {
      round : int;
      src : int;
      dst : int;
      reason : drop_reason;
    }
  | Message_duplicated of {
      round : int;
      src : int;
      dst : int;
      copy_delay : int;
    }
  | Message_delayed of { round : int; src : int; dst : int; delay : int }
  | Node_halted of { round : int; node : int }
  | Node_crashed of { round : int; node : int }
  | Bandwidth_high_water of { round : int; node : int; bits : int }
  | Cost_charged of {
      tag : string;
      rounds : int;
      messages : int;
      max_bits : int;
    }
  | Span_enter of { path : string }
  | Span_exit of { path : string }

(* Events are stored packed, [stride] immediate ints per event (kind code
   + up to 5 payload fields), in one flat [int array]. Recording is then a
   handful of unboxed stores: no per-event heap block, no write barrier,
   no GC pressure from a hot simulator loop — this is what keeps the
   sink-attached overhead within the few-percent budget. [Cost_charged]
   tags (the only non-int payload) are interned in a side table. Events
   are materialized back into the variant type lazily on read. *)

let stride = 6

(* Optional disk spill: when a sink is created with [~spill:path], a full
   buffer is flushed to the file as packed native-endian 64-bit words
   (stride per event, same layout as memory) instead of dropping events.
   Readers replay the spilled prefix and then the in-memory tail, so
   [iter]/[length]/[events] see the complete stream and [truncated]
   stays 0 — observability past the old capacity ceiling. Writer and
   reader channels are opened lazily; the reader seeks, so random-access
   [decode] works on disk too. *)
type spill = {
  sp_path : string;
  mutable sp_out : out_channel option;
  mutable sp_in : in_channel option;
  mutable sp_stored : int;  (* events already flushed to disk *)
  sp_scratch : Bytes.t;  (* chunk buffer for flush/replay *)
}

type sink = {
  mutable buf : int array;
  mutable off : int;  (* next write offset = stride * events stored *)
  limit : int;  (* stride * maximum events *)
  spill : spill option;
  mutable dropped : int;
  mutable tags : string array;
  mutable ntags : int;
  tag_index : (string, int) Hashtbl.t;
  (* span bookkeeping; paths share the tag intern table. Wall-clock and
     GC attribution live entirely in an attached [Resource.t] (the hooks
     below), never in the event stream, so traces of identical runs stay
     byte-identical whether or not a recorder is attached. *)
  spans_enabled : bool;
  mutable span_stack : int array;  (* interned full-path ids, open frames *)
  mutable span_depth : int;
  mutable hook_enter : int -> unit;  (* path id, after the frame opens *)
  mutable hook_exit : int -> unit;  (* path id, before the frame closes *)
}

let no_enter (_ : int) = ()
let no_exit (_ : int) = ()

(* kind codes; [decode] below is the single reader *)
let k_round_start = 0
let k_round_end = 1
let k_message_sent = 2
let k_message_delivered = 3
let k_message_dropped = 4
let k_message_duplicated = 5
let k_message_delayed = 6
let k_node_halted = 7
let k_node_crashed = 8
let k_bandwidth_high_water = 9
let k_cost_charged = 10
let k_span_enter = 11
let k_span_exit = 12

let sink ?(capacity = 1_000_000) ?(spans = true) ?spill () =
  if capacity < 1 then invalid_arg "Trace.sink: capacity must be positive";
  {
    buf = Array.make (stride * min capacity 256) 0;
    off = 0;
    limit = stride * capacity;
    spill =
      Option.map
        (fun path ->
          {
            sp_path = path;
            sp_out = None;
            sp_in = None;
            sp_stored = 0;
            sp_scratch = Bytes.create (8 * stride * 1024);
          })
        spill;
    dropped = 0;
    tags = [||];
    ntags = 0;
    tag_index = Hashtbl.create 8;
    spans_enabled = spans;
    span_stack = [||];
    span_depth = 0;
    hook_enter = no_enter;
    hook_exit = no_exit;
  }

let grow s off =
  let grown = Array.make (min s.limit (2 * Array.length s.buf)) 0 in
  Array.blit s.buf 0 grown 0 off;
  s.buf <- grown
[@@alloc_ok
  "amortized doubling of the in-memory event buffer; runs O(log limit) \
   times total, not on the per-event fast path"]

let spill_writer sp =
  match sp.sp_out with
  | Some oc -> oc
  | None ->
      let oc = open_out_bin sp.sp_path in
      sp.sp_out <- Some oc;
      oc

(* append the whole in-memory buffer to the spill file and reset it *)
let spill_flush s sp =
  let oc = spill_writer sp in
  let scratch = sp.sp_scratch in
  let cap = Bytes.length scratch / 8 in
  let i = ref 0 in
  while !i < s.off do
    let batch = min cap (s.off - !i) in
    for j = 0 to batch - 1 do
      Bytes.set_int64_ne scratch (8 * j) (Int64.of_int s.buf.(!i + j))
    done;
    output_bytes oc
      (if batch = cap then scratch else Bytes.sub scratch 0 (8 * batch));
    i := !i + batch
  done;
  sp.sp_stored <- sp.sp_stored + (s.off / stride);
  s.off <- 0

let[@inline never] slot_full s =
  match s.spill with
  | Some sp ->
      spill_flush s sp;
      s.off <- stride;
      0
  | None ->
      s.dropped <- s.dropped + 1;
      -1
[@@alloc_ok
  "buffer-full slow path (disk spill or drop); reached once per buffer \
   fill, never per event"]

let[@inline] slot s =
  let off = s.off in
  if off >= s.limit then slot_full s
  else begin
    if off = Array.length s.buf then grow s off;
    s.off <- off + stride;
    off
  end

(* [slot] has bounds-checked the whole stride, so unsafe stores are fine *)
let[@inline] emit_message_sent s ~round ~src ~dst ~bits =
  let off = slot s in
  if off >= 0 then begin
    let buf = s.buf in
    Array.unsafe_set buf off k_message_sent;
    Array.unsafe_set buf (off + 1) round;
    Array.unsafe_set buf (off + 2) src;
    Array.unsafe_set buf (off + 3) dst;
    Array.unsafe_set buf (off + 4) bits
  end
[@@hot]

let[@inline] emit_message_delivered s ~round ~src ~dst =
  let off = slot s in
  if off >= 0 then begin
    let buf = s.buf in
    Array.unsafe_set buf off k_message_delivered;
    Array.unsafe_set buf (off + 1) round;
    Array.unsafe_set buf (off + 2) src;
    Array.unsafe_set buf (off + 3) dst
  end
[@@hot]

let[@inline] emit_round_start s ~round =
  let off = slot s in
  if off >= 0 then begin
    let buf = s.buf in
    Array.unsafe_set buf off k_round_start;
    Array.unsafe_set buf (off + 1) round
  end
[@@hot]

let[@inline] emit_round_end s ~round ~sent ~delivered ~in_flight ~halted =
  let off = slot s in
  if off >= 0 then begin
    let buf = s.buf in
    Array.unsafe_set buf off k_round_end;
    Array.unsafe_set buf (off + 1) round;
    Array.unsafe_set buf (off + 2) sent;
    Array.unsafe_set buf (off + 3) delivered;
    Array.unsafe_set buf (off + 4) in_flight;
    Array.unsafe_set buf (off + 5) halted
  end
[@@hot]

let[@inline] emit_node_halted s ~round ~node =
  let off = slot s in
  if off >= 0 then begin
    let buf = s.buf in
    Array.unsafe_set buf off k_node_halted;
    Array.unsafe_set buf (off + 1) round;
    Array.unsafe_set buf (off + 2) node
  end
[@@hot]

let tag_id s tag =
  match Hashtbl.find_opt s.tag_index tag with
  | Some i -> i
  | None ->
      let i = s.ntags in
      if i = Array.length s.tags then begin
        let grown = Array.make (max 8 (2 * i)) "" in
        Array.blit s.tags 0 grown 0 i;
        s.tags <- grown
      end;
      s.tags.(i) <- tag;
      s.ntags <- i + 1;
      Hashtbl.add s.tag_index tag i;
      i

(* Spans. [enter_span]/[exit_span] maintain the open-frame stack and
   record packed Span_enter/Span_exit events carrying the interned full
   path (parent-path ^ "/" ^ segment). The stack push/pop happens even
   when the event itself is dropped at capacity, so instrumentation
   stays balanced. Timing is delegated to the hooks — no-ops unless a
   [Resource.t] is attached. *)

let ensure_frame s d =
  if d = Array.length s.span_stack then begin
    let cap = max 8 (2 * d) in
    let stack = Array.make cap 0 in
    Array.blit s.span_stack 0 stack 0 d;
    s.span_stack <- stack
  end

let set_span s k pid =
  let off = slot s in
  if off >= 0 then begin
    let buf = s.buf in
    buf.(off) <- k;
    buf.(off + 1) <- pid;
    buf.(off + 2) <- 0;
    buf.(off + 3) <- 0;
    buf.(off + 4) <- 0;
    buf.(off + 5) <- 0
  end

let enter_span s name =
  if s.spans_enabled then begin
    let d = s.span_depth in
    let path =
      if d = 0 then name else s.tags.(s.span_stack.(d - 1)) ^ "/" ^ name
    in
    let pid = tag_id s path in
    ensure_frame s d;
    s.span_stack.(d) <- pid;
    s.span_depth <- d + 1;
    set_span s k_span_enter pid;
    s.hook_enter pid
  end

let exit_span s =
  if s.spans_enabled then begin
    let d = s.span_depth - 1 in
    if d < 0 then
      invalid_arg "Trace.exit_span: unbalanced exit (no span is open)";
    let pid = s.span_stack.(d) in
    s.hook_exit pid;
    s.span_depth <- d;
    set_span s k_span_exit pid
  end

let span_depth s = s.span_depth
let spans_enabled s = s.spans_enabled
let span_path s pid = s.tags.(pid)
let unspanned = "(unspanned)"

let path_depth path =
  if path = unspanned then 0
  else 1 + String.fold_left (fun k c -> if c = '/' then k + 1 else k) 0 path

let set_span_hooks s ~enter ~exit =
  s.hook_enter <- enter;
  s.hook_exit <- exit

let record s ev =
  let off = slot s in
  if off >= 0 then begin
    let buf = s.buf in
    let set k a b c d e =
      buf.(off) <- k;
      buf.(off + 1) <- a;
      buf.(off + 2) <- b;
      buf.(off + 3) <- c;
      buf.(off + 4) <- d;
      buf.(off + 5) <- e
    in
    match ev with
    | Round_start { round } -> set k_round_start round 0 0 0 0
    | Round_end { round; sent; delivered; in_flight; halted } ->
        set k_round_end round sent delivered in_flight halted
    | Message_sent { round; src; dst; bits } ->
        set k_message_sent round src dst bits 0
    | Message_delivered { round; src; dst } ->
        set k_message_delivered round src dst 0 0
    | Message_dropped { round; src; dst; reason } ->
        set k_message_dropped round src dst
          (match reason with Adversary -> 0 | Crashed_destination -> 1)
          0
    | Message_duplicated { round; src; dst; copy_delay } ->
        set k_message_duplicated round src dst copy_delay 0
    | Message_delayed { round; src; dst; delay } ->
        set k_message_delayed round src dst delay 0
    | Node_halted { round; node } -> set k_node_halted round node 0 0 0
    | Node_crashed { round; node } -> set k_node_crashed round node 0 0 0
    | Bandwidth_high_water { round; node; bits } ->
        set k_bandwidth_high_water round node bits 0 0
    | Cost_charged { tag; rounds; messages; max_bits } ->
        set k_cost_charged (tag_id s tag) rounds messages max_bits 0
    | Span_enter { path } -> set k_span_enter (tag_id s path) 0 0 0 0
    | Span_exit { path } -> set k_span_exit (tag_id s path) 0 0 0 0
  end

let materialize s k a b c d e =
  if k = k_round_start then Round_start { round = a }
  else if k = k_round_end then
    Round_end { round = a; sent = b; delivered = c; in_flight = d; halted = e }
  else if k = k_message_sent then
    Message_sent { round = a; src = b; dst = c; bits = d }
  else if k = k_message_delivered then
    Message_delivered { round = a; src = b; dst = c }
  else if k = k_message_dropped then
    Message_dropped
      {
        round = a;
        src = b;
        dst = c;
        reason = (if d = 0 then Adversary else Crashed_destination);
      }
  else if k = k_message_duplicated then
    Message_duplicated { round = a; src = b; dst = c; copy_delay = d }
  else if k = k_message_delayed then
    Message_delayed { round = a; src = b; dst = c; delay = d }
  else if k = k_node_halted then Node_halted { round = a; node = b }
  else if k = k_node_crashed then Node_crashed { round = a; node = b }
  else if k = k_bandwidth_high_water then
    Bandwidth_high_water { round = a; node = b; bits = c }
  else if k = k_span_enter then Span_enter { path = s.tags.(a) }
  else if k = k_span_exit then Span_exit { path = s.tags.(a) }
  else Cost_charged { tag = s.tags.(a); rounds = b; messages = c; max_bits = d }

let spill_reader sp =
  (match sp.sp_out with Some oc -> flush oc | None -> ());
  match sp.sp_in with
  | Some ic -> ic
  | None ->
      let ic = open_in_bin sp.sp_path in
      sp.sp_in <- Some ic;
      ic

let spilled s = match s.spill with Some sp -> sp.sp_stored | None -> 0

let decode s i =
  let disk = spilled s in
  if i < disk then begin
    let sp = Option.get s.spill in
    let ic = spill_reader sp in
    seek_in ic (8 * stride * i);
    let b = Bytes.create (8 * stride) in
    really_input ic b 0 (8 * stride);
    let w j = Int64.to_int (Bytes.get_int64_ne b (8 * j)) in
    materialize s (w 0) (w 1) (w 2) (w 3) (w 4) (w 5)
  end
  else begin
    let off = stride * (i - disk) in
    let buf = s.buf in
    materialize s buf.(off)
      buf.(off + 1)
      buf.(off + 2)
      buf.(off + 3)
      buf.(off + 4)
      buf.(off + 5)
  end

let length s = spilled s + (s.off / stride)
let truncated s = s.dropped
let events s = List.init (length s) (decode s)

let iter f s =
  (match s.spill with
  | Some sp when sp.sp_stored > 0 ->
      (* sequential chunked replay of the spilled prefix *)
      let ic = spill_reader sp in
      seek_in ic 0;
      let scratch = sp.sp_scratch in
      let cap = Bytes.length scratch / (8 * stride) in
      let remaining = ref sp.sp_stored in
      while !remaining > 0 do
        let batch = min cap !remaining in
        really_input ic scratch 0 (8 * stride * batch);
        for ev = 0 to batch - 1 do
          let base = 8 * stride * ev in
          let w j = Int64.to_int (Bytes.get_int64_ne scratch (base + (8 * j))) in
          f (materialize s (w 0) (w 1) (w 2) (w 3) (w 4) (w 5))
        done;
        remaining := !remaining - batch
      done
  | _ -> ());
  for i = 0 to (s.off / stride) - 1 do
    let off = stride * i in
    let buf = s.buf in
    f
      (materialize s buf.(off)
         buf.(off + 1)
         buf.(off + 2)
         buf.(off + 3)
         buf.(off + 4)
         buf.(off + 5))
  done

let clear s =
  s.off <- 0;
  s.dropped <- 0;
  s.ntags <- 0;
  Hashtbl.reset s.tag_index;
  s.span_depth <- 0;
  (* path interning restarts, so an attached recorder's id-keyed tables
     would be stale: detach and require a fresh [Resource.attach] *)
  s.hook_enter <- no_enter;
  s.hook_exit <- no_exit;
  match s.spill with
  | None -> ()
  | Some sp ->
      (match sp.sp_in with
      | Some ic ->
          close_in_noerr ic;
          sp.sp_in <- None
      | None -> ());
      (match sp.sp_out with
      | Some oc ->
          close_out_noerr oc;
          sp.sp_out <- None
      | None -> ());
      if sp.sp_stored > 0 && Sys.file_exists sp.sp_path then
        Sys.remove sp.sp_path;
      sp.sp_stored <- 0

let reason_label = function
  | Adversary -> "adversary"
  | Crashed_destination -> "crashed_dst"

let pp_event ppf = function
  | Round_start { round } -> Format.fprintf ppf "round %d start" round
  | Round_end { round; sent; delivered; in_flight; halted } ->
      Format.fprintf ppf
        "round %d end: %d sent, %d delivered, %d in flight, %d halted" round
        sent delivered in_flight halted
  | Message_sent { round; src; dst; bits } ->
      Format.fprintf ppf "r%d: %d -> %d (%d bits)" round src dst bits
  | Message_delivered { round; src; dst } ->
      Format.fprintf ppf "r%d: %d -> %d delivered" round src dst
  | Message_dropped { round; src; dst; reason } ->
      Format.fprintf ppf "r%d: %d -> %d dropped (%s)" round src dst
        (reason_label reason)
  | Message_duplicated { round; src; dst; copy_delay } ->
      Format.fprintf ppf "r%d: %d -> %d duplicated (+%d rounds)" round src dst
        copy_delay
  | Message_delayed { round; src; dst; delay } ->
      Format.fprintf ppf "r%d: %d -> %d delayed (+%d rounds)" round src dst
        delay
  | Node_halted { round; node } ->
      Format.fprintf ppf "r%d: node %d halted" round node
  | Node_crashed { round; node } ->
      Format.fprintf ppf "r%d: node %d crashed" round node
  | Bandwidth_high_water { round; node; bits } ->
      Format.fprintf ppf "r%d: node %d high-water %d bits" round node bits
  | Cost_charged { tag; rounds; messages; max_bits } ->
      Format.fprintf ppf "cost %s: +%d rounds, +%d messages, max %d bits" tag
        rounds messages max_bits
  | Span_enter { path } -> Format.fprintf ppf "span enter %s" path
  | Span_exit { path } -> Format.fprintf ppf "span exit %s" path

let event_to_jsonl ev =
  let i = Json.int in
  let obj kind fields =
    Json.to_string (Json.Obj (("ev", Json.Str kind) :: fields))
  in
  let message kind round src dst extra =
    obj kind ([ ("round", i round); ("src", i src); ("dst", i dst) ] @ extra)
  in
  match ev with
  | Round_start { round } -> obj "round_start" [ ("round", i round) ]
  | Round_end { round; sent; delivered; in_flight; halted } ->
      obj "round_end"
        [
          ("round", i round);
          ("sent", i sent);
          ("delivered", i delivered);
          ("in_flight", i in_flight);
          ("halted", i halted);
        ]
  | Message_sent { round; src; dst; bits } ->
      message "message_sent" round src dst [ ("bits", i bits) ]
  | Message_delivered { round; src; dst } ->
      message "message_delivered" round src dst []
  | Message_dropped { round; src; dst; reason } ->
      message "message_dropped" round src dst
        [ ("reason", Json.Str (reason_label reason)) ]
  | Message_duplicated { round; src; dst; copy_delay } ->
      message "message_duplicated" round src dst
        [ ("copy_delay", i copy_delay) ]
  | Message_delayed { round; src; dst; delay } ->
      message "message_delayed" round src dst [ ("delay", i delay) ]
  | Node_halted { round; node } ->
      obj "node_halted" [ ("round", i round); ("node", i node) ]
  | Node_crashed { round; node } ->
      obj "node_crashed" [ ("round", i round); ("node", i node) ]
  | Bandwidth_high_water { round; node; bits } ->
      obj "bandwidth_high_water"
        [ ("round", i round); ("node", i node); ("bits", i bits) ]
  | Cost_charged { tag; rounds; messages; max_bits } ->
      obj "cost_charged"
        [
          ("tag", Json.Str tag);
          ("rounds", i rounds);
          ("messages", i messages);
          ("max_bits", i max_bits);
        ]
  | Span_enter { path } -> obj "span_enter" [ ("path", Json.Str path) ]
  | Span_exit { path } -> obj "span_exit" [ ("path", Json.Str path) ]

exception Bad_field of string

let event_of_jsonl line =
  let field kind conv j key =
    match conv (Json.member key j) with
    | Some v -> v
    | None ->
        raise (Bad_field (Printf.sprintf "missing %s field %S" kind key))
  in
  let decode j =
    let int = field "int" Json.to_int j in
    let str = field "string" Json.to_str j in
    (* the three fields every message event starts with *)
    let message k = k ~round:(int "round") ~src:(int "src") ~dst:(int "dst") in
    match str "ev" with
    | "round_start" -> Round_start { round = int "round" }
    | "round_end" ->
        Round_end
          {
            round = int "round";
            sent = int "sent";
            delivered = int "delivered";
            in_flight = int "in_flight";
            halted = int "halted";
          }
    | "message_sent" ->
        message (fun ~round ~src ~dst ->
            Message_sent { round; src; dst; bits = int "bits" })
    | "message_delivered" ->
        message (fun ~round ~src ~dst -> Message_delivered { round; src; dst })
    | "message_dropped" ->
        let reason =
          match str "reason" with
          | "adversary" -> Adversary
          | "crashed_dst" -> Crashed_destination
          | r -> raise (Bad_field (Printf.sprintf "unknown drop reason %S" r))
        in
        message (fun ~round ~src ~dst ->
            Message_dropped { round; src; dst; reason })
    | "message_duplicated" ->
        message (fun ~round ~src ~dst ->
            Message_duplicated
              { round; src; dst; copy_delay = int "copy_delay" })
    | "message_delayed" ->
        message (fun ~round ~src ~dst ->
            Message_delayed { round; src; dst; delay = int "delay" })
    | "node_halted" -> Node_halted { round = int "round"; node = int "node" }
    | "node_crashed" -> Node_crashed { round = int "round"; node = int "node" }
    | "bandwidth_high_water" ->
        Bandwidth_high_water
          { round = int "round"; node = int "node"; bits = int "bits" }
    | "cost_charged" ->
        Cost_charged
          {
            tag = str "tag";
            rounds = int "rounds";
            messages = int "messages";
            max_bits = int "max_bits";
          }
    | "span_enter" -> Span_enter { path = str "path" }
    | "span_exit" -> Span_exit { path = str "path" }
    | ev -> raise (Bad_field (Printf.sprintf "unknown event kind %S" ev))
  in
  match Json.parse line with
  | Error e -> Error (e ^ " in " ^ line)
  | Ok j -> (
      try Ok (decode j) with Bad_field e -> Error (e ^ " in " ^ line))

let to_jsonl s =
  let b = Buffer.create (64 * (1 + length s)) in
  iter
    (fun ev ->
      Buffer.add_string b (event_to_jsonl ev);
      Buffer.add_char b '\n')
    s;
  Buffer.contents b

let of_jsonl text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go acc rest
        else begin
          match event_of_jsonl line with
          | Ok ev -> go (ev :: acc) rest
          | Error e -> Error e
        end
  in
  go [] lines

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let save ?(dir = "bench_results") ~file s =
  ensure_dir dir;
  let path = Filename.concat dir file in
  let oc = open_out path in
  output_string oc (to_jsonl s);
  close_out oc;
  path
