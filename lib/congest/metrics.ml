type counter = { mutable count : int }
type gauge = { mutable last : float; mutable g_max : float; mutable set_yet : bool }

(* power-of-two buckets: index k counts v with 2^(k-1) <= v < 2^k, index 0
   counts v <= 0 or v = ... actually v < 1, i.e. v <= 0; v = 1 lands at
   index 1. 63 indices cover every OCaml int. *)
type histogram = {
  mutable n_obs : int;
  mutable total : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (* reverse insertion order *)
}

let create () = { tbl = Hashtbl.create 16; order = [] }

let register t name m =
  Hashtbl.add t.tbl name m;
  t.order <- name :: t.order

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
      let c = { count = 0 } in
      register t name (Counter c);
      c

let incr ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count

let count t name =
  match Hashtbl.find_opt t.tbl name with Some (Counter c) -> c.count | _ -> 0

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
      let g = { last = 0.0; g_max = neg_infinity; set_yet = false } in
      register t name (Gauge g);
      g

let set g v =
  g.last <- v;
  g.set_yet <- true;
  if v > g.g_max then g.g_max <- v

let gauge_value g = g.last
let gauge_max g = if g.set_yet then g.g_max else 0.0

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some _ ->
      invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
      let h =
        {
          n_obs = 0;
          total = 0;
          h_min = max_int;
          h_max = min_int;
          buckets = Array.make 63 0;
        }
      in
      register t name (Histogram h);
      h

let bucket_index v =
  if v <= 0 then 0
  else begin
    let k = ref 0 and x = ref v in
    while !x > 0 do
      k := !k + 1;
      x := !x lsr 1
    done;
    (* 2^(k-1) <= v < 2^k *)
    !k
  end

let observe h v =
  h.n_obs <- h.n_obs + 1;
  h.total <- h.total + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1

let hist_count h = h.n_obs
let hist_sum h = h.total
let hist_min h = h.h_min
let hist_max h = h.h_max

let hist_mean h =
  if h.n_obs = 0 then nan else float_of_int h.total /. float_of_int h.n_obs

let hist_buckets h =
  let acc = ref [] in
  for k = Array.length h.buckets - 1 downto 0 do
    if h.buckets.(k) > 0 then acc := (1 lsl k, h.buckets.(k)) :: !acc
  done;
  !acc

let of_trace ?into sink =
  let t = match into with Some t -> t | None -> create () in
  let rounds = counter t "rounds" in
  let sent = counter t "messages_sent" in
  let delivered = counter t "messages_delivered" in
  let dropped = counter t "messages_dropped" in
  let duplicated = counter t "messages_duplicated" in
  let delayed = counter t "messages_delayed" in
  let halts = counter t "nodes_halted" in
  let crashes = counter t "nodes_crashed" in
  let per_round = histogram t "messages_per_round" in
  let bits_hist = histogram t "bits_per_message" in
  let inbox = histogram t "inbox_size" in
  let max_bits = gauge t "max_message_bits" in
  let max_in_flight = gauge t "max_in_flight" in
  (* inbox sizes: deliveries grouped by destination within one round *)
  let inbox_now : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let flush_inboxes () =
    Hashtbl.iter (fun _dst k -> observe inbox k) inbox_now;
    Hashtbl.reset inbox_now
  in
  Trace.iter
    (fun ev ->
      match ev with
      | Trace.Round_start _ -> incr rounds
      | Trace.Round_end { sent; in_flight; _ } ->
          observe per_round sent;
          set max_in_flight (float_of_int in_flight);
          flush_inboxes ()
      | Trace.Message_sent { bits; _ } ->
          incr sent;
          observe bits_hist bits
      | Trace.Message_delivered { dst; _ } ->
          incr delivered;
          let k =
            match Hashtbl.find_opt inbox_now dst with Some k -> k | None -> 0
          in
          Hashtbl.replace inbox_now dst (k + 1)
      | Trace.Message_dropped _ -> incr dropped
      | Trace.Message_duplicated _ -> incr duplicated
      | Trace.Message_delayed _ -> incr delayed
      | Trace.Node_halted _ -> incr halts
      | Trace.Node_crashed _ -> incr crashes
      | Trace.Bandwidth_high_water { bits; _ } ->
          set max_bits (float_of_int bits)
      | Trace.Cost_charged { tag; rounds = r; messages = m; max_bits = b } ->
          incr ~by:r (counter t "cost_rounds");
          incr ~by:m (counter t "cost_messages");
          incr ~by:r (counter t ("cost." ^ tag ^ ".rounds"));
          observe (histogram t "cost_charge_rounds") r;
          set (gauge t "cost_max_bits") (float_of_int b)
      | Trace.Span_enter _ | Trace.Span_exit _ -> ())
    sink;
  flush_inboxes ();
  t

let names t = List.rev t.order

let float_str v =
  if Float.is_nan v then "nan" else Printf.sprintf "%g" v

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "metric,stat,value\n";
  List.iter
    (fun name ->
      match Hashtbl.find t.tbl name with
      | Counter c ->
          Buffer.add_string b (Printf.sprintf "%s,value,%d\n" name c.count)
      | Gauge g ->
          Buffer.add_string b
            (Printf.sprintf "%s,value,%s\n" name (float_str g.last));
          Buffer.add_string b
            (Printf.sprintf "%s,max,%s\n" name (float_str (gauge_max g)))
      | Histogram h ->
          Buffer.add_string b (Printf.sprintf "%s,count,%d\n" name h.n_obs);
          Buffer.add_string b (Printf.sprintf "%s,sum,%d\n" name h.total);
          if h.n_obs > 0 then begin
            Buffer.add_string b (Printf.sprintf "%s,min,%d\n" name h.h_min);
            Buffer.add_string b (Printf.sprintf "%s,max,%d\n" name h.h_max);
            Buffer.add_string b
              (Printf.sprintf "%s,mean,%s\n" name (float_str (hist_mean h)))
          end;
          List.iter
            (fun (ub, k) ->
              Buffer.add_string b (Printf.sprintf "%s,lt_%d,%d\n" name ub k))
            (hist_buckets h))
    (names t);
  Buffer.contents b

let to_json t =
  List.map
    (fun name ->
      let metric kind fields =
        Json.Obj
          (("metric", Json.Str name) :: ("kind", Json.Str kind) :: fields)
      in
      match Hashtbl.find t.tbl name with
      | Counter c -> metric "counter" [ ("value", Json.int c.count) ]
      | Gauge g ->
          metric "gauge"
            [
              ("value", Json.float "%g" g.last);
              ("max", Json.float "%g" (gauge_max g));
            ]
      | Histogram h ->
          let bucket (ub, k) = Json.Arr [ Json.int ub; Json.int k ] in
          metric "histogram"
            [
              ("count", Json.int h.n_obs);
              ("sum", Json.int h.total);
              ("min", Json.int (if h.n_obs = 0 then 0 else h.h_min));
              ("max", Json.int (if h.n_obs = 0 then 0 else h.h_max));
              ("buckets", Json.Arr (List.map bucket (hist_buckets h)));
            ])
    (names t)

let to_jsonl t =
  String.concat "" (List.map (fun j -> Json.to_string j ^ "\n") (to_json t))

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let save ?(dir = "bench_results") ~prefix t =
  ensure_dir dir;
  let csv_path = Filename.concat dir (prefix ^ "_metrics.csv") in
  let jsonl_path = Filename.concat dir (prefix ^ "_metrics.jsonl") in
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write csv_path (to_csv t);
  write jsonl_path (to_jsonl t);
  [ csv_path; jsonl_path ]

let pp ppf t =
  List.iter
    (fun name ->
      match Hashtbl.find t.tbl name with
      | Counter c -> Format.fprintf ppf "%-24s %d@." name c.count
      | Gauge g ->
          Format.fprintf ppf "%-24s %s (max %s)@." name (float_str g.last)
            (float_str (gauge_max g))
      | Histogram h ->
          if h.n_obs = 0 then Format.fprintf ppf "%-24s (empty)@." name
          else
            Format.fprintf ppf "%-24s n=%d sum=%d min=%d max=%d mean=%.1f@."
              name h.n_obs h.total h.h_min h.h_max (hist_mean h))
    (names t)
