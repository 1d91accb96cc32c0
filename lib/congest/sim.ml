open Dsgraph

exception
  Bandwidth_exceeded of {
    node : int;
    dst : int;
    round : int;
    bits : int;
    bandwidth : int;
  }

exception Incomplete of { max_rounds : int; running : int }

(* ------------------------------------------------------------------ *)
(* Inbox views and outboxes                                            *)
(* ------------------------------------------------------------------ *)

let grow_ints a len =
  let b = Array.make (max 8 (2 * len)) 0 in
  Array.blit a 0 b 0 len;
  b
[@@alloc_ok "amortized doubling: a buffer grows only to its peak size"]

let grow_msgs a len x =
  let b = Array.make (max 8 (2 * len)) x in
  Array.blit a 0 b 0 len;
  b
[@@alloc_ok "amortized doubling: a buffer grows only to its peak size"]

(* Growable parallel arrays of (node, message): an inbox pairs each
   message with its source, an outbox with its destination. The message
   array starts empty and is first sized on the first push, with that
   message as filler, so no dummy ['msg] value is ever needed. *)
type 'msg vec = {
  mutable nodes : int array;
  mutable msgs : 'msg array;
  mutable len : int;
}

let vec () = { nodes = [||]; msgs = [||]; len = 0 }

let push v node msg =
  let k = v.len in
  if k = Array.length v.nodes then begin
    v.nodes <- grow_ints v.nodes k;
    v.msgs <- grow_msgs v.msgs k msg
  end;
  Array.unsafe_set v.nodes k node;
  Array.unsafe_set v.msgs k msg;
  v.len <- k + 1
[@@hot]

type 'msg inbox = 'msg vec

module Inbox = struct
  type 'msg t = 'msg inbox

  let create = vec
  let clear ib = ib.len <- 0
  let add = push
  let length ib = ib.len
  let is_empty ib = ib.len = 0

  let iter f ib =
    for i = 0 to ib.len - 1 do
      f (Array.unsafe_get ib.nodes i) (Array.unsafe_get ib.msgs i)
    done

  let fold f acc ib =
    let rec go acc i =
      if i >= ib.len then acc
      else
        go (f acc (Array.unsafe_get ib.nodes i) (Array.unsafe_get ib.msgs i)) (i + 1)
    in
    go acc 0

  let to_list ib = List.init ib.len (fun i -> (ib.nodes.(i), ib.msgs.(i)))

  let of_list l =
    let ib = vec () in
    List.iter (fun (src, msg) -> push ib src msg) l;
    ib
end

(* [idle_for]: the wake hint of this call, rounds the node may skip;
   [round]: the 1-based round being run, set by whoever owns the outbox *)
type 'msg out = {
  sends : 'msg vec;
  mutable halt_vote : bool;
  mutable idle_for : int;
  mutable round : int;
}

let send o dst msg = push o.sends dst msg
let halt o = o.halt_vote <- true
let idle o ~rounds = o.idle_for <- max 0 rounds
let round o = o.round

module Out = struct
  type 'msg t = 'msg out

  let create () = { sends = vec (); halt_vote = false; idle_for = 0; round = 0 }

  let reset o =
    o.sends.len <- 0;
    o.halt_vote <- false;
    o.idle_for <- 0

  let set_round o r = o.round <- r
  let length o = o.sends.len
  let halted o = o.halt_vote

  let check o i =
    if i < 0 || i >= o.sends.len then invalid_arg "Sim.Out: index out of range"

  let dst o i =
    check o i;
    o.sends.nodes.(i)

  let msg o i =
    check o i;
    o.sends.msgs.(i)
end

type ('st, 'msg) program = {
  init : node:int -> neighbors:int array -> 'st;
  round : node:int -> state:'st -> inbox:'msg inbox -> out:'msg out -> 'st;
}

type fault_stats = {
  dropped : int;
  duplicated : int;
  delayed : int;
  crashed : int list;
}

let no_faults = { dropped = 0; duplicated = 0; delayed = 0; crashed = [] }

type stats = {
  rounds_used : int;
  total_messages : int;
  max_bits_seen : int;
  all_halted : bool;
  faults : fault_stats;
}

module Config = struct
  type t = {
    max_rounds : int option;
    bandwidth : int option;
    adversary : Fault.t option;
    on_incomplete : [ `Ignore | `Warn | `Raise ];
    trace : Trace.sink option;
    transport_window : int option;
    transport_rto : int option;
    liveness_timeout : int option;
  }

  let default =
    {
      max_rounds = None;
      bandwidth = None;
      adversary = None;
      on_incomplete = `Warn;
      trace = None;
      transport_window = None;
      transport_rto = None;
      liveness_timeout = None;
    }

  let with_max_rounds max_rounds t = { t with max_rounds = Some max_rounds }
  let with_bandwidth bandwidth t = { t with bandwidth = Some bandwidth }
  let with_adversary adversary t = { t with adversary = Some adversary }
  let with_on_incomplete on_incomplete t = { t with on_incomplete }
  let with_trace sink t = { t with trace = Some sink }

  let with_transport_window transport_window t =
    { t with transport_window = Some transport_window }

  let with_transport_rto transport_rto t =
    { t with transport_rto = Some transport_rto }

  let with_liveness_timeout liveness_timeout t =
    { t with liveness_timeout = Some liveness_timeout }
end

let log_src = Logs.Src.create "congest.sim" ~doc:"CONGEST simulator"

module Log = (val Logs.src_log log_src)

(* ------------------------------------------------------------------ *)
(* The fabric: a ring of flat round buffers                            *)
(* ------------------------------------------------------------------ *)

(* One round buffer: every message due in one round, in schedule order,
   with a per-destination chain through [s_next] so a node's inbox is
   read in that order without sorting. Between rounds every [s_head]
   entry is -1. *)
type 'msg slot = {
  mutable s_len : int;
  mutable s_dst : int array;
  mutable s_src : int array;
  mutable s_msg : 'msg array;
  mutable s_next : int array;
  s_head : int array;  (* per destination: first message, -1 = none *)
  s_tail : int array;  (* per destination: last message *)
}

let new_slot n =
  {
    s_len = 0;
    s_dst = [||];
    s_src = [||];
    s_msg = [||];
    s_next = [||];
    s_head = Array.make n (-1);
    s_tail = Array.make n (-1);
  }

let grow_slot s k msg =
  s.s_dst <- grow_ints s.s_dst k;
  s.s_src <- grow_ints s.s_src k;
  s.s_next <- grow_ints s.s_next k;
  s.s_msg <- grow_msgs s.s_msg k msg
[@@alloc_ok "amortized doubling: a buffer grows only to its peak size"]

(* Per-run simulator state. A message sent in round [r] with extra delay
   [d <= delay_window] lands in [ring.((r + 1 + d) mod (delay_window + 2))],
   never in the buffer of round [r] that is being read. *)
type 'msg fabric = {
  g : Graph.t;
  bits : 'msg -> int;
  bandwidth : int;
  adversary : Fault.t option;
  trace : Trace.sink option;
  ring : 'msg slot array;
  stamp : int array;
      (* [stamp.(dst) = gen]: the node now sending already used its edge
         to [dst] this round *)
  mutable gen : int;
  mutable pending : int;  (* scheduled, not yet delivered or dropped *)
  mutable total_messages : int;
  mutable max_bits_seen : int;
  mutable sent : int;  (* this round, for Round_end *)
  mutable delivered : int;  (* this round, for Round_end *)
}

let slot f round = f.ring.(round mod Array.length f.ring)

let schedule f ~at dst src msg =
  let s = slot f at in
  let k = s.s_len in
  if k = Array.length s.s_dst then grow_slot s k msg;
  s.s_dst.(k) <- dst;
  s.s_src.(k) <- src;
  s.s_msg.(k) <- msg;
  s.s_next.(k) <- -1;
  if s.s_head.(dst) < 0 then s.s_head.(dst) <- k
  else s.s_next.(s.s_tail.(dst)) <- k;
  s.s_tail.(dst) <- k;
  s.s_len <- k + 1;
  f.pending <- f.pending + 1
[@@hot]

(* Round-level accounting of this round's buffer. Only traced or
   adversarial runs look at individual messages; they walk the buffer
   backwards, the delivery order the golden trace test pins. *)
let arrivals f s ~round =
  f.pending <- f.pending - s.s_len;
  f.delivered <- s.s_len;
  let observed =
    match f.trace with
    | Some _ -> true
    | None -> ( match f.adversary with Some _ -> true | None -> false)
  in
  if observed then
    for i = s.s_len - 1 downto 0 do
      let dst = s.s_dst.(i) and src = s.s_src.(i) in
      match f.adversary with
      | Some adv when Fault.is_crashed adv ~round dst -> (
          Fault.count_drop adv;
          f.delivered <- f.delivered - 1;
          match f.trace with
          | None -> ()
          | Some t ->
              Trace.record t
                (Trace.Message_dropped
                   { round; src; dst; reason = Trace.Crashed_destination }))
      | _ -> (
          match f.trace with
          | None -> ()
          | Some t -> Trace.emit_message_delivered t ~round ~src ~dst)
    done

(* Delivery step: [v]'s messages of this round, in send order, into the
   reusable inbox view; leaves [v]'s chain empty. *)
let rec copy_chain s ib i =
  if i >= 0 then begin
    push ib s.s_src.(i) s.s_msg.(i);
    copy_chain s ib s.s_next.(i)
  end

let deliver s v ib =
  ib.len <- 0;
  copy_chain s ib s.s_head.(v);
  s.s_head.(v) <- -1
[@@hot]

let adversarial_send f adv ~round ~src ~dst msg =
  let note ev = match f.trace with None -> () | Some t -> Trace.record t ev in
  if Fault.is_crashed adv ~round dst then begin
    Fault.count_drop adv;
    note
      (Trace.Message_dropped
         { round; src; dst; reason = Trace.Crashed_destination })
  end
  else
    match Fault.fate adv ~round ~src ~dst with
    | Fault.Deliver -> schedule f ~at:(round + 1) dst src msg
    | Fault.Drop ->
        note
          (Trace.Message_dropped { round; src; dst; reason = Trace.Adversary })
    | Fault.Duplicate d ->
        schedule f ~at:(round + 1) dst src msg;
        schedule f ~at:(round + 1 + d) dst src msg;
        note (Trace.Message_duplicated { round; src; dst; copy_delay = d })
    | Fault.Delay d ->
        schedule f ~at:(round + 1 + d) dst src msg;
        note (Trace.Message_delayed { round; src; dst; delay = d })
[@@alloc_ok "adversarial runs only: fates and trace events are boxed"]

let high_water f ~round ~src b =
  f.max_bits_seen <- b;
  match f.trace with
  | None -> ()
  | Some t ->
      Trace.record t (Trace.Bandwidth_high_water { round; node = src; bits = b })
[@@alloc_ok "once per new bandwidth high-water mark"]

(* Send step: checks [src]'s outbox in send order and schedules it. *)
let send_step f ~round ~src o =
  let sends = o.sends in
  if sends.len > 0 then begin
    f.gen <- f.gen + 1;
    for i = 0 to sends.len - 1 do
      let dst = sends.nodes.(i) and msg = sends.msgs.(i) in
      if not (Graph.is_edge f.g src dst) then
        invalid_arg
          (Printf.sprintf "Sim.simulate: node %d sent to non-neighbor %d" src dst);
      if f.stamp.(dst) = f.gen then
        invalid_arg
          (Printf.sprintf "Sim.simulate: node %d sent twice to %d in one round"
             src dst);
      f.stamp.(dst) <- f.gen;
      let b = f.bits msg in
      if b > f.bandwidth then
        raise
          (Bandwidth_exceeded
             { node = src; dst; round; bits = b; bandwidth = f.bandwidth });
      if b > f.max_bits_seen then high_water f ~round ~src b;
      f.total_messages <- f.total_messages + 1;
      f.sent <- f.sent + 1;
      (match f.trace with
      | None -> ()
      | Some t -> Trace.emit_message_sent t ~round ~src ~dst ~bits:b);
      match f.adversary with
      | None -> schedule f ~at:(round + 1) dst src msg
      | Some adv -> adversarial_send f adv ~round ~src ~dst msg
    done
  end
[@@hot]

let simulate ?(config = Config.default) ~bits g program =
  let {
    Config.max_rounds;
    bandwidth;
    adversary;
    on_incomplete;
    trace;
    (* transport knobs are consumed by Reliable.simulate, not here *)
    transport_window = _;
    transport_rto = _;
    liveness_timeout = _;
  } =
    config
  in
  let n = Graph.n g in
  let max_rounds = Option.value max_rounds ~default:((4 * n) + 16) in
  let bandwidth = Option.value bandwidth ~default:(Bits.bandwidth ~n) in
  let delay_window =
    match adversary with
    | None -> 0
    | Some adv -> (Fault.spec_of adv).Fault.delay_window
  in
  let f =
    {
      g;
      bits;
      bandwidth;
      adversary;
      trace;
      ring = Array.init (delay_window + 2) (fun _ -> new_slot n);
      stamp = Array.make n 0;
      gen = 0;
      pending = 0;
      total_messages = 0;
      max_bits_seen = 0;
      sent = 0;
      delivered = 0;
    }
  in
  let states = Array.init n (fun v -> program.init ~node:v ~neighbors:(Graph.neighbors g v)) in
  let halted = Array.make n false in
  (* nodes whose [halted] entry is true, kept as the entries change *)
  let n_halted = ref 0 in
  let set_halted v h =
    if h <> halted.(v) then begin
      halted.(v) <- h;
      if h then incr n_halted else decr n_halted
    end
  in
  (* [wake.(v)]: the first round [v] must be run without mail; a skipped
     node keeps its last halt vote *)
  let wake = Array.make n 0 in
  let inbox = Inbox.create () and out = Out.create () in
  let rounds_used = ref 0 in
  let crashed_at round v =
    match adversary with
    | Some adv -> Fault.is_crashed adv ~round v
    | None -> false
  in
  let adversarial = Option.is_some adversary in
  let continue = ref true in
  while !continue && !rounds_used < max_rounds do
    incr rounds_used;
    let round = !rounds_used in
    f.sent <- 0;
    (match trace with None -> () | Some t -> Trace.emit_round_start t ~round);
    let s = slot f round in
    arrivals f s ~round;
    for v = 0 to n - 1 do
      if adversarial && crashed_at round v then begin
        (match trace with
        | None -> ()
        | Some t ->
            if not (crashed_at (round - 1) v) then
              Trace.record t (Trace.Node_crashed { round; node = v }));
        set_halted v true;
        s.s_head.(v) <- -1
      end
      else if wake.(v) <= round || s.s_head.(v) >= 0 then begin
        let was_halted = halted.(v) in
        deliver s v inbox;
        Out.reset out;
        out.round <- round;
        states.(v) <- program.round ~node:v ~state:states.(v) ~inbox ~out;
        let halt = out.halt_vote in
        set_halted v halt;
        (* next round without mail, saturating at [max_int] *)
        wake.(v) <-
          (if out.idle_for = 0 then 0
           else if out.idle_for >= max_int - round then max_int
           else round + 1 + out.idle_for);
        (match trace with
        | None -> ()
        | Some t ->
            if halt && not was_halted then Trace.emit_node_halted t ~round ~node:v);
        send_step f ~round ~src:v out
      end
    done;
    s.s_len <- 0;
    (match trace with
    | None -> ()
    | Some t ->
        Trace.emit_round_end t ~round ~sent:f.sent ~delivered:f.delivered
          ~in_flight:f.pending ~halted:!n_halted);
    if !n_halted = n && f.pending = 0 then continue := false
  done;
  let all_halted = !n_halted = n in
  if (not all_halted) || f.pending > 0 then begin
    let running = n - !n_halted in
    match on_incomplete with
    | `Ignore -> ()
    | `Warn ->
        Log.warn (fun m ->
            m
              "Sim.simulate: stopped at max_rounds=%d with %d node(s) still \
               running and %d message(s) in flight"
              max_rounds running f.pending)
    | `Raise -> raise (Incomplete { max_rounds; running })
  end;
  let faults =
    match adversary with
    | None -> no_faults
    | Some adv ->
        {
          dropped = Fault.dropped adv;
          duplicated = Fault.duplicated adv;
          delayed = Fault.delayed adv;
          crashed = Fault.crashed_nodes adv ~upto_round:!rounds_used;
        }
  in
  ( states,
    {
      rounds_used = !rounds_used;
      total_messages = f.total_messages;
      max_bits_seen = f.max_bits_seen;
      all_halted;
      faults;
    } )
