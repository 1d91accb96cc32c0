open Dsgraph

type config = {
  inner_rounds : int;
  window : int;
  rto : int;
  heartbeat_every : int;
  liveness_timeout : int;
  backoff : float;
  max_rto : int;
  max_retries : int;
  jitter : int;
  jitter_seed : int;
}

let config ?(window = 2) ?(rto = 2) ?(heartbeat_every = 8)
    ?(liveness_timeout = 64) ?(backoff = 1.0) ?(max_rto = 0)
    ?(max_retries = 0) ?(jitter = 0) ?(jitter_seed = 0) ~inner_rounds () =
  if inner_rounds < 1 then invalid_arg "Reliable.config: inner_rounds < 1";
  if window < 1 then invalid_arg "Reliable.config: window < 1";
  if rto < 1 then invalid_arg "Reliable.config: rto < 1";
  if heartbeat_every < 1 then invalid_arg "Reliable.config: heartbeat_every < 1";
  if liveness_timeout <= rto + heartbeat_every then
    invalid_arg "Reliable.config: liveness_timeout too tight";
  if backoff < 1.0 then invalid_arg "Reliable.config: backoff < 1";
  if max_rto < 0 then invalid_arg "Reliable.config: negative max_rto";
  if max_rto > 0 && max_rto < rto then
    invalid_arg "Reliable.config: max_rto < rto";
  if max_retries < 0 then invalid_arg "Reliable.config: negative max_retries";
  if jitter < 0 then invalid_arg "Reliable.config: negative jitter";
  {
    inner_rounds;
    window;
    rto;
    heartbeat_every;
    liveness_timeout;
    backoff;
    max_rto;
    max_retries;
    jitter;
    jitter_seed;
  }

(* Deterministic integer mixer for retransmission jitter: a fixed
   function of (seed, node, neighbor, seq, attempt), so replays are
   byte-identical and independent of inbox arrival order. *)
let mix seed a b c d =
  let h = ref (seed lxor 0x2545F4914F6CDD1D) in
  let step x =
    h := !h lxor ((x * 0x9E3779B9) + (!h lsl 6) + (!h lsr 2));
    h := !h land max_int
  in
  step a;
  step b;
  step c;
  step d;
  !h

(* Current retransmission interval of a token: exponential backoff in
   the attempt count, capped by [max_rto], plus deterministic jitter.
   With the defaults (backoff 1, jitter 0) this is exactly [rto]. *)
let rto_for cfg ~node ~nbr ~seq ~attempts =
  let base =
    if cfg.backoff <= 1.0 then cfg.rto
    else
      let f = float_of_int cfg.rto *. (cfg.backoff ** float_of_int attempts) in
      if f >= 1e9 then 1_000_000_000 else int_of_float f
  in
  let base = if cfg.max_rto > 0 then min base cfg.max_rto else base in
  let j =
    if cfg.jitter > 0 then
      mix cfg.jitter_seed node nbr seq attempts mod (cfg.jitter + 1)
    else 0
  in
  max 1 (base + j)

let header_bits ~inner_rounds = (2 * Bits.int_bits (max 1 inner_rounds)) + 2

type 'msg frame = { ack : int; token : (int * 'msg option) option }

let frame_bits ~bits ~inner_rounds f =
  header_bits ~inner_rounds
  + match f.token with Some (_, Some m) -> bits m | _ -> 0

(* One queued token: produced at inner round [seq], last transmitted at
   outer round [last_tx] (-1 = never sent), retransmitted [attempts]
   times so far (the initial transmission is not an attempt). *)
type 'msg pkt = {
  seq : int;
  payload : 'msg option;
  mutable last_tx : int;
  mutable attempts : int;
}

type 'msg link = {
  mutable alive : bool;
  outq : 'msg pkt Queue.t; (* seq order, length <= window *)
  mutable acked : int; (* all seq <= acked are acknowledged *)
  mutable recv_next : int; (* next in-order seq expected *)
  oob : (int, 'msg option) Hashtbl.t; (* out-of-order buffer *)
  delivered : (int, 'msg option) Hashtbl.t; (* in-order, not yet consumed *)
  mutable last_heard : int;
  mutable last_sent : int;
  mutable ack_dirty : bool;
  mutable staged_at : int; (* inner round of the payload in [staged] *)
  mutable staged : 'msg option;
}

type ('st, 'msg) node = {
  cfg : config;
  mutable inner_state : 'st;
  mutable k : int; (* inner rounds executed *)
  links : (int, 'msg link) Hashtbl.t;
  sorted_nbrs : int array; (* ascending, to reproduce Sim inbox order *)
  mutable outer : int;
  mutable retransmissions : int;
  mutable heartbeats : int;
  mutable detected : int list;
  inbox : 'msg Sim.inbox; (* the inner round's deliveries, reused *)
  out : 'msg Sim.out; (* the inner round's sends, reused *)
}

let inner_state st = st.inner_state
let finished st = st.k >= st.cfg.inner_rounds
let dead_neighbors st = List.sort compare st.detected

type transport_stats = {
  retransmissions : int;
  heartbeats : int;
  detected_dead : int list;
}

let transport_stats (nodes : ('st, 'msg) node array) =
  let retransmissions =
    Array.fold_left (fun a (st : ('st, 'msg) node) -> a + st.retransmissions) 0
      nodes
  in
  let heartbeats =
    Array.fold_left (fun a (st : ('st, 'msg) node) -> a + st.heartbeats) 0 nodes
  in
  let detected_dead =
    Array.fold_left (fun a st -> List.rev_append st.detected a) [] nodes
    |> List.sort_uniq compare
  in
  { retransmissions; heartbeats; detected_dead }

let link_of st u =
  match Hashtbl.find_opt st.links u with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Reliable: no link to %d" u)

let receive st u (f : 'msg frame) =
  let l = link_of st u in
  if l.alive then begin
    l.last_heard <- st.outer;
    if f.ack > l.acked then begin
      l.acked <- f.ack;
      while
        (not (Queue.is_empty l.outq)) && (Queue.peek l.outq).seq <= f.ack
      do
        ignore (Queue.take l.outq)
      done
    end;
    match f.token with
    | None -> ()
    | Some (seq, payload) ->
        if seq < l.recv_next then
          (* duplicate or retransmission of a delivered token: our ack was
             lost, so re-ack instead of re-delivering *)
          l.ack_dirty <- true
        else if seq = l.recv_next then begin
          Hashtbl.replace l.delivered seq payload;
          l.recv_next <- seq + 1;
          let rec drain () =
            match Hashtbl.find_opt l.oob l.recv_next with
            | Some p ->
                Hashtbl.remove l.oob l.recv_next;
                Hashtbl.replace l.delivered l.recv_next p;
                l.recv_next <- l.recv_next + 1;
                drain ()
            | None -> ()
          in
          drain ();
          l.ack_dirty <- true
        end
        else begin
          Hashtbl.replace l.oob seq payload;
          l.ack_dirty <- true
        end
  end

(* A link is awaited when progress depends on hearing from it: tokens of
   ours unacknowledged, or we are blocked on its next token. *)
let awaited st l =
  (not (Queue.is_empty l.outq)) || ((not (finished st)) && l.recv_next <= st.k)

(* Capped retry: with [max_retries > 0], a token retransmitted that many
   times without an acknowledgement condemns its link even before the
   silence timeout fires. *)
let retries_exhausted st l =
  st.cfg.max_retries > 0
  &&
  match Queue.peek_opt l.outq with
  | Some p -> p.attempts >= st.cfg.max_retries
  | None -> false

let detect_dead st =
  Array.iter
    (fun u ->
      let l = link_of st u in
      if
        l.alive && awaited st l
        && (st.outer - l.last_heard > st.cfg.liveness_timeout
           || retries_exhausted st l)
      then begin
        l.alive <- false;
        Queue.clear l.outq;
        Hashtbl.reset l.oob;
        st.detected <- u :: st.detected
      end)
    st.sorted_nbrs

let can_execute st =
  st.k < st.cfg.inner_rounds
  && Array.for_all
       (fun u ->
         let l = link_of st u in
         (not l.alive)
         || (l.recv_next >= st.k + 1 && Queue.length l.outq < st.cfg.window))
       st.sorted_nbrs

let execute_inner (inner : ('st, 'msg) Sim.program) ~node st =
  let r = st.k + 1 in
  Sim.Inbox.clear st.inbox;
  Array.iter
    (fun u ->
      let l = link_of st u in
      match Hashtbl.find_opt l.delivered (r - 1) with
      | Some tok -> (
          Hashtbl.remove l.delivered (r - 1);
          match tok with
          | Some m when l.alive -> Sim.Inbox.add st.inbox u m
          | _ -> ())
      | None -> ())
    st.sorted_nbrs;
  Sim.Out.reset st.out;
  (* the inner program runs every inner round, so its wake hint is
     dropped; it still reads its own round number *)
  Sim.Out.set_round st.out r;
  st.inner_state <-
    inner.Sim.round ~node ~state:st.inner_state ~inbox:st.inbox ~out:st.out;
  for i = 0 to Sim.Out.length st.out - 1 do
    let dst = Sim.Out.dst st.out i in
    match Hashtbl.find_opt st.links dst with
    | None ->
        invalid_arg
          (Printf.sprintf "Reliable: node %d sent to non-neighbor %d" node dst)
    | Some l ->
        if l.staged_at = r then
          invalid_arg
            (Printf.sprintf "Reliable: node %d sent twice to %d in one round"
               node dst);
        l.staged_at <- r;
        l.staged <- Some (Sim.Out.msg st.out i)
  done;
  Array.iter
    (fun u ->
      let l = link_of st u in
      if l.alive then
        Queue.add
          {
            seq = r;
            payload = (if l.staged_at = r then l.staged else None);
            last_tx = -1;
            attempts = 0;
          }
          l.outq)
    st.sorted_nbrs;
  st.k <- r

let frame_for st ~node ~nbr l =
  let token =
    match Queue.peek_opt l.outq with
    | Some p
      when p.last_tx >= 0
           && st.outer - p.last_tx
              >= rto_for st.cfg ~node ~nbr ~seq:p.seq ~attempts:p.attempts ->
        p.last_tx <- st.outer;
        p.attempts <- p.attempts + 1;
        st.retransmissions <- st.retransmissions + 1;
        Some (p.seq, p.payload)
    | _ -> (
        match Seq.find (fun p -> p.last_tx < 0) (Queue.to_seq l.outq) with
        | Some p ->
            p.last_tx <- st.outer;
            Some (p.seq, p.payload)
        | None -> None)
  in
  match token with
  | Some _ -> Some { ack = l.recv_next - 1; token }
  | None ->
      if l.ack_dirty then Some { ack = l.recv_next - 1; token = None }
      else if
        (not (finished st)) && st.outer - l.last_sent >= st.cfg.heartbeat_every
      then begin
        st.heartbeats <- st.heartbeats + 1;
        Some { ack = l.recv_next - 1; token = None }
      end
      else None

let wrap cfg (inner : ('st, 'msg) Sim.program) :
    (('st, 'msg) node, 'msg frame) Sim.program =
  let init ~node ~neighbors =
    let links = Hashtbl.create (Array.length neighbors) in
    Array.iter
      (fun u ->
        Hashtbl.replace links u
          {
            alive = true;
            outq = Queue.create ();
            acked = 0;
            recv_next = 1;
            oob = Hashtbl.create 4;
            delivered = Hashtbl.create 4;
            last_heard = 0;
            last_sent = 0;
            ack_dirty = false;
            staged_at = 0;
            staged = None;
          })
      neighbors;
    let sorted_nbrs = Array.copy neighbors in
    Array.sort compare sorted_nbrs;
    {
      cfg;
      inner_state = inner.Sim.init ~node ~neighbors;
      k = 0;
      links;
      sorted_nbrs;
      outer = 0;
      retransmissions = 0;
      heartbeats = 0;
      detected = [];
      inbox = Sim.Inbox.create ();
      out = Sim.Out.create ();
    }
  in
  let round ~node ~state:st ~inbox ~out =
    st.outer <- st.outer + 1;
    Sim.Inbox.iter (receive st) inbox;
    detect_dead st;
    while can_execute st do
      execute_inner inner ~node st
    done;
    Array.iter
      (fun u ->
        let l = link_of st u in
        if l.alive then
          match frame_for st ~node ~nbr:u l with
          | Some f ->
              l.last_sent <- st.outer;
              l.ack_dirty <- false;
              Sim.send out u f
          | None -> ())
      st.sorted_nbrs;
    if
      finished st
      && Array.for_all
           (fun u ->
             let l = link_of st u in
             (not l.alive) || Queue.is_empty l.outq)
           st.sorted_nbrs
    then Sim.halt out;
    st
  in
  { Sim.init; round }

type 'st result = {
  states : 'st array;
  finished : bool array;
  dead_view : int list array;
  sim_stats : Sim.stats;
  transport : transport_stats;
}

let simulate ?(sim = Sim.Config.default) cfg ~bits g inner =
  (* Sim.Config transport knobs override the transport config, so
     harnesses can thread detection timeouts and windows through the one
     run-configuration record; None leaves cfg untouched. Re-validated
     through the smart constructor. *)
  let cfg =
    match
      ( sim.Sim.Config.transport_window,
        sim.Sim.Config.transport_rto,
        sim.Sim.Config.liveness_timeout )
    with
    | None, None, None -> cfg
    | w, r, l ->
        config ~inner_rounds:cfg.inner_rounds
          ~window:(Option.value w ~default:cfg.window)
          ~rto:(Option.value r ~default:cfg.rto)
          ~heartbeat_every:cfg.heartbeat_every
          ~liveness_timeout:(Option.value l ~default:cfg.liveness_timeout)
          ~backoff:cfg.backoff ~max_rto:cfg.max_rto
          ~max_retries:cfg.max_retries ~jitter:cfg.jitter
          ~jitter_seed:cfg.jitter_seed ()
  in
  let n = Graph.n g in
  let inner_bw =
    Option.value sim.Sim.Config.bandwidth ~default:(Bits.bandwidth ~n)
  in
  let hdr = header_bits ~inner_rounds:cfg.inner_rounds in
  let max_rounds =
    Option.value sim.Sim.Config.max_rounds
      ~default:((6 * cfg.inner_rounds) + (8 * cfg.liveness_timeout) + 64)
  in
  let config =
    {
      sim with
      Sim.Config.max_rounds = Some max_rounds;
      bandwidth = Some (inner_bw + hdr);
    }
  in
  let prog = wrap cfg inner in
  let nodes, sim_stats =
    Sim.simulate ~config
      ~bits:(frame_bits ~bits ~inner_rounds:cfg.inner_rounds)
      g prog
  in
  {
    states = Array.map inner_state nodes;
    finished = Array.map finished nodes;
    dead_view = Array.map dead_neighbors nodes;
    sim_stats;
    transport = transport_stats nodes;
  }

