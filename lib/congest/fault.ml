open Dsgraph

type burst = {
  from_round : int;
  until_round : int;
  on_edges : (int * int) list option;
}

type spec = {
  seed : int;
  drop : float;
  duplicate : float;
  delay : float;
  delay_window : int;
  bursts : burst list;
  crashes : (int * int) list;
  revives : (int * int) list;
}

let spec ?(seed = 0) ?(drop = 0.0) ?(duplicate = 0.0) ?(delay = 0.0)
    ?(delay_window = 0) ?(bursts = []) ?(crashes = []) ?(revives = []) () =
  { seed; drop; duplicate; delay; delay_window; bursts; crashes; revives }

type t = {
  sp : spec;
  rng : Rng.t;
  (* [Rng.threshold] of the cumulative drop, drop + duplicate and total
     rates: a [Rng.bits53] draw below one is the [Rng.float] draw below
     the rate, without boxing a float per message *)
  drop_below : int;
  duplicate_below : int;
  delay_below : int;
  crash_round : (int, int) Hashtbl.t;
  (* per node, sorted disjoint down intervals [from, until): crashed at
     [r] iff some interval contains [r]; [max_int] = never revived *)
  churn : (int, (int * int) list) Hashtbl.t;
  mutable n_dropped : int;
  mutable n_duplicated : int;
  mutable n_delayed : int;
}

let create sp =
  let check_rate name r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg (Printf.sprintf "Fault.create: %s rate %g not in [0,1]" name r)
  in
  check_rate "drop" sp.drop;
  check_rate "duplicate" sp.duplicate;
  check_rate "delay" sp.delay;
  if sp.delay_window < 0 then invalid_arg "Fault.create: negative delay_window";
  List.iter
    (fun b ->
      if b.until_round < b.from_round || b.from_round < 1 then
        invalid_arg "Fault.create: bad burst window")
    sp.bursts;
  let crash_round = Hashtbl.create (List.length sp.crashes) in
  List.iter
    (fun (v, r) ->
      if r < 1 then invalid_arg "Fault.create: crash round must be >= 1";
      match Hashtbl.find_opt crash_round v with
      | Some r' -> Hashtbl.replace crash_round v (min r r')
      | None -> Hashtbl.add crash_round v r)
    sp.crashes;
  (* churn schedule: per node, crash and revive rounds must strictly
     interleave (c1 < r1 < c2 < r2 < ...), each revive answering the
     crash before it; a trailing crash leaves the node down forever *)
  let churn = Hashtbl.create (Hashtbl.length crash_round) in
  let by_node events =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (v, r) ->
        Hashtbl.replace tbl v
          (r :: Option.value (Hashtbl.find_opt tbl v) ~default:[]))
      events;
    tbl
  in
  let crashes_of = by_node sp.crashes and revives_of = by_node sp.revives in
  List.iter
    (fun (v, r) ->
      if r < 1 then invalid_arg "Fault.create: revive round must be >= 1";
      if not (Hashtbl.mem crashes_of v) then
        invalid_arg
          (Printf.sprintf "Fault.create: node %d revived but never crashed" v))
    sp.revives;
  Hashtbl.iter
    (fun v rs ->
      let cs = List.sort compare rs in
      let vs =
        List.sort compare (Option.value (Hashtbl.find_opt revives_of v) ~default:[])
      in
      let rec intervals cs vs acc =
        match (cs, vs) with
        | [], [] -> List.rev acc
        | [], _ :: _ ->
            invalid_arg
              (Printf.sprintf "Fault.create: node %d has more revives than crashes" v)
        | c :: cs', [] -> intervals cs' [] ((c, max_int) :: acc)
        | c :: cs', r :: vs' ->
            if r <= c then
              invalid_arg
                (Printf.sprintf
                   "Fault.create: node %d revive round %d not after crash round %d"
                   v r c)
            else begin
              (match cs' with
              | c' :: _ when c' < r ->
                  invalid_arg
                    (Printf.sprintf
                       "Fault.create: node %d crashes again at %d before revive at %d"
                       v c' r)
              | _ -> ());
              intervals cs' vs' ((c, r) :: acc)
            end
      in
      Hashtbl.replace churn v (intervals cs vs []))
    crashes_of;
  {
    sp;
    rng = Rng.create sp.seed;
    drop_below = Rng.threshold sp.drop;
    duplicate_below = Rng.threshold (sp.drop +. sp.duplicate);
    delay_below = Rng.threshold (sp.drop +. sp.duplicate +. sp.delay);
    crash_round;
    churn;
    n_dropped = 0;
    n_duplicated = 0;
    n_delayed = 0;
  }

let spec_of t = t.sp

type fate = Deliver | Drop | Duplicate of int | Delay of int

(* the closure is made only when there are bursts to check *)
let in_burst t ~round ~src ~dst =
  t.sp.bursts <> []
  && List.exists
    (fun b ->
      round >= b.from_round && round <= b.until_round
      &&
      match b.on_edges with
      | None -> true
      | Some es ->
          List.exists (fun (u, v) -> (u = src && v = dst) || (u = dst && v = src)) es)
    t.sp.bursts

let fate t ~round ~src ~dst =
  if in_burst t ~round ~src ~dst then begin
    t.n_dropped <- t.n_dropped + 1;
    Drop
  end
  else begin
    if t.delay_below = 0 then Deliver
    else
      let u = Rng.bits53 t.rng in
      if u < t.drop_below then begin
        t.n_dropped <- t.n_dropped + 1;
        Drop
      end
      else if u < t.duplicate_below then begin
        t.n_duplicated <- t.n_duplicated + 1;
        let d = if t.sp.delay_window > 0 then Rng.int t.rng (t.sp.delay_window + 1) else 0 in
        Duplicate d
      end
      else if u < t.delay_below && t.sp.delay_window > 0 then begin
        t.n_delayed <- t.n_delayed + 1;
        Delay (1 + Rng.int t.rng t.sp.delay_window)
      end
      else Deliver
  end

let is_crashed t ~round v =
  match Hashtbl.find_opt t.churn v with
  | Some intervals ->
      List.exists (fun (c, r) -> round >= c && round < r) intervals
  | None -> false

let crashed_nodes t ~upto_round =
  List.sort compare
    (Hashtbl.fold
       (fun v r acc -> if r <= upto_round then v :: acc else acc)
       t.crash_round [])

let down_nodes t ~round =
  List.sort compare
    (Hashtbl.fold
       (fun v _ acc -> if is_crashed t ~round v then v :: acc else acc)
       t.churn [])

let count_drop t = t.n_dropped <- t.n_dropped + 1
let dropped t = t.n_dropped
let duplicated t = t.n_duplicated
let delayed t = t.n_delayed

let pp fmt t =
  Format.fprintf fmt
    "adversary seed=%d drop=%.3f dup=%.3f delay=%.3f window=%d bursts=%d \
     crashes=%d revives=%d | dropped=%d duplicated=%d delayed=%d"
    t.sp.seed t.sp.drop t.sp.duplicate t.sp.delay t.sp.delay_window
    (List.length t.sp.bursts)
    (Hashtbl.length t.crash_round)
    (List.length t.sp.revives) t.n_dropped t.n_duplicated t.n_delayed
