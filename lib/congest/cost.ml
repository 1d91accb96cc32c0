type t = {
  mutable rounds : int;
  mutable messages : int;
  mutable max_bits : int;
  tags : (string, int) Hashtbl.t;
  trace : Trace.sink option;
}

let create ?trace () =
  { rounds = 0; messages = 0; max_bits = 0; tags = Hashtbl.create 8; trace }

let trace t = t.trace

let charge t ?(rounds = 1) ?(messages = 0) ?(max_bits = 0) tag =
  if rounds < 0 || messages < 0 then invalid_arg "Cost.charge: negative charge";
  t.rounds <- t.rounds + rounds;
  t.messages <- t.messages + messages;
  if max_bits > t.max_bits then t.max_bits <- max_bits;
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.tags tag) in
  Hashtbl.replace t.tags tag (prev + rounds);
  match t.trace with
  | None -> ()
  | Some s -> Trace.record s (Trace.Cost_charged { tag; rounds; messages; max_bits })

let rounds t = t.rounds
let messages t = t.messages
let max_message_bits t = t.max_bits

let breakdown t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tags [])

let reset t =
  t.rounds <- 0;
  t.messages <- 0;
  t.max_bits <- 0;
  Hashtbl.reset t.tags

let parallel acc metered tag =
  let max_rounds = List.fold_left (fun m sub -> max m sub.rounds) 0 metered in
  let sum_messages = List.fold_left (fun s sub -> s + sub.messages) 0 metered in
  let max_bits = List.fold_left (fun b sub -> max b sub.max_bits) 0 metered in
  charge acc ~rounds:max_rounds ~messages:sum_messages ~max_bits tag

let pp fmt t =
  Format.fprintf fmt "@[<v>rounds=%d messages=%d max_msg_bits=%d" t.rounds
    t.messages t.max_bits;
  List.iter
    (fun (tag, r) -> Format.fprintf fmt "@,  %-24s %d" tag r)
    (breakdown t);
  Format.fprintf fmt "@]"
