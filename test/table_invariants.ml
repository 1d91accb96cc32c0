(* The invariants of the one per-span table (Congest.Span.rollups), in
   one place for every suite that builds a table:

   - self rounds, messages and bits over all rows equal the
     Metrics.of_trace globals;
   - with the causal group, critical + slack over all rows equals the
     analysis' rounds, and critical alone its critical rounds;
   - with the resource group, self words and major collections equal
     the snapshot's totals exactly (integral word counts stored in
     floats add without rounding below 2^53), seconds to rounding;
   - inclusive >= self in every row and column. *)

module Trace = Congest.Trace
module Span = Congest.Span
module Metrics = Congest.Metrics
module Causal = Congest.Causal
module Resource = Congest.Resource

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let check_table ~name ?totals ?causal sink (rows : Span.rollup list) =
  check int (name ^ ": nothing truncated") 0 (Trace.truncated sink);
  let m = Metrics.of_trace sink in
  let c n = Metrics.counter_value (Metrics.counter m n) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  check int (name ^ ": rounds attributed")
    (c "rounds" + c "cost_rounds")
    (sum (fun r -> r.Span.rounds));
  check int (name ^ ": messages attributed")
    (c "messages_sent" + c "cost_messages")
    (sum (fun r -> r.Span.messages));
  check int (name ^ ": bits attributed")
    (Metrics.hist_sum (Metrics.histogram m "bits_per_message"))
    (sum (fun r -> r.Span.bits));
  Option.iter
    (fun (t : Causal.t) ->
      let split f =
        sum (fun r ->
            match r.Span.causal with
            | Some s -> f s
            | None -> Alcotest.fail (name ^ ": row without causal columns"))
      in
      check int (name ^ ": critical + slack = causal rounds") t.Causal.rounds
        (split (fun s -> s.Span.critical + s.Span.slack));
      check int (name ^ ": critical = causal critical rounds")
        t.Causal.critical_rounds
        (split (fun s -> s.Span.critical)))
    causal;
  Option.iter
    (fun (tot : Resource.totals) ->
      let res r =
        match r.Span.resource with
        | Some x -> x
        | None -> Alcotest.fail (name ^ ": " ^ r.Span.path ^ " has no resource row")
      in
      let sumf f = List.fold_left (fun acc r -> acc +. f (res r)) 0.0 rows in
      let exact = Alcotest.float 0.0 in
      check exact (name ^ ": minor words attributed") tot.Resource.t_minor_words
        (sumf (fun x -> x.Resource.r_minor_words));
      check exact (name ^ ": promoted words attributed")
        tot.Resource.t_promoted_words
        (sumf (fun x -> x.Resource.r_promoted_words));
      check exact (name ^ ": major words attributed") tot.Resource.t_major_words
        (sumf (fun x -> x.Resource.r_major_words));
      check int (name ^ ": major collections attributed")
        tot.Resource.t_major_collections
        (sum (fun r -> (res r).Resource.r_major_collections));
      check (Alcotest.float 1e-6) (name ^ ": seconds attributed")
        tot.Resource.t_seconds
        (sumf (fun x -> x.Resource.r_seconds)))
    totals;
  List.iter
    (fun (r : Span.rollup) ->
      let ge what incl self =
        check bool
          (Printf.sprintf "%s: %s inclusive >= self %s" name r.Span.path what)
          true (incl >= self)
      in
      ge "rounds" r.Span.rounds_incl r.Span.rounds;
      ge "messages" r.Span.messages_incl r.Span.messages;
      ge "bits" r.Span.bits_incl r.Span.bits;
      Option.iter
        (fun (x : Resource.rollup) ->
          ge "seconds" x.Resource.r_seconds_incl x.Resource.r_seconds;
          ge "minor words" x.Resource.r_minor_words_incl x.Resource.r_minor_words;
          ge "promoted words" x.Resource.r_promoted_words_incl
            x.Resource.r_promoted_words;
          ge "major words" x.Resource.r_major_words_incl x.Resource.r_major_words;
          ge "major collections" x.Resource.r_major_collections_incl
            x.Resource.r_major_collections)
        r.Span.resource)
    rows

(* One table from a traced run with a recorder attached and the causal
   analysis joined, checked in full; returns the rows. *)
let traced ~name run =
  let sink = Trace.sink () in
  let res = Resource.create () in
  Resource.attach res sink;
  run sink;
  let resource, totals = Resource.snapshot res in
  let causal = Causal.analyze sink in
  let rows = Span.rollups ~resource ~causal sink in
  check_table ~name ~totals ~causal sink rows;
  rows
