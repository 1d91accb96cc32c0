(* One benchmark run of one workload: set up several times, one
   untimed warm-up iteration, then timed iterations until the time is
   up. Every iteration is checked by the workload's oracle, and all of
   a run's iterations must produce the same digest.

   Every set-up and every iteration runs right after one run of the
   reference kernel, and its time is reported at the reference speed
   (see [Speed]). Every timing is a median over the run's set-ups or
   timed iterations. An iteration of grid-churn replays the same 400
   deltas, so each delta's latency is its median over the replays, and
   the step percentiles are taken over those: a burst of machine noise
   that slows a few steps of one replay does not move them. On the
   other workloads an iteration is one step. *)

module W = Workloads

(* Name and unit of every metric a run reports; BENCHMARK.json lists
   the same names (the test suite checks this). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("step_ms_p50", "ms");
    ("step_ms_p99", "ms");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("dsgraph.gen.s", "s");
    ("dsgraph.io_save.s", "s");
    ("dsgraph.io_save.mb", "MB");
    ("dsgraph.io_load.s", "s");
    ("workload.audit_certify.s", "s");
    ("workload.audit_certify.alloc_mw", "Mword");
    ("workload.audit_verify.s", "s");
    ("workload.audit_verify.alloc_mw", "Mword");
    ("workload.audit.certs", "count");
    ("strongdecomp.strong.s", "s");
    ("strongdecomp.strong.alloc_mw", "Mword");
    ("strongdecomp.strong.major_gcs", "count");
    ("weakdiam.sim_carve.s", "s");
    ("weakdiam.sim_carve.alloc_mw", "Mword");
    ("weakdiam.sim_carve.major_gcs", "count");
    ("congest.rounds", "count");
    ("congest.messages", "count");
    ("congest.msgs_per_s", "1/s");
    ("congest.max_bits", "bit");
    ("baseline.greedy.s", "s");
    ("baseline.greedy.alloc_mw", "Mword");
    ("baseline.recarve.s", "s");
    ("baseline.recarve.calls", "count");
    ("workload.repair.s", "s");
    ("workload.repair.alloc_mw", "Mword");
    ("workload.repair_self.s", "s");
    ("workload.verify_cert.s", "s");
    ("workload.verify_cert.alloc_mw", "Mword");
    ("cluster.repair.dirty", "count");
    ("cluster.repair.fresh", "count");
    ("cluster.repair.carried", "count");
    ("cluster.repair.touched_frac", "ratio");
    ("cluster.clusters", "count");
    ("quality.colors", "count");
    ("quality.diam_ub", "hops");
    ("weakdiam.dead_frac", "ratio");
    ("bench.trace_overhead", "ratio");
    ("bench.span_coverage", "ratio");
    ("bench.kernel_ms", "ms");
    ("bench.wall_run_s", "s");
  ]

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (** in the order they happened *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  chrome : Json.t option;  (** Chrome trace of the traced set-ups and iterations *)
  layers : (string * float) list;  (** self seconds per traced iteration, at the reference speed *)
}

let now = Unix.gettimeofday

(* Set-up repeats at least [min_setups] times, and until
   [setup_budget] seconds have passed when it is quick, so its median
   stays steady. *)
let min_setups = 3
let max_setups = 50
let setup_budget = 1.0

(* The process's peak resident set, from /proc where it exists. *)
let peak_rss_mb () =
  let from_proc =
    match
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
    with
    | text ->
        List.find_map
          (fun line ->
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> Some (float_of_int kb /. 1024.0)
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None)
          (String.split_on_char '\n' text)
    | exception Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* Per-layer values from span totals over [n] set-ups or iterations,
   with span seconds multiplied by [speed]. *)
let span_metrics ~speed rolled n =
  let n = float_of_int (max 1 n) in
  List.concat_map
    (fun (name, st) ->
      [
        (name ^ ".s", speed *. st.Spans.seconds /. n);
        (name ^ ".alloc_mw", st.Spans.words /. 1e6 /. n);
        (name ^ ".major_gcs", float_of_int st.Spans.gcs /. n);
        (name ^ ".calls", float_of_int st.Spans.calls /. n);
      ])
    rolled

(* [timed f] runs the reference kernel, then [f]; it returns [f]'s
   result, its wall seconds and the kernel's. *)
let timed f =
  let kernel = Speed.kernel () in
  let t0 = now () in
  let x = f () in
  (x, now () -. t0, kernel)

let run ~size ~seed ~seconds ~trace ~dir (w : W.t) =
  let tracer = if trace then Some (Spans.create ()) else None in
  let failures = ref [] and failed = ref 0 and attempted = ref 0 in
  let fail msg =
    incr failed;
    failures := msg :: !failures
  in
  let setup_times = ref [] and setup_wall = ref [] and prepared = ref None in
  let t_setup = now () in
  while
    let k = List.length !setup_times in
    k < min_setups || (k < max_setups && now () -. t_setup < setup_budget)
  do
    (* drop the previous set-up first, so the peak resident set holds
       one input, not two *)
    Option.iter (fun p -> p.W.cleanup ()) !prepared;
    prepared := None;
    Gc.full_major ();
    let p, dt, kernel =
      timed (fun () ->
          Spans.span tracer "bench.setup" (fun () -> w.W.setup size tracer ~seed ~dir))
    in
    setup_times := Speed.scale ~kernel dt :: !setup_times;
    setup_wall := dt :: !setup_wall;
    prepared := Some p
  done;
  let p = Option.get !prepared in
  let digest = ref None in
  let iteration tr =
    Gc.full_major ();
    match
      let oracle, dt, kernel =
        timed (fun () -> Spans.span tr "bench.iteration" (fun () -> p.W.iterate tr))
      in
      (dt, kernel, oracle ())
    with
    | dt, kernel, r ->
        attempted := !attempted + r.W.ops;
        List.iter fail r.W.failures;
        (match !digest with
        | None -> digest := Some r.W.digest
        | Some d -> if d <> r.W.digest then fail "output digest differs between iterations");
        Some (dt, kernel, r)
    | exception e ->
        incr attempted;
        fail (Printexc.to_string e);
        None
  in
  ignore (iteration None);
  (* with tracing on, traced and untraced iterations alternate, so the
     tracing overhead is measured in the same process *)
  let plain = ref [] and wall = ref [] and traced = ref [] and traced_wall = ref [] in
  let steps = ref [] and kernels = ref [] in
  let counters = ref [] in
  let deadline = now () +. seconds in
  let i = ref 0 in
  while !i < (if trace then 4 else 2) || now () < deadline do
    let traced_now = trace && !i mod 2 = 1 in
    (match iteration (if traced_now then tracer else None) with
    | Some (dt, kernel, r) ->
        counters := r.W.counters;
        let scale = Speed.scale ~kernel in
        if traced_now then begin
          traced := scale dt :: !traced;
          traced_wall := dt :: !traced_wall
        end
        else begin
          plain := scale dt :: !plain;
          wall := dt :: !wall;
          kernels := kernel :: !kernels;
          let step_s = if r.W.step_s = [] then [ dt ] else r.W.step_s in
          steps := Array.of_list (List.map scale step_s) :: !steps
        end
    | None -> ());
    incr i
  done;
  p.W.cleanup ();
  let stat f xs = if xs = [] then 0.0 else f xs in
  let per_step =
    match !steps with
    | [] -> []
    | a :: _ ->
        List.init (Array.length a) (fun i -> Stat.median (List.map (fun a -> a.(i)) !steps))
  in
  (* Spans are summed over many calls, so their seconds are scaled by
     the ratio of the scaled to the wall time of the calls they cover. *)
  let sum = List.fold_left ( +. ) 0.0 in
  let factor scaled wall = if sum wall > 0.0 then sum scaled /. sum wall else 0.0 in
  let setup_speed = factor !setup_times !setup_wall and speed = factor !traced !traced_wall in
  let rollup under = Option.fold ~none:[] ~some:(Spans.rollup ~under) tracer in
  let rolled = rollup "bench.iteration" in
  let n_traced = List.length !traced in
  let metrics =
    if not trace then
      [
        ("setup_s", Stat.median !setup_times);
        ("run_s", stat Stat.median !plain);
        ("step_ms_p50", 1000.0 *. stat Stat.median per_step);
        ("step_ms_p99", 1000.0 *. stat (Stat.quantile 0.99) per_step);
        ("peak_rss_mb", peak_rss_mb ());
      ]
    else begin
      let values =
        span_metrics ~speed:setup_speed (rollup "bench.setup") (List.length !setup_times)
        @ span_metrics ~speed rolled n_traced
        @ p.W.setup_counters @ !counters
      in
      let get k = Option.value (List.assoc_opt k values) ~default:0.0 in
      let ratio a b = if b > 0.0 then a /. b else 0.0 in
      let derived =
        [
          ("workload.repair_self.s", get "workload.repair.s" -. get "baseline.recarve.s");
          ("congest.msgs_per_s", ratio (get "congest.messages") (get "weakdiam.sim_carve.s"));
          ( "bench.trace_overhead",
            ratio (stat Stat.median !traced) (stat Stat.median !plain) -. 1.0 );
          ( "bench.span_coverage",
            match List.assoc_opt "bench.iteration" rolled with
            | Some st -> ratio (st.Spans.seconds -. st.Spans.self) st.Spans.seconds
            | None -> 0.0 );
          ("bench.kernel_ms", 1000.0 *. stat Stat.median !kernels);
          ("bench.wall_run_s", stat Stat.median !wall);
        ]
      in
      List.map
        (fun (k, _) ->
          (k, match List.assoc_opt k derived with Some v -> v | None -> get k))
        per_layer
    end
  in
  let units = if trace then per_layer else end_to_end in
  {
    attempted = max 1 !attempted;
    failed = !failed;
    failures = List.rev !failures;
    metrics = List.map (fun (k, v) -> (k, v, List.assoc k units)) metrics;
    chrome = Option.map Spans.chrome tracer;
    layers =
      List.map
        (fun (l, s) -> (l, speed *. s /. float_of_int (max 1 n_traced)))
        (Spans.self_by_layer rolled);
  }
