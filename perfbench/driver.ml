(* Benchmark driver: one cold repetition per process.

     driver.exe --rep --workload NAME --seed N [--traced]
     driver.exe --setup --workload NAME --seed N
     driver.exe --ref
     driver.exe --self-test

   [run.py] runs the closed loop: it starts one [--rep] process per
   repetition, as every [biomc] invocation starts cold, and a [--setup]
   and a [--ref] process between repetitions.  A fresh process per repetition keeps
   one query's heap and caches from leaking into the next: repeated in
   one process, a calib-pave query took 1.47-2.40 s; eight fresh
   processes right after took 1.43-1.58 s.

   [--rep] builds the workload's inputs once, runs the query at
   jobs = 1, checks its answer against the committed fingerprint, and
   prints one JSON object.  With
   [--traced] the query runs with tracing on and the object carries the
   per-layer split (self times from the span tree, layer counters from
   the telemetry registry).  [--setup] times the set-up alone in warm
   batches, in a process whose heap no query has grown.  [--ref] prints
   the reference loop's time ({!Refloop}). *)

let now = Unix.gettimeofday
let ratio a b = if b = 0.0 then 0.0 else a /. b
let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = Printf.sprintf "%.17g" (if Float.is_finite v then v else 0.0)

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let setup_batches = 7

(* Per-setup times of [setup_batches] warm batches of at least 10 ms
   each: one set-up takes 1-100 us, too little to time alone.  Doubling
   the batch until it takes 10 ms also warms the code up. *)
let setup_times (w : Workloads.t) ~seed =
  let run_batch n =
    let t0 = now () in
    for _ = 1 to n do
      let (_ : unit -> Workloads.answer) = Sys.opaque_identity (w.setup ~seed) in
      ()
    done;
    now () -. t0
  in
  let rec calibrate n = if run_batch n >= 0.01 then n else calibrate (2 * n) in
  let batch = calibrate 1 in
  List.init setup_batches (fun _ -> run_batch batch /. float_of_int batch)

(* ------------------------------------------------------------------ *)
(* The query                                                           *)
(* ------------------------------------------------------------------ *)

(* The query's answer, or an exception turned into a failing one. *)
let answer_of (w : Workloads.t) ~seed query =
  let answer =
    try query ()
    with e ->
      { Workloads.fingerprint = "exception " ^ Printexc.to_string e; decided_frac = 0.0 }
  in
  match w.expected ~seed answer.Workloads.fingerprint with
  | Ok () -> (answer, true)
  | Error msg ->
      Printf.eprintf "%s: wrong answer: %s\n%!" w.name msg;
      (answer, false)

(* Per-domain ring capacity in events.  A traced query must fit whole,
   or self times would come from a truncated tree; calib-pave records
   about 400k events. *)
let trace_capacity = 1 lsl 21

(* Library spans must cover at least this share of the query. *)
let min_attributed = 0.9

let query_probe = Telemetry.Span.probe "bench.query"

(* Library spans by layer; [bench.query] is the driver's own root. *)
let layer_of name =
  match name with
  | "icp.tm" | "icp.affine" -> "interval"
  | _ -> ( match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name)

(* Per-layer metrics of the traced query just run, and whether the
   trace is complete. *)
let layer_metrics () =
  let counters = Telemetry.Metrics.counters () in
  let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  let dropped = Telemetry.Trace.events_dropped () in
  let spans = Spans.of_trace (Telemetry.Trace.to_json ()) in
  let self name = (Spans.find spans name).Spans.self_s in
  let calls name = float_of_int (Spans.find spans name).Spans.calls in
  let layer_self l =
    List.fold_left
      (fun acc (n, (s : Spans.stat)) -> if layer_of n = l then acc +. s.self_s else acc)
      0.0 spans.Spans.stats
  in
  let query_s = (Spans.find spans "bench.query").Spans.total_s in
  let attributed = ratio (query_s -. self "bench.query") query_s in
  let cache_hit_ratio name =
    match List.assoc_opt name (Cache.named_stats ()) with
    | Some (s : Cache.stats) -> ratio (float_of_int s.hits) (float_of_int (s.hits + s.misses))
    | None -> 0.0
  in
  let demotions =
    List.fold_left
      (fun acc (n, v) -> if String.ends_with ~suffix:".demotions" n then acc + v else acc)
      0 counters
  in
  let boxes = c "icp.pave.boxes" +. c "icp.decide.boxes" in
  let metrics =
    [ ("interval.tm_s", self "icp.tm", "s");
      ("interval.tm_calls", calls "icp.tm", "count");
      ( "interval.tm_useful_ratio",
        ratio (c "tm.tightenings" +. c "tm.refutations") (calls "icp.tm"),
        "ratio" );
      ("interval.tm_truncations", c "tm.truncations", "count");
      ("interval.affine_s", self "icp.affine", "s");
      ( "interval.affine_useful_ratio",
        ratio (c "affine.tightenings" +. c "affine.refutations") (calls "icp.affine"),
        "ratio" );
      ("ode.flow_self_s", self "ode.flow", "s");
      ("ode.flows", c "ode.flows", "count");
      ("ode.steps", c "ode.steps", "count");
      ("ode.picard_iters", c "ode.picard_iters", "count");
      ("reach.bracket_ratio", ratio (c "reach.fallback_brackets") (c "ode.flows"), "ratio");
      ("reach.self_s", layer_self "reach", "s");
      ("reach.paths", c "reach.paths", "count");
      ("reach.segments", c "reach.segments", "count");
      ("cache.reach-seg.hit_ratio", cache_hit_ratio "reach-seg", "ratio");
      ("icp.pave_self_s", self "icp.pave" +. self "icp.box" +. self "pool.drain", "s");
      ("icp.hc4_self_s", self "icp.hc4", "s");
      ("icp.newton_s", self "icp.newton", "s");
      ("icp.boxes", boxes, "count");
      ("icp.prune_ratio", ratio (c "icp.pave.prunings" +. c "icp.decide.prunings") boxes, "ratio");
      ("cache.hc4.hit_ratio", cache_hit_ratio "hc4", "ratio");
      ("cache.icp-refuted.hit_ratio", cache_hit_ratio "icp-refuted", "ratio");
      ("cache.demotions", float_of_int demotions, "count");
      ("smc.samples", c "smc.samples", "count");
      ("smc.sample_us", 1e6 *. ratio (layer_self "smc") (c "smc.samples"), "us");
      ("trace.query_s", query_s, "s");
      ("trace.dropped", float_of_int dropped, "count");
      ("trace.attributed_ratio", attributed, "ratio") ]
  in
  let complete = dropped = 0 && spans.Spans.unbalanced = 0 && attributed >= min_attributed in
  if not complete then
    Printf.eprintf "incomplete trace: %d dropped, %d unbalanced, %.3f attributed\n%!" dropped
      spans.Spans.unbalanced attributed;
  (metrics, complete)

(* One cold repetition in this fresh process. *)
let rep (w : Workloads.t) ~seed ~traced =
  let query = w.setup ~seed in
  Gc.full_major ();
  if traced then begin
    Telemetry.Trace.set_capacity trace_capacity;
    Telemetry.reset ();
    Telemetry.set_metrics true;
    Telemetry.set_trace true
  end;
  let s0 = Gc.quick_stat () in
  let t0 = now () in
  let answer, ok =
    if traced then Telemetry.Span.with_ query_probe (fun () -> answer_of w ~seed query)
    else answer_of w ~seed query
  in
  let wall = now () -. t0 in
  let s1 = Gc.quick_stat () in
  Telemetry.disable ();
  let layers, complete = if traced then layer_metrics () else ([], true) in
  let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  json_object
    ([ ("ok", string_of_bool (ok && complete));
       ("fingerprint", json_string answer.Workloads.fingerprint);
       ("wall_s", json_number wall);
       (* A fresh process's major heap peak is the query's own. *)
       ("heap_peak_mb", json_number (words_to_mb (float_of_int s1.Gc.top_heap_words)));
       ("decided_frac", json_number answer.Workloads.decided_frac);
       ("gc.major_collections", string_of_int (s1.major_collections - s0.major_collections));
       ("gc.alloc_mb", json_number (words_to_mb (allocated s1 -. allocated s0))) ]
    @
    if traced then
      [ ( "layers",
          json_object
            (List.map
               (fun (k, v, unit) ->
                 (k, json_object [ ("value", json_number v); ("unit", json_string unit) ]))
               layers) ) ]
    else [])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 and traced = ref false in
  let set m = Arg.Unit (fun () -> mode := m) in
  let spec =
    [ ("--rep", set "rep", " run one repetition of a workload");
      ("--setup", set "setup", " time a workload's set-up");
      ("--ref", set "ref", " time the reference loop");
      ("--self-test", set "self-test", " check span attribution and the reference loop");
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--traced", Arg.Set traced, " trace the query and report the per-layer split") ]
  in
  let usage =
    "driver.exe (--rep --workload NAME --seed N [--traced] | --setup --workload NAME --seed N \
     | --ref | --self-test)"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  Telemetry.disable ();
  match !mode with
  | "self-test" ->
      Spans.self_test ();
      ignore (Refloop.time ());
      print_endline "self-test ok"
  | "ref" -> print_endline (json_number (Refloop.time ()))
  | ("rep" | "setup") as mode -> (
      match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) Workloads.all with
      | None ->
          Printf.eprintf "unknown workload %S (known: %s)\n" !workload
            (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
          exit 2
      | Some w when mode = "rep" -> print_endline (rep w ~seed:!seed ~traced:!traced)
      | Some w ->
          print_endline ("[" ^ String.concat ", " (List.map json_number (setup_times w ~seed:!seed)) ^ "]"))
  | _ ->
      prerr_endline usage;
      exit 2
