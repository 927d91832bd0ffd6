(* Telemetry subsystem tests: switch semantics, counter/histogram merge
   across domains, span balance in the Chrome trace, trace-JSON
   round-trips, and — the load-bearing property — that disabled
   telemetry is a no-op: no events recorded and verdicts bit-identical
   to untraced runs (instrumentation observes, never steers). *)

module I = Interval.Ia
module Box = Interval.Box
module S = Icp.Solver
module T = Telemetry
module H = Telemetry.Histogram

(* Telemetry state is process-global; every test starts and ends from a
   clean, disabled slate so ordering cannot leak between tests. *)
let clean f () =
  T.disable ();
  T.reset ();
  T.Trace.set_capacity 4096;
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    f

let formula s =
  match Expr.Parse.formula_opt s with
  | Some f -> f
  | None -> Alcotest.failf "cannot parse %S" s

(* ---- switches ---- *)

let test_switches () =
  Alcotest.(check bool) "trace off" false (T.trace_on ());
  T.set_metrics true;
  Alcotest.(check bool) "metrics on" true (T.metrics_on ());
  Alcotest.(check bool) "enabled" true (T.enabled ());
  T.set_trace true;
  Alcotest.(check bool) "trace on" true (T.trace_on ());
  T.disable ();
  Alcotest.(check bool) "all off" false (T.enabled ());
  Alcotest.(check bool) "metrics off" false (T.metrics_on ())

let test_always_vs_gated () =
  let a = T.Counter.make ~always:true "test.always" in
  let g = T.Counter.make "test.gated" in
  T.Counter.incr a;
  T.Counter.incr g;
  Alcotest.(check int) "always counts when disabled" 1 (T.Counter.value a);
  Alcotest.(check int) "gated is a no-op when disabled" 0 (T.Counter.value g);
  T.set_metrics true;
  T.Counter.incr a;
  T.Counter.incr g;
  Alcotest.(check int) "always still counts" 2 (T.Counter.value a);
  Alcotest.(check int) "gated counts when enabled" 1 (T.Counter.value g)

(* ---- counters across domains ---- *)

(* Atomic adds commute: the total must equal the arithmetic sum no
   matter how the four workers' increments interleave. *)
let test_counter_merge () =
  T.set_metrics true;
  let c = T.Counter.make "test.merge" in
  ignore
    (Parallel.Pool.run ~jobs:4 (fun w ->
         for _ = 1 to 1000 do
           T.Counter.add c (w + 1)
         done;
         w));
  Alcotest.(check int) "sum over domains" (1000 * 10) (T.Counter.value c);
  let listed = List.assoc_opt "test.merge" (T.Metrics.counters ()) in
  Alcotest.(check (option int)) "registry agrees" (Some 10_000) listed

(* ---- histograms ---- *)

let test_bucket_edges () =
  Alcotest.(check int) "zero" 0 (H.bucket_index 0);
  Alcotest.(check int) "negative" 0 (H.bucket_index (-7));
  Alcotest.(check int) "one" 1 (H.bucket_index 1);
  Alcotest.(check int) "two" 2 (H.bucket_index 2);
  Alcotest.(check int) "three" 2 (H.bucket_index 3);
  Alcotest.(check int) "four" 3 (H.bucket_index 4);
  for k = 1 to 20 do
    (* [2^(k-1), 2^k) is bucket k: its low edge lands in it, the next
       power of two starts the next bucket. *)
    Alcotest.(check int)
      (Printf.sprintf "2^%d" k)
      (k + 1)
      (H.bucket_index (1 lsl k));
    Alcotest.(check int)
      (Printf.sprintf "2^%d - 1" k)
      k
      (H.bucket_index ((1 lsl k) - 1))
  done;
  (* lo/hi are consistent with the index for positive values. *)
  List.iter
    (fun v ->
      let i = H.bucket_index v in
      Alcotest.(check bool)
        (Printf.sprintf "lo <= %d" v)
        true
        (H.bucket_lo i <= v);
      Alcotest.(check bool)
        (Printf.sprintf "%d < hi" v)
        true
        (v < H.bucket_hi i))
    [ 1; 2; 3; 5; 17; 1000; 123_456_789 ]

let test_histogram_merge () =
  T.set_metrics true;
  let h = H.make "test.hist" in
  ignore
    (Parallel.Pool.run ~jobs:4 (fun w ->
         for i = 1 to 100 do
           H.observe h i
         done;
         w));
  let s = H.snapshot h in
  Alcotest.(check int) "count merged" 400 s.H.count;
  Alcotest.(check int) "total merged" (4 * 5050) s.H.total;
  let bucket_sum = List.fold_left (fun acc (_, _, n) -> acc + n) 0 s.H.buckets in
  Alcotest.(check int) "buckets partition the count" 400 bucket_sum;
  Alcotest.(check bool) "mean" true (Float.abs (H.mean s -. 50.5) < 1e-9);
  Alcotest.(check bool) "quantile monotone" true
    (H.quantile 0.5 s <= H.quantile 0.9 s)

let test_histogram_disabled () =
  let h = H.make "test.hist.off" in
  H.observe h 42;
  Alcotest.(check int) "observe is a no-op when disabled" 0
    (H.snapshot h).H.count

(* ---- span balance across domains ---- *)

let tm_outer = T.Span.probe "test.outer"
let tm_inner = T.Span.probe "test.inner"

(* Every domain's stream must close what it opens — at jobs=1 (all on
   the main domain) and jobs=2 (spans interleave across domains). *)
let test_span_balance () =
  List.iter
    (fun jobs ->
      T.disable ();
      T.reset ();
      T.set_metrics true;
      T.set_trace true;
      ignore
        (Parallel.Pool.run ~jobs (fun w ->
             T.Span.with_ tm_outer @@ fun () ->
             for _ = 1 to 3 do
               T.Span.with_ tm_inner (fun () -> ignore (Sys.opaque_identity w))
             done;
             w));
      match T.Trace.validate (T.Trace.to_json ()) with
      | Error msg -> Alcotest.failf "jobs=%d: invalid trace: %s" jobs msg
      | Ok c ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d balanced" jobs)
            c.T.Trace.begins c.T.Trace.ends;
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d span count" jobs)
            (jobs * 4) c.T.Trace.begins;
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d nesting observed" jobs)
            true
            (c.T.Trace.max_depth >= 2))
    [ 1; 2 ]

let test_span_exception_balance () =
  T.set_metrics true;
  T.set_trace true;
  (try T.Span.with_ tm_outer (fun () -> failwith "boom") with Failure _ -> ());
  match T.Trace.validate (T.Trace.to_json ()) with
  | Error msg -> Alcotest.failf "invalid trace: %s" msg
  | Ok c ->
      Alcotest.(check int) "exit on exception" c.T.Trace.begins c.T.Trace.ends

(* A domain's first traced event allocates its trace ring: three arrays
   of 2^21 words at the capacity perfbench traces with.  The span that
   records that event must not include the allocation, or it and every
   span around it charge tens of milliseconds to whatever they time. *)
let tm_first = T.Span.probe "test.first-span"

let test_ring_outside_first_span () =
  T.set_metrics true;
  T.set_trace true;
  T.Trace.set_capacity (1 lsl 21);
  Fun.protect ~finally:(fun () -> T.Trace.set_capacity 4096) @@ fun () ->
  Domain.join (Domain.spawn (fun () -> T.Span.with_ tm_first ignore));
  let s = H.snapshot (H.make "test.first-span") in
  Alcotest.(check int) "one span" 1 s.H.count;
  if s.H.total >= 5_000_000 then
    Alcotest.failf "first span around a no-op took %.1f ms"
      (float_of_int s.H.total /. 1e6)

(* ---- trace JSON round-trip on a real solve ---- *)

let test_trace_roundtrip () =
  T.set_metrics true;
  T.set_trace true;
  let f = formula "x^2 = 2" in
  let box = Box.of_list [ ("x", I.make 0.0 2.0) ] in
  ignore (S.decide f box);
  Alcotest.(check bool) "events recorded" true (T.Trace.events_recorded () > 0);
  let path = Filename.temp_file "biomc_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.Trace.write_file path;
      match T.Trace.validate_file path with
      | Error msg -> Alcotest.failf "invalid trace file: %s" msg
      | Ok c ->
          Alcotest.(check int) "balanced" c.T.Trace.begins c.T.Trace.ends;
          Alcotest.(check bool) "has events" true (c.T.Trace.events > 0);
          Alcotest.(check bool) "has a domain" true (c.T.Trace.tids <> []))

let test_validate_rejects_garbage () =
  let reject name s =
    match T.Trace.validate s with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error _ -> ()
  in
  reject "not json" "not json at all";
  reject "no traceEvents" "{\"displayTimeUnit\":\"ms\"}";
  reject "unbalanced"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1.0}]}";
  reject "crossed"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1.0},{\"name\":\"b\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":2.0}]}"

(* ---- disabled mode is a no-op ---- *)

let test_disabled_records_nothing () =
  let f = formula "x^2 + y^2 <= 1 /\\ x + y >= 0.5" in
  let box = Box.of_list [ ("x", I.make (-2.0) 2.0); ("y", I.make (-2.0) 2.0) ] in
  ignore (S.decide f box);
  ignore (S.pave f box);
  Alcotest.(check int) "no trace events" 0 (T.Trace.events_recorded ());
  List.iter
    (fun (name, v) ->
      (* Always-on counters (cache.*, per-query solver stat mirrors) may
         count; everything gated must stay at zero. *)
      if
        String.length name >= 4
        && (String.sub name 0 4 = "hc4." || String.sub name 0 4 = "smc.")
      then Alcotest.(check int) name 0 v)
    (T.Metrics.counters ())

(* Verdicts, pavings and SMC estimates must be bit-identical with
   telemetry fully on vs fully off: probes observe the computation and
   never steer it. *)
let test_differential_identity () =
  let f = formula "sin(x) + y^2 = 0.75 /\\ x*y <= 0.5" in
  let box = Box.of_list [ ("x", I.make (-2.0) 2.0); ("y", I.make (-1.0) 1.0) ] in
  let config = { S.default_config with max_boxes = 2_000 } in
  let run () =
    let d = S.decide ~config f box in
    let p = S.pave ~config f box in
    (d, p)
  in
  let off = run () in
  T.set_metrics true;
  T.set_trace true;
  let on = run () in
  T.disable ();
  let off' = run () in
  Alcotest.(check bool) "decide identical (on vs off)" true (fst on = fst off);
  Alcotest.(check bool) "paving identical (on vs off)" true (snd on = snd off);
  Alcotest.(check bool) "off reproducible after on" true (off' = off)

let test_differential_smc () =
  let prob =
    Smc.Runner.problem
      ~model:(Smc.Runner.Ode_model Biomodels.Classics.p53_mdm2)
      ~init_dist:
        [ ("p53", Smc.Sampler.Uniform (0.02, 0.08));
          ("mdm2", Smc.Sampler.Uniform (0.02, 0.08)) ]
      ~param_dist:[ ("damage", Smc.Sampler.Uniform (0.5, 1.5)) ]
      ~property:(Smc.Bltl.Finally (10.0, Smc.Bltl.prop "p53 >= 0.3"))
      ~t_end:10.0 ()
  in
  let run () = Smc.Runner.estimate_bayesian ~seed:7 ~jobs:2 ~n:40 prob in
  let off = run () in
  T.set_metrics true;
  T.set_trace true;
  let on = run () in
  Alcotest.(check bool) "estimate identical" true (on = off);
  Alcotest.(check bool) "samples counted" true
    (match List.assoc_opt "smc.samples" (T.Metrics.counters ()) with
    | Some n -> n >= 40
    | None -> false)

(* ---- reset ---- *)

let test_reset () =
  T.set_metrics true;
  T.set_trace true;
  let c = T.Counter.make "test.reset" in
  T.Counter.incr c;
  T.Span.instant tm_outer;
  Alcotest.(check bool) "recorded" true (T.Trace.events_recorded () > 0);
  T.reset ();
  Alcotest.(check int) "counter zeroed" 0 (T.Counter.value c);
  Alcotest.(check int) "trace emptied" 0 (T.Trace.events_recorded ())

(* Every BIOMC_NO_* kill-switch reads its value through
   [Telemetry.env_switch]: 1, true, yes and on in any case, blanks
   trimmed, turn the layer off; anything else leaves it on. *)
let test_env_switch_values () =
  let journal_on () =
    Journal.clear_sink_override ();
    Journal.sink () <> Journal.Off
  in
  let switches =
    [ ( "BIOMC_NO_NEWTON",
        fun () ->
          Icp.Deriv.clear_enabled_override ();
          Icp.Deriv.enabled () );
      ( "BIOMC_NO_TM",
        fun () ->
          Interval.Tm.clear_enabled_override ();
          Interval.Tm.enabled () );
      ( "BIOMC_NO_CACHE",
        fun () ->
          Cache.clear_enabled_override ();
          Cache.enabled () );
      ("BIOMC_NO_JOURNAL", journal_on) ]
  in
  let saved =
    List.map
      (fun v -> (v, Option.value ~default:"" (Sys.getenv_opt v)))
      ("BIOMC_JOURNAL" :: List.map fst switches)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (v, x) -> Unix.putenv v x) saved;
      ignore (journal_on ()))
  @@ fun () ->
  (* the journal switch outranks an enabled sink, so enable one *)
  Unix.putenv "BIOMC_JOURNAL" "1";
  List.iter
    (fun (var, layer_on) ->
      List.iter
        (fun (value, set) ->
          Unix.putenv var value;
          Alcotest.(check bool) (Printf.sprintf "%s=%S" var value) set
            (T.env_switch var);
          Alcotest.(check bool)
            (Printf.sprintf "layer under %s=%S" var value)
            (not set) (layer_on ()))
        [ ("TRUE", true); ("on", true); (" 1", true); ("Yes ", true);
          ("0", false); ("off", false); ("", false) ];
      Unix.putenv var "")
    switches;
  (* BIOMC_JOURNAL also takes a path, but a value the rule reads as off
     selects no sink: a query run under it writes no file named after
     the value. *)
  let dir = Filename.temp_dir "biomc-journal-switch" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () ->
      Sys.chdir cwd;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  List.iter
    (fun value ->
      Unix.putenv "BIOMC_JOURNAL" value;
      Alcotest.(check bool)
        (Printf.sprintf "no journal under BIOMC_JOURNAL=%S" value)
        false (journal_on ());
      ignore
        (Icp.Solver.decide (Expr.Parse.formula "x^2 = 2")
           (Interval.Box.of_list [ ("x", Interval.Ia.make 0.0 2.0) ]));
      Journal.close ();
      Alcotest.(check (array string))
        (Printf.sprintf "no file under BIOMC_JOURNAL=%S" value)
        [||] (Sys.readdir "."))
    [ "0"; "false"; "no"; "off"; ""; "OFF"; " No "; "False " ]

let () =
  Alcotest.run "telemetry"
    [ ( "switches",
        [ Alcotest.test_case "on/off semantics" `Quick (clean test_switches);
          Alcotest.test_case "always vs gated counters" `Quick
            (clean test_always_vs_gated);
          Alcotest.test_case "reset" `Quick (clean test_reset);
          Alcotest.test_case "BIOMC_NO_* switches share one value rule" `Quick
            test_env_switch_values ] );
      ( "counters",
        [ Alcotest.test_case "merge across 4 domains" `Quick
            (clean test_counter_merge) ] );
      ( "histograms",
        [ Alcotest.test_case "bucket edges" `Quick (clean test_bucket_edges);
          Alcotest.test_case "merge across 4 domains" `Quick
            (clean test_histogram_merge);
          Alcotest.test_case "disabled observe is a no-op" `Quick
            (clean test_histogram_disabled) ] );
      ( "spans",
        [ Alcotest.test_case "balance at jobs=1 and jobs=2" `Quick
            (clean test_span_balance);
          Alcotest.test_case "balanced under exceptions" `Quick
            (clean test_span_exception_balance);
          Alcotest.test_case "ring allocated outside the first span" `Quick
            (clean test_ring_outside_first_span) ] );
      ( "trace",
        [ Alcotest.test_case "round-trip on a real solve" `Quick
            (clean test_trace_roundtrip);
          Alcotest.test_case "validator rejects malformed traces" `Quick
            (clean test_validate_rejects_garbage) ] );
      ( "disabled is a no-op",
        [ Alcotest.test_case "nothing recorded" `Quick
            (clean test_disabled_records_nothing);
          Alcotest.test_case "decide/pave bit-identical" `Quick
            (clean test_differential_identity);
          Alcotest.test_case "smc estimate bit-identical" `Quick
            (clean test_differential_smc) ] ) ]
