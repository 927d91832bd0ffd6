(* biomc — command-line driver for the model-checking analysis framework.

   Subcommands mirror the paper's analysis tasks:

     biomc simulate   — numerically simulate a built-in model
     biomc reach      — bounded reachability / falsification
     biomc robustness — stimulation-robustness sweep (cardiac)
     biomc therapy    — treatment-scheme synthesis (TBI / prostate)
     biomc stability  — Lyapunov certificate synthesis
     biomc smc        — statistical model checking of the p53 module
     biomc solve      — decide an L_RF formula with the δ-decision core
     biomc synth      — guaranteed parameter synthesis (BioPSy) *)

module I = Interval.Ia
module Box = Interval.Box
module Report = Core.Report
open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let logs_term =
  let env = Cmd.Env.info "BIOMC_VERBOSITY" in
  Term.(const setup_logs $ Logs_cli.level ~env ())

(* ---- Built-in model registry ---- *)

type model_entry = {
  description : string;
  automaton : unit -> Hybrid.Automaton.t;
  default_t_end : float;
  default_params : (string * float) list;
}

let models =
  [ ("fenton-karma",
     { description = "Fenton-Karma cardiac cell (3 modes, Beeler-Reuter fit)";
       automaton = (fun () -> Biomodels.Fenton_karma.automaton ());
       default_t_end = 400.0; default_params = [] });
    ("bcf",
     { description = "Bueno-Cherry-Fenton minimal ventricular model (EPI)";
       automaton = (fun () -> Biomodels.Bueno_cherry_fenton.automaton ());
       default_t_end = 500.0; default_params = [] });
    ("prostate",
     { description = "Prostate cancer intermittent androgen suppression";
       automaton = (fun () -> Biomodels.Prostate.automaton ());
       default_t_end = 800.0; default_params = [ ("r0", 4.0); ("r1", 10.0) ] });
    ("tbi",
     { description = "TBI-induced multi-mode cell death network (Fig. 3)";
       automaton = (fun () -> Biomodels.Tbi.automaton ());
       default_t_end = 40.0; default_params = [ ("theta1", 1.0); ("theta2", 1.0) ] });
  ]

let model_conv =
  let parse s =
    match List.assoc_opt s models with
    | Some m -> Ok (s, m)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown model %S (try: %s)" s
               (String.concat ", " (List.map fst models))))
  in
  Arg.conv (parse, fun ppf (name, _) -> Fmt.string ppf name)

let model_arg =
  let doc = "Built-in model to analyze." in
  Arg.(required & pos 0 (some model_conv) None & info [] ~docv:"MODEL" ~doc)

let t_end_arg =
  let doc = "Simulation / analysis time horizon." in
  Arg.(value & opt (some float) None & info [ "t-end" ] ~docv:"TIME" ~doc)

let param_arg =
  let doc = "Bind a model parameter, e.g. --param r0=4.0 (repeatable)." in
  let kv_conv =
    let parse s =
      match String.index_opt s '=' with
      | Some i -> (
          let k = String.sub s 0 i
          and v = String.sub s (i + 1) (String.length s - i - 1) in
          match float_of_string_opt v with
          | Some f -> Ok (k, f)
          | None -> Error (`Msg (Printf.sprintf "invalid value in %S" s)))
      | None -> Error (`Msg (Printf.sprintf "expected key=value, got %S" s))
    in
    Arg.conv (parse, fun ppf (k, v) -> Fmt.pf ppf "%s=%g" k v)
  in
  Arg.(value & opt_all kv_conv [] & info [ "param"; "p" ] ~docv:"KEY=VAL" ~doc)

let merge_params defaults overrides =
  List.map
    (fun (k, dflt) ->
      match List.assoc_opt k overrides with Some v -> (k, v) | None -> (k, dflt))
    defaults
  @ List.filter (fun (k, _) -> not (List.mem_assoc k defaults)) overrides

(* ---- simulate ---- *)

let simulate () (name, entry) t_end params samples csv =
  let t_end = Option.value ~default:entry.default_t_end t_end in
  let params = merge_params entry.default_params params in
  let h = entry.automaton () in
  let traj = Hybrid.Simulate.simulate ~params ~init:[] ~t_end h in
  (match csv with
  | Some path ->
      let oc = open_out path in
      output_string oc (Hybrid.Simulate.to_csv traj);
      close_out oc;
      Fmt.pr "wrote %s@." path
  | None -> ());
  let vars = Hybrid.Automaton.vars h in
  let rows =
    List.init samples (fun i ->
        let t = t_end *. float_of_int i /. float_of_int (Stdlib.max 1 (samples - 1)) in
        Fmt.str "%.3f" t
        :: List.map
             (fun v ->
               match Hybrid.Simulate.value_at traj v t with
               | Some x -> Fmt.str "%.5f" x
               | None -> "-")
             vars)
  in
  Report.print
    [ Report.heading (Printf.sprintf "Simulation: %s" name);
      Report.text "%s" entry.description;
      Report.kv
        [ ("path", String.concat " -> " traj.Hybrid.Simulate.path);
          ("stop", Fmt.str "%a" Hybrid.Simulate.pp_stop_reason traj.Hybrid.Simulate.reason);
          ("time", Fmt.str "%.3f" traj.Hybrid.Simulate.total_time) ];
      Report.table ~header:("t" :: vars) rows ];
  Ok ()

let samples_arg =
  let doc = "Number of sample rows to print." in
  Arg.(value & opt int 21 & info [ "samples" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Also write the full trajectory as CSV to this file." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let simulate_cmd =
  let info = Cmd.info "simulate" ~doc:"Numerically simulate a built-in model." in
  Cmd.v info
    Term.(
      term_result
        (const simulate $ logs_term $ model_arg $ t_end_arg $ param_arg $ samples_arg
       $ csv_arg))

let jobs_arg =
  let doc =
    "Worker domains for parallel solving / sampling (default: detected \
     core count, capped at 8); 1 forces the sequential code path."
  in
  Arg.(
    value
    & opt int (Parallel.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc =
    "Disable the exact-replay caches (reach flow segments, BioPSy box \
     verdicts); equivalent to BIOMC_NO_CACHE=1."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let no_newton_arg =
  let doc =
    "Disable the derivative layer of the δ-decision search (mean-value \
     refutation, interval Newton contraction, smear-guided branching), \
     restoring plain HC4 + widest-dimension bisection; equivalent to \
     BIOMC_NO_NEWTON=1."
  in
  Arg.(value & flag & info [ "no-newton" ] ~doc)

let no_tm_arg =
  let doc =
    "Disable degree-2 Taylor-model evaluation in the HC4 forward \
     passes, pave certification and ODE enclosures, restoring the \
     interval-only search; equivalent to BIOMC_NO_TM=1."
  in
  Arg.(value & flag & info [ "no-tm" ] ~doc)

(* One-line on/off, hits and misses summary, appended to reports of the
   cache-assisted analyses. *)
let cache_line () = Report.text "%s" (Cache.summary ())

(* ---- common analysis flags (solve / reach / smc / synth) ---- *)

type common = {
  jobs : int;
  no_cache : bool;
  no_newton : bool;
  no_tm : bool;
  trace : string option;  (** Chrome trace_event JSON output file *)
  metrics : bool;  (** print the telemetry metrics section *)
  metrics_json : string option;  (** also write the metrics as JSON *)
  metrics_prom : string option;  (** Prometheus text exposition file *)
  journal : string option;  (** NDJSON provenance-journal output file *)
  progress : bool;  (** rate-limited stderr heartbeat during the run *)
}

let trace_arg =
  let doc =
    "Record a Chrome trace_event JSON trace of the analysis to $(docv) \
     (open in Perfetto or chrome://tracing).  Implies --metrics."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Print telemetry counters and span histograms after the analysis." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_json_arg =
  let doc = "Also write the telemetry metrics snapshot as JSON to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let metrics_prom_arg =
  let doc =
    "Also write the telemetry metrics snapshot in Prometheus text \
     exposition format to $(docv) (for node_exporter's textfile \
     collector or a push gateway)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-prom" ] ~docv:"FILE" ~doc)

let journal_arg =
  let doc =
    "Record the provenance journal — the full branch-and-prune search \
     DAG as NDJSON events — to $(docv); reload it with `biomc explain'.  \
     Equivalent to BIOMC_JOURNAL=$(docv)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Print a rate-limited progress heartbeat to stderr while the \
     analysis runs (boxes/sec, prunings, cache hit rate, budget left).  \
     Purely observational."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let common_term =
  let mk jobs no_cache no_newton no_tm trace metrics metrics_json
      metrics_prom journal progress =
    { jobs; no_cache; no_newton; no_tm; trace; metrics; metrics_json;
      metrics_prom; journal; progress }
  in
  Term.(
    const mk $ jobs_arg $ no_cache_arg $ no_newton_arg $ no_tm_arg
    $ trace_arg $ metrics_arg $ metrics_json_arg $ metrics_prom_arg
    $ journal_arg $ progress_arg)

(* Telemetry section appended to a report when metrics are on: non-zero
   counters as a key/value block, span histograms as a table. *)
let telemetry_items () =
  if not (Telemetry.metrics_on ()) then []
  else begin
    let kvs = Telemetry.Metrics.kvs () in
    let hists = Telemetry.Metrics.histograms () in
    let hist_rows =
      List.map
        (fun (name, s) ->
          [ name;
            string_of_int s.Telemetry.Histogram.count;
            Fmt.str "%.0f" (Telemetry.Histogram.mean s);
            string_of_int (Telemetry.Histogram.quantile 0.5 s);
            string_of_int (Telemetry.Histogram.quantile 0.9 s) ])
        hists
    in
    [ Report.heading "Telemetry" ]
    @ (if kvs = [] then [ Report.text "no events recorded" ]
       else [ Report.kv kvs ])
    @
    if hist_rows = [] then []
    else
      [ Report.table
          ~header:[ "span"; "count"; "mean ns"; "p50 ns"; "p90 ns" ]
          hist_rows ]
  end

(* Run an analysis body under the common flags: the layer and telemetry
   switches are applied before, the telemetry report section
   and the trace / metrics files are emitted after.  The body returns
   the report items for a successful run. *)
let with_common c body =
  if c.no_cache then Cache.set_enabled false;
  if c.no_newton then Icp.Deriv.set_enabled false;
  if c.no_tm then Interval.Tm.set_enabled false;
  if c.metrics || c.metrics_json <> None || c.metrics_prom <> None then
    Telemetry.set_metrics true;
  if c.trace <> None then begin
    Telemetry.set_metrics true;
    Telemetry.set_trace true
  end;
  (match c.journal with
  | Some path -> Journal.set_sink (Journal.To_file path)
  | None -> ());
  (* The heartbeat reads the always-on telemetry registry, so it needs
     no switches; it only exists while the body runs. *)
  let progress =
    if c.progress then Some (Journal.Progress.start ()) else None
  in
  let finish_observers () =
    Option.iter Journal.Progress.stop progress;
    Journal.close ();
    match c.journal with
    | Some path -> Fmt.pr "wrote %s (provenance journal)@." path
    | None -> ()
  in
  match body () with
  | Error _ as e ->
      finish_observers ();
      e
  | Ok items ->
      finish_observers ();
      Report.print (items @ telemetry_items ());
      (match c.metrics_json with
      | Some path ->
          let oc = open_out path in
          output_string oc (Telemetry.Metrics.to_json ());
          output_char oc '\n';
          close_out oc;
          Fmt.pr "wrote %s (telemetry metrics)@." path
      | None -> ());
      (match c.metrics_prom with
      | Some path ->
          let oc = open_out path in
          output_string oc (Telemetry.Metrics.to_prometheus ());
          close_out oc;
          Fmt.pr "wrote %s (Prometheus metrics)@." path
      | None -> ());
      (match c.trace with
      | Some path ->
          Telemetry.Trace.write_file path;
          Fmt.pr "wrote %s (%d trace events)@." path
            (Telemetry.Trace.events_recorded ())
      | None -> ());
      Ok ()

(* ---- reach ---- *)

let goal_arg =
  let doc =
    "Goal predicate over the model variables (L_RF formula, e.g. 'y >= 1')."
  in
  Arg.(required & opt (some string) None & info [ "goal" ] ~docv:"FORMULA" ~doc)

let goal_modes_arg =
  let doc = "Restrict the goal to these modes (repeatable)." in
  Arg.(value & opt_all string [] & info [ "goal-mode" ] ~docv:"MODE" ~doc)

let k_arg =
  let doc = "Maximum number of discrete jumps (unrolling depth)." in
  Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc)

let min_jumps_arg =
  let doc =
    "Minimum number of discrete jumps: shorter mode paths are not \
     candidates (e.g. --min-jumps 2 asks for a re-excitation after an \
     excursion, not the first upstroke)."
  in
  Arg.(value & opt int 0 & info [ "min-jumps" ] ~docv:"N" ~doc)

let box_arg =
  let doc =
    "Search box for a free parameter, e.g. --box r0=2:6 (repeatable)."
  in
  let box_conv =
    let parse s =
      try
        Scanf.sscanf s "%[^=]=%f:%f" (fun k lo hi -> Ok (k, I.make lo hi))
      with _ -> Error (`Msg (Printf.sprintf "expected key=lo:hi, got %S" s))
    in
    Arg.conv (parse, fun ppf (k, i) -> Fmt.pf ppf "%s=%a" k I.pp i)
  in
  Arg.(value & opt_all box_conv [] & info [ "box" ] ~docv:"KEY=LO:HI" ~doc)

(* The problem `reach' and `export' work on.  A goal that does not
   parse, and every problem [Reach.Encoding.create] rejects (a free
   parameter without a --box, an unknown --goal-mode, a negative -k, a
   --min-jumps outside [0, k], a non-positive time bound), is a
   command-line error. *)
let reach_problem ?min_jumps ~boxes ~goal ~goal_modes ~k ~time_bound h =
  match Expr.Parse.formula_opt goal with
  | None -> Error (`Msg (Printf.sprintf "cannot parse goal %S" goal))
  | Some predicate -> (
      match
        Reach.Encoding.create ~param_box:(Box.of_list boxes) ?min_jumps
          ~goal:{ Reach.Encoding.goal_modes; predicate }
          ~k ~time_bound h
      with
      | pb -> Ok pb
      | exception Invalid_argument msg -> Error (`Msg msg))

let reach () (name, entry) t_end params goal goal_modes k min_jumps boxes common =
  with_common common @@ fun () ->
  let time_bound = Option.value ~default:entry.default_t_end t_end in
  let h = entry.automaton () in
  let h = if params = [] then h else Hybrid.Automaton.bind_params params h in
  match reach_problem ~min_jumps ~boxes ~goal ~goal_modes ~k ~time_bound h with
  | Error e -> Error e
  | Ok pb ->
      let config = { Reach.Checker.default_config with jobs = common.jobs } in
      let result = Reach.Checker.check ~config pb in
      Ok
        [ Report.heading (Printf.sprintf "Bounded reachability: %s" name);
          Report.kv
            [ ("goal", goal); ("k", string_of_int k);
              ("min jumps", string_of_int min_jumps);
              ("time bound", Fmt.str "%g" time_bound);
              ("jobs", string_of_int common.jobs);
              ("candidate paths", string_of_int (List.length (Reach.Encoding.candidate_paths pb))) ];
          Report.text "verdict: %s" (Fmt.str "%a" Reach.Checker.pp_result result);
          cache_line () ]

let reach_cmd =
  let info =
    Cmd.info "reach"
      ~doc:"Decide bounded reachability of a goal (delta-sat / unsat)."
  in
  Cmd.v info
    Term.(
      term_result
        (const reach $ logs_term $ model_arg $ t_end_arg $ param_arg $ goal_arg
       $ goal_modes_arg $ k_arg $ min_jumps_arg $ box_arg $ common_term))

(* ---- robustness ---- *)

let robustness () lo hi steps =
  let make (a, b) =
    Biomodels.Bueno_cherry_fenton.automaton ~stimulus:a ~stimulus_width:(b -. a) ()
  in
  let goal = Biomodels.Bueno_cherry_fenton.excitation_goal () in
  let width = (hi -. lo) /. float_of_int steps in
  let ranges =
    List.init steps (fun i -> (lo +. (width *. float_of_int i), lo +. (width *. float_of_int (i + 1))))
  in
  let rows =
    List.map
      (fun ((a, b), v) ->
        [ Fmt.str "[%.3f, %.3f]" a b; Fmt.str "%a" Core.Robustness.pp_verdict v ])
      (Core.Robustness.sweep ~goal ~k:3 ~time_bound:100.0 make ranges)
  in
  Report.print
    [ Report.heading "Cardiac stimulation robustness (BCF)";
      Report.table ~header:[ "stimulus range"; "verdict" ] rows ];
  Ok ()

let robustness_cmd =
  let lo =
    Arg.(value & opt float 0.0 & info [ "lo" ] ~docv:"A" ~doc:"Lowest amplitude.")
  in
  let hi =
    Arg.(value & opt float 0.4 & info [ "hi" ] ~docv:"B" ~doc:"Highest amplitude.")
  in
  let steps =
    Arg.(value & opt int 8 & info [ "steps" ] ~docv:"N" ~doc:"Sweep resolution.")
  in
  let info =
    Cmd.info "robustness"
      ~doc:"Sweep stimulation amplitudes; unsat proves the range is filtered."
  in
  Cmd.v info Term.(term_result (const robustness $ logs_term $ lo $ hi $ steps))

(* ---- therapy ---- *)

let therapy () =
  let automaton = Biomodels.Tbi.automaton () in
  let param_box =
    Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ]
  in
  let outcome =
    Core.Therapy.optimize ~param_box
      ~recovery:(Biomodels.Tbi.recovery_goal ())
      ~harm:(Biomodels.Tbi.death_goal ())
      ~max_jumps:4 ~time_bound:40.0 automaton
  in
  Report.print
    [ Report.heading "TBI combination-therapy synthesis";
      Report.text "%s" (Fmt.str "%a" Core.Therapy.pp_outcome outcome) ];
  Ok ()

let therapy_cmd =
  let info =
    Cmd.info "therapy"
      ~doc:"Synthesize a minimal-drug treatment scheme for the TBI model."
  in
  Cmd.v info Term.(term_result (const therapy $ logs_term))

(* ---- stability ---- *)

let classic_systems =
  [ ("damped-rotation", Biomodels.Classics.damped_rotation);
    ("damped-nonlinear", Biomodels.Classics.damped_nonlinear);
    ("proofreading", Biomodels.Classics.proofreading);
    ("erk", Biomodels.Classics.erk_cascade) ]

let stability () name =
  match List.assoc_opt name classic_systems with
  | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown system %S (try: %s)" name
             (String.concat ", " (List.map fst classic_systems))))
  | Some sys ->
      let region = Biomodels.Classics.unit_box (Ode.System.vars sys) in
      let r = Core.Stability.prove ~region sys in
      Report.print
        [ Report.heading (Printf.sprintf "Lyapunov stability: %s" name);
          Report.text "%s" (Fmt.str "%a" Core.Stability.pp_report r) ];
      Ok ()

let stability_cmd =
  let sys_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SYSTEM" ~doc:"One of the built-in autonomous systems.")
  in
  let info =
    Cmd.info "stability" ~doc:"Synthesize a Lyapunov certificate by CEGIS."
  in
  Cmd.v info Term.(term_result (const stability $ logs_term $ sys_arg))

(* ---- smc ---- *)

let smc () n common =
  with_common common @@ fun () ->
  let jobs = common.jobs in
  let prob =
    Smc.Runner.problem
      ~model:(Smc.Runner.Ode_model Biomodels.Classics.p53_mdm2)
      ~init_dist:
        [ ("p53", Smc.Sampler.Uniform (0.02, 0.08));
          ("mdm2", Smc.Sampler.Uniform (0.02, 0.08)) ]
      ~param_dist:[ ("damage", Smc.Sampler.Uniform (0.5, 1.5)) ]
      ~property:(Smc.Bltl.Finally (30.0, Smc.Bltl.prop "p53 >= 0.3"))
      ~t_end:30.0 ()
  in
  let e = Smc.Runner.estimate_bayesian ~jobs ~n prob in
  Ok
    [ Report.heading "SMC: p53 pulse probability under high damage";
      Report.text "(%d sampling domain(s))" jobs;
      Report.text "%s" (Fmt.str "%a" Smc.Estimate.pp_estimate e) ]

let smc_cmd =
  let n_arg =
    Arg.(value & opt int 300 & info [ "n" ] ~docv:"N" ~doc:"Sample count.")
  in
  let info = Cmd.info "smc" ~doc:"Statistical model checking demo (p53 module)." in
  Cmd.v info Term.(term_result (const smc $ logs_term $ n_arg $ common_term))

(* ---- solve ---- *)

let solve () formula boxes delta common =
  with_common common @@ fun () ->
  match Expr.Parse.formula_opt formula with
  | None -> Error (`Msg (Printf.sprintf "cannot parse %S" formula))
  | Some f ->
      let box = Box.of_list boxes in
      let missing =
        List.filter (fun v -> not (Box.mem_var v box)) (Expr.Formula.free_var_list f)
      in
      if missing <> [] then
        Error
          (`Msg
            (Printf.sprintf "missing --box for variable(s): %s"
               (String.concat ", " missing)))
      else begin
        let config =
          { Icp.Solver.default_config with delta; jobs = common.jobs }
        in
        let result, stats = Icp.Solver.decide_with_stats ~config f box in
        Ok
          [ Report.heading "delta-decision";
            Report.kv
              [ ("formula", formula); ("delta", Fmt.str "%g" delta);
                ("jobs", string_of_int common.jobs);
                ("boxes", string_of_int stats.Icp.Solver.boxes_processed) ];
            Report.text "verdict: %s" (Fmt.str "%a" Icp.Solver.pp_result result);
            cache_line () ]
      end

let solve_cmd =
  let formula_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FORMULA" ~doc:"Quantifier-free L_RF formula.")
  in
  let delta_arg =
    Arg.(value & opt float 1e-3 & info [ "delta" ] ~docv:"D" ~doc:"Perturbation δ.")
  in
  let info = Cmd.info "solve" ~doc:"Decide an L_RF formula over given variable boxes." in
  Cmd.v info
    Term.(
      term_result
        (const solve $ logs_term $ formula_arg $ box_arg $ delta_arg
       $ common_term))

(* ---- synth ---- *)

(* Parametric single-mode systems suitable for BioPSy-style synthesis. *)
let synth_systems =
  [ ("lotka-volterra", Biomodels.Classics.lotka_volterra);
    ("lotka-volterra-full", Biomodels.Classics.lotka_volterra_full);
    ("p53", Biomodels.Classics.p53_mdm2);
    ("sir", Biomodels.Classics.sir) ]

let synth () name boxes true_params inits points tolerance noise epsilon t_end
    common =
  with_common common @@ fun () ->
  match List.assoc_opt name synth_systems with
  | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown system %S (try: %s)" name
             (String.concat ", " (List.map fst synth_systems))))
  | Some sys ->
      let sys_params = Ode.System.params sys in
      let missing_box =
        List.filter (fun p -> not (List.mem_assoc p boxes)) sys_params
      in
      if missing_box <> [] then
        Error
          (`Msg
            (Printf.sprintf "missing --box for parameter(s): %s"
               (String.concat ", " missing_box)))
      else begin
        let param_box = Box.of_list boxes in
        (* Ground truth for the synthetic data: --param overrides, box
           midpoints otherwise. *)
        let truth =
          List.map
            (fun p ->
              match List.assoc_opt p true_params with
              | Some v -> (p, v)
              | None -> (p, I.mid (Box.find p param_box)))
            sys_params
        in
        let init_env =
          List.map
            (fun v ->
              match List.assoc_opt v inits with
              | Some x -> (v, x)
              | None -> (v, 0.1))
            (Ode.System.vars sys)
        in
        let data =
          Synth.Data.synthetic
            ~rng:(Random.State.make [| 20200426 |])
            ~sys ~params:truth ~init:init_env ~t_end
            ~observed:(Ode.System.vars sys) ~n:points ~noise ~tolerance
        in
        let init_box =
          Box.of_list (List.map (fun (v, x) -> (v, I.of_float x)) init_env)
        in
        let prob = Synth.Biopsy.problem ~sys ~param_box ~init:init_box ~data in
        let config =
          { Synth.Biopsy.default_config with epsilon; jobs = common.jobs }
        in
        let r = Synth.Biopsy.synthesize ~config prob in
        let vc, vi, vu = Synth.Biopsy.volumes prob r in
        Ok
          [ Report.heading (Printf.sprintf "Parameter synthesis: %s" name);
            Report.kv
              [ ("parameters", String.concat ", " sys_params);
                ("ground truth",
                 String.concat ", "
                   (List.map (fun (p, v) -> Printf.sprintf "%s=%g" p v) truth));
                ("data points", string_of_int (List.length data));
                ("epsilon", Fmt.str "%g" epsilon);
                ("jobs", string_of_int common.jobs) ];
            Report.text "%s" (Fmt.str "%a" Synth.Biopsy.pp_result r);
            Report.text "volumes: consistent %.4g, inconsistent %.4g, undecided %.4g"
              vc vi vu;
            (if Synth.Biopsy.falsified r then
               Report.text "model FALSIFIED: no parameter fits the data"
             else Report.text "model admits consistent parameters");
            cache_line () ]
      end

let synth_cmd =
  let sys_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SYSTEM"
          ~doc:"One of the built-in autonomous systems (see `biomc models`).")
  in
  let init_arg =
    let doc = "Initial state component, e.g. --init x=0.2 (repeatable; default 0.1)." in
    let kv_conv =
      let parse s =
        match String.index_opt s '=' with
        | Some i -> (
            let k = String.sub s 0 i
            and v = String.sub s (i + 1) (String.length s - i - 1) in
            match float_of_string_opt v with
            | Some f -> Ok (k, f)
            | None -> Error (`Msg (Printf.sprintf "invalid value in %S" s)))
        | None -> Error (`Msg (Printf.sprintf "expected key=value, got %S" s))
      in
      Arg.conv (parse, fun ppf (k, v) -> Fmt.pf ppf "%s=%g" k v)
    in
    Arg.(value & opt_all kv_conv [] & info [ "init" ] ~docv:"VAR=VAL" ~doc)
  in
  let points_arg =
    Arg.(value & opt int 8 & info [ "points" ] ~docv:"N" ~doc:"Samples per observed variable.")
  in
  let tolerance_arg =
    Arg.(value & opt float 0.2 & info [ "tolerance" ] ~docv:"T" ~doc:"Half-width of acceptance bands.")
  in
  let noise_arg =
    Arg.(value & opt float 0.0 & info [ "noise" ] ~docv:"W" ~doc:"Uniform noise bound on the data.")
  in
  let epsilon_arg =
    Arg.(value & opt float 1e-2 & info [ "epsilon" ] ~docv:"E" ~doc:"Minimum parameter-box width.")
  in
  let t_end_synth_arg =
    Arg.(value & opt float 10.0 & info [ "t-end" ] ~docv:"TIME" ~doc:"Data horizon.")
  in
  let info =
    Cmd.info "synth"
      ~doc:
        "Guaranteed parameter synthesis (BioPSy): pave a parameter box into \
         consistent / inconsistent / undecided regions against synthetic data."
  in
  Cmd.v info
    Term.(
      term_result
        (const synth $ logs_term $ sys_arg $ box_arg $ param_arg $ init_arg
       $ points_arg $ tolerance_arg $ noise_arg $ epsilon_arg $ t_end_synth_arg
       $ common_term))

(* ---- export (.drh) ---- *)

let export () (name, entry) t_end params goal goal_modes k boxes output =
  let time_bound = Option.value ~default:entry.default_t_end t_end in
  let h = entry.automaton () in
  let h = if params = [] then h else Hybrid.Automaton.bind_params params h in
  match reach_problem ~boxes ~goal ~goal_modes ~k ~time_bound h with
  | Error e -> Error e
  | Ok pb ->
      (match output with
      | Some path ->
          Reach.Drh.to_file path pb;
          Fmt.pr "wrote %s (dReach .drh for model %s)@." path name
      | None -> print_string (Reach.Drh.of_problem pb));
      Ok ()

let export_cmd =
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to a file instead of stdout.")
  in
  let info =
    Cmd.info "export"
      ~doc:"Export a reachability problem in dReach .drh format (interop)."
  in
  Cmd.v info
    Term.(
      term_result
        (const export $ logs_term $ model_arg $ t_end_arg $ param_arg $ goal_arg
       $ goal_modes_arg $ k_arg $ box_arg $ output_arg))

(* ---- explain ---- *)

let write_or_stdout path content =
  if path = "-" then print_string content
  else begin
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    Fmt.pr "wrote %s@." path
  end

let explain () file json dot max_nodes no_audit =
  match Journal.load file with
  | Error msg -> Error (`Msg (Printf.sprintf "%s: invalid journal: %s" file msg))
  | Ok records ->
      let forest = Journal.reconstruct records in
      (match json with
      | Some path -> write_or_stdout path (Journal.provenance_json forest ^ "\n")
      | None -> print_string (Journal.report forest));
      (match dot with
      | Some path -> write_or_stdout path (Journal.to_dot ~max_nodes forest)
      | None -> ());
      if no_audit then Ok ()
      else begin
        match Journal.audit forest with
        | [] ->
            Fmt.pr "audit: clean (%d records, %d runs)@." (List.length records)
              (List.length (Journal.runs forest));
            Ok ()
        | problems ->
            Error
              (`Msg
                (Printf.sprintf "%s: audit failed:\n  %s" file
                   (String.concat "\n  " problems)))
      end

let explain_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"NDJSON provenance journal written by --journal / BIOMC_JOURNAL.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the provenance payload as JSON to $(docv) ('-' for stdout) \
             instead of printing the human-readable report.")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Also write a truncated Graphviz DOT export of the search forest \
             ('-' for stdout).")
  in
  let max_nodes_arg =
    Arg.(
      value & opt int 400
      & info [ "max-nodes" ] ~docv:"N" ~doc:"Node cap of the DOT export.")
  in
  let no_audit_arg =
    Arg.(value & flag & info [ "no-audit" ] ~doc:"Skip the soundness audit.")
  in
  let info =
    Cmd.info "explain"
      ~doc:
        "Reload a provenance journal, reconstruct the search forest and \
         report verdict provenance (prune-reason breakdown per depth, \
         witness chain for delta-sat, refutation cover for unsat), then \
         audit it for soundness."
  in
  Cmd.v info
    Term.(
      term_result
        (const explain $ logs_term $ file_arg $ json_arg $ dot_arg
       $ max_nodes_arg $ no_audit_arg))

(* ---- check-artifacts (and its historical alias trace-check) ---- *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Sniff what kind of artifact a file is: a Chrome trace is one JSON
   object whose top level carries a "traceEvents" array; a journal is
   NDJSON whose records never contain that key. *)
let artifact_kind file =
  let ic = open_in_bin file in
  let n = Stdlib.min 4096 (in_channel_length ic) in
  let head = really_input_string ic n in
  close_in ic;
  if contains_substring head "traceEvents" then `Trace else `Journal

let check_one_artifact file =
  match artifact_kind file with
  | `Trace -> (
      match Telemetry.Trace.validate_file file with
      | Error msg ->
          Error (Printf.sprintf "%s: invalid trace: %s" file msg)
      | Ok c ->
          Ok
            [ Report.heading (Printf.sprintf "Trace check: %s" file);
              Report.kv
                [ ("events", string_of_int c.Telemetry.Trace.events);
                  ("begin/end pairs",
                   Printf.sprintf "%d/%d" c.Telemetry.Trace.begins
                     c.Telemetry.Trace.ends);
                  ("instants", string_of_int c.Telemetry.Trace.instants);
                  ("domains",
                   String.concat ", "
                     (List.map string_of_int c.Telemetry.Trace.tids));
                  ("max span depth",
                   string_of_int c.Telemetry.Trace.max_depth) ];
              Report.text
                "trace is well-formed (begin/end balanced per domain)" ])
  | `Journal -> (
      match Journal.load file with
      | Error msg -> Error (Printf.sprintf "%s: invalid journal: %s" file msg)
      | Ok records -> (
          let forest = Journal.reconstruct records in
          match Journal.audit forest with
          | [] ->
              let runs = Journal.runs forest in
              Ok
                [ Report.heading (Printf.sprintf "Journal check: %s" file);
                  Report.kv
                    [ ("records", string_of_int (List.length records));
                      ("runs", string_of_int (List.length runs));
                      ("verdicts",
                       String.concat "; "
                         (List.map
                            (fun (r : Journal.run_info) ->
                              Printf.sprintf "%s: %s" r.Journal.kind
                                (Option.value ~default:"(unfinished)"
                                   r.Journal.verdict))
                            runs)) ];
                  Report.text "journal is sound (audit clean)" ]
          | problems ->
              Error
                (Printf.sprintf "%s: audit failed:\n  %s" file
                   (String.concat "\n  " problems))))

let check_artifacts () files =
  let failures =
    List.filter_map
      (fun file ->
        match check_one_artifact file with
        | Ok items ->
            Report.print items;
            None
        | Error msg -> Some msg)
      files
  in
  if failures = [] then Ok ()
  else Error (`Msg (String.concat "\n" failures))

let artifact_files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Observability artifacts to validate: Chrome trace_event JSON \
           files (--trace) and NDJSON provenance journals (--journal), \
           type-sniffed per file.")

let check_artifacts_cmd =
  let info =
    Cmd.info "check-artifacts"
      ~doc:
        "Validate observability artifacts: traces are parsed back and \
         checked for begin/end balance per domain, journals are \
         reconstructed and put through the soundness audit."
  in
  Cmd.v info
    Term.(term_result (const check_artifacts $ logs_term $ artifact_files_arg))

let trace_check_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Artifact file to validate.")
  in
  let info =
    Cmd.info "trace-check"
      ~doc:
        "Alias of check-artifacts for a single file (kept for \
         compatibility; journals are accepted too)."
  in
  Cmd.v info
    Term.(
      term_result
        (const (fun () file -> check_artifacts () [ file ])
        $ logs_term $ file_arg))

(* ---- models listing ---- *)

let list_models () =
  Report.print
    [ Report.heading "Built-in models";
      Report.table
        ~header:[ "name"; "description" ]
        (List.map (fun (n, e) -> [ n; e.description ]) models);
      Report.heading "Built-in autonomous systems (for `stability`)";
      Report.table
        ~header:[ "name"; "variables" ]
        (List.map
           (fun (n, s) -> [ n; String.concat ", " (Ode.System.vars s) ])
           classic_systems);
      Report.heading "Built-in parametric systems (for `synth`)";
      Report.table
        ~header:[ "name"; "variables"; "parameters" ]
        (List.map
           (fun (n, s) ->
             [ n; String.concat ", " (Ode.System.vars s);
               String.concat ", " (Ode.System.params s) ])
           synth_systems) ];
  Ok ()

let list_cmd =
  let info = Cmd.info "models" ~doc:"List the built-in models." in
  Cmd.v info Term.(term_result (const list_models $ logs_term))

let main_cmd =
  let doc =
    "Model checking-based analysis of systems biology models (δ-decisions)"
  in
  let info = Cmd.info "biomc" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ simulate_cmd; reach_cmd; robustness_cmd; therapy_cmd; stability_cmd;
      smc_cmd; solve_cmd; synth_cmd; export_cmd; explain_cmd;
      check_artifacts_cmd; trace_check_cmd; list_cmd ]

let () = exit (Cmd.eval main_cmd)
