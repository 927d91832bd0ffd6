(* Benchmark harness: regenerates every experiment of the paper
   reproduction (see DESIGN.md §4 and EXPERIMENTS.md) and then times the
   framework's kernels with Bechamel (one Test.make per experiment).

   Part 1 — experiment reproduction: prints the table/series each
   experiment reports (verdicts, parameter ranges, crossovers, paving
   volumes, probabilities).  Absolute numbers are machine-dependent; the
   *shapes* (who wins, where verdicts flip) are the reproduction targets.

   Part 2 — kernel timing: Bechamel OLS estimates of ns/run for one
   representative workload per experiment, plus the ablations A1–A3.

   Run with:  dune exec bench/main.exe *)

module I = Interval.Ia
module Box = Interval.Box
module E = Reach.Encoding
module C = Reach.Checker
module Report = Core.Report

let section title = Report.print [ Report.heading title ]

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Time two settings in 7 rounds, alternating which one goes first, and
   report each one's last result and median round.  A round times a
   batch of runs lasting at least 50 ms ([prepare] runs untimed before
   each one) and keeps the time per run: a kernel whose run takes a few
   milliseconds is then timed over many, not over one
   clock-noise-sized interval. *)
let alternating_batches ?(prepare = ignore) a b =
  let rounds = 7 and batch_s = 0.05 in
  let batch run =
    let total = ref 0.0 and runs = ref 0 and result = ref None in
    while !total < batch_s do
      prepare ();
      let r, dt = timed run in
      total := !total +. dt;
      incr runs;
      result := Some r
    done;
    (Option.get !result, !total /. float_of_int !runs)
  in
  let t_a = Array.make rounds 0.0 and t_b = Array.make rounds 0.0 in
  let r_a = ref None and r_b = ref None in
  for i = 0 to rounds - 1 do
    let run_a () =
      let r, t = batch a in
      r_a := Some r;
      t_a.(i) <- t
    and run_b () =
      let r, t = batch b in
      r_b := Some r;
      t_b.(i) <- t
    in
    if i land 1 = 0 then (run_a (); run_b ()) else (run_b (); run_a ())
  done;
  ((Option.get !r_a, median t_a), (Option.get !r_b, median t_b))

(* ------------------------------------------------------------------ *)
(* E1: Fenton–Karma spike-and-dome falsification                       *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  Fenton-Karma spike-and-dome falsification (Sec. IV-A)";
  let fk = Biomodels.Fenton_karma.automaton () in
  let goal = Biomodels.Fenton_karma.spike_and_dome_goal () in
  let rows =
    List.map
      (fun k ->
        let r, dt =
          timed (fun () ->
              C.check (E.create ~min_jumps:2 ~goal ~k ~time_bound:400.0 fk))
        in
        [ string_of_int k; Fmt.str "%a" C.pp_result r; Fmt.str "%.2fs" dt ])
      [ 2; 3; 4 ]
  in
  Report.print
    [ Report.table ~header:[ "k"; "verdict (expected: unsat)"; "time" ] rows ]

(* ------------------------------------------------------------------ *)
(* E2: BCF tau_so1 synthesis + APD map                                 *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2  BCF parameter ranges causing early repolarization (Sec. IV-A)";
  let bcf = Biomodels.Bueno_cherry_fenton.automaton ~free_params:[ "tau_so1" ] () in
  let goal = Biomodels.Bueno_cherry_fenton.early_repolarization_goal () in
  let verdict_rows =
    List.map
      (fun (lo, hi, expected) ->
        let r, dt =
          timed (fun () ->
              C.check
                (E.create
                   ~param_box:(Box.of_list [ ("tau_so1", I.make lo hi) ])
                   ~goal ~k:3 ~time_bound:150.0 bcf))
        in
        [ Fmt.str "[%g, %g]" lo hi; expected; Fmt.str "%a" C.pp_result r;
          Fmt.str "%.2fs" dt ])
      [ (5.0, 45.0, "delta-sat (abnormal witness)");
        (5.0, 15.0, "delta-sat");
        (25.0, 45.0, "unsat") ]
  in
  let apd_rows =
    List.map
      (fun tau ->
        let apd =
          Biomodels.Bueno_cherry_fenton.apd
            ~constants:{ Biomodels.Bueno_cherry_fenton.epi with tau_so1 = tau }
            ~params:[] ~t_end:800.0 ()
        in
        [ Fmt.str "%.0f" tau;
          (match apd with Some a -> Fmt.str "%.1f" a | None -> "-") ])
      [ 8.0; 12.0; 16.0; 20.0; 25.0; 30.0; 40.0; 50.0; 60.0 ]
  in
  Report.print
    [ Report.table ~header:[ "tau_so1 box"; "expected"; "verdict"; "time" ] verdict_rows;
      Report.text "APD series (monotone increasing in tau_so1; EPI normal ~270):";
      Report.table ~header:[ "tau_so1"; "APD (ms)" ] apd_rows ]

(* ------------------------------------------------------------------ *)
(* E3: prostate cancer IAS therapy                                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3  Prostate cancer personalized IAS therapy (Sec. IV-B)";
  let sim_rows =
    List.map
      (fun (label, r0, r1) ->
        let y, cycles, _ = Biomodels.Prostate.simulate_therapy ~r0 ~r1 ~t_end:800.0 () in
        [ label; Fmt.str "%.3f" y; string_of_int cycles;
          (if y >= 1.0 then "RELAPSE" else "controlled") ])
      [ ("continuous", -1.0, 1e9); ("IAS 4/10", 4.0, 10.0); ("IAS 6/12", 6.0, 12.0) ]
  in
  let automaton = Biomodels.Prostate.automaton () in
  let relapse = Biomodels.Prostate.relapse_goal ~level:1.0 () in
  let ias, dt_ias =
    timed (fun () ->
        C.check
          (E.create
             ~param_box:(Box.of_list [ ("r0", I.make 2.0 6.0); ("r1", I.make 8.0 14.0) ])
             ~goal:relapse ~k:6 ~time_bound:400.0 automaton))
  in
  let cas, dt_cas =
    timed (fun () ->
        C.check
          (E.create ~goal:relapse ~k:2 ~time_bound:1500.0
             (Hybrid.Automaton.bind_params [ ("r0", -1.0); ("r1", 1e6) ] automaton)))
  in
  Report.print
    [ Report.table ~header:[ "protocol"; "final y"; "cycles"; "outcome" ] sim_rows;
      Report.kv
        [ ("relapse, IAS box r0:[2,6] r1:[8,14] (expect unsat)",
           Fmt.str "%a  (%.2fs)" C.pp_result ias dt_ias);
          ("relapse, continuous therapy (expect delta-sat)",
           Fmt.str "%a  (%.2fs)" C.pp_result cas dt_cas) ] ]

(* ------------------------------------------------------------------ *)
(* E4: TBI combination therapy (Fig. 3)                                *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  TBI treatment-scheme synthesis 0->A->B->0 (Sec. IV-B, Fig. 3)";
  let automaton = Biomodels.Tbi.automaton () in
  let param_box =
    Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ]
  in
  let untreated = Biomodels.Tbi.simulate_policy ~theta1:100.0 ~theta2:100.0 ~t_end:60.0 () in
  let plan, dt =
    timed (fun () ->
        Core.Therapy.optimize ~param_box
          ~recovery:(Biomodels.Tbi.recovery_goal ())
          ~harm:(Biomodels.Tbi.death_goal ())
          ~max_jumps:4 ~time_bound:40.0 automaton)
  in
  Report.print
    [ Report.kv
        [ ("untreated outcome (expect death)", untreated.Hybrid.Simulate.final_mode);
          ("synthesized scheme (expect m0->mA->mB->m0, 3 jumps, safe)",
           Fmt.str "%a" Core.Therapy.pp_outcome plan);
          ("synthesis time", Fmt.str "%.2fs" dt) ] ]

(* ------------------------------------------------------------------ *)
(* E5: stimulation robustness sweep                                    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  Cardiac stimulation robustness sweep (Sec. IV-C)";
  let make (lo, hi) =
    Biomodels.Bueno_cherry_fenton.automaton ~stimulus:lo ~stimulus_width:(hi -. lo) ()
  in
  let goal = Biomodels.Bueno_cherry_fenton.excitation_goal () in
  let ranges = List.init 8 (fun i -> (0.05 *. float_of_int i, 0.05 *. float_of_int (i + 1))) in
  let rows =
    List.map
      (fun ((lo, hi), v) ->
        [ Fmt.str "[%.2f, %.2f]" lo hi; Fmt.str "%a" Core.Robustness.pp_verdict v ])
      (Core.Robustness.sweep ~goal ~k:3 ~time_bound:100.0 make ranges)
  in
  Report.print
    [ Report.table ~header:[ "stimulus range"; "verdict (crossover at 0.3)" ] rows ]

(* ------------------------------------------------------------------ *)
(* E6: Lyapunov stability certificates                                 *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  Lyapunov synthesis via exists-forall delta-decisions (Sec. IV-C)";
  let rows =
    List.map
      (fun (name, sys) ->
        let region = Biomodels.Classics.unit_box (Ode.System.vars sys) in
        let (outcome, dt) =
          timed (fun () ->
              Lyapunov.Cegis.synthesize
                (Lyapunov.Cegis.problem ~region
                   ~template:(Lyapunov.Template.quadratic (Ode.System.vars sys))
                   sys))
        in
        match outcome with
        | Lyapunov.Cegis.Proved c ->
            [ name; Fmt.str "%a" Expr.Term.pp c.Lyapunov.Cegis.v;
              string_of_int c.Lyapunov.Cegis.iterations; Fmt.str "%.2fs" dt ]
        | o -> [ name; Fmt.str "%a" Lyapunov.Cegis.pp_outcome o; "-"; Fmt.str "%.2fs" dt ])
      [ ("damped rotation", Biomodels.Classics.damped_rotation);
        ("damped nonlinear", Biomodels.Classics.damped_nonlinear);
        ("proofreading chain", Biomodels.Classics.proofreading);
        ("ERK cascade", Biomodels.Classics.erk_cascade) ]
  in
  Report.print [ Report.table ~header:[ "system"; "V"; "iters"; "time" ] rows ]

(* ------------------------------------------------------------------ *)
(* E7: guaranteed calibration (BioPSy workload)                        *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  Guaranteed calibration of a single-mode ODE model (Sec. IV-A)";
  let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ] in
  let data =
    List.map
      (fun t ->
        Synth.Data.point ~time:t ~var:"x" ~value:(Float.exp (-.t)) ~tolerance:0.08)
      [ 0.25; 0.5; 0.75; 1.0 ]
  in
  let prob =
    Synth.Biopsy.problem ~sys
      ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      ~data
  in
  let rows =
    List.map
      (fun eps ->
        let r, dt =
          timed (fun () ->
              Synth.Biopsy.synthesize
                ~config:{ Synth.Biopsy.default_config with epsilon = eps }
                prob)
        in
        let vc, vi, vu = Synth.Biopsy.volumes prob r in
        [ Fmt.str "%.3f" eps; Fmt.str "%.4f" vc; Fmt.str "%.4f" vi;
          Fmt.str "%.4f" vu; string_of_int r.Synth.Biopsy.boxes_explored;
          Fmt.str "%.2fs" dt ])
      [ 0.2; 0.1; 0.05; 0.02 ]
  in
  (* falsification instance *)
  let bad_data =
    [ Synth.Data.point ~time:0.5 ~var:"x" ~value:2.0 ~tolerance:0.2;
      Synth.Data.point ~time:1.0 ~var:"x" ~value:4.0 ~tolerance:0.2 ]
  in
  let bad =
    Synth.Biopsy.problem ~sys
      ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      ~data:bad_data
  in
  let fr = Synth.Biopsy.synthesize bad in
  Report.print
    [ Report.text
        "paving volumes vs epsilon (undecided must shrink, truth k=1 in consistent):";
      Report.table
        ~header:[ "eps"; "consistent"; "inconsistent"; "undecided"; "boxes"; "time" ]
        rows;
      Report.text "growth data against the decay model: falsified = %b (expect true)"
        (Synth.Biopsy.falsified fr) ]

(* ------------------------------------------------------------------ *)
(* E8: SMC of the p53 module                                           *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  SMC of the p53 radiation-response module (Fig. 2 branch)";
  let problem lo hi =
    Smc.Runner.problem
      ~model:(Smc.Runner.Ode_model Biomodels.Classics.p53_mdm2)
      ~init_dist:
        [ ("p53", Smc.Sampler.Uniform (0.02, 0.08));
          ("mdm2", Smc.Sampler.Uniform (0.02, 0.08)) ]
      ~param_dist:[ ("damage", Smc.Sampler.Uniform (lo, hi)) ]
      ~property:(Smc.Bltl.Finally (30.0, Smc.Bltl.prop "p53 >= 0.3"))
      ~t_end:30.0 ()
  in
  let rows =
    List.map
      (fun (label, lo, hi) ->
        let e, dt = timed (fun () -> Smc.Runner.estimate ~eps:0.1 ~alpha:0.05 (problem lo hi)) in
        [ label; Fmt.str "%.3f" e.Smc.Estimate.p_hat;
          Fmt.str "[%.2f, %.2f]" e.Smc.Estimate.ci_low e.Smc.Estimate.ci_high;
          string_of_int e.Smc.Estimate.n; Fmt.str "%.2fs" dt ])
      [ ("damage 0.0-0.1", 0.0, 0.1); ("damage 0.1-0.5", 0.1, 0.5);
        ("damage 0.5-1.5", 0.5, 1.5) ]
  in
  let sprt =
    Smc.Runner.test ~config:{ Smc.Sprt.default_config with theta = 0.9 }
      (problem 0.5 1.5)
  in
  Report.print
    [ Report.table ~header:[ "regime"; "P(pulse)"; "95% CI"; "n"; "time" ] rows;
      Report.text "SPRT P >= 0.9 at high damage: %s" (Fmt.str "%a" Smc.Sprt.pp_result sprt) ]

(* ------------------------------------------------------------------ *)
(* E9: DBN abstraction (the paper's proposed probabilistic extension)  *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  Factored-DBN abstraction vs ground truth (Conclusion / refs [3]-[5])";
  let decay = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ] in
  let grid = Dbn.Grid.create [ Dbn.Grid.axis ~var:"x" ~lo:0.0 ~hi:1.5 ~cells:15 ] in
  let init_dist = [ ("x", Smc.Sampler.Uniform (0.8, 1.2)) ] in
  let m, learn_t =
    timed (fun () ->
        Dbn.Model.learn
          ~config:{ Dbn.Model.default_learn with Dbn.Model.samples = 1500 }
          ~grid ~slices:10 ~horizon:2.0 ~init_dist ~param_dist:[] decay)
  in
  let belief = Dbn.Model.belief_of_dist m init_dist in
  (* analytic: P(x0 e^-t <= 0.5) for x0 ~ U(0.8, 1.2) *)
  let exact t =
    let lim = 0.5 *. Float.exp t in
    Float.max 0.0 (Float.min 1.0 ((lim -. 0.8) /. 0.4))
  in
  let rows =
    List.map
      (fun t ->
        let p =
          Dbn.Model.probability m ~init_belief:belief ~var:"x" ~time:t (fun x ->
              x <= 0.5)
        in
        [ Fmt.str "%.1f" t; Fmt.str "%.3f" p; Fmt.str "%.3f" (exact t);
          Fmt.str "%.3f" (Float.abs (p -. exact t)) ])
      [ 0.2; 0.4; 0.6; 0.8; 1.0; 1.2 ]
  in
  Report.print
    [ Report.text "decay workload, P(x <= 0.5 at t), learned in %.2fs:" learn_t;
      Report.table ~header:[ "t"; "DBN"; "exact"; "abs err" ] rows ]

(* ------------------------------------------------------------------ *)
(* S1: delta-decision solver scaling                                   *)
(* ------------------------------------------------------------------ *)

let s1 () =
  section "S1  ICP solver behaviour: runtime vs delta and dimension (Sec. III)";
  (* Tangency instance: x² + y² = 1 ∧ xy = 1/2 touches at the single
     point x = y = 1/√2, so certification must localize a thin set —
     the work grows as δ shrinks.  The near-tangent plane instance does
     the same for the dimension sweep. *)
  let tangency = Expr.Parse.formula "x^2 + y^2 = 1 and x*y = 1/2" in
  let tangency_box = Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ] in
  let near_tangent_plane n =
    let vars = List.init n (fun i -> Printf.sprintf "x%d" i) in
    let sum_sq =
      String.concat " + " (List.map (fun v -> Printf.sprintf "%s^2" v) vars)
    in
    let f =
      Expr.Parse.formula
        (Printf.sprintf "%s = 1 and %s >= %.17g" sum_sq
           (String.concat " + " vars)
           (0.98 *. Float.sqrt (float_of_int n)))
    in
    let box = Box.of_list (List.map (fun v -> (v, I.make (-2.0) 2.0)) vars) in
    (f, box)
  in
  let verdict_str = function
    | Icp.Solver.Delta_sat _ -> "delta-sat"
    | Icp.Solver.Unsat -> "unsat"
    | Icp.Solver.Unknown _ -> "unknown"
  in
  let delta_rows =
    List.map
      (fun delta ->
        let config =
          { Icp.Solver.default_config with delta; epsilon = delta /. 10.0 }
        in
        let (r, stats), dt =
          timed (fun () -> Icp.Solver.decide_with_stats ~config tangency tangency_box)
        in
        [ Fmt.str "%.0e" delta; verdict_str r;
          string_of_int stats.Icp.Solver.boxes_processed; Fmt.str "%.4fs" dt ])
      [ 1e-1; 1e-2; 1e-3; 1e-4; 1e-5; 1e-6 ]
  in
  let dim_rows =
    List.map
      (fun n ->
        let f, box = near_tangent_plane n in
        let config = { Icp.Solver.default_config with delta = 1e-3; epsilon = 1e-4 } in
        let (r, stats), dt =
          timed (fun () -> Icp.Solver.decide_with_stats ~config f box)
        in
        [ string_of_int n; verdict_str r;
          string_of_int stats.Icp.Solver.boxes_processed; Fmt.str "%.4fs" dt ])
      [ 1; 2; 3; 4; 5 ]
  in
  Report.print
    [ Report.text "tangency instance (x²+y²=1 ∧ xy=1/2), shrinking delta:";
      Report.table ~header:[ "delta"; "verdict"; "boxes"; "time" ] delta_rows;
      Report.text "near-tangent sphere/plane, dimension scaling at delta = 1e-3:";
      Report.table ~header:[ "dim"; "verdict"; "boxes"; "time" ] dim_rows ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1  Ablation: validated-enclosure order (Euler-1 vs Taylor-2)";
  let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ] in
  let osc =
    Ode.System.of_strings ~vars:[ "x"; "y" ] ~params:[]
      ~rhs:[ ("x", "y"); ("y", "-x") ]
  in
  let run name sys init t_end order =
    let config = { Ode.Enclosure.default_config with order } in
    let tube, dt =
      timed (fun () ->
          Ode.Enclosure.flow ~config ~params:Box.empty_map ~init ~t_end sys)
    in
    [ name;
      (match order with Ode.Enclosure.Euler_1 -> "Euler-1" | Ode.Enclosure.Taylor_2 -> "Taylor-2");
      Fmt.str "%.3g" (Box.width tube.Ode.Enclosure.final);
      string_of_bool tube.Ode.Enclosure.complete; Fmt.str "%.3fs" dt ]
  in
  let x0 = Box.of_list [ ("x", I.of_float 1.0) ] in
  let xy0 = Box.of_list [ ("x", I.of_float 1.0); ("y", I.of_float 0.0) ] in
  Report.print
    [ Report.table
        ~header:[ "system"; "order"; "final width"; "complete"; "time" ]
        [ run "decay t=1" sys x0 1.0 Ode.Enclosure.Euler_1;
          run "decay t=1" sys x0 1.0 Ode.Enclosure.Taylor_2;
          run "oscillator t=2" osc xy0 2.0 Ode.Enclosure.Euler_1;
          run "oscillator t=2" osc xy0 2.0 Ode.Enclosure.Taylor_2 ] ]

let a2 () =
  section "A2  Ablation: mode-path enumeration with/without goal pruning";
  let tbi = Biomodels.Tbi.automaton () in
  let g = Hybrid.Graph.of_automaton tbi in
  let rows =
    List.map
      (fun k ->
        let all = Hybrid.Graph.paths ~max_jumps:k g ~source:"m0" in
        let pruned = Hybrid.Graph.paths ~targets:[ "m0" ] ~max_jumps:k g ~source:"m0" in
        [ string_of_int k; string_of_int (List.length all);
          string_of_int (List.length pruned) ])
      [ 2; 3; 4; 5; 6 ]
  in
  Report.print
    [ Report.text "TBI automaton (7 modes): candidate paths to explore:";
      Report.table ~header:[ "k"; "all paths"; "goal-pruned" ] rows ]

let a3 () =
  section "A3  Ablation: ICP contraction on/off in the delta-decision search";
  let f = Expr.Parse.formula "x^2 + y^2 = 1 and y >= x and x*y >= 0.1" in
  let box = Box.of_list [ ("x", I.make (-2.0) 2.0); ("y", I.make (-2.0) 2.0) ] in
  let rows =
    List.map
      (fun (label, use_contraction) ->
        let config = { Icp.Solver.default_config with use_contraction } in
        let (r, stats), dt = timed (fun () -> Icp.Solver.decide_with_stats ~config f box) in
        [ label;
          (match r with
          | Icp.Solver.Delta_sat _ -> "delta-sat"
          | Icp.Solver.Unsat -> "unsat"
          | Icp.Solver.Unknown _ -> "unknown");
          string_of_int stats.Icp.Solver.boxes_processed;
          string_of_int stats.Icp.Solver.prunings; Fmt.str "%.4fs" dt ])
      [ ("HC4 + bisection", true); ("bisection only", false) ]
  in
  Report.print
    [ Report.table ~header:[ "variant"; "verdict"; "boxes"; "prunings"; "time" ] rows ]

let a4 () =
  section "A4  Ablation: ensemble-bracket size in the reachability checker";
  let automaton = Biomodels.Prostate.automaton () in
  let relapse = Biomodels.Prostate.relapse_goal ~level:1.0 () in
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("r0", I.make 2.0 6.0); ("r1", I.make 8.0 14.0) ])
      ~goal:relapse ~k:6 ~time_bound:400.0 automaton
  in
  let rows =
    List.map
      (fun n ->
        let config = { C.default_config with fallback_samples = n } in
        let r, dt = timed (fun () -> C.check ~config pb) in
        [ string_of_int n; Fmt.str "%a" C.pp_result r; Fmt.str "%.2fs" dt ])
      [ 4; 12; 24; 48 ]
  in
  Report.print
    [ Report.text "E3 IAS-safety instance; the verdict must be stable in the";
      Report.text "ensemble size while cost grows roughly linearly:";
      Report.table ~header:[ "samples"; "verdict"; "time" ] rows ]

(* ------------------------------------------------------------------ *)
(* P1: multicore scaling sweep (jobs = 1, 2, 4, 8)                     *)
(* ------------------------------------------------------------------ *)

(* Each kernel runs [rounds] times per jobs value with scheduler
   telemetry captured per run; the minimum wall time survives (the
   container's clock is noisy, and the min filters throttling spikes).
   Sequential (jobs = 1) is the baseline for the speedup column, and the
   result of every parallel run is checked against it in-process —
   verdict kind for decide, exact leaf multiset for pave, bit-equal
   rounds plus a 2ε Chernoff corridor for the SMC estimate — so a
   scheduler bug cannot hide behind a good-looking speedup.  Results
   land in BENCH_icp.json (ns/op, speedup, search effort, and scheduler
   counters per kernel and jobs value, plus the detected core count —
   speedups are bounded by the latter; jobs beyond it are multiplexed
   onto the available domains). *)

let p1_jobs_sweep = [ 1; 2; 4; 8 ]

(* One run's scheduler telemetry, read off the metrics registry. *)
type p1_sched = {
  steals : int;
  steal_fails : int;
  idle_ns : int;
  lease_refills : int;
  deque_p50 : int;
  deque_p99 : int;
}

let p1_snapshot_sched () =
  let counters = Telemetry.Metrics.counters () in
  let c name = match List.assoc_opt name counters with Some v -> v | None -> 0 in
  let p50, p99 =
    match List.assoc_opt "pool.deque_depth" (Telemetry.Metrics.histograms ()) with
    | Some snap when snap.Telemetry.Histogram.count > 0 ->
        ( Telemetry.Histogram.quantile 0.5 snap,
          Telemetry.Histogram.quantile 0.99 snap )
    | _ -> (0, 0)
  in
  {
    steals = c "pool.steals";
    steal_fails = c "pool.steal_fails";
    idle_ns = c "pool.idle_ns";
    lease_refills = c "pool.lease_refills";
    deque_p50 = p50;
    deque_p99 = p99;
  }

let p1 ?(quick = false) () =
  section
    (if quick then "P1  Multicore scaling: decide / pave / SMC (quick)"
     else "P1  Multicore scaling: decide / pave / SMC across worker domains");
  let sweep = if quick then [ 1; 2 ] else p1_jobs_sweep in
  let rounds = if quick then 3 else 13 in
  (* Near-tangency unsat: max of x*y*z on the unit sphere is 3^(-3/2) ≈
     0.192450, so x*y*z = 0.1925 misses by 5e-5 — refuting it must
     exhaust a deep search tree (≈16k boxes), which is the
     parallelizable regime; a δ-sat race would end at the first witness
     instead.  (The PR-1..6 tangency kernel decided in a handful of
     boxes after the Newton and enclosure layers landed and measured only
     scheduler constants.) *)
  let sphere =
    Expr.Parse.formula "x^2 + y^2 + z^2 = 1 and x*y*z = 1925/10000"
  in
  let sphere_box =
    Box.of_list
      [ ("x", I.make 0.0 1.0); ("y", I.make 0.0 1.0); ("z", I.make 0.0 1.0) ]
  in
  let ring = Expr.Parse.formula "x^2 + y^2 <= 1 and x^2 + y^2 >= 1/2" in
  let ring_box =
    Box.of_list [ ("x", I.make (-1.5) 1.5); ("y", I.make (-1.5) 1.5) ]
  in
  let smc_eps = 0.03 in
  let smc_prob =
    Smc.Runner.problem
      ~model:(Smc.Runner.Ode_model Biomodels.Classics.p53_mdm2)
      ~init_dist:
        [ ("p53", Smc.Sampler.Uniform (0.02, 0.08));
          ("mdm2", Smc.Sampler.Uniform (0.02, 0.08)) ]
      ~param_dist:[ ("damage", Smc.Sampler.Uniform (0.5, 1.5)) ]
      ~property:(Smc.Bltl.Finally (30.0, Smc.Bltl.prop "p53 >= 0.3"))
      ~t_end:30.0 ()
  in
  let sort_leaves over bs =
    List.sort compare
      (List.map
         (fun b ->
           List.map
             (fun v ->
               let i = Box.find v b in
               (v, I.lo i, I.hi i))
             over)
         bs)
  in
  (* Each kernel returns (summary, (boxes, splits, prunings), check);
     [same] compares checks across rounds at one jobs value (must be
     exact — that is the determinism contract), [agrees] compares a
     parallel run's check against the jobs=1 baseline. *)
  let decide_kernel jobs =
    let config =
      { Icp.Solver.default_config with
        delta = 1e-7; epsilon = 1e-8; max_boxes = 10_000_000; jobs }
    in
    let r, stats = Icp.Solver.decide_with_stats ~config sphere sphere_box in
    let kind =
      match r with
      | Icp.Solver.Delta_sat _ -> "delta-sat"
      | Icp.Solver.Unsat -> "unsat"
      | Icp.Solver.Unknown _ -> "unknown"
    in
    ( Fmt.str "%s, %d boxes, %d certs" kind stats.Icp.Solver.boxes_processed
        stats.Icp.Solver.certifications,
      ( stats.Icp.Solver.boxes_processed,
        stats.Icp.Solver.splits,
        stats.Icp.Solver.prunings ),
      `Verdict kind )
  in
  let pave_kernel jobs =
    let config = { Icp.Solver.default_config with epsilon = 0.005; jobs } in
    let p, stats = Icp.Solver.pave_with_stats ~config ring ring_box in
    ( Fmt.str "%d/%d/%d leaves, %d boxes, %d splits"
        (List.length p.Icp.Solver.sat)
        (List.length p.Icp.Solver.unsat)
        (List.length p.Icp.Solver.undecided)
        stats.Icp.Solver.boxes_processed stats.Icp.Solver.splits,
      ( stats.Icp.Solver.boxes_processed,
        stats.Icp.Solver.splits,
        stats.Icp.Solver.prunings ),
      `Leaves
        (List.map
           (fun leaves -> sort_leaves [ "x"; "y" ] leaves)
           [ p.Icp.Solver.sat; p.Icp.Solver.unsat; p.Icp.Solver.undecided ]) )
  in
  let smc_kernel jobs =
    let e = Smc.Runner.estimate ~jobs ~eps:smc_eps ~alpha:0.05 smc_prob in
    ( Fmt.str "p=%.3f, n=%d" e.Smc.Estimate.p_hat e.Smc.Estimate.n,
      (0, 0, 0),
      `Est (e.Smc.Estimate.p_hat, e.Smc.Estimate.successes, e.Smc.Estimate.n) )
  in
  let agrees name base got =
    match (base, got) with
    | `Verdict a, `Verdict b ->
        if a <> b then failwith (Printf.sprintf "P1 %s: verdict %s <> %s" name b a)
    | `Leaves a, `Leaves b ->
        if a <> b then
          failwith (Printf.sprintf "P1 %s: parallel leaf set differs" name)
    | `Est (p_base, _, _), `Est (p_got, _, _) ->
        (* different jobs consume different PRNG streams; both estimates
           carry the same Chernoff ±ε bound *)
        if Float.abs (p_base -. p_got) > 2.0 *. smc_eps then
          failwith
            (Printf.sprintf "P1 %s: estimate %.3f outside 2eps of %.3f" name
               p_got p_base)
    | _ -> failwith (Printf.sprintf "P1 %s: check kind mismatch" name)
  in
  let same name jobs a b =
    if a <> b then
      failwith
        (Printf.sprintf "P1 %s: non-reproducible result at jobs=%d" name jobs)
  in
  (* Timed rounds run with metrics OFF: the pool's per-item counters and
     the deque-depth histogram only fire on the pooled (jobs > 1) code
     path, so leaving them on would tax exactly the runs whose speedup
     is being measured.  Scheduler telemetry instead comes from one
     extra, untimed run per (kernel, jobs) cell with metrics enabled —
     the kernels are deterministic at a fixed jobs value (asserted via
     [same]), so the extra run retraces the measured ones. *)
  (* Shared containers throttle in multi-second waves (observed: wall
     clock for a fixed workload halving and doubling on a ~5 s period),
     so any protocol that times the jobs=1 cell and the jobs=k cell far
     apart measures the wave, not the scheduler.  The speedup for
     jobs=k is therefore the {e median of adjacent-pair ratios}: each
     round times jobs=1 and jobs=k back to back (order alternating
     every round so neither side systematically runs on the fresher
     CPU), takes the ratio of those two adjacent walls - close enough
     in time that a slow wave taxes both sides equally - and the median
     over rounds discards the pairs a wave boundary happened to split.
     Each timed run is preceded by a major GC so a run never pays for
     the garbage of the previous one.  The wall column is the per-cell
     minimum over every sample taken (the usual noise-floor
     estimate). *)
  let measure_kernel name kernel =
    let slots = List.length sweep in
    let sweep_arr = Array.of_list sweep in
    let best = Array.make slots None in
    let checks = Array.make slots None in
    let run k =
      let jobs = sweep_arr.(k) in
      Gc.full_major ();
      let (summary, effort, check), dt = timed (fun () -> kernel jobs) in
      (match checks.(k) with
      | None -> checks.(k) <- Some check
      | Some c -> same name jobs c check);
      (match best.(k) with
      | Some (_, _, best_dt) when best_dt <= dt -> ()
      | _ -> best.(k) <- Some (summary, effort, dt));
      dt
    in
    (* one unrecorded warm-up so the first pair does not pay for cold
       caches and allocator growth *)
    ignore (run 0 : float);
    let ratios =
      Array.init (slots - 1) (fun i ->
          Array.init rounds (fun round ->
              let k = i + 1 in
              if round land 1 = 0 then
                let d1 = run 0 in
                let dk = run k in
                d1 /. dk
              else
                let dk = run k in
                let d1 = run 0 in
                d1 /. dk))
    in
    let speedup k = if k = 0 then 1.0 else median ratios.(k - 1) in
    List.mapi
      (fun k jobs ->
        let sched =
          Telemetry.set_metrics true;
          Fun.protect ~finally:(fun () -> Telemetry.set_metrics false)
          @@ fun () ->
          Telemetry.reset ();
          let (_, _, check), _ = timed (fun () -> kernel jobs) in
          (match checks.(k) with Some c -> same name jobs c check | None -> ());
          p1_snapshot_sched ()
        in
        match (best.(k), checks.(k)) with
        | Some (summary, effort, dt), Some check ->
            (jobs, (summary, effort, sched, dt, speedup k, check))
        | _ -> assert false)
      sweep
  in
  let measured =
    List.map
      (fun (name, kernel) ->
        let runs = measure_kernel name kernel in
        (match runs with
        | (_, (_, _, _, _, _, base_check)) :: rest ->
            List.iter
              (fun (_, (_, _, _, _, _, check)) -> agrees name base_check check)
              rest
        | [] -> ());
        (name, runs))
      [ ("icp-decide-sphere", decide_kernel);
        ("icp-pave-ring", pave_kernel);
        ("smc-estimate-p53", smc_kernel) ]
  in
  let rows =
    List.concat_map
      (fun (name, runs) ->
        List.map
          (fun (jobs, (summary, _, sched, dt, speedup, _)) ->
            [ name; string_of_int jobs; Fmt.str "%.3fs" dt;
              Fmt.str "%.2fx" speedup;
              string_of_int sched.steals;
              string_of_int sched.lease_refills;
              Fmt.str "%.1fms" (float_of_int sched.idle_ns /. 1e6);
              summary ])
          runs)
      measured
  in
  Report.print
    [ Report.text
        "detected cores: %d (speedups are bounded by this; jobs beyond the"
        (Domain.recommended_domain_count ());
      Report.text
        "domain cap are multiplexed sequentially, so they cost ~nothing)";
      Report.text
        "parallel runs are checked against jobs=1 in-process (verdict /";
      Report.text "leaf set / 2-eps estimate corridor)";
      Report.table
        ~header:
          [ "kernel"; "jobs"; "wall"; "speedup"; "steals"; "refills"; "idle";
            "result" ]
        rows ];
  (* machine-readable dump *)
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\
       \  \"cores\": %d,\n\
       \  \"default_jobs\": %d,\n\
       \  \"domain_cap\": %d,\n\
       \  \"quick\": %b,\n\
       \  \"note\": \"1-core containers multiplex jobs > cores onto the available domains; speedups are bounded by cores, and the acceptance bar is jobs=2 >= 1.0x (no coordination overhead). Scheduler counters come from one extra untimed run per cell with metrics enabled; timed rounds ran with metrics off. wall_s is the per-cell minimum over all samples (each run preceded by a major GC); speedup for jobs=k is the median of adjacent-pair ratios against jobs=1 (the two cells timed back to back, order alternating per round), which cancels the multi-second throttling waves of a shared container.\",\n\
       \  \"kernels\": [\n"
       (Domain.recommended_domain_count ())
       (Parallel.Pool.default_jobs ())
       (Parallel.Pool.domain_cap ())
       quick);
  List.iteri
    (fun i (name, runs) ->
      Buffer.add_string buf (Printf.sprintf "    {\"name\": %S, \"runs\": [\n" name);
      List.iteri
        (fun j (jobs, (_, (boxes, splits, prunings), sched, dt, speedup, _)) ->
          Buffer.add_string buf
            (Printf.sprintf
               "      %s{\"jobs\": %d, \"wall_s\": %.6f, \"ns_per_op\": %.0f, \
                \"speedup\": %.2f, \"boxes_processed\": %d, \"splits\": %d, \
                \"prunings\": %d, \"steals\": %d, \"steal_fails\": %d, \
                \"idle_ns\": %d, \"lease_refills\": %d, \"deque_depth_p50\": \
                %d, \"deque_depth_p99\": %d}%s\n"
               (if j = 0 then "" else ", ")
               jobs dt (dt *. 1e9) speedup boxes splits prunings
               sched.steals sched.steal_fails sched.idle_ns sched.lease_refills
               sched.deque_p50 sched.deque_p99
               (if j = List.length runs - 1 then "" else "")))
        runs;
      Buffer.add_string buf
        (Printf.sprintf "    ]}%s\n"
           (if i = List.length measured - 1 then "" else ",")))
    measured;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_icp.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Report.print [ Report.text "wrote BENCH_icp.json" ]

(* ------------------------------------------------------------------ *)
(* C1: exact-replay caches off vs on (jobs = 1)                        *)
(* ------------------------------------------------------------------ *)

(* Each kernel runs the same workload twice: once with the caches
   disabled (exactly the BIOMC_NO_CACHE=1 code path) and once with them
   on, clearing all caches before each timed run so both start cold.
   The results are checked to be byte-identical (exact replays are
   identity-preserving), so the speedup column is pure memoization
   gain.  Results land in BENCH_cache.json, together with the SMC
   allocation before/after row (satellite: the in-place RKF45 loop vs
   the old allocating steppers).

   Passed [~quick:true] (the CI smoke job), the workloads shrink. *)

let c1 ?(quick = false) () =
  section
    (if quick then "C1  Exact-replay caches off vs on (jobs = 1, quick)"
     else "C1  Exact-replay caches off vs on (jobs = 1)");
  let measure name ~canon ~note run =
    let with_cache on () =
      Cache.set_enabled on;
      Fun.protect ~finally:Cache.clear_enabled_override run
    in
    let (r_off, t_off), (r_on, t_on) =
      alternating_batches ~prepare:Cache.clear (with_cache false)
        (with_cache true)
    in
    if canon r_off <> canon r_on then
      failwith
        (Printf.sprintf "C1 %s: cached result differs from the uncached run"
           name);
    (name, t_off, t_on, note)
  in
  let canon_boxes boxes =
    String.concat ";" (List.sort compare (List.map Box.to_string boxes))
  in
  (* Primary kernel: the E7 calibration refinement sweep.  Each finer
     epsilon re-pavess the parameter box; the paving tree at epsilon is a
     depth-pruned prefix of the tree at epsilon/2, so with caching every
     previously classified box is an exact hit and only the new frontier
     pays for validated tubes. *)
  let biopsy_kernel () =
    let sys =
      Ode.System.of_strings ~vars:[ "x"; "y" ] ~params:[ "a" ]
        ~rhs:[ ("x", "a*x - x*y"); ("y", "x*y - y") ]
    in
    let tr =
      Ode.Integrate.simulate ~params:[ ("a", 1.0) ]
        ~init:[ ("x", 1.0); ("y", 0.5) ]
        ~t_end:1.5 sys
    in
    let data =
      List.concat_map
        (fun t ->
          List.map
            (fun v ->
              Synth.Data.point ~time:t ~var:v
                ~value:(Ode.Integrate.value_at tr v t)
                ~tolerance:0.25)
            [ "x"; "y" ])
        [ 0.5; 1.0; 1.5 ]
    in
    let prob =
      Synth.Biopsy.problem ~sys
        ~param_box:(Box.of_list [ ("a", I.make 0.5 1.5) ])
        ~init:(Box.of_list [ ("x", I.of_float 1.0); ("y", I.of_float 0.5) ])
        ~data
    in
    let epsilons = if quick then [ 0.1; 0.05; 0.02 ] else [ 0.1; 0.05; 0.02; 0.01 ] in
    let run () =
      List.map
        (fun eps ->
          Synth.Biopsy.synthesize
            ~config:{ Synth.Biopsy.default_config with epsilon = eps }
            prob)
        epsilons
    in
    let canon rs =
      String.concat "\n"
        (List.map
           (fun (r : Synth.Biopsy.result) ->
             Printf.sprintf "%s|%s|%s|%d"
               (canon_boxes r.Synth.Biopsy.consistent)
               (canon_boxes r.Synth.Biopsy.inconsistent)
               (canon_boxes r.Synth.Biopsy.undecided)
               r.Synth.Biopsy.boxes_explored)
           rs)
    in
    measure "biopsy-refinement-sweep" ~canon
      ~note:
        (Fmt.str "eps %s, identical pavings"
           (String.concat ">" (List.map (Fmt.str "%g") epsilons)))
      run
  in
  (* Reach re-verification: the same bounded-reachability query checked
     twice (tool-restart replay) and then a second goal over the same
     automaton — flow-tube segments are goal-independent, so both later
     checks hit the segment cache. *)
  let reach_kernel () =
    let a =
      Hybrid.Automaton.of_system
        ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
        (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])
    in
    let pb pred =
      E.create
        ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
        ~goal:{ E.goal_modes = []; predicate = Expr.Parse.formula pred }
        ~k:0 ~time_bound:1.0 a
    in
    let run () =
      let r1 = C.check (pb "x <= 0.3") in
      let r2 = C.check (pb "x <= 0.3") in
      let r3 = C.check (pb "x <= 0.5") in
      Fmt.str "%a / %a / %a" C.pp_result r1 C.pp_result r2 C.pp_result r3
    in
    measure "reach-shared-segments" ~canon:Fun.id
      ~note:"goal1, goal1 again, goal2; identical verdicts" run
  in
  let kernels = [ biopsy_kernel (); reach_kernel () ] in
  Report.print
    [ Report.table
        ~header:[ "kernel"; "cache off"; "cache on"; "speedup"; "check" ]
        (List.map
           (fun (name, t_off, t_on, note) ->
             [ name; Fmt.str "%.3fs" t_off; Fmt.str "%.3fs" t_on;
               Fmt.str "%.2fx" (t_off /. t_on); note ])
           kernels);
      Report.text "cache-on rounds: %s" (Cache.summary ()) ];
  (* SMC allocation satellite: the pre-optimization RKF45 driver (the
     public allocating [rkf45_step] per step, fresh arrays throughout)
     against the in-place [simulate] loop, on the same p53 trajectory
     every SMC sample executes.  The arithmetic is unchanged, so the
     traces must agree bit for bit. *)
  let smc_alloc =
    let sys = Biomodels.Classics.p53_mdm2 in
    let params = [ ("damage", 1.0) ] in
    let init = [ ("p53", 0.05); ("mdm2", 0.05) ] in
    let t_end = 30.0 in
    let rtol, atol, h0, h_max =
      match Ode.Integrate.default_rkf45 with
      | Ode.Integrate.Rkf45 { rtol; atol; h0; h_max } -> (rtol, atol, h0, h_max)
      | _ -> assert false
    in
    let before () =
      let f = Ode.System.compile ~param_env:params sys in
      let y0 =
        Array.of_list
          (List.map (fun v -> List.assoc v init) (Ode.System.vars sys))
      in
      let n = Array.length y0 in
      let times = ref [ 0.0 ] and states = ref [ y0 ] in
      let t = ref 0.0 and y = ref y0 and h = ref h0 in
      let continue_ = ref true in
      let safety = 0.9 and h_min = 1e-12 in
      let accept tacc ynew =
        t := tacc;
        y := ynew;
        times := tacc :: !times;
        states := ynew :: !states
      in
      while !continue_ && !t < t_end -. 1e-15 do
        let hstep = Float.min !h (t_end -. !t) in
        let yc = !y in
        let y4, y5 = Ode.Integrate.rkf45_step f !t yc hstep in
        let err = ref 0.0 in
        for i = 0 to n - 1 do
          let sc =
            atol +. (rtol *. Float.max (Float.abs yc.(i)) (Float.abs y4.(i)))
          in
          let e = Float.abs (y5.(i) -. y4.(i)) /. sc in
          if e > !err then err := e
        done;
        if Float.is_nan !err then begin
          if hstep <= h_min *. 2.0 then continue_ := false
          else h := hstep /. 10.0
        end
        else if !err <= 1.0 then begin
          accept (!t +. hstep) y5;
          let grow = safety *. Float.pow (1.0 /. Float.max !err 1e-10) 0.2 in
          h := Float.min h_max (hstep *. Float.min 4.0 grow)
        end
        else begin
          let shrink = safety *. Float.pow (1.0 /. !err) 0.25 in
          h := Float.max (h_min *. 2.0) (hstep *. Float.max 0.1 shrink);
          if !h <= h_min *. 4.0 then accept (!t +. hstep) y4
        end
      done;
      (Array.of_list (List.rev !times), Array.of_list (List.rev !states))
    in
    let after () =
      let tr = Ode.Integrate.simulate ~params ~init ~t_end sys in
      (tr.Ode.Integrate.times, tr.Ode.Integrate.states)
    in
    let tb, sb = before () and ta, sa = after () in
    if not (tb = ta && sb = sa) then
      failwith "C1 smc-alloc: in-place trace differs from the allocating one";
    let (_, s_before), (_, s_after) = alternating_batches before after in
    let ns_before = s_before *. 1e9 and ns_after = s_after *. 1e9 in
    Report.print
      [ Report.table
          ~header:[ "smc float path"; "ns/trajectory"; "speedup"; "check" ]
          [ [ "allocating steppers (before)"; Fmt.str "%.0f" ns_before; "1.00x";
              "bit-identical traces" ];
            [ "in-place loop (after)"; Fmt.str "%.0f" ns_after;
              Fmt.str "%.2fx" (ns_before /. ns_after); "" ] ] ];
    (ns_before, ns_after)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"jobs\": 1,\n  \"quick\": %b,\n  \"timing\": \"%s\",\n  \"kernels\": [\n"
       quick
       "median of 7 rounds alternating off/on (before/after for smc_alloc), \
        each round a batch of runs lasting >= 50 ms (cache rows: cold runs), \
        per-run time");
  List.iteri
    (fun i (name, t_off, t_on, _) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"cache_off_s\": %.6f, \"cache_on_s\": %.6f, \"speedup\": %.3f, \"identical\": true}%s\n"
           name t_off t_on (t_off /. t_on)
           (if i = List.length kernels - 1 then "" else ",")))
    kernels;
  let ns_before, ns_after = smc_alloc in
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n  \"smc_alloc\": {\"before_ns_per_trajectory\": %.0f, \"after_ns_per_trajectory\": %.0f, \"speedup\": %.3f, \"identical\": true}\n}\n"
       ns_before ns_after (ns_before /. ns_after));
  let oc = open_out "BENCH_cache.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Report.print [ Report.text "wrote BENCH_cache.json" ]

(* ------------------------------------------------------------------ *)
(* O1: telemetry overhead guard                                        *)
(* ------------------------------------------------------------------ *)

(* Honesty guard for the telemetry subsystem: the same workload runs
   with telemetry fully disabled, with metrics only (counters +
   histograms, no trace), and with tracing on.  The results must be
   identical — instrumentation observes the search, it never steers it —
   and the overhead ratios land in BENCH_telemetry.json with an explicit
   over_budget flag when metrics-only costs more than 5% over disabled
   (recorded as measured, not hidden).  The metrics run's span
   histograms are attached as the per-span breakdown section. *)

let o1 ?(quick = false) () =
  section
    (if quick then "O1  Telemetry overhead: off vs metrics vs trace (quick)"
     else "O1  Telemetry overhead: off vs metrics vs trace");
  let tangency = Expr.Parse.formula "x^2 + y^2 = 1 and x*y = 1/2" in
  let tangency_box =
    Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ]
  in
  let ring = Expr.Parse.formula "x^2 + y^2 <= 1 and x^2 + y^2 >= 1/2" in
  let rbox = Box.of_list [ ("x", I.make (-1.5) 1.5); ("y", I.make (-1.5) 1.5) ] in
  (* The workload must dwarf clock noise for the overhead ratio to mean
     anything, so even quick mode keeps delta small enough for a few
     tens of ms per run. *)
  let dcfg =
    { Icp.Solver.default_config with
      delta = (if quick then 3e-4 else 1e-4);
      epsilon = (if quick then 3e-5 else 1e-5) }
  in
  let pcfg =
    { Icp.Solver.default_config with epsilon = (if quick then 0.02 else 0.01) }
  in
  let run () =
    let d = Icp.Solver.decide ~config:dcfg tangency tangency_box in
    let p = Icp.Solver.pave ~config:pcfg ring rbox in
    (d, p)
  in
  let rounds = if quick then 4 else 6 in
  (* The per-mode minimum over the rounds filters the clock's throttling
     spikes, which hit every mode alike. *)
  let measure setup =
    Telemetry.reset ();
    setup ();
    Fun.protect ~finally:Telemetry.disable (fun () ->
        let best = ref infinity and result = ref None in
        for _ = 1 to rounds do
          let r, dt = timed run in
          if dt < !best then best := dt;
          result := Some r
        done;
        (Option.get !result, !best))
  in
  let r_off, t_off = measure (fun () -> ()) in
  let r_met, t_met = measure (fun () -> Telemetry.set_metrics true) in
  let breakdown = Telemetry.Metrics.histograms () in
  let r_trc, t_trc =
    measure (fun () ->
        Telemetry.set_metrics true;
        Telemetry.set_trace true)
  in
  let trace_events = Telemetry.Trace.events_recorded () in
  let trace_dropped = Telemetry.Trace.events_dropped () in
  if not (r_off = r_met && r_off = r_trc) then
    failwith "O1: telemetry-enabled run changed the results";
  let metrics_overhead = t_met /. t_off and trace_overhead = t_trc /. t_off in
  let budget = 1.05 in
  let over_budget = metrics_overhead > budget in
  Report.print
    [ Report.table
        ~header:[ "mode"; "wall"; "vs disabled"; "check" ]
        [ [ "disabled"; Fmt.str "%.3fs" t_off; "1.00x"; "identical results" ];
          [ "metrics"; Fmt.str "%.3fs" t_met;
            Fmt.str "%.2fx" metrics_overhead; "identical results" ];
          [ "metrics + trace"; Fmt.str "%.3fs" t_trc;
            Fmt.str "%.2fx" trace_overhead;
            Fmt.str "%d events (%d dropped)" trace_events trace_dropped ] ];
      (if over_budget then
         Report.text
           "OVER BUDGET: metrics-only overhead %.1f%% exceeds the 5%% budget"
           ((metrics_overhead -. 1.0) *. 100.0)
       else
         Report.text "metrics-only overhead %.1f%% (budget 5%%)"
           ((metrics_overhead -. 1.0) *. 100.0)) ];
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\
       \  \"quick\": %b,\n\
       \  \"rounds\": %d,\n\
       \  \"disabled_s\": %.6f,\n\
       \  \"metrics_s\": %.6f,\n\
       \  \"trace_s\": %.6f,\n\
       \  \"metrics_overhead\": %.4f,\n\
       \  \"trace_overhead\": %.4f,\n\
       \  \"budget\": %.2f,\n\
       \  \"over_budget\": %b,\n\
       \  \"identical\": true,\n\
       \  \"trace_events\": %d,\n\
       \  \"trace_dropped\": %d,\n\
       \  \"breakdown\": [\n"
       quick rounds t_off t_met t_trc metrics_overhead trace_overhead budget
       over_budget trace_events trace_dropped);
  List.iteri
    (fun i (name, s) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"span\": %S, \"count\": %d, \"mean_ns\": %.0f, \"p50_ns\": %d, \"p90_ns\": %d}%s\n"
           name s.Telemetry.Histogram.count
           (Telemetry.Histogram.mean s)
           (Telemetry.Histogram.quantile 0.5 s)
           (Telemetry.Histogram.quantile 0.9 s)
           (if i = List.length breakdown - 1 then "" else ",")))
    breakdown;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Telemetry.reset ();
  Report.print [ Report.text "wrote BENCH_telemetry.json" ]

(* ------------------------------------------------------------------ *)
(* J1: provenance-journal overhead: off vs memory sink                 *)
(* ------------------------------------------------------------------ *)

(* The O1 discipline applied to the journal: the same decide + pave
   workload with journaling off and with the memory sink recording the
   full search DAG.  Verdicts must be identical (the journal observes
   the search, it never steers it) and the slowdown is reported
   honestly against the same 5% budget, alongside the record volume —
   the journal writes one NDJSON line per search event, so its cost
   scales with boxes processed, not with wall-clock. *)
let j1 ?(quick = false) () =
  section
    (if quick then "J1  Journal overhead: off vs memory sink (quick)"
     else "J1  Journal overhead: off vs memory sink");
  let tangency = Expr.Parse.formula "x^2 + y^2 = 1 and x*y = 1/2" in
  let tangency_box =
    Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ]
  in
  let ring = Expr.Parse.formula "x^2 + y^2 <= 1 and x^2 + y^2 >= 1/2" in
  let rbox = Box.of_list [ ("x", I.make (-1.5) 1.5); ("y", I.make (-1.5) 1.5) ] in
  let dcfg =
    { Icp.Solver.default_config with
      delta = (if quick then 3e-4 else 1e-4);
      epsilon = (if quick then 3e-5 else 1e-5) }
  in
  let pcfg =
    { Icp.Solver.default_config with epsilon = (if quick then 0.02 else 0.01) }
  in
  let run () =
    let d = Icp.Solver.decide ~config:dcfg tangency tangency_box in
    let p = Icp.Solver.pave ~config:pcfg ring rbox in
    (d, p)
  in
  let rounds = if quick then 4 else 6 in
  let measure sink =
    Journal.set_sink sink;
    Fun.protect ~finally:(fun () -> Journal.set_sink Journal.Off)
      (fun () ->
        let best = ref infinity and result = ref None in
        for _ = 1 to rounds do
          Journal.reset ();
          let r, dt = timed run in
          if dt < !best then best := dt;
          result := Some r
        done;
        (Option.get !result, !best))
  in
  let r_off, t_off = measure Journal.Off in
  let r_jrn, t_jrn = measure Journal.Memory in
  (* volume of one journaled round: re-record once, then read back *)
  Journal.set_sink Journal.Memory;
  Journal.reset ();
  ignore (run ());
  let doc = Journal.contents () in
  let dropped = Journal.dropped () in
  Journal.set_sink Journal.Off;
  Journal.reset ();
  let records =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 doc
  in
  if r_off <> r_jrn then failwith "J1: journaled run changed the results";
  let overhead = t_jrn /. t_off in
  let budget = 1.05 in
  let over_budget = overhead > budget in
  Report.print
    [ Report.table
        ~header:[ "mode"; "wall"; "vs disabled"; "check" ]
        [ [ "disabled"; Fmt.str "%.3fs" t_off; "1.00x"; "identical results" ];
          [ "memory sink"; Fmt.str "%.3fs" t_jrn; Fmt.str "%.2fx" overhead;
            Fmt.str "%d records, %d KiB (%d dropped)" records
              (String.length doc / 1024)
              dropped ] ];
      (if over_budget then
         Report.text
           "OVER BUDGET: journal overhead %.1f%% exceeds the 5%% budget"
           ((overhead -. 1.0) *. 100.0)
       else
         Report.text "journal overhead %.1f%% (budget 5%%)"
           ((overhead -. 1.0) *. 100.0)) ];
  let oc = open_out "BENCH_journal.json" in
  output_string oc
    (Printf.sprintf
       "{\n\
       \  \"quick\": %b,\n\
       \  \"rounds\": %d,\n\
       \  \"disabled_s\": %.6f,\n\
       \  \"journal_s\": %.6f,\n\
       \  \"overhead\": %.4f,\n\
       \  \"budget\": %.2f,\n\
       \  \"over_budget\": %b,\n\
       \  \"identical\": true,\n\
       \  \"records\": %d,\n\
       \  \"bytes\": %d,\n\
       \  \"dropped\": %d\n\
        }\n"
       quick rounds t_off t_jrn overhead budget over_budget records
       (String.length doc) dropped);
  close_out oc;
  Report.print [ Report.text "wrote BENCH_journal.json" ]

(* ------------------------------------------------------------------ *)
(* N1: derivative pruning off vs on                                    *)
(* ------------------------------------------------------------------ *)

(* The derivative layer (Icp.Deriv: mean-value refutation, interval
   Newton contraction, smear branching) against the plain HC4 search on
   dependency-rich workloads — terms where variables occur repeatedly,
   so the natural interval extension is loose and the first-order
   expansions have something to win.  Both runs of every workload must
   agree (decide: same verdict kind, checked here; pave: a sat leaf of
   one run overlapping an unsat leaf of the other would be two
   contradictory proofs — also checked here), so the reported reduction
   in boxes processed is bought without changing any answer.  Decide
   and pave cache nothing, so each run does its own full search. *)

let n1 ?(quick = false) () =
  section
    (if quick then "N1  Derivative pruning off vs on (quick)"
     else "N1  Derivative pruning: mean-value/Newton + smear, off vs on");
  Fun.protect ~finally:Icp.Deriv.clear_enabled_override @@ fun () ->
  let verdict_of = function
    | Icp.Solver.Delta_sat _ -> "delta-sat"
    | Icp.Solver.Unsat -> "unsat"
    | Icp.Solver.Unknown _ -> "unknown"
  in
  let counts (s : Icp.Solver.stats) =
    (s.Icp.Solver.boxes_processed, s.Icp.Solver.splits, s.Icp.Solver.prunings)
  in
  (* Workload 1 (decide, multi-atom): x and y each satisfy the expanded
     cubic t^3 - 2t^2 + 1.25t = 0.25, whose real solutions are t = 1 and
     the double root t = 0.5; no pair of solutions is 0.4-separated in
     the square, so the conjunction is unsat.  The cubic mentions its
     variable three times — exactly the dependency that makes the
     natural extension loose and the mean-value form sharp. *)
  let cubic =
    Expr.Parse.formula
      "x^3 - 2*x^2 + 1.25*x = 0.25 and y^3 - 2*y^2 + 1.25*y = 0.25 and \
       (x - y)^2 >= 0.3"
  in
  let cubic_box =
    Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ]
  in
  (* Workload 2 (decide, multi-atom): two Michaelis–Menten channels
     sharing one rate law v(s) = 1.2 s / (0.4 + s); on the conservation
     line s1 + s2 = 1 the total rate peaks at 4/3 < 1.35, so the demand
     is unsat.  Each substrate occurs in both numerator and denominator
     of its rate — again a dependency HC4 cannot see through. *)
  let mm =
    Expr.Parse.formula
      "1.2*s1/(0.4 + s1) + 1.2*s2/(0.4 + s2) = 1.35 and s1 + s2 = 1"
  in
  let mm_box =
    Box.of_list [ ("s1", I.make 0.0 1.0); ("s2", I.make 0.0 1.0) ]
  in
  (* Workload 3 (pave, biopsy-style parameter fit): admissible (k, a)
     for the impulse-response model y(t) = a k t e^{-kt} against two
     data bands (t = 1 and t = 3) — the algebraic form of a calibration
     paving.  k occurs twice per observation. *)
  let fit =
    Expr.Parse.formula
      "a*k*exp(-k) >= 0.3 and a*k*exp(-k) <= 0.5 and \
       3*a*k*exp(-3*k) >= 0.1 and 3*a*k*exp(-3*k) <= 0.3"
  in
  let fit_box =
    Box.of_list [ ("k", I.make 0.05 2.5); ("a", I.make 0.2 3.0) ]
  in
  let run_decide name formula box config =
    let run on =
      Icp.Deriv.set_enabled on;
      let (r, stats), dt =
        timed (fun () -> Icp.Solver.decide_with_stats ~config formula box)
      in
      (verdict_of r, counts stats, dt)
    in
    let v_off, c_off, t_off = run false in
    let v_on, c_on, t_on = run true in
    if v_off <> v_on then
      failwith
        (Printf.sprintf "N1 %s: verdicts differ (off=%s, on=%s)" name v_off
           v_on);
    (name, "decide", v_off, c_off, t_off, c_on, t_on)
  in
  let run_pave name formula box config =
    let run on =
      Icp.Deriv.set_enabled on;
      let (p, stats), dt =
        timed (fun () -> Icp.Solver.pave_with_stats ~config formula box)
      in
      (p, counts stats, dt)
    in
    let p_off, c_off, t_off = run false in
    let p_on, c_on, t_on = run true in
    (* Two pavings of the same box: sat and unsat leaves are proofs, so
       a positive-volume overlap between one run's sat region and the
       other's unsat region would be a soundness bug, not noise. *)
    let contradicts sats unsats =
      List.exists
        (fun s ->
          List.exists
            (fun u -> Box.volume (Box.inter s u) > 0.0)
            unsats)
        sats
    in
    if
      contradicts p_on.Icp.Solver.sat p_off.Icp.Solver.unsat
      || contradicts p_off.Icp.Solver.sat p_on.Icp.Solver.unsat
    then failwith (Printf.sprintf "N1 %s: pavings contradict" name);
    let feasible (p : Icp.Solver.paving) = p.sat <> [] in
    if feasible p_off <> feasible p_on then
      failwith (Printf.sprintf "N1 %s: feasibility verdicts differ" name);
    let v = if feasible p_off then "feasible" else "infeasible" in
    (name, "pave", v, c_off, t_off, c_on, t_on)
  in
  let dcfg =
    { Icp.Solver.default_config with
      delta = (if quick then 1e-3 else 1e-4);
      epsilon = (if quick then 1e-4 else 1e-5) }
  in
  let pcfg =
    { Icp.Solver.default_config with
      epsilon = (if quick then 0.02 else 0.01) }
  in
  let results =
    [ run_decide "decide-cubic-separation" cubic cubic_box dcfg;
      run_decide "decide-mm-kinetics" mm mm_box dcfg;
      run_pave "pave-impulse-fit" fit fit_box pcfg ]
  in
  let rows =
    List.map
      (fun (name, kind, v, (b0, _, _), t0, (b1, _, _), t1) ->
        [ name; kind; v; string_of_int b0; string_of_int b1;
          Fmt.str "%.2fx" (float_of_int b0 /. float_of_int b1);
          Fmt.str "%.3fs" t0; Fmt.str "%.3fs" t1 ])
      results
  in
  Report.print
    [ Report.table
        ~header:
          [ "workload"; "kind"; "verdict"; "boxes off"; "boxes on";
            "reduction"; "wall off"; "wall on" ]
        rows ];
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"quick\": %b,\n  \"workloads\": [\n" quick);
  List.iteri
    (fun i (name, kind, v, (b0, s0, p0), t0, (b1, s1, p1), t1) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"kind\": %S, \"verdict\": %S, \"identical\": true,\n\
           \     \"off\": {\"boxes_processed\": %d, \"splits\": %d, \"prunings\": %d, \"wall_s\": %.6f},\n\
           \     \"on\":  {\"boxes_processed\": %d, \"splits\": %d, \"prunings\": %d, \"wall_s\": %.6f},\n\
           \     \"box_reduction\": %.3f}%s\n"
           name kind v b0 s0 p0 t0 b1 s1 p1 t1
           (float_of_int b0 /. float_of_int b1)
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_newton.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Report.print [ Report.text "wrote BENCH_newton.json" ]

(* ------------------------------------------------------------------ *)
(* TM1: Taylor models off vs on                                        *)
(* ------------------------------------------------------------------ *)

(* The degree-2 Taylor-model layer (Interval.Tm: linear and quadratic
   monomials kept exactly, Bernstein range bound, enclosure-assisted
   sat-certification in pave) against the plain interval search, on the
   same dependency-rich workloads as N1 — repeated variable occurrences
   are exactly where shared symbols cancel and the natural extension
   does not — plus band pavings, which are split-to-ε along their
   boundary and sat-certified by interval evaluation when the layer is
   off; the TM certifier proves those band leaves sat whole boxes
   earlier.  Verdict identity is asserted in-process for every decide
   pair; pavings are checked for sat/unsat leaf contradictions and
   TM-certified leaves for center feasibility (sat sets may
   legitimately grow: certifying earlier is the point).  Box reductions
   are recorded honestly, regressions included.  The ODE workload
   records tube widths, not verdicts: the TM pass may only tighten the
   enclosure.  Wall times are per-run minima over a few rounds, which
   filter the clock's throttling spikes. *)

let tm1 ?(quick = false) () =
  section
    (if quick then "TM1  Taylor models off vs on (quick)"
     else "TM1  Taylor models: quadratic enclosures and band certification, off vs on");
  Fun.protect ~finally:Interval.Tm.clear_enabled_override @@ fun () ->
  let rounds = if quick then 2 else 3 in
  let verdict_of = function
    | Icp.Solver.Delta_sat _ -> "delta-sat"
    | Icp.Solver.Unsat -> "unsat"
    | Icp.Solver.Unknown _ -> "unknown"
  in
  let counts (s : Icp.Solver.stats) =
    (s.Icp.Solver.boxes_processed, s.Icp.Solver.splits, s.Icp.Solver.prunings)
  in
  let best_of run =
    let best = ref infinity and result = ref None in
    for _ = 1 to rounds do
      let r, dt = timed run in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  (* The N1 workloads (see there for why each is dependency-rich), a
     logistic-band paving where every atom mentions its variable twice,
     a cubic band, and an unsat-carving paving: the MM demand is
     infeasible over the whole simplex (total rate peaks at
     4/3 < 1.35), so its box count is pure refutation work. *)
  let cubic =
    Expr.Parse.formula
      "x^3 - 2*x^2 + 1.25*x = 0.25 and y^3 - 2*y^2 + 1.25*y = 0.25 and \
       (x - y)^2 >= 0.3"
  in
  let cubic_box =
    Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ]
  in
  let mm =
    Expr.Parse.formula
      "1.2*s1/(0.4 + s1) + 1.2*s2/(0.4 + s2) = 1.35 and s1 + s2 = 1"
  in
  let mm_box =
    Box.of_list [ ("s1", I.make 0.0 1.0); ("s2", I.make 0.0 1.0) ]
  in
  let fit =
    Expr.Parse.formula
      "a*k*exp(-k) >= 0.3 and a*k*exp(-k) <= 0.5 and \
       3*a*k*exp(-3*k) >= 0.1 and 3*a*k*exp(-3*k) <= 0.3"
  in
  let fit_box =
    Box.of_list [ ("k", I.make 0.05 2.5); ("a", I.make 0.2 3.0) ]
  in
  let cubic_band =
    Expr.Parse.formula
      "x^3 - 2*x^2 + 1.25*x >= 0.2 and x^3 - 2*x^2 + 1.25*x <= 0.3 and \
       y^3 - 2*y^2 + 1.25*y >= 0.2 and y^3 - 2*y^2 + 1.25*y <= 0.3"
  in
  let cubic_band_box =
    Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ]
  in
  let mm_infeasible =
    Expr.Parse.formula
      "1.2*s1/(0.4 + s1) + 1.2*s2/(0.4 + s2) >= 1.35 and s1 + s2 <= 1"
  in
  let mm_infeasible_box =
    Box.of_list [ ("s1", I.make 0.0 1.0); ("s2", I.make 0.0 1.0) ]
  in
  let run_decide name formula box config =
    let run on =
      Interval.Tm.set_enabled on;
      best_of (fun () -> Icp.Solver.decide_with_stats ~config formula box)
    in
    let (r_off, s_off), t_off = run false in
    let (r_on, s_on), t_on = run true in
    if verdict_of r_off <> verdict_of r_on then
      failwith
        (Printf.sprintf "TM1 %s: verdicts differ (off=%s, on=%s)" name
           (verdict_of r_off) (verdict_of r_on));
    (name, "decide", verdict_of r_off, counts s_off, t_off, counts s_on, t_on)
  in
  let run_pave name formula box config =
    let run on =
      Interval.Tm.set_enabled on;
      best_of (fun () -> Icp.Solver.pave_with_stats ~config formula box)
    in
    let (p_off, s_off), t_off = run false in
    let (p_on, s_on), t_on = run true in
    let contradicts sats unsats =
      List.exists
        (fun s ->
          List.exists (fun u -> Box.volume (Box.inter s u) > 0.0) unsats)
        sats
    in
    if
      contradicts p_on.Icp.Solver.sat p_off.Icp.Solver.unsat
      || contradicts p_off.Icp.Solver.sat p_on.Icp.Solver.unsat
    then failwith (Printf.sprintf "TM1 %s: pavings contradict" name);
    (* TM-certified sat leaves are new proofs, not reclassifications:
       each must hold at its center point. *)
    List.iter
      (fun leaf ->
        match Expr.Formula.eval_cert (Box.midpoint leaf) formula with
        | Expr.Formula.Impossible ->
            failwith
              (Printf.sprintf "TM1 %s: certified leaf with infeasible center"
                 name)
        | _ -> ())
      p_on.Icp.Solver.sat;
    let v = if p_on.Icp.Solver.sat <> [] then "feasible" else "infeasible" in
    (name, "pave", v, counts s_off, t_off, counts s_on, t_on)
  in
  let dcfg =
    { Icp.Solver.default_config with
      delta = (if quick then 1e-3 else 1e-4);
      epsilon = (if quick then 1e-4 else 1e-5) }
  in
  let pcfg =
    { Icp.Solver.default_config with
      epsilon = (if quick then 0.02 else 0.01) }
  in
  let results =
    [ run_decide "decide-cubic-separation" cubic cubic_box dcfg;
      run_decide "decide-mm-kinetics" mm mm_box dcfg;
      run_pave "pave-impulse-fit" fit fit_box pcfg;
      run_pave "pave-cubic-band" cubic_band cubic_band_box pcfg;
      run_pave "pave-mm-infeasible" mm_infeasible mm_infeasible_box pcfg ]
  in
  (* ODE workload: validated flow of the logistic equation from an
     interval initial set.  x'(t) = x(1-x) mentions x twice, so the
     interval remainder boxes over-rotate where the TM pass cancels;
     the tube must only tighten (width ratio >= 1), step for step. *)
  let ode =
    let sys =
      Ode.System.of_strings ~vars:[ "x" ] ~params:[]
        ~rhs:[ ("x", "x*(1 - x)") ]
    in
    let init = Box.of_list [ ("x", I.make 0.2 0.35) ] in
    let t_end = if quick then 2.0 else 3.0 in
    let run on =
      Interval.Tm.set_enabled on;
      best_of (fun () ->
          Ode.Enclosure.flow ~params:Box.empty_map ~init ~t_end sys)
    in
    let tube_off, t_off = run false in
    let tube_on, t_on = run true in
    let w_off = Box.width tube_off.Ode.Enclosure.final
    and w_on = Box.width tube_on.Ode.Enclosure.final in
    let hull_off = Box.width (Ode.Enclosure.tube_hull tube_off)
    and hull_on = Box.width (Ode.Enclosure.tube_hull tube_on) in
    if tube_off.Ode.Enclosure.complete && not tube_on.Ode.Enclosure.complete
    then failwith "TM1 ode-logistic-flow: TM run lost completeness";
    ( "ode-logistic-flow", t_end,
      Ode.Enclosure.length tube_off.Ode.Enclosure.steps, w_off, hull_off, t_off,
      Ode.Enclosure.length tube_on.Ode.Enclosure.steps, w_on, hull_on, t_on )
  in
  let rows =
    List.map
      (fun (name, kind, v, (b0, _, _), t0, (b1, _, _), t1) ->
        [ name; kind; v; string_of_int b0; string_of_int b1;
          Fmt.str "%.2fx" (float_of_int b0 /. float_of_int b1);
          Fmt.str "%.3fs" t0; Fmt.str "%.3fs" t1 ])
      results
  in
  let ( ode_name, ode_tend, steps0, w0, h0, ot0, steps1, w1, h1, ot1 ) = ode in
  Report.print
    [ Report.table
        ~header:
          [ "workload"; "kind"; "verdict"; "boxes off"; "boxes on";
            "reduction"; "wall off"; "wall on" ]
        rows;
      Report.text "%s (t_end = %g): final width %.3g -> %.3g (%s), %d -> %d steps"
        ode_name ode_tend w0 w1
        (if Float.is_finite (w0 /. w1) then Fmt.str "%.2fx" (w0 /. w1)
         else "interval tube diverged, TM bounded")
        steps0 steps1 ];
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"quick\": %b,\n  \"workloads\": [\n" quick);
  List.iter
    (fun (name, kind, v, (b0, s0, p0), t0, (b1, s1, p1), t1) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"kind\": %S, \"verdict\": %S, \"identical\": true,\n\
           \     \"off\": {\"boxes_processed\": %d, \"splits\": %d, \"prunings\": %d, \"wall_s\": %.6f},\n\
           \     \"on\":  {\"boxes_processed\": %d, \"splits\": %d, \"prunings\": %d, \"wall_s\": %.6f},\n\
           \     \"box_reduction\": %.3f},\n"
           name kind v b0 s0 p0 t0 b1 s1 p1 t1
           (float_of_int b0 /. float_of_int b1)))
    results;
  let jf v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null" in
  Buffer.add_string buf
    (Printf.sprintf
       "    {\"name\": %S, \"kind\": \"flow\", \"t_end\": %g,\n\
       \     \"off\": {\"steps\": %d, \"final_width\": %s, \"hull_width\": %s, \"wall_s\": %.6f},\n\
       \     \"on\":  {\"steps\": %d, \"final_width\": %s, \"hull_width\": %s, \"wall_s\": %.6f},\n\
       \     \"final_width_ratio\": %s, \"hull_width_ratio\": %s}\n"
       ode_name ode_tend steps0 (jf w0) (jf h0) ot0 steps1 (jf w1) (jf h1)
       ot1
       (jf (w0 /. w1)) (jf (h0 /. h1)));
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_tm.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Report.print [ Report.text "wrote BENCH_tm.json" ]

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel kernel timing                                      *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let stage = Staged.stage in
  let icp_sqrt2 =
    let f = Expr.Parse.formula "x^2 = 2" in
    let box = Box.of_list [ ("x", I.make 0.0 2.0) ] in
    Test.make ~name:"s1/icp-sqrt2" (stage (fun () -> Icp.Solver.decide f box))
  in
  let icp_unsat =
    let f = Expr.Parse.formula "x^2 + y^2 <= 1 and x + y >= 3" in
    let box = Box.of_list [ ("x", I.make (-2.0) 2.0); ("y", I.make (-2.0) 2.0) ] in
    Test.make ~name:"s1/icp-geom-unsat" (stage (fun () -> Icp.Solver.decide f box))
  in
  let ode_rk4 =
    let sys =
      Ode.System.of_strings ~vars:[ "x"; "y" ] ~params:[ "w" ]
        ~rhs:[ ("x", "w*y"); ("y", "-w*x") ]
    in
    Test.make ~name:"ode/rk4-oscillator"
      (stage (fun () ->
           Ode.Integrate.simulate ~method_:(Ode.Integrate.Rk4 0.01)
             ~params:[ ("w", 2.0) ]
             ~init:[ ("x", 1.0); ("y", 0.0) ]
             ~t_end:5.0 sys))
  in
  let enclosure_decay =
    let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ] in
    let init = Box.of_list [ ("x", I.of_float 1.0) ] in
    Test.make ~name:"a1/enclosure-decay"
      (stage (fun () -> Ode.Enclosure.flow ~params:Box.empty_map ~init ~t_end:1.0 sys))
  in
  let hybrid_sim =
    let h = Biomodels.Fenton_karma.automaton () in
    Test.make ~name:"e1/fk-simulate"
      (stage (fun () -> Hybrid.Simulate.simulate ~params:[] ~init:[] ~t_end:400.0 h))
  in
  let bcf_sim =
    Test.make ~name:"e2/bcf-apd"
      (stage (fun () -> Biomodels.Bueno_cherry_fenton.apd ~params:[] ~t_end:600.0 ()))
  in
  let reach_decay =
    let a =
      Hybrid.Automaton.of_system
        ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
        (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])
    in
    let pb =
      E.create
        ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
        ~goal:{ E.goal_modes = []; predicate = Expr.Parse.formula "x <= 0.3" }
        ~k:0 ~time_bound:1.0 a
    in
    Test.make ~name:"e3/reach-param-decay" (stage (fun () -> C.check pb))
  in
  let biopsy =
    let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ] in
    let data =
      [ Synth.Data.point ~time:0.5 ~var:"x" ~value:(Float.exp (-0.5)) ~tolerance:0.08;
        Synth.Data.point ~time:1.0 ~var:"x" ~value:(Float.exp (-1.0)) ~tolerance:0.08 ]
    in
    let prob =
      Synth.Biopsy.problem ~sys
        ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
        ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
        ~data
    in
    Test.make ~name:"e7/biopsy-decay"
      (stage (fun () ->
           Synth.Biopsy.synthesize
             ~config:{ Synth.Biopsy.default_config with epsilon = 0.1 }
             prob))
  in
  let bltl_monitor =
    let tr =
      Ode.Integrate.simulate ~method_:(Ode.Integrate.Rk4 0.01) ~params:[]
        ~init:[ ("x", 1.0) ] ~t_end:2.0
        (Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ])
    in
    let view = Smc.Bltl.of_trace tr in
    let prop =
      Smc.Bltl.Until (1.5, Smc.Bltl.prop "x >= 0.3", Smc.Bltl.prop "x <= 0.5")
    in
    Test.make ~name:"e8/bltl-monitor" (stage (fun () -> Smc.Bltl.holds view prop))
  in
  let cegis =
    Test.make ~name:"e6/cegis-rotation"
      (stage (fun () ->
           Lyapunov.Cegis.synthesize
             (Lyapunov.Cegis.problem
                ~region:(Biomodels.Classics.unit_box [ "x"; "y" ])
                ~template:(Lyapunov.Template.quadratic [ "x"; "y" ])
                Biomodels.Classics.damped_rotation)))
  in
  let tbi_policy =
    Test.make ~name:"e4/tbi-policy-sim"
      (stage (fun () ->
           Biomodels.Tbi.simulate_policy ~theta1:1.0 ~theta2:1.0 ~t_end:40.0 ()))
  in
  let prostate_sim =
    Test.make ~name:"e3/prostate-ias-sim"
      (stage (fun () ->
           Biomodels.Prostate.simulate_therapy ~r0:4.0 ~r1:10.0 ~t_end:800.0 ()))
  in
  let robustness_one =
    let make (a, b) =
      Biomodels.Bueno_cherry_fenton.automaton ~stimulus:a ~stimulus_width:(b -. a) ()
    in
    Test.make ~name:"e5/robustness-one-range"
      (stage (fun () ->
           Core.Robustness.classify
             ~goal:(Biomodels.Bueno_cherry_fenton.excitation_goal ())
             ~k:3 ~time_bound:100.0 make (0.0, 0.05)))
  in
  [ icp_sqrt2; icp_unsat; ode_rk4; enclosure_decay; hybrid_sim; bcf_sim;
    reach_decay; biopsy; bltl_monitor; cegis; tbi_policy; prostate_sim;
    robustness_one ]

let run_bechamel () =
  section "Kernel timing (Bechamel OLS, ns/run)";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let tests = Test.make_grouped ~name:"biomc" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> e
        | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !rows
    |> List.map (fun (name, ns) ->
           [ name;
             (if Float.is_nan ns then "-"
              else if ns > 1e9 then Fmt.str "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Fmt.str "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Fmt.str "%.2f us" (ns /. 1e3)
              else Fmt.str "%.0f ns" ns) ])
  in
  Report.print [ Report.table ~header:[ "kernel"; "time/run" ] rows ]

(* CLI: `--quick` runs the quick-aware sections (c1/o1/j1/n1/tm1/p1)
   in their reduced configurations (the CI smoke job: fast,
   still writes the BENCH_*.json dumps); `--only` takes a
   comma-separated list of section names (e.g. `--only e7,c1,tm1`) and
   runs exactly those, quick-aware sections included — an unknown name
   is rejected up front on stderr with the known sections listed.  No
   flags = everything. *)

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let only =
    let rec go = function
      | "--only" :: v :: _ -> Some (String.split_on_char ',' v)
      | _ :: rest -> go rest
      | [] -> None
    in
    go argv
  in
  let sections =
    [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("e7", e7); ("e8", e8); ("e9", e9); ("s1", s1); ("a1", a1); ("a2", a2);
      ("a3", a3); ("a4", a4); ("p1", fun () -> p1 ~quick ());
      ("c1", fun () -> c1 ~quick ());
      ("o1", fun () -> o1 ~quick ());
      ("j1", fun () -> j1 ~quick ());
      ("n1", fun () -> n1 ~quick ());
      ("tm1", fun () -> tm1 ~quick ());
      ("bechamel", run_bechamel) ]
  in
  let chosen =
    match only with
    | Some names ->
        (* Reject every unknown name before running anything: a typo in
           a CI invocation should fail fast and say what is on offer,
           not crash mid-suite with a backtrace. *)
        let unknown =
          List.filter (fun n -> not (List.mem_assoc n sections)) names
        in
        if unknown <> [] then begin
          Printf.eprintf
            "bench: unknown section%s %s\nknown sections: %s\n"
            (if List.length unknown = 1 then "" else "s")
            (String.concat ", "
               (List.map (Printf.sprintf "%S") unknown))
            (String.concat ", " (List.map fst sections));
          exit 2
        end;
        List.filter (fun (n, _) -> List.mem n names) sections
    | None ->
        if quick then
          List.filter
            (fun (n, _) ->
              List.mem n [ "c1"; "o1"; "j1"; "n1"; "tm1"; "p1" ])
            sections
        else sections
  in
  Report.print
    [ Report.heading "biomc benchmark harness";
      Report.text
        "Part 1 reproduces each experiment's table/series; Part 2 times kernels." ];
  List.iter (fun (_, f) -> f ()) chosen
