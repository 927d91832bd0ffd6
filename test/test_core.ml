(* Tests for the Fig.-2 workflow layer: calibration, therapy
   optimization, robustness, and reporting.  These are integration tests
   over all the substrates at once. *)

module I = Interval.Ia
module Box = Interval.Box
module W = Core.Workflow
module Th = Core.Therapy
module Ro = Core.Robustness
module Rep = Core.Report

let decay_k =
  Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]

let decay_problem ?(tol = 0.08) () =
  let data =
    List.map
      (fun t ->
        Synth.Data.point ~time:t ~var:"x" ~value:(Float.exp (-.t)) ~tolerance:tol)
      [ 0.25; 0.5; 1.0 ]
  in
  Synth.Biopsy.problem ~sys:decay_k
    ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
    ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
    ~data

(* ---- Workflow ---- *)

let test_calibrate_success () =
  match W.calibrate (decay_problem ()) with
  | W.Calibrated { witness; sse; _ } ->
      Alcotest.(check bool) "k recovered" true
        (Float.abs (List.assoc "k" witness -. 1.0) < 0.1);
      Alcotest.(check bool) "good fit" true (sse < 1e-2)
  | W.Falsified _ -> Alcotest.fail "should calibrate"
  | W.Inconclusive _ -> Alcotest.fail "should not be inconclusive"

let test_calibrate_falsified () =
  let data =
    [ Synth.Data.point ~time:0.5 ~var:"x" ~value:3.0 ~tolerance:0.2;
      Synth.Data.point ~time:1.0 ~var:"x" ~value:9.0 ~tolerance:0.2 ]
  in
  let prob =
    Synth.Biopsy.problem ~sys:decay_k
      ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      ~data
  in
  match W.calibrate prob with
  | W.Falsified _ -> ()
  | W.Calibrated _ | W.Inconclusive _ -> Alcotest.fail "exponential growth must falsify decay"

let test_workflow_check_and_refute () =
  let automaton =
    Hybrid.Automaton.of_system ~init:(Box.of_list [ ("x", I.of_float 1.0) ]) decay_k
  in
  let param_box = Box.of_list [ ("k", I.make 0.5 2.0) ] in
  let reach_goal =
    { Reach.Encoding.goal_modes = []; predicate = Expr.Parse.formula "x <= 0.4" }
  in
  (match W.check ~param_box ~goal:reach_goal ~k:0 ~time_bound:2.0 automaton with
  | Reach.Checker.Delta_sat w -> Alcotest.(check bool) "certified" true w.Reach.Checker.certified
  | r -> Alcotest.failf "expected delta-sat, got %s" (Fmt.str "%a" Reach.Checker.pp_result r));
  let impossible =
    { Reach.Encoding.goal_modes = []; predicate = Expr.Parse.formula "x >= 2" }
  in
  Alcotest.(check bool) "growth refuted" true
    (Option.is_some (W.refutes ~param_box ~goal:impossible ~k:0 ~time_bound:2.0 automaton))

(* A refutation that used the ensemble bracket is never reported as a
   proof.  x' = -k x from 1 with k in [0.1, 3]: the validated tube to
   t = 1 is complete but wider than the checker's usability gate, so
   the flow is bracketed; with k in [0.1, 0.5] the tube is usable. *)
let growth_goal =
  { Reach.Encoding.goal_modes = []; predicate = Expr.Parse.formula "x >= 2" }

let decay_from_one =
  Hybrid.Automaton.of_system ~init:(Box.of_list [ ("x", I.of_float 1.0) ]) decay_k

let test_refutes_evidence () =
  let refutes k_hi =
    W.refutes
      ~param_box:(Box.of_list [ ("k", I.make 0.1 k_hi) ])
      ~goal:growth_goal ~k:0 ~time_bound:1.0 decay_from_one
  in
  let pp = Fmt.(option ~none:(any "not refuted") Reach.Checker.pp_evidence) in
  let evidence = Alcotest.testable pp ( = ) in
  Alcotest.(check evidence) "k in [0.1, 3]: bracketed" (Some Reach.Checker.Bracketed)
    (refutes 3.0);
  Alcotest.(check evidence) "k in [0.1, 0.5]: proof" (Some Reach.Checker.Proof)
    (refutes 0.5)

(* The same decay for robustness, with k an input: a constant state
   whose initial range is the input range.  The gate's limit then grows
   with the range (4·2.9), so the flow to t = 2 is what brackets. *)
let test_robust_evidence () =
  let make (lo, hi) =
    Hybrid.Automaton.of_system
      ~init:(Box.of_list [ ("x", I.of_float 1.0); ("k", I.make lo hi) ])
      (Ode.System.of_strings ~vars:[ "x"; "k" ] ~params:[] ~rhs:[ ("x", "-k*x"); ("k", "0") ])
  in
  let classify range = Ro.classify ~goal:growth_goal ~k:0 ~time_bound:2.0 make range in
  let verdict = Alcotest.testable Ro.pp_verdict ( = ) in
  Alcotest.(check verdict) "k in [0.1, 3]: bracketed" (Ro.Robust Reach.Checker.Bracketed)
    (classify (0.1, 3.0));
  Alcotest.(check verdict) "k in [0.1, 0.5]: proof" (Ro.Robust Reach.Checker.Proof)
    (classify (0.1, 0.5))

let test_smc_screen () =
  let prob =
    Smc.Runner.problem
      ~model:(Smc.Runner.Ode_model decay_k)
      ~init_dist:[ ("x", Smc.Sampler.Uniform (0.9, 1.1)) ]
      ~param_dist:[ ("k", Smc.Sampler.Uniform (0.8, 1.2)) ]
      ~property:(Smc.Bltl.Finally (2.0, Smc.Bltl.prop "x <= 0.5"))
      ~t_end:2.0 ()
  in
  let e = W.smc_screen ~eps:0.1 ~alpha:0.1 prob in
  Alcotest.(check (float 1e-9)) "always satisfied" 1.0 e.Smc.Estimate.p_hat

(* ---- The full Fig.-2 loop as one story ----

   Data come from exponential decay.  Hypothesis 1 (zero-order
   degradation, x' = -k) is falsified by calibration; the SMC branch
   screens it and reports the behaviour is improbable, prompting
   refinement.  Hypothesis 2 (first-order degradation, x' = -k·x)
   calibrates; the validated model then supports a reachability analysis
   and a Lyapunov stability proof. *)

let test_fig2_story () =
  let data =
    List.map
      (fun t ->
        Synth.Data.point ~time:t ~var:"x" ~value:(Float.exp (-.t)) ~tolerance:0.05)
      [ 0.25; 1.0; 2.0 ]
  in
  let param_box = Box.of_list [ ("k", I.make 0.1 3.0) ] in
  let init = Box.of_list [ ("x", I.of_float 1.0) ] in
  (* Hypothesis 1: zero-order degradation. *)
  let zero_order =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k") ]
  in
  (match W.calibrate (Synth.Biopsy.problem ~sys:zero_order ~param_box ~init ~data) with
  | W.Falsified _ -> ()
  | _ -> Alcotest.fail "zero-order degradation must be falsified");
  (* SMC screening of the falsified hypothesis: under parameter
     uncertainty it essentially never matches the late data band. *)
  let screen =
    W.smc_screen ~eps:0.1 ~alpha:0.1
      (Smc.Runner.problem
         ~model:(Smc.Runner.Ode_model zero_order)
         ~init_dist:[ ("x", Smc.Sampler.Constant 1.0) ]
         ~param_dist:[ ("k", Smc.Sampler.Uniform (0.1, 3.0)) ]
         ~property:
           (Smc.Bltl.Finally
              (2.05, Smc.Bltl.prop "t >= 1.99 and x >= 0.085 and x <= 0.185"))
         ~t_end:2.1 ())
  in
  Alcotest.(check bool) "screening finds the behaviour improbable" true
    (screen.Smc.Estimate.p_hat < 0.2);
  (* Hypothesis 2: first-order degradation — calibrates. *)
  let first_order =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]
  in
  let fitted =
    match W.calibrate (Synth.Biopsy.problem ~sys:first_order ~param_box ~init ~data) with
    | W.Calibrated { witness; _ } -> witness
    | _ -> Alcotest.fail "first-order degradation must calibrate"
  in
  Alcotest.(check bool) "recovered k" true
    (Float.abs (List.assoc "k" fitted -. 1.0) < 0.1);
  (* Validated model: analysis tasks. *)
  let bound = Ode.System.bind_params fitted first_order in
  let automaton = Hybrid.Automaton.of_system ~init bound in
  (match
     W.check
       ~goal:{ Reach.Encoding.goal_modes = []; predicate = Expr.Parse.formula "x <= 0.2" }
       ~k:0 ~time_bound:3.0 automaton
   with
  | Reach.Checker.Delta_sat w ->
      Alcotest.(check bool) "analysis witness certified" true w.Reach.Checker.certified
  | r -> Alcotest.failf "expected delta-sat: %s" (Fmt.str "%a" Reach.Checker.pp_result r));
  let stability =
    Core.Stability.prove
      ~region:(Box.of_list [ ("x", I.make (-1.0) 1.0) ])
      bound
  in
  Alcotest.(check bool) "calibrated model proved stable" true
    (stability.Core.Stability.certificate <> None)

let test_paving_csv () =
  let prob = decay_problem () in
  let r = Synth.Biopsy.synthesize prob in
  let csv = Synth.Biopsy.to_csv prob r in
  let contains sub =
    let n = String.length csv and m = String.length sub in
    let rec go i = i + m <= n && (String.equal (String.sub csv i m) sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "class,k_lo,k_hi");
  Alcotest.(check bool) "has inconsistent rows" true (contains "inconsistent,");
  Alcotest.(check int) "one row per box plus header"
    (1
    + List.length r.Synth.Biopsy.consistent
    + List.length r.Synth.Biopsy.inconsistent
    + List.length r.Synth.Biopsy.undecided)
    (List.length (String.split_on_char '\n' (String.trim csv)))

(* ---- Therapy (on the TBI case study) ---- *)

let test_therapy_tbi () =
  let tbi = Biomodels.Tbi.automaton () in
  let param_box =
    Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ]
  in
  match
    Th.optimize ~param_box
      ~recovery:(Biomodels.Tbi.recovery_goal ())
      ~harm:(Biomodels.Tbi.death_goal ())
      ~max_jumps:4 ~time_bound:40.0 tbi
  with
  | Th.Plan p ->
      Alcotest.(check (list string)) "paper's scheme" [ "m0"; "mA"; "mB"; "m0" ] p.Th.path;
      Alcotest.(check int) "3 drug decisions" 3 p.Th.jumps;
      Alcotest.(check bool) "safety verified" true p.Th.safety_checked;
      (* replay the plan: the simulated policy must avoid death *)
      let traj =
        Biomodels.Tbi.simulate_policy
          ~theta1:(List.assoc "theta1" p.Th.thresholds)
          ~theta2:(List.assoc "theta2" p.Th.thresholds)
          ~t_end:40.0 ()
      in
      Alcotest.(check bool) "replay avoids death" true
        (not (List.mem Biomodels.Tbi.mode_death traj.Hybrid.Simulate.path))
  | Th.No_plan why -> Alcotest.failf "expected a plan, got: %s" why

let test_therapy_impossible () =
  (* with lethal thresholds out of reach of any parameter value, no safe
     scheme exists: make the harm goal trivially reachable by asking to
     avoid reaching mode 0 itself *)
  let tbi = Biomodels.Tbi.automaton () in
  let param_box =
    Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ]
  in
  match
    Th.optimize ~param_box
      ~recovery:(Biomodels.Tbi.recovery_goal ())
      ~harm:{ Reach.Encoding.goal_modes = [ "m0" ]; predicate = Expr.Formula.tt }
      ~max_jumps:3 ~time_bound:40.0 tbi
  with
  | Th.Plan _ -> Alcotest.fail "no plan can avoid its own recovery mode"
  | Th.No_plan _ -> ()

(* ---- Robustness (cardiac stimulation, Sec. IV-C) ---- *)

let bcf_make (lo, hi) =
  Biomodels.Bueno_cherry_fenton.automaton ~stimulus:lo ~stimulus_width:(hi -. lo) ()

let bcf_goal = Biomodels.Bueno_cherry_fenton.excitation_goal ()

let test_robustness_classify () =
  (match Ro.classify ~goal:bcf_goal ~k:3 ~time_bound:100.0 bcf_make (0.0, 0.05) with
  | Ro.Robust _ -> ()
  | v -> Alcotest.failf "low range should be robust, got %s" (Fmt.str "%a" Ro.pp_verdict v));
  match Ro.classify ~goal:bcf_goal ~k:3 ~time_bound:100.0 bcf_make (0.35, 0.4) with
  | Ro.Excitable _ -> ()
  | v -> Alcotest.failf "high range should excite, got %s" (Fmt.str "%a" Ro.pp_verdict v)

let test_robustness_sweep_crossover () =
  let ranges = [ (0.0, 0.1); (0.1, 0.2); (0.32, 0.42) ] in
  let results = Ro.sweep ~goal:bcf_goal ~k:3 ~time_bound:100.0 bcf_make ranges in
  (match results with
  | [ (_, Ro.Robust _); (_, Ro.Robust _); (_, Ro.Excitable _) ] -> ()
  | _ ->
      Alcotest.failf "unexpected sweep: %s"
        (String.concat "; "
           (List.map (fun (_, v) -> Fmt.str "%a" Ro.pp_verdict v) results)))

let test_robustness_threshold_bisection () =
  (* scalar amplitude: stimulate with the exact value *)
  let make a = bcf_make (a, a +. 0.001) in
  let th, probes =
    Ro.threshold ~goal:bcf_goal ~k:3 ~time_bound:100.0 ~lo:0.05 ~hi:0.5 ~tol:0.05 make
  in
  (* BCF's validated tubes fail the usability gate, so every robust
     probe rests on an ensemble bracket: none may come back as a proof *)
  List.iter
    (fun (a, v) ->
      match v with
      | Ro.Robust e ->
          Alcotest.(check bool)
            (Printf.sprintf "robust probe %.4f is bracketed" a)
            true
            (e = Reach.Checker.Bracketed)
      | Ro.Excitable _ | Ro.Borderline _ -> ())
    probes;
  Alcotest.(check bool) "some probe is robust" true
    (List.exists (function _, Ro.Robust _ -> true | _ -> false) probes);
  match th with
  | Some th ->
      (* the true excitation threshold is θ_v = 0.3 *)
      Alcotest.(check bool) (Printf.sprintf "threshold %.3f near 0.3" th) true
        (Float.abs (th -. 0.3) < 0.08)
  | None -> Alcotest.fail "threshold exists in [0.05, 0.5]"

(* ---- Report ---- *)

let test_report_rendering () =
  let r =
    [ Rep.heading "Results";
      Rep.text "k = %.2f" 1.0;
      Rep.kv [ ("alpha", "1"); ("beta-long-key", "2") ];
      Rep.table ~header:[ "col"; "value" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ];
      Rep.rule ]
  in
  let s = Rep.to_string r in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "heading" true (contains "== Results ==");
  Alcotest.(check bool) "text" true (contains "k = 1.00");
  Alcotest.(check bool) "kv" true (contains "beta-long-key : 2");
  Alcotest.(check bool) "table header" true (contains "col  value");
  Alcotest.(check bool) "table row" true (contains "bb   22")

let () =
  Alcotest.run "core"
    [
      ( "workflow",
        [
          Alcotest.test_case "calibrate success" `Quick test_calibrate_success;
          Alcotest.test_case "calibrate falsified" `Quick test_calibrate_falsified;
          Alcotest.test_case "check and refute" `Quick test_workflow_check_and_refute;
          Alcotest.test_case "smc screen" `Quick test_smc_screen;
          Alcotest.test_case "Fig. 2 story" `Quick test_fig2_story;
          Alcotest.test_case "paving csv" `Quick test_paving_csv;
          Alcotest.test_case "refutes keeps the evidence" `Quick test_refutes_evidence;
        ] );
      ( "therapy",
        [
          Alcotest.test_case "TBI plan" `Slow test_therapy_tbi;
          Alcotest.test_case "impossible plan" `Slow test_therapy_impossible;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "classify" `Quick test_robustness_classify;
          Alcotest.test_case "sweep crossover" `Slow test_robustness_sweep_crossover;
          Alcotest.test_case "threshold bisection" `Slow test_robustness_threshold_bisection;
          Alcotest.test_case "robust keeps the evidence" `Quick test_robust_evidence;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
    ]
