(* Quickstart: the full Fig.-2 workflow on a small ODE model.

   1. Define an ODE model with unknown parameters.
   2. Generate noisy "experimental" data from a hidden ground truth.
   3. Calibrate: guaranteed parameter synthesis (BioPSy-style) + point fit.
   4. Validate: check a desired behaviour by bounded reachability.
   5. Analyze: prove a safety property (unsat = proof).

   Run with:  dune exec examples/quickstart.exe *)

module I = Interval.Ia
module Box = Interval.Box
module Report = Core.Report

let () =
  (* 1. The model: logistic growth with unknown rate and capacity.
        dx/dt = r·x·(1 - x/kcap) *)
  let sys =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "r"; "kcap" ]
      ~rhs:[ ("x", "r * x * (1 - x / kcap)") ]
  in
  (* 2. Synthetic data from the hidden truth r = 0.8, kcap = 2.0. *)
  let rng = Random.State.make [| 2020 |] in
  let data =
    Synth.Data.synthetic ~rng ~sys
      ~params:[ ("r", 0.8); ("kcap", 2.0) ]
      ~init:[ ("x", 0.1) ]
      ~t_end:8.0 ~observed:[ "x" ] ~n:6 ~noise:0.02 ~tolerance:0.12
  in
  let problem =
    Synth.Biopsy.problem ~sys
      ~param_box:(Box.of_list [ ("r", I.make 0.2 2.0); ("kcap", I.make 1.0 4.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 0.1) ])
      ~data
  in
  (* 3. Calibrate. *)
  let calibration = Core.Workflow.calibrate problem in
  let fitted =
    match calibration with
    | Core.Workflow.Calibrated { witness; _ } -> witness
    | Core.Workflow.Falsified _ | Core.Workflow.Inconclusive _ ->
        failwith "calibration failed — increase data tolerance"
  in
  (* 4. Validated model: does the population reach 90% of capacity? *)
  let automaton =
    Hybrid.Automaton.of_system ~init:(Box.of_list [ ("x", I.of_float 0.1) ])
      (Ode.System.bind_params fitted sys)
  in
  let reaches_90pct =
    Core.Workflow.check
      ~goal:
        { Reach.Encoding.goal_modes = [];
          predicate = Expr.Parse.formula "x >= 1.8" }
      ~k:0 ~time_bound:20.0 automaton
  in
  (* 5. Safety: the population never overshoots the capacity by 20%. *)
  let overshoot_refuted =
    Core.Workflow.refutes
      ~goal:
        { Reach.Encoding.goal_modes = [];
          predicate = Expr.Parse.formula "x >= 2.4" }
      ~k:0 ~time_bound:20.0 automaton
  in
  Report.print
    [ Report.heading "Quickstart: logistic growth";
      Report.text "data points: %d (band half-width 0.12)" (List.length data);
      Report.text "calibration: %s" (Fmt.str "%a" Core.Workflow.pp_calibration calibration);
      Report.kv
        [ ("fitted r", Fmt.str "%.3f (truth 0.8)" (List.assoc "r" fitted));
          ("fitted kcap", Fmt.str "%.3f (truth 2.0)" (List.assoc "kcap" fitted)) ];
      Report.rule;
      Report.text "reach x >= 1.8 within t <= 20:  %s"
        (Fmt.str "%a" Reach.Checker.pp_result reaches_90pct);
      Report.text "overshoot x >= 2.4 refuted:     %s"
        (match overshoot_refuted with
        | Some e -> Fmt.str "yes (%a)" Reach.Checker.pp_evidence e
        | None -> "no") ]
