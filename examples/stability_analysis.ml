(* Stability analysis (Sec. IV-C): both flavours.

   Time-bounded robustness — "cardiac cells filter out insignificant
   stimulations": an `unsat` answer proves that no stimulus in a given
   amplitude range can trigger an action potential.  The sweep locates
   the excitability threshold.

   Infinite-time stability — Lyapunov functions synthesized by CEGIS over
   δ-decisions for mass-action-style relaxation networks.

   Run with:  dune exec examples/stability_analysis.exe *)

module I = Interval.Ia
module Box = Interval.Box
module Report = Core.Report

let () =
  (* --- Robustness sweep on the BCF cardiac cell --- *)
  let make (lo, hi) =
    Biomodels.Bueno_cherry_fenton.automaton ~stimulus:lo ~stimulus_width:(hi -. lo) ()
  in
  let goal = Biomodels.Bueno_cherry_fenton.excitation_goal () in
  let ranges =
    [ (0.0, 0.05); (0.05, 0.1); (0.1, 0.15); (0.15, 0.2); (0.2, 0.25);
      (0.25, 0.3); (0.3, 0.35); (0.35, 0.4) ]
  in
  let sweep = Core.Robustness.sweep ~goal ~k:3 ~time_bound:100.0 make ranges in
  let sweep_rows =
    List.map
      (fun ((lo, hi), v) ->
        [ Fmt.str "[%.2f, %.2f]" lo hi; Fmt.str "%a" Core.Robustness.pp_verdict v ])
      sweep
  in
  let threshold, probes =
    Core.Robustness.threshold ~goal ~k:3 ~time_bound:100.0 ~lo:0.05 ~hi:0.5 ~tol:0.02
      (fun a -> make (a, a +. 0.001))
  in
  let probe_rows =
    List.map
      (fun (a, v) -> [ Fmt.str "%.4f" a; Fmt.str "%a" Core.Robustness.pp_verdict v ])
      probes
  in
  (* --- Lyapunov certificates for the relaxation networks --- *)
  let lyap_rows =
    List.map
      (fun (name, sys) ->
        let region = Biomodels.Classics.unit_box (Ode.System.vars sys) in
        let r = Core.Stability.prove ~region sys in
        match r.Core.Stability.certificate with
        | Some cert ->
            [ name;
              Fmt.str "%a" Expr.Term.pp cert.Lyapunov.Cegis.v;
              string_of_int cert.Lyapunov.Cegis.iterations;
              string_of_bool (Core.Stability.validate ~region sys cert) ]
        | None -> [ name; "(no certificate)"; "-"; "-" ])
      [ ("damped rotation", Biomodels.Classics.damped_rotation);
        ("nonlinear (x' = -x^3 - y, y' = x - y^3)", Biomodels.Classics.damped_nonlinear);
        ("kinetic-proofreading chain", Biomodels.Classics.proofreading);
        ("ERK deactivation cascade", Biomodels.Classics.erk_cascade) ]
  in
  Report.print
    [ Report.heading "Time-bounded robustness: cardiac stimulation filtering";
      Report.text
        "goal: a full action potential (u >= 1.0 in the excited mode, k <= 3)";
      Report.table ~header:[ "stimulus range"; "verdict" ] sweep_rows;
      Report.text "excitability threshold (bisection): %s"
        (match threshold with
        | Some t -> Fmt.str "%.3f (model threshold theta_v = 0.3)" t
        | None -> "not found");
      Report.table ~header:[ "bisection probe"; "verdict" ] probe_rows;
      Report.rule;
      Report.heading "Lyapunov stability via exists-forall delta-decisions";
      Report.table
        ~header:[ "system"; "synthesized V"; "CEGIS iters"; "re-validated" ]
        lyap_rows ]
