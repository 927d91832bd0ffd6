(* Tests for the biological case-study models: structural sanity and the
   published qualitative behaviours the experiments rely on. *)

module I = Interval.Ia
module Box = Interval.Box
module FK = Biomodels.Fenton_karma
module BCF = Biomodels.Bueno_cherry_fenton
module Pro = Biomodels.Prostate
module Tbi = Biomodels.Tbi
module Cl = Biomodels.Classics

(* ---- Fenton–Karma ---- *)

let test_fk_structure () =
  let h = FK.automaton () in
  Alcotest.(check (list string)) "vars" [ "u"; "v"; "w" ] (Hybrid.Automaton.vars h);
  Alcotest.(check int) "3 modes" 3 (List.length (Hybrid.Automaton.modes h));
  Alcotest.(check int) "4 jumps" 4 (List.length (Hybrid.Automaton.jumps h));
  Alcotest.(check string) "stimulated start" FK.mode_high (Hybrid.Automaton.init_mode h)

let test_fk_action_potential () =
  match FK.apd ~params:[] ~t_end:500.0 () with
  | None -> Alcotest.fail "FK should fire an AP"
  | Some apd ->
      (* Beeler–Reuter fit: APD on the order of 100-250 model ms *)
      Alcotest.(check bool) (Printf.sprintf "APD %.1f in range" apd) true
        (apd > 100.0 && apd < 250.0)

let test_fk_subthreshold_no_ap () =
  (* a stimulus below u_c decays without exciting *)
  let h = FK.automaton ~stimulus:0.05 () in
  let traj = Hybrid.Simulate.simulate ~params:[] ~init:[] ~t_end:100.0 h in
  Alcotest.(check bool) "never excited" true
    (not (List.mem FK.mode_high traj.Hybrid.Simulate.path));
  Alcotest.(check bool) "u decayed" true
    (List.assoc "u" traj.Hybrid.Simulate.final_env < 0.05)

let test_fk_free_params () =
  let h = FK.automaton ~free_params:[ "tau_si"; "tau_d" ] () in
  Alcotest.(check (list string)) "free params" [ "tau_si"; "tau_d" ]
    (Hybrid.Automaton.params h);
  (* binding them yields a closed automaton that simulates *)
  let b = Hybrid.Automaton.bind_params [ ("tau_si", 30.0); ("tau_d", 0.25) ] h in
  let traj = Hybrid.Simulate.simulate ~params:[] ~init:[] ~t_end:100.0 b in
  Alcotest.(check bool) "simulates" true (traj.Hybrid.Simulate.total_time > 0.0)

(* ---- Bueno–Cherry–Fenton ---- *)

let test_bcf_structure () =
  let h = BCF.automaton () in
  Alcotest.(check (list string)) "vars" [ "u"; "v"; "w"; "s" ] (Hybrid.Automaton.vars h);
  Alcotest.(check int) "4 modes" 4 (List.length (Hybrid.Automaton.modes h));
  Alcotest.(check int) "6 jumps" 6 (List.length (Hybrid.Automaton.jumps h))

let test_bcf_epicardial_apd () =
  match BCF.apd ~params:[] ~t_end:800.0 () with
  | None -> Alcotest.fail "BCF EPI should fire an AP"
  | Some apd ->
      (* published epicardial APD ≈ 270 ms at threshold θ_w *)
      Alcotest.(check bool) (Printf.sprintf "APD %.1f ≈ 270" apd) true
        (apd > 220.0 && apd < 330.0)

let test_bcf_apd_monotone_in_tau_so1 () =
  let apd tau =
    match
      BCF.apd ~constants:{ BCF.epi with BCF.tau_so1 = tau } ~params:[] ~t_end:800.0 ()
    with
    | Some a -> a
    | None -> Alcotest.failf "no AP at tau_so1=%g" tau
  in
  let a10 = apd 10.0 and a30 = apd 30.0 and a60 = apd 60.0 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.0f < %.0f < %.0f" a10 a30 a60)
    true
    (a10 < a30 && a30 < a60);
  (* tachycardia-like collapse at small tau_so1 *)
  Alcotest.(check bool) "short AP at tau_so1=10" true (a10 < 60.0)

let test_bcf_peak_potential () =
  let h = BCF.automaton () in
  let traj = Hybrid.Simulate.simulate ~params:[] ~init:[] ~t_end:400.0 h in
  let peak =
    List.fold_left
      (fun acc (_, v) -> match v with Some u -> Float.max acc u | None -> acc)
      0.0
      (Hybrid.Simulate.sample traj "u" ~n:400)
  in
  (* u_u = 1.55 bounds the peak; EPI APs overshoot 1.0 *)
  Alcotest.(check bool) (Printf.sprintf "peak %.2f" peak) true (peak > 1.0 && peak < 1.55)

let test_bcf_stimulus_box () =
  let h = BCF.automaton ~stimulus:0.1 ~stimulus_width:0.05 () in
  let u0 = Box.find "u" (Hybrid.Automaton.init_box h) in
  Alcotest.(check bool) "init is a box" true
    (I.lo u0 = 0.1 && Float.abs (I.hi u0 -. 0.15) < 1e-12)

(* ---- Prostate cancer IAS ---- *)

let test_prostate_ias_vs_continuous () =
  let y_ias, cycles, _ = Pro.simulate_therapy ~r0:4.0 ~r1:10.0 ~t_end:800.0 () in
  let y_cas, cycles_cas, _ = Pro.simulate_therapy ~r0:(-1.0) ~r1:1e9 ~t_end:800.0 () in
  Alcotest.(check bool) "IAS cycles" true (cycles >= 2);
  Alcotest.(check int) "continuous never pauses" 0 cycles_cas;
  Alcotest.(check bool)
    (Printf.sprintf "IAS prevents relapse (y=%.3f) but CAS does not (y=%.1f)" y_ias y_cas)
    true
    (y_ias < 1.0 && y_cas > 10.0)

let test_prostate_psa () =
  let v = Pro.psa [ ("x", 10.0); ("y", 2.0); ("z", 12.0) ] in
  Alcotest.(check (float 1e-12)) "psa = x + y" 12.0 v

let test_prostate_structure () =
  let h = Pro.automaton () in
  Alcotest.(check (list string)) "thresholds are params" [ "r0"; "r1" ]
    (Hybrid.Automaton.params h);
  Alcotest.(check int) "2 modes" 2 (List.length (Hybrid.Automaton.modes h));
  let fixed = Pro.automaton ~r0:(`Fixed 4.0) ~r1:(`Fixed 10.0) () in
  Alcotest.(check (list string)) "fixed has no params" [] (Hybrid.Automaton.params fixed)

let test_prostate_androgen_dynamics () =
  (* on treatment androgen is suppressed; off it recovers toward z0 *)
  let _, _, traj = Pro.simulate_therapy ~r0:4.0 ~r1:10.0 ~t_end:200.0 () in
  match traj.Hybrid.Simulate.segments with
  | (first : Hybrid.Simulate.segment) :: _ ->
      let z_end =
        Ode.Integrate.final_state first.Hybrid.Simulate.trace
      in
      let z_idx =
        match Hybrid.Automaton.vars (Pro.automaton ()) with
        | [ "x"; "y"; "z" ] -> 2
        | _ -> Alcotest.fail "unexpected var order"
      in
      Alcotest.(check bool) "androgen suppressed on treatment" true
        (z_end.(z_idx) < 12.0)
  | [] -> Alcotest.fail "no segments"

(* ---- TBI multi-mode model ---- *)

let test_tbi_structure () =
  let h = Tbi.automaton () in
  Alcotest.(check int) "7 modes" 7 (List.length (Hybrid.Automaton.modes h));
  Alcotest.(check (list string)) "6 signature variables"
    [ "clox"; "rip3"; "casp3"; "lip"; "il"; "par" ]
    (Hybrid.Automaton.vars h);
  Alcotest.(check (list string)) "thresholds free" [ "theta1"; "theta2" ]
    (Hybrid.Automaton.params h)

let test_tbi_untreated_dies () =
  let traj = Tbi.simulate_policy ~theta1:100.0 ~theta2:100.0 ~t_end:60.0 () in
  Alcotest.(check string) "ends dead" Tbi.mode_death traj.Hybrid.Simulate.final_mode

let test_tbi_treatment_cycle () =
  let traj = Tbi.simulate_policy ~theta1:1.0 ~theta2:1.0 ~t_end:30.0 () in
  let path = traj.Hybrid.Simulate.path in
  Alcotest.(check bool) "never dies" true (not (List.mem Tbi.mode_death path));
  (* the paper's 0 -> A -> B -> 0 scheme appears as a sub-path *)
  let rec has_scheme = function
    | "m0" :: "mA" :: "mB" :: "m0" :: _ -> true
    | _ :: rest -> has_scheme rest
    | [] -> false
  in
  Alcotest.(check bool) "0->A->B->0 scheme" true (has_scheme path)

let test_tbi_a_alone_insufficient () =
  (* In mode A the necroptosis marker rises (crosstalk): a direct return
     A -> 0 cannot happen because rip3 cannot fall below the recovery
     threshold while the apoptosis inhibitor re-routes flux into it. *)
  let traj = Tbi.simulate_policy ~theta1:1.0 ~theta2:1.0 ~t_end:30.0 () in
  let rec a_to_0 = function
    | "mA" :: "m0" :: _ -> true
    | _ :: rest -> a_to_0 rest
    | [] -> false
  in
  Alcotest.(check bool) "no direct A->0" false (a_to_0 traj.Hybrid.Simulate.path)

let test_tbi_goals () =
  let g = Tbi.recovery_goal () in
  Alcotest.(check (list string)) "recovery in mode 0" [ "m0" ] g.Reach.Encoding.goal_modes;
  let d = Tbi.death_goal () in
  Alcotest.(check (list string)) "death goal" [ "death" ] d.Reach.Encoding.goal_modes

(* ---- Genetic circuits ---- *)

let test_toggle_bistable () =
  Alcotest.(check bool) "bistable at a=4" true
    (Biomodels.Genetic.bistable ~a1:4.0 ~a2:4.0 ());
  (* strongly asymmetric production destroys bistability: everything
     settles into the u-high state *)
  Alcotest.(check bool) "monostable at a1 >> a2" false
    (Biomodels.Genetic.bistable ~a1:6.0 ~a2:0.3 ())

let test_toggle_attractors () =
  let u_a, v_a = Biomodels.Genetic.toggle_settles ~a1:4.0 ~a2:4.0 ~u0:2.0 ~v0:0.0 in
  Alcotest.(check bool) "u-high attractor" true (u_a > 3.0 && v_a < 1.0);
  let u_b, v_b = Biomodels.Genetic.toggle_settles ~a1:4.0 ~a2:4.0 ~u0:0.0 ~v0:2.0 in
  Alcotest.(check bool) "v-high attractor" true (v_b > 3.0 && u_b < 1.0)

let test_toggle_reachability () =
  (* From a low box biased toward u (v0 pinned at 0), the circuit latches
     u-high: u >= 3 reachable, v >= 3 not. *)
  let h =
    Biomodels.Genetic.toggle_automaton ~u0:(I.make 0.5 1.0) ~v0:(I.of_float 0.0) ()
  in
  let bound = Hybrid.Automaton.bind_params [ ("a1", 4.0); ("a2", 4.0) ] h in
  let check goal =
    Reach.Checker.check
      (Reach.Encoding.create ~goal ~k:0 ~time_bound:40.0 bound)
  in
  (match check (Biomodels.Genetic.u_high_goal ()) with
  | Reach.Checker.Delta_sat w -> Alcotest.(check bool) "certified" true w.Reach.Checker.certified
  | r -> Alcotest.failf "u-high should be reachable, got %s" (Fmt.str "%a" Reach.Checker.pp_result r));
  match check (Biomodels.Genetic.v_high_goal ()) with
  | Reach.Checker.Unsat _ -> ()
  | r -> Alcotest.failf "v-high should be unreachable, got %s" (Fmt.str "%a" Reach.Checker.pp_result r)

let test_repressilator_oscillates () =
  let tr = Biomodels.Genetic.simulate_repressilator ~alpha:8.0 ~t_end:120.0 () in
  let peaks = Biomodels.Genetic.count_peaks ~min_prominence:0.5 (Ode.Integrate.signal tr "x") in
  Alcotest.(check bool) (Printf.sprintf "%d peaks" peaks) true (peaks >= 3);
  (* weak repression: the symmetric fixed point is stable, no sustained
     oscillation *)
  let tr0 = Biomodels.Genetic.simulate_repressilator ~alpha:0.5 ~t_end:120.0 () in
  let xs = Ode.Integrate.signal tr0 "x" in
  let tail = Array.sub xs (Array.length xs / 2) (Array.length xs / 2) in
  let mx = Array.fold_left Float.max neg_infinity tail in
  let mn = Array.fold_left Float.min infinity tail in
  Alcotest.(check bool) "no oscillation at low alpha" true (mx -. mn < 0.2)

(* ---- Classics ---- *)

let test_lotka_volterra_oscillates () =
  let tr =
    Ode.Integrate.simulate ~method_:(Ode.Integrate.Rk4 0.001)
      ~params:[ ("a", 1.0); ("b", 1.0) ]
      ~init:[ ("x", 2.0); ("y", 1.0) ]
      ~t_end:15.0 Cl.lotka_volterra
  in
  let xs = Ode.Integrate.signal tr "x" in
  let mx = Array.fold_left Float.max neg_infinity xs in
  let mn = Array.fold_left Float.min infinity xs in
  Alcotest.(check bool) "oscillation amplitude" true (mx > 1.8 && mn < 0.7);
  Alcotest.(check bool) "stays positive" true (mn > 0.0)

let test_sir_conservation () =
  let tr =
    Ode.Integrate.simulate ~method_:(Ode.Integrate.Rk4 0.01)
      ~params:[ ("beta", 0.5); ("gamma", 0.2) ]
      ~init:[ ("s", 0.99); ("i", 0.01); ("r", 0.0) ]
      ~t_end:50.0 Cl.sir
  in
  let final = Ode.Integrate.final_state tr in
  Alcotest.(check (float 1e-6)) "population conserved" 1.0
    (final.(0) +. final.(1) +. final.(2));
  Alcotest.(check bool) "epidemic happened" true (final.(2) > 0.3)

let test_p53_pulse () =
  let tr =
    Ode.Integrate.simulate
      ~params:[ ("damage", 1.0) ]
      ~init:[ ("p53", 0.05); ("mdm2", 0.05) ]
      ~t_end:30.0 Cl.p53_mdm2
  in
  let p = Ode.Integrate.signal tr "p53" in
  let peak = Array.fold_left Float.max neg_infinity p in
  Alcotest.(check bool) (Printf.sprintf "p53 pulses (peak %.2f)" peak) true (peak > 0.3);
  (* without damage, p53 stays low *)
  let tr0 =
    Ode.Integrate.simulate
      ~params:[ ("damage", 0.0) ]
      ~init:[ ("p53", 0.05); ("mdm2", 0.05) ]
      ~t_end:30.0 Cl.p53_mdm2
  in
  let peak0 = Array.fold_left Float.max neg_infinity (Ode.Integrate.signal tr0 "p53") in
  Alcotest.(check bool) "no pulse without damage" true (peak0 < 0.15)

let test_stability_subjects_relax () =
  (* the purely cubic damping of the nonlinear oscillator decays like
     t^(-1/2), so it gets a longer horizon and a looser bound *)
  List.iter
    (fun (name, sys, init, t_end, tol) ->
      let tr = Ode.Integrate.simulate ~params:[] ~init ~t_end sys in
      let final = Ode.Integrate.final_state tr in
      Array.iter
        (fun x ->
          Alcotest.(check bool) (name ^ " relaxes to 0") true (Float.abs x < tol))
        final)
    [ ("erk", Cl.erk_cascade, [ ("mek", 1.0); ("erk", 0.5); ("erkpp", 0.2) ], 20.0, 0.05);
      ("proofreading", Cl.proofreading, [ ("c0", 1.0); ("c1", 0.5) ], 20.0, 0.05);
      ("damped rotation", Cl.damped_rotation, [ ("x", 1.0); ("y", -1.0) ], 20.0, 0.05);
      ("damped nonlinear", Cl.damped_nonlinear, [ ("x", 0.8); ("y", 0.8) ], 300.0, 0.1) ]

(* ---- Hoisted field evaluation ----

   [Ode.System.compile_into] evaluates a field's constant and
   parameter-only tape slots once per closure; every output must still
   equal a full [Expr.Tape.eval_floats_into] pass bit for bit, on every
   field of this library, over SplitMix64 states, parameters and times.
   Each closure is called many times, so a stale or clobbered static
   slot would show. *)

let test_hoisted_fields () =
  let st = ref 53L in
  let draw () = Splitmix.float st 4.0 -. 1.0 in
  List.iteri
    (fun k sys ->
      let n = Ode.System.dim sys and ps = Ode.System.params sys in
      let np = List.length ps in
      let tp = Ode.System.rhs_tape sys in
      let sc = Expr.Tape.scratch tp in
      for _ = 1 to 4 do
        let param_env = List.map (fun p -> (p, draw ())) ps in
        let f = Ode.System.compile_into ~param_env sys in
        for _ = 1 to 25 do
          let state = Array.init n (fun _ -> draw ()) and t = draw () in
          let out = Array.make n 0.0 and full = Array.make n 0.0 in
          f t state out;
          let inputs =
            Array.concat [ state; Array.of_list (List.map snd param_env); [| t |] ]
          in
          Expr.Tape.eval_floats_into tp sc ~inputs ~out:full;
          Array.iteri
            (fun i v ->
              if Int64.bits_of_float v <> Int64.bits_of_float full.(i) then
                Alcotest.failf "field %d (%d params), component %d: %h vs full pass %h" k
                  np i v full.(i))
            out
        done
      done)
    (Fields.all ())

let () =
  Alcotest.run "biomodels"
    [
      ( "fenton-karma",
        [
          Alcotest.test_case "structure" `Quick test_fk_structure;
          Alcotest.test_case "action potential" `Quick test_fk_action_potential;
          Alcotest.test_case "subthreshold" `Quick test_fk_subthreshold_no_ap;
          Alcotest.test_case "free params" `Quick test_fk_free_params;
        ] );
      ( "bueno-cherry-fenton",
        [
          Alcotest.test_case "structure" `Quick test_bcf_structure;
          Alcotest.test_case "epicardial APD" `Quick test_bcf_epicardial_apd;
          Alcotest.test_case "APD vs tau_so1" `Quick test_bcf_apd_monotone_in_tau_so1;
          Alcotest.test_case "peak potential" `Quick test_bcf_peak_potential;
          Alcotest.test_case "stimulus box" `Quick test_bcf_stimulus_box;
        ] );
      ( "prostate",
        [
          Alcotest.test_case "IAS vs continuous" `Quick test_prostate_ias_vs_continuous;
          Alcotest.test_case "psa" `Quick test_prostate_psa;
          Alcotest.test_case "structure" `Quick test_prostate_structure;
          Alcotest.test_case "androgen dynamics" `Quick test_prostate_androgen_dynamics;
        ] );
      ( "tbi",
        [
          Alcotest.test_case "structure" `Quick test_tbi_structure;
          Alcotest.test_case "untreated dies" `Quick test_tbi_untreated_dies;
          Alcotest.test_case "treatment cycle" `Quick test_tbi_treatment_cycle;
          Alcotest.test_case "A alone insufficient" `Quick test_tbi_a_alone_insufficient;
          Alcotest.test_case "goals" `Quick test_tbi_goals;
        ] );
      ( "genetic",
        [
          Alcotest.test_case "toggle bistable" `Quick test_toggle_bistable;
          Alcotest.test_case "toggle attractors" `Quick test_toggle_attractors;
          Alcotest.test_case "toggle reachability" `Quick test_toggle_reachability;
          Alcotest.test_case "repressilator oscillates" `Quick test_repressilator_oscillates;
        ] );
      ( "classics",
        [
          Alcotest.test_case "lotka-volterra" `Quick test_lotka_volterra_oscillates;
          Alcotest.test_case "sir conservation" `Quick test_sir_conservation;
          Alcotest.test_case "p53 pulse" `Quick test_p53_pulse;
          Alcotest.test_case "stability subjects" `Quick test_stability_subjects_relax;
        ] );
      ( "fields",
        [ Alcotest.test_case "hoisted compile_into = full tape pass" `Quick
            test_hoisted_fields ] );
    ]
