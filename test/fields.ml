(* Every vector field of the model library: the classic ODE systems and
   each mode of every hybrid model, some with free parameters. *)

module Cl = Biomodels.Classics

let all () =
  let modes h =
    List.map (fun m -> Hybrid.Automaton.mode_system h m) (Hybrid.Automaton.mode_names h)
  in
  [ Cl.lotka_volterra; Cl.lotka_volterra_full; Cl.erk_cascade; Cl.proofreading;
    Cl.damped_nonlinear; Cl.damped_rotation; Cl.p53_mdm2; Cl.sir;
    Biomodels.Genetic.toggle_switch; Biomodels.Genetic.repressilator ]
  @ modes (Biomodels.Fenton_karma.automaton ())
  @ modes (Biomodels.Fenton_karma.automaton ~free_params:[ "tau_si"; "tau_d" ] ())
  @ modes (Biomodels.Bueno_cherry_fenton.automaton ~free_params:[ "tau_so1" ] ())
  @ modes (Biomodels.Prostate.automaton ())
  @ modes (Biomodels.Tbi.automaton ())
  @ modes (Biomodels.Genetic.toggle_automaton ())
