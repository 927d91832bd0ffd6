(** The Fig.-2 analysis workflow: δ-decision-based parameter synthesis
    with validation, falsification, and the SMC fallback. *)

type calibration =
  | Calibrated of {
      witness : (string * float) list;  (** a fitted parameter point *)
      sse : float;
      regions : Synth.Biopsy.result;  (** the guaranteed paving *)
    }
  | Falsified of Synth.Biopsy.result
      (** no parameter value can explain the data — reject the model
          hypothesis (Fig. 2's "model refinement" arrow) *)
  | Inconclusive of Synth.Biopsy.result

val calibrate : ?config:Synth.Biopsy.config -> Synth.Biopsy.problem -> calibration

val check :
  ?config:Reach.Checker.config ->
  ?param_box:Interval.Box.t ->
  goal:Reach.Encoding.goal ->
  k:int ->
  time_bound:float ->
  Hybrid.Automaton.t ->
  Reach.Checker.result
(** Bounded reachability of a behaviour on the (possibly parameterized)
    model. *)

val refutes :
  ?config:Reach.Checker.config ->
  ?param_box:Interval.Box.t ->
  goal:Reach.Encoding.goal ->
  k:int ->
  time_bound:float ->
  Hybrid.Automaton.t ->
  Reach.Checker.evidence option
(** [Some evidence] iff the behaviour is unsat for every parameter
    value — model falsification against a qualitative property.  The
    evidence is [Proof] only when the refutation used validated tubes
    alone. *)

val smc_screen :
  ?seed:int -> ?eps:float -> ?alpha:float -> Smc.Runner.problem -> Smc.Estimate.estimate
(** Statistical screening under distributional uncertainty: the
    hypothesis-generation branch taken when calibration fails. *)

val pp_calibration : calibration Fmt.t
