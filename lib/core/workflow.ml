(* The Fig.-2 analysis workflow: δ-decision-based parameter synthesis with
   model validation, falsification, and the SMC fallback for refinement.

   calibrate  — BioPSy-style guaranteed synthesis against data; the model
                is *calibrated* when a consistent parameter region exists,
                *falsified* when the whole box is inconsistent (unsat ⇒
                reject the model hypothesis), and *inconclusive* when only
                undecided boxes remain (tighten ε / gather data).
   check      — bounded reachability of a desired/undesired behaviour on
                the calibrated model (δ-sat with witness, or unsat).
   smc_screen — the statistical branch: estimates how probable a
                behaviour is under parameter uncertainty, used to generate
                hypotheses when the model was falsified. *)

type calibration =
  | Calibrated of {
      witness : (string * float) list;  (** a fitted parameter point *)
      sse : float;  (** residual of the witness *)
      regions : Synth.Biopsy.result;  (** the guaranteed paving *)
    }
  | Falsified of Synth.Biopsy.result
      (** no parameter value can explain the data: reject the hypothesis *)
  | Inconclusive of Synth.Biopsy.result

let pp_calibration ppf = function
  | Calibrated { witness; sse; regions } ->
      Fmt.pf ppf "calibrated (sse=%.4g, %a) at %a" sse Synth.Biopsy.pp_result regions
        Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string float))
        witness
  | Falsified r -> Fmt.pf ppf "falsified (%a)" Synth.Biopsy.pp_result r
  | Inconclusive r -> Fmt.pf ppf "inconclusive (%a)" Synth.Biopsy.pp_result r

let calibrate ?config (prob : Synth.Biopsy.problem) =
  let result = Synth.Biopsy.synthesize ?config prob in
  if Synth.Biopsy.falsified result then Falsified result
  else
    match Synth.Biopsy.fit ?config prob with
    | Some (witness, sse) -> Calibrated { witness; sse; regions = result }
    | None -> Inconclusive result

(* Bounded reachability check of a behaviour on a (possibly parameterized)
   hybrid model — thin orchestration over [Reach]. *)
let check ?config ?(param_box = Interval.Box.empty_map) ~goal ~k ~time_bound automaton =
  let pb = Reach.Encoding.create ~param_box ~goal ~k ~time_bound automaton in
  Reach.Checker.check ?config pb

(* A behaviour is refuted (model falsification against a *qualitative*
   property) when its reachability is unsat for every parameter value;
   the evidence says whether that is a proof or rests on a bracket. *)
let refutes ?config ?param_box ~goal ~k ~time_bound automaton =
  match check ?config ?param_box ~goal ~k ~time_bound automaton with
  | Reach.Checker.Unsat { rigorous } ->
      Some (if rigorous then Reach.Checker.Proof else Reach.Checker.Bracketed)
  | Reach.Checker.Delta_sat _ | Reach.Checker.Unknown _ -> None

(* SMC screening of a behaviour under distributional uncertainty: the
   hypothesis-generation branch taken when calibration fails. *)
let smc_screen ?seed ?eps ?alpha (prob : Smc.Runner.problem) =
  Smc.Runner.estimate ?seed ?eps ?alpha prob
