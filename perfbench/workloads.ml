(* The four paper workloads, each a whole query with a committed answer.

   [setup] builds the query's inputs (model construction, parsing,
   encoding) and returns the query itself; the driver times the two
   separately.  Every query runs at jobs = 1, the CLI default.

   The three delta-decision workloads are deterministic and ignore the
   seed: perturbing their inputs (the paving's band edges, say) moves
   box and leaf counts, so seeds would show up as run-to-run spread and
   the leaf-count fingerprint could no longer be committed.  smc-p53
   takes the seed as its sampling seed. *)

module I = Interval.Ia
module Box = Interval.Box

type answer = {
  fingerprint : string;
  decided_frac : float;
      (** share of the query's domain that received a verdict: the
          decided share of the paving's area for [calib-pave], 1 for a
          conclusive verdict elsewhere *)
}

type t = {
  name : string;
  setup : seed:int -> unit -> answer;
  expected : seed:int -> string -> (unit, string) result;
      (** checks one repetition's fingerprint *)
}

let exactly want got =
  if got = want then Ok () else Error (Printf.sprintf "got %S, expected %S" got want)

let conclusive = 1.0

(* E1: Fenton–Karma spike-and-dome falsification, the unsat direction. *)
let reach_falsify =
  let setup ~seed:_ =
    let fk = Biomodels.Fenton_karma.automaton () in
    let goal = Biomodels.Fenton_karma.spike_and_dome_goal () in
    let enc = Reach.Encoding.create ~min_jumps:2 ~goal ~k:4 ~time_bound:400.0 fk in
    fun () ->
      let r = Reach.Checker.check enc in
      let decided = match r with Reach.Checker.Unknown _ -> 0.0 | _ -> conclusive in
      { fingerprint = Fmt.str "%a" Reach.Checker.pp_result r; decided_frac = decided }
  in
  {
    name = "reach-falsify";
    setup;
    expected = (fun ~seed:_ -> exactly "unsat (ensemble-bracketed)");
  }

(* E4: TBI treatment-scheme synthesis, the delta-sat direction. *)
let therapy_synth =
  let setup ~seed:_ =
    let automaton = Biomodels.Tbi.automaton () in
    let param_box = Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ] in
    let recovery = Biomodels.Tbi.recovery_goal () in
    let harm = Biomodels.Tbi.death_goal () in
    fun () ->
      match
        Core.Therapy.optimize ~param_box ~recovery ~harm ~max_jumps:4 ~time_bound:40.0
          automaton
      with
      | Core.Therapy.No_plan why -> { fingerprint = "no plan: " ^ why; decided_frac = 0.0 }
      | Core.Therapy.Plan p ->
          let thresholds =
            List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) p.Core.Therapy.thresholds
          in
          {
            fingerprint =
              Printf.sprintf "%s %s safety_checked=%b"
                (String.concat ">" p.Core.Therapy.path)
                (String.concat "," thresholds) p.Core.Therapy.safety_checked;
            decided_frac = conclusive;
          }
  in
  {
    name = "therapy-synth";
    setup;
    expected =
      (fun ~seed:_ ->
        exactly
          "m0>mA>mB>m0 theta1=0x1.4cccccccccccdp+0,theta2=0x1.3333333333333p+0 \
           safety_checked=true");
  }

(* Impulse-response calibration paving (pave-impulse-fit of the N1, AF1
   and TM1 bench sections) at a fine epsilon: the branch-and-prune
   workload. *)
let calib_pave =
  let setup ~seed:_ =
    let fit =
      Expr.Parse.formula
        "a*k*exp(-k) >= 0.3 and a*k*exp(-k) <= 0.5 and 3*a*k*exp(-3*k) >= 0.1 and \
         3*a*k*exp(-3*k) <= 0.3"
    in
    let box = Box.of_list [ ("k", I.make 0.05 2.5); ("a", I.make 0.2 3.0) ] in
    let config = { Icp.Solver.default_config with epsilon = 0.002 } in
    fun () ->
      let p = Icp.Solver.pave ~config fit box in
      let s, u, d = Icp.Solver.paving_volumes ~over:[ "k"; "a" ] p in
      {
        fingerprint =
          Printf.sprintf "sat=%d unsat=%d undecided=%d" (List.length p.Icp.Solver.sat)
            (List.length p.Icp.Solver.unsat)
            (List.length p.Icp.Solver.undecided);
        decided_frac = (s +. u) /. (s +. u +. d);
      }
  in
  {
    name = "calib-pave";
    setup;
    expected = (fun ~seed:_ -> exactly "sat=1599 unsat=1674 undecided=2287");
  }

(* E8: Chernoff estimates over the three damage regimes of the p53
   module, the float-simulation workload. *)
let regimes = [ ("0.0-0.1", 0.0, 0.1); ("0.1-0.5", 0.1, 0.5); ("0.5-1.5", 0.5, 1.5) ]

(* Chernoff sample size at eps = 0.02, alpha = 0.05. *)
let smc_n = 4612

(* Successes in the 0.1-0.5 regime at seeds 0-31; the other two regimes
   give 0 and 4612 at every one of these seeds. *)
let smc_committed =
  [| 4008; 4027; 4051; 4093; 3973; 4023; 4077; 4012; 4020; 4006; 4020; 4049; 4044; 4062;
     4059; 4096; 4013; 4003; 4026; 4017; 4016; 4026; 4054; 4038; 4027; 4015; 4030; 4033;
     4014; 4033; 4021; 4057 |]

(* P(pulse) per regime, pooled over the committed seeds. *)
let smc_reference = [ ("0.0-0.1", 0.0); ("0.1-0.5", 0.8744); ("0.5-1.5", 1.0) ]

(* At a committed seed the answer must match exactly.  At any other
   seed each estimate must use the Chernoff sample size and lie within
   2 eps of the reference: by Hoeffding a correct sampler misses that by
   chance with probability below 1e-6 per regime. *)
let smc_expected ~seed got =
  if seed >= 0 && seed < Array.length smc_committed then
    exactly
      (Printf.sprintf "0.0-0.1:0/%d 0.1-0.5:%d/%d 0.5-1.5:%d/%d" smc_n smc_committed.(seed) smc_n
         smc_n smc_n)
      got
  else
    let part (label, p) s =
      match Scanf.sscanf s "%[^:]:%d/%d%!" (fun l k n -> (l, k, n)) with
      | l, k, n
        when l = label && n = smc_n
             && Float.abs ((float_of_int k /. float_of_int n) -. p) <= 0.04 ->
          Ok ()
      | _ | (exception (Scanf.Scan_failure _ | End_of_file | Failure _)) ->
          Error (Printf.sprintf "answer %S: estimate %S is off the reference P = %g" got s p)
    in
    let parts = String.split_on_char ' ' got in
    if List.length parts <> List.length smc_reference then Error ("malformed answer " ^ got)
    else
      List.fold_left2
        (fun acc r s -> Result.bind acc (fun () -> part r s))
        (Ok ()) smc_reference parts

let smc_p53 =
  let setup ~seed =
    let problem lo hi =
      Smc.Runner.problem
        ~model:(Smc.Runner.Ode_model Biomodels.Classics.p53_mdm2)
        ~init_dist:
          [ ("p53", Smc.Sampler.Uniform (0.02, 0.08)); ("mdm2", Smc.Sampler.Uniform (0.02, 0.08)) ]
        ~param_dist:[ ("damage", Smc.Sampler.Uniform (lo, hi)) ]
        ~property:(Smc.Bltl.Finally (30.0, Smc.Bltl.prop "p53 >= 0.3"))
        ~t_end:30.0 ()
    in
    let problems = List.map (fun (label, lo, hi) -> (label, problem lo hi)) regimes in
    fun () ->
      let parts =
        List.map
          (fun (label, pb) ->
            let e = Smc.Runner.estimate ~seed ~eps:0.02 ~alpha:0.05 pb in
            Printf.sprintf "%s:%d/%d" label e.Smc.Estimate.successes e.Smc.Estimate.n)
          problems
      in
      { fingerprint = String.concat " " parts; decided_frac = conclusive }
  in
  { name = "smc-p53"; setup; expected = smc_expected }

let all = [ reach_falsify; therapy_synth; calib_pave; smc_p53 ]
