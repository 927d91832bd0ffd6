(* Robustness analysis (Sec. IV-C, time-bounded part).

   "Cardiac cells filter out insignificant stimulations": a system is
   robust to an input range when the response goal is *unreachable* from
   every initial state in the range — an `unsat` answer is a proof of
   robustness (the paper's key observation) when it rests on validated
   tubes only; one that used an ensemble bracket is a numerical claim,
   and [Robust] carries which of the two it is.  Conversely a certified
   δ-sat witness shows the range can trigger the response.

   The input range is modelled as the initial box of the automaton; the
   sweep classifies a ladder of ranges and locates the excitability
   threshold as the verdict crossover. *)

type verdict =
  | Robust of Reach.Checker.evidence
      (** response unreachable from the whole range: a proof or a
          bracketed claim *)
  | Excitable of (string * float) list  (** certified triggering witness *)
  | Borderline of string  (** uncertified δ-sat or solver budget exhausted *)

let pp_verdict ppf = function
  | Robust e -> Fmt.pf ppf "robust (unsat, %a)" Reach.Checker.pp_evidence e
  | Excitable w ->
      Fmt.pf ppf "excitable (witness %a)"
        Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string float))
        w
  | Borderline why -> Fmt.pf ppf "borderline (%s)" why

(* Classify one input range.  [make] builds the automaton whose initial
   box encodes the range. *)
let classify ?config ~goal ~k ~time_bound make range =
  let automaton = make range in
  let pb = Reach.Encoding.create ~goal ~k ~time_bound automaton in
  match Reach.Checker.check ?config pb with
  | Reach.Checker.Unsat { rigorous } ->
      Robust (if rigorous then Reach.Checker.Proof else Reach.Checker.Bracketed)
  | Reach.Checker.Delta_sat w when w.Reach.Checker.certified ->
      Excitable (w.Reach.Checker.params @ w.Reach.Checker.init)
  | Reach.Checker.Delta_sat _ -> Borderline "uncertified delta-sat"
  | Reach.Checker.Unknown why -> Borderline why

(* Sweep a list of ranges and report (range, verdict) pairs; the
   excitability threshold lies between the last Robust and the first
   Excitable range. *)
let sweep ?config ~goal ~k ~time_bound make ranges =
  List.map (fun r -> (r, classify ?config ~goal ~k ~time_bound make r)) ranges

(* Locate the threshold by bisection on a scalar amplitude, assuming
   monotonicity (higher amplitude ⇒ more excitable); every probe's
   verdict is kept as its step's evidence. *)
let threshold ?config ~goal ~k ~time_bound ~lo ~hi ?(tol = 1e-2) make =
  let probes = ref [] in
  let is_excitable a =
    let v = classify ?config ~goal ~k ~time_bound make a in
    probes := (a, v) :: !probes;
    match v with Excitable _ -> true | Robust _ | Borderline _ -> false
  in
  let rec bisect lo hi =
    if not (hi -. lo > tol) then hi
    else
      let mid = 0.5 *. (lo +. hi) in
      if is_excitable mid then bisect lo mid else bisect mid hi
  in
  let t =
    if is_excitable lo then Some lo
    else if is_excitable hi then Some (bisect lo hi) else None
  in
  (t, List.rev !probes)
