(* CEGIS synthesis of Lyapunov functions with δ-decisions (Sec. IV-C).

   The ∃∀ problem — find coefficients c such that for all x in the region
   (minus a small ball around the equilibrium) V_c(x) > 0 and V_c
   strictly decreases — is decomposed counterexample-guided:

   ∃-step  Coefficients must satisfy, at every counterexample point x_j,
           V_c(x_j) ≥ μ·|x_j|²  and  V̇_c(x_j) ≤ -μ·|x_j|².
           Both are *linear* constraints in c, decided by the ICP solver
           over the coefficient box.

   ∀-step  With c fixed, search the annulus r² ≤ |x|² inside the region
           for a violation
           V(x) ≤ 0  or  V̇(x) + ζ·|x|² ≥ 0   (ζ > 0 is the decrease
           margin, which scales like the ∃-step's μ·|x|²).
           `unsat` for both ⇒ certificate.  A δ-sat witness becomes a new
           counterexample.

   So a [Proved] certificate means V > 0 and V̇ < −ζ·|x|² on the
   annulus.  No sublevel set of V is checked to lie inside the region,
   so it is not a proved region of attraction.

   V, V̇ and V̇ + ζ·|x|² are canonicalized as polynomials when possible,
   so symbolically cancelling Lie derivatives are proved decreasing
   without fighting interval dependency. *)

module I = Interval.Ia
module Box = Interval.Box
module T = Expr.Term
module F = Expr.Formula

let src = Logs.Src.create "lyapunov.cegis" ~doc:"Lyapunov CEGIS"
module Log = (val Logs.src_log src : Logs.LOG)

type problem = {
  sys : Ode.System.t;  (** autonomous, parameter-free system *)
  region : Box.t;  (** box over the state variables *)
  inner_radius : float;  (** points with |x|² < r² are exempt *)
  template : Template.t;
  mu : float;  (** positivity margin used in the ∃-step *)
  zeta : float;  (** decrease margin: the ∀-step proves V̇ < −ζ·|x|² *)
}

let problem ?(inner_radius = 0.1) ?(mu = 1e-2) ?(zeta = 1e-3) ~region ~template sys =
  if Ode.System.params sys <> [] then
    invalid_arg "Cegis.problem: bind all parameters first";
  List.iter
    (fun v ->
      if not (Box.mem_var v region) then
        invalid_arg (Printf.sprintf "Cegis.problem: region misses variable %S" v))
    (Ode.System.vars sys);
  if inner_radius <= 0.0 then invalid_arg "Cegis.problem: inner radius must be positive";
  { sys; region; inner_radius; template; mu; zeta }

type certificate = {
  v : T.t;  (** the synthesized Lyapunov function *)
  vdot : T.t;  (** its Lie derivative along the system *)
  coefficients : (string * float) list;
  iterations : int;
  counterexamples : (string * float) list list;
  zeta : float;  (** the decrease margin it was proved under *)
  inner_radius : float;  (** the exempt ball's radius it was proved under *)
}

type outcome =
  | Proved of certificate
  | No_candidate of int
      (** the ∃-step became unsat: template cannot fit the counterexamples *)
  | Budget_exhausted of int

let pp_outcome ppf = function
  | Proved c ->
      Fmt.pf ppf "proved in %d iteration(s): V = %a" c.iterations T.pp c.v
  | No_candidate i -> Fmt.pf ppf "no candidate after %d iteration(s)" i
  | Budget_exhausted i -> Fmt.pf ppf "budget exhausted after %d iteration(s)" i

(* |x|² as a term over the state variables. *)
let norm2_term vars =
  List.fold_left (fun acc v -> T.add acc (T.pow (T.var v) 2)) T.zero vars

let norm2_value vars env =
  List.fold_left
    (fun acc v ->
      let x = List.assoc v env in
      acc +. (x *. x))
    0.0 vars

(* Initial counterexample seeds: region corners (capped) and axis points
   so the ∃-step starts from informative constraints. *)
let seed_points prob =
  let vars = Ode.System.vars prob.sys in
  let bindings = List.map (fun v -> (v, Box.find v prob.region)) vars in
  let corners =
    List.fold_left
      (fun acc (v, itv) ->
        if List.length acc > 16 then List.map (fun pt -> (v, I.mid itv) :: pt) acc
        else
          List.concat_map
            (fun pt -> [ (v, I.lo itv) :: pt; (v, I.hi itv) :: pt ])
            acc)
      [ [] ] bindings
  in
  let axis =
    List.concat_map
      (fun v ->
        [ List.map (fun (u, itv) -> (u, if u = v then I.hi itv else 0.0)) bindings;
          List.map (fun (u, itv) -> (u, if u = v then I.lo itv else 0.0)) bindings ])
      vars
  in
  List.filter
    (fun pt -> norm2_value vars pt >= prob.inner_radius *. prob.inner_radius)
    (corners @ axis)

type config = {
  coeff_bound : float;  (** coefficients are searched in [-bound, bound] *)
  max_iterations : int;
  exists_solver : Icp.Solver.config;
  forall_solver : Icp.Solver.config;
}

let default_config =
  {
    coeff_bound = 2.0;
    max_iterations = 30;
    exists_solver = { Icp.Solver.default_config with delta = 1e-4; epsilon = 1e-3 };
    (* δ below ζ·r² = 10⁻⁵ at the inner radius: at δ = 10⁻⁴ the cubic
       system's δ-weakened decrease condition has spurious witnesses near
       the inner radius, where its V̇ + ζ·|x|² is only about −10⁻⁴ *)
    forall_solver = { Icp.Solver.default_config with delta = 1e-6; epsilon = 1e-3 };
  }

let synthesize ?(config = default_config) prob =
  let vars = Ode.System.vars prob.sys in
  let field = Ode.System.rhs prob.sys in
  let v_template = Template.term prob.template in
  let vdot_template = T.lie_derivative field v_template in
  let coeff_box =
    Box.of_list
      (List.map
         (fun c -> (c, I.make (-.config.coeff_bound) config.coeff_bound))
         prob.template.Template.coeff_names)
  in
  let r0sq = prob.inner_radius *. prob.inner_radius in
  (* ∃-step: constraints at the counterexample points, linear in c. *)
  let exists_step cexs =
    let constraints =
      List.concat_map
        (fun env ->
          let n2 = norm2_value vars env in
          let bindings = List.map (fun (x, value) -> (x, T.const value)) env in
          let v_at = Expr.Poly.canonicalize (T.subst bindings v_template) in
          let vdot_at = Expr.Poly.canonicalize (T.subst bindings vdot_template) in
          [ F.ge v_at (T.const (prob.mu *. n2));
            F.le vdot_at (T.const (-.prob.mu *. n2)) ])
        cexs
    in
    match Icp.Solver.decide ~config:config.exists_solver (F.and_ constraints) coeff_box with
    | Icp.Solver.Delta_sat w -> Some w.Icp.Solver.point
    | Icp.Solver.Unsat | Icp.Solver.Unknown _ -> None
  in
  (* ∀-step: hunt for a violation of the candidate in the annulus. *)
  let forall_step coeffs =
    let bindings = List.map (fun (c, v) -> (c, T.const v)) coeffs in
    let v = Expr.Poly.canonicalize (T.subst bindings v_template) in
    let vdot = Expr.Poly.canonicalize (T.subst bindings vdot_template) in
    let margin = T.mul (T.const prob.zeta) (norm2_term vars) in
    let annulus = F.ge (norm2_term vars) (T.const r0sq) in
    let violation_pos = F.and_ [ annulus; F.le v T.zero ] in
    let violation_dec =
      F.and_ [ annulus; F.ge (Expr.Poly.canonicalize (T.add vdot margin)) T.zero ]
    in
    let check violation =
      match Icp.Solver.decide ~config:config.forall_solver violation prob.region with
      | Icp.Solver.Unsat -> `Ok
      | Icp.Solver.Delta_sat w -> `Cex w.Icp.Solver.point
      | Icp.Solver.Unknown why -> `Unknown why
    in
    match check violation_pos with
    | `Cex pt -> `Cex pt
    | `Unknown why -> `Unknown why
    | `Ok -> (
        match check violation_dec with
        | `Cex pt -> `Cex pt
        | `Unknown why -> `Unknown why
        | `Ok -> `Proved (v, vdot))
  in
  let rec loop cexs iter =
    if iter > config.max_iterations then Budget_exhausted (iter - 1)
    else
      match exists_step cexs with
      | None -> No_candidate iter
      | Some coeffs -> (
          Log.debug (fun m ->
              m "iter %d: candidate %a" iter
                Fmt.(list ~sep:comma (pair ~sep:(any "=") string float))
                coeffs);
          match forall_step coeffs with
          | `Proved (v, vdot) ->
              Proved
                { v; vdot; coefficients = coeffs; iterations = iter;
                  counterexamples = cexs; zeta = prob.zeta;
                  inner_radius = prob.inner_radius }
          | `Cex pt ->
              Log.debug (fun m ->
                  m "iter %d: counterexample %a" iter
                    Fmt.(list ~sep:comma (pair ~sep:(any "=") string float))
                    pt);
              (* keep only state variables of the witness *)
              let pt = List.filter (fun (x, _) -> List.mem x vars) pt in
              loop (pt :: cexs) (iter + 1)
          | `Unknown _ -> Budget_exhausted iter)
  in
  loop (seed_points prob) 1

(* Independent validation of a certificate by dense random sampling of
   the annulus: V > 0 and the strict decrease V̇ < −ζ·|x|² that the
   ∀-step proves — belt-and-braces re-checking used by the test-suite
   and the benches.  The margin and the annulus are the certificate's:
   the ones it was proved under. *)
let validate ?(samples = 1000) ?(seed = 7) prob cert =
  let vars = Ode.System.vars prob.sys in
  let rng = Random.State.make [| seed |] in
  let r0sq = cert.inner_radius *. cert.inner_radius in
  let ok = ref true in
  let tries = ref 0 in
  while !tries < samples do
    let env =
      List.map
        (fun v ->
          let itv = Box.find v prob.region in
          (v, I.lo itv +. Random.State.float rng (Float.max 1e-12 (I.width itv))))
        vars
    in
    let n2 = norm2_value vars env in
    if n2 >= r0sq then begin
      incr tries;
      let v = T.eval_env env cert.v in
      let vdot = T.eval_env env cert.vdot in
      if v <= 0.0 || vdot >= -.cert.zeta *. n2 then ok := false
    end
    else incr tries
  done;
  !ok
