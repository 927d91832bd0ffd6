(* Tests for Lyapunov-function synthesis via CEGIS over δ-decisions,
   and for the polynomial canonicalizer it depends on. *)

module I = Interval.Ia
module Box = Interval.Box
module T = Expr.Term
module P = Expr.Parse
module Poly = Expr.Poly
module Tpl = Lyapunov.Template
module Cegis = Lyapunov.Cegis

(* ---- Polynomial canonical form ---- *)

let test_poly_roundtrip () =
  let t = P.term "3*x^2*y - 2*x + 7 - y^3" in
  match Poly.of_term t with
  | None -> Alcotest.fail "polynomial expected"
  | Some p ->
      let env = [ ("x", 1.3); ("y", -0.7) ] in
      Alcotest.(check (float 1e-9)) "poly eval = term eval" (T.eval_env env t)
        (Poly.eval env p);
      Alcotest.(check (float 1e-9)) "to_term round trip" (T.eval_env env t)
        (T.eval_env env (Poly.to_term p));
      Alcotest.(check int) "degree" 3 (Poly.degree p)

let test_poly_cancellation () =
  (* Lie derivative of x²+y² along rotation: -2xy + 2xy = 0 *)
  let v = P.term "x^2 + y^2" in
  let field = [ ("x", P.term "-y"); ("y", P.term "x") ] in
  let lie = T.lie_derivative field v in
  let c = Poly.canonicalize lie in
  Alcotest.(check bool) "cancels to zero" true (T.equal c T.zero);
  (* the interval evaluation of the canonicalized term is exact *)
  let box = Box.of_list [ ("x", I.make (-1.0) 1.0); ("y", I.make (-1.0) 1.0) ] in
  Alcotest.(check bool) "tight interval" true
    (I.equal (T.eval_interval box c) I.zero)

let test_poly_non_polynomial () =
  Alcotest.(check bool) "sin is not polynomial" true (Poly.of_term (P.term "sin(x)") = None);
  Alcotest.(check bool) "x/y is not polynomial" true (Poly.of_term (P.term "x/y") = None);
  (* canonicalize leaves non-polynomials intact (value preserved) *)
  let t = P.term "sin(x) + x^2 - x^2" in
  let c = Poly.canonicalize t in
  Alcotest.(check (float 1e-12)) "value preserved" (T.eval_env [ ("x", 0.8) ] t)
    (T.eval_env [ ("x", 0.8) ] c)

let test_poly_arithmetic () =
  let p = Poly.mul (Poly.add (Poly.var "x") (Poly.const 1.0)) (Poly.var "x") in
  Alcotest.(check (float 1e-12)) "x(x+1) at 3" 12.0 (Poly.eval [ ("x", 3.0) ] p);
  let q = Poly.pow (Poly.add (Poly.var "x") (Poly.var "y")) 2 in
  Alcotest.(check (float 1e-12)) "(x+y)^2" 25.0 (Poly.eval [ ("x", 2.0); ("y", 3.0) ] q);
  Alcotest.(check bool) "x - x is zero" true
    (Poly.is_zero (Poly.sub (Poly.var "x") (Poly.var "x")))

(* ---- Templates ---- *)

let test_template_sizes () =
  Alcotest.(check int) "quadratic 2 vars" 3 (Tpl.size (Tpl.quadratic [ "x"; "y" ]));
  Alcotest.(check int) "quadratic 3 vars" 6 (Tpl.size (Tpl.quadratic [ "x"; "y"; "z" ]));
  let t14 = Tpl.create ~min_degree:1 ~max_degree:2 [ "x"; "y" ] in
  (* x, y, x², xy, y² *)
  Alcotest.(check int) "degree 1-2" 5 (Tpl.size t14);
  let even = Tpl.even_quartic [ "x" ] in
  (* x², x⁴ *)
  Alcotest.(check int) "even quartic 1 var" 2 (Tpl.size even)

let test_template_instantiate () =
  let tpl = Tpl.quadratic [ "x"; "y" ] in
  (* coefficient order follows monomial enumeration; check by evaluation *)
  let v = Tpl.instantiate tpl [ 1.0; 0.0; 1.0 ] in
  let a = T.eval_env [ ("x", 2.0); ("y", 3.0) ] v in
  (* whatever the order, with coeffs {1,0,1} on {x², xy, y²} the value is
     one of 4+9, 4+6, 6+9 — pin it down by probing *)
  Alcotest.(check bool) "plausible quadratic value" true
    (List.mem a [ 13.0; 10.0; 15.0 ]);
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Template.instantiate: coefficient count mismatch") (fun () ->
      ignore (Tpl.instantiate tpl [ 1.0 ]))

let test_template_at_point () =
  let tpl = Tpl.quadratic [ "x"; "y" ] in
  let at = Tpl.at_point tpl [ ("x", 2.0); ("y", 3.0) ] in
  (* at_point is linear in the coefficients: evaluating it with coeffs
     must equal evaluating the instantiated polynomial at the point *)
  let coeffs = [ 0.5; -1.0; 2.0 ] in
  let env = List.map2 (fun c v -> (c, v)) tpl.Tpl.coeff_names coeffs in
  let direct = T.eval_env [ ("x", 2.0); ("y", 3.0) ] (Tpl.instantiate tpl coeffs) in
  Alcotest.(check (float 1e-9)) "at_point consistent" direct (T.eval_env env at)

let test_template_validation () =
  Alcotest.check_raises "min degree 0"
    (Invalid_argument "Template: min degree must be >= 1") (fun () ->
      ignore (Tpl.create ~min_degree:0 ~max_degree:2 [ "x" ]))

(* ---- CEGIS ---- *)

let region2 = Biomodels.Classics.unit_box [ "x"; "y" ]

let expect_proved name outcome =
  match outcome with
  | Cegis.Proved c -> c
  | Cegis.No_candidate i -> Alcotest.failf "%s: no candidate at iteration %d" name i
  | Cegis.Budget_exhausted i -> Alcotest.failf "%s: budget exhausted at %d" name i

let test_cegis_damped_rotation () =
  let sys = Biomodels.Classics.damped_rotation in
  let prob = Cegis.problem ~region:region2 ~template:(Tpl.quadratic [ "x"; "y" ]) sys in
  let cert = expect_proved "damped rotation" (Cegis.synthesize prob) in
  Alcotest.(check bool) "validates" true (Cegis.validate prob cert);
  (* V must be positive at sample points and decreasing *)
  let env = [ ("x", 0.5); ("y", -0.3) ] in
  Alcotest.(check bool) "V > 0" true (T.eval_env env cert.Cegis.v > 0.0);
  Alcotest.(check bool) "Vdot <= 0" true (T.eval_env env cert.Cegis.vdot <= 1e-9)

let test_cegis_damped_nonlinear () =
  let sys = Biomodels.Classics.damped_nonlinear in
  let prob = Cegis.problem ~region:region2 ~template:(Tpl.quadratic [ "x"; "y" ]) sys in
  let cert = expect_proved "damped nonlinear" (Cegis.synthesize prob) in
  Alcotest.(check bool) "validates" true (Cegis.validate prob cert)

let test_cegis_proofreading () =
  let sys = Biomodels.Classics.proofreading in
  let region = Biomodels.Classics.unit_box [ "c0"; "c1" ] in
  let prob = Cegis.problem ~region ~template:(Tpl.quadratic [ "c0"; "c1" ]) sys in
  let cert = expect_proved "proofreading" (Cegis.synthesize prob) in
  Alcotest.(check bool) "validates" true (Cegis.validate prob cert)

let test_cegis_unstable_system () =
  (* x' = x is unstable: no quadratic Lyapunov function exists. *)
  let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "x") ] in
  let region = Box.of_list [ ("x", I.make (-1.0) 1.0) ] in
  let prob = Cegis.problem ~region ~template:(Tpl.quadratic [ "x" ]) sys in
  match Cegis.synthesize prob with
  | Cegis.Proved _ -> Alcotest.fail "unstable system proved stable"
  | Cegis.No_candidate _ | Cegis.Budget_exhausted _ -> ()

let test_cegis_rejects_parameterized () =
  let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ] in
  Alcotest.check_raises "parameters must be bound"
    (Invalid_argument "Cegis.problem: bind all parameters first") (fun () ->
      ignore
        (Cegis.problem
           ~region:(Box.of_list [ ("x", I.make (-1.0) 1.0) ])
           ~template:(Tpl.quadratic [ "x" ])
           sys))

let test_cegis_certificate_is_lyapunov () =
  (* independent re-check: on a dense grid of the annulus, V > 0 and
     the strict decrease Vdot < -zeta*|x|^2 that the forall-step
     proves. *)
  let sys = Biomodels.Classics.damped_rotation in
  let prob = Cegis.problem ~region:region2 ~template:(Tpl.quadratic [ "x"; "y" ]) sys in
  let cert = expect_proved "grid check" (Cegis.synthesize prob) in
  let bad = ref 0 in
  for i = -10 to 10 do
    for j = -10 to 10 do
      let x = float_of_int i /. 10.0 and y = float_of_int j /. 10.0 in
      if (x *. x) +. (y *. y) >= 0.01 then begin
        let env = [ ("x", x); ("y", y) ] in
        if T.eval_env env cert.Cegis.v <= 0.0 then incr bad;
        if T.eval_env env cert.Cegis.vdot >= -.prob.Cegis.zeta *. ((x *. x) +. (y *. y))
        then incr bad
      end
    done
  done;
  Alcotest.(check int) "no grid violations" 0 !bad

(* ---- Stability policy layer ---- *)

let test_stability_prove () =
  let r = Core.Stability.prove ~region:region2 Biomodels.Classics.damped_rotation in
  (match r.Core.Stability.certificate with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a certificate");
  Alcotest.(check (option string)) "quadratic template suffices"
    (Some "quadratic form") r.Core.Stability.template_used

let test_stability_erk () =
  let region = Biomodels.Classics.unit_box [ "mek"; "erk"; "erkpp" ] in
  let r = Core.Stability.prove ~region Biomodels.Classics.erk_cascade in
  match r.Core.Stability.certificate with
  | Some cert ->
      Alcotest.(check bool) "validated" true
        (Core.Stability.validate ~region Biomodels.Classics.erk_cascade cert)
  | None -> Alcotest.fail "ERK cascade should be provably stable"

(* ---- A strict decrease ----

   ẋ = A·x on [−1, 1]² with A = −w·wᵀ + ε·u·uᵀ, u the unit vector at
   22.5° and w ⊥ u: the origin attracts along w and repels along u,
   which misses every seed point (the corners and the axis points).
   Along u, V̇ > 0 for any positive definite V, but for small ε it stays
   below a fixed margin: with a ∀-step that refuted only V̇ ≥ 10⁻³, an
   even-quartic V was proved in 3 iterations at ε = 10⁻⁴. *)

let saddle eps =
  let a = Float.pi /. 8.0 in
  let c = Float.cos a and s = Float.sin a in
  let row p q = T.add (T.mul (T.const p) (T.var "x")) (T.mul (T.const q) (T.var "y")) in
  Ode.System.create ~vars:[ "x"; "y" ] ~params:[]
    ~rhs:
      [ ("x", row ((eps *. c *. c) -. (s *. s)) ((1.0 +. eps) *. s *. c));
        ("y", row ((1.0 +. eps) *. s *. c) ((eps *. s *. s) -. (c *. c))) ]

let test_saddle_not_proved () =
  let prob =
    Cegis.problem ~region:region2 ~template:(Tpl.even_quartic [ "x"; "y" ]) (saddle 1e-4)
  in
  let config = { Cegis.default_config with max_iterations = 3 } in
  match Cegis.synthesize ~config prob with
  | Cegis.Proved c ->
      Alcotest.failf "unstable saddle proved stable in %d iterations: V = %a"
        c.Cegis.iterations T.pp c.Cegis.v
  | Cegis.No_candidate _ | Cegis.Budget_exhausted _ -> ()

let test_saddle_validate_rejects () =
  let sys = saddle 1e-4 in
  let v = P.term "x^2 + y^2" in
  let cert =
    { Cegis.v; vdot = Poly.canonicalize (T.lie_derivative (Ode.System.rhs sys) v);
      coefficients = []; iterations = 0; counterexamples = []; zeta = 1e-3;
      inner_radius = 0.1 }
  in
  Alcotest.(check bool) "x² + y² is no strict Lyapunov function" false
    (Core.Stability.validate ~region:region2 sys cert)

(* A certificate is re-checked at the margin it was proved under: with
   ζ = 10⁻⁵, ẋ = −0.0004·x has V = x² with V̇ = −0.0008·x² < −ζ·x² on
   [−1, 1], but V̇ ≥ −10⁻³·x², so a re-check at the default ζ would
   reject the valid certificate. *)
let test_validate_at_proved_margin () =
  let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-0.0004*x") ] in
  let region = Box.of_list [ ("x", I.make (-1.0) 1.0) ] in
  let r = Core.Stability.prove ~mu:1e-4 ~zeta:1e-5 ~region sys in
  match r.Core.Stability.certificate with
  | None -> Alcotest.fail "expected a certificate at zeta = 1e-5"
  | Some cert ->
      Alcotest.(check (pair (float 0.0) int)) "proved at zeta = 1e-5 in one iteration"
        (1e-5, 1) (cert.Cegis.zeta, cert.Cegis.iterations);
      Alcotest.(check bool) "validates at its own margin" true
        (Core.Stability.validate ~region sys cert)

let () =
  Alcotest.run "lyapunov"
    [
      ( "poly",
        [
          Alcotest.test_case "roundtrip" `Quick test_poly_roundtrip;
          Alcotest.test_case "cancellation" `Quick test_poly_cancellation;
          Alcotest.test_case "non-polynomial" `Quick test_poly_non_polynomial;
          Alcotest.test_case "arithmetic" `Quick test_poly_arithmetic;
        ] );
      ( "template",
        [
          Alcotest.test_case "sizes" `Quick test_template_sizes;
          Alcotest.test_case "instantiate" `Quick test_template_instantiate;
          Alcotest.test_case "at_point" `Quick test_template_at_point;
          Alcotest.test_case "validation" `Quick test_template_validation;
        ] );
      ( "cegis",
        [
          Alcotest.test_case "damped rotation" `Quick test_cegis_damped_rotation;
          Alcotest.test_case "damped nonlinear" `Quick test_cegis_damped_nonlinear;
          Alcotest.test_case "proofreading chain" `Quick test_cegis_proofreading;
          Alcotest.test_case "unstable rejected" `Quick test_cegis_unstable_system;
          Alcotest.test_case "parameterized rejected" `Quick test_cegis_rejects_parameterized;
          Alcotest.test_case "grid re-check" `Quick test_cegis_certificate_is_lyapunov;
        ] );
      ( "stability",
        [
          Alcotest.test_case "prove damped rotation" `Quick test_stability_prove;
          Alcotest.test_case "prove ERK cascade" `Slow test_stability_erk;
        ] );
      ( "strict decrease",
        [
          Alcotest.test_case "saddle not proved" `Quick test_saddle_not_proved;
          Alcotest.test_case "validate at the proved margin" `Quick
            test_validate_at_proved_margin;
          Alcotest.test_case "validate rejects the saddle" `Quick
            test_saddle_validate_rejects;
        ] );
    ]
