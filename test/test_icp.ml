(* Tests for the ICP δ-decision solver. *)

module I = Interval.Ia
module Box = Interval.Box
module T = Expr.Term
module F = Expr.Formula
module P = Expr.Parse
module C = Icp.Contractor
module S = Icp.Solver

let box l = Box.of_list (List.map (fun (x, lo, hi) -> (x, I.make lo hi)) l)

let cfg = { S.default_config with max_boxes = 100_000 }

(* ---- Contractor unit tests ---- *)

let test_revise_linear () =
  (* x + y = 10 with x ∈ [0,4], y ∈ [0,4] is infeasible. *)
  let b = box [ ("x", 0.0, 4.0); ("y", 0.0, 4.0) ] in
  let r = C.revise ~term:(P.term "x + y") ~target:(I.of_float 10.0) b in
  Alcotest.(check bool) "infeasible sum" true (r = None);
  (* x + y = 6 contracts x to [2,4]. *)
  let r2 = C.revise ~term:(P.term "x + y") ~target:(I.of_float 6.0) b in
  match r2 with
  | None -> Alcotest.fail "feasible constraint reported infeasible"
  | Some b' ->
      let x = Box.find "x" b' in
      Alcotest.(check bool) "x lo raised" true (I.lo x >= 1.99);
      Alcotest.(check bool) "x hi kept" true (I.hi x <= 4.01)

let test_revise_square () =
  let b = box [ ("x", 0.0, 10.0) ] in
  match C.revise ~term:(P.term "x^2") ~target:(I.make 4.0 9.0) b with
  | None -> Alcotest.fail "x^2 in [4,9] feasible"
  | Some b' ->
      let x = Box.find "x" b' in
      Alcotest.(check bool) "lo ~2" true (I.lo x >= 1.99 && I.lo x <= 2.01);
      Alcotest.(check bool) "hi ~3" true (I.hi x >= 2.99 && I.hi x <= 3.01)

let test_revise_square_negative_branch () =
  let b = box [ ("x", -10.0, 0.0) ] in
  match C.revise ~term:(P.term "x^2") ~target:(I.make 4.0 9.0) b with
  | None -> Alcotest.fail "negative branch feasible"
  | Some b' ->
      let x = Box.find "x" b' in
      Alcotest.(check bool) "negative branch [-3,-2]" true
        (I.lo x >= -3.01 && I.hi x <= -1.99)

let test_revise_exp () =
  let b = box [ ("x", -10.0, 10.0) ] in
  match C.revise ~term:(P.term "exp(x)") ~target:(I.make 1.0 (Float.exp 2.0)) b with
  | None -> Alcotest.fail "exp feasible"
  | Some b' ->
      let x = Box.find "x" b' in
      Alcotest.(check bool) "x in ~[0,2]" true (I.lo x >= -0.01 && I.hi x <= 2.01)

let test_revise_multiple_occurrences () =
  (* x * x - x = 0 on [0.5, 10]: solution x = 1; contraction must keep 1. *)
  let b = box [ ("x", 0.5, 10.0) ] in
  match C.revise ~term:(P.term "x*x - x") ~target:(I.of_float 0.0) b with
  | None -> Alcotest.fail "root exists"
  | Some b' -> Alcotest.(check bool) "keeps x=1" true (I.mem 1.0 (Box.find "x" b'))

let test_fixpoint () =
  (* x = y, x + y = 4, both in [0, 10]: fixpoint should close in on x=y=2. *)
  let cs =
    [ { C.term = P.term "x - y"; target = I.of_float 0.0 };
      { C.term = P.term "x + y"; target = I.of_float 4.0 } ]
  in
  match C.fixpoint ~max_rounds:50 cs (box [ ("x", 0.0, 10.0); ("y", 0.0, 10.0) ]) with
  | None -> Alcotest.fail "system feasible"
  | Some b ->
      (* HC4's fixpoint for this dependent pair is x ∈ [0,4] (interval
         arithmetic cannot see through the x/y correlation further). *)
      Alcotest.(check bool) "x narrowed" true (I.mem 2.0 (Box.find "x" b));
      Alcotest.(check bool) "x within [0,4]" true
        (I.subset (Box.find "x" b) (I.make (-0.01) 4.01))

let test_fixpoint_infeasible () =
  let cs =
    [ { C.term = P.term "x"; target = I.make 5.0 10.0 };
      { C.term = P.term "x"; target = I.make 0.0 1.0 } ]
  in
  Alcotest.(check bool) "contradictory" true
    (C.fixpoint cs (box [ ("x", -100.0, 100.0) ]) = None)

(* ---- Solver unit tests ---- *)

let expect_delta_sat name r =
  match r with
  | S.Delta_sat w -> w
  | S.Unsat -> Alcotest.failf "%s: expected delta-sat, got unsat" name
  | S.Unknown why -> Alcotest.failf "%s: expected delta-sat, got unknown (%s)" name why

let expect_unsat name r =
  match r with
  | S.Unsat -> ()
  | S.Delta_sat _ -> Alcotest.failf "%s: expected unsat, got delta-sat" name
  | S.Unknown why -> Alcotest.failf "%s: expected unsat, got unknown (%s)" name why

let test_decide_sqrt2 () =
  let f = P.formula "x^2 = 2" in
  let w = expect_delta_sat "sqrt2" (S.decide ~config:cfg f (box [ ("x", 0.0, 2.0) ])) in
  let x = List.assoc "x" w.point in
  Alcotest.(check bool) "witness near sqrt 2" true (Float.abs (x -. Float.sqrt 2.0) < 0.05)

let test_decide_unsat_interval () =
  let f = P.formula "x > 1 and x < 0" in
  expect_unsat "contradiction" (S.decide ~config:cfg f (box [ ("x", -10.0, 10.0) ]))

let test_decide_unsat_geometry () =
  (* circle of radius 1 cannot meet the line x + y = 3 *)
  let f = P.formula "x^2 + y^2 <= 1 and x + y >= 3" in
  expect_unsat "circle/line"
    (S.decide ~config:cfg f (box [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ]))

let test_decide_sin () =
  let f = P.formula "sin(x) = 1/2" in
  let w =
    expect_delta_sat "sin" (S.decide ~config:cfg f (box [ ("x", 0.0, 1.5707) ]))
  in
  let x = List.assoc "x" w.point in
  Alcotest.(check bool) "x near pi/6" true (Float.abs (x -. (Float.pi /. 6.0)) < 0.05)

let test_decide_disjunction () =
  let f = P.formula "(x <= -5 and x >= -6) or x^2 = 9" in
  let w =
    expect_delta_sat "disjunction" (S.decide ~config:cfg f (box [ ("x", 0.0, 10.0) ]))
  in
  let x = List.assoc "x" w.point in
  (* only the second branch intersects the box *)
  Alcotest.(check bool) "witness near 3" true (Float.abs (x -. 3.0) < 0.05)

let test_decide_multivariate () =
  (* Rosenbrock-style equation system has a solution at (1, 1). *)
  let f = P.formula "(1 - x)^2 + 100 * (y - x^2)^2 <= 0.0001" in
  let w =
    expect_delta_sat "rosenbrock"
      (S.decide ~config:{ cfg with epsilon = 1e-3 } f
         (box [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ]))
  in
  Alcotest.(check bool) "x near 1" true (Float.abs (List.assoc "x" w.point -. 1.0) < 0.1);
  Alcotest.(check bool) "y near 1" true (Float.abs (List.assoc "y" w.point -. 1.0) < 0.1)

let test_decide_delta_effect () =
  (* x >= 1 on [0, 0.999]: unsat for tiny δ, δ-sat for δ > 0.001 with the
     one-sided semantics of Theorem 1. *)
  let f = P.formula "x >= 1" in
  let b = box [ ("x", 0.0, 0.999) ] in
  expect_unsat "tight delta" (S.decide ~config:{ cfg with delta = 1e-6 } f b);
  let _ = expect_delta_sat "loose delta" (S.decide ~config:{ cfg with delta = 0.01 } f b) in
  ()

let test_decide_trivial () =
  let b = box [ ("x", 0.0, 1.0) ] in
  let _ = expect_delta_sat "true" (S.decide ~config:cfg F.tt b) in
  expect_unsat "false" (S.decide ~config:cfg F.ff b)

let test_decide_budget () =
  (* A hard feasibility problem with an absurdly small budget reports
     Unknown rather than guessing. *)
  let f = P.formula "sin(10*x) * cos(10*y) = 0.734001" in
  let r =
    S.decide
      ~config:{ cfg with max_boxes = 3; epsilon = 1e-12; delta = 1e-9 }
      f
      (box [ ("x", 0.0, 10.0); ("y", 0.0, 10.0) ])
  in
  match r with
  | S.Unknown _ -> ()
  | S.Unsat -> Alcotest.fail "budget 3 cannot prove unsat"
  | S.Delta_sat w ->
      (* If it did find a witness that fast it must be certified. *)
      Alcotest.(check bool) "certified" true w.certified

let test_stats () =
  let f = P.formula "x^2 + y^2 = 1" in
  let _, stats =
    S.decide_with_stats ~config:cfg f (box [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ])
  in
  Alcotest.(check bool) "processed boxes" true (stats.S.boxes_processed > 0)

let test_ablation_no_contraction () =
  (* Bisection-only search must agree with contraction-enabled search. *)
  let f = P.formula "x^2 = 2" in
  let b = box [ ("x", 0.0, 2.0) ] in
  let w1 = expect_delta_sat "with" (S.decide ~config:cfg f b) in
  let w2 =
    expect_delta_sat "without"
      (S.decide ~config:{ cfg with use_contraction = false } f b)
  in
  Alcotest.(check bool) "same root" true
    (Float.abs (List.assoc "x" w1.point -. List.assoc "x" w2.point) < 0.1)

(* ---- Paving tests ---- *)

let test_pave_circle () =
  let f = P.formula "x^2 + y^2 <= 1" in
  let b = box [ ("x", -1.0, 1.0); ("y", -1.0, 1.0) ] in
  let p = S.pave ~config:{ cfg with epsilon = 0.05 } f b in
  Alcotest.(check bool) "has sat boxes" true (p.S.sat <> []);
  Alcotest.(check bool) "has unsat boxes" true (p.S.unsat <> []);
  (* All sat boxes satisfy the formula at their midpoint; unsat fail. *)
  List.iter
    (fun bx ->
      Alcotest.(check bool) "sat box midpoint" true (F.holds_env (Box.mid_env bx) f))
    p.S.sat;
  List.iter
    (fun bx ->
      Alcotest.(check bool) "unsat box midpoint" false (F.holds_env (Box.mid_env bx) f))
    p.S.unsat;
  let vs, vu, vund = S.paving_volumes ~over:[ "x"; "y" ] p in
  let total = vs +. vu +. vund in
  Alcotest.(check bool) "volumes sum to box volume" true (Float.abs (total -. 4.0) < 0.05);
  (* sat volume under-approximates the disc area pi, and sat+undecided
     over-approximates it. *)
  Alcotest.(check bool) "sat <= pi" true (vs <= Float.pi +. 0.05);
  Alcotest.(check bool) "sat+und >= pi" true (vs +. vund >= Float.pi -. 0.05)

let test_pave_all_sat () =
  let f = P.formula "x >= -10" in
  let p = S.pave ~config:cfg f (box [ ("x", 0.0, 1.0) ]) in
  Alcotest.(check int) "one sat box" 1 (List.length p.S.sat);
  Alcotest.(check int) "no unsat" 0 (List.length p.S.unsat)

(* A disjunction is refuted on a box only when every DNF branch is: a
   contractor over the conjunction of all its atoms would call the whole
   of [-1, 2] unsat for x <= 0 or x >= 1. *)
let test_pave_disjunction () =
  let f = P.formula "x <= 0 or x >= 1" in
  let b = box [ ("x", -1.0, 2.0) ] in
  List.iter
    (fun l ->
      Layers.with_layers l (fun () ->
          let p = S.pave ~config:{ cfg with epsilon = 0.01 } f b in
          let label what = Printf.sprintf "%s (%s)" what (Layers.name l) in
          List.iter
            (fun leaf ->
              let x = Box.find "x" leaf in
              Alcotest.(check bool) (label "unsat leaf inside (0, 1)") true
                (I.lo x > 0.0 && I.hi x < 1.0))
            p.S.unsat;
          List.iter
            (fun leaf ->
              let x = Box.find "x" leaf in
              Alcotest.(check bool) (label "sat leaf outside (0, 1)") true
                (I.hi x <= 0.0 || I.lo x >= 1.0))
            p.S.sat;
          let sv, uv, dv = S.paving_volumes ~over:[ "x" ] p in
          Alcotest.(check bool) (label "sat volume near 2") true (sv > 1.9);
          Alcotest.(check bool) (label "unsat volume near 1") true
            (uv > 0.9 && uv < 1.0);
          Alcotest.(check bool) (label "partition") true
            (Float.abs (sv +. uv +. dv -. 3.0) < 1e-9)))
    Layers.settings;
  match S.decide ~config:cfg f b with
  | S.Delta_sat _ -> ()
  | r -> Alcotest.failf "decide must agree: %s" (Fmt.str "%a" S.pp_result r)

(* Sampled points of random pavings: a point of an unsat leaf must not
   satisfy the formula, a point of a sat leaf must not falsify it.
   Judged by interval evaluation on the point, which encloses the exact
   value, so rounding cannot flip a verdict.  The formulas include
   disjunctions. *)
let test_pave_leaves_sound () =
  let st = Random.State.make [| 0x9a7e |] in
  let config = { S.default_config with epsilon = 0.25; max_boxes = 2_000 } in
  let cases = List.init 150 (fun _ -> let f = Gen.formula st in (f, Gen.box st)) in
  let sample leaf =
    let pick i u = Float.min (I.hi i) (I.lo i +. (u *. (I.hi i -. I.lo i))) in
    List.map
      (fun u ->
        Box.map (fun i -> I.of_float (pick i (u ()))) leaf)
      [ (fun () -> 0.0); (fun () -> 0.5); (fun () -> 1.0);
        (fun () -> Random.State.float st 1.0);
        (fun () -> Random.State.float st 1.0) ]
  in
  List.iter
    (fun l ->
      Layers.with_layers l (fun () ->
          List.iteri
            (fun case (f, b) ->
              let p = S.pave ~config f b in
              let check cls wrong leaves =
                List.iter
                  (fun leaf ->
                    List.iter
                      (fun pt ->
                        if F.eval_cert pt f = wrong then
                          Alcotest.failf "%s case %d: %s leaf %s has point %s; %s"
                            (Layers.name l) case cls (Box.to_string leaf)
                            (Box.to_string pt) (F.to_string f))
                      (sample leaf))
                  leaves
              in
              check "unsat" F.Certain p.S.unsat;
              check "sat" F.Impossible p.S.sat)
            cases))
    Layers.settings

(* ---- Agreement across the layer switches ----

   The Newton and Taylor-model switches select the search strategy:
   which contraction layers run per box and, with Newton on, smear
   branching instead of widest-first.  Every setting is a sound
   δ-decision procedure, so verdict kinds on robust instances and the
   certain volumes of a paving must agree across all four. *)

let verdict_kind = function
  | S.Unsat -> "unsat"
  | S.Delta_sat _ -> "delta-sat"
  | S.Unknown _ -> "unknown"

(* Instances with robust margins, so the δ-gray zone is never hit. *)
let agreement_instances =
  [ ("sqrt2", "x^2 = 2", [ ("x", 0.0, 2.0) ]);
    ("sum-unsat", "x + y >= 3.5", [ ("x", 0.0, 1.0); ("y", 0.0, 1.0) ]);
    ("prod-unsat", "x*y >= 2", [ ("x", 0.0, 1.0); ("y", 0.0, 1.0) ]);
    ("sin", "sin(x) = 0.5", [ ("x", 0.0, 2.0) ]);
    ( "cubic-pair",
      "x^3 - 2*x^2 + 1.25*x = 0.25 and y^3 - 2*y^2 + 1.25*y = 0.25 and (x - \
       y)^2 >= 0.3",
      [ ("x", 0.0, 2.0); ("y", 0.0, 2.0) ] );
    ("or-sat", "x + y >= 3.5 or x^2 + y^2 = 0.25",
      [ ("x", 0.0, 1.0); ("y", 0.0, 1.0) ]);
    ("or-unsat", "x + y >= 3.5 or x*y >= 2",
      [ ("x", 0.0, 1.0); ("y", 0.0, 1.0) ]) ]

(* Seeded robust instances on top of the pinned ones: circles of radius
   c < 1 (δ-sat) and thresholds above the attainable maximum (unsat
   with margin ≥ 0.1). *)
let agreement_random =
  let st = Random.State.make [| 0x5eed |] in
  List.concat_map
    (fun i ->
      let c = 0.1 +. Random.State.float st 0.8 in
      [ ( Printf.sprintf "rand-sat-%d" i,
          Printf.sprintf "x^2 + y^2 = %.3f" (c *. c),
          [ ("x", 0.0, 1.0); ("y", 0.0, 1.0) ] );
        ( Printf.sprintf "rand-unsat-%d" i,
          Printf.sprintf "x^2 + y^2 >= %.3f" (2.1 +. Random.State.float st 0.5),
          [ ("x", 0.0, 1.0); ("y", 0.0, 1.0) ] ) ])
    [ 0; 1; 2 ]

(* A disjunction is decided by the DNF branch portfolio; its verdict
   must be what deciding each branch on its own implies: δ-sat when
   some branch is, unsat when every branch is. *)
let branchwise_kind config f b =
  let kinds =
    List.map
      (fun atoms ->
        verdict_kind
          (S.decide ~config (F.and_ (List.map (fun a -> F.Atom a) atoms)) b))
      (F.dnf f)
  in
  if List.mem "delta-sat" kinds then "delta-sat"
  else if List.for_all (String.equal "unsat") kinds then "unsat"
  else "unknown"

let test_decide_agreement () =
  List.iter
    (fun (name, fml, dom) ->
      let f = P.formula fml in
      let b = box dom in
      List.iter
        (fun jobs ->
          let config = { S.default_config with jobs } in
          let kinds =
            List.map
              (fun l ->
                Layers.with_layers l (fun () -> verdict_kind (S.decide ~config f b)))
              Layers.settings
          in
          let reference = List.hd kinds in
          Alcotest.(check bool)
            (Printf.sprintf "%s: conclusive (jobs=%d)" name jobs)
            true (reference <> "unknown");
          List.iter2
            (fun l k ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s agrees (jobs=%d)" name (Layers.name l)
                   jobs)
                reference k)
            Layers.settings kinds;
          if List.length (F.dnf f) > 1 then
            List.iter
              (fun l ->
                Alcotest.(check string)
                  (Printf.sprintf "%s: portfolio = branchwise, %s (jobs=%d)" name
                     (Layers.name l) jobs)
                  reference
                  (Layers.with_layers l (fun () -> branchwise_kind config f b)))
              Layers.settings)
        [ 1; 2 ])
    (agreement_instances @ agreement_random)

let test_pave_agreement () =
  let f = P.formula "x^2 + y^2 <= 1" in
  let b = box [ ("x", 0.0, 1.0); ("y", 0.0, 1.0) ] in
  let quarter_disc = Float.pi /. 4.0 in
  List.iter
    (fun jobs ->
      let config = { S.default_config with epsilon = 0.05; jobs } in
      let sat_volumes =
        List.map
          (fun l ->
            let p = Layers.with_layers l (fun () -> S.pave ~config f b) in
            let sv, uv, dv = S.paving_volumes ~over:[ "x"; "y" ] p in
            let label what =
              Printf.sprintf "%s %s (jobs=%d)" (Layers.name l) what jobs
            in
            Alcotest.(check bool)
              (label "paving partitions the box") true
              (Float.abs (sv +. uv +. dv -. 1.0) < 1e-9);
            (* the sat leaves are a proof: inside the quarter disc; the
               unsat leaves too: outside it *)
            Alcotest.(check bool)
              (label "sat inside the disc") true (sv <= quarter_disc +. 1e-9);
            Alcotest.(check bool)
              (label "sat + undecided covers the disc") true
              (sv +. dv >= quarter_disc -. 1e-9);
            sv)
          Layers.settings
      in
      let lo = List.fold_left Float.min infinity sat_volumes in
      let hi = List.fold_left Float.max neg_infinity sat_volumes in
      Alcotest.(check bool)
        (Printf.sprintf "sat volumes within shell tolerance (jobs=%d)" jobs)
        true (hi -. lo < 0.2))
    [ 1; 2 ]

(* [Contractor.contractor] samples the layer switches when it builds the
   closure: flipping them afterwards changes nothing, and a closure
   built with every layer off is the plain HC4 fixpoint.  x(1 - x) ≥ 0.3
   has no solution on [0, 1] (the maximum is 1/4), which the HC4 pass
   alone cannot see but the Newton and Taylor-model layers refute. *)
let test_contractor_samples_switches () =
  let cs = C.of_atoms (F.atoms (P.formula "x*(1 - x) >= 0.3")) in
  let off = (false, false) and on = (true, true) in
  let c_off = Layers.with_layers off (fun () -> C.contractor (C.compile cs)) in
  let c_on = Layers.with_layers on (fun () -> C.contractor (C.compile cs)) in
  let compiled = C.compile cs in
  let show = function None -> "refuted" | Some b -> Box.to_string b in
  List.iter
    (fun (lo, hi) ->
      let b = box [ ("x", lo, hi) ] in
      let hc4 = show (C.fixpoint_compiled compiled b) in
      let layered = Layers.with_layers on (fun () -> show (c_on b)) in
      List.iter
        (fun l ->
          Layers.with_layers l (fun () ->
              Alcotest.(check string)
                (Printf.sprintf "off closure = HC4 on [%g, %g] under %s" lo hi
                   (Layers.name l))
                hc4 (show (c_off b));
              Alcotest.(check string)
                (Printf.sprintf "on closure unchanged on [%g, %g] under %s" lo
                   hi (Layers.name l))
                layered (show (c_on b))))
        [ off; on ])
    [ (0.0, 1.0); (0.1, 0.9); (0.25, 0.75) ];
  let unit_box = box [ ("x", 0.0, 1.0) ] in
  Alcotest.(check bool) "HC4 alone cannot refute" false
    (Option.is_none (c_off unit_box));
  Alcotest.(check bool) "the layers refute" true (Option.is_none (c_on unit_box))

(* ---- Range constraints (Contractor.of_atoms) ---- *)

let show_constr (c : C.constr) =
  Printf.sprintf "%s in [%h, %h]" (T.to_string c.C.term) (I.lo c.C.target)
    (I.hi c.C.target)

let range term lo hi = show_constr { C.term = P.term term; target = I.make lo hi }
let ranges ?delta fml =
  List.map show_constr (C.of_atoms ?delta (F.atoms (P.formula fml)))

(* Lower bounds [e - c], [t]; upper bounds [c' - e], [-e]; a pair on
   the same term becomes one range at its first atom's position, and
   every other atom keeps its own constraint (its target [-δ, ∞)
   starts at -0 at δ = 0). *)
let test_of_atoms_pairing () =
  let check fml want = Alcotest.(check (list string)) fml want (ranges fml) in
  check "x >= 1 and x <= 2" [ range "x" 1.0 2.0 ];
  check "x <= 2 and x >= 1" [ range "x" 1.0 2.0 ];
  check "x <= 0 and x >= -1" [ range "x" (-1.0) 0.0 ];
  check "x > 0 and x < 1" [ range "x" 0.0 1.0 ];
  check "x^2 >= 0.5 and y >= 0 and x^2 <= 3"
    [ range "x^2" 0.5 3.0; range "y" (-0.0) infinity ];
  (* each bound pairs with the first unpaired bound of the other side *)
  check "x >= 1 and x >= 2 and x <= 3"
    [ range "x" 1.0 3.0; range "x - 2" (-0.0) infinity ];
  check "x <= 3 and x >= 1 and x >= 2"
    [ range "x" 1.0 3.0; range "x - 2" (-0.0) infinity ];
  check "x >= 0 and x <= 1 and x >= 2 and x <= 3"
    [ range "x" 0.0 1.0; range "x" 2.0 3.0 ];
  (* the equality case c = c' *)
  check "x = 1" [ range "x" 1.0 1.0 ];
  check "x = 0" [ range "x" 0.0 0.0 ];
  check "x^2 + y^2 = 1" [ range "x^2 + y^2" 1.0 1.0 ];
  (* two non-constant sides are two terms: a - b and b - a stay apart *)
  check "x = y" [ range "x - y" (-0.0) infinity; range "y - x" (-0.0) infinity ];
  check "x*y >= 1 and y*x <= 2"
    [ range "x*y - 1" (-0.0) infinity; range "2 - y*x" (-0.0) infinity ]

(* An atom that finds no partner gets exactly the constraint it would
   have alone: its own term, against [-δ, +∞). *)
let test_of_atoms_unpaired () =
  List.iter
    (fun delta ->
      let atoms =
        F.atoms (P.formula "x*y >= 1 and y - x > 0.5 and sin(x) <= 0.2 and x = y")
      in
      let cs = C.of_atoms ~delta atoms in
      Alcotest.(check int) "one constraint per atom" (List.length atoms)
        (List.length cs);
      List.iter2
        (fun (a : F.atom) (c : C.constr) ->
          Alcotest.(check bool) "own term" true (c.C.term == a.F.term);
          Alcotest.(check bool)
            (Printf.sprintf "target [-%g, inf)" delta)
            true
            (I.equal c.C.target (I.make (-.delta) infinity)))
        atoms cs)
    [ 0.0; 1e-3 ]

(* Merged ranges sit where their first atom was: HC4 is order-sensitive. *)
let test_of_atoms_position () =
  let check fml want = Alcotest.(check (list string)) fml want (ranges fml) in
  check "y >= 0 and x <= 2 and y^2 >= 1 and x >= 1"
    [ range "y" (-0.0) infinity; range "x" 1.0 2.0;
      range "y^2 - 1" (-0.0) infinity ];
  check "x >= 0 and y <= 1 and x <= 2 and y >= -1"
    [ range "x" 0.0 2.0; range "y" (-1.0) 1.0 ];
  check "z >= 0 and y <= 1 and x <= 2 and y >= -1 and x >= 1"
    [ range "z" (-0.0) infinity; range "y" (-1.0) 1.0; range "x" 1.0 2.0 ]

(* A contradictory pair gets the empty target, which refutes every box
   on the tree, tape and Newton paths and raises nowhere. *)
let test_of_atoms_empty_target () =
  let f = P.formula "x > 1 and x < 0" in
  let cs = C.of_atoms (F.atoms f) in
  (match cs with
   | [ c ] -> Alcotest.(check bool) "empty target" true (I.is_empty c.C.target)
   | _ -> Alcotest.fail "one merged constraint expected");
  let boxes =
    [ box [ ("x", -10.0, 10.0) ];
      box [ ("x", 0.5, 0.5) ];
      box [ ("x", 0.0, 1.0); ("y", -1.0, 1.0) ];
      Box.of_list [ ("x", I.entire) ];
      box [ ("y", -1.0, 1.0) ] ]
  in
  let refutes what c =
    List.iter
      (fun b ->
        Alcotest.(check bool)
          (Printf.sprintf "%s refutes %s" what (Box.to_string b))
          true (c b = None))
      boxes
  in
  refutes "tree fixpoint" (C.fixpoint cs);
  let compiled = C.compile cs in
  refutes "tape fixpoint" (C.fixpoint_compiled compiled);
  refutes "tape fixpoint with TM" (C.fixpoint_compiled ~tm:true compiled);
  (match Icp.Deriv.compile [ (P.term "x", I.empty) ] with
   | None -> Alcotest.fail "x is differentiable"
   | Some sys ->
       List.iter
         (fun b ->
           Alcotest.(check bool)
             (Printf.sprintf "Newton refutes %s" (Box.to_string b))
             true (Icp.Deriv.contract sys b = None))
         [ box [ ("x", -10.0, 10.0) ]; box [ ("x", 0.5, 0.5) ] ]);
  List.iter
    (fun l ->
      Layers.with_layers l (fun () ->
          let what = Layers.name l in
          refutes ("contractor " ^ what) (C.contractor (C.compile cs));
          expect_unsat what (S.decide ~config:cfg f (box [ ("x", -10.0, 10.0) ]));
          let p = S.pave ~config:cfg f (box [ ("x", -10.0, 10.0) ]) in
          Alcotest.(check int) ("pave: no sat leaf " ^ what) 0
            (List.length p.S.sat + List.length p.S.undecided)))
    Layers.settings

(* The δ-widened bounds enclose the reals c - δ and c' + δ, checked in
   exact arithmetic: TwoSum gives s + e = a + b exactly, and the
   distance from a bound to s is a float difference of neighbours,
   itself exact (checked).  At δ = 0 the bounds are c and c' exactly. *)
let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  (s, (a -. (s -. bb)) +. (b -. bb))

let exact_diff a b =
  let d, err = two_sum a (-.b) in
  if err <> 0.0 then Alcotest.failf "%h - %h is not exact" a b;
  d

let test_of_atoms_rounding () =
  let st = Random.State.make [| 0x2b0d |] in
  let rnd () =
    Float.ldexp (Random.State.float st 2.0 -. 1.0) (Random.State.int st 60 - 30)
  in
  for _ = 1 to 20_000 do
    let c = rnd () and c' = rnd () in
    let delta = if Random.State.int st 8 = 0 then 0.0 else Float.abs (rnd ()) in
    let atoms =
      [ { F.term = T.sub (T.var "x") (T.const c); rel = F.Ge };
        { F.term = T.sub (T.const c') (T.var "x"); rel = F.Ge } ]
    in
    match C.of_atoms ~delta atoms with
    | [ r ] ->
        let t = r.C.target in
        let what = Printf.sprintf "c=%h c'=%h delta=%h" c c' delta in
        if I.is_empty t then
          Alcotest.(check bool) ("empty only if c > c': " ^ what) true (c > c')
        else if delta = 0.0 then
          Alcotest.(check bool) ("exact at delta 0: " ^ what) true
            (I.lo t = c && I.hi t = c')
        else begin
          (* lo <= s + e  <=>  s - lo >= -e *)
          let s, e = two_sum c (-.delta) in
          Alcotest.(check bool) ("lo <= c - delta: " ^ what) true
            (exact_diff s (I.lo t) >= -.e);
          Alcotest.(check bool) ("lo within 2 ulp: " ^ what) true
            (I.lo t >= Float.pred (Float.pred s));
          (* hi >= s + e  <=>  hi - s >= e *)
          let s, e = two_sum c' delta in
          Alcotest.(check bool) ("hi >= c' + delta: " ^ what) true
            (exact_diff (I.hi t) s >= e);
          Alcotest.(check bool) ("hi within 2 ulp: " ^ what) true
            (I.hi t <= Float.succ (Float.succ s))
        end
    | _ -> Alcotest.fail "one merged constraint expected"
  done

(* Points where every atom holds survive the contractor built from the
   merged constraints, under every Newton x TM setting.  The bounds are
   set around each term's interval value at the point, so the point
   satisfies them in exact arithmetic. *)
let test_of_atoms_witness_survival () =
  let st = Random.State.make [| 0x5a7e |] in
  let cases = ref [] in
  for _ = 1 to 150 do
    let px = Random.State.float st 4.0 -. 2.0
    and py = Random.State.float st 4.0 -. 2.0 in
    let pt = Box.of_list [ ("x", I.of_float px); ("y", I.of_float py) ] in
    let margin () =
      if Random.State.bool st then 0.0 else Random.State.float st 0.5
    in
    let atoms =
      List.concat
        (List.init (1 + Random.State.int st 3) (fun _ ->
             let e = Gen.term st (1 + Random.State.int st 3) in
             let v = T.eval_interval pt e in
             if not (I.is_bounded v) then []
             else
               let lower = F.ge e (T.const (I.lo v -. margin ()))
               and upper = F.le e (T.const (I.hi v +. margin ())) in
               match Random.State.int st 4 with
               | 0 -> [ lower ]
               | 1 -> [ upper ]
               | 2 -> [ upper; lower ]
               | _ -> [ lower; upper ]))
    in
    let atoms = List.concat_map F.atoms atoms in
    let w () = Random.State.float st 1.5 in
    let b =
      box [ ("x", px -. w (), px +. w ()); ("y", py -. w (), py +. w ()) ]
    in
    cases := (atoms, b, [ ("x", px); ("y", py) ]) :: !cases
  done;
  List.iter
    (fun l ->
      Layers.with_layers l (fun () ->
          List.iter
            (fun delta ->
              List.iter
                (fun (atoms, b, pt) ->
                  let c = C.contractor (C.compile (C.of_atoms ~delta atoms)) in
                  match c b with
                  | Some b' when Box.contains_env pt b' -> ()
                  | r ->
                      Alcotest.failf "%s delta=%g: point lost on %s -> %s (%s)"
                        (Layers.name l) delta (Box.to_string b)
                        (match r with
                         | None -> "refuted"
                         | Some b' -> Box.to_string b')
                        (String.concat " and "
                           (List.map (Fmt.str "%a" F.pp_atom) atoms)))
                !cases)
            [ 0.0; 1e-3 ]))
    Layers.settings

(* ---- ∃∀ CEGIS ---- *)

let test_eforall_scaling () =
  (* ∃c ∈ [0,2] ∀x ∈ [-1,1]: c·x² ≥ 0.5·x² — any c ≥ 0.5 works. *)
  let phi = P.formula "c * x^2 >= 0.5 * x^2" in
  match
    Icp.Eforall.solve
      ~exists_box:(box [ ("c", 0.0, 2.0) ])
      ~forall_box:(box [ ("x", -1.0, 1.0) ])
      phi
  with
  | Icp.Eforall.Proved { witness; _ } ->
      Alcotest.(check bool) "c >= 0.5" true (List.assoc "c" witness >= 0.45)
  | r -> Alcotest.failf "expected proved, got %s" (Fmt.str "%a" Icp.Eforall.pp_result r)

let test_eforall_no_witness () =
  (* ∃a ∈ [-1,1] ∀x ∈ [-1,1]: (x - a)² ≥ 0.1 — impossible: take x = a. *)
  let phi = P.formula "(x - a)^2 >= 0.1" in
  match
    Icp.Eforall.solve
      ~exists_box:(box [ ("a", -1.0, 1.0) ])
      ~forall_box:(box [ ("x", -1.0, 1.0) ])
      phi
  with
  | Icp.Eforall.Proved _ -> Alcotest.fail "no witness exists"
  | Icp.Eforall.No_witness _ | Icp.Eforall.Budget_exhausted _ -> ()

let test_eforall_offset () =
  (* ∃b ∈ [0,5] ∀x ∈ [-1,1]: b - x² >= 1, i.e. b >= 2. *)
  let phi = P.formula "b - x^2 >= 1" in
  match
    Icp.Eforall.solve
      ~exists_box:(box [ ("b", 0.0, 5.0) ])
      ~forall_box:(box [ ("x", -1.0, 1.0) ])
      phi
  with
  | Icp.Eforall.Proved { witness; _ } ->
      Alcotest.(check bool) "b >= 2" true (List.assoc "b" witness >= 1.95)
  | r -> Alcotest.failf "expected proved, got %s" (Fmt.str "%a" Icp.Eforall.pp_result r)

let test_eforall_unbound_var () =
  Alcotest.check_raises "unbound" (Invalid_argument "Eforall.solve: unbound variable \"z\"")
    (fun () ->
      ignore
        (Icp.Eforall.solve
           ~exists_box:(box [ ("a", 0.0, 1.0) ])
           ~forall_box:(box [ ("x", 0.0, 1.0) ])
           (P.formula "a + x + z >= 0")))

(* ---- Property tests ---- *)

(* Soundness of Unsat: if the solver says unsat, dense sampling must not
   find a satisfying point. *)
let prop_unsat_sound =
  let gen =
    QCheck.Gen.(
      float_range (-3.0) 3.0 >>= fun c ->
      float_range 0.2 2.0 >>= fun r -> return (c, r))
  in
  QCheck.Test.make ~count:60 ~name:"unsat verdicts are sound"
    (QCheck.make ~print:(fun (c, r) -> Printf.sprintf "c=%g r=%g" c r) gen)
    (fun (c, r) ->
      let f =
        F.and_
          [ P.formula (Printf.sprintf "x^2 + y^2 <= %.17g" (r *. r));
            P.formula (Printf.sprintf "x + y >= %.17g" c) ]
      in
      let b = box [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ] in
      match S.decide ~config:{ cfg with max_boxes = 20_000 } f b with
      | S.Unsat ->
          (* exhaustive-ish grid check *)
          let ok = ref true in
          for i = 0 to 40 do
            for j = 0 to 40 do
              let x = -2.0 +. (4.0 *. float_of_int i /. 40.0) in
              let y = -2.0 +. (4.0 *. float_of_int j /. 40.0) in
              if F.holds_env [ ("x", x); ("y", y) ] f then ok := false
            done
          done;
          !ok
      | S.Delta_sat w ->
          (* a certified witness must satisfy the weakened formula *)
          (not w.certified)
          || F.holds_delta ~delta:cfg.S.delta
               (fun v -> List.assoc v w.point)
               f
      | S.Unknown _ -> true)

let prop_certified_witness_valid =
  let gen = QCheck.Gen.float_range (-1.0) 1.5 in
  QCheck.Test.make ~count:60 ~name:"certified witnesses satisfy the weakened formula"
    (QCheck.make ~print:string_of_float gen)
    (fun a ->
      let f = P.formula (Printf.sprintf "sin(x) = %.17g" a) in
      let b = box [ ("x", -10.0, 10.0) ] in
      match S.decide ~config:cfg f b with
      | S.Delta_sat w when w.certified ->
          F.holds_delta ~delta:cfg.S.delta (fun v -> List.assoc v w.point) f
      | S.Delta_sat _ -> true
      | S.Unsat -> Float.abs a > 1.0 -. 1e-9 (* |sin| <= 1 *)
      | S.Unknown _ -> true)

let prop_revise_never_loses_solutions =
  let gen =
    QCheck.Gen.(
      float_range (-2.0) 2.0 >>= fun x ->
      float_range (-2.0) 2.0 >>= fun y -> return (x, y))
  in
  QCheck.Test.make ~count:200 ~name:"HC4 revise never removes solutions"
    (QCheck.make ~print:(fun (x, y) -> Printf.sprintf "(%g, %g)" x y) gen)
    (fun (x, y) ->
      (* Constraint satisfied exactly at the sampled point. *)
      let v = (x *. x) +. (y *. Float.sin x) in
      let term = P.term "x*x + y*sin(x)" in
      let b = box [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ] in
      match C.revise ~term ~target:(I.inflate 1e-9 (I.of_float v)) b with
      | None -> false (* the point satisfies it, pruning everything is wrong *)
      | Some b' -> Box.contains_env [ ("x", x); ("y", y) ] b')

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_unsat_sound; prop_certified_witness_valid; prop_revise_never_loses_solutions ]

(* ---- Workspaces die with their owners ----

   Compiled contractor systems (whose scratches the paving's enclosure
   certifier shares) and Newton systems keep their per-call workspaces
   (tape scratches, interval arrays) in a slot of their own, so a
   workspace is garbage once its owner is.  Paving 2,000 small
   formulas, each compiling both and running them and the certifier on
   a few boxes, must leave fewer than 2,000 more live words after a
   full major collection; per-domain storage kept every workspace
   (+86,034 words for 2,000 tapes evaluated once each). *)
let test_workspaces_die () =
  Icp.Deriv.set_enabled true;
  Interval.Tm.set_enabled true;
  (* a journal would keep every run's records *)
  Journal.set_sink Journal.Off;
  Fun.protect
    ~finally:(fun () ->
      Icp.Deriv.clear_enabled_override ();
      Interval.Tm.clear_enabled_override ();
      Journal.clear_sink_override ())
  @@ fun () ->
  let config = { S.default_config with epsilon = 0.1; max_boxes = 4 } in
  let b = box [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ] in
  let run k =
    let c = 1.0 +. (float_of_int k /. 1000.0) in
    let f = P.formula (Printf.sprintf "x^2 + %.17g*y^2 >= 1 and x*y <= %.17g" c c) in
    ignore (S.pave ~config f b)
  in
  run 0;
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for k = 1 to 2000 do
    run k
  done;
  let grown = live () - before in
  Alcotest.(check bool) (Printf.sprintf "live words grew by %d" grown) true (grown < 2000)

(* ---- One compiled system for the certifier and HC4 ----

   A paving judges atoms ([C.certify]) and contracts
   ([C.fixpoint_compiled] with the Taylor-model pass) on one compiled
   system per DNF branch, so each constraint's scratch serves both and
   keeps Taylor models from one caller's pass to the other's.  Random
   conjunctions of paired bounds [e ≥ c₁ ∧ e ≤ c₂] and unpaired atoms
   over z, y and x (most terms name their variables out of sorted
   order), every third with a disjunction, run a sequence of steps on
   their systems over a box repeated bit for bit, a contracted box, a
   child of a split, a new box and a TM budget change; a step certifies
   every atom, contracts, or does both in either order.  Every atom
   verdict and contracted box must equal, in hex, the same call on
   freshly compiled systems. *)

let shared_vars = [| "z"; "y"; "x" |]

let rec shared_term st depth =
  if depth = 0 then
    if Random.State.int st 4 = 0 then T.const (0.5 +. Random.State.float st 2.0)
    else T.var shared_vars.(Random.State.int st 3)
  else
    let sub () = shared_term st (depth - 1) in
    match Random.State.int st 6 with
    | 0 -> T.add (sub ()) (sub ())
    | 1 -> T.sub (sub ()) (sub ())
    | 2 | 3 -> T.mul (sub ()) (sub ())
    | 4 -> T.exp (T.neg (sub ()))
    | _ -> T.pow (sub ()) 2

let shared_box st =
  Box.of_list
    (Array.to_list
       (Array.map
          (fun v ->
            let a = Random.State.float st 3.0 -. 1.0 in
            (v, I.make a (a +. 0.05 +. Random.State.float st 1.5)))
          shared_vars))

let hex_box b =
  String.concat ";"
    (List.map
       (fun (x, i) ->
         Printf.sprintf "%s=[%Lx,%Lx]" x (Int64.bits_of_float (I.lo i))
           (Int64.bits_of_float (I.hi i)))
       (Box.to_list b))

let test_shared_scratch () =
  let st = Random.State.make [| 30 |] in
  let saved = Interval.Tm.budget () in
  Interval.Tm.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Interval.Tm.set_budget saved;
      Interval.Tm.clear_enabled_override ())
  @@ fun () ->
  for case = 1 to 150 do
    Interval.Tm.set_budget saved;
    let root = shared_box st in
    (* bounds inside the term's range on the root box, so the verdicts
       and contractions vary along the sequence *)
    let bounded () =
      let e = shared_term st (1 + Random.State.int st 3) in
      let r = T.eval_interval root e in
      let lo, hi = if I.is_bounded r then (I.lo r, I.hi r) else (0.0, 1.0) in
      let pick () = lo +. (Random.State.float st 1.0 *. (hi -. lo)) in
      let c1 = pick () and c2 = pick () in
      F.and_
        [ F.ge e (T.const (Float.min c1 c2)); F.le e (T.const (Float.max c1 c2)) ]
    in
    let unpaired () =
      F.atom (if Random.State.bool st then F.Gt else F.Ge)
        (shared_term st (1 + Random.State.int st 3))
    in
    let parts =
      List.init (1 + Random.State.int st 2) (fun _ -> bounded ())
      @ List.init (Random.State.int st 2) (fun _ -> unpaired ())
    in
    let f =
      F.and_ (if case mod 3 = 0 then F.or_ [ bounded (); unpaired () ] :: parts else parts)
    in
    let branches = F.dnf f and atoms = F.atoms f in
    let used = List.map C.compile_atoms branches in
    let fresh () = List.map C.compile_atoms branches in
    let verdict systems b a =
      match List.find_map (fun cs -> C.certify cs b a) systems with
      | Some F.Certain -> "certain"
      | Some F.Impossible -> "impossible"
      | Some F.Unknown -> "unknown"
      | None -> "none"
    in
    let contract systems b =
      String.concat " | "
        (List.map
           (fun cs ->
             match C.fixpoint_compiled ~max_rounds:2 ~tm:true cs b with
             | None -> "refuted"
             | Some b' -> hex_box b')
           systems)
    in
    let check step what b =
      let certify () =
        List.iteri
          (fun k a ->
            let want = verdict (fresh ()) b a in
            let got = verdict used b a in
            if got <> want then
              Alcotest.failf "case %d, step %d (%s): atom %d of %s is %s, fresh %s"
                case step what k (F.to_string f) got want)
          atoms
      and contract_ () =
        let want = contract (fresh ()) b in
        let got = contract used b in
        if got <> want then
          Alcotest.failf "case %d, step %d (%s): %s contracts %s to %s, fresh %s" case
            step what (F.to_string f) (hex_box b) got want
      in
      match Random.State.int st 4 with
      | 0 -> certify ()
      | 1 -> contract_ ()
      | 2 ->
          certify ();
          contract_ ()
      | _ ->
          contract_ ();
          certify ()
    in
    let history = ref [ root ] and cur = ref root in
    check 0 "root box" root;
    for step = 1 to 16 do
      let what, b =
        match Random.State.int st 5 with
        | 0 ->
            let h = !history in
            let b = List.nth h (Random.State.int st (List.length h)) in
            ( "a box repeated",
              Box.of_list
                (List.map (fun (x, i) -> (x, I.make (I.lo i) (I.hi i))) (Box.to_list b)) )
        | 1 -> (
            match C.fixpoint_compiled ~max_rounds:2 ~tm:true (C.compile_atoms atoms) !cur with
            | Some b -> ("a contracted box", b)
            | None -> ("a box repeated", !cur))
        | 2 -> (
            match Box.split !cur with
            | Some (l, r) -> ("a split child", if Random.State.bool st then l else r)
            | None -> ("a box repeated", !cur))
        | 3 ->
            let other = if saved = 1 then 2 else 1 in
            Interval.Tm.set_budget (if Interval.Tm.budget () = saved then other else saved);
            ("a budget change", !cur)
        | _ -> ("a new box", shared_box st)
      in
      check step what b;
      cur := b;
      history := b :: !history
    done
  done

let () =
  Alcotest.run "icp"
    [
      ( "contractor",
        [
          Alcotest.test_case "revise linear" `Quick test_revise_linear;
          Alcotest.test_case "revise square" `Quick test_revise_square;
          Alcotest.test_case "revise square negative" `Quick test_revise_square_negative_branch;
          Alcotest.test_case "revise exp" `Quick test_revise_exp;
          Alcotest.test_case "multiple occurrences" `Quick test_revise_multiple_occurrences;
          Alcotest.test_case "fixpoint" `Quick test_fixpoint;
          Alcotest.test_case "fixpoint infeasible" `Quick test_fixpoint_infeasible;
          Alcotest.test_case "layer switches sampled at build" `Quick
            test_contractor_samples_switches;
          Alcotest.test_case "ranges: pairing" `Quick test_of_atoms_pairing;
          Alcotest.test_case "ranges: unpaired atoms" `Quick test_of_atoms_unpaired;
          Alcotest.test_case "ranges: position" `Quick test_of_atoms_position;
          Alcotest.test_case "ranges: empty target" `Quick
            test_of_atoms_empty_target;
          Alcotest.test_case "ranges: rounding" `Quick test_of_atoms_rounding;
          Alcotest.test_case "ranges: witnesses survive" `Quick
            test_of_atoms_witness_survival;
          Alcotest.test_case "certify and HC4 share a scratch" `Quick
            test_shared_scratch;
        ] );
      ( "solver",
        [
          Alcotest.test_case "sqrt 2" `Quick test_decide_sqrt2;
          Alcotest.test_case "interval contradiction" `Quick test_decide_unsat_interval;
          Alcotest.test_case "geometric unsat" `Quick test_decide_unsat_geometry;
          Alcotest.test_case "sin equation" `Quick test_decide_sin;
          Alcotest.test_case "disjunction" `Quick test_decide_disjunction;
          Alcotest.test_case "multivariate" `Quick test_decide_multivariate;
          Alcotest.test_case "delta effect" `Quick test_decide_delta_effect;
          Alcotest.test_case "trivial formulas" `Quick test_decide_trivial;
          Alcotest.test_case "budget exhaustion" `Quick test_decide_budget;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "ablation: no contraction" `Quick test_ablation_no_contraction;
        ] );
      ( "paving",
        [
          Alcotest.test_case "circle" `Quick test_pave_circle;
          Alcotest.test_case "all sat" `Quick test_pave_all_sat;
          Alcotest.test_case "disjunction" `Quick test_pave_disjunction;
          Alcotest.test_case "random leaves sound" `Quick test_pave_leaves_sound;
          Alcotest.test_case "workspaces die with their owners" `Quick test_workspaces_die;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "decide: portfolio = each strategy" `Quick
            test_decide_agreement;
          Alcotest.test_case "pave: partitions and volumes agree" `Quick
            test_pave_agreement;
        ] );
      ( "eforall",
        [
          Alcotest.test_case "scaling" `Quick test_eforall_scaling;
          Alcotest.test_case "no witness" `Quick test_eforall_no_witness;
          Alcotest.test_case "offset" `Quick test_eforall_offset;
          Alcotest.test_case "unbound variable" `Quick test_eforall_unbound_var;
        ] );
      ("properties", qcheck_tests);
    ]
