(* Differential tests for the derivative layer (Icp.Deriv and its
   wiring): gradient tapes vs tree-walking derivatives, mean-value /
   interval Newton contraction soundness, smear splitting vs plain
   bisection, Newton-on vs Newton-off search agreement, and the
   kill-switch guarantee that BIOMC_NO_NEWTON reproduces the HC4-only
   search bit for bit (also after a Newton-on run in the same process). *)

module I = Interval.Ia
module Box = Interval.Box
module T = Expr.Term
module Tape = Expr.Tape
module P = Expr.Parse
module D = Icp.Deriv
module S = Icp.Solver

let vars = [ "x"; "y"; "z" ]
let nvars = List.length vars

(* ---- random generators (deterministic seeds) ---- *)

let rand_leaf st =
  if Random.State.bool st then T.var (List.nth vars (Random.State.int st nvars))
  else T.const (Random.State.float st 4.0 -. 2.0)

(* Differentiable constructors only — [Term.deriv] rejects Min/Max, and
   [Deriv.compile] skips such constraints, so the gradient suites draw
   from the 16 smooth-almost-everywhere operations. *)
let rec rand_smooth st depth =
  if depth = 0 then rand_leaf st
  else
    let sub () = rand_smooth st (depth - 1) in
    match Random.State.int st 16 with
    | 0 -> T.add (sub ()) (sub ())
    | 1 -> T.sub (sub ()) (sub ())
    | 2 -> T.mul (sub ()) (sub ())
    | 3 -> T.div (sub ()) (sub ())
    | 4 -> T.neg (sub ())
    | 5 -> T.pow (sub ()) (Random.State.int st 7 - 3)
    | 6 -> T.exp (sub ())
    | 7 -> T.log (sub ())
    | 8 -> T.sqrt (sub ())
    | 9 -> T.sin (sub ())
    | 10 -> T.cos (sub ())
    | 11 -> T.tan (sub ())
    | 12 -> T.atan (sub ())
    | 13 -> T.tanh (sub ())
    | 14 -> T.abs (sub ())
    | _ -> rand_leaf st

(* The full constructor set, for the simplify_deep semantics suite. *)
let rand_term st depth =
  if depth = 0 || Random.State.int st 8 > 0 then rand_smooth st depth
  else
    let sub () = rand_smooth st (depth - 1) in
    if Random.State.bool st then T.min_ (sub ()) (sub ())
    else T.max_ (sub ()) (sub ())

let rand_box st =
  Box.of_list
    (List.map
       (fun v ->
         let a = Random.State.float st 8.0 -. 4.0 in
         let w =
           match Random.State.int st 4 with
           | 0 -> 0.0 (* singleton *)
           | 1 -> Random.State.float st 0.5
           | _ -> Random.State.float st 4.0
         in
         (v, I.make a (a +. w)))
       vars)

let rand_target st =
  match Random.State.int st 4 with
  | 0 -> I.of_float (Random.State.float st 4.0 -. 2.0)
  | 1 -> I.make (Random.State.float st 2.0 -. 2.0) (Random.State.float st 2.0)
  | 2 -> I.make (Random.State.float st 4.0 -. 2.0) Float.infinity
  | _ ->
      let a = Random.State.float st 6.0 -. 3.0 in
      I.make a (a +. Random.State.float st 1.0)

let rand_point st b =
  List.map
    (fun (v, itv) ->
      (v, I.lo itv +. (Random.State.float st 1.0 *. I.width itv)))
    (Box.to_list b)

(* ---- simplify_deep: semantic preservation ---- *)

(* The gradient pipeline rewrites derivative trees with
   [Term.simplify_deep] before tape compilation; its contract is that
   the result denotes the same real function (float evaluation agrees
   up to the sign of zero, and up to ulps across a pow-of-pow merge).
   Pinned over the full constructor set, Min/Max included. *)
let same_value a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let test_simplify_deep_semantics () =
  let st = Random.State.make [| 90 |] in
  for case = 1 to 1_500 do
    let t = rand_term st (1 + Random.State.int st 4) in
    let s = T.simplify_deep t in
    if not (T.SSet.subset (T.free_vars s) (T.free_vars t)) then
      Alcotest.failf "case %d: simplify_deep invented variables on %s" case
        (T.to_string t);
    let f = T.compile ~vars t and g = T.compile ~vars s in
    for _probe = 1 to 3 do
      let args = Array.init nvars (fun _ -> Random.State.float st 8.0 -. 4.0) in
      let a = f args and b = g args in
      if not (same_value a b) then
        Alcotest.failf "case %d: %.17g <> %.17g on %s ~> %s" case a b
          (T.to_string t) (T.to_string s)
    done
  done

let test_simplify_deep_idempotent () =
  let st = Random.State.make [| 91 |] in
  for case = 1 to 500 do
    let s = T.simplify_deep (rand_term st (1 + Random.State.int st 4)) in
    if not (T.equal s (T.simplify_deep s)) then
      Alcotest.failf "case %d: not idempotent on %s" case (T.to_string s)
  done

(* ---- gradient tapes vs tree-walking derivatives ---- *)

(* The compiled gradient enclosure must contain the tree-walking
   derivative's value at every point of the box (the enclosure bounds
   the true derivative; the float evaluation is within ulps of it, so
   membership is checked with a relative slack). *)
let test_gradient_soundness () =
  let st = Random.State.make [| 92 |] in
  let checked = ref 0 in
  for case = 1 to 1_200 do
    let t = rand_smooth st (1 + Random.State.int st 4) in
    match D.compile [ (t, I.entire) ] with
    | None -> () (* variable-free *)
    | Some sys -> (
        let b = rand_box st in
        match D.gradient_enclosures sys b with
        | [ None ] -> () (* skipped: non-smooth or unbounded on b *)
        | [ Some pairs ] ->
            for _probe = 1 to 3 do
              let pt = rand_point st b in
              List.iter
                (fun (v, g) ->
                  let dv = try T.eval_env pt (T.deriv v t) with _ -> nan in
                  if Float.is_finite dv then begin
                    incr checked;
                    let slack = 1e-7 *. Float.max 1.0 (Float.abs dv) in
                    if not (I.mem dv (I.inflate slack g)) then
                      Alcotest.failf
                        "case %d: d/d%s = %.17g outside tape enclosure %s on %s"
                        case v dv (I.to_string g) (T.to_string t)
                  end)
                pairs
            done
        | _ -> Alcotest.failf "case %d: expected one entry" case)
  done;
  if !checked < 1_000 then
    Alcotest.failf "only %d derivative points checked — generator drifted"
      !checked

(* ---- contraction soundness ---- *)

(* Mean-value refutation + interval Newton must never lose a solution:
   any sampled point that (robustly) satisfies every constraint must
   survive [Deriv.contract] — both the refutation test and the
   per-variable Gauss–Seidel intersections. *)
let robustly_in value target =
  Float.is_finite value
  && (not (I.is_empty target))
  &&
  let m = 1e-6 *. Float.max 1.0 (Float.abs value) in
  value >= I.lo target +. m && value <= I.hi target -. m

let test_contract_soundness () =
  let st = Random.State.make [| 93 |] in
  let witnessed = ref 0 in
  for case = 1 to 1_000 do
    let n = 1 + Random.State.int st 2 in
    let cs =
      List.init n (fun _ ->
          (rand_smooth st (1 + Random.State.int st 3), rand_target st))
    in
    match D.compile cs with
    | None -> ()
    | Some sys ->
        let b = rand_box st in
        let satisfying =
          List.filter_map
            (fun _ ->
              let pt = rand_point st b in
              let ok =
                List.for_all
                  (fun (t, target) ->
                    let v = try T.eval_env pt t with _ -> nan in
                    robustly_in v target)
                  cs
              in
              if ok then Some pt else None)
            (List.init 20 Fun.id)
        in
        let r = D.contract sys b in
        List.iter
          (fun pt ->
            incr witnessed;
            match r with
            | None ->
                Alcotest.failf "case %d: refuted a box containing witness %s"
                  case
                  (String.concat ","
                     (List.map (fun (v, x) -> Printf.sprintf "%s=%g" v x) pt))
            | Some b' ->
                List.iter
                  (fun (v, x) ->
                    match Box.find_opt v b' with
                    | None -> ()
                    | Some itv ->
                        if not (I.mem x (I.inflate 1e-9 itv)) then
                          Alcotest.failf
                            "case %d: witness %s=%.17g contracted away (%s)"
                            case v x (I.to_string itv))
                  pt)
          satisfying
  done;
  if !witnessed < 300 then
    Alcotest.failf "only %d witnesses checked — generator drifted" !witnessed

(* ---- smear splitting vs plain bisection ---- *)

(* [Deriv.split] must terminate exactly when [Box.split] does (same
   sub-ε condition), and a split must be a genuine bisection: two
   sub-boxes of the original covering it. *)
let test_smear_split_termination () =
  let st = Random.State.make [| 94 |] in
  for case = 1 to 500 do
    let cs =
      List.init
        (1 + Random.State.int st 2)
        (fun _ -> (rand_smooth st (1 + Random.State.int st 3), rand_target st))
    in
    match D.compile cs with
    | None -> ()
    | Some sys ->
        let b = rand_box st in
        let min_width =
          match Random.State.int st 3 with
          | 0 -> 0.0
          | 1 -> 0.1
          | _ -> Random.State.float st 4.0
        in
        let plain = Box.split ~min_width b in
        let smear = D.split sys ~min_width b in
        (match (plain, smear) with
        | None, None -> ()
        | Some _, None | None, Some _ ->
            Alcotest.failf
              "case %d: split disagreement at min_width=%g (plain %b, smear %b)"
              case min_width (plain <> None) (smear <> None)
        | Some _, Some (l, r) ->
            if not (Box.subset l b && Box.subset r b) then
              Alcotest.failf "case %d: smear halves escape the box" case;
            if not (Box.equal (Box.hull l r) b) then
              Alcotest.failf "case %d: smear halves do not cover the box" case)
  done

(* ---- Newton on vs off: decide and pave agreement ---- *)

let with_newton flag f =
  D.set_enabled flag;
  Fun.protect ~finally:D.clear_enabled_override f

let verdict_kind = function
  | S.Delta_sat _ -> "delta-sat"
  | S.Unsat -> "unsat"
  | S.Unknown _ -> "unknown"

let box l = Box.of_list (List.map (fun (x, lo, hi) -> (x, I.make lo hi)) l)

(* Workloads kept away from the δ-boundary so both searches reach the
   same verdict kind (at the boundary, Unsat and Delta_sat are both
   δ-correct answers and the comparison would be meaningless). *)
let decide_cases =
  [ ("sqrt2", "x^2 = 2", box [ ("x", 0.0, 2.0) ]);
    ( "geom-unsat",
      "x^2 + y^2 <= 1 and x + y >= 3",
      box [ ("x", -1.0, 1.0); ("y", -1.0, 1.0) ] );
    ("sin", "sin(x) = 1/2", box [ ("x", 0.0, 3.0) ]);
    ( "cubic-dependency",
      "x^3 - 2*x^2 + 1.25*x = 0.25 and y^3 - 2*y^2 + 1.25*y = 0.25 and \
       (x - y)^2 >= 0.3",
      box [ ("x", 0.0, 2.0); ("y", 0.0, 2.0) ] );
    ( "mm-kinetics",
      "1.2*s1/(0.4 + s1) + 1.2*s2/(0.4 + s2) = 1.35 and s1 + s2 = 1",
      box [ ("s1", 0.0, 1.0); ("s2", 0.0, 1.0) ] );
    ( "tangency",
      "x^2 + y^2 = 1 and x*y = 1/2",
      box [ ("x", 0.0, 2.0); ("y", 0.0, 2.0) ] ) ]

let test_decide_on_vs_off () =
  List.iter
    (fun (name, fs, bx) ->
      let f = P.formula fs in
      List.iter
        (fun jobs ->
          let config = { S.default_config with jobs } in
          let on =
            with_newton true (fun () -> verdict_kind (S.decide ~config f bx))
          in
          let off =
            with_newton false (fun () -> verdict_kind (S.decide ~config f bx))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s at jobs=%d" name jobs)
            off on)
        [ 1; 2 ])
    decide_cases

(* Paving on vs off: leaf sets legitimately differ (different splits),
   but both are proofs over the same box, so a sat leaf of one run may
   never share volume with an unsat leaf of the other; feasibility
   (existence of sat leaves) must agree; and the Newton paving must be
   identical between jobs=1 and jobs=2 (smear tie-breaking is
   deterministic across domains). *)
let test_pave_on_vs_off () =
  let f =
    P.formula
      "a*k*exp(-k) >= 0.3 and a*k*exp(-k) <= 0.5 and \
       3*a*k*exp(-3*k) >= 0.1 and 3*a*k*exp(-3*k) <= 0.3"
  in
  let bx = box [ ("k", 0.05, 2.5); ("a", 0.2, 3.0) ] in
  let config jobs = { S.default_config with S.epsilon = 0.05; jobs } in
  let p_on = with_newton true (fun () -> S.pave ~config:(config 1) f bx) in
  let p_off = with_newton false (fun () -> S.pave ~config:(config 1) f bx) in
  let contradicts sats unsats =
    List.exists
      (fun s -> List.exists (fun u -> Box.volume (Box.inter s u) > 0.0) unsats)
      sats
  in
  Alcotest.(check bool) "no sat(on)/unsat(off) contradiction" false
    (contradicts p_on.S.sat p_off.S.unsat);
  Alcotest.(check bool) "no sat(off)/unsat(on) contradiction" false
    (contradicts p_off.S.sat p_on.S.unsat);
  Alcotest.(check bool) "feasibility agrees"
    (p_off.S.sat <> []) (p_on.S.sat <> []);
  let sort = List.sort (fun a b -> compare (Box.to_list a) (Box.to_list b)) in
  let p_on2 = with_newton true (fun () -> S.pave ~config:(config 2) f bx) in
  List.iter
    (fun (label, l, l') ->
      Alcotest.(check bool)
        (Printf.sprintf "%s leaves equal at jobs=2" label)
        true
        (List.equal Box.equal (sort l) (sort l')))
    [ ("sat", p_on.S.sat, p_on2.S.sat);
      ("unsat", p_on.S.unsat, p_on2.S.unsat);
      ("undecided", p_on.S.undecided, p_on2.S.undecided) ]

(* ---- the kill-switch: BIOMC_NO_NEWTON reproduces the old search ---- *)

(* Off-run, on-run, off-run again — with the caches at their default
   setting.  The second off-run must match the first in verdict kind AND
   in every stats field: any divergence would mean Newton-era state (a
   cache entry, a compiled closure) leaked into the disabled search,
   i.e. the kill-switch no longer reproduces the pre-derivative
   behaviour. *)
let stats_tuple (s : S.stats) =
  (s.S.boxes_processed, s.S.splits, s.S.prunings, s.S.max_depth,
   s.S.certifications)

let test_killswitch_decide_bitforbit () =
  List.iter
    (fun (name, fs, bx) ->
      let f = P.formula fs in
      let run on =
        with_newton on (fun () ->
            let r, stats = S.decide_with_stats f bx in
            (verdict_kind r, stats_tuple stats))
      in
      let v1, s1 = run false in
      let _ = run true in
      let v2, s2 = run false in
      Alcotest.(check string) (name ^ ": off verdict reproduced") v1 v2;
      Alcotest.(check bool)
        (name ^ ": off stats reproduced (no cache leakage)") true (s1 = s2))
    decide_cases

let test_killswitch_pave_bitforbit () =
  let f = P.formula "x^2 + y^2 <= 1 and x^2 + y^2 >= 1/2" in
  let bx = box [ ("x", -1.5, 1.5); ("y", -1.5, 1.5) ] in
  let config = { S.default_config with S.epsilon = 0.05 } in
  let run on = with_newton on (fun () -> S.pave ~config f bx) in
  let sort = List.sort (fun a b -> compare (Box.to_list a) (Box.to_list b)) in
  let p1 = run false in
  let _ = run true in
  let p2 = run false in
  List.iter
    (fun (label, l, l') ->
      Alcotest.(check bool)
        (Printf.sprintf "off %s leaves reproduced" label)
        true
        (List.equal Box.equal (sort l) (sort l')))
    [ ("sat", p1.S.sat, p2.S.sat);
      ("unsat", p1.S.unsat, p2.S.unsat);
      ("undecided", p1.S.undecided, p2.S.undecided) ]

(* ---- gradient tape size on a real model atom (regression pin) ---- *)

(* The du/dt flow of the BCF model's excited mode (bcf_m4) is the
   dependency-rich atom of record: u occurs in all three currents.
   Pins (a) that simplify_deep never grows a gradient, and (b) the
   compiled gradient tape's exact slot count — the CSE between f and
   its four partials is what makes per-box gradients affordable, so a
   regression here is a performance bug even when results stay
   correct. *)
let test_bcf_gradient_tape_size () =
  let a = Biomodels.Bueno_cherry_fenton.automaton () in
  let m4 =
    List.find
      (fun m -> m.Hybrid.Automaton.mode_name = "bcf_m4")
      (Hybrid.Automaton.modes a)
  in
  let du = List.assoc "u" m4.Hybrid.Automaton.flow in
  let vars = T.free_var_list du in
  Alcotest.(check (list string)) "du mentions all four state vars"
    [ "s"; "u"; "v"; "w" ] vars;
  let raw = List.map (fun v -> T.deriv v du) vars in
  let simp = List.map T.simplify_deep raw in
  List.iter2
    (fun r s ->
      Alcotest.(check bool) "simplify_deep never grows a gradient" true
        (T.size s <= T.size r))
    raw simp;
  let tp = Tape.compile ~vars (du :: simp) in
  let nodes = List.fold_left (fun acc t -> acc + T.size t) (T.size du) simp in
  Alcotest.(check int) "gradient tape slots (pinned)" 60 (Tape.num_slots tp);
  Alcotest.(check bool) "CSE shares work across f and its partials" true
    (Tape.num_slots tp < nodes)

let () =
  Alcotest.run "newton"
    [ ( "simplify",
        [ Alcotest.test_case "simplify_deep semantics" `Quick
            test_simplify_deep_semantics;
          Alcotest.test_case "simplify_deep idempotent" `Quick
            test_simplify_deep_idempotent ] );
      ( "gradients",
        [ Alcotest.test_case "tape vs tree-walk soundness" `Quick
            test_gradient_soundness;
          Alcotest.test_case "bcf m4 tape size" `Quick
            test_bcf_gradient_tape_size ] );
      ( "contraction",
        [ Alcotest.test_case "never loses a witness" `Quick
            test_contract_soundness ] );
      ( "smear",
        [ Alcotest.test_case "termination matches Box.split" `Quick
            test_smear_split_termination ] );
      ( "search",
        [ Alcotest.test_case "decide on vs off (jobs 1, 2)" `Quick
            test_decide_on_vs_off;
          Alcotest.test_case "pave on vs off consistency" `Quick
            test_pave_on_vs_off ] );
      ( "kill-switch",
        [ Alcotest.test_case "decide off-run reproduced" `Quick
            test_killswitch_decide_bitforbit;
          Alcotest.test_case "pave off-run reproduced" `Quick
            test_killswitch_pave_bitforbit ] ) ]
