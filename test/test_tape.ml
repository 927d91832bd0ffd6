(* Differential tests: flat SSA tapes vs the tree-walking kernels.

   The tape compiler CSEs shared subterms into one slot.  When the only
   sharing is at the leaves (variables, constants) the forward and
   backward passes are step-for-step identical to the tree walkers, so
   we demand bit-equality.  Interior sharing lets backward requirements
   accumulate on one slot, which can only tighten the result — there we
   demand verdict compatibility and a subset relation instead. *)

module I = Interval.Ia
module Box = Interval.Box
module T = Expr.Term
module Tape = Expr.Tape
module P = Expr.Parse
module C = Icp.Contractor
module S = Icp.Solver

let vars = [ "x"; "y"; "z" ]
let nvars = List.length vars

(* ---- random generators (deterministic seeds) ---- *)

let rand_leaf st =
  if Random.State.bool st then T.var (List.nth vars (Random.State.int st nvars))
  else T.const (Random.State.float st 4.0 -. 2.0)

(* All 18 constructors, built through the smart constructors (so the
   terms are simplify-stable and [Term.compile] sees them unchanged). *)
let rec rand_term st depth =
  if depth = 0 then rand_leaf st
  else
    let sub () = rand_term st (depth - 1) in
    match Random.State.int st 18 with
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
    | 15 -> T.min_ (sub ()) (sub ())
    | 16 -> T.max_ (sub ()) (sub ())
    | _ -> rand_leaf st

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

let inputs_of_box b = Array.of_list (List.map (fun v -> Box.find v b) vars)

let same_float a b = (Float.is_nan a && Float.is_nan b) || a = b
let same_itv a b = (I.is_empty a && I.is_empty b) || I.equal a b

(* ---- forward passes ---- *)

let test_forward_interval () =
  let st = Random.State.make [| 42 |] in
  for case = 1 to 1_500 do
    let t = rand_term st (1 + Random.State.int st 4) in
    let b = rand_box st in
    let tree = T.eval_interval b t in
    let tp = Tape.compile ~vars [ t ] in
    let tape = Tape.eval_interval tp (Tape.scratch tp) (inputs_of_box b) in
    if not (same_itv tree tape) then
      Alcotest.failf "case %d: tree=%s tape=%s on %s" case (I.to_string tree)
        (I.to_string tape) (T.to_string t)
  done

let test_forward_float () =
  let st = Random.State.make [| 43 |] in
  for case = 1 to 1_500 do
    let t = rand_term st (1 + Random.State.int st 4) in
    let f = T.compile ~vars t in
    let tp = Tape.compile ~vars [ t ] in
    let sc = Tape.scratch tp in
    for _probe = 1 to 3 do
      let args = Array.init nvars (fun _ -> Random.State.float st 8.0 -. 4.0) in
      let tree = f args and tape = Tape.eval_float tp sc args in
      if not (same_float tree tape) then
        Alcotest.failf "case %d: tree=%.17g tape=%.17g on %s" case tree tape
          (T.to_string t)
    done
  done

(* ---- HC4 revise: backward pass ---- *)

let tape_revise t ~target b =
  let bvars = Box.vars b in
  let tp = Tape.compile ~vars:bvars [ t ] in
  let dom = Array.of_list (List.map (fun v -> Box.find v b) bvars) in
  if Tape.hc4_revise tp (Tape.scratch tp) ~target dom then
    Some (Box.of_list (List.mapi (fun i v -> (v, dom.(i))) bvars))
  else None

let test_revise_differential () =
  let st = Random.State.make [| 44 |] in
  for case = 1 to 1_500 do
    let t = rand_term st (1 + Random.State.int st 3) in
    let b = rand_box st in
    let target = rand_target st in
    let sharing = Tape.interior_sharing (Tape.compile ~vars [ t ]) in
    let tree = C.revise ~term:t ~target b in
    let tape = tape_revise t ~target b in
    match (tree, tape) with
    | None, None -> ()
    | None, Some bb ->
        Alcotest.failf
          "case %d: tree proves infeasible, tape keeps %s on %s ∈ %s" case
          (Box.to_string bb) (T.to_string t) (I.to_string target)
    | Some _, None ->
        (* only a shared interior slot may accumulate a stronger
           requirement than the tree's per-leaf intersection *)
        if sharing = 0 then
          Alcotest.failf "case %d: tape infeasible but tree not, on %s ∈ %s"
            case (T.to_string t) (I.to_string target)
    | Some bt, Some bb ->
        if sharing = 0 then begin
          if not (Box.equal bt bb) then
            Alcotest.failf "case %d: tree=%s tape=%s on %s ∈ %s" case
              (Box.to_string bt) (Box.to_string bb) (T.to_string t)
              (I.to_string target)
        end
        else if not (Box.subset bb bt) then
          Alcotest.failf "case %d: tape %s not within tree %s on %s ∈ %s" case
            (Box.to_string bb) (Box.to_string bt) (T.to_string t)
            (I.to_string target)
  done

(* ---- HC4 revise on an entailed constraint ----

   Random terms and boxes on which [smooth_on] holds after the forward
   pass, against targets that contain the forward root interval
   (sometimes with an infinite side): every point of the box satisfies
   the constraint, so the revise must leave the box as it is on the
   tree path and on the tape path with TM, and the TM pass must not run
   at all. *)

let entailed_target st r =
  let slack () =
    match Random.State.int st 3 with
    | 0 -> 0.0
    | 1 -> Random.State.float st 1e-9
    | _ -> Random.State.float st 2.0
  in
  let lo =
    if Random.State.int st 4 = 0 then Float.neg_infinity
    else I.lo r -. slack ()
  and hi =
    if Random.State.int st 4 = 0 then Float.infinity else I.hi r +. slack ()
  in
  I.make lo hi

let test_revise_entailed () =
  let st = Random.State.make [| 46 |] in
  let truncations = Telemetry.Counter.make ~always:true "tm.truncations"
  and tightenings = Telemetry.Counter.make ~always:true "tm.tightenings" in
  let counts () =
    (Telemetry.Counter.value truncations, Telemetry.Counter.value tightenings)
  in
  let before = counts () in
  let cases = ref [] in
  for case = 1 to 6_000 do
    let t = rand_term st (1 + Random.State.int st 3) in
    let b = rand_box st in
    let tp = Tape.compile ~vars [ t ] in
    let sc = Tape.scratch tp in
    let root = Tape.eval_interval tp sc (inputs_of_box b) in
    if Tape.smooth_on tp sc then begin
      let target = entailed_target st root in
      (match C.revise ~term:t ~target b with
      | Some b' when Box.equal b b' -> ()
      | Some b' ->
          Alcotest.failf "case %d: tree narrowed %s to %s on %s ∈ %s" case
            (Box.to_string b) (Box.to_string b') (T.to_string t)
            (I.to_string target)
      | None ->
          Alcotest.failf "case %d: tree refuted %s on %s ∈ %s" case
            (Box.to_string b) (T.to_string t) (I.to_string target));
      let dom = inputs_of_box b in
      let orig = Array.copy dom in
      if not (Tape.hc4_revise tp sc ~tm:true ~target dom) then
        Alcotest.failf "case %d: tape refuted %s on %s ∈ %s" case
          (Box.to_string b) (T.to_string t) (I.to_string target);
      Array.iteri
        (fun i x ->
          if not (x == orig.(i)) then
            Alcotest.failf "case %d: tape wrote %s = %s on %s ∈ %s" case
              (List.nth vars i) (I.to_string x) (T.to_string t)
              (I.to_string target))
        dom;
      cases := (tp, b) :: !cases
    end
  done;
  let n = List.length !cases in
  if n < 1_000 then
    Alcotest.failf "only %d entailed cases drawn — generator drifted" n;
  Alcotest.(check (pair int int)) "no TM pass ran" before (counts ());
  (* The counters can see a TM pass over these cases: evaluating their
     models truncates products. *)
  List.iter
    (fun (tp, b) ->
      Tape.eval_tm_into tp (Tape.scratch tp) ~inputs:(inputs_of_box b)
        ~out:(Array.make 1 I.entire))
    !cases;
  if fst (counts ()) = fst before then
    Alcotest.fail "no TM truncation on the entailed cases: the check is blind"

(* One counter per HC4 TM pass.  On x ∈ [0, 1], x·x − x has the
   interval root [−1, 1] and a TM range within about [−1/4, 0]: toward
   [0.1, 1] the TM pass empties the root (a refutation, and no
   tightening), toward [−0.5, 0.5] it narrows the root and the box stays
   alive (a tightening only). *)
let test_revise_counters () =
  let refutations = Telemetry.Counter.make ~always:true "tm.refutations"
  and tightenings = Telemetry.Counter.make ~always:true "tm.tightenings" in
  let counts () =
    (Telemetry.Counter.value refutations, Telemetry.Counter.value tightenings)
  in
  let tp = Tape.compile ~vars [ P.term "x*x - x" ] in
  let revise target =
    let dom =
      inputs_of_box
        (Box.of_list
           [ ("x", I.make 0.0 1.0); ("y", I.of_float 0.0); ("z", I.of_float 0.0) ])
    in
    let r0, t0 = counts () in
    let alive = Tape.hc4_revise tp (Tape.scratch tp) ~tm:true ~target dom in
    let r1, t1 = counts () in
    (alive, r1 - r0, t1 - t0)
  in
  let outcome = Alcotest.(triple bool int int) in
  Alcotest.check outcome "refuting pass: one refutation, no tightening"
    (false, 1, 0) (revise (I.make 0.1 1.0));
  Alcotest.check outcome "narrowing pass: one tightening, no refutation"
    (true, 0, 1) (revise (I.make (-0.5) 0.5))

let test_fixpoint_differential () =
  let st = Random.State.make [| 45 |] in
  for case = 1 to 400 do
    let n = 1 + Random.State.int st 3 in
    let cs =
      List.init n (fun _ ->
          { C.term = rand_term st (1 + Random.State.int st 3);
            target = rand_target st })
    in
    let b = rand_box st in
    let leaf_only =
      List.for_all
        (fun (c : C.constr) ->
          Tape.interior_sharing (Tape.compile ~vars [ c.term ]) = 0)
        cs
    in
    let tree = C.fixpoint cs b in
    let tape = C.fixpoint_compiled (C.compile cs) b in
    match (tree, tape) with
    | None, None -> ()
    | None, Some _ ->
        Alcotest.failf "case %d: tree infeasible but tape feasible" case
    | Some _, None ->
        if leaf_only then
          Alcotest.failf "case %d: tape infeasible but tree feasible" case
    | Some bt, Some bb ->
        if leaf_only && not (Box.equal bt bb) then
          Alcotest.failf "case %d: tree=%s tape=%s" case (Box.to_string bt)
            (Box.to_string bb)
  done

(* ---- Taylor-model passes on a used scratch ----

   A scratch keeps a slot's Taylor model while the inputs the slot reads
   and the TM budget stay the same.  Each random term is compiled with
   every subterm as a root: CSE puts each subterm's root on its slot, so
   the roots cover every slot.  One scratch then runs a sequence of
   passes that changes random subsets of inputs, repeats the current or
   an earlier step's inputs bit for bit, flips the sign of zero bounds,
   interleaves interval and HC4 passes, and changes the budget once,
   with the inputs kept or changed.  After each step, every root of a
   TM pass on the used scratch must equal a fresh scratch's bit for
   bit.  An input unbounded on one side enters as its interval, so the
   sign of its zero bound reaches the roots. *)

let rec subterms (t : T.t) =
  t
  ::
  (match t with
  | T.Var _ | T.Const _ -> []
  | T.Add (a, b) | T.Sub (a, b) | T.Mul (a, b) | T.Div (a, b) | T.Min (a, b)
  | T.Max (a, b) ->
      subterms a @ subterms b
  | T.Neg a | T.Pow (a, _) | T.Exp a | T.Log a | T.Sqrt a | T.Sin a | T.Cos a
  | T.Tan a | T.Atan a | T.Tanh a | T.Abs a ->
      subterms a)

(* An input interval, often with a zero bound of either sign. *)
let rand_input st =
  let zero () = if Random.State.bool st then 0.0 else -0.0 in
  let w () = Random.State.float st 2.0 in
  match Random.State.int st 8 with
  | 0 -> I.make (zero ()) (w ())
  | 1 -> I.make (-.w ()) (zero ())
  | 2 -> I.of_float (zero ())
  | 3 -> I.make (zero ()) Float.infinity
  | 4 -> I.make Float.neg_infinity (zero ())
  | 5 -> I.of_float (Random.State.float st 8.0 -. 4.0)
  | _ ->
      let a = Random.State.float st 8.0 -. 4.0 in
      I.make a (a +. w ())

let flip_zero x = if x = 0.0 then -.x else x

let hex_itv r =
  Printf.sprintf "[%Lx,%Lx]" (Int64.bits_of_float (I.lo r)) (Int64.bits_of_float (I.hi r))

let test_tm_used_scratch () =
  let st = Random.State.make [| 47 |] in
  let saved = Interval.Tm.budget () in
  Fun.protect ~finally:(fun () -> Interval.Tm.set_budget saved) @@ fun () ->
  for case = 1 to 300 do
    Interval.Tm.set_budget saved;
    let t = rand_term st (1 + Random.State.int st 4) in
    let tp = Tape.compile ~vars (subterms t) in
    let n = Tape.num_roots tp in
    let used = Tape.scratch tp in
    let inputs = ref (Array.init nvars (fun _ -> rand_input st)) in
    let history = ref [] in
    (* Fresh records with the same bounds: equality is bit for bit. *)
    let copy = Array.map (fun x -> I.make (I.lo x) (I.hi x)) in
    let change () =
      inputs :=
        Array.map (fun x -> if Random.State.bool st then rand_input st else x) !inputs
    in
    let check step what =
      let got = Array.make n I.empty and want = Array.make n I.empty in
      Tape.eval_tm_into tp used ~inputs:!inputs ~out:got;
      Tape.eval_tm_into tp (Tape.scratch tp) ~inputs:!inputs ~out:want;
      history := !inputs :: !history;
      Array.iteri
        (fun k w ->
          if hex_itv w <> hex_itv got.(k) then
            Alcotest.failf "case %d, step %d (%s): root %d is %s, fresh %s on %s" case
              step what k (hex_itv got.(k)) (hex_itv w) (T.to_string t))
        want
    in
    check 0 "first pass";
    for step = 1 to 12 do
      if step = 7 then begin
        Interval.Tm.set_budget (if saved = 1 then 2 else 1);
        if Random.State.bool st then change ();
        check step "budget change"
      end
      else
        match Random.State.int st 6 with
        | 0 ->
            change ();
            check step "changed subset"
        | 1 ->
            inputs := copy !inputs;
            check step "repeated inputs"
        | 2 ->
            let h = !history in
            inputs := copy (List.nth h (Random.State.int st (List.length h)));
            check step "an earlier step's inputs"
        | 3 ->
            let flip x = I.make (flip_zero (I.lo x)) (flip_zero (I.hi x)) in
            inputs := Array.map flip !inputs;
            check step "flipped zeros"
        | 4 ->
            ignore (Tape.eval_interval tp used !inputs);
            check step "after an interval pass"
        | _ ->
            let dom = Array.copy !inputs in
            let tm = Random.State.bool st in
            let feasible = Tape.hc4_revise tp used ~tm ~target:(rand_target st) dom in
            check step "after an HC4 pass";
            if feasible then begin
              inputs := dom;
              check step "on the contracted box"
            end
    done
  done

(* ---- satellite fixes: negative powers and tan branches ---- *)

let both_paths name t ~target b checks =
  (match C.revise ~term:t ~target b with
  | None -> Alcotest.failf "%s: tree infeasible" name
  | Some b' -> checks (name ^ " (tree)") (Box.find "x" b'));
  match tape_revise t ~target b with
  | None -> Alcotest.failf "%s: tape infeasible" name
  | Some b' -> checks (name ^ " (tape)") (Box.find "x" b')

let test_pow_negative_even () =
  (* x^-2 ∈ [1/9, 1/4] on x ∈ [0.1, 10] ⟺ x² ∈ [4, 9] ⟹ x ∈ [2, 3];
     the old backward pass returned x unchanged for k < 0. *)
  let b = Box.of_list [ ("x", I.make 0.1 10.0) ] in
  both_paths "x^-2" (T.pow (T.var "x") (-2)) ~target:(I.make (1.0 /. 9.0) 0.25)
    b (fun name x ->
      Alcotest.(check bool) (name ^ " contracts to ~[2,3]") true
        (I.lo x >= 1.999 && I.hi x <= 3.001 && I.mem 2.5 x))

let test_pow_negative_odd () =
  (* x^-3 ∈ [-1/8, -1/27] on x ∈ [-10, -0.1] ⟹ x ∈ [-3, -2]. *)
  let b = Box.of_list [ ("x", I.make (-10.0) (-0.1)) ] in
  both_paths "x^-3" (T.pow (T.var "x") (-3))
    ~target:(I.make (-0.125) (-1.0 /. 27.0))
    b (fun name x ->
      Alcotest.(check bool) (name ^ " contracts to ~[-3,-2]") true
        (I.lo x >= -3.001 && I.hi x <= -1.999 && I.mem (-2.5) x))

let test_pow_negative_infeasible () =
  (* x^-2 is positive: a negative target is infeasible on x ∈ [0.1, 10]. *)
  let b = Box.of_list [ ("x", I.make 0.1 10.0) ] in
  let t = T.pow (T.var "x") (-2) in
  let target = I.make (-2.0) (-1.0) in
  Alcotest.(check bool) "tree proves infeasible" true
    (C.revise ~term:t ~target b = None);
  Alcotest.(check bool) "tape proves infeasible" true
    (tape_revise t ~target b = None)

let test_tan_single_branch () =
  (* x ∈ [-1.4, 1.4] lies inside one branch of tan, so tan(x) ∈ [1, 1.2]
     contracts x to ~[atan 1, atan 1.2]; the old backward pass was a
     no-op for Tan. *)
  let b = Box.of_list [ ("x", I.make (-1.4) 1.4) ] in
  let lo = Float.atan 1.0 and hi = Float.atan 1.2 in
  both_paths "tan" (T.tan (T.var "x")) ~target:(I.make 1.0 1.2) b
    (fun name x ->
      Alcotest.(check bool) (name ^ " contracts to ~[atan 1, atan 1.2]") true
        (I.lo x >= lo -. 1e-9 && I.hi x <= hi +. 1e-9
        && I.subset (I.make (lo +. 1e-9) (hi -. 1e-9)) x))

let test_tan_shifted_branch () =
  (* Same contraction one period up: x ∈ [π - 1.4, π + 1.4]. *)
  let pi = Float.pi in
  let b = Box.of_list [ ("x", I.make (pi -. 1.4) (pi +. 1.4)) ] in
  let lo = pi +. Float.atan 1.0 and hi = pi +. Float.atan 1.2 in
  both_paths "tan+π" (T.tan (T.var "x")) ~target:(I.make 1.0 1.2) b
    (fun name x ->
      Alcotest.(check bool) (name ^ " contracts inside the shifted branch")
        true
        (I.lo x >= lo -. 1e-6 && I.hi x <= hi +. 1e-6))

let test_tan_multi_branch_unchanged () =
  (* x ∈ [0, 10] spans several branches: no sound single-branch inverse,
     so the variable domain must come back unchanged. *)
  let b = Box.of_list [ ("x", I.make 0.0 10.0) ] in
  both_paths "tan-wide" (T.tan (T.var "x")) ~target:(I.make 1.0 1.2) b
    (fun name x ->
      Alcotest.(check bool) (name ^ " unchanged") true
        (I.equal x (I.make 0.0 10.0)))

(* ---- end-to-end: seq/parallel agreement ---- *)

let verdict_kind = function
  | S.Delta_sat _ -> "delta-sat"
  | S.Unsat -> "unsat"
  | S.Unknown _ -> "unknown"

let box l = Box.of_list (List.map (fun (x, lo, hi) -> (x, I.make lo hi)) l)

let decide_cases =
  [ ("sqrt2", "x^2 = 2", box [ ("x", 0.0, 2.0) ]);
    ( "geom-unsat",
      "x^2 + y^2 <= 1 and x + y >= 3",
      box [ ("x", -1.0, 1.0); ("y", -1.0, 1.0) ] );
    ("sin", "sin(x) = 1/2", box [ ("x", 0.0, 3.0) ]) ]

let test_decide_tape_parallel () =
  List.iter
    (fun (name, fs, bx) ->
      let f = P.formula fs in
      let kind jobs =
        verdict_kind (S.decide ~config:{ S.default_config with jobs } f bx)
      in
      let seq = kind 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s at jobs=%d" name jobs)
            seq (kind jobs))
        [ 2; 4 ])
    decide_cases

let test_pave_tape_parallel () =
  let f = P.formula "x^2 + y^2 <= 1" in
  let bx = box [ ("x", -1.5, 1.5); ("y", -1.5, 1.5) ] in
  let config jobs = { S.default_config with S.epsilon = 0.05; jobs } in
  let sort = List.sort (fun a b -> compare (Box.to_list a) (Box.to_list b)) in
  let base = S.pave ~config:(config 1) f bx in
  List.iter
    (fun jobs ->
      let p = S.pave ~config:(config jobs) f bx in
      let check label l l' =
        Alcotest.(check bool)
          (Printf.sprintf "%s leaves equal at jobs=%d" label jobs)
          true
          (List.equal Box.equal (sort l) (sort l'))
      in
      check "sat" base.S.sat p.S.sat;
      check "unsat" base.S.unsat p.S.unsat;
      check "undecided" base.S.undecided p.S.undecided)
    [ 2; 4 ]

(* Two domains run TM passes on one tape whose terms divide by
   constants, each on its own scratch and over the same boxes, so both
   read the tape's reciprocal models at once.  Every root must equal the
   jobs = 1 run's bit for bit.  The domain cap is raised to 2 for the
   run, so the two workers get real domains even on one core. *)
let test_tm_shared_recips () =
  let st = Random.State.make [| 48 |] in
  let divisor () = T.Const (Random.State.float st 6.0 -. 3.0) in
  let terms =
    List.init 12 (fun _ ->
        T.Add
          ( T.Div (rand_term st 3, divisor ()),
            T.Mul (T.Div (rand_term st 2, divisor ()), rand_term st 2) ))
  in
  let tp = Tape.compile ~vars terms in
  let boxes = Array.init 300 (fun _ -> inputs_of_box (rand_box st)) in
  let run _ =
    let sc = Tape.scratch tp in
    Array.map
      (fun inputs ->
        let out = Array.make (Tape.num_roots tp) I.empty in
        Tape.eval_tm_into tp sc ~inputs ~out;
        String.concat " " (Array.to_list (Array.map hex_itv out)))
      boxes
  in
  let seq = run 0 in
  let par =
    Parallel.Pool.set_domain_cap (Some 2);
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.set_domain_cap None)
      (fun () -> Parallel.Pool.run ~jobs:2 run)
  in
  Array.iteri
    (fun w roots ->
      Array.iteri
        (fun b r ->
          if r <> seq.(b) then
            Alcotest.failf "worker %d, box %d: %s, jobs = 1 gives %s" w b r seq.(b))
        roots)
    par

(* ---- tape structure ---- *)

let test_cse_shares_slots () =
  (* (x+y)·(x+y): the sum occupies one slot, counted as interior sharing. *)
  let s = T.Add (T.Var "x", T.Var "y") in
  let t = T.Mul (s, s) in
  let tp = Tape.compile ~vars [ t ] in
  Alcotest.(check int) "interior sharing detected" 1 (Tape.interior_sharing tp);
  (* slots: x, y, x+y, (x+y)·(x+y) — the shared sum occupies one slot *)
  Alcotest.(check int) "slot count" 4 (Tape.num_slots tp);
  let leafy = Tape.compile ~vars [ T.Add (T.Var "x", T.Var "x") ] in
  Alcotest.(check int) "leaf sharing not interior" 0
    (Tape.interior_sharing leafy)

let test_unbound_variable_rejected () =
  Alcotest.check_raises "unbound var"
    (Invalid_argument "Tape.compile: unbound variable \"w\"") (fun () ->
      ignore (Tape.compile ~vars [ T.var "w" ]))

let () =
  Alcotest.run "tape"
    [ ( "forward",
        [ Alcotest.test_case "interval vs tree" `Quick test_forward_interval;
          Alcotest.test_case "float vs compile" `Quick test_forward_float ] );
      ( "hc4",
        [ Alcotest.test_case "revise differential" `Quick
            test_revise_differential;
          Alcotest.test_case "revise entailed" `Quick test_revise_entailed;
          Alcotest.test_case "revise counters" `Quick test_revise_counters;
          Alcotest.test_case "fixpoint differential" `Quick
            test_fixpoint_differential ] );
      ( "taylor models",
        [ Alcotest.test_case "TM pass on a used scratch = fresh scratch" `Quick
            test_tm_used_scratch;
          Alcotest.test_case "shared reciprocals at jobs = 2" `Quick
            test_tm_shared_recips ] );
      ( "fixes",
        [ Alcotest.test_case "pow negative even" `Quick test_pow_negative_even;
          Alcotest.test_case "pow negative odd" `Quick test_pow_negative_odd;
          Alcotest.test_case "pow negative infeasible" `Quick
            test_pow_negative_infeasible;
          Alcotest.test_case "tan single branch" `Quick test_tan_single_branch;
          Alcotest.test_case "tan shifted branch" `Quick
            test_tan_shifted_branch;
          Alcotest.test_case "tan multi branch" `Quick
            test_tan_multi_branch_unchanged ] );
      ( "solver",
        [ Alcotest.test_case "decide tape parallel" `Quick
            test_decide_tape_parallel;
          Alcotest.test_case "pave tape parallel" `Quick
            test_pave_tape_parallel ] );
      ( "structure",
        [ Alcotest.test_case "cse shares slots" `Quick test_cse_shares_slots;
          Alcotest.test_case "unbound rejected" `Quick
            test_unbound_variable_rejected ] ) ]
