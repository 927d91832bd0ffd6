(* Differential tests for the degree-2 Taylor-model layer (Interval.Tm
   and its wiring): TM ranges vs true (sampled) values, the TM tape
   walker vs the interval walker, the ring operations vs exact
   arithmetic, the Bernstein range bound, condensation past the
   monomial budget, the TM-tightened HC4 revise, TM-on vs TM-off search
   agreement, and the kill-switch guarantee that BIOMC_NO_TM reproduces
   the interval-only search bit for bit (leaf sets pinned by
   fingerprint, also after a TM-on run in the same process). *)

module I = Interval.Ia
module TM = Interval.Tm
module Box = Interval.Box
module T = Expr.Term
module Tape = Expr.Tape
module P = Expr.Parse
module S = Icp.Solver
module J = Journal

let vars = [ "x"; "y"; "z" ]
let nvars = List.length vars

(* ---- random generators (deterministic seeds) ---- *)

let rand_leaf st =
  if Random.State.bool st then T.var (List.nth vars (Random.State.int st nvars))
  else T.const (Random.State.float st 4.0 -. 2.0)

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

(* The full constructor set: the TM walker must stay sound through its
   Min/Max interval fallbacks too. *)
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

let rand_point st b =
  List.map
    (fun (v, itv) ->
      (v, I.lo itv +. (Random.State.float st 1.0 *. I.width itv)))
    (Box.to_list b)

let rand_target st =
  match Random.State.int st 4 with
  | 0 -> I.of_float (Random.State.float st 4.0 -. 2.0)
  | 1 -> I.make (Random.State.float st 2.0 -. 2.0) (Random.State.float st 2.0)
  | 2 -> I.make (Random.State.float st 4.0 -. 2.0) Float.infinity
  | _ ->
      let a = Random.State.float st 6.0 -. 3.0 in
      I.make a (a +. Random.State.float st 1.0)

let inputs_of_box b =
  Array.of_list (List.map (fun v -> Box.find v b) vars)

(* ---- TM walker vs true values and the interval walker ----

   For every sampled point where the float evaluation is finite, both
   walkers' root enclosures must contain it (up to float-evaluation
   slack): the TM concretization is a sound range, never *assumed*
   tighter than the interval result — solver layers intersect the two,
   which is exactly the licence this checks. *)
let test_tm_soundness_sampled () =
  let st = Random.State.make [| 70 |] in
  let checked = ref 0 in
  for case = 1 to 1_200 do
    let t = rand_term st (1 + Random.State.int st 4) in
    let b = rand_box st in
    let tp = Tape.compile ~vars [ t ] in
    let sc = Tape.scratch tp in
    let inp = inputs_of_box b in
    let r_tm = Array.make 1 I.empty and r_itv = Array.make 1 I.empty in
    Tape.eval_tm_into tp sc ~inputs:inp ~out:r_tm;
    Tape.eval_interval_into tp sc ~inputs:inp ~out:r_itv;
    for _probe = 1 to 3 do
      let pt = rand_point st b in
      let v = try T.eval_env pt t with _ -> nan in
      if Float.is_finite v then begin
        incr checked;
        let slack = 1e-7 *. Float.max 1.0 (Float.abs v) in
        if not (I.mem v (I.inflate slack r_tm.(0))) then
          Alcotest.failf "case %d: %.17g outside TM range %s of %s" case v
            (I.to_string r_tm.(0)) (T.to_string t);
        if not (I.mem v (I.inflate slack r_itv.(0))) then
          Alcotest.failf "case %d: %.17g outside interval range %s of %s" case
            v (I.to_string r_itv.(0)) (T.to_string t)
      end
    done
  done;
  if !checked < 1_000 then
    Alcotest.failf "only %d points checked — generator drifted" !checked

(* The TM and interval walkers' root ranges of a parsed term over a
   box. *)
let walker_ranges ts box_l =
  let t = P.term ts in
  let tvars = T.free_var_list t in
  let tp = Tape.compile ~vars:tvars [ t ] in
  let sc = Tape.scratch tp in
  let b = Box.of_list box_l in
  let inp = Array.of_list (List.map (fun v -> Box.find v b) tvars) in
  let r_tm = Array.make 1 I.empty and r_itv = Array.make 1 I.empty in
  Tape.eval_tm_into tp sc ~inputs:inp ~out:r_tm;
  Tape.eval_interval_into tp sc ~inputs:inp ~out:r_itv;
  (r_tm.(0), r_itv.(0))

let check_tighter name ts box_l expect_width =
  let tm, itv = walker_ranges ts box_l in
  Alcotest.(check bool)
    (Printf.sprintf "%s: TM (%s) tighter than interval (%s)" name
       (I.to_string tm) (I.to_string itv))
    true
    (I.width tm < I.width itv);
  Alcotest.(check bool)
    (Printf.sprintf "%s: TM width %g below %g" name (I.width tm) expect_width)
    true
    (I.width tm <= expect_width)

(* First-order dependency problems: shared symbols cancel in the linear
   part, where interval evaluation widens every occurrence
   independently. *)
let test_tm_tightness_dependency () =
  check_tighter "cancellation" "x - x" [ ("x", I.make 0.0 1.0) ] 1e-9;
  check_tighter "shifted-diff" "(x + 1) - x" [ ("x", I.make (-2.0) 2.0) ] 1e-9;
  (* x² − 2x = −1 + ε² with x = 1 + ε on [0, 2]: true range [−1, 0]. *)
  check_tighter "quadratic" "x^2 - 2*x" [ ("x", I.make 0.0 2.0) ] 1.01

(* Second-order dependency problems, where a first-order (affine) form
   still widens by its product radius: the quadratic monomials are kept,
   so the pinned widths sit at the true ranges — including the cubic
   band kernel whose paving only the TM certifier cracks. *)
let test_tm_tightness_quadratic () =
  (* x·(1−x) on [0,1]: true range [0, 1/4]; an affine form gives
     [0, 1/2]. *)
  check_tighter "logistic" "x*(1 - x)" [ ("x", I.make 0.0 1.0) ] 0.26;
  (* (x+y)² − 2xy = x² + y² on [0,1]²: the kept εₓεᵧ cross monomial
     cancels exactly; an affine form widens by its two product balls. *)
  check_tighter "cross-term" "(x + y)^2 - 2*x*y"
    [ ("x", I.make 0.0 1.0); ("y", I.make 0.0 1.0) ]
    2.01;
  (* The pave-cubic-band kernel's left edge. *)
  check_tighter "cubic-band" "x^3 - 2*x^2 + 1.25*x"
    [ ("x", I.make 0.0 0.5) ] 0.52

(* ---- the Bernstein range bound ---- *)

(* Random univariate quadratics q·ε² + l·ε + c built through the public
   ops: every sampled evaluation lies in the concretization, and the
   concretization is within the Bernstein control-polygon hull (the
   bound a first-order form structurally cannot provide). *)
let test_bernstein_bound () =
  let st = Random.State.make [| 71 |] in
  for case = 1 to 1_000 do
    let q = Random.State.float st 6.0 -. 3.0
    and l = Random.State.float st 6.0 -. 3.0
    and c = Random.State.float st 6.0 -. 3.0 in
    let x = TM.of_interval ~sym:0 (I.make (-1.0) 1.0) in
    let f = TM.add_const c (TM.add (TM.scale q (TM.sqr x)) (TM.scale l x)) in
    let range = TM.concretize f in
    (* Sampled containment. *)
    for _probe = 1 to 5 do
      let e = Random.State.float st 2.0 -. 1.0 in
      let v = (q *. e *. e) +. (l *. e) +. c in
      let slack = 1e-9 *. Float.max 1.0 (Float.abs v) in
      if not (I.mem v (I.inflate slack range)) then
        Alcotest.failf "case %d: %.17g escapes %s (q=%g l=%g c=%g)" case v
          (I.to_string range) q l c
    done;
    (* The Bernstein hull over the endpoints and midpoint control values
       {c+q−l, c−q, c+q+l} contains the true range, and the computed
       range must sit inside it (up to rounding slack). *)
    let b0 = c +. q -. l and b1 = c -. q and b2 = c +. q +. l in
    let hull =
      I.make
        (Float.min b0 (Float.min b1 b2))
        (Float.max b0 (Float.max b1 b2))
    in
    let slack = 1e-9 *. Float.max 1.0 (I.mag hull) in
    if not (I.subset range (I.inflate slack hull)) then
      Alcotest.failf "case %d: range %s exceeds Bernstein hull %s" case
        (I.to_string range) (I.to_string hull)
  done

(* ε² on [−1,1] pinned: the Bernstein bound gives [0, 1]; a
   first-order form cannot see the sign. *)
let test_bernstein_sqr_pinned () =
  let x = TM.of_interval ~sym:0 (I.make (-1.0) 1.0) in
  let r = TM.concretize (TM.sqr x) in
  Alcotest.(check bool)
    (Printf.sprintf "sqr range %s is [0,1] up to slack" (I.to_string r))
    true
    (I.lo r >= -1e-9 && I.hi r <= 1.0 +. 1e-9 && I.hi r >= 1.0 -. 1e-9)

(* Degree-3 products must fold their high-degree part into the
   remainder — and say so in the truncation counter. *)
let test_truncation_counted () =
  let before = TM.truncations () in
  let x = TM.of_interval ~sym:0 (I.make 0.5 1.5) in
  let cube = TM.mul (TM.sqr x) x in
  Alcotest.(check bool) "cube is still a model" true
    (not (TM.is_bot cube));
  Alcotest.(check bool) "truncation counted" true (TM.truncations () > before);
  (* And the truncated model is still sound at the endpoints. *)
  let r = TM.concretize cube in
  List.iter
    (fun v ->
      if not (I.mem (v *. v *. v) (I.inflate 1e-9 r)) then
        Alcotest.failf "%g³ escapes truncated cube range %s" v
          (I.to_string r))
    [ 0.5; 1.0; 1.5 ]

(* A truncation is a product with a degree-3 or degree-4 part: linear
   × linear, a linear square and any product with a constant keep
   every monomial exactly and count nothing. *)
let test_truncation_only_high_degree () =
  let x = TM.of_interval ~sym:0 (I.make 0.5 1.5)
  and y = TM.of_interval ~sym:1 (I.make (-1.0) 2.0) in
  let q = TM.mul x y in
  List.iter
    (fun (name, want, f) ->
      let before = TM.truncations () in
      ignore (Sys.opaque_identity (f ()));
      Alcotest.(check int) name want (TM.truncations () - before))
    [ ("linear × linear", 0, fun () -> TM.mul x y);
      ("linear²", 0, fun () -> TM.sqr x);
      ("constant × linear", 0, fun () -> TM.mul (TM.const 3.33) x);
      ("quadratic × constant", 0, fun () -> TM.mul q (TM.const (-0.5)));
      ("quadratic / constant", 0, fun () -> TM.div q (TM.const 3.33));
      ("quadratic × linear", 1, fun () -> TM.mul q x);
      ("quadratic²", 1, fun () -> TM.sqr q) ]

(* The truncated part of a linear model's square is a constant: the
   general formula 2·([−s, s]·Q) + Q² with Q = [0, 0], composed from the
   [Ia] operations the kernel transcribes bound by bound, gives the same
   bits at every linear radius s. *)
let test_linear_sqr_truncation_pinned () =
  let bits r = (Int64.bits_of_float (I.lo r), Int64.bits_of_float (I.hi r)) in
  let q = I.make 0.0 0.0 in
  List.iter
    (fun s ->
      let general =
        I.add (I.mul (I.mul (I.make (-.s) s) q) (I.of_float 2.0)) (I.sqr q)
      in
      Alcotest.(check (pair int64 int64))
        (Printf.sprintf "s = %h" s)
        (bits general) (bits TM.linear_sqr_truncation))
    [ 0.0; 0x1p-1074; 1e-300; 0.5; 1.0; 3.25; 1e300; Float.max_float; infinity ]

(* ---- ring operations vs exact arithmetic ----

   [Tm.add], [sub], [scale], [mul], [sqr] and the [lin_map] behind [neg]
   and [add_const] on random models, checked at sample points
   ε ∈ [−1, 1]ⁿ, box corners included.  The operands' values there are
   their polynomials at ε plus any point of their remainders; the
   operation's exact value on them must lie in the result's polynomial
   at ε plus its remainder.  Every operation is affine or bilinear in
   the remainder points, so the remainders' endpoints are the extreme
   cases (a square's value set also reaches 0 when the base can).

   The oracle shares no code with the kernel: exact values are
   nonoverlapping expansions built with TwoSum and TwoProduct (Shewchuk's
   GROW-EXPANSION), so the comparisons are exact.  A product of two
   doubles too small for TwoProduct to be exact (below 2^-900, as when a
   subnormal remainder bound meets a value) is computed with its smaller
   factor scaled by 2^1200 and kept in a second expansion at that scale.
   A value that would need any other product is marked inexact, and a
   check on it undecided; undecided checks must stay rare. *)

let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  (s, (a -. (s -. bb)) +. (b -. bb))

(* e + b exactly, e nonoverlapping in increasing magnitude, zeros
   eliminated; the result is nonoverlapping too. *)
let grow e b =
  let q, acc =
    List.fold_left
      (fun (q, acc) c ->
        let s, h = two_sum q c in
        (s, if h = 0.0 then acc else h :: acc))
      (b, []) e
  in
  List.rev (if q = 0.0 then acc else q :: acc)

let sum e f = List.fold_left grow e f
let neg e = List.map Float.neg e

(* The sign of a nonoverlapping expansion is its largest component's;
   [mag] bounds its magnitude from above. *)
let sign e = match List.rev e with [] -> 0 | c :: _ -> Float.compare c 0.0
let mag e = List.fold_left (fun s c -> Float.succ (s +. Float.abs c)) 0.0 e

(* The real e + 2^-1200·f, unless [inexact]. *)
type exact = { e : float list; f : float list; inexact : bool }

let exact_of x = { e = grow [] x; f = []; inexact = false }

let exact_add x y =
  { e = sum x.e y.e; f = sum x.f y.f; inexact = x.inexact || y.inexact }

let exact_neg x = { x with e = neg x.e; f = neg x.f }

(* Scaling by 2^1200, which no double can hold, in two exact steps. *)
let up1200 x = x *. 0x1p600 *. 0x1p600

(* a·b exactly, as (scaled, expansion): at scale 1, or at 2^1200. *)
let two_prod a b =
  let p = a *. b in
  if not (Float.is_finite p) then Alcotest.failf "exact oracle overflow";
  if a = 0.0 || b = 0.0 then (false, [])
  else if Float.abs p >= 0x1p-900 then (false, grow (grow [] (Float.fma a b (-.p))) p)
  else
    let a, b = if Float.abs a <= Float.abs b then (up1200 a, b) else (a, up1200 b) in
    let p = a *. b in
    (true, grow (grow [] (Float.fma a b (-.p))) p)

let exact_mul x y =
  let e = ref [] and f = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          match two_prod a b with
          | false, p -> e := sum !e p
          | true, p -> f := sum !f p)
        y.e)
    x.e;
  { e = !e; f = !f;
    inexact = x.inexact || y.inexact || x.f <> [] || y.f <> [] }

(* The sign of an exact value, [None] when inexact or undecided.  A
   nonzero [e] is a sum of doubles, so at least 2^-1074 in magnitude. *)
let exact_sign x =
  let se = sign x.e and sf = sign x.f in
  if x.inexact then None
  else if sf = 0 || se = sf then Some se
  else if se = 0 then Some sf
  else if mag x.f < 0x1p126 then Some se
  else if mag x.e <= 0x1p-800 then
    Some (sign (sum (List.map up1200 x.e) x.f))
  else
    match List.rev_map Float.abs x.e with
    | h :: rest
      when h >= 0x1p-700
           && (match rest with [] -> true | h2 :: _ -> h2 <= h /. 4.0) ->
        Some se
    | _ -> None

(* Whether the real [x] lies in [lo, hi]; [None] when undecided. *)
let exact_within x lo hi =
  let lower =
    if lo = neg_infinity then Some 1 else exact_sign (exact_add x (exact_of (-.lo)))
  and upper =
    if hi = infinity then Some 1 else exact_sign (exact_add (exact_neg x) (exact_of hi))
  in
  match (lower, upper) with
  | Some l, Some u -> Some (l >= 0 && u >= 0)
  | Some l, _ when l < 0 -> Some false
  | _, Some u when u < 0 -> Some false
  | _ -> None

let poly_of m =
  match TM.to_poly m with
  | Some p -> p
  | None -> Alcotest.failf "unexpected bottom model %a" TM.pp m

(* The polynomial part of [p] at [eps], exactly. *)
let exact_poly (p : TM.poly) eps =
  let term coef factors =
    List.fold_left (fun v f -> exact_mul v (exact_of f)) (exact_of coef) factors
  in
  List.fold_left exact_add (exact_of p.TM.constant)
    (List.map (fun (i, l) -> term l [ eps.(i) ]) p.TM.linear
    @ List.map (fun (i, q) -> term q [ eps.(i); eps.(i) ]) p.TM.square
    @ List.map (fun (i, j, q) -> term q [ eps.(i); eps.(j) ]) p.TM.cross)

(* The operand's extreme values at [eps]: its polynomial plus each
   remainder endpoint.  [None] when the remainder is unbounded. *)
let exact_values m eps =
  let p = poly_of m in
  let r = p.TM.remainder in
  if not (I.is_bounded r) then None
  else
    let v = exact_poly p eps in
    Some (v, [ exact_add v (exact_of (I.lo r)); exact_add v (exact_of (I.hi r)) ])

(* Random models over [n] symbols built through the public operations:
   products and squares make quadratic monomials and truncate higher
   degrees into the remainder, tanh linearizes, x − (x + k) leaves a
   monomial-free model, and abs of a sign-straddling model an interval
   fallback. *)
let rec rand_model st n depth =
  if depth = 0 || Random.State.int st 4 = 0 then
    if Random.State.int st 5 = 0 then TM.const (Random.State.float st 4.0 -. 2.0)
    else
      let a = Random.State.float st 8.0 -. 4.0 in
      TM.of_interval ~sym:(Random.State.int st n)
        (I.make a (a +. Random.State.float st 4.0))
  else
    let sub () = rand_model st n (depth - 1) in
    match Random.State.int st 8 with
    | 0 -> TM.add (sub ()) (sub ())
    | 1 -> TM.sub (sub ()) (sub ())
    | 2 -> TM.mul (sub ()) (sub ())
    | 3 -> TM.sqr (sub ())
    | 4 -> TM.scale (Random.State.float st 4.0 -. 2.0) (sub ())
    | 5 ->
        let x = sub () in
        TM.sub x (TM.add_const (Random.State.float st 2.0 -. 1.0) x)
    | 6 -> TM.tanh (sub ())
    | _ -> TM.abs (sub ())

(* The sample points: every corner of [−1, 1]ⁿ, the centre and random
   interior points. *)
let sample_points st n =
  let corners =
    List.init (1 lsl n) (fun c ->
        Array.init n (fun i -> if c land (1 lsl i) = 0 then -1.0 else 1.0))
  in
  (Array.make n 0.0 :: corners)
  @ List.init 4 (fun _ -> Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0))

(* Audit one operation over random operands at budgets 64 and 2: [op]
   returns the result and, for each sample point, the operation's
   extreme exact values. *)
let audit_op ~seed name op =
  let st = Random.State.make [| seed |] in
  let checked = ref 0 and undecided = ref 0 in
  Fun.protect ~finally:(fun () -> TM.set_budget TM.default_budget) @@ fun () ->
  List.iter
    (fun budget ->
      TM.set_budget budget;
      for case = 1 to 1_500 do
        let n = 1 + Random.State.int st 3 in
        let x = rand_model st n 3 and y = rand_model st n 3 in
        let z, values = op st x y in
        let pz = poly_of z in
        let rz = pz.TM.remainder in
        List.iter
          (fun eps ->
            let vz = exact_poly pz eps in
            List.iter
              (fun v ->
                incr checked;
                let d = exact_add v (exact_neg vz) in
                match exact_within d (I.lo rz) (I.hi rz) with
                | Some true -> ()
                | None -> incr undecided
                | Some false ->
                    Alcotest.failf
                      "%s, budget %d, case %d: exact value escapes %a at ε = [%s]"
                      name budget case TM.pp z
                      (String.concat "; "
                         (Array.to_list (Array.map (Printf.sprintf "%h") eps))))
              (values eps))
          (sample_points st n)
      done)
    [ 64; 2 ];
  if !checked < 10_000 then
    Alcotest.failf "%s: only %d values checked — generator drifted" name !checked;
  if !undecided * 1000 > !checked then
    Alcotest.failf "%s: %d of %d checks undecided" name !undecided !checked

let values_or_none m eps =
  match exact_values m eps with Some (_, vs) -> vs | None -> []

let binary f g _ x y =
  (f x y, fun eps ->
    List.concat_map
      (fun vx -> List.map (g vx) (values_or_none y eps))
      (values_or_none x eps))

let unary f g st x _ =
  let k = Random.State.float st 6.0 -. 3.0 in
  (f k x, fun eps -> List.map (g k) (values_or_none x eps))

let test_exact_add () = audit_op ~seed:80 "add" (binary TM.add exact_add)

let test_exact_sub () =
  audit_op ~seed:81 "sub"
    (binary TM.sub (fun vx vy -> exact_add vx (exact_neg vy)))

let test_exact_scale () =
  audit_op ~seed:82 "scale"
    (unary TM.scale (fun k v -> exact_mul (exact_of k) v))

let test_exact_lin_map () =
  audit_op ~seed:83 "neg/add_const" (fun st x y ->
      if Random.State.bool st then
        (TM.neg x, fun eps -> List.map exact_neg (values_or_none x eps))
      else unary TM.add_const (fun k v -> exact_add (exact_of k) v) st x y)

let test_exact_mul () = audit_op ~seed:84 "mul" (binary TM.mul exact_mul)

(* (p + r)² over the remainder points r: the endpoints, and 0 when
   −p may lie among them. *)
let test_exact_sqr () =
  audit_op ~seed:85 "sqr" (fun _ x _ ->
      ( TM.sqr x,
        fun eps ->
          match exact_values x eps with
          | None -> []
          | Some (p, vs) ->
              let r = (poly_of x).TM.remainder in
              let zero = exact_of 0.0 in
              (* −p ∈ [lo, hi]: the square reaches 0 *)
              let reaches_zero =
                ( exact_sign (exact_add p (exact_of (I.hi r))),
                  exact_sign (exact_add p (exact_of (I.lo r))) )
              in
              List.map (fun v -> exact_mul v v) vs
              @
              match reaches_zero with
              | Some h, Some l -> if h >= 0 && l <= 0 then [ zero ] else []
              | _ -> [ { zero with inexact = true } ] ))

(* ---- condensation past the monomial budget ---- *)

let rand_interval st =
  let a = Random.State.float st 8.0 -. 4.0 in
  I.make a (a +. Random.State.float st 2.0)

(* Random models over many symbols, built at the default budget through
   the public ops, then re-built at a small budget through an exact
   scaling, whose smart constructor condenses every family: at most
   [budget] monomials stay per family, and the concretization may only
   widen. *)
let test_condense_encloses () =
  let st = Random.State.make [| 61 |] in
  Fun.protect ~finally:(fun () -> TM.set_budget TM.default_budget) @@ fun () ->
  for case = 1 to 1_000 do
    TM.set_budget TM.default_budget;
    let n = 2 + Random.State.int st 10 in
    let f = ref (TM.of_interval ~sym:0 (rand_interval st)) in
    for i = 1 to n - 1 do
      let leaf = TM.of_interval ~sym:i (rand_interval st) in
      f :=
        (match Random.State.int st 4 with
        | 0 -> TM.add !f leaf
        | 1 -> TM.sub !f leaf
        | 2 -> TM.mul !f leaf
        | _ -> TM.add (TM.scale (Random.State.float st 2.0 -. 1.0) !f) leaf)
    done;
    let budget = 1 + Random.State.int st 4 in
    TM.set_budget budget;
    let c = TM.scale 1.0 !f in
    if TM.nterms c > 3 * budget then
      Alcotest.failf "case %d: %d monomials left after condensing to %d" case
        (TM.nterms c) budget;
    (* Both ranges are upward-rounded sums of the same exact quantities
       in different association orders, so the condensed one may sit a
       few ulps inside the original; containment holds up to that
       rounding slack. *)
    let slack = 1e-12 *. Float.max 1.0 (I.mag (TM.concretize !f)) in
    if not (I.subset (TM.concretize !f) (I.inflate slack (TM.concretize c))) then
      Alcotest.failf "case %d: condensation shrank %s to %s" case
        (I.to_string (TM.concretize !f))
        (I.to_string (TM.concretize c))
  done

(* A tiny process-wide budget must keep the walker sound (models
   condense mid-evaluation), and must actually condense: some root
   ranges differ from the default budget's. *)
let test_budget_soundness () =
  let st = Random.State.make [| 62 |] in
  let condensed = ref 0 in
  Fun.protect ~finally:(fun () -> TM.set_budget TM.default_budget) @@ fun () ->
  for case = 1 to 300 do
    let t = rand_smooth st (2 + Random.State.int st 3) in
    let b = rand_box st in
    let tp = Tape.compile ~vars [ t ] in
    let sc = Tape.scratch tp in
    let range budget =
      TM.set_budget budget;
      let r = Array.make 1 I.empty in
      Tape.eval_tm_into tp sc ~inputs:(inputs_of_box b) ~out:r;
      r.(0)
    in
    let wide = range TM.default_budget and r = range 2 in
    if not (I.equal wide r) then incr condensed;
    for _probe = 1 to 2 do
      let pt = rand_point st b in
      let v = try T.eval_env pt t with _ -> nan in
      if Float.is_finite v then
        let slack = 1e-7 *. Float.max 1.0 (Float.abs v) in
        if not (I.mem v (I.inflate slack r)) then
          Alcotest.failf "case %d: %.17g escapes budget-2 range %s of %s" case v
            (I.to_string r) (T.to_string t)
    done
  done;
  Alcotest.(check bool) "budget 2 condensed some root" true (!condensed > 0)

(* ---- constant divisors ----

   The TM tape walker divides by a constant by multiplying with a
   reciprocal model computed at compile time.  Its root ranges must
   equal those of [Tm.div] applied directly to the same operand models,
   bit for bit, at every edge of the constant and with the constant as
   dividend as well.  The budget-2 leg condenses the three-symbol
   quadratic numerator. *)
let test_const_divisor_edges () =
  let x = T.Var "x" and y = T.Var "y" and z = T.Var "z" in
  let numerators =
    [ x;
      T.Mul (x, y);
      T.Add (T.Sub (T.Mul (x, y), T.Mul (y, z)), T.Add (T.Mul (x, x), z)) ]
  in
  let constants =
    [ 0.0; -0.0; 0x1p-1074; 1e308; infinity; neg_infinity; nan; 3.33 ]
  in
  let boxes =
    List.map
      (List.map (fun (l, h) -> I.make l h))
      [ [ (0.5, 1.5); (-1.0, 2.0); (2.0, 3.0) ];
        [ (2.0, 2.0); (-3.0, -3.0); (0.25, 0.25) ];
        [ (-0x1p-1000, 0x1p-1000); (0.0, 1.0); (-2.0, 0.0) ];
        [ (1e300, 1e301); (-1e300, 1e300); (1.0, 1.0000001) ] ]
    |> List.map Array.of_list
  in
  let sym v = Option.get (List.find_index (String.equal v) vars) in
  let rec tm_of inputs = function
    | T.Var v -> TM.of_interval ~sym:(sym v) inputs.(sym v)
    | T.Const c -> TM.const c
    | T.Add (a, b) -> TM.add (tm_of inputs a) (tm_of inputs b)
    | T.Sub (a, b) -> TM.sub (tm_of inputs a) (tm_of inputs b)
    | T.Mul (a, b) -> TM.mul (tm_of inputs a) (tm_of inputs b)
    | T.Div (a, b) -> TM.div (tm_of inputs a) (tm_of inputs b)
    | _ -> assert false
  in
  let show r =
    if I.is_empty r then "empty" else Printf.sprintf "%h %h" (I.lo r) (I.hi r)
  in
  let budget0 = TM.budget () in
  Fun.protect ~finally:(fun () -> TM.set_budget budget0) @@ fun () ->
  List.iter
    (fun budget ->
      TM.set_budget budget;
      List.iter
        (fun num ->
          List.iter
            (fun c ->
              List.iter
                (fun term ->
                  let tp = Tape.compile ~vars [ term ] in
                  let sc = Tape.scratch tp in
                  let out = [| I.empty |] in
                  List.iteri
                    (fun k inputs ->
                      Tape.eval_tm_into tp sc ~inputs ~out;
                      Alcotest.(check string)
                        (Printf.sprintf "budget %d, box %d: %s" budget k
                           (T.to_string term))
                        (show (TM.concretize (tm_of inputs term)))
                        (show out.(0)))
                    boxes)
                [ T.Div (num, T.Const c); T.Div (T.Const c, num) ])
            constants)
        numerators)
    [ 64; 2 ]

(* ---- TM-tightened HC4 revise ---- *)

let robustly_in value target =
  Float.is_finite value
  && (not (I.is_empty target))
  &&
  let m = 1e-6 *. Float.max 1.0 (Float.abs value) in
  value >= I.lo target +. m && value <= I.hi target -. m

(* The tightened forward pass must never lose a witness: any sampled
   point robustly satisfying the constraint survives the contraction,
   and a plain-interval refutation is never un-refuted by the TM pass
   (its slots are subsets of the plain ones). *)
let test_hc4_tm_witnesses () =
  let st = Random.State.make [| 72 |] in
  let witnessed = ref 0 in
  for case = 1 to 1_000 do
    let t = rand_smooth st (1 + Random.State.int st 3) in
    let target = rand_target st in
    let b = rand_box st in
    let tp = Tape.compile ~vars [ t ] in
    let sc = Tape.scratch tp in
    let witnesses =
      List.filter_map
        (fun _ ->
          let pt = rand_point st b in
          let v = try T.eval_env pt t with _ -> nan in
          if robustly_in v target then Some pt else None)
        (List.init 20 Fun.id)
    in
    let dom_plain = inputs_of_box b in
    let ok_plain = Tape.hc4_revise tp sc ~target dom_plain in
    let dom_tm = inputs_of_box b in
    let ok_tm = Tape.hc4_revise tp sc ~tm:true ~target dom_tm in
    if (not ok_plain) && ok_tm then
      Alcotest.failf "case %d: TM pass un-refuted %s ∈ %s" case
        (T.to_string t) (I.to_string target);
    List.iter
      (fun pt ->
        incr witnessed;
        if not ok_tm then
          Alcotest.failf "case %d: TM revise refuted a witness of %s" case
            (T.to_string t);
        List.iteri
          (fun i v ->
            let x = List.assoc v pt in
            if not (I.mem x (I.inflate 1e-9 dom_tm.(i))) then
              Alcotest.failf "case %d: witness %s=%.17g contracted away (%s)"
                case v x
                (I.to_string dom_tm.(i)))
          vars)
      witnesses
  done;
  if !witnessed < 300 then
    Alcotest.failf "only %d witnesses checked — generator drifted" !witnessed

(* [hc4_revise] on [ts] ∈ [target] over [dom]: the plain sweep keeps
   the target alive, the TM pass refutes the box outright, and the
   refutation counter ticks. *)
let check_tm_refutes ts ~target dom =
  let refs = Telemetry.Counter.make ~always:true "tm.refutations" in
  let tp = Tape.compile ~vars:[ "x" ] [ P.term ts ] in
  let sc = Tape.scratch tp in
  Alcotest.(check bool) "plain HC4 cannot refute" true
    (Tape.hc4_revise tp sc ~target (dom ()));
  let before = Telemetry.Counter.value refs in
  Alcotest.(check bool) "TM pass refutes" false
    (Tape.hc4_revise tp sc ~tm:true ~target (dom ()));
  Alcotest.(check bool) "refutation counted" true
    (Telemetry.Counter.value refs > before)

(* The canonical first-order refutation interval arithmetic cannot
   make: x − x is pinned to (near) zero by the shared symbol, so a
   target away from zero dies in the TM forward pass. *)
let test_hc4_tm_refutes_cancellation () =
  check_tm_refutes "x - x" ~target:(I.make 0.5 1.0) (fun () ->
      [| I.make 0.0 4.0 |])

(* The canonical second-order refutation: x·(1−x) on [0,1] has true
   range [0, 1/4], but one plain forward/backward sweep keeps the
   target alive (and an affine form's recentered product still reaches
   1/2) — only the kept ε² monomial kills the box. *)
let test_hc4_tm_refutes_quadratic () =
  check_tm_refutes "x*(1 - x)" ~target:(I.make 0.5 1.0) (fun () ->
      [| I.make 0.0 1.0 |])

(* ---- bit-identity digest of the two forward walkers ----

   The root ranges of the TM and interval walkers over seeded random
   terms, printed with %h and hashed.  The terms use only
   correctly rounded operations (+, −, ×, ÷, x², constants), so every
   bound is fixed by IEEE 754 alone and the digest does not depend on
   the platform's libm.  Raw constructors keep the smart constructors'
   simplifications out of the tapes.  The budget-2 leg makes every
   monomial family condense.  The committed digest pins the root
   ranges bit for bit, signed zeros included. *)

(* The terms and boxes come from SplitMix64 ({!Splitmix}), so they do
   not depend on the [Random] algorithm of a given OCaml release. *)
let digest_int = Splitmix.int
let digest_float = Splitmix.float

let rec rand_exact st depth =
  if depth = 0 || digest_int st 6 = 0 then
    match digest_int st 8 with
    | 0 -> T.Const 0.0
    | 1 -> T.Const (float_of_int (digest_int st 5 - 2))
    | 2 | 3 -> T.Const (digest_float st 4.0 -. 2.0)
    | _ -> T.Var (List.nth vars (digest_int st nvars))
  else
    let op = digest_int st 5 in
    let a = rand_exact st (depth - 1) in
    if op = 4 then T.Pow (a, 2)
    else
      let b = rand_exact st (depth - 1) in
      match op with
      | 0 -> T.Add (a, b)
      | 1 -> T.Sub (a, b)
      | 2 -> T.Mul (a, b)
      | _ -> T.Div (a, b)

(* Mostly moderate boxes, with singletons, zero-straddling, tiny and
   huge magnitudes mixed in so the demotion and overflow paths run. *)
let rand_digest_inputs st =
  Array.init nvars (fun _ ->
      let a = if digest_int st 16 = 0 then 0.0 else digest_float st 8.0 -. 4.0 in
      let w =
        match digest_int st 4 with
        | 0 -> 0.0
        | 1 -> digest_float st 0.01
        | _ -> digest_float st 4.0
      in
      let scale =
        match digest_int st 16 with 0 -> 0x1p-1000 | 1 -> 0x1p500 | _ -> 1.0
      in
      I.make (a *. scale) ((a +. w) *. scale))

let walker_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let add_range r =
    if I.is_empty r then Buffer.add_string buf "empty;"
    else Printf.bprintf buf "%h %h;" (I.lo r) (I.hi r)
  in
  let st = ref 73L in
  List.iter
    (fun budget ->
      TM.set_budget budget;
      for _ = 1 to 3_000 do
        let t = rand_exact st (1 + digest_int st 6) in
        let tp = Tape.compile ~vars [ t ] in
        let sc = Tape.scratch tp in
        let inputs = rand_digest_inputs st in
        let out = Array.make 1 I.empty in
        Tape.eval_tm_into tp sc ~inputs ~out;
        add_range out.(0);
        Tape.eval_interval_into tp sc ~inputs ~out;
        add_range out.(0)
      done)
    [ 64; 2 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_walker_digest () =
  Fun.protect ~finally:(fun () -> TM.set_budget TM.default_budget)
  @@ fun () ->
  Alcotest.(check string) "walker root ranges bit-identical"
    "ccca9d8970b697cf1d3e27473b405cce"
    (walker_digest ())

(* ---- bit-identity digest of every operation's full output ----

   The walker digest pins root ranges only, and an ulp moved inside a
   remainder often never reaches a root.  This digest hashes the whole
   [Tm.to_poly] output (constant, every key and coefficient, the
   remainder) and the concretization, printed with %h, of every public
   operation over seeded random models at budgets 64 and 2.  The
   operands include constants and linear models (empty families), sums
   where one side's family is empty (merges that keep the other side's
   arrays), squares (positive diagonals), differences that cancel to
   zero, models with the constant 1, and up to five symbols (families
   that condense at budget 2).

   [ring_ops] are the operations whose bits IEEE 754 fixes.  [libm_ops]
   evaluate libm functions ([exp], [log], [sin], [cos], [tan], [atan],
   [tanh], and [pow] behind [pow_int] past ±2), whose last bits may
   differ between libm builds, so their digest is checked only where
   [libm_probe] — those functions at seeded points — matches the
   platform the committed digests were computed on. *)

let digest_leaf st n =
  let sym = digest_int st n in
  match digest_int st 6 with
  | 0 ->
      TM.const
        (match digest_int st 4 with
        | 0 -> 0.0
        | 1 -> 1.0
        | 2 -> -1.0
        | _ -> digest_float st 4.0 -. 2.0)
  | 1 ->
      let a = digest_float st 2.0 in
      TM.of_interval ~sym (I.make (-.a) a)
  | _ ->
      let a = digest_float st 8.0 -. 4.0 in
      let w =
        match digest_int st 4 with
        | 0 -> 0.0
        | 1 -> digest_float st 0.01
        | _ -> digest_float st 4.0
      in
      TM.of_interval ~sym (I.make a (a +. w))

(* Every draw is its own [let], so the stream does not depend on the
   unspecified evaluation order of an application's arguments. *)
let rec digest_model st n depth =
  if depth = 0 || digest_int st 4 = 0 then digest_leaf st n
  else
    let sub () = digest_model st n (depth - 1) in
    let binary f =
      let a = sub () in
      let b = sub () in
      f a b
    in
    match digest_int st 10 with
    | 0 -> binary TM.add
    | 1 -> binary TM.sub
    | 2 -> binary TM.mul
    | 3 -> TM.sqr (sub ())
    | 4 ->
        let k = digest_float st 4.0 -. 2.0 in
        TM.scale k (sub ())
    | 5 ->
        let x = sub () in
        TM.sub x x
    | 6 -> binary (fun a b -> TM.add a (TM.sqr b))
    | 7 -> TM.add_const 1.0 (TM.sqr (sub ()))
    | 8 -> TM.inv (sub ())
    | _ ->
        let x = sub () in
        TM.add x (TM.const (digest_float st 2.0 -. 1.0))

let ring_ops st x y =
  let k = digest_float st 4.0 -. 2.0 in
  [ x; y; TM.neg x; TM.add x y; TM.add y x; TM.sub x y; TM.scale k x;
    TM.add_const k x; TM.mul x y; TM.mul y x; TM.sqr x; TM.inv x; TM.div x y;
    TM.pow_int x (-2); TM.pow_int x (-1); TM.pow_int x 0; TM.pow_int x 1;
    TM.pow_int x 2; TM.sqrt x; TM.abs x; TM.min_ x y; TM.max_ x y ]

let libm_ops _ x _ =
  [ TM.exp x; TM.log x; TM.sin x; TM.cos x; TM.tan x; TM.atan x; TM.tanh x;
    TM.pow_int x 3; TM.pow_int x (-3); TM.pow_int x 4 ]

let add_model buf m =
  (match TM.to_poly m with
  | None -> Buffer.add_string buf "bot"
  | Some p ->
      Printf.bprintf buf "%h" p.TM.constant;
      List.iter (fun (i, v) -> Printf.bprintf buf " l%d:%h" i v) p.TM.linear;
      List.iter (fun (i, v) -> Printf.bprintf buf " q%d:%h" i v) p.TM.square;
      List.iter (fun (i, j, v) -> Printf.bprintf buf " c%d,%d:%h" i j v) p.TM.cross;
      Printf.bprintf buf " r%h,%h" (I.lo p.TM.remainder) (I.hi p.TM.remainder));
  let r = TM.concretize m in
  if I.is_empty r then Buffer.add_string buf " =empty;"
  else Printf.bprintf buf " =%h,%h;" (I.lo r) (I.hi r)

let ops_digest ops =
  let buf = Buffer.create (1 lsl 20) in
  let st = ref 74L in
  Fun.protect ~finally:(fun () -> TM.set_budget TM.default_budget) @@ fun () ->
  List.iter
    (fun budget ->
      TM.set_budget budget;
      for _ = 1 to 2_000 do
        let n = 1 + digest_int st 5 in
        let x = digest_model st n 3 in
        let y = digest_model st n 3 in
        List.iter (add_model buf) (ops st x y)
      done)
    [ 64; 2 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let libm_probe () =
  let buf = Buffer.create (1 lsl 16) in
  let st = ref 75L in
  for _ = 1 to 10_000 do
    let m = digest_float st 2.0 -. 1.0 in
    let x = m *. Float.of_int (1 lsl digest_int st 8) in
    List.iter
      (fun f -> Printf.bprintf buf "%h;" (f x))
      [ Float.exp; (fun x -> Float.log (Float.abs x)); Float.sin; Float.cos;
        Float.tan; Float.atan; Float.tanh; (fun x -> Float.pow x 3.0);
        (fun x -> Float.pow x 4.0) ]
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_ops_digest () =
  Alcotest.(check string) "ring operations bit-identical"
    "8c15a5c869960ebe0f17a450a2f9bccf" (ops_digest ring_ops);
  if libm_probe () = "236816354c3e511b8672c7523a432b37" then
    Alcotest.(check string) "libm operations bit-identical"
      "ac0cc7c67acd4e8ee59ca0b554a88f6d" (ops_digest libm_ops)
  else print_endline "libm differs from the committed platform's: libm digest not checked"

(* ---- the truncated parts' interval products vs Ia.mul ----

   [Tm.trunc_mul_lo]/[trunc_mul_hi] skip the products with a subnormal
   bound when a product of two other bounds decides the fold.  They must
   give [Ia.mul]'s bounds bit for bit on every nonempty pair of
   intervals over an edge set of zeros, subnormals, the normal range's
   edges, 1, the largest float and infinities (both signs of each), and
   on 10⁶ seeded random quadruples that mix subnormal and normal
   bounds. *)
let test_trunc_mul_oracle () =
  let bits = Int64.bits_of_float in
  let check al ah bl bh =
    let r = I.mul (I.make al ah) (I.make bl bh) in
    let lo = TM.trunc_mul_lo al ah bl bh and hi = TM.trunc_mul_hi al ah bl bh in
    if bits lo <> bits (I.lo r) || bits hi <> bits (I.hi r) then
      Alcotest.failf "[%h, %h]·[%h, %h]: [%h, %h], Ia.mul gives [%h, %h]" al ah bl bh
        lo hi (I.lo r) (I.hi r)
  in
  let edges =
    List.concat_map
      (fun x -> [ x; -.x ])
      [ 0.0; 0x1p-1074; 0x1p-1073; 0x0.fffffffffffffp-1022; 0x1p-1022; 0x1p-537;
        1.0; Float.max_float; infinity ]
  in
  let pairs =
    List.concat_map
      (fun l -> List.filter_map (fun h -> if l <= h then Some (l, h) else None) edges)
      edges
  in
  List.iter (fun (al, ah) -> List.iter (fun (bl, bh) -> check al ah bl bh) pairs) pairs;
  let st = ref 76L in
  let bound () =
    let x =
      match digest_int st 4 with
      | 0 -> Int64.float_of_bits (Int64.of_int (1 + digest_int st 0xF_FFFF_FFFF_FFFF))
      | 1 -> Float.of_int (1 + digest_int st 4) *. 0x1p-1074
      | 2 ->
          let m = 0.5 +. digest_float st 1.0 in
          m *. Float.ldexp 1.0 (digest_int st 2046 - 1022)
      | _ -> digest_float st 4.0
    in
    if digest_int st 2 = 0 then -.x else x
  in
  for _ = 1 to 1_000_000 do
    let a = bound () in
    let a' = bound () in
    let b = bound () in
    let b' = bound () in
    check (Float.min a a') (Float.max a a') (Float.min b b') (Float.max b b')
  done

(* ---- TM on vs off: decide and pave agreement ---- *)

let with_tm flag f =
  TM.set_enabled flag;
  Fun.protect ~finally:TM.clear_enabled_override f

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
            with_tm true (fun () -> verdict_kind (S.decide ~config f bx))
          in
          let off =
            with_tm false (fun () -> verdict_kind (S.decide ~config f bx))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s at jobs=%d" name jobs)
            off on)
        [ 1; 2 ])
    decide_cases

(* Paving on vs off: leaf sets legitimately differ (the TM pass changes
   contraction trajectories and certifies sat leaves earlier), but both
   are proofs over the same box, so a sat leaf of one run may never
   share volume with an unsat leaf of the other; feasibility must
   agree; and the TM paving must be identical between jobs=1 and
   jobs=2. *)
let test_pave_on_vs_off () =
  let f =
    P.formula
      "x^3 - 2*x^2 + 1.25*x >= 0.2 and x^3 - 2*x^2 + 1.25*x <= 0.3 and \
       y^3 - 2*y^2 + 1.25*y >= 0.2 and y^3 - 2*y^2 + 1.25*y <= 0.3"
  in
  let bx = box [ ("x", 0.0, 2.0); ("y", 0.0, 2.0) ] in
  let config jobs = { S.default_config with S.epsilon = 0.05; jobs } in
  let p_on = with_tm true (fun () -> S.pave ~config:(config 1) f bx) in
  let p_off = with_tm false (fun () -> S.pave ~config:(config 1) f bx) in
  let contradicts sats unsats =
    List.exists
      (fun s -> List.exists (fun u -> Box.volume (Box.inter s u) > 0.0) unsats)
      sats
  in
  Alcotest.(check bool) "no sat(on)/unsat(off) contradiction" false
    (contradicts p_on.S.sat p_off.S.unsat);
  Alcotest.(check bool) "no sat(off)/unsat(on) contradiction" false
    (contradicts p_off.S.sat p_on.S.unsat);
  (* The band is feasible; at this ε the interval certifier leaves it
     all undecided while the TM certifier proves sat leaves — that gap
     is the point of the enclosure-assisted certification.  Every
     TM-certified leaf must actually satisfy the formula: check the
     center point of each. *)
  Alcotest.(check bool) "TM certifies the feasible band" true
    (p_on.S.sat <> []);
  List.iter
    (fun leaf ->
      match Expr.Formula.eval_cert (Box.midpoint leaf) f with
      | Expr.Formula.Impossible ->
          Alcotest.failf "TM-certified leaf %s has infeasible center"
            (Box.to_string leaf)
      | _ -> ())
    p_on.S.sat;
  let sort = List.sort (fun a b -> compare (Box.to_list a) (Box.to_list b)) in
  let p_on2 = with_tm true (fun () -> S.pave ~config:(config 2) f bx) in
  List.iter
    (fun (label, l, l') ->
      Alcotest.(check bool)
        (Printf.sprintf "%s leaves equal at jobs=2" label)
        true
        (List.equal Box.equal (sort l) (sort l')))
    [ ("sat", p_on.S.sat, p_on2.S.sat);
      ("unsat", p_on.S.unsat, p_on2.S.unsat);
      ("undecided", p_on.S.undecided, p_on2.S.undecided) ]

(* The pave certifier reads the TM switch when a paving starts: it
   certifies the band's sat leaves only when it is on (at this ε the
   interval classifier alone leaves the band undecided), and a run under
   each setting sees that setting whatever ran before. *)
let test_pave_certifier_follows_switches () =
  let f =
    P.formula
      "x^3 - 2*x^2 + 1.25*x >= 0.2 and x^3 - 2*x^2 + 1.25*x <= 0.3 and \
       y^3 - 2*y^2 + 1.25*y >= 0.2 and y^3 - 2*y^2 + 1.25*y <= 0.3"
  in
  let bx = box [ ("x", 0.0, 2.0); ("y", 0.0, 2.0) ] in
  let config = { S.default_config with S.epsilon = 0.05; jobs = 1 } in
  let sat_leaves tm = with_tm tm (fun () -> List.length (S.pave ~config f bx).S.sat) in
  let certified = sat_leaves true in
  Alcotest.(check bool) "TM certifies the band" true (certified > 0);
  Alcotest.(check int) "no certified leaf with TM off" 0 (sat_leaves false);
  Alcotest.(check int) "TM again" certified (sat_leaves true)

(* ---- the kill-switch: BIOMC_NO_TM reproduces the old search ---- *)

(* Off-run, on-run, off-run again — with the caches at their default
   setting.  The second off-run must match the first in verdict kind AND
   in every stats field: any divergence would mean TM-era state (a
   cache entry, a compiled closure) leaked into the disabled search. *)
let stats_tuple (s : S.stats) =
  (s.S.boxes_processed, s.S.splits, s.S.prunings, s.S.max_depth,
   s.S.certifications)

let test_killswitch_decide_bitforbit () =
  List.iter
    (fun (name, fs, bx) ->
      let f = P.formula fs in
      let run on =
        with_tm on (fun () ->
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

(* The off-run leaf sets are compared through the same canonical
   fingerprint [biomc explain] uses to check reconstructed pavings, so
   "bit for bit" here means the digest of every leaf box endpoint. *)
let fingerprint paving =
  let bounds b =
    Array.of_list
      (List.map (fun (v, itv) -> (v, I.lo itv, I.hi itv)) (Box.to_list b))
  in
  J.leaf_bounds_fingerprint
    (List.map bounds (paving.S.sat @ paving.S.unsat @ paving.S.undecided))

let test_killswitch_pave_bitforbit () =
  let f = P.formula "x^2 + y^2 <= 1 and x^2 + y^2 >= 1/2" in
  let bx = box [ ("x", -1.5, 1.5); ("y", -1.5, 1.5) ] in
  let config = { S.default_config with S.epsilon = 0.05 } in
  let run on = with_tm on (fun () -> S.pave ~config f bx) in
  let p1 = run false in
  let _ = run true in
  let p2 = run false in
  Alcotest.(check string) "off leaf-set fingerprint reproduced"
    (fingerprint p1) (fingerprint p2);
  let sort = List.sort (fun a b -> compare (Box.to_list a) (Box.to_list b)) in
  List.iter
    (fun (label, l, l') ->
      Alcotest.(check bool)
        (Printf.sprintf "off %s leaves reproduced" label)
        true
        (List.equal Box.equal (sort l) (sort l')))
    [ ("sat", p1.S.sat, p2.S.sat);
      ("unsat", p1.S.unsat, p2.S.unsat);
      ("undecided", p1.S.undecided, p2.S.undecided) ]

let () =
  Alcotest.run "tm"
    [ ( "soundness",
        [ Alcotest.test_case "TM range contains sampled values" `Quick
            test_tm_soundness_sampled;
          Alcotest.test_case "dependency tightness pinned" `Quick
            test_tm_tightness_dependency;
          Alcotest.test_case "second-order tightness pinned" `Quick
            test_tm_tightness_quadratic;
          Alcotest.test_case "walker outputs match committed digest" `Quick
            test_walker_digest;
          Alcotest.test_case "constant divisors match Tm.div" `Quick
            test_const_divisor_edges;
          Alcotest.test_case "every operation's output matches committed digest"
            `Quick test_ops_digest;
          Alcotest.test_case "truncation products match Ia.mul" `Quick
            test_trunc_mul_oracle;
          Alcotest.test_case "linear sqr truncation pinned" `Quick
            test_linear_sqr_truncation_pinned ] );
      ( "exact",
        [ Alcotest.test_case "add encloses exact values" `Quick test_exact_add;
          Alcotest.test_case "sub encloses exact values" `Quick test_exact_sub;
          Alcotest.test_case "scale encloses exact values" `Quick
            test_exact_scale;
          Alcotest.test_case "neg and add_const enclose exact values" `Quick
            test_exact_lin_map;
          Alcotest.test_case "mul encloses exact values" `Quick test_exact_mul;
          Alcotest.test_case "sqr encloses exact values" `Quick test_exact_sqr ]
      );
      ( "condensation",
        [ Alcotest.test_case "condense only widens" `Quick
            test_condense_encloses;
          Alcotest.test_case "tiny budget stays sound" `Quick
            test_budget_soundness ] );
      ( "bernstein",
        [ Alcotest.test_case "bound sound and within control hull" `Quick
            test_bernstein_bound;
          Alcotest.test_case "sqr range pinned to [0,1]" `Quick
            test_bernstein_sqr_pinned;
          Alcotest.test_case "degree-3 truncation counted" `Quick
            test_truncation_counted;
          Alcotest.test_case "degree-2 products count no truncation" `Quick
            test_truncation_only_high_degree ] );
      ( "hc4",
        [ Alcotest.test_case "never loses a witness" `Quick
            test_hc4_tm_witnesses;
          Alcotest.test_case "refutes x-x dependency" `Quick
            test_hc4_tm_refutes_cancellation;
          Alcotest.test_case "refutes x(1-x) quadratic" `Quick
            test_hc4_tm_refutes_quadratic ] );
      ( "search",
        [ Alcotest.test_case "decide on vs off (jobs 1, 2)" `Quick
            test_decide_on_vs_off;
          Alcotest.test_case "pave on vs off consistency" `Quick
            test_pave_on_vs_off;
          Alcotest.test_case "pave certifier follows the switches" `Quick
            test_pave_certifier_follows_switches ] );
      ( "kill-switch",
        [ Alcotest.test_case "decide off-run reproduced" `Quick
            test_killswitch_decide_bitforbit;
          Alcotest.test_case "pave off-run fingerprint reproduced" `Quick
            test_killswitch_pave_bitforbit ] ) ]
