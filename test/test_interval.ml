(* Unit and property tests for the interval arithmetic substrate. *)

module I = Interval.Ia
module Box = Interval.Box

let check_mem what x i =
  Alcotest.(check bool) (Printf.sprintf "%s: %.17g ∈ %s" what x (I.to_string i)) true (I.mem x i)

(* ---- Unit tests ---- *)

let test_construction () =
  let i = I.make 1.0 2.0 in
  Alcotest.(check (float 0.0)) "lo" 1.0 (I.lo i);
  Alcotest.(check (float 0.0)) "hi" 2.0 (I.hi i);
  Alcotest.(check bool) "mem mid" true (I.mem 1.5 i);
  Alcotest.(check bool) "not mem" false (I.mem 2.5 i);
  Alcotest.check_raises "lo > hi" (Invalid_argument "Ia.make: lo > hi") (fun () ->
      ignore (I.make 2.0 1.0));
  Alcotest.(check bool) "empty is empty" true (I.is_empty I.empty);
  Alcotest.(check bool) "nan makes empty" true (I.is_empty (I.make nan 1.0))

let test_lattice () =
  let a = I.make 0.0 2.0 and b = I.make 1.0 3.0 and c = I.make 5.0 6.0 in
  Alcotest.(check bool) "overlap" true (I.overlap a b);
  Alcotest.(check bool) "no overlap" false (I.overlap a c);
  Alcotest.(check bool) "inter" true (I.equal (I.inter a b) (I.make 1.0 2.0));
  Alcotest.(check bool) "disjoint inter empty" true (I.is_empty (I.inter a c));
  Alcotest.(check bool) "hull" true (I.equal (I.hull a c) (I.make 0.0 6.0));
  Alcotest.(check bool) "subset" true (I.subset (I.make 1.0 1.5) a);
  Alcotest.(check bool) "not subset" false (I.subset b a);
  Alcotest.(check bool) "empty subset of all" true (I.subset I.empty a)

let test_midpoint_width () =
  let i = I.make 1.0 3.0 in
  Alcotest.(check (float 1e-12)) "mid" 2.0 (I.mid i);
  Alcotest.(check bool) "width >= 2" true (I.width i >= 2.0);
  Alcotest.(check bool) "width close" true (I.width i < 2.0 +. 1e-9);
  Alcotest.(check bool) "mid of entire finite" true (Float.is_finite (I.mid I.entire));
  Alcotest.(check bool) "mid inside" true (I.mem (I.mid i) i);
  let huge = I.make (-.Float.max_float) Float.max_float in
  Alcotest.(check bool) "mid of huge finite" true (Float.is_finite (I.mid huge))

let test_arithmetic_exact () =
  let a = I.make 1.0 2.0 and b = I.make 3.0 5.0 in
  check_mem "add" 6.0 (I.add a b);
  check_mem "add lo" 4.0 (I.add a b);
  check_mem "sub" (-4.0) (I.sub a b);
  check_mem "mul" 10.0 (I.mul a b);
  check_mem "mul lo" 3.0 (I.mul a b);
  check_mem "div" (2.0 /. 3.0) (I.div a b);
  let m = I.mul (I.make (-2.0) 3.0) (I.make (-5.0) 1.0) in
  check_mem "mixed mul hi" 10.0 m;
  check_mem "mixed mul lo" (-15.0) m;
  Alcotest.(check bool) "mixed mul tight-ish" true (I.lo m >= -15.1 && I.hi m <= 10.1)

let test_division_zero () =
  let a = I.make 1.0 2.0 in
  Alcotest.(check bool) "div by straddling zero = entire" true
    (I.is_entire (I.div a (I.make (-1.0) 1.0)));
  Alcotest.(check bool) "div by zero singleton empty" true
    (I.is_empty (I.div a I.zero));
  let d = I.div a (I.make 0.0 2.0) in
  Alcotest.(check bool) "div by [0,2] unbounded above" true (I.hi d = infinity);
  Alcotest.(check bool) "div by [0,2] lo <= 0.5" true (I.lo d <= 0.5)

let test_sqr_pow () =
  let i = I.make (-2.0) 3.0 in
  let s = I.sqr i in
  Alcotest.(check bool) "sqr contains 0" true (I.mem 0.0 s);
  check_mem "sqr hi" 9.0 s;
  Alcotest.(check bool) "sqr lo is 0" true (I.lo s = 0.0);
  let p3 = I.pow_int i 3 in
  check_mem "pow3 lo" (-8.0) p3;
  check_mem "pow3 hi" 27.0 p3;
  let p4 = I.pow_int i 4 in
  check_mem "pow4 hi" 81.0 p4;
  Alcotest.(check bool) "pow4 lo 0" true (I.lo p4 = 0.0);
  let pneg = I.pow_int (I.make 2.0 4.0) (-1) in
  check_mem "pow -1" 0.25 pneg;
  check_mem "pow -1 hi" 0.5 pneg

let test_transcendental_domains () =
  Alcotest.(check bool) "sqrt of negative empty" true (I.is_empty (I.sqrt (I.make (-2.0) (-1.0))));
  Alcotest.(check bool) "sqrt clips" true (I.lo (I.sqrt (I.make (-1.0) 4.0)) = 0.0);
  Alcotest.(check bool) "log of nonpositive empty" true (I.is_empty (I.log (I.make (-2.0) 0.0)));
  Alcotest.(check bool) "log clips to -inf" true (I.lo (I.log (I.make 0.0 1.0)) = neg_infinity);
  check_mem "exp 0" 1.0 (I.exp I.zero);
  Alcotest.(check bool) "exp nonneg" true (I.lo (I.exp (I.make (-100.0) 0.0)) >= 0.0)

let test_trig () =
  let pi = Float.pi in
  let c = I.cos (I.make 0.0 pi) in
  check_mem "cos [0,pi] contains -1" (-1.0) c;
  check_mem "cos [0,pi] contains 1" 1.0 c;
  let c2 = I.cos (I.make 0.1 1.0) in
  Alcotest.(check bool) "cos [0.1,1] below 1" true (I.hi c2 < 1.0);
  check_mem "cos 0.5" (Float.cos 0.5) c2;
  let s = I.sin (I.make 0.0 (pi /. 2.0)) in
  check_mem "sin contains 1 endpoint region" 0.999999 s;
  check_mem "sin contains 0" 0.0 s;
  let s2 = I.sin (I.make 0.1 0.2) in
  Alcotest.(check bool) "narrow sin tight" true (I.width s2 < 0.2);
  let t = I.tan (I.make 1.0 2.0) in
  Alcotest.(check bool) "tan across pi/2 entire" true (I.is_entire t);
  let t2 = I.tan (I.make 0.1 0.2) in
  check_mem "tan 0.15" (Float.tan 0.15) t2;
  let big = I.cos (I.make 0.0 100.0) in
  Alcotest.(check bool) "cos wide = [-1,1]" true (I.equal big (I.make (-1.0) 1.0))

(* Trigonometry far from the origin must terminate.  [contains_multiple]
   used to scan candidate multiples k of 2pi by [k +. 1.0], which stops
   moving k from 2^53 on: cos and tan of the point below never
   returned.  Each interval runs in its own domain with a 1 s deadline,
   so a regression fails here instead of hanging the suite.  Besides
   that point, a SplitMix64 sweep of points and one-ulp intervals with
   magnitudes in [2^52, 2^64]; every result must contain libm's value
   at the interval's lower end. *)

let with_deadline ~seconds what f =
  let result = Atomic.make None in
  let _worker : unit Domain.t =
    Domain.spawn (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Telemetry.now_ns () + int_of_float (seconds *. 1e9) in
  let rec wait () =
    match Atomic.get result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None ->
        (* A hung worker is left running: a domain cannot be stopped,
           and the process exits when the suite ends. *)
        if Telemetry.now_ns () > deadline then Alcotest.failf "%s: no result within %g s" what seconds;
        Domain.cpu_relax ();
        wait ()
  in
  wait ()

let test_trig_far () =
  let check_far i =
    let x = I.lo i in
    let what = Printf.sprintf "[%h, %h]" x (I.hi i) in
    let c, t = with_deadline ~seconds:1.0 what (fun () -> (I.cos i, I.tan i)) in
    check_mem ("cos " ^ what) (Float.cos x) c;
    let tx = Float.tan x in
    Alcotest.(check bool) ("tan " ^ what) true (I.mem tx t || (Float.is_nan tx && I.is_entire t))
  in
  check_far (I.of_float 0x1.eddad6397735cp+61);
  let st = ref 97L in
  for _ = 1 to 200 do
    let e = 52 + Splitmix.int st 12 in
    let x = Float.ldexp (1.0 +. Splitmix.float st 1.0) e in
    let x = if Splitmix.int st 2 = 0 then x else -.x in
    check_far (I.of_float x);
    check_far (I.make x (Float.succ x))
  done

let test_root_atanh () =
  let r = I.root (I.make 4.0 9.0) 2 in
  check_mem "sqrt-root 2" 2.0 r;
  check_mem "sqrt-root 3" 3.0 r;
  let r3 = I.root (I.make (-8.0) 27.0) 3 in
  check_mem "cbrt -2" (-2.0) r3;
  check_mem "cbrt 3" 3.0 r3;
  Alcotest.(check bool) "even root of negative empty" true
    (I.is_empty (I.root (I.make (-4.0) (-1.0)) 2));
  let a = I.atanh (I.make (-0.5) 0.5) in
  check_mem "atanh 0" 0.0 a;
  check_mem "atanh 0.4" (0.5 *. Float.log (1.4 /. 0.6)) a;
  Alcotest.(check bool) "atanh outside domain empty" true
    (I.is_empty (I.atanh (I.make 2.0 3.0)))

let test_sign_queries () =
  Alcotest.(check bool) "certainly gt" true (I.certainly_gt_zero (I.make 0.5 1.0));
  Alcotest.(check bool) "not certainly gt" false (I.certainly_gt_zero (I.make 0.0 1.0));
  Alcotest.(check bool) "certainly ge" true (I.certainly_ge_zero (I.make 0.0 1.0));
  Alcotest.(check bool) "possibly gt with delta" true
    (I.possibly_gt ~delta:0.1 (I.make (-1.0) (-0.05)));
  Alcotest.(check bool) "not possibly gt" false
    (I.possibly_gt ~delta:0.1 (I.make (-1.0) (-0.5)))

let test_box_basics () =
  let b = Box.of_list [ ("x", I.make 0.0 1.0); ("y", I.make 2.0 6.0) ] in
  Alcotest.(check int) "cardinal" 2 (Box.cardinal b);
  Alcotest.(check bool) "find" true (I.equal (Box.find "y" b) (I.make 2.0 6.0));
  Alcotest.(check bool) "volume" true (Box.volume b >= 4.0 && Box.volume b < 4.001);
  let name, w = Box.max_dim b in
  Alcotest.(check (option string)) "widest" (Some "y") name;
  Alcotest.(check bool) "widest width" true (w >= 4.0);
  (match Box.split b with
  | Some (l, r) ->
      Alcotest.(check bool) "split on y left" true (I.equal (Box.find "y" l) (I.make 2.0 4.0));
      Alcotest.(check bool) "split on y right" true (I.equal (Box.find "y" r) (I.make 4.0 6.0));
      Alcotest.(check bool) "x untouched" true (I.equal (Box.find "x" l) (I.make 0.0 1.0))
  | None -> Alcotest.fail "split returned None");
  Alcotest.(check bool) "contains mid env" true (Box.contains_env (Box.mid_env b) b);
  let empty_b = Box.set "x" I.empty b in
  Alcotest.(check bool) "empty box" true (Box.is_empty empty_b)

let test_box_set_ops () =
  let b1 = Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ] in
  let b2 = Box.of_list [ ("x", I.make 1.0 3.0); ("y", I.make 1.0 3.0) ] in
  let bi = Box.inter b1 b2 in
  Alcotest.(check bool) "inter x" true (I.equal (Box.find "x" bi) (I.make 1.0 2.0));
  let bh = Box.hull b1 b2 in
  Alcotest.(check bool) "hull y" true (I.equal (Box.find "y" bh) (I.make 0.0 3.0));
  Alcotest.(check bool) "subset" true (Box.subset bi b1);
  Alcotest.(check bool) "not subset" false (Box.subset b1 b2)

let test_rounding_direction () =
  let module R = Interval.Round in
  List.iter
    (fun x ->
      Alcotest.(check bool) "one step below" true (R.next_down x < x);
      Alcotest.(check bool) "one step above" true (R.next_up x > x);
      Alcotest.(check bool) "two steps below one" true
        (R.next_down (R.next_down x) < R.next_down x);
      Alcotest.(check bool) "two steps above one" true
        (R.next_up (R.next_up x) > R.next_up x))
    [ 1.0; -1.0; 0.5; 1e-300; 1e300; -3.14159 ];
  Alcotest.(check bool) "infinities fixed" true
    (R.next_up infinity = infinity && R.next_down neg_infinity = neg_infinity);
  Alcotest.(check bool) "pi enclosed" true (R.pi_lo < Float.pi && Float.pi < R.pi_hi);
  Alcotest.(check bool) "2pi enclosed" true
    (R.two_pi_lo < 2.0 *. Float.pi && 2.0 *. Float.pi < R.two_pi_hi)

(* ---- Exact successor and predecessor vs libm ----

   [Round.next_up]/[next_down] compute the round-to-nearest successor
   and predecessor with float arithmetic alone, and each kernel module
   carries an inline copy.  libm's [nextafter] is the reference,
   compared bit for bit (any NaN matches any NaN). *)

let libm_up x = Interval.Round.next_after x infinity
let libm_down x = Interval.Round.next_after x neg_infinity

let same_bits a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* NaN; ±0, ±2^-1022, ±2^-1021, ±2^-969 (the formula's branch points),
   ±max_float and ±inf, each with both neighbours; every power of two
   from 2^-1074 to 2^1023 with both neighbours; then [random] seeded
   bit patterns. *)
let iter_succ_inputs ~random f =
  f nan;
  let with_neighbours x =
    List.iter (fun y -> f y; f (-.y)) [ libm_down x; x; libm_up x ]
  in
  List.iter with_neighbours
    [ 0.0; 0x1p-1022; 0x1p-1021; 0x1p-969; Float.max_float; infinity ];
  for k = -1074 to 1023 do
    with_neighbours (Float.ldexp 1.0 k)
  done;
  let st = Random.State.make [| 75 |] in
  for _ = 1 to random do
    f (Int64.float_of_bits (Random.State.bits64 st))
  done

let check_same what x got want =
  if not (same_bits got want) then
    Alcotest.failf "%s %h (bits %Lx): got %h, libm gives %h" what x
      (Int64.bits_of_float x) got want

let test_succ_pred_vs_libm () =
  let module R = Interval.Round in
  let n = ref 0 in
  iter_succ_inputs ~random:1_000_000 (fun x ->
      incr n;
      check_same "next_up" x (R.next_up x) (libm_up x);
      check_same "next_down" x (R.next_down x) (libm_down x));
  if !n < 1_000_000 then Alcotest.failf "only %d inputs checked" !n;
  (* The case x + 2^-1074 alone gets wrong: it rounds to +0, libm's
     successor of -2^-1074 is -0. *)
  Alcotest.(check int64) "next_up (-2^-1074) is -0"
    (Int64.bits_of_float (-0.0))
    (Int64.bits_of_float (R.next_up (-0x1p-1074)))

(* Each kernel module's inline copy, reached through its public API on
   a point: the bounds must be libm's neighbours of x + 0. *)
let test_kernel_copies_vs_libm () =
  let module TM = Interval.Tm in
  let module T = Expr.Term in
  let module Tape = Expr.Tape in
  (* Raw constructors: the smart [Term.add] would drop the + 0. *)
  let tp = Tape.compile ~vars:[ "x" ] [ T.Add (T.Var "x", T.Const 0.0) ] in
  let sc = Tape.scratch tp in
  let check what x r lo_arg =
    if Float.is_nan x then begin
      if not (I.is_empty r) then
        Alcotest.failf "%s: nan input gave %s" what (I.to_string r)
    end
    else begin
      check_same (what ^ " lower bound") x (I.lo r) (libm_down lo_arg);
      check_same (what ^ " upper bound") x (I.hi r) (libm_up (x +. 0.0))
    end
  in
  iter_succ_inputs ~random:1_000_000 (fun x ->
      check "Ia.add" x (I.add (I.of_float x) I.zero) (x +. 0.0);
      check "Tape OAdd" x (Tape.eval_interval tp sc [| I.of_float x |]) (x +. 0.0);
      (* Non-finite constants are interval fallbacks: nothing rounds. *)
      if Float.is_finite x then
        check "Tm.concretize" x (TM.concretize (TM.const x)) (x +. 0.0))

(* ---- Rounding audit against exact arithmetic ----

   The ring operations must enclose the exact real result.  The oracle
   is error-free transformations, sharing no code with [Round]: for a
   sum, TwoSum gives the rounded value s and the exact error e with
   x + y = s + e; for a product, TwoProduct through [Float.fma].  Since
   s is the exact value rounded to nearest, a float b is below the
   exact value iff b < s, or b = s and e >= 0 (and dually above).  A
   product too small for TwoProduct to be exact is first scaled by
   powers of two, bounds included; an overflowed s is checked against
   the open range beyond max_float. *)

let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  (s, (a -. (s -. bb)) +. (b -. bb))

(* [lo, hi] contains the exact s + e. *)
let encloses_exact lo hi s e =
  if s = infinity then hi = infinity && lo < infinity
  else if s = neg_infinity then lo = neg_infinity && hi > neg_infinity
  else if not (Float.is_finite e) then false
  else (lo < s || (lo = s && e >= 0.0)) && (hi > s || (hi = s && e <= 0.0))

let encloses_sum lo hi a b =
  let s, e = two_sum a b in
  encloses_exact lo hi s e

(* Scale the smaller factor up by 2^600 (the bounds with it) until the
   product is at least 2^-900, where TwoProduct is exact.  Scaling a
   bound up is exact or overflows to the infinity on its own side, which
   keeps every comparison with the (finite) scaled product. *)
let rec encloses_product lo hi a b =
  let p = a *. b in
  if Float.abs p < 0x1p-900 && a <> 0.0 && b <> 0.0 then
    if Float.abs a <= Float.abs b then
      encloses_product (lo *. 0x1p600) (hi *. 0x1p600) (a *. 0x1p600) b
    else encloses_product (lo *. 0x1p600) (hi *. 0x1p600) a (b *. 0x1p600)
  else encloses_exact lo hi p (Float.fma a b (-.p))

(* Finite operands from every magnitude class, signed zeros included. *)
let audit_float st =
  let sign x = if Random.State.bool st then x else -.x in
  let mantissa () = Random.State.bits64 st |> Int64.logand 0xF_FFFF_FFFF_FFFFL in
  let with_exponent e =
    Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int e) 52) (mantissa ()))
  in
  match Random.State.int st 8 with
  | 0 -> sign 0.0
  | 1 -> sign (with_exponent 0) (* subnormal *)
  | 2 -> sign (with_exponent (1 + Random.State.int st 60)) (* near the normal threshold *)
  | 3 -> sign (with_exponent (2046 - Random.State.int st 60)) (* near overflow *)
  | 4 -> sign (float_of_int (Random.State.int st 9))
  | 5 -> sign (with_exponent (1023 + Random.State.int st 4)) (* around 1 *)
  | _ ->
      let x = Int64.float_of_bits (Random.State.bits64 st) in
      if Float.is_finite x then x else sign 1.5

let audit_itv st =
  let a = audit_float st in
  if Random.State.int st 3 = 0 then I.of_float a
  else
    let b = if Random.State.bool st then audit_float st else -.a in
    I.make_unordered a b

let test_rounding_audit () =
  let module T = Expr.Term in
  let module Tape = Expr.Tape in
  let vars = [ "x"; "y" ] in
  let tape t =
    let tp = Tape.compile ~vars [ t ] in
    let sc = Tape.scratch tp in
    fun a b -> Tape.eval_interval tp sc [| a; b |]
  in
  let x = T.Var "x" and y = T.Var "y" in
  let t_add = tape (T.Add (x, y)) and t_sub = tape (T.Sub (x, y))
  and t_mul = tape (T.Mul (x, y)) and t_sqr = tape (T.Pow (x, 2)) in
  let st = Random.State.make [| 76 |] in
  let fail what a b r =
    Alcotest.failf "%s [%h, %h] [%h, %h] = [%h, %h] misses an exact endpoint result"
      what (I.lo a) (I.hi a) (I.lo b) (I.hi b) (I.lo r) (I.hi r)
  in
  for _ = 1 to 100_000 do
    let a = audit_itv st and b = audit_itv st in
    let al = I.lo a and ah = I.hi a and bl = I.lo b and bh = I.hi b in
    List.iter
      (fun (what, r) ->
        if not (encloses_sum (I.lo r) (I.hi r) al bl && encloses_sum (I.lo r) (I.hi r) ah bh)
        then fail what a b r)
      [ ("Ia.add", I.add a b); ("Tape OAdd", t_add a b) ];
    List.iter
      (fun (what, r) ->
        if
          not
            (encloses_sum (I.lo r) (I.hi r) al (-.bh)
            && encloses_sum (I.lo r) (I.hi r) ah (-.bl))
        then fail what a b r)
      [ ("Ia.sub", I.sub a b); ("Tape OSub", t_sub a b) ];
    List.iter
      (fun (what, r) ->
        let lo = I.lo r and hi = I.hi r in
        if
          not
            (encloses_product lo hi al bl && encloses_product lo hi al bh
            && encloses_product lo hi ah bl && encloses_product lo hi ah bh)
        then fail what a b r)
      [ ("Ia.mul", I.mul a b); ("Tape OMul", t_mul a b) ];
    List.iter
      (fun (what, r) ->
        let lo = I.lo r and hi = I.hi r in
        let zero_in = al <= 0.0 && 0.0 <= ah in
        if
          not
            (encloses_product lo hi al al && encloses_product lo hi ah ah
            && ((not zero_in) || (lo <= 0.0 && 0.0 <= hi)))
        then fail what a a r)
      [ ("Ia.sqr", I.sqr a); ("Tape OPow 2", t_sqr a b) ]
  done

(* ---- Property tests ---- *)

let finite_float lo hi = QCheck.Gen.float_range lo hi

let interval_gen =
  QCheck.Gen.(
    map2
      (fun a b -> I.make_unordered a b)
      (finite_float (-50.0) 50.0) (finite_float (-50.0) 50.0))

let point_in i =
  QCheck.Gen.(
    map (fun t -> I.lo i +. (t *. (I.hi i -. I.lo i))) (float_range 0.0 1.0))

let arb_interval = QCheck.make ~print:I.to_string interval_gen

let arb_interval_with_point =
  let gen =
    QCheck.Gen.(
      interval_gen >>= fun i ->
      point_in i >>= fun x -> return (i, x))
  in
  QCheck.make ~print:(fun (i, x) -> Printf.sprintf "(%s, %.17g)" (I.to_string i) x) gen

let arb_pair_with_points =
  let gen =
    QCheck.Gen.(
      interval_gen >>= fun a ->
      interval_gen >>= fun b ->
      point_in a >>= fun x ->
      point_in b >>= fun y -> return (a, b, x, y))
  in
  QCheck.make
    ~print:(fun (a, b, x, y) ->
      Printf.sprintf "(%s, %s, %.17g, %.17g)" (I.to_string a) (I.to_string b) x y)
    gen

let prop_containment name op_i op_f =
  QCheck.Test.make ~count:500 ~name arb_pair_with_points (fun (a, b, x, y) ->
      let r = op_f x y in
      Float.is_nan r || I.mem r (op_i a b))

let prop_unary_containment name op_i op_f =
  QCheck.Test.make ~count:500 ~name arb_interval_with_point (fun (i, x) ->
      let r = op_f x in
      Float.is_nan r || Float.abs r = infinity || I.mem r (op_i i))

let prop_inflate_subset =
  QCheck.Test.make ~count:200 ~name:"inflate contains original" arb_interval (fun i ->
      I.subset i (I.inflate 0.1 i))

let prop_split_cover =
  QCheck.Test.make ~count:200 ~name:"split halves cover" arb_interval_with_point
    (fun (i, x) ->
      let l, r = I.split i in
      I.mem x l || I.mem x r)

let prop_hull_contains =
  QCheck.Test.make ~count:200 ~name:"hull contains both" arb_pair_with_points
    (fun (a, b, x, y) -> I.mem x (I.hull a b) && I.mem y (I.hull a b))

let prop_root_inverse =
  QCheck.Test.make ~count:300 ~name:"root inverts pow_int"
    (QCheck.make
       ~print:(fun (i, n) -> Printf.sprintf "(%s, %d)" (I.to_string i) n)
       QCheck.Gen.(
         pair
           (map2 (fun a b -> I.make_unordered a b) (float_range 0.01 10.0)
              (float_range 0.01 10.0))
           (int_range 1 5)))
    (fun (i, n) -> I.subset i (I.root (I.pow_int i n) n))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_containment "add containment" I.add ( +. );
      prop_containment "sub containment" I.sub ( -. );
      prop_containment "mul containment" I.mul ( *. );
      prop_containment "div containment" I.div ( /. );
      prop_containment "min containment" I.min_ Float.min;
      prop_containment "max containment" I.max_ Float.max;
      prop_unary_containment "neg containment" I.neg (fun x -> -.x);
      prop_unary_containment "sqr containment" I.sqr (fun x -> x *. x);
      prop_unary_containment "exp containment" I.exp Float.exp;
      prop_unary_containment "log containment" I.log Float.log;
      prop_unary_containment "sqrt containment" I.sqrt Float.sqrt;
      prop_unary_containment "sin containment" I.sin Float.sin;
      prop_unary_containment "cos containment" I.cos Float.cos;
      prop_unary_containment "atan containment" I.atan Float.atan;
      prop_unary_containment "tanh containment" I.tanh Float.tanh;
      prop_unary_containment "abs containment" I.abs Float.abs;
      prop_inflate_subset;
      prop_split_cover;
      prop_hull_contains;
      prop_root_inverse;
    ]

let () =
  Alcotest.run "interval"
    [
      ( "unit",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "lattice" `Quick test_lattice;
          Alcotest.test_case "midpoint and width" `Quick test_midpoint_width;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic_exact;
          Alcotest.test_case "division by zero" `Quick test_division_zero;
          Alcotest.test_case "sqr and pow" `Quick test_sqr_pow;
          Alcotest.test_case "transcendental domains" `Quick test_transcendental_domains;
          Alcotest.test_case "trigonometry" `Quick test_trig;
          Alcotest.test_case "trigonometry far from the origin" `Quick test_trig_far;
          Alcotest.test_case "root and atanh" `Quick test_root_atanh;
          Alcotest.test_case "sign queries" `Quick test_sign_queries;
          Alcotest.test_case "rounding direction" `Quick test_rounding_direction;
          Alcotest.test_case "successor and predecessor match libm" `Quick
            test_succ_pred_vs_libm;
          Alcotest.test_case "kernel rounding copies match libm" `Quick
            test_kernel_copies_vs_libm;
          Alcotest.test_case "ring operations enclose exact results" `Quick
            test_rounding_audit;
          Alcotest.test_case "box basics" `Quick test_box_basics;
          Alcotest.test_case "box set ops" `Quick test_box_set_ops;
        ] );
      ("properties", qcheck_tests);
    ]
