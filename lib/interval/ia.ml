(* Scalar interval arithmetic with outward rounding.

   An interval is a closed connected subset of the extended reals,
   represented by its two bounds.  The empty interval is encoded with NaN
   bounds and is propagated by every operation.  All arithmetic is
   *outward rounded* (see {!Round}), so for every operation [op] and all
   points [x ∈ a], [y ∈ b] it holds that [op x y ∈ op a b]: enclosures are
   sound, never exact. *)

type t = { lo : float; hi : float }

(* Inline copies of {!Round.next_down} and {!Round.next_up}, the exact
   round-to-nearest predecessor and successor: a call into [Round] is
   never inlined under [-opaque] and would box its argument and result
   (see round.mli). *)
let[@inline] down x =
  let a = Float.abs x in
  if a >= 0x1p-969 then
    if x = infinity then Float.max_float else x -. (0x1.0000000000001p-53 *. a)
  else if a < 0x1p-1021 then x -. 0x1p-1074
  else ((x *. 0x1p53) -. (0x1.0000000000001p-53 *. (a *. 0x1p53))) *. 0x1p-53

let[@inline] up x =
  let a = Float.abs x in
  if a >= 0x1p-969 then
    if x = neg_infinity then -.Float.max_float else x +. (0x1.0000000000001p-53 *. a)
  else if a < 0x1p-1021 then if x = -0x1p-1074 then -0.0 else x +. 0x1p-1074
  else ((x *. 0x1p53) +. (0x1.0000000000001p-53 *. (a *. 0x1p53))) *. 0x1p-53

(* Two-ulp widening, for libm transcendentals (faithfully rounded at
   best). *)
let[@inline] down2 x = down (down x)
let[@inline] up2 x = up (up x)

(* [Float.min]/[Float.max], result for result, signed zeros and NaNs
   included, without the [sign_bit] C call on ordered or equal
   operands: equal zeros combine by sign (min is -0 if either is,
   max is +0 if either is), and only a NaN operand reaches the
   [Float] function. *)
let[@inline] fmin (x : float) (y : float) =
  if x < y then x
  else if y < x then y
  else if x = y then if x = 0.0 then -.(-.x -. y) else x
  else Float.min x y

let[@inline] fmax (x : float) (y : float) =
  if x > y then x
  else if y > x then y
  else if x = y then if x = 0.0 then x +. y else x
  else Float.max x y

let empty = { lo = nan; hi = nan }
let is_empty i = Float.is_nan i.lo || Float.is_nan i.hi
let entire = { lo = neg_infinity; hi = infinity }
let zero = { lo = 0.0; hi = 0.0 }
let one = { lo = 1.0; hi = 1.0 }

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then empty
  else if lo > hi then invalid_arg "Ia.make: lo > hi"
  else { lo; hi }

let make_unordered a b = if a <= b then { lo = a; hi = b } else { lo = b; hi = a }
let of_float x = if Float.is_nan x then empty else { lo = x; hi = x }

(* Smallest interval with double bounds containing the real whose decimal
   representation rounded to [x]; used to absorb decimal-literal error. *)
let of_literal x =
  if Float.is_nan x then empty else { lo = down x; hi = up x }

let lo i = i.lo
let hi i = i.hi

let is_entire i = (not (is_empty i)) && i.lo = neg_infinity && i.hi = infinity
let is_bounded i = (not (is_empty i)) && Float.is_finite i.lo && Float.is_finite i.hi
let is_singleton i = (not (is_empty i)) && i.lo = i.hi

let mem x i = (not (is_empty i)) && (not (Float.is_nan x)) && i.lo <= x && x <= i.hi

let subset a b =
  is_empty a || ((not (is_empty b)) && b.lo <= a.lo && a.hi <= b.hi)

let equal a b =
  (is_empty a && is_empty b) || ((not (is_empty a)) && (not (is_empty b)) && a.lo = b.lo && a.hi = b.hi)

let overlap a b =
  (not (is_empty a)) && (not (is_empty b)) && a.lo <= b.hi && b.lo <= a.hi

let inter a b =
  if is_empty a || is_empty b then empty
  else
    let lo = fmax a.lo b.lo and hi = fmin a.hi b.hi in
    if lo > hi then empty else { lo; hi }

let hull a b =
  if is_empty a then b
  else if is_empty b then a
  else { lo = fmin a.lo b.lo; hi = fmax a.hi b.hi }

let width i = if is_empty i then 0.0 else up (i.hi -. i.lo)
let rad i = if is_empty i then 0.0 else up (0.5 *. (i.hi -. i.lo))

(* Midpoint, clamped to a finite representable value inside the interval. *)
let mid i =
  if is_empty i then nan
  else if is_entire i then 0.0
  else if i.lo = neg_infinity then fmin i.hi (-.Float.max_float *. 0.5)
  else if i.hi = infinity then fmax i.lo (Float.max_float *. 0.5)
  else
    let m = 0.5 *. (i.lo +. i.hi) in
    if Float.is_finite m then fmax i.lo (fmin i.hi m)
    else 0.5 *. i.lo +. 0.5 *. i.hi

let mag i = if is_empty i then 0.0 else fmax (Float.abs i.lo) (Float.abs i.hi)

let mig i =
  if is_empty i then 0.0
  else if i.lo <= 0.0 && 0.0 <= i.hi then 0.0
  else fmin (Float.abs i.lo) (Float.abs i.hi)

(* Hausdorff distance between two nonempty intervals. *)
let dist a b =
  if is_empty a || is_empty b then nan
  else fmax (Float.abs (a.lo -. b.lo)) (Float.abs (a.hi -. b.hi))

let inflate eps i =
  if is_empty i then empty
  else { lo = down (i.lo -. eps); hi = up (i.hi +. eps) }

let split i =
  if is_empty i then (empty, empty)
  else
    let m = mid i in
    ({ lo = i.lo; hi = m }, { lo = m; hi = i.hi })

(* ---- Ring operations ---- *)

let neg i = if is_empty i then empty else { lo = -.i.hi; hi = -.i.lo }

let add a b =
  if is_empty a || is_empty b then empty
  else
    { lo = down (a.lo +. b.lo);
      hi = up (a.hi +. b.hi) }

let sub a b =
  if is_empty a || is_empty b then empty
  else
    { lo = down (a.lo -. b.hi);
      hi = up (a.hi -. b.lo) }

let add_float a x = add a (of_float x)
let sub_float a x = sub a (of_float x)

(* Product of two bounds with the interval convention 0 * inf = 0. *)
let prod x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

let mul a b =
  if is_empty a || is_empty b then empty
  else
    let p1 = prod a.lo b.lo
    and p2 = prod a.lo b.hi
    and p3 = prod a.hi b.lo
    and p4 = prod a.hi b.hi in
    { lo = down (fmin (fmin p1 p2) (fmin p3 p4));
      hi = up (fmax (fmax p1 p2) (fmax p3 p4)) }

let mul_float a x = mul a (of_float x)

let sqr i =
  if is_empty i then empty
  else
    let l = Float.abs i.lo and h = Float.abs i.hi in
    let m = mig i and g = fmax l h in
    let lo = if m = 0.0 then 0.0 else down (m *. m) in
    { lo; hi = up (g *. g) }

(* Reciprocal.  If the interval straddles zero the result is the whole
   line (a connected over-approximation of the two unbounded branches);
   a zero singleton has empty reciprocal. *)
let inv i =
  if is_empty i then empty
  else if i.lo = 0.0 && i.hi = 0.0 then empty
  else if i.lo < 0.0 && i.hi > 0.0 then entire
  else if i.lo = 0.0 then
    { lo = down (1.0 /. i.hi); hi = infinity }
  else if i.hi = 0.0 then
    { lo = neg_infinity; hi = up (1.0 /. i.lo) }
  else
    let a = 1.0 /. i.hi and b = 1.0 /. i.lo in
    { lo = down (fmin a b);
      hi = up (fmax a b) }

let div a b = if is_empty a || is_empty b then empty else mul a (inv b)

(* Integer power by sign analysis: exact monotonicity cases. *)
let rec pow_int i n =
  if is_empty i then empty
  else if n = 0 then one
  else if n < 0 then inv (pow_int i (-n))
  else if n = 1 then i
  else if n = 2 then sqr i (* one correctly rounded multiply beats libm pow *)
  else if n mod 2 = 0 then
    let m = mig i and g = mag i in
    let p x = Float.pow x (float_of_int n) in
    let lo = if m = 0.0 then 0.0 else fmax 0.0 (down2 (p m)) in
    { lo; hi = up2 (p g) }
  else
    let p x =
      (* Float.pow of a negative base with integer exponent is defined. *)
      Float.pow x (float_of_int n)
    in
    { lo = down2 (p i.lo); hi = up2 (p i.hi) }

(* ---- Monotone elementary functions ---- *)

let monotone_incr f i =
  if is_empty i then empty
  else { lo = down2 (f i.lo); hi = up2 (f i.hi) }

let exp i =
  if is_empty i then empty
  else
    let l = down2 (Float.exp i.lo) and h = up2 (Float.exp i.hi) in
    { lo = fmax 0.0 l; hi = h }

let log i =
  if is_empty i then empty
  else if i.hi <= 0.0 then empty
  else
    let lo = if i.lo <= 0.0 then neg_infinity else down2 (Float.log i.lo) in
    { lo; hi = up2 (Float.log i.hi) }

let sqrt i =
  if is_empty i then empty
  else if i.hi < 0.0 then empty
  else
    let l = if i.lo <= 0.0 then 0.0 else fmax 0.0 (down2 (Float.sqrt i.lo)) in
    { lo = l; hi = up2 (Float.sqrt i.hi) }

let atan i = monotone_incr Float.atan i
let tanh i =
  if is_empty i then empty
  else
    let l = fmax (-1.0) (down2 (Float.tanh i.lo))
    and h = fmin 1.0 (up2 (Float.tanh i.hi)) in
    { lo = l; hi = h }

let abs i =
  if is_empty i then empty
  else { lo = mig i; hi = mag i }

let min_ a b =
  if is_empty a || is_empty b then empty
  else { lo = fmin a.lo b.lo; hi = fmin a.hi b.hi }

let max_ a b =
  if is_empty a || is_empty b then empty
  else { lo = fmax a.lo b.lo; hi = fmax a.hi b.hi }

(* Real power through exp/log on the positive part of the base. *)
let pow a b =
  if is_empty a || is_empty b then empty
  else exp (mul b (log a))

(* Principal n-th root.  For odd [n] it is defined on the whole line (sign
   preserving); for even [n] it is the nonnegative root of the nonnegative
   part of the argument. *)
let root i n =
  if n <= 0 then invalid_arg "Ia.root: n must be positive"
  else if is_empty i then empty
  else if n = 1 then i
  else
    let r x =
      if x = infinity then infinity
      else if x = neg_infinity then neg_infinity
      else Float.copy_sign (Float.pow (Float.abs x) (1.0 /. float_of_int n)) x
    in
    if n mod 2 = 1 then { lo = down2 (r i.lo); hi = up2 (r i.hi) }
    else if i.hi < 0.0 then empty
    else
      let lo = if i.lo <= 0.0 then 0.0 else fmax 0.0 (down2 (r i.lo)) in
      { lo; hi = up2 (r i.hi) }

(* Inverse hyperbolic tangent on the intersection with (-1, 1). *)
let atanh i =
  if is_empty i then empty
  else
    let j = inter i { lo = -1.0; hi = 1.0 } in
    if is_empty j then empty
    else
      let f x = 0.5 *. Float.log ((1.0 +. x) /. (1.0 -. x)) in
      let lo = if j.lo <= -1.0 then neg_infinity else down2 (f j.lo) in
      let hi = if j.hi >= 1.0 then infinity else up2 (f j.hi) in
      { lo; hi }

(* ---- Trigonometric functions ----

   Strategy: if the interval is at least one full period wide the result is
   [-1, 1].  Otherwise we evaluate at the endpoints and check whether a
   critical point (odd/even multiple of pi for cos extrema, of pi/2 shifted
   for sin) lies inside; we use conservative rational comparisons against
   outward-rounded pi.  A final small absolute inflation absorbs libm and
   reduction error. *)

let trig_guard = 4e-16

let contains_multiple ~offset ~period:_ lo hi =
  (* Is there an integer k with lo <= k*2pi + offset <= hi?
     Conservative: widen the test window by one ulp on each side. *)
  let k_min = Float.ceil ((lo -. offset) /. Round.two_pi_hi -. 1e-12) in
  let k_max = Float.floor ((hi -. offset) /. Round.two_pi_lo +. 1e-12) in
  (* Re-check candidates explicitly against a widened window. *)
  let check k =
    let x_lo = (k *. Round.two_pi_lo) +. offset -. 1e-9
    and x_hi = (k *. Round.two_pi_hi) +. offset +. 1e-9 in
    x_hi >= lo && x_lo <= hi
  in
  let rec scan k = k <= k_max && (check k || scan (k +. 1.0)) in
  (* From 2^53 on, [k +. 1.0] no longer moves k, so the scan would never
     end; and from 2^52 on, k *. 2pi is too coarse to place a multiple.
     Answer yes there: sound, since cos then widens to [-1, 1] and tan
     to the entire line. *)
  k_min <= k_max && (Float.abs k_min >= 0x1p52 || scan k_min)

let unit = { lo = -1.0; hi = 1.0 }

let cos i =
  if is_empty i then empty
  else if not (is_bounded i) then unit
  else if i.hi -. i.lo >= Round.two_pi_lo then unit
  else
    let cl = Float.cos i.lo and ch = Float.cos i.hi in
    let has_max = contains_multiple ~offset:0.0 ~period:0.0 i.lo i.hi in
    let has_min = contains_multiple ~offset:Float.pi ~period:0.0 i.lo i.hi in
    let hi_b = if has_max then 1.0 else fmin 1.0 (up2 (fmax cl ch) +. trig_guard) in
    let lo_b = if has_min then -1.0 else fmax (-1.0) (down2 (fmin cl ch) -. trig_guard) in
    { lo = lo_b; hi = hi_b }

let sin i =
  if is_empty i then empty
  else cos (sub (of_literal (0.5 *. Float.pi)) i)

let tan i =
  if is_empty i then empty
  else if not (is_bounded i) then entire
  else if i.hi -. i.lo >= Round.pi_lo then entire
  else if contains_multiple ~offset:(0.5 *. Float.pi) ~period:0.0 i.lo i.hi
       || contains_multiple ~offset:(-0.5 *. Float.pi) ~period:0.0 i.lo i.hi
  then entire
  else
    let tl = Float.tan i.lo and th = Float.tan i.hi in
    if tl > th then entire
    else { lo = down2 tl -. trig_guard; hi = up2 th +. trig_guard }

(* ---- Sign queries (used by the decision procedure) ---- *)

let certainly_gt_zero i = (not (is_empty i)) && i.lo > 0.0
let certainly_ge_zero i = (not (is_empty i)) && i.lo >= 0.0
let certainly_lt_zero i = (not (is_empty i)) && i.hi < 0.0
let certainly_le_zero i = (not (is_empty i)) && i.hi <= 0.0
let possibly_gt ~delta i = (not (is_empty i)) && i.hi > -.delta
let possibly_ge ~delta i = (not (is_empty i)) && i.hi >= -.delta

let pp ppf i =
  if is_empty i then Fmt.string ppf "[empty]"
  else Fmt.pf ppf "[%.17g, %.17g]" i.lo i.hi

let to_string i = Fmt.str "%a" pp i
