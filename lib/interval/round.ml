(* Directed-rounding surrogates.

   OCaml does not expose the FPU rounding mode, so we widen every computed
   bound by one unit in the last place in the conservative direction.  IEEE
   binary64 arithmetic (+, -, *, /, sqrt) is correctly rounded to nearest,
   hence the true real result of such an operation lies within one ulp of
   the computed value; stepping one ulp outward therefore yields a sound
   enclosure.  Transcendental functions from libm are faithfully rounded at
   best, so we step two ulps outward for them. *)

external next_after : float -> float -> float
  = "caml_nextafter_float" "caml_nextafter"
[@@unboxed] [@@noalloc]

(* Successor and predecessor in round-to-nearest, after Rump, Zimmermann,
   Boldo and Melquiond, "Computing predecessor and successor in rounding
   to nearest", BIT 49 (2009).  With u = 2^-53, eta = 2^-1074 and
   phi = u(1 + 2u) = 0x1.0000000000001p-53:
   - |x| >= u^-2 eta / 2 = 2^-969: succ x = x + phi|x|, computed in
     round-to-nearest, is exact;
   - |x| < u^-1 eta = 2^-1021: the spacing is eta, so x + eta is exact;
   - in between, the first case applied to x scaled by 2^53 (exact
     both ways) gives the answer.
   Three inputs need care to equal libm's [nextafter] bit for bit:
   succ (-2^-1074) is -0 (x + eta rounds to +0), succ (-inf) is
   -max_float (-inf + inf is NaN), and by symmetry pred inf is
   max_float.  NaN maps to NaN and the infinities are fixed points of
   stepping outward.  See round.mli for why each kernel module keeps
   its own copy of these two functions. *)
let next_up x =
  let a = Float.abs x in
  if a >= 0x1p-969 then
    if x = neg_infinity then -.Float.max_float else x +. (0x1.0000000000001p-53 *. a)
  else if a < 0x1p-1021 then if x = -0x1p-1074 then -0.0 else x +. 0x1p-1074
  else ((x *. 0x1p53) +. (0x1.0000000000001p-53 *. (a *. 0x1p53))) *. 0x1p-53

let next_down x =
  let a = Float.abs x in
  if a >= 0x1p-969 then
    if x = infinity then Float.max_float else x -. (0x1.0000000000001p-53 *. a)
  else if a < 0x1p-1021 then x -. 0x1p-1074
  else ((x *. 0x1p53) -. (0x1.0000000000001p-53 *. (a *. 0x1p53))) *. 0x1p-53

(* Pi enclosures.  [Float.pi] is the nearest double to the real pi and is
   known to round down; we still widen both sides for robustness. *)
let pi_lo = next_down Float.pi
let pi_hi = next_up Float.pi
let two_pi_lo = next_down (2.0 *. Float.pi)
let two_pi_hi = next_up (2.0 *. Float.pi)
let half_pi_lo = next_down (0.5 *. Float.pi)
let half_pi_hi = next_up (0.5 *. Float.pi)
