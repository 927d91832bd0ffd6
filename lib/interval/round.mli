(** Directed-rounding surrogates.

    OCaml does not expose the FPU rounding mode, so bounds are widened
    outward by ulp steps: one ulp for correctly rounded IEEE operations
    (+, -, *, /, sqrt — the true result lies within one ulp of the
    computed value), two ulps for libm transcendentals (faithfully
    rounded at best). *)

external next_after : float -> float -> float
  = "caml_nextafter_float" "caml_nextafter"
[@@unboxed] [@@noalloc]
(** libm's [nextafter], the reference that {!next_up} and {!next_down}
    are tested against bit for bit.  The interval kernels do not call
    it: a C call per bound costs several times a float add-multiply. *)

val next_up : float -> float
(** The round-to-nearest successor of a float, equal bit for bit to
    [next_after x infinity], computed with float arithmetic alone after
    Rump, Zimmermann, Boldo and Melquiond, "Computing predecessor and
    successor in rounding to nearest", BIT 49 (2009).  With
    u = 2{^-53}, η = 2{^-1074} and φ = u(1 + 2u):
    - for |x| ≥ 2{^-969} (= u{^-2}η/2), [x +. φ *. |x|] is exact;
    - for |x| < 2{^-1021} (= u{^-1}η) the float spacing is η, and
      [x +. η] is exact;
    - in between, the first formula is applied to x·2{^53} and the
      result scaled back; both scalings are exact.

    Edge cases: [next_up (-2{^-1074})] is [-0.] (libm's answer, where
    [x +. η] gives [+0.]); [next_up neg_infinity] is [-max_float]
    (the formula would give NaN); [next_up infinity] is [infinity];
    NaN maps to NaN.

    The hot kernels ({!Ia}, {!Tm} and [Expr.Tape]) each keep
    an [[@inline]] copy of this function and of {!next_down} rather
    than calling them.  Dune's default (dev) profile compiles every
    module with [-opaque], so no function of this module is ever
    inlined into another one: each call would box its argument and
    its result.  The release profile drops [-opaque], and there an
    [[@inline]] function is inlined across modules even without
    flambda; the copies make both builds run the same kernel code.  The
    test suite pins every copy to libm through its module's API. *)

val next_down : float -> float
(** The round-to-nearest predecessor, equal bit for bit to
    [next_after x neg_infinity]: the mirror of {!next_up}, with
    [next_down infinity = max_float].  [next_down 2{^-1074}] is [+0.],
    which the formula already gives. *)

(** Outward-rounded enclosures of π, 2π and π/2. *)

val pi_lo : float
val pi_hi : float
val two_pi_lo : float
val two_pi_hi : float
val half_pi_lo : float
val half_pi_hi : float
