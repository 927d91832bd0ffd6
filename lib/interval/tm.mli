(** Degree-2 Taylor models: sparse quadratic polynomial enclosures with
    an interval remainder.

    A Taylor model [x̂ = c + Σᵢ lᵢ·εᵢ + Σᵢ qᵢᵢ·εᵢ² + Σᵢ<ⱼ qᵢⱼ·εᵢεⱼ + R]
    represents a quantity as a sparse polynomial of degree at most 2 over
    normalized input variables [εᵢ ∈ [−1, 1]] plus an interval remainder
    [R] absorbing truncation, linearization and rounding errors.  The
    linear part alone is an affine form: it cancels shared symbols
    exactly, where plain interval arithmetic loses every correlation
    ([x − x] evaluates to a width-doubling interval).  Keeping the
    quadratic monomials as well makes the remainder of smooth
    compositions O(width³) instead of O(width²): exactly the gap that
    dominates on band-constraint boundaries, where the value surface is
    locally quadratic and a first-order enclosure can neither refute
    nor certify.

    Soundness contract: for every assignment of the variables to
    [[−1, 1]] consistent with the operand models, the result model
    encloses the exact real-valued result.  Concretizations are always
    valid interval enclosures, never assumed tighter than the interval
    evaluation of the same expression — callers intersect the two.
    Every bound is widened outward (see {!Round}); coefficient
    arithmetic is done in floats with per-operation ulp slack pushed
    into the remainder, so no soundness argument depends on a float
    operation being exact.

    The range of the polynomial part is bounded per variable by the
    degree-2 Bernstein coefficients over the unit box (the control
    polygon encloses the curve), intersected with plain interval
    evaluation — each is sound, and each wins on different coefficient
    signs; cross monomials are bounded by magnitude.  This polynomial
    range bound is what a first-order form structurally cannot provide.

    Nonlinear operations:
    - [mul]/[sqr] keep every monomial of degree ≤ 2 exactly and
      truncate degree-3/4 products into the remainder, bounded by the
      factor ranges (counted by the [tm.truncations] telemetry);
    - unary operations linearize the whole polynomial part (min-range,
      slope clamped to the extreme derivative, for [exp], [log],
      [sqrt], [inv]; Chebyshev mean-value for the rest), and upgrade to a
      second-order Taylor form [f(m) + f'(m)(x−m) + ½f''(X)(x−m)²]
      when the operand is linear — there [(x−m)²] is exactly degree 2,
      so the upgrade is cheap and the remainder third-order;
    - non-smooth operations ([abs], [min_], [max_]) fall back to
      interval arithmetic unless their operand ranges make them exact.

    A model degrades to a plain interval when unbounded or through a
    non-polynomial fallback, and to bottom (empty) when the operand
    leaves the operation's domain entirely.  Forms stay small: each
    monomial family is condensed deterministically past the
    {!budget} (smallest-magnitude coefficients folded into the
    remainder, ties broken by variable index). *)

type t

(** {1 Enable/disable switch}

    Gates the TM-powered solver paths (HC4 forward tightening, pave
    certification, ODE enclosure intersection), not this module's
    arithmetic.  [BIOMC_NO_TM=1] ({!Telemetry.env_switch}) disables
    the layer; {!set_enabled} overrides the environment (CLI [--no-tm],
    benchmarks, differential tests). *)

val enabled : unit -> bool
val set_enabled : bool -> unit
val clear_enabled_override : unit -> unit

(** {1 Monomial budget} *)

val default_budget : int
(** Default maximum number of monomials per family (64). *)

val budget : unit -> int
(** The effective budget: the last {!set_budget} value if any,
    otherwise [BIOMC_TM_BUDGET] from the environment (positive integers
    only; malformed values fall back to {!default_budget}), otherwise
    {!default_budget}.  The solver snapshots this into the journal flag
    header, so [biomc explain]'s flag-consistency audit covers it. *)

val set_budget : int -> unit
(** Set the process-wide budget (clamped to ≥ 1); overrides the
    environment. *)

(** {1 Constructors and queries} *)

val const : float -> t
(** Singleton model (no monomials, zero remainder). *)

val of_interval : sym:int -> Ia.t -> t
(** [of_interval ~sym iv]: the model [mid iv + rad iv·ε_sym], enclosing
    [iv].  Models built from the same [sym] are perfectly correlated —
    callers must use distinct symbols for independent quantities (the
    tape walker uses input positions).  Empty [iv] yields bottom;
    unbounded [iv] an interval-fallback model. *)

val concretize : t -> Ia.t
(** The interval enclosure of the model (empty for bottom): Bernstein ∩
    interval range of the polynomial part, plus the remainder.  A model
    computes its polynomial range on the first read — this function, or
    a {!mul}, {!sqr} or unary operation that takes it as an operand —
    and stores it in place; sums and scalings read it only when they
    fall back to interval arithmetic.  The range
    depends only on the model's own coefficients, so when it is
    computed never changes a bit of any result. *)

val share : t -> t
(** [share m] computes [m]'s polynomial range now and returns [m].
    Apart from that range a model is immutable, so a model that more
    than one domain may read at once — a constant kept in a compiled
    object, a module-level value — must go through [share] before it is
    published; then every read only reads.  A model that one domain
    builds and reads, such as a tape scratch's slot values, needs
    nothing. *)

val is_bot : t -> bool

val nterms : t -> int
(** Number of monomials (linear + quadratic); 0 for bottom, intervals
    and constants. *)

type poly = {
  constant : float;
  linear : (int * float) list;  (** (i, lᵢ): the monomial lᵢ·εᵢ *)
  square : (int * float) list;  (** (i, qᵢᵢ): the monomial qᵢᵢ·εᵢ² *)
  cross : (int * int * float) list;  (** (i, j, qᵢⱼ), i < j: qᵢⱼ·εᵢεⱼ *)
  remainder : Ia.t;
}

val to_poly : t -> poly option
(** The model's polynomial and remainder, for audits: the model denotes
    [{ p(ε) + r : r ∈ remainder }] at each [ε ∈ [−1, 1]ⁿ].  An interval
    fallback [v] reads as the zero polynomial with remainder [v];
    [None] for bottom. *)

val pp : t Fmt.t

(** {1 Arithmetic}

    Every operation matches the domain semantics of the corresponding
    {!Ia} operation, so concretized results may be intersected with
    interval evaluations of the same expression. *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val add_const : float -> t -> t
val mul : t -> t -> t
val sqr : t -> t
val inv : t -> t
val div : t -> t -> t
val pow_int : t -> int -> t
val exp : t -> t
val log : t -> t
val sqrt : t -> t
val sin : t -> t
val cos : t -> t
val tan : t -> t
val atan : t -> t
val tanh : t -> t
val abs : t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

val linear_sqr_truncation : Ia.t
(** The truncated part [2·([−s, s]·Q) + Q²] that {!sqr} adds to the
    remainder of a model without quadratic monomials, where [Q = [0, 0]]
    and [s] is the linear radius.  It does not depend on [s], so it is
    computed once: [[−3·2⁻¹⁰⁷⁴, 2⁻¹⁰⁷²]], the outward steps around 0.
    Exposed so tests can pin it to the general formula. *)

val trunc_mul_lo : float -> float -> float -> float -> float
(** [trunc_mul_lo al ah bl bh] is [Ia.lo (Ia.mul [al, ah] [bl, bh])]
    bit for bit on nonempty operands (NaN-free, [al ≤ ah], [bl ≤ bh]),
    as the truncated parts of {!mul} and {!sqr} compute it: when a
    subnormal bound is present and a product of two non-subnormal
    bounds is negative and beyond |u|·2⁻¹⁰²²·(1 + 2⁻⁵²) + 2⁻¹⁰⁷⁴ for the
    largest bound magnitude |u|, which bounds every product with a
    subnormal factor, that product is the result and the products with
    a subnormal factor are never computed (each costs a microcode
    assist on common x86 parts).  Exposed so tests can check it against
    [Ia.mul]. *)

val trunc_mul_hi : float -> float -> float -> float -> float
(** The upper bound, [Ia.hi (Ia.mul [al, ah] [bl, bh])], in the same
    way (the deciding product is positive). *)

(** {1 Telemetry}

    Counters live in the process-wide registry (created always-on, like
    the cache statistics): [tm.refutations] — boxes refuted because a
    TM range missed a constraint target; [tm.tightenings] — evaluations
    where a TM range strictly tightened an interval enclosure (in an HC4
    revise, only a pass that leaves the box alive: a pass that tightens
    and then refutes counts once, as a refutation);
    [tm.truncations] — products whose degree-3/4 monomials were folded
    into the remainder.  The first two are incremented by the solver
    layers through {!note_refutation}/{!note_tightening} (the former
    also records the [tm-refute] journal prune reason); truncations are
    counted here.  {!with_span} wraps TM evaluation passes in the
    [icp.tm] trace span. *)

val note_refutation : unit -> unit
val note_tightening : unit -> unit
val truncations : unit -> int
val with_span : (unit -> 'a) -> 'a
