(** Flat SSA tapes: terms compiled once into instruction arrays.

    A tape is the straight-line form of one or more {!Term.t}s over a fixed
    input ordering: every subterm becomes a slot holding an instruction
    whose operands are slot indices, variables are resolved to input
    positions at compile time, and hash-consing (CSE) makes structurally
    identical subterms share a single slot.  Evaluation — float, interval,
    and the HC4 forward–backward contraction — then runs as a loop over the
    instruction array against reusable scratch buffers: no tree rebuilding,
    no string-keyed lookups, and no per-node allocation in the hot path.

    Tapes are immutable after compilation and safe to share across
    domains; all mutable state lives in {!scratch} buffers, which belong
    to whoever allocated them: a tape keeps none.

    Every interval, HC4, ODE and SMC hot loop runs on tapes.  The tree
    walkers ({!Term.eval_interval}, {!Term.compile},
    [Icp.Contractor.revise] and [fixpoint]) are the references the
    differential tests compare tapes against. *)

module I = Interval.Ia

type t
(** A compiled tape (possibly multi-root: one root per compiled term). *)

(** {1 Compilation} *)

val compile : vars:string list -> Term.t list -> t
(** [compile ~vars terms] flattens [terms] into one shared-slot tape whose
    [i]-th input is the [i]-th element of [vars].
    @raise Invalid_argument if a term mentions a variable not in [vars]. *)

val num_inputs : t -> int
val num_slots : t -> int
val num_roots : t -> int

val reads_input : t -> int -> bool
(** [reads_input tp i]: whether some term compiled into [tp] mentions
    input [i].  When it does not, every evaluation ignores [inputs.(i)]. *)

val interior_sharing : t -> int
(** Number of CSE hits on non-leaf slots.  When [0], the tape's HC4
    backward pass is exactly the tree-walking HC4 on the same term; with
    interior sharing the tape contraction can only be tighter (still
    sound).  Differential tests key their equality assertions on this. *)

(** {1 Scratch buffers} *)

type scratch
(** Mutable per-evaluation workspace sized for one tape.  A scratch value
    must not be used from two domains at once. *)

val scratch : t -> scratch
(** A fresh scratch for the tape.  Its Taylor-model arrays are made on
    its first TM pass. *)

(** {1 Float evaluation}

    Semantics match {!Term.compile} closures instruction for instruction
    (including the [x*x] fast paths for squares and cubes). *)

val eval_floats_into : t -> scratch -> inputs:float array -> out:float array -> unit
(** Evaluate every root; [out.(k)] receives root [k].  Allocation-free. *)

val eval_float : t -> scratch -> float array -> float
(** Root 0 of a single-root tape. *)

(** {2 Staged float evaluation}

    For repeated evaluation in which some inputs stay fixed (an ODE
    field's parameters across a trajectory), the slots that read no
    changing input are computed once and the rest per call, in a
    float-only workspace of cells ({!staged_cells}).  The changing
    (dynamic) inputs are written by the caller straight into their
    cells, so no call copies them.  Every slot runs the same operation
    on the same operand values as {!eval_floats_into}, so the roots are
    bit-identical to a full pass over the same inputs. *)

type staged
(** A tape with its slots split into static and dynamic ones.
    Immutable: share it across domains like the tape. *)

val stage : t -> dynamic:(int -> bool) -> staged
(** [stage tp ~dynamic]: a slot is dynamic when it is an input [i] with
    [dynamic i], or reads a dynamic slot. *)

val staged_cells : staged -> float array
(** A fresh workspace for the staged tape: one cell per slot, then a
    spare one.  It must not be used from two domains at once. *)

val input_cells : staged -> int array
(** [(input_cells st).(i)] is the cell of dynamic input [i]: the slot
    of the input when a term reads it, else the spare cell, which no
    slot reads.  [-1] for a static input. *)

val eval_static : staged -> float array -> inputs:float array -> unit
(** [eval_static st cells ~inputs] computes the static slots into
    [cells].  Call it again whenever a static input changes; dynamic
    inputs are not read. *)

val eval_dynamic_into : staged -> float array -> out:float array -> unit
(** [eval_dynamic_into st cells ~out] computes the dynamic slots from
    the dynamic inputs in their cells and stores root [k] in
    [out.(k)].  [cells] must hold the static slots from {!eval_static}
    over the same static inputs.  Allocation-free. *)

(** {1 Interval evaluation}

    Sound enclosures identical to {!Term.eval_interval}: the forward pass
    applies the same {!Interval.Ia} operation at every slot, so the result
    is bit-equal to the tree walk (interval operations are
    deterministic). *)

val eval_interval_into : t -> scratch -> inputs:I.t array -> out:I.t array -> unit
val eval_interval : t -> scratch -> I.t array -> I.t

(** {1 Taylor-model evaluation}

    A second operand interpretation over the same instruction array:
    slot values are degree-2 {!Interval.Tm} models, and input [i] enters
    with symbol [i], so correlations between subexpressions sharing a
    variable cancel instead of compounding (the wrapping effect).
    Quadratic monomials are kept exactly and the polynomial range is
    bounded per variable by Bernstein coefficients over the unit box.
    Every Tm operation matches the domain semantics of the corresponding
    {!Interval.Ia} operation, so concretized results are sound
    enclosures of the same value sets as {!eval_interval_into} — never
    assumed tighter; callers intersect the two.

    Division by a constant multiplies by the reciprocal model that
    {!compile} computed once, which is exactly what the division
    computes on every call.  The tape's domains share those models, so
    {!compile} computes their ranges ({!Interval.Tm.share}).

    A scratch keeps each slot's model between TM passes and rebuilds
    only the slots that read an input whose bounds changed, bit for bit
    ([-0.0] and [+0.0] apart), since its last TM pass; it rebuilds every
    slot on its first TM pass, when {!Interval.Tm.budget} has changed
    since its last one, and on a tape with more than 62 inputs.  A model
    is a pure function of its operands' models and the budget, so the
    results are the ones a fresh scratch gives, bit for bit.  Interval
    and HC4 passes in between do not disturb the kept models. *)

val eval_tm_into : t -> scratch -> inputs:I.t array -> out:I.t array -> unit
(** Evaluate every root as a Taylor model over the input box and store
    the concretized range of root [k] in [out.(k)]. *)

val eval_tm : t -> scratch -> I.t array -> Interval.Tm.t
(** Root 0's Taylor model over the input box (the model whose range
    {!eval_tm_into} stores), for a caller that applies one more step. *)

val smooth_on : t -> scratch -> bool
(** Must be called directly after an interval evaluation over a box
    ([eval_interval]/[eval_interval_into] with the box's component
    intervals as inputs); inspects the forward enclosures left in the
    scratch.  [true] certifies that every function compiled into the
    tape is defined and continuously differentiable on the entire
    (convex) box: every partially-defined or non-smooth instruction —
    division, log, sqrt, negative powers, abs, tan — stayed strictly
    inside the interior of its smooth domain, and no slot was empty.
    Min/Max instructions always fail the certificate.  Conservative:
    may return [false] on a smooth box (enclosure overapproximation),
    never [true] on a non-smooth one.  This is the licence the
    mean-value form and interval Newton contractions require. *)

(** {1 HC4 forward–backward contraction} *)

val hc4_revise :
  t ->
  scratch ->
  ?tm:bool ->
  ?mask:bool array ->
  target:I.t ->
  I.t array ->
  bool
(** [hc4_revise tape sc ~target dom] runs the forward pass of root 0 over
    the input box [dom] (an interval per input), intersects the root with
    [target], and propagates the requirements back down to the inputs.
    Contracted input intervals are written back into [dom] — only at
    positions where [mask] is true, when given — and the function returns
    [false] iff the constraint [root ∈ target] is infeasible on [dom] (in
    which case [dom] is meaningless and should be discarded).

    With [~tm:true] (default [false]) the forward enclosures are first
    intersected slot-by-slot with the Taylor-model walker's concretized
    ranges — a sound tightening, since both passes enclose the same
    value sets — and the revise refutes immediately (returns [false])
    when the tightened root no longer meets [target].  The TM pass runs
    inside the [icp.tm] telemetry span with the [tm.tightenings] /
    [tm.refutations] counters and the [tm-refute] journal prune reason.
    The TM pass is skipped when the interval root already lies inside
    [target] and {!smooth_on} holds on [dom]: every point of the box
    then satisfies the constraint, the pass could not move a bound of
    [dom], and the function returns [true] with [dom] untouched, as the
    pass would have.
    With [~tm:false] the TM walker never runs, restoring the
    interval-only search bit-for-bit.

    Matches the tree-walking reference [Icp.Contractor.revise] exactly when
    {!interior_sharing} is [0]; shared interior slots accumulate
    requirements from all their occurrences and can contract strictly
    more (never less — soundness is preserved either way). *)

(** {1 Preimage helpers}

    Shared by the tape backward pass and the tree-walking reference
    in [Icp.Contractor]; exposed so the two stay in lockstep. *)

val pow_preimage : I.t -> I.t -> int -> I.t
(** Preimage of [r] under [x ↦ x^k], intersected with [x].  Handles even
    powers' two branches and negative exponents via the reciprocal
    relation [x^(-m) ∈ r ⟺ x^m ∈ 1/r]. *)

val abs_preimage : I.t -> I.t -> I.t
(** Preimage of [r] under [abs], intersected with [x]. *)

val tan_preimage : I.t -> I.t -> I.t
(** [tan_preimage x v]: when [x] lies strictly inside a single monotone
    branch [(kπ-π/2, kπ+π/2)] of [tan], the preimage [atan v + kπ]
    intersected with [x]; otherwise [x] unchanged (multi-branch preimages
    are not contracted). *)
