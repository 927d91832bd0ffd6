(** HC4-revise interval constraint propagation.

    Given a constraint [term ∈ target] and a box, the forward pass
    computes interval enclosures for every subterm and the backward pass
    pushes the refined requirement down to the variable leaves.
    Contraction never loses solutions: every point of the box satisfying
    the constraint is in the contracted box. *)

exception Empty
(** Raised internally when a requirement becomes empty; the public
    functions catch it and return [None]. *)

type constr = { term : Expr.Term.t; target : Interval.Ia.t }
(** The constraint [term ∈ target]. *)

val of_atoms : ?delta:float -> Expr.Formula.atom list -> constr list
(** The range constraints of a conjunction of atoms, one per bounded
    term.  Each atom [t ⋈ 0] bounds one term on one side:
    - [e − c] (from [e ≥ c]) is the lower bound [c] on [e];
    - [c′ − e] (from [e ≤ c′]) and [−e] (from [e ≤ 0]) are the upper
      bounds [c′] and [0] on [e];
    - any other term [t] is the lower bound [0] on [t].

    A lower and an upper bound on structurally equal terms
    ({!Expr.Term.equal}) merge into one constraint
    [e ∈ [c − δ, c′ + δ]], with [c − δ] rounded down and [c′ + δ]
    rounded up (both exact at [δ = 0]); when [c − δ > c′ + δ] the
    target is empty, which refutes every box.  Each bound pairs with
    the first unpaired bound of the other side, and the merged
    constraint takes the position of its first atom.  An atom with no
    partner keeps its own constraint [t ∈ [−δ, +∞)].  Order matters:
    HC4's fixpoint result depends on it.  Pairs of non-constant sides
    ([a − b] with [b − a], from [a = b]) are two different terms and
    stay apart.

    Strict and non-strict atoms alike contract against closed targets;
    strictness is enforced at verdict time, on the atoms. *)

val pp_constr : constr Fmt.t

val revise :
  term:Expr.Term.t -> target:Interval.Ia.t -> Interval.Box.t -> Interval.Box.t option
(** One HC4-revise step by walking the term tree.  [None] means the
    constraint is infeasible on the box (a proof).  No search runs it:
    it is the reference {!Expr.Tape.hc4_revise} is tested against. *)

val fixpoint :
  ?tol:float ->
  ?max_rounds:int ->
  constr list ->
  Interval.Box.t ->
  Interval.Box.t option
(** Round-robin contraction with all constraints until no component
    shrinks by more than [tol] (relative) or [max_rounds] is reached.
    [None] on infeasibility.  The tree-walking reference for
    {!fixpoint_compiled}, which every search runs. *)

(** {1 Tape-compiled constraint systems}

    Compile the constraints once per query and run the HC4 fixpoint on a
    flat interval array — no tree rebuilding or string lookups per box.
    Results agree with {!fixpoint} (identically when the compiled tapes
    have no interior sharing; possibly tighter, never looser, when
    structurally shared subterms let requirements accumulate). *)

type compiled
(** One tape per constraint over the sorted union of the constraints'
    variables, and one workspace of scratches in a {!Parallel.Slot}. *)

val compile : constr list -> compiled

val compile_atoms : ?delta:float -> Expr.Formula.atom list -> compiled
(** [compile (of_atoms ?delta atoms)], recording for each atom its
    constraint and how its term reads the constraint's term [e] ([e],
    [e − c], [c − e] or [−e]), for {!certify}. *)

val constraints : compiled -> constr list

val fixpoint_compiled :
  ?tol:float ->
  ?max_rounds:int ->
  ?tm:bool ->
  compiled ->
  Interval.Box.t ->
  Interval.Box.t option
(** [?tm] (default [false]) threads the Taylor-model-tightened forward
    pass into every HC4 revise (see {!Expr.Tape.hc4_revise}); sound
    either way, possibly tighter with it on. *)

val certify :
  compiled -> Interval.Box.t -> Expr.Formula.atom -> Expr.Formula.verdict option
(** [certify cs box a] judges an atom of [cs] ([None] for any other;
    atoms are found by the physical identity of their terms) on [box]:
    the interval range of its term, bit-equal to
    {!Expr.Formula.eval_atom_interval}, and when that verdict is
    [Unknown], that range intersected with the term's Taylor-model
    range (in the [icp.tm] span, counting [tm.tightenings]).  Both come
    from the root of the atom's constraint with the atom's outer
    operation applied, on the scratch HC4 revises the constraint with,
    so the models it builds on a box serve HC4's next pass on that box.
    @raise Invalid_argument when [box] lacks a variable of the atom. *)

val deriv_system : constr list -> Deriv.t option
(** The derivative system {!contractor} layers on its fixpoint:
    {!Deriv.compile} of the constraints, or [None] when the derivative
    layer is disabled ([BIOMC_NO_NEWTON=1]) or no constraint is
    differentiable.  The switch is sampled when this is called. *)

val contractor :
  ?tol:float ->
  ?max_rounds:int ->
  ?newton:Deriv.t option ->
  compiled ->
  Interval.Box.t ->
  Interval.Box.t option
(** [contractor cs] returns the tape fixpoint over [cs]
    ({!fixpoint_compiled}) as a closure.  The HC4 fixpoint is followed,
    when [newton] (default [deriv_system (constraints cs)]) is a system,
    by a mean-value-form refutation test and an interval Newton
    (Gauss–Seidel) contraction sweep over its constraints, with one
    extra fixpoint round when Newton tightened the box.  Pass [~newton]
    to share one compiled system with the smear split ({!Deriv.split});
    it must be compiled from the same constraints.  Both layers only
    remove points violating a constraint, so the contraction contract
    is unchanged; with Newton disabled the closure reproduces the
    HC4-only result bit for bit.  The closure may be shared across
    worker domains: tapes are immutable and a call borrows the
    workspace from the system's slot.

    The Newton and Taylor-model layers follow their global switches,
    sampled when the closure (or the [newton] system) is built. *)
