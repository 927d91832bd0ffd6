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

val of_atom : ?delta:float -> Expr.Formula.atom -> constr
(** Constraint form of an atom [t ⋈ 0]: the closed target [[-δ, +∞)].
    Strictness is enforced at verdict time, not during contraction. *)

val pp_constr : constr Fmt.t

val revise :
  term:Expr.Term.t -> target:Interval.Ia.t -> Interval.Box.t -> Interval.Box.t option
(** One HC4-revise step.  [None] means the constraint is infeasible on the
    box (a proof). *)

val fixpoint :
  ?tol:float ->
  ?max_rounds:int ->
  constr list ->
  Interval.Box.t ->
  Interval.Box.t option
(** Round-robin contraction with all constraints until no component
    shrinks by more than [tol] (relative) or [max_rounds] is reached.
    [None] on infeasibility. *)

(** {1 Tape-compiled constraint systems}

    Compile the constraints once per query and run the HC4 fixpoint on a
    flat interval array — no tree rebuilding or string lookups per box.
    Results agree with {!fixpoint} (identically when the compiled tapes
    have no interior sharing; possibly tighter, never looser, when
    structurally shared subterms let requirements accumulate). *)

type compiled

val compile : constr list -> compiled

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

val contractor :
  ?tol:float ->
  ?max_rounds:int ->
  constr list ->
  Interval.Box.t ->
  Interval.Box.t option
(** [contractor constraints] compiles once and returns the fixpoint as a
    closure — tape-backed unless tapes are disabled ([BIOMC_NO_TAPE=1]).
    Unless the derivative layer is disabled ([BIOMC_NO_NEWTON=1], see
    {!Deriv}), the HC4 fixpoint is followed by a mean-value-form
    refutation test and an interval Newton (Gauss–Seidel) contraction
    sweep over the differentiable constraints, with one extra fixpoint
    round when Newton tightened the box.  Both layers only remove
    points violating a constraint, so the contraction contract is
    unchanged; with Newton disabled the closure reproduces the HC4-only
    result bit for bit.  The closure may be shared across worker
    domains: tapes are immutable and scratch buffers are per-domain.

    The Newton and Taylor-model layers follow their global switches,
    sampled when the closure is built; the Taylor-model pass also
    requires the tape path. *)
