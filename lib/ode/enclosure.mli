(** Validated interval integration: guaranteed enclosures of ODE flows
    over boxes of initial states and parameters.

    Per step: a Picard-style inflation finds an a-priori enclosure [B] of
    the solution over the step, then the endpoint is tightened with an
    interval Euler (order 1) or interval Taylor (order 2) form — both
    sound because the trajectory provably stays in [B].

    Caveat: single-shot interval methods are exponentially pessimistic on
    expansive dynamics (no Lohner-style coordinate frames here); callers
    like {!Reach.Checker} gate on tube quality and fall back to sampling
    brackets when the tube degenerates. *)

type order = Euler_1 | Taylor_2

type config = {
  order : order;
  h : float;  (** initial/maximum step size *)
  h_min : float;  (** give up (incomplete tube) rather than shrink below *)
  inflation : float;  (** multiplicative inflation in the Picard iteration *)
  max_picard : int;
  max_width : float;
      (** abort (incomplete tube) before a step from a state box wider
          than this.  No state is narrower than the one before it, so
          {!Reach.Checker} lowers it to its usability gate's limit and
          ends a tube the gate would reject at its first state past it. *)
}

val default_config : config

val flow_fingerprint : config -> string
(** Everything besides the system, the boxes and the horizon that
    decides what {!flow} returns: the config (floats rendered with %h),
    the evaluation path ({!Expr.Tape.enabled}), the Taylor-model switch
    and its monomial budget ({!Interval.Tm.enabled},
    {!Interval.Tm.budget}), read at the call.  Callers that cache values
    derived from a flow key their groups with it. *)

type step = {
  t_lo : float;
  t_hi : float;
  enclosure : Interval.Box.t;  (** encloses the state over the whole step *)
  at_end : Interval.Box.t;  (** encloses the state at [t_hi] *)
}

type tube = {
  vars : string list;
  steps : step list;  (** increasing time order *)
  final : Interval.Box.t;
  t_end : float;  (** time actually reached *)
  complete : bool;  (** [false] when integration aborted early *)
}

type prepared
(** Tape-compiled form of a system's field and Taylor-2 remainder terms
    (inputs [vars @ params @ [t]]).  Immutable and shareable across
    domains; each {!flow} call allocates its own scratch. *)

val prepare : System.t -> prepared
(** Compile once; pass to {!flow} via [?prepared] when integrating the
    same system many times (paving, per-mode flows). *)

val flow :
  ?config:config ->
  ?prepared:prepared ->
  ?t0:float ->
  params:Interval.Box.t ->
  init:Interval.Box.t ->
  t_end:float ->
  System.t ->
  tube
(** Guaranteed enclosure of every trajectory starting in [init] under any
    parameter value in [params].  Runs on flat interval tapes by default;
    [BIOMC_NO_TAPE=1] restores the tree-walking path.  With the
    Taylor-model layer off the two paths give the same tube bit for bit;
    with it on, the tape path also intersects each field evaluation with
    its Taylor-model range (in a Picard iteration only when the interval
    containment test fails), so its tube can be tighter.  [?prepared]
    (from {!prepare} on the same system) skips the per-call compilation.

    Every step ends at a box at least as wide, per component, as the
    state it started from, under either order and on either path (DESIGN
    §5a). *)

val tube_hull : tube -> Interval.Box.t
val state_at : tube -> float -> Interval.Box.t option
(** Hull of the steps covering time [t]. *)

val formula_along :
  tube ->
  params:Interval.Box.t ->
  Expr.Formula.t ->
  [ `Never | `Always | `Sometimes of (float * float) list ]
(** Three-valued truth of a formula along the tube: [`Never] and
    [`Always] are proofs; [`Sometimes] lists the time windows where the
    formula may hold. *)

val second_derivative : System.t -> (string * Expr.Term.t) list
(** [Jf·f + ∂f/∂t] — the Taylor-2 remainder terms (exposed for tests). *)
