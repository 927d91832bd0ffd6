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
    the Taylor-model switch and its monomial budget
    ({!Interval.Tm.enabled}, {!Interval.Tm.budget}), read at the call.
    Callers that cache values derived from a flow key their groups with
    it. *)

(** {1 Steps as flat float rows}

    A tube keeps its steps as rows of unboxed floats, [4·dim + 2] per
    step: the step's time window [t_lo, t_hi], the lo and hi of its
    enclosure over the window and the lo and hi of its end state at
    [t_hi], variable by variable in the system's order (DESIGN §5a).
    The rows are stored in chunks small enough for the minor heap.
    Boxes are built only on request, by {!enclosure} and {!at_end}, and
    equal the step's boxes bit for bit.  Only this module knows the
    layout: the validated flow and the reach checker's ensemble bracket
    both build rows through {!builder}. *)

type steps
(** Immutable rows in increasing time order. *)

val length : steps -> int
val vars : steps -> string list
val t_lo : steps -> int -> float
val t_hi : steps -> int -> float

val enclosure : steps -> int -> Interval.Box.t
(** [enclosure s k] encloses the state over row [k]'s whole window. *)

val at_end : steps -> int -> Interval.Box.t
(** [at_end s k] encloses the state at row [k]'s [t_hi]. *)

val enclosure_into : steps -> int -> Interval.Ia.t array -> unit
(** Write row [k]'s enclosure, variable by variable, into the first
    [dim] slots of the array: the allocation-light read of the checks
    along a tube. *)

val prefix : steps -> int -> steps
(** The first [n] rows (all of them when [n] is larger), sharing the
    storage. *)

type builder
(** Rows under construction; grows one chunk at a time, never copying
    a row. *)

val builder : string list -> builder
(** An empty builder over these variables, in row order. *)

val push :
  builder -> t_lo:float -> t_hi:float -> Interval.Ia.t array -> Interval.Ia.t array -> unit
(** [push b ~t_lo ~t_hi enclosure at_end] appends a row; both arrays hold
    one interval per variable, in row order. *)

val contents : builder -> steps
(** The rows pushed so far.  Later pushes do not change them. *)

type tube = {
  vars : string list;
  steps : steps;
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
  ?until:(t_lo:float -> t_hi:float -> Interval.Ia.t array -> bool) ->
  params:Interval.Box.t ->
  init:Interval.Box.t ->
  t_end:float ->
  System.t ->
  tube
(** Guaranteed enclosure of every trajectory starting in [init] under any
    parameter value in [params], computed on flat interval tapes.  With
    the Taylor-model layer on, each field evaluation is also intersected
    with its Taylor-model range (in a Picard iteration only when the
    interval containment test fails).  [?prepared] (from {!prepare} on
    the same system) skips the per-call compilation.

    The tube ends at whichever comes first: [t_end] (complete), a state
    wider than [config.max_width] (incomplete, before stepping from it),
    or a step that [until] accepts (complete, with that step as the last
    row and its [t_hi] as [t_end]).  [until] is called after each
    accepted step with its time window and its enclosure over the
    window, one interval per variable in the system's order, as the row
    stores it.  {!Reach.Checker} passes the
    test that the step leaves the mode invariant, so a tube ends where
    every run has left its mode.  Without [until] the tube runs to
    [t_end]; with it, the tube is the uncut one's first rows, step for
    step.

    Every step ends at a box at least as wide, per component, as the
    state it started from, under either order (DESIGN §5a). *)

val tube_hull : tube -> Interval.Box.t

val state_at : tube -> float -> Interval.Box.t option
(** Hull of the steps covering time [t] (each window widened by 1e-12 on
    both sides), in time order; found by binary search on the rows. *)

val second_derivative : System.t -> (string * Expr.Term.t) list
(** [Jf·f + ∂f/∂t] — the Taylor-2 remainder terms (exposed for tests). *)
