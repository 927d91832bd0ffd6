(** Bounded linear temporal logic over continuous traces.

    The SMC branch of the framework encodes behavioural constraints as
    BLTL formulas evaluated on sampled trajectories (discretized
    semantics).  Both qualitative satisfaction and the quantitative
    robustness degree are provided. *)

type t =
  | Prop of Expr.Formula.t  (** state predicate over vars ∪ params ∪ t *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Next of t
  | Until of float * t * t  (** φ U≤b ψ *)
  | Finally of float * t  (** F≤b φ *)
  | Globally of float * t  (** G≤b φ *)

val prop : string -> t
(** Atomic predicate from concrete syntax ({!Expr.Parse.formula}). *)

val horizon : t -> float
(** Trace time the formula needs beyond its evaluation point. *)

val pp : t Fmt.t

(** {1 Trace views}

    A view is the sequence of sampled points [(tᵢ, xᵢ)], i = 0 .. n-1,
    that the semantics reads.  A view of a stored trace or trajectory is
    complete when built; a streamed view is filled on demand from an
    {!Ode.Integrate.stepper}, one accepted point at a time, as the
    semantics asks for points, so it integrates only as far as the
    verdict reads.  A streamed view reads the same points that
    {!Ode.Integrate.simulate} would store, so every verdict and
    robustness value is the same on both. *)

type trace_view
(** Mutable point buffers.  A view belongs to one domain; a streamed
    view's buffers are reused by its next {!stream}, so at most one
    sample is live in a view at a time. *)

val of_trace : ?params:(string * float) list -> Ode.Integrate.trace -> trace_view

val of_trajectory :
  ?params:(string * float) list -> Hybrid.Simulate.trajectory -> trace_view
(** Concatenated view of a hybrid trajectory on the global time axis. *)

val streaming : unit -> trace_view
(** An empty view for {!stream} to fill. *)

val stream : ?params:(string * float) list -> trace_view -> Ode.Integrate.stepper -> unit
(** [stream view stepper] resets [view] to the stepper's current point
    and then fills it on demand from [stepper], which it advances: the
    caller must not advance it too.  The view keeps its buffers from
    earlier samples and grows them only past their largest length.
    Its layout is [params]' names and the stepper's variables. *)

val points : trace_view -> int
(** Points in the view so far: for a streamed view, its initial point
    and the points the semantics has pulled from the stepper since. *)

(** {1 Semantics}

    Discretized semantics over the points of a view.  Atoms are
    evaluated at a point with the arithmetic of {!Expr.Formula.holds}
    (robustness: {!Expr.Formula.robustness}) over the environment
    [params @ [t; x]]: a parameter shadows time and state variables of
    the same name, and evaluating an unbound name raises
    [Invalid_argument].  The bounded operators at
    point i range over the points j ≥ i with [tⱼ - tᵢ ≤ b]: [Finally]
    needs one of them to satisfy its argument, [Globally] all of them,
    and [Until (b, φ, ψ)] a point j among them where ψ holds, with φ
    holding at every point from i up to, not including, j.  Points
    past the end of the view do not exist, so a bound past the last
    point ranges over the points up to the end.  [Next φ] holds at i
    when φ holds at i + 1, and at the last point it stutters: φ is read
    at the last point itself.  A streamed view reaches its end where
    the stepper's integration ends, so it has the same last point as
    the stored trace. *)

type monitor
(** A formula with every atom resolved against a view layout: its
    parameter names, then [t], then its state variables.  Each atom is
    a closure that reads its names by position and keeps
    {!Expr.Term.eval}'s arithmetic ([Float.pow] for every power), so
    its values are those of the name lookup bit for bit, with no name
    compared per point.  Immutable: share it across views of its
    layout. *)

val monitor : params:string list -> vars:string list -> t -> monitor
(** [monitor ~params ~vars f] resolves [f] against the layout of a
    view with parameters [params] (the first of a repeated name counts)
    and state variables [vars]: the layout of [of_trace ~params] of a
    trace over [vars], and of a view that {!stream} fills from a
    stepper over [vars] with parameters of those names.  A name outside
    the layout raises [Invalid_argument] when it is evaluated, not
    before. *)

val check : ?at:int -> trace_view -> monitor -> bool
(** Qualitative satisfaction at point index [at] (default 0).  On a
    streamed view the recursion pulls points only until the verdict is
    fixed: [Finally] stops at its first satisfying point, [Globally] at
    its first violation, and [And]/[Or] inside an atom's formula at
    their first deciding branch.
    @raise Invalid_argument when the view's layout is not the
    monitor's, on an empty view or an [at] past its end. *)

val check_robustness : ?at:int -> trace_view -> monitor -> float
(** Quantitative robustness degree (max-min signed margin); positive
    implies satisfaction at the sampled resolution.  Reads every point
    within the bounds of the temporal operators.
    @raise Invalid_argument as {!check}. *)

val holds : ?at:int -> trace_view -> t -> bool
(** {!check} with a monitor resolved against the view's layout. *)

val robustness : ?at:int -> trace_view -> t -> float
(** {!check_robustness} with a monitor resolved against the view's
    layout. *)
