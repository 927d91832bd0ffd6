(** Derivative-powered pruning for the δ-decision core.

    Symbolic gradients of a constraint system are compiled once into
    multi-root SSA tapes ({!Expr.Tape}) — per constraint the roots
    [f; ∂f/∂x₁; …; ∂f/∂xₖ] over its free variables, CSE shared — so a
    whole gradient enclosure costs one allocation-free forward interval
    pass.  On top of that the module provides a mean-value-form
    refutation test, an interval Newton (Gauss–Seidel) contraction
    step, and Kearfott's smear branching heuristic.

    Soundness: the mean-value expansion
    [f(x) ∈ f(m) + ∇f(B)·(B − m)] requires [f] continuously
    differentiable on the whole convex box; this licence is checked per
    box with {!Expr.Tape.smooth_on} and the steps are additionally
    skipped whenever a gradient component or box component is
    unbounded.  Skipping only loses precision, never correctness. *)

type t
(** A compiled gradient system for one constraint list. *)

(** {1 Enable switch}

    Same pattern as {!Interval.Tm.enabled}: the environment variable
    [BIOMC_NO_NEWTON=1] ({!Telemetry.env_switch}) disables the derivative
    layer, restoring the HC4-only search bit for bit; {!set_enabled}
    overrides the environment (used by the [--no-newton] CLI flag,
    benchmarks, and differential tests). *)

val enabled : unit -> bool
val set_enabled : bool -> unit
val clear_enabled_override : unit -> unit

(** {1 Compilation} *)

val compile : (Expr.Term.t * Interval.Ia.t) list -> t option
(** Compile the differentiable constraints [(term, target); …], each
    meaning [term ∈ target]: constraints whose terms contain
    [Min]/[Max] (not symbolically differentiable) or mention no
    variable are skipped.  [None] when no constraint remains.
    Gradients are {!Expr.Term.simplify_deep}-simplified before tape
    compilation.  Takes plain pairs rather than {!Contractor.constr}
    so {!Contractor} can layer the Newton pass on its fixpoint without
    a module cycle. *)

val vars_of : t -> string list
(** The system's variable ordering (sorted union of the compiled
    constraints' free variables). *)

val num_entries : t -> int
(** Number of constraints that were compiled. *)

(** {1 Contraction} *)

val contract : t -> Interval.Box.t -> Interval.Box.t option
(** Mean-value refutation plus one Gauss–Seidel interval Newton sweep
    over every compiled constraint.  [None] proves the box contains no
    point satisfying all constraints; otherwise the (possibly
    contracted) box — physically the input box when nothing changed, so
    callers can detect progress with [==].  Never loses solutions.
    Thread-safe across domains (workspaces are per-domain). *)

(** {1 Branching} *)

val split :
  t -> min_width:float -> Interval.Box.t -> (Interval.Box.t * Interval.Box.t) option
(** Smear-guided bisection: split the variable maximizing
    [maxₑ |∂fₑ/∂xᵢ| · width(xᵢ)] over the compiled constraints,
    considering only components wider than [min_width]; when no
    constraint yields a positive finite score, fall back to
    {!Interval.Box.split} (widest dimension).  Returns [None] exactly
    when [Box.split ~min_width] would ([max_dim] width [<= min_width]
    or [0]), so search termination criteria are unchanged.  Ties break
    toward the wider component, then the lexicographically first
    variable — deterministic. *)

(** {1 Introspection} *)

val gradient_enclosures :
  t -> Interval.Box.t -> (string * Interval.Ia.t) list option list
(** Per compiled entry, the (variable, ∂f/∂x enclosure) pairs over the
    box, or [None] for entries skipped on this box (unsupported
    component, smoothness certificate failure, or unbounded gradient).
    For differential tests against tree-walking {!Expr.Term.deriv}. *)
