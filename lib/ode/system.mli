(** ODE systems [d xᵢ/dt = fᵢ(x, p, t)] over L_RF terms.

    Right-hand sides may mention the state variables, the declared
    parameters, and the reserved time variable {!time_var}.  Construction
    validates well-formedness so integrators don't have to. *)

module SSet = Expr.Term.SSet

val time_var : string
(** The reserved time variable, ["t"]. *)

type t

val vars : t -> string list
(** State variables, in storage order. *)

val params : t -> string list
val rhs : t -> (string * Expr.Term.t) list
val rhs_of : t -> string -> Expr.Term.t
val dim : t -> int

val create :
  vars:string list -> params:string list -> rhs:(string * Expr.Term.t) list -> t
(** @raise Invalid_argument on duplicate/overlapping names, a missing or
    extra equation, an unbound name in a right-hand side, or use of
    {!time_var} as a state/parameter name. *)

val of_strings :
  vars:string list -> params:string list -> rhs:(string * string) list -> t
(** Like {!create} with right-hand sides parsed by {!Expr.Parse.term}. *)

val bind_params : (string * float) list -> t -> t
(** Substitute values for (a subset of) the parameters. *)

val rhs_tape : t -> Expr.Tape.t
(** The field compiled to a flat tape over [vars @ params @ [time_var]]
    (one root per state variable), built on first use and cached on the
    system. *)

val compile : ?param_env:(string * float) list -> t -> float -> float array -> float array
(** [compile ~param_env sys] is the vector field as a fast closure
    [t -> state -> derivative]; all parameters must be bound.  The
    closure owns internal scratch buffers: share it freely within one
    domain, but compile per worker domain.
    @raise Invalid_argument on an unbound parameter. *)

val compile_into :
  ?param_env:(string * float) list ->
  t ->
  float ->
  float array ->
  float array ->
  unit
(** [compile_into ~param_env sys] is the field as a write-into closure
    [t -> state -> out -> unit]: like {!compile} but allocation-free per
    evaluation.  It copies its arguments into a {!field}'s cells.  Same
    sharing rules as {!compile}: the closure owns scratch, compile one
    per domain.
    @raise Invalid_argument on an unbound parameter. *)

(** {2 In-place field}

    The form the numerical steppers evaluate: the state and the time
    are written straight into the field's input cells, and an
    evaluation writes the derivative into an output array, with no
    argument copied and no float boxed.  The field is the system's
    staged tape ({!Expr.Tape.stage}): its constant and parameter-only
    slots are evaluated when the parameters are bound, and each
    evaluation runs only the slots that read a state variable or [t];
    outputs are bit-identical to a full {!Expr.Tape.eval_floats_into}
    pass.  A field owns its buffers: use it from one domain. *)

type field

val field : t -> field
(** The field compiled once; {!bind_field} sets its parameters before
    the first evaluation. *)

val bind_field : field -> float array -> unit
(** Set the parameters, one value per {!params} entry in that order.
    @raise Invalid_argument on a wrong number of values. *)

val field_cells : field -> float array
(** The input cells: write state variable [i] into
    [cells.((field_cell_of f).(i))] and the time into
    [cells.((field_cell_of f).(dim))] before {!eval_field}.  Any other
    cell is the field's own. *)

val field_cell_of : field -> int array
(** Where each state variable, then the time, lives in
    {!field_cells} ([dim + 1] entries). *)

val eval_field : field -> float array -> unit
(** [eval_field f out] writes the derivative at the state and time in
    the cells into [out].  Allocation-free. *)

val param_values : t -> (string * float) list -> float array
(** The values of {!params}, in order, read from an environment (its
    first binding of each name); names that are not parameters are
    ignored.
    @raise Invalid_argument on an unbound parameter. *)

val digest : t -> string
(** Structural digest of (vars, params, right-hand sides), cached on the
    system: equal digests imply identical dynamics.  Keys the segment
    and verdict caches across independently constructed copies of a
    model. *)

val eval_interval :
  ?time:Interval.Ia.t -> t -> Interval.Box.t -> (string * Interval.Ia.t) list
(** Interval enclosure of the field over a box binding states and
    parameters. *)

val jacobian : t -> Expr.Term.t list list
(** Symbolic Jacobian [∂fᵢ/∂xⱼ] in variable order. *)

val pp : t Fmt.t
