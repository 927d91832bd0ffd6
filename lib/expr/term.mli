(** L_RF terms (Definition 1 of the paper): real-valued expressions over
    variables, constants, and computable functions.

    Terms support exact float evaluation, sound interval evaluation (the
    backbone of the δ-decision procedure), symbolic differentiation,
    substitution, and compilation to array-indexed closures for hot loops
    (ODE right-hand sides, Monte-Carlo sampling). *)

module SSet : Set.S with type elt = string

type t =
  | Var of string
  | Const of float
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Neg of t
  | Pow of t * int
  | Exp of t
  | Log of t
  | Sqrt of t
  | Sin of t
  | Cos of t
  | Tan of t
  | Atan of t
  | Tanh of t
  | Abs of t
  | Min of t * t
  | Max of t * t

(** {1 Smart constructors}

    Perform light algebraic simplification (neutral elements, constant
    folding); use them instead of raw constructors. *)

val var : string -> t
val const : float -> t
val zero : t
val one : t
val is_const : t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t

val pow : t -> int -> t
(** Integer power; [pow t 0] is {!one}. *)

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

(** Infix constructors: [Term.Infix.(!!"x" + !.2.0 * !!"y")]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( ** ) : t -> int -> t

  val ( !. ) : float -> t
  (** Constant literal. *)

  val ( !! ) : string -> t
  (** Variable. *)
end

(** {1 Structure} *)

val size : t -> int
(** Number of AST nodes. *)

val depth : t -> int
val free_vars : t -> SSet.t
val free_vars_acc : SSet.t -> t -> SSet.t
val free_var_list : t -> string list
(** Free variables in lexicographic order. *)

val mentions : string -> t -> bool
val equal : t -> t -> bool
(** Structural equality. *)

val fingerprint_acc : Buffer.t -> t -> unit
(** Append the term's canonical injective serialization (floats exact,
    %h) to the buffer: equal strings iff structurally equal terms. *)

(** {1 Transformation} *)

val map_vars : (string -> t) -> t -> t
(** Replace every variable occurrence; rebuilds through the smart
    constructors. *)

val subst : (string * t) list -> t -> t
val rename : (string * string) list -> t -> t

val simplify : t -> t
(** Constant folding and neutral-element elimination (idempotent). *)

val simplify_deep : t -> t
(** Stronger simplification for derivative trees: everything
    {!simplify} does, plus negation hoisting out of products and
    quotients, sum/difference-of-negation rewrites, pow-of-pow
    merging, and constant merging across one level of product/sum
    nesting (applied only when the fold is exact in IEEE arithmetic).
    Every rule preserves the domain of definition exactly, so natural
    interval enclosures of the result blow up at the same singular
    points as the input's — the property the interval Newton layer's
    smoothness certificate relies on.  The result denotes the same
    real function; float evaluation agrees bit-for-bit up to the sign
    of zero, except across a pow-of-pow merge where libm may differ by
    ulps. *)

(** {1 Evaluation} *)

val eval : (string -> float) -> t -> float
(** Evaluate with a lookup function. *)

val eval_env : (string * float) list -> t -> float
(** @raise Invalid_argument on unbound variables. *)

val eval_interval : Interval.Box.t -> t -> Interval.Ia.t
(** Sound interval enclosure of the term's range over the box: for every
    point [p] of the box, [eval p t ∈ eval_interval box t]. *)

val compile : vars:string list -> t -> float array -> float
(** [compile ~vars t] resolves variables to positions in [vars] once and
    returns a closure evaluating [t] on value arrays — no name lookups in
    the hot path.  The tape float evaluator ({!Tape.eval_floats_into})
    follows it operation for operation and is tested against it.
    @raise Invalid_argument at compile time on unbound variables. *)

(** {1 Calculus} *)

val deriv : string -> t -> t
(** Symbolic partial derivative.
    @raise Invalid_argument on [Min]/[Max]. *)

val gradient : string list -> t -> (string * t) list

val lie_derivative : (string * t) list -> t -> t
(** [lie_derivative field v] is [Σᵢ (∂v/∂xᵢ)·fᵢ] — the derivative of [v]
    along trajectories of [d xᵢ/dt = fᵢ]. *)

(** {1 Printing} *)

val pp : t Fmt.t
(** Parseable concrete syntax (round-trips through {!Parse.term}). *)

val to_string : t -> string
