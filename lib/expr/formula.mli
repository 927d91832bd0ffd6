(** Quantifier-free L_RF formulas in negation normal form.

    Atoms are [t > 0] or [t ≥ 0] (Definition 1); negation is the
    inductive sign-flipping operation of the paper, so every formula is
    NNF by construction.  The three-valued interval semantics drives the
    branch-and-prune δ-decision search. *)

module SSet = Term.SSet

type rel = Gt | Ge

type atom = { term : Term.t; rel : rel }
(** The atomic constraint [term rel 0]. *)

type t =
  | True
  | False
  | Atom of atom
  | And of t list
  | Or of t list

(** {1 Constructors} *)

val tt : t
val ff : t
val atom : rel -> Term.t -> t

val gt : Term.t -> Term.t -> t
(** [gt a b] is [a - b > 0]. *)

val ge : Term.t -> Term.t -> t
val lt : Term.t -> Term.t -> t
val le : Term.t -> Term.t -> t

val eq : Term.t -> Term.t -> t
(** Equality as [a - b ≥ 0 ∧ b - a ≥ 0]. *)

val and_ : t list -> t
(** N-ary conjunction; flattens and simplifies units. *)

val or_ : t list -> t

val neg : t -> t
(** NNF negation: [¬(t > 0) = -t ≥ 0], [¬(t ≥ 0) = -t > 0], ∧/∨ swap. *)

val imply : t -> t -> t
val in_range : Term.t -> lo:float -> hi:float -> t

(** {1 Structure} *)

val atoms : t -> atom list
val size : t -> int

(** Collision-safe structural digest (exact float rendering, prefix-code
    encoding): equal fingerprints imply structurally identical formulas.
    Keys the solver's paving verdict store. *)
val fingerprint : t -> string
val free_vars : t -> SSet.t
val free_vars_acc : SSet.t -> t -> SSet.t
val free_var_list : t -> string list
val map_terms : (Term.t -> Term.t) -> t -> t
val subst : (string * Term.t) list -> t -> t
val rename : (string * string) list -> t -> t

val delta_weaken : float -> t -> t
(** The δ-weakening φ^δ of Definition 4: every atom [t ⋈ 0] becomes
    [t ⋈ -δ]. *)

val dnf : t -> atom list list
(** Disjunctive normal form as a list of conjunctions.  Worst-case
    exponential; the encodings this framework produces keep disjunctions
    shallow. *)

(** {1 Point semantics} *)

val holds : (string -> float) -> t -> bool
val holds_env : (string * float) list -> t -> bool

val holds_delta : delta:float -> (string -> float) -> t -> bool
(** Satisfaction of the δ-weakening at a point — the check a certified
    δ-sat witness must pass. *)

val robustness : (string -> float) -> t -> float
(** Signed satisfaction margin (min over conjunctions, max over
    disjunctions of the atom values); positive implies satisfaction. *)

(** {1 Interval (three-valued) semantics} *)

type verdict = Certain | Impossible | Unknown

val eval_cert : Interval.Box.t -> t -> verdict
(** [Certain]: every point of the box satisfies the formula;
    [Impossible]: no point does; [Unknown]: cannot tell at this width. *)

val range_verdict : rel -> Interval.Ia.t -> verdict
(** The verdict of [r rel 0] for every [r] in the enclosure: [Impossible]
    when it is empty. *)

val eval_atom_interval : Interval.Box.t -> atom -> verdict
(** The default atom certifier behind {!eval_cert}: interval-evaluate
    the atom's term over the box and compare the enclosure against
    zero under the atom's relation ({!range_verdict}). *)

val eval_cert_with : atom:('box -> atom -> verdict) -> 'box -> t -> verdict
(** {!eval_cert} with a caller-supplied atom certifier, over whatever
    representation of the box it reads.  Sound as long as [atom] is:
    [Certain]/[Impossible] claims propagate through the And/Or recursion
    unchanged, and atoms are evaluated left to right only until the
    verdict is settled.  The solver's enclosure-assisted certification
    path injects an evaluator that tightens atom ranges with a
    Taylor-model forward pass before the zero comparison, certifying
    feasible band boxes earlier than plain interval evaluation can; the
    reach checker's compiled row checks read each atom's range from one
    tape evaluation over an interval array. *)

val sat_possible : delta:float -> Interval.Box.t -> t -> bool
(** [false] is definitive: the δ-weakened formula has no solution in the
    box.  [true] only means "not refuted". *)

(** {1 Printing} *)

val pp_rel : rel Fmt.t
val pp_atom : atom Fmt.t
val pp : t Fmt.t
val to_string : t -> string
