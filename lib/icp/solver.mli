(** Branch-and-prune δ-decision procedure — the dReal-equivalent core
    (Theorem 1 of the paper).

    Given a bounded quantifier-free L_RF formula φ and a box of variable
    domains, {!decide} returns one of:
    - [Unsat] — φ has no solution in the box (sound: outward-rounded
      interval arithmetic and HC4 contraction never lose solutions);
    - [Delta_sat w] — the δ-weakening φ^δ is satisfiable.  When
      [w.certified] the witness point was explicitly checked to satisfy
      φ^δ; otherwise the verdict is the one-sided interval answer that
      δ-decidability licenses on a sub-ε box;
    - [Unknown] — the work budget ran out first.

    Every search is a run of {!Search.run}.  With [config.jobs > 1] its
    frontier is drained by that many worker domains (boxes are
    independent); the first δ-sat witness cancels the rest, unsat
    requires frontier exhaustion, and DNF branches race one another.
    Verdict {e kinds} agree with the depth-first search at [jobs = 1];
    the only nondeterminism is {e which} δ-sat witness wins a race.

    Unless disabled ([BIOMC_NO_NEWTON=1] or {!Deriv.set_enabled}), the
    search uses the derivative layer: the per-box contraction gains a
    mean-value-form refutation test and an interval Newton sweep (via
    {!Contractor.contractor}), and branching picks the variable with
    the largest smear score [max |∂f/∂x|·width] instead of the widest
    one ({!Deriv.split}) — in both {!decide} and {!pave}.  Verdicts
    and pavings are unchanged in meaning (the layer only ever removes
    points violating a constraint and swaps which variable is bisected
    first); with the kill-switch the pre-derivative search is
    reproduced exactly. *)

type config = {
  delta : float;  (** perturbation bound δ of the δ-decision problem *)
  epsilon : float;  (** boxes thinner than this are no longer split *)
  max_boxes : int;  (** branch-and-prune work budget (shared across domains) *)
  contractor_rounds : int;  (** HC4 fixpoint rounds per box *)
  use_contraction : bool;  (** disable for bisection-only search (ablation) *)
  jobs : int;  (** worker domains for the search; 1 = sequential *)
}

val default_config : config

type stats = {
  mutable boxes_processed : int;
  mutable splits : int;
  mutable prunings : int;
  mutable max_depth : int;
  mutable certifications : int;  (** candidate witness points probed *)
}

val fresh_stats : unit -> stats

val merge_stats : stats -> stats -> unit
(** [merge_stats acc s] accumulates [s] into [acc] (max over depths). *)

type witness = {
  point : (string * float) list;
  box : Interval.Box.t;
  certified : bool;
}

type result =
  | Unsat
  | Delta_sat of witness
  | Unknown of string

val pp_result : result Fmt.t

val decide : ?config:config -> Expr.Formula.t -> Interval.Box.t -> result

val decide_with_stats :
  ?config:config -> Expr.Formula.t -> Interval.Box.t -> result * stats
(** Like {!decide}, also reporting boxes processed, prunings, splits,
    depth and certification probes. *)

(** {1 Paving}

    Partition of a box by formula status, used for guaranteed parameter
    set identification. *)

type paving = {
  sat : Interval.Box.t list;  (** formula certainly holds on every point *)
  unsat : Interval.Box.t list;  (** formula certainly fails on every point *)
  undecided : Interval.Box.t list;
}

val pave : ?config:config -> Expr.Formula.t -> Interval.Box.t -> paving

val pave_with_stats :
  ?config:config -> Expr.Formula.t -> Interval.Box.t -> paving * stats
(** Like {!pave}, also reporting boxes processed, prunings, splits and
    depth.  With [config.jobs > 1] the paving frontier is drained in
    parallel; the leaf boxes are the same as at [jobs = 1] whenever the
    budget is not exhausted (only list order differs).  A box that finds
    the budget exhausted is an undecided leaf. *)

val paving_volumes : over:string list -> paving -> float * float * float
(** Total (sat, unsat, undecided) volumes over the named dimensions. *)

val pp_paving : paving Fmt.t
