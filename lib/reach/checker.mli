(** δ-decision of bounded reachability and parameter synthesis for
    reachability (Definitions 11 and 13) — the dReach-equivalent.

    Per candidate mode path, a branch-and-prune search runs over the
    *search box* (parameter box ∪ non-singleton initial-state dimensions).
    Boxes are evaluated by propagating flow enclosures along the path,
    ICP-tightening jump states with guards and invariants; infeasible
    boxes are pruned (unsat direction), surviving boxes are certified by
    guided numerical simulation (δ-sat direction) or split.

    Flow enclosures are validated tubes when tight, and deterministic
    *ensemble brackets* (sampled trajectories hulled over time windows)
    when the tube degenerates on stiff dynamics.  Both end after their
    first step that leaves the mode invariant: a validated flow stops
    there, and the usability gate judges that tube; a bracket streams
    its trajectories window by window and stops there.  Verdicts carry
    a [rigorous] flag: [Unsat {rigorous = false}] is a high-confidence
    numerical claim, not an interval proof.  δ-sat witnesses with
    [certified = true] are sound regardless. *)

module Box = Interval.Box

type config = {
  delta : float;
  epsilon : float;  (** minimum search-box width *)
  max_param_boxes : int;
  enclosure : Ode.Enclosure.config;
  sim_method : Ode.Integrate.method_;
  fallback_samples : int;  (** ensemble size of the bracketing fallback *)
  fallback_windows : int;  (** time windows per mode for the bracket *)
  fallback_margin : float;  (** relative inflation of the bracket hull *)
  certify_samples : int;  (** certification points besides the midpoint *)
  tube_quality_width : float;
      (** a validated tube wider than this is replaced by the bracket *)
  jobs : int;
      (** worker domains for path / paving parallelism; 1 = sequential *)
}

val default_config : config

type witness = {
  path : string list;
  params : (string * float) list;
  init : (string * float) list;
  reach_time : float;
  certified : bool;
  param_box : Box.t;
}

type result =
  | Unsat of { rigorous : bool }
  | Delta_sat of witness
  | Unknown of string

val pp_result : result Fmt.t

type evidence =
  | Proof  (** every pruning used validated tubes only *)
  | Bracketed
      (** some pruning used an ensemble bracket: a numerical claim,
          not a proof *)
(** What a refutation rests on, for callers that report [Unsat]
    ([Unsat {rigorous = true}] is a [Proof]). *)

val pp_evidence : evidence Fmt.t
(** ["proof"] or ["ensemble-bracketed"]. *)

val check : ?config:config -> Encoding.t -> result
(** Candidate paths are explored shortest-first (therapy identification
    wants minimal drug counts).  [config.jobs] workers drain the paths
    from one frontier and the verdict is merged in path order, so it is
    the same at every [jobs].  Each path's search box is searched by
    {!Icp.Search.run} at [jobs = 1], stopping at its first δ-sat or
    Unknown leaf. *)

(** {1 Parameter synthesis for reachability (Definition 13)} *)

type synthesis = {
  feasible : (Box.t * witness) list;
      (** every value in the box provably reaches the goal *)
  infeasible : (Box.t * bool) list;
      (** no value can reach the goal; the flag records rigor *)
  undecided : (Box.t * witness option) list;
      (** sub-ε boxes; a sampled certified witness when one exists *)
}

val synthesize : ?config:config -> Encoding.t -> synthesis
(** A paving by {!Icp.Search.run}: with [config.jobs > 1], worker
    domains share its frontier and leased box budget; the leaf set is
    the same at every [jobs] when the budget is not exhausted (only list
    order differs). *)

val pp_synthesis : synthesis Fmt.t

(** {1 Building blocks} (exposed for the workflow layer and tests) *)

val searchable_box : Encoding.t -> Box.t
val interpret_box : Encoding.t -> Box.t -> Box.t * Box.t

type segment_enclosure = { steps : Ode.Enclosure.steps; rigorous : bool }

(** {2 Checks along a segment} *)

type judge
(** A formula over a mode system's [vars @ params @ [t]], compiled once
    to judge tube rows: one tape with a root per atom, walked by
    [Expr.Formula.eval_cert_with] over the roots' ranges. *)

val judge : Ode.System.t -> Expr.Formula.t -> judge
(** @raise Invalid_argument if the formula mentions a name outside the
    system's variables, parameters and time. *)

val judge_row :
  judge -> params_box:Box.t -> Ode.Enclosure.steps -> int -> Expr.Formula.verdict
(** [judge_row j ~params_box steps k] is [Expr.Formula.eval_cert] of the
    formula on the box of row [k]'s enclosure, [params_box] and the
    row's time window (a parameter [params_box] lacks counts as any
    value). *)

val flow_enclosure :
  ?jseg:int * int * string ->
  config ->
  Ode.System.t ->
  inv:judge ->
  prepared:Ode.Enclosure.prepared ->
  params_box:Box.t ->
  init_box:Box.t ->
  t_end:float ->
  segment_enclosure option
(** The validated tube when it is usable, else the ensemble bracket;
    either ends at its first step that makes the mode invariant [inv]
    [Impossible], and the gate judges the tube so ended (a validated
    flow that stops there counts in [reach.invariant_stops]).
    [?jseg:(path, depth, mode)] attaches journal segment provenance:
    inside a journaled run, one [Journal.seg] record per call, tagged
    with whether the enclosure was replayed from the segment store. *)

val ensemble_members :
  config ->
  params_box:Box.t ->
  init_box:Box.t ->
  ((string * float) list * (string * float) list) list
(** The flow fallback's [(params, init)] members: the joint box's
    midpoint and [config.fallback_samples] draws from a fixed seed. *)

val ensemble_steps :
  config ->
  Ode.System.t ->
  inv:judge ->
  params_box:Box.t ->
  members:((string * float) list * (string * float) list) list ->
  t_end:float ->
  Ode.Enclosure.steps
(** The ensemble bracket of one [(params, init)] member per trajectory:
    [config.fallback_windows] windows over [[0, t_end]], each the
    inflated hull of every member's [Ode.Integrate.state_at] samples at
    the window's ends and midpoint (enclosure and end state alike),
    ending after the first window whose box (with [params_box] and the
    window's time) makes [inv] [Impossible].  A member whose integration
    cannot start is dropped.  A member whose bindings equal an earlier
    member's, name for name and bit for bit, is integrated once: it
    traces the same trajectory, so the bracket is the same with or
    without it, and [reach.bracket_steps] counts each distinct member's
    steps once.  The flow fallback runs it on {!ensemble_members}. *)

val truncate_at_invariant :
  judge -> params_box:Box.t -> Ode.Enclosure.steps -> Ode.Enclosure.steps
(** The steps up to and including the first one whose box makes the
    invariant [Impossible].  Every segment {!flow_enclosure} returns
    already ends there; this is the reference the tests check it by. *)

val prepare_contract :
  Expr.Formula.t ->
  params_box:Box.t ->
  Interval.Box.t ->
  Interval.Box.t option
(** Compile a formula's per-DNF-branch HC4 contractors once; the returned
    closure contracts a state box (hulled over branches, [None] when every
    branch is infeasible) and is safe to share across worker domains. *)

val states_satisfying :
  Ode.Enclosure.steps -> params_box:Box.t -> judge -> Interval.Box.t option
(** The hull of the enclosures of the steps on which the formula is not
    [Impossible], over the steps' variables. *)

type prep
(** Per-problem compiled kernels: every mode's flow tapes and every
    jump's guard/invariant contractors.  Built once by {!prepare_pb}
    (single-domain), then only read — including from worker domains. *)

val prepare_pb : Encoding.t -> prep

val path_feasible :
  ?jpath:int ->
  config ->
  Encoding.t ->
  prep ->
  string list ->
  params_box:Box.t ->
  init_box:Box.t ->
  [ `Infeasible of bool | `Maybe ] * Ode.Enclosure.steps option
(** Whether the path can reach the goal from [init_box] under
    [params_box] ([`Infeasible rigorous] refutes it), and a complete
    tube of its last mode when the walk got there and one is at hand:
    the rigorous segment's, or a tube the usability gate rejected on its
    final width although it completed (freshly integrated, not replayed:
    the segment store keeps only the segment). *)

val simulate_along_path :
  config ->
  Encoding.t ->
  string list ->
  param_env:(string * float) list ->
  init_env:(string * float) list ->
  float option
(** Simulate the automaton forcing the given mode path (respecting
    δ-weakened guards and invariants); returns the global goal time. *)
