(** Guaranteed parameter set synthesis for single-mode ODE models against
    time-series bands — the BioPSy-equivalent (Section IV-A).

    The parameter box is paved into boxes where *every* value fits the
    data (proved with validated enclosures), boxes where *no* value can
    fit, and sub-ε remainder.  Inconsistency of the whole box is model
    *falsification*: the hypothesis is rejected (the paper's Fig.-2
    rejection arrow). *)

module Box = Interval.Box

type config = {
  epsilon : float;  (** minimum parameter-box width *)
  max_boxes : int;
  enclosure : Ode.Enclosure.config;
  jobs : int;  (** worker domains paving in parallel; 1 = sequential *)
}

val default_config : config

type problem = {
  sys : Ode.System.t;
  param_box : Box.t;
  init : Box.t;
  data : Data.t;
}

val problem : sys:Ode.System.t -> param_box:Box.t -> init:Box.t -> data:Data.t -> problem
(** @raise Invalid_argument on a parameter without a box, a state without
    an initial interval, or data on an unknown variable. *)

type result = {
  consistent : Box.t list;
  inconsistent : Box.t list;
  undecided : Box.t list;
  boxes_explored : int;
}

val synthesize : ?config:config -> problem -> result
(** A paving by {!Icp.Search.run}: with [config.jobs > 1], worker
    domains share its frontier and leased box budget; the classification
    of each box is a pure function of the box, so the leaf set is the
    same at every [jobs] when the budget is not exhausted (only list
    order may differ). *)

val falsified : result -> bool
(** No parameter box survived: the model cannot explain the data. *)

val volumes : problem -> result -> float * float * float
(** (consistent, inconsistent, undecided) parameter-space volumes. *)

val to_csv : problem -> result -> string
(** CSV of the paving (one row per box: class, lo/hi per parameter), for
    external plotting of the feasible region. *)

val fit : ?config:config -> ?refine_iters:int -> problem -> ((string * float) list * float) option
(** Point estimate: best SSE among surviving-box midpoints, refined by
    coordinate descent within the parameter box.  [None] when falsified. *)

val pp_result : result Fmt.t
