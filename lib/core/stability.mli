(** Infinite-time stability analysis (Sec. IV-C): Lyapunov-function
    synthesis through δ-decisions, trying templates of increasing
    richness. *)

type report = {
  certificate : Lyapunov.Cegis.certificate option;
  template_used : string option;
  attempts : (string * Lyapunov.Cegis.outcome) list;
}

val prove :
  ?inner_radius:float ->
  ?mu:float ->
  ?zeta:float ->
  ?config:Lyapunov.Cegis.config ->
  region:Interval.Box.t ->
  Ode.System.t ->
  report
(** Try quadratic-form, even-quartic, then full degree ≤ 4 templates. *)

val validate :
  ?samples:int ->
  region:Interval.Box.t ->
  Ode.System.t ->
  Lyapunov.Cegis.certificate ->
  bool
(** Cross-validate a certificate by dense sampling (defense in depth), at
    the decrease margin and inner radius it was proved under. *)

val pp_report : report Fmt.t
