(** Numerical ODE integration with dense traces and event localization. *)

type method_ =
  | Euler of float  (** fixed step size *)
  | Rk4 of float  (** fixed step size *)
  | Rkf45 of { rtol : float; atol : float; h0 : float; h_max : float }
      (** adaptive Runge–Kutta–Fehlberg 4(5) *)
  | Implicit_euler of { h : float; newton_iters : int; newton_tol : float }
      (** backward Euler with a damped Newton solve per step; A-stable,
          for stiff systems where explicit steppers need tiny steps *)

val default_rkf45 : method_

val default_implicit : float -> method_
(** [default_implicit h] is backward Euler at step [h]. *)

type trace = {
  vars : string list;
  times : float array;
  states : float array array;  (** [states.(i)] is the state at [times.(i)] *)
}

(** {1 Trace accessors} *)

val length : trace -> int
val final_time : trace -> float
val final_state : trace -> float array

val var_index : trace -> string -> int
(** @raise Invalid_argument on an unknown variable. *)

val env_at : trace -> int -> (string * float) list
(** Environment at sample [i], including {!System.time_var}. *)

val final_env : trace -> (string * float) list

val state_at : trace -> float -> float array
(** Linear interpolation, clamped to the trace span. *)

val value_at : trace -> string -> float -> float
val signal : trace -> string -> float array

val to_csv : trace -> string
(** CSV rendering with header [t,var1,var2,...]. *)

(** {1 Integration} *)

val simulate :
  ?t0:float ->
  ?method_:method_ ->
  params:(string * float) list ->
  init:(string * float) list ->
  t_end:float ->
  System.t ->
  trace
(** Integrate from the initial environment over [[t0, t_end]].
    @raise Invalid_argument on missing initial values or parameters. *)

type event = { time : float; state : float array }

val simulate_until :
  ?t0:float ->
  ?method_:method_ ->
  ?tol:float ->
  params:(string * float) list ->
  init:(string * float) list ->
  t_end:float ->
  guard:Expr.Formula.t ->
  System.t ->
  trace * event option
(** Integrate until [guard] (over vars ∪ params ∪ t) first becomes true;
    the crossing is localized by bisection to within [tol] and the trace
    is truncated at the event.  [None] when the guard never fires. *)

(** {1 Resumable stepper}

    The integration loop as a value: {!advance} runs it until it accepts
    one more point, with the arithmetic of {!simulate}.  {!simulate} and
    {!simulate_until} copy every point into a trace; the SMC trace views
    read points on demand and stop when a verdict is fixed.  A stepper
    compiles its system's field once ({!System.field}); {!restart} runs
    it again from a new initial point, so a caller that integrates many
    trajectories of one system (an SMC query) builds one stepper. *)

type stepper
(** Owns its field and buffers: use it from one domain. *)

val start :
  ?t0:float ->
  ?method_:method_ ->
  params:(string * float) list ->
  init:(string * float) list ->
  t_end:float ->
  System.t ->
  stepper
(** A stepper at the initial point [(t0, init)]: {!create}, then
    {!restart} with the values of [params] and [init].
    @raise Invalid_argument on missing initial values or parameters. *)

val create : ?t0:float -> ?method_:method_ -> t_end:float -> System.t -> stepper
(** A stepper with no trajectory yet: {!advance} returns [false] until
    {!restart} gives it an initial point. *)

val restart : stepper -> params:float array -> init:float array -> unit
(** [restart st ~params ~init] puts [st] at [(t0, init)] with the
    parameters [params] ({!System.params} order) and the initial state
    [init] ({!System.vars} order), with its first step size and no
    steps taken.  From there it accepts the points a fresh {!start}
    would: nothing of an earlier trajectory is read again.
    @raise Invalid_argument on an array of the wrong length. *)

val advance : stepper -> bool
(** Integrate until one more point is accepted and return [true]; return
    [false] once the integration loop has ended (at [t_end]), and on
    every call after that.
    @raise Invalid_argument on a non-positive fixed step. *)

val time : stepper -> float
(** Time of the current point. *)

val state : stepper -> float array
(** State of the current point, in {!System.vars} order.  The stepper
    overwrites this buffer on the next {!advance}: copy it to keep it. *)

val steps : stepper -> int
(** Points accepted so far. *)

val stepper_vars : stepper -> string list

(** {1 Raw steppers} (exposed for reuse and testing) *)

val euler_step : (float -> float array -> float array) -> float -> float array -> float -> float array
val rk4_step : (float -> float array -> float array) -> float -> float array -> float -> float array

val rkf45_step :
  (float -> float array -> float array) ->
  float -> float array -> float -> float array * float array
(** One RKF 4(5) step, returning the order-4 and order-5 solutions. *)

val rkf45_growth : float -> float
(** The factor RKF45 multiplies its step size by after accepting a step
    whose relative error is [err] (in [0, 1]):
    [Float.min 4.0 (0.9 *. Float.pow (1.0 /. Float.max err 1e-10) 0.2)],
    bit for bit.  It is 4 without the power below {!rkf45_cap_err}. *)

val rkf45_cap_err : float
(** 5.7e-4: below it the cap of 4 decides the growth factor.  The power
    reaches 4 only at err = 5.7665e-4 (0.9⁵/4⁵); at the threshold the
    uncapped factor is 4.0093. *)

val implicit_euler_step :
  newton_iters:int ->
  newton_tol:float ->
  (float -> float array -> float array) ->
  float -> float array -> float -> float array

val solve_linear : float array array -> float array -> float array
(** Dense Gaussian elimination with partial pivoting (exposed for tests). *)
