(** CEGIS synthesis of Lyapunov functions with δ-decisions (Sec. IV-C).

    The ∃∀ problem — coefficients c such that V_c > 0 and V_c strictly
    decreases on the region minus a small ball — is decomposed
    counterexample-guided: the ∃-step solves the (linear-in-c) point
    constraints with the ICP solver; the ∀-step searches the annulus
    [|x|² ≥ r²] inside the region for a violation
    [V ≤ 0 ∨ V̇ + ζ·|x|² ≥ 0] (ζ > 0 is the decrease margin).  `unsat`
    for both violations certifies the candidate.

    What [Proved] means: V > 0 and V̇ < −ζ·|x|² at every point of the
    annulus.  No sublevel set of V is checked to lie inside the region,
    so a certificate is not a proved region of attraction. *)

type problem = {
  sys : Ode.System.t;  (** autonomous, parameter-free *)
  region : Interval.Box.t;
  inner_radius : float;  (** points with |x|² < r² are exempt *)
  template : Template.t;
  mu : float;  (** positivity margin used in the ∃-step *)
  zeta : float;  (** decrease margin: the ∀-step proves V̇ < −ζ·|x|² *)
}

val problem :
  ?inner_radius:float ->
  ?mu:float ->
  ?zeta:float ->
  region:Interval.Box.t ->
  template:Template.t ->
  Ode.System.t ->
  problem
(** @raise Invalid_argument on unbound parameters, a region missing a
    variable, or a non-positive inner radius. *)

type certificate = {
  v : Expr.Term.t;
  vdot : Expr.Term.t;  (** Lie derivative of [v] along the system *)
  coefficients : (string * float) list;
  iterations : int;
  counterexamples : (string * float) list list;
  zeta : float;  (** the decrease margin it was proved under *)
  inner_radius : float;  (** the exempt ball's radius it was proved under *)
}

type outcome =
  | Proved of certificate
  | No_candidate of int
      (** ∃-step unsat: the template cannot fit the counterexamples *)
  | Budget_exhausted of int

type config = {
  coeff_bound : float;  (** coefficient search box [-bound, bound] *)
  max_iterations : int;
  exists_solver : Icp.Solver.config;
  forall_solver : Icp.Solver.config;
}

val default_config : config

val synthesize : ?config:config -> problem -> outcome

val validate : ?samples:int -> ?seed:int -> problem -> certificate -> bool
(** Independent re-check by dense random sampling of the problem's
    region outside the certificate's exempt ball: every sample must have
    V > 0 and V̇ < −ζ·|x|², at the certificate's own ζ and inner radius
    (not the problem's), so a certificate is re-checked against the
    claim it was proved for. *)

val pp_outcome : outcome Fmt.t
