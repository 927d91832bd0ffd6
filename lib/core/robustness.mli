(** Time-bounded robustness analysis (Sec. IV-C): an `unsat` answer
    proves the system filters out a whole range of inputs when it rests
    on validated tubes only.  The input range is the initial box of the
    automaton built by the caller. *)

type verdict =
  | Robust of Reach.Checker.evidence
      (** response unreachable from the whole range: a proof only when
          the evidence is [Proof] *)
  | Excitable of (string * float) list  (** certified triggering witness *)
  | Borderline of string

val classify :
  ?config:Reach.Checker.config ->
  goal:Reach.Encoding.goal ->
  k:int ->
  time_bound:float ->
  ('range -> Hybrid.Automaton.t) ->
  'range ->
  verdict

val sweep :
  ?config:Reach.Checker.config ->
  goal:Reach.Encoding.goal ->
  k:int ->
  time_bound:float ->
  ('range -> Hybrid.Automaton.t) ->
  'range list ->
  ('range * verdict) list
(** The excitability threshold lies between the last Robust and the first
    Excitable range. *)

val threshold :
  ?config:Reach.Checker.config ->
  goal:Reach.Encoding.goal ->
  k:int ->
  time_bound:float ->
  lo:float ->
  hi:float ->
  ?tol:float ->
  (float -> Hybrid.Automaton.t) ->
  float option * (float * verdict) list
(** Bisection on a scalar amplitude, assuming monotone excitability: the
    threshold ([None] when [hi] is not [Excitable]) and every probe's
    amplitude and verdict, in order; the bisection reads [Robust] and
    [Borderline] alike as not excitable. *)

val pp_verdict : verdict Fmt.t
