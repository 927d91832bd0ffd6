(* Validated interval integration.

   Computes guaranteed enclosures of ODE flows over boxes of initial
   states and parameters — the "ODE theory solver" that the bounded
   reachability encoding (dReach-equivalent) consults.

   Per step of size h from state box X0:
   1. A-priori enclosure B ⊇ X([0,h]) by Picard-style inflation:
        B ← X0 ∪ (X0 + [0,h]·f(B))    until containment;
   2. Tightened endpoint box:
      - order 1 (interval Euler):   X1 = X0 + h·f(B)
      - order 2 (interval Taylor):  X1 = X0 + h·f(X0) + (h²/2)·(Jf·f)(B)
      Both are sound by the integral/Taylor mean value forms since the
      trajectory stays in B over the step.

   Neither form ends a step narrower than X0, component by component:
   X1 contains [X0.lo + h·c, X0.hi + h·c] for any c in both f(X0) and
   the accepted f(B), and the derivative at any point of X0 is such a c
   (DESIGN §5a).  So once a state is wider than some bound, every later
   one is too: a caller that rejects such tubes can pass the bound as
   [max_width] and lose nothing. *)

module I = Interval.Ia
module Box = Interval.Box

let src = Logs.Src.create "ode.enclosure" ~doc:"validated integration"
module Log = (val Logs.src_log src : Logs.LOG)

(* Integration telemetry: one span per [flow] call, counters for
   accepted steps, Picard iterations and step-size rejections (a failed
   a-priori enclosure forcing h/2). *)
let tm_flow = Telemetry.Span.probe "ode.flow"
let m_flows = Telemetry.Counter.make "ode.flows"
let m_steps = Telemetry.Counter.make "ode.steps"
let m_picard_iters = Telemetry.Counter.make "ode.picard_iters"
let m_step_rejections = Telemetry.Counter.make "ode.step_rejections"

type order = Euler_1 | Taylor_2

type config = {
  order : order;
  h : float;  (** initial/maximum step size *)
  h_min : float;  (** refuse to shrink the step below this *)
  inflation : float;  (** multiplicative inflation used during Picard iteration *)
  max_picard : int;
  max_width : float;  (** abort when the state box gets wider than this *)
}

let default_config =
  { order = Taylor_2; h = 0.05; h_min = 1e-5; inflation = 0.05; max_picard = 30;
    max_width = 1e4 }

(* Everything besides the system, the boxes and the horizon that decides
   what [flow] returns: the config (floats rendered with %h), the
   evaluation path, the Taylor-model switch and its monomial budget.
   Caches of values derived from a flow key this one string, so no
   layer switch can replay a value computed under another setting. *)
let flow_fingerprint cfg =
  Printf.sprintf "%s|%h|%h|%h|%d|%h|%b|%b|%d"
    (match cfg.order with Euler_1 -> "e1" | Taylor_2 -> "t2")
    cfg.h cfg.h_min cfg.inflation cfg.max_picard cfg.max_width
    (Expr.Tape.enabled ()) (Interval.Tm.enabled ()) (Interval.Tm.budget ())

type step = {
  t_lo : float;
  t_hi : float;
  enclosure : Box.t;  (** encloses the state over the whole step *)
  at_end : Box.t;  (** encloses the state at [t_hi] *)
}

type tube = {
  vars : string list;
  steps : step list;  (* in increasing time order *)
  final : Box.t;
  t_end : float;  (* time actually reached *)
  complete : bool;  (* false when integration aborted (blow-up) *)
}

(* Second-derivative terms (Jf·f + ∂f/∂t) for the Taylor-2 remainder. *)
let second_derivative sys =
  let field = System.rhs sys in
  List.map
    (fun (v, fi) ->
      let along = Expr.Term.lie_derivative field fi in
      let time_part = Expr.Term.deriv System.time_var fi in
      (v, Expr.Term.add along time_part))
    field

(* Evaluate the field over [state ∪ params ∪ t]. *)
let eval_field terms params time state =
  let box =
    Box.set System.time_var time
      (List.fold_left (fun b (k, i) -> Box.set k i b) params (Box.to_list state))
  in
  List.map (fun (v, t) -> (v, Expr.Term.eval_interval box t)) terms

let box_add_scaled state scale deriv =
  List.fold_left
    (fun b (v, d) -> Box.update v (fun x -> I.add x (I.mul scale d)) b)
    state deriv

(* One validated step; [None] when no a-priori enclosure was found.
   [iters] accumulates Picard iterations. *)
let flow_step cfg sys second params t0 h x0 iters =
  let time_whole = I.make t0 (t0 +. h) in
  let h_itv = I.make 0.0 h in
  let field = System.rhs sys in
  (* Picard iteration for the a-priori enclosure. *)
  let rec picard b k =
    if k > cfg.max_picard then None
    else
      let () = incr iters in
      let f_b = eval_field field params time_whole b in
      let next = box_add_scaled x0 h_itv f_b in
      if Box.subset next b then Some b
      else
        let widened =
          Box.map
            (fun i -> I.inflate (cfg.inflation *. (I.width i +. 1e-12)) i)
            (Box.hull b next)
        in
        picard widened (k + 1)
  in
  let seed =
    let f0 = eval_field field params time_whole x0 in
    Box.map (fun i -> I.inflate (cfg.inflation *. (I.width i +. 1e-9)) i)
      (box_add_scaled x0 h_itv f0)
    |> Box.hull x0
  in
  match picard seed 0 with
  | None -> None
  | Some b ->
      let at_end =
        match cfg.order with
        | Euler_1 ->
            let f_b = eval_field field params time_whole b in
            box_add_scaled x0 (I.of_float h) f_b
        | Taylor_2 ->
            let f_x0 = eval_field field params (I.of_float t0) x0 in
            let d2_b = eval_field second params time_whole b in
            let first = box_add_scaled x0 (I.of_float h) f_x0 in
            box_add_scaled first (I.make 0.0 (0.5 *. h *. h)) d2_b
            |> fun taylor ->
            (* The endpoint also lies in the a-priori enclosure: intersect
               for a tighter-than-either result. *)
            Box.inter taylor b
      in
      if Box.is_empty at_end then None
      else Some ({ t_lo = t0; t_hi = t0 +. h; enclosure = b; at_end }, at_end)

(* ---- Tape-compiled flow path ----

   The Picard iteration dominates the cost of [flow]: per iteration, per
   step, the tree path rebuilds a Box (state ∪ params ∪ t) and tree-walks
   every right-hand side with string-keyed lookups.  The compiled path
   flattens both the field and the Taylor-2 remainder terms into tapes
   over [vars @ params @ [t]] once, and runs every evaluation as a loop
   over interval arrays.  The interval arithmetic per component is
   identical operation for operation (interval operations are
   deterministic), so with the Taylor-model pass off the tube is exactly
   the tree path's tube.  With it on, this path also intersects field
   evaluations with their TM range, which the tree path has no pass for,
   so its tube can be tighter; a Picard iteration runs that pass only
   when its interval containment test fails.  The tree path remains as
   the differential-testing oracle and BIOMC_NO_TAPE path. *)

type prepared = {
  p_sys : System.t;
  rhs_tape : Expr.Tape.t;  (* field; one root per state variable *)
  second_tape : Expr.Tape.t;  (* Taylor-2 terms, same input ordering *)
}

let prepare sys =
  let inputs = System.vars sys @ System.params sys @ [ System.time_var ] in
  {
    p_sys = sys;
    rhs_tape = System.rhs_tape sys;
    second_tape =
      Expr.Tape.compile ~vars:inputs (List.map snd (second_derivative sys));
  }

let flow_tape cfg prep ~params ~init ~t_end ~iters t0 =
  let sys = prep.p_sys in
  let vars = Array.of_list (System.vars sys) in
  let n = Array.length vars in
  let np = List.length (System.params sys) in
  let inp = Array.make (n + np + 1) I.entire in
  List.iteri
    (fun j p -> inp.(n + j) <- Box.find p params)
    (System.params sys);
  let sc_rhs = Expr.Tape.scratch prep.rhs_tape in
  let sc_snd = Expr.Tape.scratch prep.second_tape in
  (* Taylor-model evaluation of the field: the state variables are
     exactly where Picard/Taylor enclosures correlate (x appears in
     several rates with opposite signs in mass-action kinetics, and
     mass-action products couple state variables quadratically), so
     the TM range intersected into the interval one shrinks f(B) and
     with it the whole tube.  Sampled once per flow. *)
  let tm = Interval.Tm.enabled () in
  (* A field that reads no time input has the same f(X₀) at the Picard
     seed's time [t0, t0 + h] as at the Taylor-2 endpoint's t0, so the
     endpoint reuses the seed's evaluation. *)
  let reuse_f_x0 =
    cfg.order = Taylor_2 && not (Expr.Tape.reads_input prep.rhs_tape (n + np))
  in
  let tbuf = Array.make n I.empty in
  let intersect_into (enc : I.t array) (out : I.t array) =
    let tightened = ref false in
    for i = 0 to n - 1 do
      let v = out.(i) in
      let w = I.inter v enc.(i) in
      if not (w.I.lo = v.I.lo && w.I.hi = v.I.hi) then begin
        out.(i) <- w;
        tightened := true
      end
    done;
    !tightened
  in
  let eval_interval tape sc time (x : I.t array) (out : I.t array) =
    Array.blit x 0 inp 0 n;
    inp.(n + np) <- time;
    Expr.Tape.eval_interval_into tape sc ~inputs:inp ~out
  in
  (* Intersect [out], the last [eval_interval] of [tape], with its TM
     range over the same inputs; [true] when that tightened it. *)
  let tm_tighten tape sc (out : I.t array) =
    tm
    && Interval.Tm.with_span (fun () ->
           Expr.Tape.eval_tm_into tape sc ~inputs:inp ~out:tbuf;
           let tightened = intersect_into tbuf out in
           if tightened then Interval.Tm.note_tightening ();
           tightened)
  in
  let eval_field tape sc time x out =
    eval_interval tape sc time x out;
    ignore (tm_tighten tape sc out)
  in
  let fbuf = Array.make n I.empty in
  let box_of (x : I.t array) =
    Box.of_list (Array.to_list (Array.mapi (fun i v -> (vars.(i), v)) x))
  in
  let arr_of box = Array.map (fun v -> Box.find v box) vars in
  let width_of (x : I.t array) =
    Array.fold_left (fun acc i -> Float.max acc (I.width i)) 0.0 x
  in
  let inside (next : I.t array) (b : I.t array) =
    let subset = ref true in
    for i = 0 to n - 1 do
      if not (I.subset next.(i) b.(i)) then subset := false
    done;
    !subset
  in
  (* One validated step on interval arrays; mirrors [flow_step]. *)
  let step_tape t0 h (x0 : I.t array) =
    let time_whole = I.make t0 (t0 +. h) in
    let h_itv = I.make 0.0 h in
    let euler () = Array.init n (fun i -> I.add x0.(i) (I.mul h_itv fbuf.(i))) in
    (* Containment is tested on the interval f(B) first, and the TM pass
       runs only when that test fails.  The TM range is only ever
       intersected into the interval one, and [I.add] and [I.mul] are
       inclusion-monotone, so a passing interval test means the tightened
       one passes too; an accepted iteration returns B itself. *)
    let rec picard b k =
      if k > cfg.max_picard then None
      else begin
        incr iters;
        eval_interval prep.rhs_tape sc_rhs time_whole b fbuf;
        let next = euler () in
        if inside next b then Some b
        else
          let next = if tm_tighten prep.rhs_tape sc_rhs fbuf then euler () else next in
          if inside next b then Some b
          else
            let widened =
              Array.init n (fun i ->
                  let hl = I.hull b.(i) next.(i) in
                  I.inflate (cfg.inflation *. (I.width hl +. 1e-12)) hl)
            in
            picard widened (k + 1)
      end
    in
    eval_field prep.rhs_tape sc_rhs time_whole x0 fbuf;
    let seed =
      Array.init n (fun i ->
          let next = I.add x0.(i) (I.mul h_itv fbuf.(i)) in
          I.hull x0.(i) (I.inflate (cfg.inflation *. (I.width next +. 1e-9)) next))
    in
    (* The seed's f(X₀), kept when the endpoint can reuse it. *)
    let f_x0 = if reuse_f_x0 then Some (Array.copy fbuf) else None in
    match picard seed 0 with
    | None -> None
    | Some b ->
        let at_end =
          match cfg.order with
          | Euler_1 ->
              eval_field prep.rhs_tape sc_rhs time_whole b fbuf;
              Array.init n (fun i -> I.add x0.(i) (I.mul (I.of_float h) fbuf.(i)))
          | Taylor_2 ->
              let f_x0 =
                match f_x0 with
                | Some f -> f
                | None ->
                    let f = Array.make n I.empty in
                    eval_field prep.rhs_tape sc_rhs (I.of_float t0) x0 f;
                    f
              in
              eval_field prep.second_tape sc_snd time_whole b fbuf;
              let hh = I.make 0.0 (0.5 *. h *. h) in
              Array.init n (fun i ->
                  let first = I.add x0.(i) (I.mul (I.of_float h) f_x0.(i)) in
                  let taylor = I.add first (I.mul hh fbuf.(i)) in
                  (* The endpoint also lies in the a-priori enclosure. *)
                  I.inter taylor b.(i))
        in
        if Array.exists I.is_empty at_end then None else Some (b, at_end)
  in
  let rec go t x h steps =
    if t >= t_end -. 1e-12 then
      { vars = System.vars sys; steps = List.rev steps; final = box_of x;
        t_end = t; complete = true }
    else if width_of x > cfg.max_width then begin
      Log.debug (fun m ->
          m "enclosure blow-up at t=%g (width %g > max_width %g)" t (width_of x)
            cfg.max_width);
      { vars = System.vars sys; steps = List.rev steps; final = box_of x;
        t_end = t; complete = false }
    end
    else
      let h = Float.min h (t_end -. t) in
      match step_tape t h x with
      | Some (b, x') ->
          let step =
            { t_lo = t; t_hi = t +. h; enclosure = box_of b; at_end = box_of x' }
          in
          go step.t_hi x' cfg.h (step :: steps)
      | None ->
          if h <= cfg.h_min then
            { vars = System.vars sys; steps = List.rev steps; final = box_of x;
              t_end = t; complete = false }
          else begin
            Telemetry.Counter.incr m_step_rejections;
            go t x (h /. 2.0) steps
          end
  in
  go t0 (arr_of init) cfg.h []

let flow_tree config sys ~params ~init ~t_end ~iters t0 =
  let second = if config.order = Taylor_2 then second_derivative sys else [] in
  let rec go t x h steps =
    if t >= t_end -. 1e-12 then
      { vars = System.vars sys; steps = List.rev steps; final = x; t_end = t; complete = true }
    else if Box.width x > config.max_width then begin
      Log.debug (fun m ->
          m "enclosure blow-up at t=%g (width %g > max_width %g)" t (Box.width x)
            config.max_width);
      { vars = System.vars sys; steps = List.rev steps; final = x; t_end = t; complete = false }
    end
    else
      let h = Float.min h (t_end -. t) in
      match flow_step config sys second params t h x iters with
      | Some (step, x') -> go step.t_hi x' config.h (step :: steps)
      | None ->
          if h <= config.h_min then
            { vars = System.vars sys; steps = List.rev steps; final = x; t_end = t;
              complete = false }
          else begin
            Telemetry.Counter.incr m_step_rejections;
            go t x (h /. 2.0) steps
          end
  in
  go t0 init config.h []

(* Integrate from [init] (a box over state variables) for [t_end] time
   units with parameters in [params] (a box over parameter names).
   [prepared] skips the per-call tape compilation; build it once per
   problem when calling [flow] many times on the same system. *)
let flow ?(config = default_config) ?prepared ?(t0 = 0.0) ~params ~init ~t_end
    sys =
  Telemetry.Span.with_ tm_flow @@ fun () ->
  let iters = ref 0 in
  let tube =
    if Expr.Tape.enabled () then
      let prep =
        match prepared with
        | Some p -> p
        | None ->
            (* One-time symbolic + tape compilation: negligible against
               the thousands of Picard evaluations of a typical flow. *)
            prepare sys
      in
      flow_tape config prep ~params ~init ~t_end ~iters t0
    else flow_tree config sys ~params ~init ~t_end ~iters t0
  in
  Telemetry.Counter.incr m_flows;
  Telemetry.Counter.add m_picard_iters !iters;
  Telemetry.Counter.add m_steps (List.length tube.steps);
  (* Journal provenance: inside a journaled reach/synth run every
     integration leaves one record. *)
  if Journal.on () && Journal.in_run () then
    Journal.tube
      ~sys:(String.sub (Digest.to_hex (Digest.string (System.digest sys))) 0 12)
      ~t0 ~t1:tube.t_end ~steps:(List.length tube.steps) ~complete:tube.complete;
  tube

(* Hull of the tube over its whole time span. *)
let tube_hull tube =
  match tube.steps with
  | [] -> tube.final
  | s :: rest -> List.fold_left (fun acc st -> Box.hull acc st.enclosure) s.enclosure rest

(* Enclosure of the state at a given time (hull of covering steps). *)
let state_at tube t =
  let covering =
    List.filter (fun s -> s.t_lo -. 1e-12 <= t && t <= s.t_hi +. 1e-12) tube.steps
  in
  match covering with
  | [] -> None
  | s :: rest -> Some (List.fold_left (fun acc st -> Box.hull acc st.enclosure) s.enclosure rest)

(* Three-valued truth of [formula] (over vars ∪ params ∪ t) along the tube:
   - [`Never]: certainly false at every time in [0, t_end];
   - [`Always]: certainly true at every time;
   - [`Sometimes ts]: possibly true on the returned time windows. *)
let formula_along tube ~params formula =
  let verdicts =
    List.map
      (fun s ->
        let box =
          Box.set System.time_var (I.make s.t_lo s.t_hi)
            (List.fold_left (fun b (k, i) -> Box.set k i b) params
               (Box.to_list s.enclosure))
        in
        (s, Expr.Formula.eval_cert box formula))
      tube.steps
  in
  let possible =
    List.filter_map
      (fun (s, v) ->
        match v with
        | Expr.Formula.Impossible -> None
        | Expr.Formula.Certain | Expr.Formula.Unknown -> Some (s.t_lo, s.t_hi))
      verdicts
  in
  if possible = [] then `Never
  else if List.for_all (fun (_, v) -> v = Expr.Formula.Certain) verdicts then `Always
  else `Sometimes possible
