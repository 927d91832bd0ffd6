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
   [max_width] and lose nothing.

   A flow ends at whichever comes first: [t_end], a state wider than
   [max_width] (incomplete), or a step its caller's [until] accepts
   (complete), such as the first step that leaves a mode invariant. *)

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
   Taylor-model switch and its monomial budget.  Caches of values
   derived from a flow key this one string, so no layer switch can
   replay a value computed under another setting. *)
let flow_fingerprint cfg =
  Printf.sprintf "%s|%h|%h|%h|%d|%h|%b|%d"
    (match cfg.order with Euler_1 -> "e1" | Taylor_2 -> "t2")
    cfg.h cfg.h_min cfg.inflation cfg.max_picard cfg.max_width
    (Interval.Tm.enabled ()) (Interval.Tm.budget ())

(* ---- Steps as flat float rows ----

   Row k of a tube over [dim] variables is [stride = 4·dim + 2]
   consecutive unboxed floats:

     t_lo, t_hi,
     lo and hi of the enclosure over [t_lo, t_hi], variable by variable,
     lo and hi of the end state at [t_hi], variable by variable.

   Rows are stored in chunks of [per_chunk] rows, each chunk one float
   array small enough for the minor heap: a growing tube then neither
   copies its rows nor leaves a half-empty array in the major heap, and
   wastes at most one chunk's tail.  The floats are the bounds the
   step's intervals had, so a box built back from a row is the step's
   box bit for bit.  Only this section reads the layout: callers build
   rows through [builder]/[push] and read them through the accessors. *)

type steps = {
  names : string list;  (* the variables, in row order *)
  dim : int;
  per_chunk : int;  (* rows per chunk *)
  len : int;  (* rows in use *)
  chunks : float array array;
}

let stride dim = (4 * dim) + 2

(* The largest array the minor heap takes is 256 words. *)
let rows_per_chunk dim = Int.max 1 (256 / stride dim)

type builder = {
  b_names : string list;
  b_dim : int;
  b_per_chunk : int;
  mutable b_len : int;
  mutable b_chunks : float array array;  (* the first [b_len / b_per_chunk] full *)
}

let builder names =
  let dim = List.length names in
  { b_names = names; b_dim = dim; b_per_chunk = rows_per_chunk dim; b_len = 0;
    b_chunks = [||] }

let push b ~t_lo ~t_hi (enclosure : I.t array) (at_end : I.t array) =
  let w = stride b.b_dim in
  let c = b.b_len / b.b_per_chunk in
  if c = Array.length b.b_chunks then begin
    let dir = Array.make (Int.max 4 (2 * c)) [||] in
    Array.blit b.b_chunks 0 dir 0 c;
    b.b_chunks <- dir
  end;
  if b.b_len mod b.b_per_chunk = 0 then b.b_chunks.(c) <- Array.make (b.b_per_chunk * w) 0.0;
  let r = b.b_chunks.(c) and base = b.b_len mod b.b_per_chunk * w in
  r.(base) <- t_lo;
  r.(base + 1) <- t_hi;
  for i = 0 to b.b_dim - 1 do
    let e = enclosure.(i) and x = at_end.(i) in
    r.(base + 2 + (2 * i)) <- e.I.lo;
    r.(base + 3 + (2 * i)) <- e.I.hi;
    r.(base + 2 + (2 * (b.b_dim + i))) <- x.I.lo;
    r.(base + 3 + (2 * (b.b_dim + i))) <- x.I.hi
  done;
  b.b_len <- b.b_len + 1

(* The rows pushed so far; the chunk directory is trimmed. *)
let contents b =
  let n_chunks = (b.b_len + b.b_per_chunk - 1) / b.b_per_chunk in
  { names = b.b_names; dim = b.b_dim; per_chunk = b.b_per_chunk; len = b.b_len;
    chunks = Array.sub b.b_chunks 0 n_chunks }

let length s = s.len
let vars s = s.names
let prefix s n = { s with len = Int.min n s.len }

(* The chunk holding row k, and the row's offset in it. *)
let[@inline] row s k = (s.chunks.(k / s.per_chunk), k mod s.per_chunk * stride s.dim)

let t_lo s k = let r, j = row s k in r.(j)
let t_hi s k = let r, j = row s k in r.(j + 1)

(* Interval i of row k's enclosure ([part = 0]) or end state ([part = 1]).
   An interval's bounds are ordered or both NaN (the empty one), so
   [I.make] gives it back as it was pushed. *)
let itv s k part i =
  let r, j = row s k in
  let j = j + 2 + (2 * ((part * s.dim) + i)) in
  I.make r.(j) r.(j + 1)

let enclosure_into s k (out : I.t array) =
  for i = 0 to s.dim - 1 do
    out.(i) <- itv s k 0 i
  done

let box_of_row s k part = Box.of_list (List.mapi (fun i v -> (v, itv s k part i)) s.names)
let enclosure s k = box_of_row s k 0
let at_end s k = box_of_row s k 1

type tube = {
  vars : string list;
  steps : steps;  (* in increasing time order *)
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

(* ---- The compiled flow ----

   The Picard iteration dominates the cost of [flow], so the field and
   the Taylor-2 remainder terms are flattened into tapes over
   [vars @ params @ [t]] once, and every evaluation runs as a loop over
   interval arrays: no box is rebuilt and no name looked up per step.
   With the Taylor-model layer on, each field evaluation is also
   intersected with its Taylor-model range; a Picard iteration runs that
   pass only when its interval containment test fails. *)

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

let flow_tape cfg prep ~until ~params ~init ~t_end ~iters t0 =
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
  (* One validated step on interval arrays; [None] when no a-priori
     enclosure was found. *)
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
  let rows = builder (System.vars sys) in
  let finish t x complete =
    { vars = System.vars sys; steps = contents rows; final = box_of x; t_end = t;
      complete }
  in
  let rec go t x h =
    if t >= t_end -. 1e-12 then finish t x true
    else if width_of x > cfg.max_width then begin
      Log.debug (fun m ->
          m "enclosure blow-up at t=%g (width %g > max_width %g)" t (width_of x)
            cfg.max_width);
      finish t x false
    end
    else
      let h = Float.min h (t_end -. t) in
      match step_tape t h x with
      | Some (b, x') ->
          let t' = t +. h in
          push rows ~t_lo:t ~t_hi:t' b x';
          if until ~t_lo:t ~t_hi:t' b then finish t' x' true else go t' x' cfg.h
      | None ->
          if h <= cfg.h_min then finish t x false
          else begin
            Telemetry.Counter.incr m_step_rejections;
            go t x (h /. 2.0)
          end
  in
  go t0 (arr_of init) cfg.h

(* Integrate from [init] (a box over state variables) for [t_end] time
   units with parameters in [params] (a box over parameter names), or
   until a step [until] accepts.  [prepared] skips the per-call tape
   compilation; build it once per problem when calling [flow] many times
   on the same system. *)
let flow ?(config = default_config) ?prepared ?(t0 = 0.0)
    ?(until = fun ~t_lo:_ ~t_hi:_ _ -> false) ~params ~init ~t_end sys =
  Telemetry.Span.with_ tm_flow @@ fun () ->
  let iters = ref 0 in
  let prep =
    match prepared with
    | Some p -> p
    | None ->
        (* One-time symbolic + tape compilation: negligible against
           the thousands of Picard evaluations of a typical flow. *)
        prepare sys
  in
  let tube = flow_tape config prep ~until ~params ~init ~t_end ~iters t0 in
  Telemetry.Counter.incr m_flows;
  Telemetry.Counter.add m_picard_iters !iters;
  Telemetry.Counter.add m_steps (length tube.steps);
  (* Journal provenance: inside a journaled reach/synth run every
     integration leaves one record. *)
  if Journal.on () && Journal.in_run () then
    Journal.tube
      ~sys:(String.sub (Digest.to_hex (Digest.string (System.digest sys))) 0 12)
      ~t0 ~t1:tube.t_end ~steps:(length tube.steps) ~complete:tube.complete;
  tube

(* The hull of the enclosures of rows [a..b], a <= b. *)
let hull_rows s a b =
  Box.of_list
    (List.mapi
       (fun i v ->
         let acc = ref (itv s a 0 i) in
         for k = a + 1 to b do
           acc := I.hull !acc (itv s k 0 i)
         done;
         (v, !acc))
       s.names)

(* Hull of the tube over its whole time span. *)
let tube_hull tube =
  if tube.steps.len = 0 then tube.final else hull_rows tube.steps 0 (tube.steps.len - 1)

(* Enclosure of the state at a given time: the hull of the steps whose
   window, widened by 1e-12 on both sides, holds [t].  Both ends of the
   windows rise with k, so the covering steps are the run from the first
   one that ends at or after [t] to the last one that starts at or
   before it; two binary searches find it. *)
let state_at tube t =
  let s = tube.steps in
  (* The first k in [0, len] at which [p] holds, [p] false then true. *)
  let first p =
    let lo = ref 0 and hi = ref s.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if p mid then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let a = first (fun k -> t <= t_hi s k +. 1e-12) in
  let b = first (fun k -> not (t_lo s k -. 1e-12 <= t)) - 1 in
  if a > b then None else Some (hull_rows s a b)
