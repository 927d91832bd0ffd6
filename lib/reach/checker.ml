(* δ-decision of bounded reachability and parameter synthesis
   (Definitions 11 and 13 of the paper; the dReach-equivalent).

   For each candidate mode path the checker runs a branch-and-prune search
   over the *search box* — the parameter box joined with every
   non-singleton dimension of the initial state box.  A box is evaluated
   by propagating a flow enclosure along the path:

     X_0  --flow q_0-->  guard window  --reset-->  X_1  --flow q_1--> ...

   If at some step the jump guard is never enabled, or the goal predicate
   is false throughout the final mode, the box is pruned (unsat
   direction).  Surviving boxes are *certified* by numerically simulating
   the path at sampled points and checking the δ-weakened goal; failing
   certification the box is split, and sub-ε boxes yield Unknown (we do
   not claim one-sided δ-sat without a point witness here, because the
   flow enclosures are not always rigorous — see below).

   The box loop of a path's search and of parameter synthesis is
   {!Icp.Search.run}, the driver shared with decide and pave; this
   module supplies their steps.  A path's search runs at [jobs = 1];
   [config.jobs] workers drain the candidate paths from one frontier
   (a scan in path order at [jobs = 1]) and drain synthesis's paving.

   Flow enclosures come in two strengths:
   - a *validated tube* (Ode.Enclosure) — rigorous, used whenever it
     stays tight up to the first step that leaves the mode invariant,
     where it ends;
   - an *ensemble bracket* — when the validated tube blows up (stiff
     cardiac dynamics make single-shot interval Taylor methods explode,
     a known limitation), the checker hulls a deterministic ensemble of
     numerical trajectories over time windows and inflates the hull.
     The ensemble is streamed: one [Ode.Integrate] stepper per sample
     point, all advanced window by window, and it stops after the first
     window that certainly leaves the mode invariant (a run must satisfy
     its invariant while it flows), which is where path feasibility
     stops reading the flow anyway.
     Verdicts that relied on a bracket carry [rigorous = false]: they
     are high-confidence numerical claims, not proofs.  EXPERIMENTS.md
     reports the flag for every experiment. *)

module I = Interval.Ia
module Box = Interval.Box
module F = Expr.Formula
module T = Expr.Term

let src = Logs.Src.create "reach.checker" ~doc:"bounded reachability"
module Log = (val Logs.src_log src : Logs.LOG)

(* Reachability telemetry.  Path unrolling is traced per (mode, depth):
   each flow segment gets a span whose payload is its depth along the
   path, nested under the per-path span (payload: path length), nested
   under the whole check; an ensemble bracket gets its own span inside
   its segment.  The checks along a segment (invariant, guard and goal
   on its rows, the jump's contraction and reset) run under
   [reach.seg_check], and certification's simulations under
   [reach.certify], so all of it is booked to reach.  Counters record
   how many candidate paths and flow segments were evaluated, how often
   the validated tube was replaced by the non-rigorous ensemble
   bracket, how many steps the bracket's members integrated, and how
   many validated flows ended at their mode invariant. *)
let tm_check = Telemetry.Span.probe "reach.check"
let tm_synth = Telemetry.Span.probe "reach.synthesize"
let tm_path = Telemetry.Span.probe "reach.path"
let tm_segment = Telemetry.Span.probe "reach.segment"
let tm_bracket = Telemetry.Span.probe "reach.bracket"
let tm_seg_check = Telemetry.Span.probe "reach.seg_check"
let tm_certify = Telemetry.Span.probe "reach.certify"
let m_paths = Telemetry.Counter.make "reach.paths"
let m_segments = Telemetry.Counter.make "reach.segments"
let m_brackets = Telemetry.Counter.make "reach.fallback_brackets"
let m_bracket_steps = Telemetry.Counter.make "reach.bracket_steps"
let m_invariant_stops = Telemetry.Counter.make "reach.invariant_stops"

type config = {
  delta : float;
  epsilon : float;  (** minimum search-box width before giving up splitting *)
  max_param_boxes : int;
  enclosure : Ode.Enclosure.config;
  sim_method : Ode.Integrate.method_;
  fallback_samples : int;  (** ensemble size for the bracketing fallback *)
  fallback_windows : int;  (** time windows per mode for the bracket *)
  fallback_margin : float;  (** relative inflation of the bracket hull *)
  certify_samples : int;  (** extra certification points besides the midpoint *)
  tube_quality_width : float;
      (** a validated tube wider than this is considered degenerate and is
          replaced by the ensemble bracket *)
  jobs : int;  (** worker domains for path / paving parallelism; 1 = sequential *)
}

let default_config =
  {
    delta = 1e-3;
    epsilon = 1e-3;
    max_param_boxes = 4_000;
    enclosure = Ode.Enclosure.default_config;
    sim_method = Ode.Integrate.default_rkf45;
    fallback_samples = 24;
    fallback_windows = 120;
    fallback_margin = 0.05;
    certify_samples = 8;
    tube_quality_width = 1.0;
    jobs = 1;
  }

type witness = {
  path : string list;
  params : (string * float) list;
  init : (string * float) list;  (** initial state realizing the witness *)
  reach_time : float;
  certified : bool;
  param_box : Box.t;
}

type result =
  | Unsat of { rigorous : bool }
  | Delta_sat of witness
  | Unknown of string

type evidence = Proof | Bracketed

let pp_evidence ppf = function
  | Proof -> Fmt.string ppf "proof"
  | Bracketed -> Fmt.string ppf "ensemble-bracketed"

let pp_result ppf = function
  | Unsat { rigorous } ->
      Fmt.pf ppf "unsat%s" (if rigorous then "" else " (ensemble-bracketed)")
  | Delta_sat w ->
      Fmt.pf ppf "delta-sat via %a%s params [%a] at t=%.4g"
        Fmt.(list ~sep:(any "->") string)
        w.path
        (if w.certified then " (certified)" else "")
        Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string float))
        w.params w.reach_time
  | Unknown why -> Fmt.pf ppf "unknown (%s)" why

(* ---- Search box: parameters ∪ wide initial-state dimensions ---- *)

let searchable_box (pb : Encoding.t) =
  let init = Hybrid.Automaton.init_box pb.Encoding.automaton in
  Box.fold
    (fun v itv acc -> if I.is_singleton itv then acc else Box.set v itv acc)
    init pb.Encoding.param_box

(* Split a search box into (params part, init-state box). *)
let interpret_box (pb : Encoding.t) sbox =
  let automaton = pb.Encoding.automaton in
  let params =
    List.fold_left
      (fun acc p -> Box.set p (Box.find p sbox) acc)
      Box.empty_map
      (Hybrid.Automaton.params automaton)
  in
  let init =
    Box.fold
      (fun v itv acc ->
        match Box.find_opt v sbox with
        | Some refined -> Box.set v refined acc
        | None -> Box.set v itv acc)
      (Hybrid.Automaton.init_box automaton)
      Box.empty_map
  in
  (params, init)

(* ---- Flow enclosures: validated tube, or ensemble bracket ---- *)

type segment_enclosure = {
  steps : Ode.Enclosure.steps;
  rigorous : bool;
}

(* Deterministic sample points of a box: midpoint + uniform draws.  The
   [w <= 0.0] branch never fires on a point: [I.width] rounds outward,
   so a point's width is 2⁻¹⁰⁷⁴ and a point coordinate still draws,
   [lo + Random.State.float rng 2⁻¹⁰⁷⁴], which is [lo] itself unless
   [lo] is a zero or subnormal.  So a point box whose coordinates are
   neither yields copies of its midpoint, which [ensemble_steps]
   integrates once.  The draws stay as they are: each consumes the
   generator, and a changed draw would move every bracket. *)
let sample_envs ~seed ~n box =
  let rng = Random.State.make [| seed; Box.cardinal box |] in
  let mid = Box.mid_env box in
  let draw () =
    List.map
      (fun (v, itv) ->
        let w = I.width itv in
        if w <= 0.0 then (v, I.mid itv)
        else (v, I.lo itv +. Random.State.float rng w))
      (Box.to_list box)
  in
  mid :: List.init n (fun _ -> draw ())

(* ---- Checks along a segment ----

   A formula over a mode system's [vars @ params @ [t]] is judged on a
   step's enclosure, the parameters and the step's time window.  A
   [judge] compiles it once into one tape with a root per atom; a
   [row_check] evaluates every root over a step's interval array in one
   forward pass, and [F.eval_cert_with] walks the formula over those
   ranges.  The tape's forward pass applies the tree walk's interval
   operation at every slot, so the verdict is [F.eval_cert]'s on the
   step's box. *)

type judge = {
  formula : F.t;
  fingerprint : string;  (* [F.fingerprint formula] *)
  n_vars : int;
  params : string list;
  tape : Expr.Tape.t;  (* one root per atom *)
  roots : (F.atom * int) list;  (* each atom's root, by physical atom *)
}

let judge sys formula =
  let vars = Ode.System.vars sys and params = Ode.System.params sys in
  let atoms = F.atoms formula in
  { formula; fingerprint = F.fingerprint formula; n_vars = List.length vars; params;
    tape =
      Expr.Tape.compile ~vars:(vars @ params @ [ Ode.System.time_var ])
        (List.map (fun (a : F.atom) -> a.term) atoms);
    roots = List.mapi (fun i a -> (a, i)) atoms }

(* A judge at work under one parameter box: its inputs, with the
   parameters set (one the box lacks is any value) and the state and
   the time filled per step, a scratch and the atoms' ranges. *)
type row_check = {
  j : judge;
  inp : I.t array;
  sc : Expr.Tape.scratch;
  ranges : I.t array;
}

let row_check j ~params_box =
  let inp = Array.make (j.n_vars + List.length j.params + 1) I.entire in
  List.iteri
    (fun i p ->
      Option.iter (fun v -> inp.(j.n_vars + i) <- v) (Box.find_opt p params_box))
    j.params;
  { j; inp; sc = Expr.Tape.scratch j.tape;
    ranges = Array.make (List.length j.roots) I.empty }

let set_time c ~t_lo ~t_hi = c.inp.(Array.length c.inp - 1) <- I.make t_lo t_hi

let load_row c steps k =
  Ode.Enclosure.enclosure_into steps k c.inp;
  set_time c ~t_lo:(Ode.Enclosure.t_lo steps k) ~t_hi:(Ode.Enclosure.t_hi steps k)

let verdict c =
  Expr.Tape.eval_interval_into c.j.tape c.sc ~inputs:c.inp ~out:c.ranges;
  F.eval_cert_with
    ~atom:(fun ranges (a : F.atom) ->
      F.range_verdict a.rel ranges.(List.assq a c.j.roots))
    c.ranges c.j.formula

let judge_row j ~params_box steps k =
  let c = row_check j ~params_box in
  load_row c steps k;
  verdict c

(* A run must satisfy its mode invariant while it flows: once a step's
   enclosure makes the invariant [Impossible], every trajectory has left
   the mode and later steps are spurious.  [c] holds the step. *)
let leaves_invariant c = c.j.formula <> F.True && verdict c = F.Impossible

(* [leaves_invariant] on a step given as its time window and its
   enclosure, one interval per variable: the test after which a
   validated flow or an ensemble bracket ends. *)
let invariant_exit j ~params_box =
  let c = row_check j ~params_box in
  fun ~t_lo ~t_hi (enclosure : I.t array) ->
    Array.blit enclosure 0 c.inp 0 j.n_vars;
    set_time c ~t_lo ~t_hi;
    leaves_invariant c

(* The [until] of a validated flow in a mode: the invariant's exit,
   counted. *)
let stop_at_invariant j ~params_box =
  let leaves = invariant_exit j ~params_box in
  fun ~t_lo ~t_hi enclosure ->
    leaves ~t_lo ~t_hi enclosure
    && begin
         Telemetry.Counter.incr m_invariant_stops;
         true
       end

(* ---- Ensemble bracket ----

   One stepper per sample point, advanced window by window in lockstep.
   A member keeps only what [Ode.Integrate.state_at] reads of a stored
   trace: the first point and the last two accepted points.  The window
   samples t_lo <= mid <= t_hi come in time order, so each member
   integrates only as far as the latest sample needs, and the ensemble
   stops after the first window that leaves the mode invariant. *)

type member = {
  st : Ode.Integrate.stepper;  (* its current point is the last accepted one *)
  t_first : float;
  first : float array;
  mutable t_prev : float;
  prev : float array;  (* the point accepted before the current one *)
  mutable live : bool;  (* false once the integration loop has ended *)
}

(* [None] when [start] or the first [advance] raises, as [simulate]
   would have: the compiled field has no raising path after that. *)
let start_member cfg pb_sys ~t_end (params, init) =
  match
    let st =
      Ode.Integrate.start ~method_:cfg.sim_method ~params ~init ~t_end pb_sys
    in
    let t_first = Ode.Integrate.time st in
    let first = Array.copy (Ode.Integrate.state st) in
    let live = Ode.Integrate.advance st in
    { st; t_first; first; t_prev = t_first; prev = Array.copy first; live }
  with
  | m -> Some m
  | exception _ -> None

(* Integrate until the current point lies past [t] or the loop ends. *)
let advance_past m t =
  while m.live && Ode.Integrate.time m.st <= t do
    let y = Ode.Integrate.state m.st in
    m.t_prev <- Ode.Integrate.time m.st;
    Array.blit y 0 m.prev 0 (Array.length y);
    m.live <- Ode.Integrate.advance m.st
  done

(* [Ode.Integrate.state_at] of the member's whole trace at [t], written
   into [out].  [m] has advanced past [t]: either its previous and
   current points bracket [t], or its loop ended at or before [t] and
   [t] clamps to the final point. *)
let sample_into m t out =
  let tc = Ode.Integrate.time m.st and yc = Ode.Integrate.state m.st in
  if t <= m.t_first then Array.blit m.first 0 out 0 (Array.length out)
  else if (not m.live) && t >= tc then Array.blit yc 0 out 0 (Array.length out)
  else begin
    let t0 = m.t_prev and s0 = m.prev in
    let w = if tc > t0 then (t -. t0) /. (tc -. t0) else 0.0 in
    for j = 0 to Array.length out - 1 do
      out.(j) <- s0.(j) +. (w *. (yc.(j) -. s0.(j)))
    done
  end

(* The members in order, each kept at its first occurrence only.  Two
   members whose bindings agree name for name and bit for bit (−0.0 and
   +0.0 apart) trace the same trajectory, and [I.hull] is idempotent:
   a copy adds nothing to any window's hull, and it is reached in the
   windows its first occurrence is. *)
let distinct_members members =
  let same (k, x) (k', y) =
    String.equal k k' && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  in
  let same_member (p, i) (p', i') = List.equal same p p' && List.equal same i i' in
  List.rev
    (List.fold_left
       (fun seen m -> if List.exists (same_member m) seen then seen else m :: seen)
       [] members)

(* The bracket of the members [(params, init)] over [0, t_end], cut after
   the first window that makes [inv] [Impossible].  Per variable, a
   member's window hull is the hull of its t_lo, midpoint and t_hi
   samples, hulled across members in order; a member whose trace ended
   before t_lo sits the window out, and a window no member reaches ends
   the bracket.  Each distinct member is integrated once. *)
let ensemble_steps cfg pb_sys ~inv ~params_box ~members ~t_end =
  let members =
    List.filter_map (start_member cfg pb_sys ~t_end) (distinct_members members)
  in
  let vars = Ode.System.vars pb_sys in
  let n = List.length vars in
  let s_lo = Array.make n 0.0 and s_mid = Array.make n 0.0 in
  let s_hi = Array.make n 0.0 and hull = Array.make n I.empty in
  let windows = Stdlib.max 1 cfg.fallback_windows in
  let dt = t_end /. float_of_int windows in
  let rows = Ode.Enclosure.builder vars in
  let leaves = invariant_exit inv ~params_box in
  let rec window i =
    if i < windows then begin
      let t_lo = dt *. float_of_int i and t_hi = dt *. float_of_int (i + 1) in
      let t_mid = 0.5 *. (t_lo +. t_hi) in
      let reached = ref false in
      List.iter
        (fun m ->
          advance_past m t_lo;
          if m.live || Ode.Integrate.time m.st >= t_lo -. 1e-9 then begin
            sample_into m t_lo s_lo;
            advance_past m t_mid;
            sample_into m t_mid s_mid;
            advance_past m t_hi;
            sample_into m t_hi s_hi;
            for j = 0 to n - 1 do
              let h =
                I.hull (I.hull (I.of_float s_lo.(j)) (I.of_float s_mid.(j)))
                  (I.of_float s_hi.(j))
              in
              hull.(j) <- (if !reached then I.hull hull.(j) h else h)
            done;
            reached := true
          end)
        members;
      if !reached then begin
        let enclosure =
          Array.map
            (fun itv -> I.inflate ((cfg.fallback_margin *. I.width itv) +. 1e-6) itv)
            hull
        in
        Ode.Enclosure.push rows ~t_lo ~t_hi enclosure enclosure;
        if not (leaves ~t_lo ~t_hi enclosure) then window (i + 1)
      end
    end
  in
  window 0;
  let steps = Ode.Enclosure.contents rows in
  Telemetry.Counter.add m_bracket_steps
    (List.fold_left (fun k m -> k + Ode.Integrate.steps m.st) 0 members);
  steps

(* The ensemble's (params, init) members: the midpoint and
   [fallback_samples] fixed-seed draws of the joint box. *)
let ensemble_members cfg ~params_box ~init_box =
  let joint =
    List.fold_left (fun b (k, v) -> Box.set k v b) params_box (Box.to_list init_box)
  in
  List.map
    (fun env ->
      ( List.filter (fun (k, _) -> Box.mem_var k params_box) env,
        List.filter (fun (k, _) -> Box.mem_var k init_box) env ))
    (sample_envs ~seed:20200426 ~n:cfg.fallback_samples joint)

(* Segment-enclosure cache: path enumeration revisits mode flows (every
   candidate path shares prefixes with its extensions, and synthesis
   re-checks the boxes of a path it has already scanned), so memoize
   the whole validated-or-bracketed answer.  The fallback bracket is
   deterministic (fixed sampling seed), so exact replay is
   identity-preserving. *)
let seg_cache : segment_enclosure option Cache.t =
  Cache.create ~group_capacity:2048 "reach-seg"

let method_fingerprint = function
  | Ode.Integrate.Euler h -> Printf.sprintf "E%h" h
  | Ode.Integrate.Rk4 h -> Printf.sprintf "R%h" h
  | Ode.Integrate.Rkf45 { rtol; atol; h0; h_max } ->
      Printf.sprintf "F%h,%h,%h,%h" rtol atol h0 h_max
  | Ode.Integrate.Implicit_euler { h; newton_iters; newton_tol } ->
      Printf.sprintf "I%h,%d,%h" h newton_iters newton_tol

(* Keyed by the flow fingerprint, which names every layer switch the
   tube depends on, and by the bracket's settings.  Keyed by the mode
   invariant too, which cuts the bracket: two modes may share a vector
   field. *)
let seg_group cfg pb_sys ~inv ~t_end =
  Printf.sprintf "segenc|%s|%s|%s|%s|%d|%d|%h|%h|%h"
    (Ode.System.digest pb_sys) inv.fingerprint
    (Ode.Enclosure.flow_fingerprint cfg.enclosure)
    (method_fingerprint cfg.sim_method)
    cfg.fallback_samples cfg.fallback_windows cfg.fallback_margin
    cfg.tube_quality_width t_end

(* Compute an enclosure of the flow of [sys] from [init_box] under
   [params_box] over [0, t_end], up to the first step that leaves the
   invariant [inv]; validated when possible, bracketed otherwise — and
   the bracket stops at [inv] too.  [None] when even the ensemble
   produced nothing.  Second: the tube the gate rejected, when it
   completed anyway (its final state is too wide); it is the same tube
   step for step as one integrated without the gate's limit, which a
   complete tube never reached before its end. *)
let flow_enclosure_uncached cfg pb_sys ~inv ~prepared ~params_box ~init_box ~t_end =
  (* The gate's limit.  No state of a tube is narrower than the one
     before it (DESIGN §5a), so a tube is lost at its first state wider
     than the limit, and [max_width] ends it there; a larger or NaN
     limit keeps the configured ceiling. *)
  let limit = Float.max cfg.tube_quality_width (4.0 *. Box.width init_box) in
  let config =
    if limit < cfg.enclosure.max_width then { cfg.enclosure with max_width = limit }
    else cfg.enclosure
  in
  let tube =
    Ode.Enclosure.flow ~config ~prepared ~until:(stop_at_invariant inv ~params_box)
      ~params:params_box ~init:init_box ~t_end pb_sys
  in
  let tube_usable =
    tube.Ode.Enclosure.complete && Box.width tube.Ode.Enclosure.final <= limit
  in
  if tube_usable then (Some { steps = tube.Ode.Enclosure.steps; rigorous = true }, None)
  else begin
    let rejected =
      if tube.Ode.Enclosure.complete then Some tube.Ode.Enclosure.steps else None
    in
    Telemetry.Counter.incr m_brackets;
    match
      Telemetry.Span.with_ tm_bracket (fun () ->
          ensemble_steps cfg pb_sys ~inv ~params_box
            ~members:(ensemble_members cfg ~params_box ~init_box) ~t_end)
    with
    | steps when Ode.Enclosure.length steps = 0 -> (None, rejected)
    | steps -> (Some { steps; rigorous = false }, rejected)
  end

(* The segment, through the segment store, and on a miss the complete
   tube the gate rejected (see [flow_enclosure_uncached]): the store
   keeps only the segment. *)
let flow_segment ?jseg cfg pb_sys ~inv ~prepared ~params_box ~init_box ~t_end =
  let group = seg_group cfg pb_sys ~inv ~t_end in
  let key = Box.join params_box init_box in
  let cached = Cache.find seg_cache ~group key in
  (* [jseg = (path, depth, mode)]: journal one segment record per flow
     step of a path unrolling, tagged with whether the enclosure came
     out of the segment store; a fresh one's tube records follow it. *)
  (match jseg with
  | Some (p, i, m) when Journal.on () && Journal.in_run () ->
      Journal.seg ~path:p ~index:i ~mode:m ~cached:(Option.is_some cached)
  | _ -> ());
  match cached with
  | Some seg -> (seg, None)
  | None ->
      let seg, rejected =
        flow_enclosure_uncached cfg pb_sys ~inv ~prepared ~params_box ~init_box
          ~t_end
      in
      Cache.add seg_cache ~group key seg;
      (seg, rejected)

let flow_enclosure ?jseg cfg pb_sys ~inv ~prepared ~params_box ~init_box ~t_end =
  fst (flow_segment ?jseg cfg pb_sys ~inv ~prepared ~params_box ~init_box ~t_end)

(* ---- Validated path feasibility ---- *)

let apply_reset_box automaton params_box (j : Hybrid.Automaton.jump) state_box =
  let env =
    Box.set Ode.System.time_var I.entire
      (List.fold_left (fun b (k, v) -> Box.set k v b) state_box (Box.to_list params_box))
  in
  List.fold_left
    (fun acc v ->
      match List.assoc_opt v j.reset with
      | Some term -> Box.set v (T.eval_interval env term) acc
      | None -> acc)
    state_box
    (Hybrid.Automaton.vars automaton)

(* Contract a state box with a formula (over vars ∪ params ∪ t) using HC4
   fixpoint propagation — per DNF branch, hulled.  [None] when every
   branch is infeasible.  This is the ICP step that keeps jump-state
   hulls tight (e.g. restricting post-guard states to the guard surface
   and the target mode's invariant).

   [prepare_contract] compiles the formula's per-branch contractors once
   (tape-backed by default) and returns a closure applied per box; the
   closures are immutable after construction and safe to call from
   concurrent worker domains. *)
let prepare_contract formula =
  if formula = F.True then fun ~params_box:_ state_box -> Some state_box
  else
    let branch_contractors =
      List.map
        (fun atoms ->
          Icp.Contractor.(contractor ~max_rounds:5 (compile (of_atoms atoms))))
        (F.dnf formula)
    in
    fun ~params_box state_box ->
      let full =
        Box.set Ode.System.time_var I.entire
          (List.fold_left (fun b (k, v) -> Box.set k v b) state_box
             (Box.to_list params_box))
      in
      let contracted = List.filter_map (fun c -> c full) branch_contractors in
      match contracted with
      | [] -> None
      | b :: rest ->
          let hull = List.fold_left Box.hull b rest in
          (* read back only the state components *)
          Some
            (Box.fold
               (fun v _ acc -> Box.set v (Box.find v hull) acc)
               state_box Box.empty_map)

(* ---- Per-problem prepared kernels ----

   One compilation of every mode's flow tapes and every jump's contractors,
   built up front (single-domain) by [prepare_pb] and then only read —
   including from the parallel path / paving workers. *)

type prep = {
  flow_prep : (string, Ode.Enclosure.prepared) Hashtbl.t;  (* mode name *)
  inv_judge : (string, judge) Hashtbl.t;  (* mode name ↦ its invariant *)
  guard_judge : (string * string, judge) Hashtbl.t;
      (* (source, target) ↦ the jump's guard *)
  goal_judge : judge;
  guard_contract :
    (string * string, params_box:Box.t -> Box.t -> Box.t option) Hashtbl.t;
      (* (source, target) ↦ contractor for guard ∧ source invariant *)
  inv_contract : (string, params_box:Box.t -> Box.t -> Box.t option) Hashtbl.t;
      (* mode name ↦ contractor for the mode invariant *)
}

let prepare_pb (pb : Encoding.t) =
  let automaton = pb.Encoding.automaton in
  let sys q = Hybrid.Automaton.mode_system automaton q in
  let flow_prep = Hashtbl.create 8 and inv_judge = Hashtbl.create 8 in
  let guard_judge = Hashtbl.create 8 and guard_contract = Hashtbl.create 8 in
  let inv_contract = Hashtbl.create 8 in
  List.iter
    (fun (m : Hybrid.Automaton.mode) ->
      Hashtbl.replace flow_prep m.mode_name (Ode.Enclosure.prepare (sys m.mode_name));
      Hashtbl.replace inv_judge m.mode_name (judge (sys m.mode_name) m.invariant);
      Hashtbl.replace inv_contract m.mode_name
        (prepare_contract m.invariant))
    (Hybrid.Automaton.modes automaton);
  List.iter
    (fun (j : Hybrid.Automaton.jump) ->
      let key = (j.source, j.target) in
      (* first jump per (source, target) wins, matching the List.find in
         [path_feasible] *)
      if not (Hashtbl.mem guard_contract key) then begin
        let source_inv =
          (Hybrid.Automaton.find_mode automaton j.source).invariant
        in
        Hashtbl.replace guard_judge key (judge (sys j.source) j.guard);
        Hashtbl.replace guard_contract key
          (prepare_contract (F.and_ [ j.guard; source_inv ]))
      end)
    (Hybrid.Automaton.jumps automaton);
  (* Every mode system has the automaton's variables and parameters. *)
  let goal_judge =
    judge (sys (Hybrid.Automaton.init_mode automaton)) pb.Encoding.goal.predicate
  in
  { flow_prep; inv_judge; guard_judge; goal_judge; guard_contract; inv_contract }

(* Drop tube steps past the first one that leaves the mode invariant.
   (Over-approximation keeps this sound for pruning.)  Validated flows
   and brackets already end there, so on a segment this is a no-op: it
   stays as the reference the tests hold them to. *)
let truncate_at_invariant inv ~params_box steps =
  let n = Ode.Enclosure.length steps in
  if inv.formula = F.True then steps
  else begin
    let inv = row_check inv ~params_box in
    let rec go k =
      if k >= n then n
      else begin
        load_row inv steps k;
        if leaves_invariant inv then k + 1 else go (k + 1)
      end
    in
    Ode.Enclosure.prefix steps (go 0)
  end

(* Hull of the enclosure over the time windows where [formula] might
   hold, over the steps' variables. *)
let states_satisfying steps ~params_box formula =
  let c = row_check formula ~params_box in
  let n = formula.n_vars in
  let hull = Array.make n I.empty and hit = ref false in
  for k = 0 to Ode.Enclosure.length steps - 1 do
    load_row c steps k;
    if verdict c <> F.Impossible then begin
      for i = 0 to n - 1 do
        hull.(i) <- (if !hit then I.hull hull.(i) c.inp.(i) else c.inp.(i))
      done;
      hit := true
    end
  done;
  if !hit then
    Some (Box.of_list (List.mapi (fun i v -> (v, hull.(i))) (Ode.Enclosure.vars steps)))
  else None

(* One flow segment of a path unrolling: counted, and traced with the
   segment's depth along the path as payload. *)
let traced_segment ~depth f =
  Telemetry.Counter.incr m_segments;
  Telemetry.Span.with_ ~arg:(float_of_int depth) tm_segment f

(* The checks along one segment, booked to reach. *)
let seg_check f = Telemetry.Span.with_ tm_seg_check f

(* [`Infeasible rigor | `Maybe], and a complete tube of the path's last
   mode when the walk got there and one is at hand: the rigorous
   segment's, or a fresh tube the gate rejected on its final width. *)
let path_feasible ?(jpath = -1) cfg (pb : Encoding.t) prep path ~params_box
    ~init_box =
  let automaton = pb.Encoding.automaton in
  let segment depth q state_box =
    traced_segment ~depth (fun () ->
        flow_segment ~jseg:(jpath, depth, q) cfg
          (Hybrid.Automaton.mode_system automaton q)
          ~inv:(Hashtbl.find prep.inv_judge q)
          ~prepared:(Hashtbl.find prep.flow_prep q)
          ~params_box ~init_box:state_box ~t_end:pb.Encoding.time_bound)
  in
  let rec walk depth state_box rigorous = function
    | [] -> (`Infeasible true, None)
    | [ last ] -> (
        match segment depth last state_box with
        | None, rejected -> (`Maybe, rejected)
        | Some enc, rejected ->
            let tube = if enc.rigorous then Some enc.steps else rejected in
            let rigorous = rigorous && enc.rigorous in
            seg_check (fun () ->
                match states_satisfying enc.steps ~params_box prep.goal_judge with
                | None -> (`Infeasible rigorous, tube)
                | Some _ -> (`Maybe, tube)))
    | q :: (q' :: _ as rest) -> (
        match fst (segment depth q state_box) with
        | None -> (`Maybe, None)
        | Some enc -> (
            let rigorous = rigorous && enc.rigorous in
            let next =
              seg_check (fun () ->
                  let jump =
                    List.find
                      (fun (j : Hybrid.Automaton.jump) -> String.equal j.target q')
                      (Hybrid.Automaton.jumps_from automaton q)
                  in
                  (* ICP-tighten: jump states satisfy the guard and the
                     source invariant; post-reset states satisfy the
                     target invariant.  The contractors were compiled
                     once by [prepare_pb]. *)
                  Option.bind
                    (states_satisfying enc.steps ~params_box
                       (Hashtbl.find prep.guard_judge (q, q')))
                    (fun guard_states ->
                      Option.bind
                        ((Hashtbl.find prep.guard_contract (q, q'))
                           ~params_box guard_states)
                        (fun tightened ->
                          let next = apply_reset_box automaton params_box jump tightened in
                          if Box.is_empty next then None
                          else (Hashtbl.find prep.inv_contract q') ~params_box next)))
            in
            match next with
            | None -> (`Infeasible rigorous, None)
            | Some next -> walk (depth + 1) next rigorous rest))
  in
  walk 0 init_box true path

(* ---- Certification by guided simulation ---- *)

let simulate_along_path cfg (pb : Encoding.t) path ~param_env ~init_env =
  let automaton = pb.Encoding.automaton in
  let vars = Hybrid.Automaton.vars automaton in
  let delta = cfg.delta in
  (* Integrate one mode until [target] (δ-weakened) fires; respect the
     mode invariant: leaving it before the target means the prescribed
     trajectory does not exist. *)
  let run_mode mode_name state_env target =
    let sys = Hybrid.Automaton.mode_system automaton mode_name in
    let inv = (Hybrid.Automaton.find_mode automaton mode_name).invariant in
    let target_w = F.delta_weaken delta target in
    (* The invariant is δ-weakened symmetrically: a δ-weakened guard can
       legitimately overshoot the mode boundary by up to δ. *)
    let inv_w = F.delta_weaken (2.0 *. delta) inv in
    let stop = F.or_ [ target_w; F.neg inv_w ] in
    let _, event =
      Ode.Integrate.simulate_until ~method_:cfg.sim_method ~params:param_env
        ~init:state_env ~t_end:pb.Encoding.time_bound ~guard:stop sys
    in
    match event with
    | None -> None
    | Some ev ->
        let env =
          ((Ode.System.time_var, ev.Ode.Integrate.time) :: param_env)
          @ List.mapi (fun i v -> (v, ev.Ode.Integrate.state.(i))) vars
        in
        if F.holds_env env target_w then Some (ev, env) else None
  in
  let rec walk state_env t_global = function
    | [] -> None
    | [ last ] -> (
        match run_mode last state_env pb.Encoding.goal.predicate with
        | Some (ev, _) -> Some (t_global +. ev.Ode.Integrate.time)
        | None -> None)
    | q :: (q' :: _ as rest) -> (
        let jump =
          List.find
            (fun (j : Hybrid.Automaton.jump) -> String.equal j.target q')
            (Hybrid.Automaton.jumps_from automaton q)
        in
        match run_mode q state_env jump.guard with
        | None -> None
        | Some (ev, env_at_jump) ->
            let state' =
              List.map
                (fun v ->
                  match List.assoc_opt v jump.reset with
                  | Some term -> (v, T.eval_env env_at_jump term)
                  | None -> (v, List.assoc v env_at_jump))
                vars
            in
            walk state' (t_global +. ev.Ode.Integrate.time) rest)
  in
  walk init_env 0.0 path

(* Try to certify δ-sat from sampled points of the search box. *)
let certify cfg pb path sbox =
  Telemetry.Span.with_ tm_certify @@ fun () ->
  let envs = sample_envs ~seed:927 ~n:cfg.certify_samples sbox in
  let automaton = pb.Encoding.automaton in
  let init_default = Box.mid_env (Hybrid.Automaton.init_box automaton) in
  List.find_map
    (fun env ->
      let param_env =
        List.filter (fun (k, _) -> List.mem k (Hybrid.Automaton.params automaton)) env
      in
      let init_env =
        List.map
          (fun (v, dflt) ->
            match List.assoc_opt v env with Some x -> (v, x) | None -> (v, dflt))
          init_default
      in
      match simulate_along_path cfg pb path ~param_env ~init_env with
      | Some t ->
          Some
            { path; params = param_env; init = init_env; reach_time = t;
              certified = true; param_box = sbox }
      | None -> None)
    envs

(* ---- Per-path branch and prune over the search box ---- *)

(* The prune reason of a path-infeasibility proof. *)
let infeasible_reason rigorous =
  if Journal.on () then
    Journal.set_reason
      (if rigorous then "path-infeasible" else "path-infeasible-bracket")

(* The driver at [jobs = 1] over one path's search box, with the path's
   own budget.  It stops at the first δ-sat or Unknown leaf; unsat is
   rigorous when every pruning was. *)
let decide_path ~jindex cfg pb prep path =
  Telemetry.Counter.incr m_paths;
  Telemetry.Span.with_ ~arg:(float_of_int (List.length path)) tm_path
  @@ fun () ->
  let info = String.concat "->" path in
  if Journal.on () then Journal.path_event ~index:jindex ~info;
  let r =
    Icp.Search.run ~jobs:1
      ~budget:(Icp.Search.budget cfg.max_param_boxes)
      ~label:(Printf.sprintf "path%d:%s" jindex info)
      ~heur:"bisect"
      ~exhausted:(fun _ ->
        Icp.Search.Give_up
          ("budget-exhaust", Unknown "search box budget exhausted"))
      (fun _ sbox ->
        let params_box, init_box = interpret_box pb sbox in
        match
          fst (path_feasible ~jpath:jindex cfg pb prep path ~params_box ~init_box)
        with
        | `Infeasible rigorous ->
            infeasible_reason rigorous;
            Icp.Search.Prune (Some rigorous)
        | `Maybe -> (
            match certify cfg pb path sbox with
            | Some w ->
                Icp.Search.Sat
                  ( { Icp.Search.point = w.params @ w.init;
                      certified = w.certified; box = sbox },
                    Delta_sat w )
            | None -> (
                match Box.split ~min_width:cfg.epsilon sbox with
                | Some (l, r) -> Icp.Search.Split (l, r)
                | None ->
                    Icp.Search.Give_up
                      ( "sub-epsilon",
                        Unknown
                          "sub-epsilon box survived pruning without a witness" ))))
      (searchable_box pb)
  in
  match r.Icp.Search.verdict with
  | Some v -> v
  | None -> Unsat { rigorous = List.for_all Fun.id r.Icp.Search.leaves }

(* ---- Public API ---- *)

(* Decide the bounded reachability problem: try every candidate mode path
   (shortest first — therapy identification wants minimal drug counts).

   The candidate paths are drained from one frontier by [config.jobs]
   workers; at [jobs = 1] that is a scan in path order.  The verdict is
   merged in path order afterwards, so it does not depend on [jobs] (the
   lowest-indexed δ-sat path wins, preserving the minimal-jump
   preference).  A δ-sat at index i skips the paths with larger indices
   not yet started — exactly the paths a scan in order never reaches. *)
let check_paths config pb prep paths =
  let paths = Array.of_list paths in
  let n = Array.length paths in
  let results = Array.make n None in
  let winner = Atomic.make Stdlib.max_int in
  let fr = Parallel.Pool.Frontier.create (List.init n Fun.id) in
  Parallel.Pool.Frontier.drain ~jobs:(Stdlib.max 1 config.jobs) fr
    (fun _w _slot i ->
      if i <= Atomic.get winner then begin
        Log.debug (fun m ->
            m "path %a" Fmt.(list ~sep:(any "->") string) paths.(i));
        let r = decide_path ~jindex:i config pb prep paths.(i) in
        results.(i) <- Some r;
        match r with
        | Delta_sat _ ->
            let rec lower () =
              let cur = Atomic.get winner in
              if i < cur && not (Atomic.compare_and_set winner cur i) then
                lower ()
            in
            lower ()
        | _ -> ()
      end);
  let rec merge i unknown rigorous =
    if i >= n then
      match unknown with Some why -> Unknown why | None -> Unsat { rigorous }
    else
      match results.(i) with
      | Some (Delta_sat w) -> Delta_sat w
      | Some (Unsat { rigorous = r }) -> merge (i + 1) unknown (rigorous && r)
      | Some (Unknown why) -> merge (i + 1) (Some why) rigorous
      | None -> merge (i + 1) unknown rigorous (* skipped past the winner *)
  in
  merge 0 None true

let check ?(config = default_config) (pb : Encoding.t) =
  Telemetry.Span.with_ tm_check @@ fun () ->
  Icp.Search.journaled ~kind:"reach" ~jobs:config.jobs
    ~verdict:(function
      | Unsat _ -> ("unsat", false)
      | Delta_sat _ -> ("delta-sat", false)
      | Unknown _ -> ("unknown", true))
  @@ fun () ->
  let paths =
    List.sort
      (fun a b -> compare (List.length a) (List.length b))
      (Encoding.candidate_paths pb)
  in
  Log.info (fun m -> m "checking %d candidate path(s)" (List.length paths));
  check_paths config pb (prepare_pb pb) paths

(* Universal feasibility on jump-free paths (see the synthesis notes):
   some step of the validated tube certainly meets the goal, and the
   invariant certainly holds on it and on every earlier step, so every
   run reaches the goal while it is still inside the mode.  [tube] is
   the complete tube [path_feasible] had at hand for the mode, the same
   tube step for step as one integrated without the gate's width limit
   (DESIGN §5a), so it is judged as it is; without one the tube is
   integrated without the limit.  Either way it ends at its first step
   that leaves the invariant, past which [reaches] never reads. *)
let path_surely_reaches cfg (pb : Encoding.t) prep path ~tube ~params_box ~init_box =
  match path with
  | [ only ] -> (
      let steps =
        match tube with
        | Some _ -> tube
        | None ->
            let tube =
              Ode.Enclosure.flow ~config:cfg.enclosure
                ~prepared:(Hashtbl.find prep.flow_prep only)
                ~until:(stop_at_invariant (Hashtbl.find prep.inv_judge only) ~params_box)
                ~params:params_box ~init:init_box ~t_end:pb.Encoding.time_bound
                (Hybrid.Automaton.mode_system pb.Encoding.automaton only)
            in
            if tube.Ode.Enclosure.complete then Some tube.Ode.Enclosure.steps else None
      in
      match steps with
      | None -> false
      | Some steps ->
          seg_check @@ fun () ->
          let inv = row_check (Hashtbl.find prep.inv_judge only) ~params_box in
          let goal = row_check prep.goal_judge ~params_box in
          let rec reaches k =
            k < Ode.Enclosure.length steps
            && begin
                 load_row inv steps k;
                 verdict inv = F.Certain
                 && begin
                      load_row goal steps k;
                      verdict goal = F.Certain || reaches (k + 1)
                    end
               end
          in
          reaches 0)
  | _ -> false

(* Parameter synthesis for reachability (Definition 13), BioPSy-style
   guaranteed paving of the search box:
   - [feasible]: *every* value in the box provably reaches the goal;
   - [infeasible]: *no* value can reach the goal (the [rigorous] flag
     records whether the proof used only validated tubes);
   - [undecided]: sub-ε boxes; those whose sampled point certifiably
     reaches the goal carry the witness. *)
type synthesis = {
  feasible : (Box.t * witness) list;
  infeasible : (Box.t * bool) list;  (* box, rigorous *)
  undecided : (Box.t * witness option) list;
}

let synthesize ?(config = default_config) (pb : Encoding.t) =
  Telemetry.Span.with_ tm_synth @@ fun () ->
  Icp.Search.journaled ~kind:"synth" ~jobs:config.jobs
    ~verdict:(fun s ->
      ( Printf.sprintf "synthesis feasible=%d infeasible=%d undecided=%d"
          (List.length s.feasible) (List.length s.infeasible)
          (List.length s.undecided),
        false ))
  @@ fun () ->
  let paths =
    List.sort
      (fun a b -> compare (List.length a) (List.length b))
      (Encoding.candidate_paths pb)
  in
  let certify_box sbox =
    List.find_map (fun path -> certify config pb path sbox) paths
  in
  let prep = prepare_pb pb in
  let classify _ sbox =
    let params_box, init_box = interpret_box pb sbox in
    let verdicts =
      List.map
        (fun path -> path_feasible config pb prep path ~params_box ~init_box)
        paths
    in
    if List.for_all (function `Infeasible _, _ -> true | `Maybe, _ -> false) verdicts
    then begin
      let rigorous =
        List.for_all (function `Infeasible r, _ -> r | `Maybe, _ -> false) verdicts
      in
      infeasible_reason rigorous;
      Icp.Search.Prune (Some (`Infeasible (sbox, rigorous)))
    end
    else if
      List.exists2
        (fun path (_, tube) ->
          path_surely_reaches config pb prep path ~tube ~params_box ~init_box)
        paths verdicts
    then
      let w =
        match certify_box sbox with
        | Some w -> w
        | None ->
            { path = List.hd paths; params = Box.mid_env params_box;
              init = Box.mid_env init_box; reach_time = nan; certified = false;
              param_box = sbox }
      in
      Icp.Search.Leaf ("feasible", None, Some (`Feasible (sbox, w)))
    else
      match Box.split ~min_width:config.epsilon sbox with
      | Some (l, r) -> Icp.Search.Split (l, r)
      | None ->
          Icp.Search.Leaf
            ("undecided", Some "sub-epsilon",
             Some (`Undecided (sbox, certify_box sbox)))
  in
  let r =
    (* Classification is a pure function of the box, so the leaf set
       does not depend on [jobs] while the budget lasts; only the list
       order does. *)
    Icp.Search.run ~jobs:config.jobs
      ~budget:(Icp.Search.budget config.max_param_boxes)
      ~heur:"bisect"
      ~exhausted:(fun sbox ->
        Icp.Search.Leaf
          ("undecided", Some "budget-exhaust", Some (`Undecided (sbox, None))))
      classify (searchable_box pb)
  in
  let leaves = r.Icp.Search.leaves in
  { feasible = List.filter_map (function `Feasible l -> Some l | _ -> None) leaves;
    infeasible =
      List.filter_map (function `Infeasible l -> Some l | _ -> None) leaves;
    undecided =
      List.filter_map (function `Undecided l -> Some l | _ -> None) leaves }

let pp_synthesis ppf s =
  Fmt.pf ppf "synthesis: %d feasible, %d infeasible, %d undecided boxes"
    (List.length s.feasible) (List.length s.infeasible) (List.length s.undecided)
