(* Derivative-powered pruning: mean-value form refutation, interval
   Newton (Gauss–Seidel) contraction, and smear-guided branching.

   A constraint system's symbolic gradients are compiled once into the
   SSA tape layer — one multi-root tape per constraint with roots
   [f; ∂f/∂x₁; …; ∂f/∂xₖ] over its free variables, so CSE shares the
   function's subterms with its partials and a whole gradient costs one
   forward interval pass.  Per box the layer offers:

   - [contract]: the first-order contractions.  With m the box
     midpoint, smoothness of f on the (convex) box B certified by
     {!Expr.Tape.smooth_on} and G = ∇f(B) the gradient enclosure, the
     mean-value theorem gives

       f(x) ∈ f(m) + G · (B − m)        for every x ∈ B,

     so an empty intersection with the constraint target T refutes the
     box (often earlier than HC4's natural-extension test, whose
     dependency error is first-order in the box width where the
     mean-value form's is second-order).  When it does not refute, the
     same expansion is solved for each variable: 0 ∉ Gᵢ licenses the
     Newton/Gauss–Seidel step

       xᵢ ∈ mᵢ + (T − f(m) − Σ_{j≠i} Gⱼ·(Bⱼ − mⱼ)) / Gᵢ

     intersected with Bᵢ, each contraction feeding the next variable's
     sum (Gauss–Seidel).  An empty intersection refutes the box.

   - [split]: Kearfott's smear heuristic — bisect the variable
     maximizing maxₑ |Gₑ,ᵢ| · width(Bᵢ), i.e. the one the constraints
     are most sensitive to, instead of the geometrically widest.

   Soundness guards: an entry is skipped on any box where the
   smoothness certificate fails, a gradient component is unbounded, or
   a support component is unbounded — the guards can only cost
   precision, never correctness.  f(m) is evaluated in interval
   arithmetic on the singleton midpoint, so rounding in the expansion
   point is enclosed too.

   Everything is behind one switch: [BIOMC_NO_NEWTON=1] (or the
   [--no-newton] CLI flag / {!set_enabled}) restores the pre-derivative
   search paths bit for bit. *)

module I = Interval.Ia
module Box = Interval.Box

let tm_newton = Telemetry.Span.probe "icp.newton"
let m_prunings = Telemetry.Counter.make ~always:true "icp.newton.prunings"
let m_contractions =
  Telemetry.Counter.make ~always:true "icp.newton.contractions"
let m_smear_picks = Telemetry.Counter.make ~always:true "icp.smear.picks"
let m_smear_fallbacks =
  Telemetry.Counter.make ~always:true "icp.smear.fallbacks"

(* ---- Enable/disable switch (same shape as Expr.Tape's) ---- *)

let override : bool option Atomic.t = Atomic.make None

let enabled () =
  match Atomic.get override with
  | Some b -> b
  | None -> not (Telemetry.env_switch "BIOMC_NO_NEWTON")

let set_enabled b = Atomic.set override (Some b)
let clear_enabled_override () = Atomic.set override None

(* ---- Compilation ---- *)

type entry = {
  tape : Expr.Tape.t;  (* roots: f :: gradient along [support] *)
  support : int array;  (* positions (in the system ordering) of f's vars *)
  target : I.t;
}

(* Workspace, borrowed from the system's slot by each call: every array
   is reused across boxes, so the steady state allocates only the
   interval records the {!Ia} kernels return. *)
type workspace = {
  dom : I.t array;  (* current component intervals (Gauss–Seidel state) *)
  usable : bool array;  (* component present in the box and bounded *)
  wchanged : bool array;  (* contracted by the current [contract] call *)
  mids : float array;  (* entry-local midpoints, indexed like [dom] *)
  minp : I.t array;  (* midpoint singletons for the f(m) pass *)
  gout : I.t array array;  (* per entry: f and gradient enclosures *)
  scratches : Expr.Tape.scratch array;
  smear : float array;  (* per component: smear score *)
}

type t = {
  vars : string array;  (* input ordering shared by all entry tapes *)
  entries : entry array;
  ws : workspace Parallel.Slot.t;  (* borrowed by each call *)
}

let vars_of t = Array.to_list t.vars
let num_entries t = Array.length t.entries

(* Compile the differentiable constraints [(term, target); …] — each
   meaning [term ∈ target] — into gradient tapes.  Constraints whose
   terms are not symbolically differentiable (min/max) or mention no
   variable are skipped; [None] when nothing remains.  Gradients are
   deep-simplified before compilation — [Term.deriv] output carries
   chain-rule scaffolding that would bloat the tapes.  (Plain pairs
   rather than [Contractor.constr] so [Contractor] can depend on this
   module.) *)
let compile constraints =
  let vars =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (term, _) -> Expr.Term.free_var_list term)
         constraints)
  in
  let vars_arr = Array.of_list vars in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vars_arr;
  let entry_of (term, target) =
    let free = Expr.Term.free_var_list term in
    if free = [] then None
    else
      match
        List.map
          (fun v -> Expr.Term.simplify_deep (Expr.Term.deriv v term))
          free
      with
      | grads ->
          let tape = Expr.Tape.compile ~vars (term :: grads) in
          let support =
            Array.of_list (List.map (fun v -> Hashtbl.find index v) free)
          in
          Some { tape; support; target }
      | exception Invalid_argument _ -> None
  in
  let entries = Array.of_list (List.filter_map entry_of constraints) in
  if Array.length entries = 0 then None
  else begin
    let n = Array.length vars_arr in
    let ws =
      Parallel.Slot.make (fun () ->
          { dom = Array.make n I.entire;
            usable = Array.make n false;
            wchanged = Array.make n false;
            mids = Array.make n 0.0;
            minp = Array.make n I.zero;
            gout =
              Array.map
                (fun e -> Array.make (1 + Array.length e.support) I.entire)
                entries;
            scratches = Array.map (fun e -> Expr.Tape.scratch e.tape) entries;
            smear = Array.make n 0.0 })
    in
    Some { vars = vars_arr; entries; ws }
  end

(* ---- Shared per-box setup ---- *)

(* Load the box into the workspace; a component is [usable] when the
   variable is bound in the box to a bounded nonempty interval (the
   mean-value expansion needs finite midpoints and finite Bⱼ − mⱼ). *)
let load_box sys ws box =
  let n = Array.length sys.vars in
  for i = 0 to n - 1 do
    match Box.find_opt sys.vars.(i) box with
    | Some itv ->
        ws.dom.(i) <- itv;
        ws.usable.(i) <- I.is_bounded itv
    | None ->
        ws.dom.(i) <- I.entire;
        ws.usable.(i) <- false
  done

let supported ws (e : entry) =
  let ok = ref true in
  let k = Array.length e.support in
  let j = ref 0 in
  while !ok && !j < k do
    if not ws.usable.(e.support.(!j)) then ok := false;
    incr j
  done;
  !ok

(* Evaluate the entry's gradient tape over the current [dom] into its
   [gout] row and certify smoothness + bounded gradients.  Returns
   [true] iff the entry is usable on this box. *)
let eval_entry ws ei (e : entry) =
  let out = ws.gout.(ei) in
  let sc = ws.scratches.(ei) in
  Expr.Tape.eval_interval_into e.tape sc ~inputs:ws.dom ~out;
  Expr.Tape.smooth_on e.tape sc
  && (let ok = ref true in
      let k = Array.length e.support in
      let j = ref 0 in
      while !ok && !j <= k do
        if not (I.is_bounded out.(!j)) then ok := false;
        incr j
      done;
      !ok)

(* ---- Mean-value test + interval Newton (Gauss–Seidel) ---- *)

exception Refuted

let contract_inner sys ws box =
  load_box sys ws box;
  Array.fill ws.wchanged 0 (Array.length sys.vars) false;
  let any_change = ref false in
  let process ei (e : entry) =
    if supported ws e && eval_entry ws ei e then begin
      let out = ws.gout.(ei) in
      let k = Array.length e.support in
      (* Entry-local midpoints and their singleton inputs. *)
      for j = 0 to k - 1 do
        let vi = e.support.(j) in
        let m = I.mid ws.dom.(vi) in
        ws.mids.(vi) <- m;
        ws.minp.(vi) <- I.of_float m
      done;
      (* f(m) on the midpoint singletons: the second forward pass
         overwrites the scratch, which is why [out] was copied first. *)
      let fm = Expr.Tape.eval_interval e.tape ws.scratches.(ei) ws.minp in
      if not (I.is_empty fm) then begin
        (* Mean-value refutation: f(m) + Σ Gⱼ·(Bⱼ − mⱼ) misses T. *)
        let mv = ref fm in
        for j = 0 to k - 1 do
          let vi = e.support.(j) in
          mv :=
            I.add !mv
              (I.mul out.(1 + j) (I.sub_float ws.dom.(vi) ws.mids.(vi)))
        done;
        if I.is_empty (I.inter !mv e.target) then begin
          Telemetry.Counter.incr m_prunings;
          if Journal.on () then Journal.set_reason "mean-value";
          raise Refuted
        end;
        (* Gauss–Seidel Newton step per variable with 0 ∉ Gᵢ. *)
        let tmf = I.sub e.target fm in
        for j = 0 to k - 1 do
          let vi = e.support.(j) in
          let g = out.(1 + j) in
          if (not (I.mem 0.0 g)) && not (I.is_singleton ws.dom.(vi)) then begin
            let n = ref tmf in
            for l = 0 to k - 1 do
              if l <> j then begin
                let vl = e.support.(l) in
                n :=
                  I.sub !n
                    (I.mul out.(1 + l)
                       (I.sub_float ws.dom.(vl) ws.mids.(vl)))
              end
            done;
            let candidate = I.add_float (I.div !n g) ws.mids.(vi) in
            let refined = I.inter ws.dom.(vi) candidate in
            if I.is_empty refined then begin
              Telemetry.Counter.incr m_prunings;
              if Journal.on () then Journal.set_reason "newton";
              raise Refuted
            end;
            if not (I.equal refined ws.dom.(vi)) then begin
              ws.dom.(vi) <- refined;
              ws.wchanged.(vi) <- true;
              any_change := true;
              Telemetry.Counter.incr m_contractions
            end
          end
        done
      end
    end
  in
  match Array.iteri process sys.entries with
  | () ->
      if not !any_change then Some box
      else begin
        let b = ref box in
        Array.iteri
          (fun i changed ->
            if changed then b := Box.set sys.vars.(i) ws.dom.(i) !b)
          ws.wchanged;
        Some !b
      end
  | exception Refuted -> None

(* [contract sys box]: [None] refutes the box (no point satisfies every
   compiled constraint); otherwise the possibly-contracted box.  The
   result is physically [box] when nothing changed, so callers can test
   progress with [==]. *)
let contract sys box =
  Telemetry.Span.with_ tm_newton (fun () ->
      let ws = Parallel.Slot.take sys.ws in
      let r = contract_inner sys ws box in
      Parallel.Slot.put sys.ws ws;
      r)

(* ---- Smear-guided branching ---- *)

(* [split sys ~min_width box]: bisect [box] along the variable with the
   largest smear score max over entries of |∂f/∂xᵢ|·width(xᵢ), falling
   back to the widest dimension when no constraint yields a finite
   nonzero score.  Returns [None] exactly when [Box.split ~min_width]
   would (the sub-ε termination test is shared), and only ever selects
   variables wider than [min_width], so search termination is
   unaffected.  Ties are broken toward the wider component, then the
   lexicographically smaller name (the iteration order of [Box]), so
   the choice is deterministic across domains. *)
let split sys ~min_width box =
  match Box.max_dim box with
  | None, _ -> None
  | Some _, w when w <= min_width || w = 0.0 -> None
  | Some _, _ ->
      let ws = Parallel.Slot.take sys.ws in
      load_box sys ws box;
      let n = Array.length sys.vars in
      Array.fill ws.smear 0 n 0.0;
      Array.iteri
        (fun ei e ->
          if supported ws e && eval_entry ws ei e then begin
            let out = ws.gout.(ei) in
            for j = 0 to Array.length e.support - 1 do
              let vi = e.support.(j) in
              let wdt = I.width ws.dom.(vi) in
              if wdt > min_width && Float.is_finite wdt then begin
                let s = I.mag out.(1 + j) *. wdt in
                if Float.is_finite s && s > ws.smear.(vi) then
                  ws.smear.(vi) <- s
              end
            done
          end)
        sys.entries;
      let best = ref (-1) and best_score = ref 0.0 and best_w = ref 0.0 in
      for i = 0 to n - 1 do
        let s = ws.smear.(i) in
        if s > 0.0 then begin
          let wdt = I.width ws.dom.(i) in
          if
            s > !best_score
            || (s = !best_score && wdt > !best_w)
          then begin
            best := i;
            best_score := s;
            best_w := wdt
          end
        end
      done;
      Parallel.Slot.put sys.ws ws;
      if !best >= 0 then begin
        Telemetry.Counter.incr m_smear_picks;
        Some (Box.split_var sys.vars.(!best) box)
      end
      else begin
        Telemetry.Counter.incr m_smear_fallbacks;
        Box.split ~min_width box
      end

(* Gradient enclosures over a box, for differential tests: for each
   compiled entry, the pairs (variable, ∂f/∂x enclosure) — [None] for
   entries skipped on this box (unsupported, non-smooth or unbounded
   gradient). *)
let gradient_enclosures sys box =
  let ws = Parallel.Slot.take sys.ws in
  load_box sys ws box;
  let r =
    Array.to_list
      (Array.mapi
         (fun ei e ->
           if supported ws e && eval_entry ws ei e then
             Some
               (Array.to_list
                  (Array.mapi
                     (fun j vi -> (sys.vars.(vi), ws.gout.(ei).(1 + j)))
                     e.support))
           else None)
         sys.entries)
  in
  Parallel.Slot.put sys.ws ws;
  r
