(* HC4-revise: forward-backward interval constraint propagation.

   Given a constraint [term ∈ target] and a box, the forward pass computes
   an interval enclosure for every subterm; the backward pass intersects
   the root with [target] and pushes the refined requirements down to the
   variable leaves, whose intersection with the box gives the contracted
   box.  HC4-revise never loses a solution: every point of the box that
   satisfies the constraint is in the contracted box. *)

module I = Interval.Ia
module Box = Interval.Box

(* Contraction telemetry: one span per contractor call and round
   counters for the fixpoint loops. *)
let tm_hc4 = Telemetry.Span.probe "icp.hc4"
let m_fixpoints = Telemetry.Counter.make "hc4.fixpoints"
let m_rounds = Telemetry.Counter.make "hc4.rounds"

exception Empty

(* Annotated term tree: each node carries its forward interval value. *)
type ann = { shape : shape; mutable value : I.t }

and shape =
  | AVar of string
  | AConst of float
  | AAdd of ann * ann
  | ASub of ann * ann
  | AMul of ann * ann
  | ADiv of ann * ann
  | ANeg of ann
  | APow of ann * int
  | AExp of ann
  | ALog of ann
  | ASqrt of ann
  | ASin of ann
  | ACos of ann
  | ATan of ann
  | AAtan of ann
  | ATanh of ann
  | AAbs of ann
  | AMin of ann * ann
  | AMax of ann * ann

let rec annotate (t : Expr.Term.t) : ann =
  let node shape = { shape; value = I.entire } in
  match t with
  | Var x -> node (AVar x)
  | Const c -> node (AConst c)
  | Add (a, b) -> node (AAdd (annotate a, annotate b))
  | Sub (a, b) -> node (ASub (annotate a, annotate b))
  | Mul (a, b) -> node (AMul (annotate a, annotate b))
  | Div (a, b) -> node (ADiv (annotate a, annotate b))
  | Neg a -> node (ANeg (annotate a))
  | Pow (a, n) -> node (APow (annotate a, n))
  | Exp a -> node (AExp (annotate a))
  | Log a -> node (ALog (annotate a))
  | Sqrt a -> node (ASqrt (annotate a))
  | Sin a -> node (ASin (annotate a))
  | Cos a -> node (ACos (annotate a))
  | Tan a -> node (ATan (annotate a))
  | Atan a -> node (AAtan (annotate a))
  | Tanh a -> node (ATanh (annotate a))
  | Abs a -> node (AAbs (annotate a))
  | Min (a, b) -> node (AMin (annotate a, annotate b))
  | Max (a, b) -> node (AMax (annotate a, annotate b))

let rec forward box (n : ann) : I.t =
  let v =
    match n.shape with
    | AVar x -> (
        match Box.find_opt x box with
        | Some i -> i
        | None -> I.entire)
    | AConst c -> I.of_float c
    | AAdd (a, b) -> I.add (forward box a) (forward box b)
    | ASub (a, b) -> I.sub (forward box a) (forward box b)
    | AMul (a, b) -> I.mul (forward box a) (forward box b)
    | ADiv (a, b) -> I.div (forward box a) (forward box b)
    | ANeg a -> I.neg (forward box a)
    | APow (a, k) -> I.pow_int (forward box a) k
    | AExp a -> I.exp (forward box a)
    | ALog a -> I.log (forward box a)
    | ASqrt a -> I.sqrt (forward box a)
    | ASin a -> I.sin (forward box a)
    | ACos a -> I.cos (forward box a)
    | ATan a -> I.tan (forward box a)
    | AAtan a -> I.atan (forward box a)
    | ATanh a -> I.tanh (forward box a)
    | AAbs a -> I.abs (forward box a)
    | AMin (a, b) -> I.min_ (forward box a) (forward box b)
    | AMax (a, b) -> I.max_ (forward box a) (forward box b)
  in
  n.value <- v;
  v

(* Preimage helpers shared with the tape backward pass (Expr.Tape), so the
   tree-walking reference and the compiled kernels contract identically. *)
let pow_preimage = Expr.Tape.pow_preimage
let abs_preimage = Expr.Tape.abs_preimage
let tan_preimage = Expr.Tape.tan_preimage

(* Backward pass: [require n r] intersects node [n] with requirement [r]
   and propagates to children; variable requirements accumulate in
   [reqs]. *)
let backward reqs root target =
  let rec require n r =
    let v = I.inter n.value r in
    if I.is_empty v then raise Empty;
    if not (I.equal v n.value) then begin
      n.value <- v;
      push n
    end
  and push n =
    let v = n.value in
    match n.shape with
    | AVar x ->
        let cur = match Hashtbl.find_opt reqs x with Some i -> i | None -> I.entire in
        let refined = I.inter cur v in
        if I.is_empty refined then raise Empty;
        Hashtbl.replace reqs x refined
    | AConst c -> if not (I.mem c v) then raise Empty
    | AAdd (a, b) ->
        require a (I.sub v b.value);
        require b (I.sub v a.value)
    | ASub (a, b) ->
        require a (I.add v b.value);
        require b (I.sub a.value v)
    | AMul (a, b) ->
        if not (I.mem 0.0 b.value) then require a (I.div v b.value);
        if not (I.mem 0.0 a.value) then require b (I.div v a.value)
    | ADiv (a, b) ->
        require a (I.mul v b.value);
        if not (I.mem 0.0 v) then require b (I.div a.value v)
    | ANeg a -> require a (I.neg v)
    | APow (a, k) ->
        let pre = pow_preimage a.value v k in
        if I.is_empty pre then raise Empty;
        require a pre
    | AExp a ->
        (* exp x ∈ v ⇒ v must meet (0, ∞) and x ∈ log v *)
        let vp = I.inter v (I.make 0.0 infinity) in
        if I.is_empty vp then raise Empty;
        require a (I.log vp)
    | ALog a -> require a (I.exp v)
    | ASqrt a ->
        let vp = I.inter v (I.make 0.0 infinity) in
        if I.is_empty vp then raise Empty;
        require a (I.sqr vp)
    | ASin a | ACos a ->
        (* Multivalued inverse: only prune when the range is impossible. *)
        if I.is_empty (I.inter v (I.make (-1.0) 1.0)) then raise Empty;
        ignore a
    | ATan a ->
        (* Contract through the branch of tan containing the argument,
           when that branch is unambiguous. *)
        let pre = tan_preimage a.value v in
        if I.is_empty pre then raise Empty;
        require a pre
    | AAtan a ->
        let dom = I.make (-1.5707963267948966) 1.5707963267948966 in
        let vc = I.inter v dom in
        if I.is_empty vc then raise Empty;
        require a (I.tan vc)
    | ATanh a ->
        let vc = I.inter v (I.make (-1.0) 1.0) in
        if I.is_empty vc then raise Empty;
        require a (I.atanh vc)
    | AAbs a ->
        let pre = abs_preimage a.value v in
        if I.is_empty pre then raise Empty;
        require a pre
    | AMin (a, b) ->
        (* min(a,b) ∈ v ⇒ a ≥ v.lo and b ≥ v.lo; if the other side lies
           strictly above v, this side must realize the upper bound. *)
        let low = I.make (I.lo v) infinity in
        require a (I.inter a.value low);
        require b (I.inter b.value low);
        if I.lo b.value > I.hi v then require a (I.inter a.value v);
        if I.lo a.value > I.hi v then require b (I.inter b.value v)
    | AMax (a, b) ->
        let high = I.make neg_infinity (I.hi v) in
        require a (I.inter a.value high);
        require b (I.inter b.value high);
        if I.hi b.value < I.lo v then require a (I.inter a.value v);
        if I.hi a.value < I.lo v then require b (I.inter b.value v)
  in
  require root target

(* One HC4-revise step for [term ∈ target] on [box].  Returns the
   contracted box, or [None] if the constraint is infeasible on the box. *)
let revise ~term ~target box =
  let root = annotate term in
  ignore (forward box root);
  if I.is_empty (I.inter root.value target) then None
  else
    let reqs = Hashtbl.create 8 in
    try
      backward reqs root target;
      let contracted =
        Hashtbl.fold
          (fun x req acc ->
            match Box.find_opt x acc with
            | None -> acc
            | Some cur ->
                let refined = I.inter cur req in
                if I.is_empty refined then raise Empty
                else Box.set x refined acc)
          reqs box
      in
      Some contracted
    with Empty -> None

(* A constraint is a term with a target interval for its value. *)
type constr = { term : Expr.Term.t; target : I.t }

let pp_constr ppf c = Fmt.pf ppf "%a ∈ %a" Expr.Term.pp c.term I.pp c.target

(* Range constraints (see the interface).  Merging a lower and an upper
   bound on one term makes HC4, the Taylor-model pass and Newton walk
   it once per round instead of twice.  HC4's result depends on
   constraint order, so a merged constraint takes its first atom's
   position and an unpaired atom keeps the constraint it had alone. *)
type bound = { e : Expr.Term.t; lower : bool; c : float }

let bound_of : Expr.Term.t -> bound = function
  | Sub (e, Const c) -> { e; lower = true; c }
  | Sub (Const c, e) -> { e; lower = false; c }
  | Neg e -> { e; lower = false; c = 0.0 }
  | e -> { e; lower = true; c = 0.0 }

(* Each range constraint, with the atoms it bounds. *)
let ranges ?(delta = 0.0) (atoms : Expr.Formula.atom list) =
  (* [c − δ] rounded down and [c′ + δ] rounded up; exact at δ = 0. *)
  let range e lo hi =
    let lo = if delta = 0.0 then lo else Interval.Round.next_down (lo -. delta)
    and hi = if delta = 0.0 then hi else Interval.Round.next_up (hi +. delta) in
    { term = e; target = (if lo > hi then I.empty else I.make lo hi) }
  in
  let atoms = Array.of_list atoms in
  let bounds = Array.map (fun (a : Expr.Formula.atom) -> bound_of a.term) atoms in
  let unpaired = Array.make (Array.length atoms) true in
  let slots =
    Array.map
      (fun (a : Expr.Formula.atom) ->
        Some ({ term = a.term; target = I.make (-.delta) infinity }, [ a ]))
      atoms
  in
  Array.iteri
    (fun j b ->
      (* the first earlier unpaired bound of the other side *)
      let rec partner i =
        if i = j then None
        else if
          unpaired.(i) && bounds.(i).lower <> b.lower
          && Expr.Term.equal bounds.(i).e b.e
        then Some i
        else partner (i + 1)
      in
      match partner 0 with
      | None -> ()
      | Some i ->
          let first = bounds.(i) in
          unpaired.(i) <- false;
          unpaired.(j) <- false;
          slots.(i) <-
            Some
              ( (if b.lower then range first.e b.c first.c
                 else range first.e first.c b.c),
                [ atoms.(i); atoms.(j) ] );
          slots.(j) <- None)
    bounds;
  List.filter_map Fun.id (Array.to_list slots)

let of_atoms ?delta atoms = List.map fst (ranges ?delta atoms)

(* Fixpoint contraction with all constraints.  Stops when no component
   shrinks by more than [tol] (relative to its width) or after
   [max_rounds].  Returns [None] on infeasibility. *)
let default_tol = 0.01
let default_max_rounds = 20

let fixpoint ?(tol = default_tol) ?(max_rounds = default_max_rounds) constraints
    box =
  let progressed old_box new_box =
    let shrank = ref false in
    Box.iter
      (fun x i_new ->
        match Box.find_opt x old_box with
        | None -> ()
        | Some i_old ->
            let w_old = I.width i_old and w_new = I.width i_new in
            if w_old > 0.0 && (w_old -. w_new) /. w_old > tol then shrank := true
            else if w_old = infinity && w_new < infinity then shrank := true)
      new_box;
    !shrank
  in
  let rec loop box round =
    Telemetry.Counter.incr m_rounds;
    let step =
      List.fold_left
        (fun acc c ->
          match acc with
          | None -> None
          | Some b -> revise ~term:c.term ~target:c.target b)
        (Some box) constraints
    in
    match step with
    | None -> None
    | Some box' ->
        if round >= max_rounds || not (progressed box box') then Some box'
        else loop box' (round + 1)
  in
  Telemetry.Counter.incr m_fixpoints;
  loop box 0

(* ---- Tape-compiled constraint systems ----

   One single-root tape per constraint, all sharing one input ordering
   (the sorted union of the free variables), so a whole fixpoint runs on
   a single interval array: the box is converted once per query, the
   revise rounds mutate the array in place, and the contracted box is
   rebuilt only on success.  The tree-walking [revise] and [fixpoint]
   above are the references the differential tests compare it against;
   no search runs them.
   [certify] shares HC4's tapes and scratches, and so its kept models. *)

(* Reusable workspace, one per compiled system in its slot: a call takes
   it and puts it back, and a call that finds it taken (by another
   domain) makes its own. *)
type workspace = {
  dom : I.t array;
  present : bool array;
  w_old : float array;
  scratches : Expr.Tape.scratch array;
}

(* An atom's term as an operation on its constraint's term e: e (an
   unpaired atom's constraint is its own term), e − c, c − e or −e. *)
let outer_of c (a : Expr.Formula.atom) =
  let module T = Interval.Tm in
  match a.term with
  | _ when a.term == c.term -> (Fun.id, Fun.id)
  | Sub (_, Const k) -> ((fun e -> I.sub e (I.of_float k)), fun m -> T.sub m (T.const k))
  | Sub (Const k, _) -> ((fun e -> I.sub (I.of_float k) e), fun m -> T.sub (T.const k) m)
  | Neg _ -> (I.neg, T.neg)
  | _ -> (Fun.id, Fun.id)

type compiled = {
  cons : constr list;
  cvars : string array;  (* input ordering shared by all tapes *)
  ctapes : (Expr.Tape.t * I.t) array;  (* (tape, target) per constraint *)
  catoms : (Expr.Term.t * int * ((I.t -> I.t) * (Interval.Tm.t -> Interval.Tm.t))) list;
      (* per atom: its term (by identity), constraint and [outer_of] *)
  ws : workspace Parallel.Slot.t;
}

let compile_ranges ranges =
  let cons = List.map fst ranges in
  let vars =
    List.sort_uniq String.compare
      (List.concat_map (fun c -> Expr.Term.free_var_list c.term) cons)
  in
  let ctapes =
    Array.of_list
      (List.map (fun c -> (Expr.Tape.compile ~vars [ c.term ], c.target)) cons)
  in
  let catoms =
    List.concat
      (List.mapi
         (fun k (c, atoms) ->
           List.map (fun (a : Expr.Formula.atom) -> (a.term, k, outer_of c a)) atoms)
         ranges)
  in
  let n = List.length vars in
  let ws =
    Parallel.Slot.make (fun () ->
        { dom = Array.make n I.entire;
          present = Array.make n false;
          w_old = Array.make n 0.0;
          scratches = Array.map (fun (tp, _) -> Expr.Tape.scratch tp) ctapes })
  in
  { cons; cvars = Array.of_list vars; ctapes; catoms; ws }

let compile constraints = compile_ranges (List.map (fun c -> (c, [])) constraints)
let compile_atoms ?delta atoms = compile_ranges (ranges ?delta atoms)
let constraints cs = cs.cons

let fixpoint_compiled ?(tol = default_tol) ?(max_rounds = default_max_rounds)
    ?(tm = false) cs box =
  let n = Array.length cs.cvars in
  let ws = Parallel.Slot.take cs.ws in
  let dom = ws.dom and present = ws.present in
  let w_old = ws.w_old and scratches = ws.scratches in
  (* Variables absent from the box behave as in the tree walker: they read
     as entire and their contractions are dropped (never written back),
     so each revise sees them fresh.  The workspace is reused, so both
     arrays are refilled for every variable. *)
  for i = 0 to n - 1 do
    match Box.find_opt cs.cvars.(i) box with
    | Some itv ->
        dom.(i) <- itv;
        present.(i) <- true
    | None ->
        dom.(i) <- I.entire;
        present.(i) <- false
  done;
  let revise_all () =
    let ok = ref true in
    let k = ref 0 in
    let m = Array.length cs.ctapes in
    while !ok && !k < m do
      let tp, target = cs.ctapes.(!k) in
      ok :=
        Expr.Tape.hc4_revise tp scratches.(!k) ~tm ~mask:present ~target dom;
      incr k
    done;
    !ok
  in
  (* Widths below are I.width transcribed inline (same formula, same
     ulp widening): the cross-module call would box its float result on
     every bound of every round. *)
  let rec loop round =
    Telemetry.Counter.incr m_rounds;
    for i = 0 to n - 1 do
      let itv = dom.(i) in
      let l = itv.I.lo and h = itv.I.hi in
      w_old.(i) <-
        (if l <> l || h <> h then 0.0
         else Interval.Round.next_after (h -. l) infinity)
    done;
    if not (revise_all ()) then None
    else begin
      let shrank = ref false in
      for i = 0 to n - 1 do
        if present.(i) then begin
          let wo = w_old.(i) in
          let itv = dom.(i) in
          let l = itv.I.lo and h = itv.I.hi in
          let wn =
            if l <> l || h <> h then 0.0
            else Interval.Round.next_after (h -. l) infinity
          in
          if wo > 0.0 && (wo -. wn) /. wo > tol then shrank := true
          else if wo = infinity && wn < infinity then shrank := true
        end
      done;
      if round >= max_rounds || not !shrank then begin
        let b = ref box in
        for i = 0 to n - 1 do
          if present.(i) then b := Box.set cs.cvars.(i) dom.(i) !b
        done;
        Some !b
      end
      else loop (round + 1)
    end
  in
  Telemetry.Counter.incr m_fixpoints;
  let r = loop 0 in
  Parallel.Slot.put cs.ws ws;
  r

(* Only the variables the atom's tape reads must be in the box. *)
let certify cs box (a : Expr.Formula.atom) =
  match List.find_opt (fun (t, _, _) -> t == a.term) cs.catoms with
  | None -> None
  | Some (_, k, (itv_op, tm_op)) ->
      let tp = fst cs.ctapes.(k) in
      let ws = Parallel.Slot.take cs.ws in
      let dom = ws.dom and sc = ws.scratches.(k) in
      Array.iteri
        (fun i x ->
          dom.(i) <-
            (match Box.find_opt x box with
            | Some itv -> itv
            | None when Expr.Tape.reads_input tp i ->
                Parallel.Slot.put cs.ws ws;
                invalid_arg (Printf.sprintf "Term.eval_interval: unbound variable %S" x)
            | None -> I.entire))
        cs.cvars;
      let r = itv_op (Expr.Tape.eval_interval tp sc dom) in
      let v =
        match Expr.Formula.range_verdict a.rel r with
        | (Expr.Formula.Certain | Expr.Formula.Impossible) as v -> v
        | Expr.Formula.Unknown ->
            (* an Unknown range is nonempty *)
            Interval.Tm.with_span (fun () ->
                let m = tm_op (Expr.Tape.eval_tm tp sc dom) in
                let w = I.inter r (Interval.Tm.concretize m) in
                if not (I.equal w r) then Interval.Tm.note_tightening ();
                Expr.Formula.range_verdict a.rel w)
      in
      Parallel.Slot.put cs.ws ws;
      Some v

(* The derivative system the contractor layers on its fixpoint: [None]
   when the layer is off or no constraint is differentiable.  The flag
   is sampled here, at build time, like [tm]. *)
let deriv_system constraints =
  if Deriv.enabled () then
    Deriv.compile (List.map (fun c -> (c.term, c.target)) constraints)
  else None

(* Compile-once fixpoint closure over a compiled system.  The closure
   is safe to share across worker domains (tapes are immutable; a call
   borrows the workspace from the system's slot).  The Taylor-model
   switch is sampled at build time. *)
let contractor ?tol ?max_rounds ?newton cs =
  let tm = Interval.Tm.enabled () in
  let base box = fixpoint_compiled ?tol ?max_rounds ~tm cs box in
  (* Derivative layer (mean-value refutation + interval Newton), run
     after the HC4 fixpoint; when Newton contracts the box, one more
     fixpoint round lets HC4 exploit the tightened components. *)
  let newton =
    match newton with Some sys -> sys | None -> deriv_system cs.cons
  in
  let base =
    match newton with
    | None -> base
    | Some sys -> (
        fun box ->
          match base box with
          | None -> None
          | Some b -> (
              match Deriv.contract sys b with
              | None -> None
              | Some b' -> if b' == b then Some b else base b'))
  in
  fun box ->
    if not (Telemetry.enabled ()) then base box
    else begin
      let tok = Telemetry.Span.enter tm_hc4 in
      match base box with
      | r ->
          Telemetry.Span.exit tm_hc4 tok;
          r
      | exception e ->
          Telemetry.Span.exit tm_hc4 tok;
          raise e
    end
