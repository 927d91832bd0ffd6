(* Flat SSA tapes compiled from terms.

   Compilation walks each term bottom-up, hash-consing every node on
   (opcode, operand slots): structurally identical subterms — across all
   roots of the tape — occupy a single slot, and slots are emitted in
   topological order (operands always precede their users).  The result
   is an instruction array that float/interval evaluation executes as a
   plain loop over scratch arrays, and that the HC4 backward pass walks
   by slot index.  No names, no tree nodes, no allocation in the steady
   state. *)

module I = Interval.Ia

type op =
  | OVar of int  (* input position *)
  | OConst of float
  | OAdd of int * int
  | OSub of int * int
  | OMul of int * int
  | ODiv of int * int
  | ONeg of int
  | OPow of int * int  (* operand slot, integer exponent *)
  | OExp of int
  | OLog of int
  | OSqrt of int
  | OSin of int
  | OCos of int
  | OTan of int
  | OAtan of int
  | OTanh of int
  | OAbs of int
  | OMin of int * int
  | OMax of int * int

type t = {
  inputs : string array;
  ops : op array;  (* slots in topological order *)
  roots : int array;  (* root slot of each compiled term *)
  var_slots : (int * int) array;  (* (slot, input position) of every OVar *)
  tm_recips : Interval.Tm.t option array;
      (* per-slot reciprocal models of the constant divisors, for the
         TM walker; empty when no division has a constant divisor *)
  reads : int array;
      (* per-slot bitmask of the inputs the slot reads, directly or
         through its operands (bit i for input i); empty past
         [mask_inputs] inputs *)
  interior_shared : int;  (* CSE hits on non-leaf slots *)
}

(* Interval slot values live in parallel unboxed lo/hi arrays, so the
   steady state allocates nothing; [Ia.t] records are materialized only
   at the API boundary and for the rarer operations (division, powers,
   transcendentals) that fall back to the record kernels.  [req] is the
   requirement cell of the backward pass: an all-float record, so its
   fields are stored flat and passing a requirement costs two unboxed
   stores instead of two boxed float arguments. *)
and scratch = {
  fvals : float array;
  ilos : float array;
  ihis : float array;
  req : reqcell;
  mutable tms : Interval.Tm.t array;
      (* Taylor-model walker slot values; empty until the first TM pass,
         which most scratches never run *)
  mutable tm_in : float array;
      (* each input's bounds at the last TM pass, lo at 2i and hi at
         2i + 1; empty until the first TM pass *)
  mutable tm_budget : int;  (* the TM budget of the last complete TM
                               pass; 0 before the first *)
}

and reqcell = { mutable rlo : float; mutable rhi : float }

(* ---- Compilation ---- *)

(* The initial value of every TM slot of a scratch, shared: each slot is
   written before it is read. *)
let tm_zero = Interval.Tm.const 0.0

(* The most inputs a tape can have and still record its slots' read
   masks in an int: bits 0 to 61 stay clear of the sign bit. *)
let mask_inputs = 62

let compile ~vars terms =
  let inputs = Array.of_list vars in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace index v i) inputs;
  let rev_ops = ref [] and count = ref 0 in
  let cse : (op, int) Hashtbl.t = Hashtbl.create 64 in
  let interior = ref 0 in
  let emit ~leaf op =
    match Hashtbl.find_opt cse op with
    | Some s ->
        if not leaf then incr interior;
        s
    | None ->
        let s = !count in
        incr count;
        rev_ops := op :: !rev_ops;
        Hashtbl.add cse op s;
        s
  in
  let rec go (t : Term.t) =
    match t with
    | Var x -> (
        match Hashtbl.find_opt index x with
        | Some i -> emit ~leaf:true (OVar i)
        | None ->
            invalid_arg (Printf.sprintf "Tape.compile: unbound variable %S" x))
    | Const c -> emit ~leaf:true (OConst c)
    | Add (a, b) ->
        let sa = go a in
        let sb = go b in
        emit ~leaf:false (OAdd (sa, sb))
    | Sub (a, b) ->
        let sa = go a in
        let sb = go b in
        emit ~leaf:false (OSub (sa, sb))
    | Mul (a, b) ->
        let sa = go a in
        let sb = go b in
        emit ~leaf:false (OMul (sa, sb))
    | Div (a, b) ->
        let sa = go a in
        let sb = go b in
        emit ~leaf:false (ODiv (sa, sb))
    | Neg a -> emit ~leaf:false (ONeg (go a))
    | Pow (a, k) -> emit ~leaf:false (OPow (go a, k))
    | Exp a -> emit ~leaf:false (OExp (go a))
    | Log a -> emit ~leaf:false (OLog (go a))
    | Sqrt a -> emit ~leaf:false (OSqrt (go a))
    | Sin a -> emit ~leaf:false (OSin (go a))
    | Cos a -> emit ~leaf:false (OCos (go a))
    | Tan a -> emit ~leaf:false (OTan (go a))
    | Atan a -> emit ~leaf:false (OAtan (go a))
    | Tanh a -> emit ~leaf:false (OTanh (go a))
    | Abs a -> emit ~leaf:false (OAbs (go a))
    | Min (a, b) ->
        let sa = go a in
        let sb = go b in
        emit ~leaf:false (OMin (sa, sb))
    | Max (a, b) ->
        let sa = go a in
        let sb = go b in
        emit ~leaf:false (OMax (sa, sb))
  in
  let roots = Array.of_list (List.map go terms) in
  let ops = Array.of_list (List.rev !rev_ops) in
  let var_slots =
    let acc = ref [] in
    Array.iteri
      (fun s op -> match op with OVar i -> acc := (s, i) :: !acc | _ -> ())
      ops;
    Array.of_list (List.rev !acc)
  in
  let n = Array.length ops in
  (* For a finite constant y, [T.div x y] computes [mul x (inv y)], and
     [inv] of a constant divisor's model is the same on every
     evaluation: compute it once here.  An infinite constant takes
     [T.div]'s interval fallback, so it gets no reciprocal. *)
  let tm_recips =
    let r = Array.make n None and any = ref false in
    Array.iter
      (function
        | ODiv (_, b) -> (
            match ops.(b) with
            | OConst c when Float.is_finite c ->
                (* Every domain that runs a TM pass on the tape reads
                   this model: its range is computed here. *)
                r.(b) <- Some Interval.Tm.(share (inv (const c)));
                any := true
            | _ -> ())
        | _ -> ())
      ops;
    if !any then r else [||]
  in
  let reads =
    if Array.length inputs > mask_inputs then [||]
    else begin
      let m = Array.make n 0 in
      Array.iteri
        (fun s op ->
          m.(s) <-
            (match op with
            | OVar i -> 1 lsl i
            | OConst _ -> 0
            | OAdd (a, b) | OSub (a, b) | OMul (a, b) | ODiv (a, b) | OMin (a, b)
            | OMax (a, b) ->
                m.(a) lor m.(b)
            | ONeg a | OPow (a, _) | OExp a | OLog a | OSqrt a | OSin a | OCos a
            | OTan a | OAtan a | OTanh a | OAbs a ->
                m.(a)))
        ops;
      m
    end
  in
  { inputs; ops; roots; var_slots; tm_recips; reads; interior_shared = !interior }

let num_inputs tp = Array.length tp.inputs
let num_slots tp = Array.length tp.ops
let num_roots tp = Array.length tp.roots
let interior_sharing tp = tp.interior_shared

let reads_input tp i = Array.exists (fun (_, j) -> j = i) tp.var_slots

let scratch tp =
  let n = Array.length tp.ops in
  { fvals = Array.make n 0.0;
    ilos = Array.make n neg_infinity;
    ihis = Array.make n infinity;
    req = { rlo = neg_infinity; rhi = infinity };
    tms = [||];
    tm_in = [||];
    tm_budget = 0 }

(* ---- Float evaluation (Term.compile semantics, incl. pow fast paths) ---- *)

let[@inline] float_op v (inputs : float array) = function
  | OVar i -> Array.unsafe_get inputs i
  | OConst c -> c
  | OAdd (a, b) -> Array.unsafe_get v a +. Array.unsafe_get v b
  | OSub (a, b) -> Array.unsafe_get v a -. Array.unsafe_get v b
  | OMul (a, b) -> Array.unsafe_get v a *. Array.unsafe_get v b
  | ODiv (a, b) -> Array.unsafe_get v a /. Array.unsafe_get v b
  | ONeg a -> -.Array.unsafe_get v a
  | OPow (a, 2) ->
      let x = Array.unsafe_get v a in
      x *. x
  | OPow (a, 3) ->
      let x = Array.unsafe_get v a in
      x *. x *. x
  | OPow (a, k) -> Float.pow (Array.unsafe_get v a) (float_of_int k)
  | OExp a -> Float.exp (Array.unsafe_get v a)
  | OLog a -> Float.log (Array.unsafe_get v a)
  | OSqrt a -> Float.sqrt (Array.unsafe_get v a)
  | OSin a -> Float.sin (Array.unsafe_get v a)
  | OCos a -> Float.cos (Array.unsafe_get v a)
  | OTan a -> Float.tan (Array.unsafe_get v a)
  | OAtan a -> Float.atan (Array.unsafe_get v a)
  | OTanh a -> Float.tanh (Array.unsafe_get v a)
  | OAbs a -> Float.abs (Array.unsafe_get v a)
  | OMin (a, b) -> Float.min (Array.unsafe_get v a) (Array.unsafe_get v b)
  | OMax (a, b) -> Float.max (Array.unsafe_get v a) (Array.unsafe_get v b)

let forward_floats tp sc (inputs : float array) =
  let v = sc.fvals in
  let ops = tp.ops in
  for s = 0 to Array.length ops - 1 do
    Array.unsafe_set v s (float_op v inputs (Array.unsafe_get ops s))
  done

let read_roots tp (v : float array) out =
  for k = 0 to Array.length tp.roots - 1 do
    out.(k) <- v.(tp.roots.(k))
  done

let eval_floats_into tp sc ~inputs ~out =
  forward_floats tp sc inputs;
  read_roots tp sc.fvals out

let eval_float tp sc inputs =
  forward_floats tp sc inputs;
  sc.fvals.(tp.roots.(0))

(* ---- Staged float evaluation ----

   A slot is dynamic when it reads a dynamic input or a dynamic slot;
   every other slot has the same value on every call that keeps the
   static inputs fixed.  [stage] partitions the slots once; the static
   ones are then computed once per binding of the static inputs and
   only the dynamic ones per call, in a float-only workspace (one cell
   per slot, then a spare).  A dynamic input's slot only copies the
   input, so the caller writes the input straight into that slot (its
   cell) and the per-call loop skips it; an input no term reads gets
   the spare cell.  Every other slot runs the same operation on the
   same operand values as in [forward_floats], so the roots are
   bit-identical to a full pass. *)

type staged = {
  st_tape : t;
  static_slots : int array;
  dyn_slots : int array;  (* dynamic slots other than the inputs' *)
  dyn_ops : op array;  (* ops.(dyn_slots.(k)), contiguous for the hot loop *)
  cells : int array;  (* each dynamic input's cell in the workspace *)
}

let operands = function
  | OVar _ | OConst _ -> []
  | OAdd (a, b) | OSub (a, b) | OMul (a, b) | ODiv (a, b) | OMin (a, b) | OMax (a, b) ->
      [ a; b ]
  | ONeg a | OPow (a, _) | OExp a | OLog a | OSqrt a | OSin a | OCos a | OTan a
  | OAtan a | OTanh a | OAbs a ->
      [ a ]

let stage tp ~dynamic =
  let n = Array.length tp.ops in
  let dyn = Array.make n false in
  Array.iteri
    (fun s op ->
      dyn.(s) <-
        (match op with
        | OVar i -> dynamic i
        | op -> List.exists (fun a -> dyn.(a)) (operands op)))
    tp.ops;
  let slots p = Array.of_list (List.filter p (List.init n Fun.id)) in
  let is_input s = match tp.ops.(s) with OVar _ -> true | _ -> false in
  let dyn_slots = slots (fun s -> dyn.(s) && not (is_input s)) in
  let cells = Array.init (Array.length tp.inputs) (fun i -> if dynamic i then n else -1) in
  Array.iter (fun (s, i) -> if dynamic i then cells.(i) <- s) tp.var_slots;
  { st_tape = tp; static_slots = slots (fun s -> not dyn.(s)); dyn_slots;
    dyn_ops = Array.map (fun s -> tp.ops.(s)) dyn_slots; cells }

let input_cells st = Array.copy st.cells
let staged_cells st = Array.make (Array.length st.st_tape.ops + 1) 0.0

let eval_static st v ~inputs =
  let ops = st.st_tape.ops in
  Array.iter (fun s -> v.(s) <- float_op v inputs ops.(s)) st.static_slots

(* [float_op] never reads [inputs] here: the loop skips the input slots. *)
let eval_dynamic_into st v ~out =
  let slots = st.dyn_slots and ops = st.dyn_ops in
  for k = 0 to Array.length slots - 1 do
    Array.unsafe_set v (Array.unsafe_get slots k)
      (float_op v v (Array.unsafe_get ops k))
  done;
  read_roots st.st_tape v out

(* ---- Interval forward pass (Term.eval_interval semantics) ----

   Slot bounds live in the unboxed [ilos]/[ihis] arrays.  The hot ring
   operations (add, sub, neg, mul, sqr, min, max, abs) are transcribed
   from {!Ia} so that nonempty results are bit-identical to the record
   kernels; division, general powers and transcendentals materialize
   records and call {!Ia} directly.  Invariant: a slot is empty iff its
   lo bound is NaN, and then both bounds are NaN — every write collapses
   any NaN to the (nan, nan) pair.  [Ia] may instead carry a half-NaN
   record (e.g. from inf - inf); both encodings are empty under
   [Ia.is_empty], so observable behaviour agrees. *)

(* Inline copies of {!Interval.Round.next_down} and
   {!Interval.Round.next_up}, the exact round-to-nearest predecessor and
   successor: a call into [Round] is never inlined under [-opaque] and
   would box its argument and result (see round.mli). *)
let[@inline] down x =
  let a = Float.abs x in
  if a >= 0x1p-969 then
    if x = infinity then Float.max_float else x -. (0x1.0000000000001p-53 *. a)
  else if a < 0x1p-1021 then x -. 0x1p-1074
  else ((x *. 0x1p53) -. (0x1.0000000000001p-53 *. (a *. 0x1p53))) *. 0x1p-53

let[@inline] up x =
  let a = Float.abs x in
  if a >= 0x1p-969 then
    if x = neg_infinity then -.Float.max_float else x +. (0x1.0000000000001p-53 *. a)
  else if a < 0x1p-1021 then if x = -0x1p-1074 then -0.0 else x +. 0x1p-1074
  else ((x *. 0x1p53) +. (0x1.0000000000001p-53 *. (a *. 0x1p53))) *. 0x1p-53

(* Product of two bounds with the interval convention 0 * inf = 0
   (mirrors Ia.prod). *)
let[@inline] prod x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

(* Naive float min/max for operands already checked non-NaN.  Unlike
   [Stdlib.Float.min]/[max] these are same-module (hence inlined, no
   boxing through a call) and may pick the other sign of a zero; the
   results stay numerically equal to the record kernels', and no
   downstream operation branches on the sign of a zero bound. *)
let[@inline] fmin (a : float) (b : float) = if a < b then a else b
let[@inline] fmax (a : float) (b : float) = if a > b then a else b

(* Materialize slot [i] of the scratch as an interval record. *)
let[@inline] slot_itv sc i =
  I.make_unordered (Array.unsafe_get sc.ilos i) (Array.unsafe_get sc.ihis i)

(* Store an interval record into a slot, collapsing any NaN bound to the
   empty (nan, nan) pair.  Only the fallback ops go through this. *)
let set_slot_itv sc s r =
  let l = r.I.lo and h = r.I.hi in
  if l <> l || h <> h then begin
    Array.unsafe_set sc.ilos s nan;
    Array.unsafe_set sc.ihis s nan
  end
  else begin
    Array.unsafe_set sc.ilos s l;
    Array.unsafe_set sc.ihis s h
  end

let forward_intervals tp sc (inputs : I.t array) =
  (* Written with direct array accesses in every arm: accessor closures
     here would box every float crossing the call, and this loop is the
     single hottest piece of the contractor. *)
  let lo = sc.ilos and hi = sc.ihis in
  let ops = tp.ops in
  for s = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops s with
    | OVar i ->
        let x = Array.unsafe_get inputs i in
        let l = x.I.lo and h = x.I.hi in
        if l <> l || h <> h then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan
        end
        else begin
          Array.unsafe_set lo s l;
          Array.unsafe_set hi s h
        end
    | OConst c ->
        (* [I.of_float c]: the point, or the empty pair for a NaN. *)
        let c = if c <> c then nan else c in
        Array.unsafe_set lo s c;
        Array.unsafe_set hi s c
    | OAdd (a, b) ->
        (* NaN operands propagate through the sums into the guard. *)
        let l = down (Array.unsafe_get lo a +. Array.unsafe_get lo b)
        and h = up (Array.unsafe_get hi a +. Array.unsafe_get hi b) in
        if l <> l || h <> h then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan
        end
        else begin
          Array.unsafe_set lo s l;
          Array.unsafe_set hi s h
        end
    | OSub (a, b) ->
        let l = down (Array.unsafe_get lo a -. Array.unsafe_get hi b)
        and h = up (Array.unsafe_get hi a -. Array.unsafe_get lo b) in
        if l <> l || h <> h then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan
        end
        else begin
          Array.unsafe_set lo s l;
          Array.unsafe_set hi s h
        end
    | OMul (a, b) ->
        (* Operand check up front: [prod] maps 0-operands to 0, which
           would mask an empty side (empty × [0,0] must stay empty). *)
        let al = Array.unsafe_get lo a and bl = Array.unsafe_get lo b in
        if al <> al || bl <> bl then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan
        end
        else begin
          let ah = Array.unsafe_get hi a and bh = Array.unsafe_get hi b in
          let p1 = prod al bl
          and p2 = prod al bh
          and p3 = prod ah bl
          and p4 = prod ah bh in
          Array.unsafe_set lo s
            (down (fmin (fmin p1 p2) (fmin p3 p4)));
          Array.unsafe_set hi s
            (up (fmax (fmax p1 p2) (fmax p3 p4)))
        end
    | ONeg a ->
        Array.unsafe_set lo s (-.Array.unsafe_get hi a);
        Array.unsafe_set hi s (-.Array.unsafe_get lo a)
    | OPow (a, 2) ->
        (* Ia.sqr transcribed: tight via mignitude/magnitude. *)
        let al = Array.unsafe_get lo a in
        if al <> al then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan
        end
        else begin
          let ah = Array.unsafe_get hi a in
          let l = Float.abs al and h = Float.abs ah in
          let m = if al <= 0.0 && 0.0 <= ah then 0.0 else fmin l h in
          let g = fmax l h in
          Array.unsafe_set lo s (if m = 0.0 then 0.0 else down (m *. m));
          Array.unsafe_set hi s (up (g *. g))
        end
    | OPow (a, k) -> set_slot_itv sc s (I.pow_int (slot_itv sc a) k)
    | ODiv (a, b) ->
        (* Ia.div = mul a (inv b), both transcribed.  [cl, ch] is the
           reciprocal of the divisor; each bound is computed by its own
           conditional so no tuple is allocated. *)
        let al = Array.unsafe_get lo a and bl = Array.unsafe_get lo b in
        if al <> al || bl <> bl then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan
        end
        else begin
          let bh = Array.unsafe_get hi b in
          if bl = 0.0 && bh = 0.0 then begin
            (* Zero-singleton divisor: empty reciprocal (Ia.inv). *)
            Array.unsafe_set lo s nan;
            Array.unsafe_set hi s nan
          end
          else begin
            let cl =
              if bl < 0.0 && bh > 0.0 then neg_infinity
              else if bl = 0.0 then down (1.0 /. bh)
              else if bh = 0.0 then neg_infinity
              else
                down (fmin (1.0 /. bh) (1.0 /. bl))
            and ch =
              if bl < 0.0 && bh > 0.0 then infinity
              else if bl = 0.0 then infinity
              else if bh = 0.0 then up (1.0 /. bl)
              else up (fmax (1.0 /. bh) (1.0 /. bl))
            in
            let ah = Array.unsafe_get hi a in
            let p1 = prod al cl
            and p2 = prod al ch
            and p3 = prod ah cl
            and p4 = prod ah ch in
            Array.unsafe_set lo s
              (down (fmin (fmin p1 p2) (fmin p3 p4)));
            Array.unsafe_set hi s
              (up (fmax (fmax p1 p2) (fmax p3 p4)))
          end
        end
    | OExp a -> set_slot_itv sc s (I.exp (slot_itv sc a))
    | OLog a -> set_slot_itv sc s (I.log (slot_itv sc a))
    | OSqrt a -> set_slot_itv sc s (I.sqrt (slot_itv sc a))
    | OSin a -> set_slot_itv sc s (I.sin (slot_itv sc a))
    | OCos a -> set_slot_itv sc s (I.cos (slot_itv sc a))
    | OTan a -> set_slot_itv sc s (I.tan (slot_itv sc a))
    | OAtan a -> set_slot_itv sc s (I.atan (slot_itv sc a))
    | OTanh a -> set_slot_itv sc s (I.tanh (slot_itv sc a))
    | OAbs a ->
        let al = Array.unsafe_get lo a in
        if al <> al then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan
        end
        else begin
          let ah = Array.unsafe_get hi a in
          let l = Float.abs al and h = Float.abs ah in
          let m = if al <= 0.0 && 0.0 <= ah then 0.0 else fmin l h in
          Array.unsafe_set lo s m;
          Array.unsafe_set hi s (fmax l h)
        end
    | OMin (a, b) ->
        let al = Array.unsafe_get lo a and bl = Array.unsafe_get lo b in
        if al <> al || bl <> bl then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan
        end
        else begin
          Array.unsafe_set lo s (fmin al bl);
          Array.unsafe_set hi s
            (fmin (Array.unsafe_get hi a) (Array.unsafe_get hi b))
        end
    | OMax (a, b) ->
        let al = Array.unsafe_get lo a and bl = Array.unsafe_get lo b in
        if al <> al || bl <> bl then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan
        end
        else begin
          Array.unsafe_set lo s (fmax al bl);
          Array.unsafe_set hi s
            (fmax (Array.unsafe_get hi a) (Array.unsafe_get hi b))
        end
  done

let eval_interval_into tp sc ~inputs ~out =
  forward_intervals tp sc inputs;
  for k = 0 to Array.length tp.roots - 1 do
    out.(k) <- slot_itv sc tp.roots.(k)
  done

let eval_interval tp sc inputs =
  forward_intervals tp sc inputs;
  slot_itv sc tp.roots.(0)

(* ---- Taylor-model forward pass ----

   The second operand interpretation of the same instruction array: slot
   values are degree-2 {!Interval.Tm} models, and input [i] is
   introduced with symbol [i] — all occurrences of a variable are CSE'd
   into one OVar slot, so correlations between subexpressions sharing a
   variable are tracked exactly, quadratic monomials included, and the
   polynomial range is bounded by Bernstein coefficients.  Every Tm
   operation matches the domain semantics of the corresponding {!Ia}
   operation, so concretized slot ranges are sound enclosures of the
   same value sets the interval pass bounds — the two can be
   intersected slot by slot. *)

module T = Interval.Tm

(* The precomputed reciprocal of divisor slot [b], if it has one. *)
let[@inline] recip recips b =
  if Array.length recips = 0 then None else Array.unsafe_get recips b

(* A slot's model is a pure function of its operands' models and of the
   TM budget, and only this pass writes [sc.tms]: a model stays right
   for as long as the inputs its slot reads and the budget stay the
   same.  So a scratch records the bounds of the inputs and the budget
   of its last pass, and a pass rebuilds only the slots that read an
   input whose bounds changed bit for bit (−0.0 and +0.0 apart).  It
   rebuilds every slot on the scratch's first pass, after a budget
   change, and on a tape with no read masks.  Constant slots read no
   input, so the first pass builds their models and later passes keep
   them.  A pass cut short by an exception leaves [tm_budget] at 0, so
   the next one rebuilds every slot. *)
let[@inline] same_bits (x : float) (y : float) =
  Int64.bits_of_float x = Int64.bits_of_float y

let forward_tm tp sc (inputs : I.t array) =
  let ops = tp.ops and reads = tp.reads in
  if Array.length sc.tms <> Array.length ops then begin
    sc.tms <- Array.make (Array.length ops) tm_zero;
    sc.tm_in <- Array.make (2 * Array.length tp.inputs) nan
  end;
  let tm = sc.tms in
  let budget = T.budget () in
  let all = sc.tm_budget <> budget || Array.length reads = 0 in
  let changed = ref 0 in
  if Array.length reads > 0 then begin
    let vs = tp.var_slots and last = sc.tm_in in
    for k = 0 to Array.length vs - 1 do
      let _, i = Array.unsafe_get vs k in
      let x = Array.unsafe_get inputs i in
      let l = x.I.lo and h = x.I.hi in
      if
        not
          (same_bits l (Array.unsafe_get last (2 * i))
          && same_bits h (Array.unsafe_get last ((2 * i) + 1)))
      then begin
        Array.unsafe_set last (2 * i) l;
        Array.unsafe_set last ((2 * i) + 1) h;
        changed := !changed lor (1 lsl i)
      end
    done
  end;
  sc.tm_budget <- 0;
  for s = 0 to Array.length ops - 1 do
    if all || Array.unsafe_get reads s land !changed <> 0 then
      tm.(s) <-
        (match Array.unsafe_get ops s with
        | OVar i -> T.of_interval ~sym:i (Array.unsafe_get inputs i)
        | OConst c -> T.const c
        | OAdd (a, b) -> T.add tm.(a) tm.(b)
        | OSub (a, b) -> T.sub tm.(a) tm.(b)
        | OMul (a, b) -> T.mul tm.(a) tm.(b)
        | ODiv (a, b) -> (
            match recip tp.tm_recips b with
            | Some r -> T.mul tm.(a) r
            | None -> T.div tm.(a) tm.(b))
        | ONeg a -> T.neg tm.(a)
        | OPow (a, k) -> T.pow_int tm.(a) k
        | OExp a -> T.exp tm.(a)
        | OLog a -> T.log tm.(a)
        | OSqrt a -> T.sqrt tm.(a)
        | OSin a -> T.sin tm.(a)
        | OCos a -> T.cos tm.(a)
        | OTan a -> T.tan tm.(a)
        | OAtan a -> T.atan tm.(a)
        | OTanh a -> T.tanh tm.(a)
        | OAbs a -> T.abs tm.(a)
        | OMin (a, b) -> T.min_ tm.(a) tm.(b)
        | OMax (a, b) -> T.max_ tm.(a) tm.(b))
  done;
  sc.tm_budget <- budget

let eval_tm_into tp sc ~inputs ~out =
  forward_tm tp sc inputs;
  for k = 0 to Array.length tp.roots - 1 do
    out.(k) <- T.concretize sc.tms.(tp.roots.(k))
  done

let eval_tm tp sc inputs =
  forward_tm tp sc inputs;
  sc.tms.(tp.roots.(0))

(* Intersect the interval slot enclosures (left by [forward_intervals])
   with the concretized TM slot ranges.  Returns [true] iff some slot
   strictly tightened.  An empty intersection certifies that the slot's
   subterm has an empty value set on the box — recorded as the
   (nan, nan) empty slot, which the backward pass treats as infeasible
   on contact.  Leaf slots are skipped: the concretization of an input's
   or a constant's model contains its interval slot (the outward steps
   put its bounds strictly outside, and the model of an unbounded input
   or an infinite constant is that interval itself), so the
   intersection would leave the slot as it is. *)
let tm_tighten tp sc dom =
  forward_tm tp sc dom;
  let lo = sc.ilos and hi = sc.ihis in
  let tm = sc.tms in
  let ops = tp.ops in
  let tightened = ref false in
  for s = 0 to Array.length ops - 1 do
    let l = Array.unsafe_get lo s in
    if
      l = l
      && match Array.unsafe_get ops s with OVar _ | OConst _ -> false | _ -> true
    then begin
      let r = T.concretize tm.(s) in
      let rl = r.I.lo and rh = r.I.hi in
      if rl <> rl || rh <> rh then begin
        Array.unsafe_set lo s nan;
        Array.unsafe_set hi s nan;
        tightened := true
      end
      else begin
        let h = Array.unsafe_get hi s in
        let l' = fmax l rl and h' = fmin h rh in
        if l' > h' then begin
          Array.unsafe_set lo s nan;
          Array.unsafe_set hi s nan;
          tightened := true
        end
        else if not (l' = l && h' = h) then begin
          Array.unsafe_set lo s l';
          Array.unsafe_set hi s h';
          tightened := true
        end
      end
    end
  done;
  !tightened

(* ---- Smoothness certificate ----

   After [forward_intervals] over a box, decide whether every function
   compiled into the tape is defined and C¹ on the whole box.  The box
   is convex, so it suffices that no partially-defined or non-smooth
   instruction's argument enclosure touches a singular point:

   - ODiv: the divisor enclosure excludes 0;
   - OLog, OSqrt: the argument enclosure is strictly positive (sqrt is
     defined at 0 but not differentiable there);
   - OPow with negative exponent: the base enclosure excludes 0;
   - OAbs: the argument enclosure excludes 0 (the kink);
   - OTan: the instruction's own enclosure is bounded — {!Ia.tan}
     returns [entire] whenever the argument may contain a pole, so a
     bounded result certifies the argument sits inside one branch;
   - OMin/OMax: never smooth-certified (kinks anywhere the arguments
     cross; the gradient compiler rejects them before this point);
   - any empty slot (including empty inputs) fails.

   The enclosures are conservative, so this can only under-report
   smoothness — exactly the safe direction for the mean-value and
   Newton contractions that require it. *)
let smooth_on tp sc =
  let lo = sc.ilos and hi = sc.ihis in
  let ops = tp.ops in
  let n = Array.length ops in
  let ok = ref true in
  let s = ref 0 in
  while !ok && !s < n do
    let i = !s in
    (match Array.unsafe_get ops i with
    | ODiv (_, b) ->
        let bl = Array.unsafe_get lo b and bh = Array.unsafe_get hi b in
        if not (bl > 0.0 || bh < 0.0) then ok := false
    | OLog a | OSqrt a ->
        if not (Array.unsafe_get lo a > 0.0) then ok := false
    | OPow (a, k) when k < 0 ->
        let al = Array.unsafe_get lo a and ah = Array.unsafe_get hi a in
        if not (al > 0.0 || ah < 0.0) then ok := false
    | OAbs a ->
        let al = Array.unsafe_get lo a and ah = Array.unsafe_get hi a in
        if not (al > 0.0 || ah < 0.0) then ok := false
    | OTan _ ->
        let l = Array.unsafe_get lo i and h = Array.unsafe_get hi i in
        if not (Float.is_finite l && Float.is_finite h) then ok := false
    | OMin _ | OMax _ -> ok := false
    | OVar _ | OConst _ | OAdd _ | OSub _ | OMul _ | ONeg _ | OPow _
    | OExp _ | OSin _ | OCos _ | OAtan _ | OTanh _ ->
        ());
    (if !ok then
       let l = Array.unsafe_get lo i in
       if l <> l then ok := false);
    incr s
  done;
  !ok

(* ---- Preimage helpers shared with the tree-walking contractor ---- *)

(* Preimage of [r] under x ↦ x^k intersected with [x].  Even powers have
   two branches (intersected with [x] separately, then hulled — hulling
   first would fill the gap and lose the contraction); negative powers
   reduce to the positive case through the reciprocal: over the reals,
   x^(-m) ∈ r implies x^m ∈ 1/r. *)
let rec pow_preimage x r k =
  if k = 0 then if I.mem 1.0 r then x else I.empty
  else if k < 0 then pow_preimage x (I.inv r) (-k)
  else if k mod 2 = 1 then I.inter x (I.root r k)
  else
    let pos = I.root r k in
    if I.is_empty pos then I.empty
    else I.hull (I.inter x (I.neg pos)) (I.inter x pos)

(* Preimage of [r] under abs intersected with [x]. *)
let abs_preimage x r =
  let rp = I.inter r (I.make 0.0 infinity) in
  if I.is_empty rp then I.empty
  else I.hull (I.inter x (I.neg rp)) (I.inter x rp)

(* Preimage of [v] under tan intersected with [x], contracting only when
   [x] provably sits inside one monotone branch (kπ-π/2, kπ+π/2).  The
   branch bounds use an outward-rounded enclosure of π, so the strict
   comparisons are sound despite π being irrational. *)
let tan_preimage x v =
  if not (I.is_bounded x) then x
  else
    let pi_enc = I.of_literal Float.pi in
    let k = Float.round (I.mid x /. Float.pi) in
    let shift = I.mul_float pi_enc k in
    let half_pi = I.mul_float pi_enc 0.5 in
    let branch_lo = I.sub shift half_pi in
    let branch_hi = I.add shift half_pi in
    if I.lo x > I.hi branch_lo && I.hi x < I.lo branch_hi then
      I.inter x (I.add (I.atan v) shift)
    else x

(* ---- HC4 backward pass ---- *)

exception Infeasible

(* [require] intersects a slot's forward value with the requirement left
   in the scratch's [req] cell and, on change, propagates down.  The
   cell is consumed on entry, so recursive pushes may freely overwrite
   it.  Callers store the requirement bounds with two unboxed float
   writes instead of passing them as (boxed) arguments.  Input (OVar)
   slots simply accumulate: with all occurrences of a variable CSE'd
   into one slot, the running float max/min is exactly the [reqs] table
   of the tree-walking HC4.  A NaN requirement bound means the
   requirement is empty (Ia half-NaN records included), and an empty
   intersection is infeasible. *)
let rec require tp sc s =
  let rlo = sc.req.rlo and rhi = sc.req.rhi in
  let vlo = Array.unsafe_get sc.ilos s and vhi = Array.unsafe_get sc.ihis s in
  if vlo <> vlo || rlo <> rlo || rhi <> rhi then raise Infeasible;
  let l = fmax vlo rlo and h = fmin vhi rhi in
  if l > h then raise Infeasible;
  if not (l = vlo && h = vhi) then begin
    Array.unsafe_set sc.ilos s l;
    Array.unsafe_set sc.ihis s h;
    push tp sc s
  end

and require_itv tp sc s r =
  sc.req.rlo <- r.I.lo;
  sc.req.rhi <- r.I.hi;
  require tp sc s

and push tp sc s =
  (* The slot was just tightened by [require], so it is nonempty; its
     operands are nonempty too (every forward op propagates empty).
     Direct array accesses throughout: this is the hot path and local
     accessor closures would allocate on every call. *)
  let ilos = sc.ilos and ihis = sc.ihis in
  let vlo = Array.unsafe_get ilos s and vhi = Array.unsafe_get ihis s in
  match tp.ops.(s) with
  | OVar _ -> ()
  | OConst c ->
      if c <> c || not (vlo <= c && c <= vhi) then raise Infeasible
  | OAdd (a, b) ->
      (* a ∈ v - b, then b ∈ v - a with a's freshly tightened bounds. *)
      let req = sc.req in
      req.rlo <- down (vlo -. Array.unsafe_get ihis b);
      req.rhi <- up (vhi -. Array.unsafe_get ilos b);
      require tp sc a;
      req.rlo <- down (vlo -. Array.unsafe_get ihis a);
      req.rhi <- up (vhi -. Array.unsafe_get ilos a);
      require tp sc b
  | OSub (a, b) ->
      let req = sc.req in
      req.rlo <- down (vlo +. Array.unsafe_get ilos b);
      req.rhi <- up (vhi +. Array.unsafe_get ihis b);
      require tp sc a;
      req.rlo <- down (Array.unsafe_get ilos a -. vhi);
      req.rhi <- up (Array.unsafe_get ihis a -. vlo);
      require tp sc b
  | OMul (a, b) ->
      let bl = Array.unsafe_get ilos b and bh = Array.unsafe_get ihis b in
      if bl <> bl || not (bl <= 0.0 && 0.0 <= bh) then
        require_itv tp sc a (I.div (I.make_unordered vlo vhi) (slot_itv sc b));
      let al = Array.unsafe_get ilos a and ah = Array.unsafe_get ihis a in
      if al <> al || not (al <= 0.0 && 0.0 <= ah) then
        require_itv tp sc b (I.div (I.make_unordered vlo vhi) (slot_itv sc a))
  | ODiv (a, b) ->
      require_itv tp sc a (I.mul (I.make_unordered vlo vhi) (slot_itv sc b));
      if not (vlo <= 0.0 && 0.0 <= vhi) then
        require_itv tp sc b (I.div (slot_itv sc a) (I.make_unordered vlo vhi))
  | ONeg a ->
      sc.req.rlo <- -.vhi;
      sc.req.rhi <- -.vlo;
      require tp sc a
  | OPow (a, k) ->
      let pre = pow_preimage (slot_itv sc a) (I.make_unordered vlo vhi) k in
      if I.is_empty pre then raise Infeasible;
      require_itv tp sc a pre
  | OExp a ->
      (* exp x ∈ v ⇒ v must meet (0, ∞) and x ∈ log v *)
      let vp = I.inter (I.make_unordered vlo vhi) (I.make 0.0 infinity) in
      if I.is_empty vp then raise Infeasible;
      require_itv tp sc a (I.log vp)
  | OLog a -> require_itv tp sc a (I.exp (I.make_unordered vlo vhi))
  | OSqrt a ->
      let vp = I.inter (I.make_unordered vlo vhi) (I.make 0.0 infinity) in
      if I.is_empty vp then raise Infeasible;
      require_itv tp sc a (I.sqr vp)
  | OSin _ | OCos _ ->
      (* Multivalued inverse: only prune when the range is impossible. *)
      if vlo > 1.0 || vhi < -1.0 then raise Infeasible
  | OTan a ->
      let pre = tan_preimage (slot_itv sc a) (I.make_unordered vlo vhi) in
      if I.is_empty pre then raise Infeasible;
      require_itv tp sc a pre
  | OAtan a ->
      let dom = I.make (-1.5707963267948966) 1.5707963267948966 in
      let vc = I.inter (I.make_unordered vlo vhi) dom in
      if I.is_empty vc then raise Infeasible;
      require_itv tp sc a (I.tan vc)
  | OTanh a ->
      let vc = I.inter (I.make_unordered vlo vhi) (I.make (-1.0) 1.0) in
      if I.is_empty vc then raise Infeasible;
      require_itv tp sc a (I.atanh vc)
  | OAbs a ->
      let pre = abs_preimage (slot_itv sc a) (I.make_unordered vlo vhi) in
      if I.is_empty pre then raise Infeasible;
      require_itv tp sc a pre
  | OMin (a, b) ->
      (* min(a,b) ∈ v ⇒ a ≥ v.lo and b ≥ v.lo; if the other side lies
         strictly above v, this side must realize the upper bound. *)
      let req = sc.req in
      req.rlo <- fmax (Array.unsafe_get ilos a) vlo;
      req.rhi <- Array.unsafe_get ihis a;
      require tp sc a;
      req.rlo <- fmax (Array.unsafe_get ilos b) vlo;
      req.rhi <- Array.unsafe_get ihis b;
      require tp sc b;
      if Array.unsafe_get ilos b > vhi then begin
        req.rlo <- fmax (Array.unsafe_get ilos a) vlo;
        req.rhi <- fmin (Array.unsafe_get ihis a) vhi;
        require tp sc a
      end;
      if Array.unsafe_get ilos a > vhi then begin
        req.rlo <- fmax (Array.unsafe_get ilos b) vlo;
        req.rhi <- fmin (Array.unsafe_get ihis b) vhi;
        require tp sc b
      end
  | OMax (a, b) ->
      let req = sc.req in
      req.rlo <- Array.unsafe_get ilos a;
      req.rhi <- fmin (Array.unsafe_get ihis a) vhi;
      require tp sc a;
      req.rlo <- Array.unsafe_get ilos b;
      req.rhi <- fmin (Array.unsafe_get ihis b) vhi;
      require tp sc b;
      if Array.unsafe_get ihis b < vlo then begin
        req.rlo <- fmax (Array.unsafe_get ilos a) vlo;
        req.rhi <- fmin (Array.unsafe_get ihis a) vhi;
        require tp sc a
      end;
      if Array.unsafe_get ihis a < vlo then begin
        req.rlo <- fmax (Array.unsafe_get ilos b) vlo;
        req.rhi <- fmin (Array.unsafe_get ihis b) vhi;
        require tp sc b
      end

let hc4_revise tp sc ?(tm = false) ?mask ~target dom =
  forward_intervals tp sc dom;
  (* The TM pass intersects every slot with its concretized range
     before the backward pass sees them, and refutes outright when it
     empties root ∩ target. *)
  let r0 = tp.roots.(0) in
  let tlo = target.I.lo and thi = target.I.hi in
  let meets_target () =
    let l = Array.unsafe_get sc.ilos r0
    and h = Array.unsafe_get sc.ihis r0 in
    l = l && tlo = tlo && fmax l tlo <= fmin h thi
  in
  (* A root already inside the target is entailed on the box: [require]
     stops at a root it does not tighten, so nothing propagates down,
     and the TM pass writes no variable slot.  The pass could then change
     the outcome only by emptying the root, which it cannot do on a box
     where every subterm is defined at every point ([smooth_on]): the
     true values lie in both enclosures.  So skip it; [dom] stays as it
     is. *)
  let entailed =
    let l = Array.unsafe_get sc.ilos r0
    and h = Array.unsafe_get sc.ihis r0 in
    tlo <= l && h <= thi
  in
  if tm && entailed && smooth_on tp sc then true
  else
  let refuted =
    tm
    && T.with_span (fun () ->
           let pre = meets_target () in
           let tightened = tm_tighten tp sc dom in
           let post = meets_target () in
           (* One counter per pass: a pass that empties the root counts
              as a refutation only. *)
           if tightened && post then T.note_tightening ();
           if pre && not post then T.note_refutation ();
           not post)
  in
  if refuted then false
  else begin
  sc.req.rlo <- target.I.lo;
  sc.req.rhi <- target.I.hi;
  match require tp sc tp.roots.(0) with
  | () ->
      (* Explicit loop rather than Array.iter with a capturing closure:
         the closure would be allocated on every revise call. *)
      let vs = tp.var_slots in
      for k = 0 to Array.length vs - 1 do
        let s, i = Array.unsafe_get vs k in
        let keep = match mask with None -> true | Some m -> m.(i) in
        if keep then begin
          (* Only allocate a fresh interval when the bounds moved —
             most variables are untouched by a given constraint. *)
          let l = Array.unsafe_get sc.ilos s
          and h = Array.unsafe_get sc.ihis s in
          let old = dom.(i) in
          if not (old.I.lo = l && old.I.hi = h) then
            dom.(i) <- I.make_unordered l h
        end
      done;
      true
  | exception Infeasible -> false
  end
