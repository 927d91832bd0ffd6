(* Affine arithmetic (see affine.mli for the contract).

   A form is a center, a sorted array of (noise symbol, coefficient)
   pairs, and an error radius.  Soundness under rounding follows the
   same discipline as {!Ia}: every computed bound is widened outward by
   ulp steps, and every float operation whose exact result feeds a
   radius contributes its own one-ulp slack to the error term.  Center
   arithmetic that is awkward to bound by hand (linearization constants,
   midpoint recentering) is done in interval arithmetic and split into a
   representable center plus an error contribution, so no soundness
   argument ever depends on a float operation being exact. *)

module I = Ia

let tm_affine = Telemetry.Span.probe "icp.affine"
let m_refutations = Telemetry.Counter.make ~always:true "affine.refutations"
let m_tightenings = Telemetry.Counter.make ~always:true "affine.tightenings"
let m_condensations = Telemetry.Counter.make ~always:true "affine.condensations"

let note_refutation () =
  Telemetry.Counter.incr m_refutations;
  if Journal.on () then Journal.set_reason "affine-refute"
let note_tightening () = Telemetry.Counter.incr m_tightenings
let with_span f = Telemetry.Span.with_ tm_affine f

(* ---- Enable/disable switch (same shape as Expr.Tape's) ---- *)

let override : bool option Atomic.t = Atomic.make None

let enabled () =
  match Atomic.get override with
  | Some b -> b
  | None -> (
      match Sys.getenv_opt "BIOMC_NO_AFFINE" with
      | Some ("1" | "true" | "yes") -> false
      | _ -> true)

let set_enabled b = Atomic.set override (Some b)
let clear_enabled_override () = Atomic.set override None

(* ---- Noise budget ---- *)

let default_budget = 64

(* BIOMC_AFFINE_BUDGET tunes the default; a [set_budget] call wins over
   the environment.  Malformed or non-positive values fall back to the
   compiled default rather than failing — the budget only trades
   precision for speed, never soundness. *)
let env_budget =
  lazy
    (match Sys.getenv_opt "BIOMC_AFFINE_BUDGET" with
    | None -> default_budget
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some b when b >= 1 -> b
        | _ -> default_budget))

let budget_cell : int option Atomic.t = Atomic.make None

let budget () =
  match Atomic.get budget_cell with
  | Some b -> b
  | None -> Lazy.force env_budget

let set_budget b = Atomic.set budget_cell (Some (Stdlib.max 1 b))

(* ---- Representation ---- *)

type form = {
  c : float;  (* center; finite *)
  idx : int array;  (* strictly increasing noise-symbol ids *)
  coef : float array;  (* matching coefficients; finite, nonzero *)
  err : float;  (* anonymous error radius; finite, >= 0 *)
}

type t =
  | Bot  (* empty: the operand left the operation's domain entirely *)
  | Itv of I.t  (* interval fallback: no correlation information *)
  | Aff of form

(* ---- Rounding helpers ---- *)

(* Inline copies of {!Round.next_up} and {!Round.next_down}, the exact
   round-to-nearest successor and predecessor: a call into [Round] is
   never inlined under [-opaque] and would box its argument and result
   (see round.mli). *)
let[@inline] up x =
  let a = Float.abs x in
  if a >= 0x1p-969 then
    if x = neg_infinity then -.Float.max_float else x +. (0x1.0000000000001p-53 *. a)
  else if a < 0x1p-1021 then if x = -0x1p-1074 then -0.0 else x +. 0x1p-1074
  else ((x *. 0x1p53) +. (0x1.0000000000001p-53 *. (a *. 0x1p53))) *. 0x1p-53

let[@inline] down x =
  let a = Float.abs x in
  if a >= 0x1p-969 then
    if x = infinity then Float.max_float else x -. (0x1.0000000000001p-53 *. a)
  else if a < 0x1p-1021 then x -. 0x1p-1074
  else ((x *. 0x1p53) -. (0x1.0000000000001p-53 *. (a *. 0x1p53))) *. 0x1p-53

(* Upper bound on the distance between a computed float and the exact
   result it rounded from: the gap just above |z| dominates the gap just
   below it everywhere (they only differ at powers of two, where the
   upper gap is the larger), so one successor step suffices. *)
let[@inline] ulp z =
  let az = Float.abs z in
  if az = infinity then infinity else up az -. az

(* Accumulate error radii with upward rounding. *)
let[@inline] eplus e d = up (e +. d)

(* ---- Concretization ---- *)

let radius f =
  let r = ref f.err in
  for i = 0 to Array.length f.coef - 1 do
    r := eplus !r (Float.abs f.coef.(i))
  done;
  !r

let concretize_form f =
  let r = radius f in
  I.make_unordered (down (f.c -. r)) (up (f.c +. r))

let concretize = function
  | Bot -> I.empty
  | Itv v -> v
  | Aff f -> concretize_form f

let is_bot = function Bot -> true | _ -> false
let is_affine = function Aff f -> Array.length f.idx > 0 | _ -> false
let nterms = function Aff f -> Array.length f.idx | _ -> 0

let pp ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Itv v -> I.pp ppf v
  | Aff f ->
      Fmt.pf ppf "%g" f.c;
      Array.iteri (fun k i -> Fmt.pf ppf " %+g·ε%d" f.coef.(k) i) f.idx;
      if f.err > 0.0 then Fmt.pf ppf " ± %g" f.err

(* ---- Normalization ---- *)

(* An interval result, demoting empty to Bot. *)
let mk_itv r = if I.is_empty r then Bot else Itv r

(* Deterministic condensation: rank terms by decreasing |coefficient|
   (ties by increasing symbol id), keep the top [b], fold the rest into
   the error radius.  Dropping a term xᵢ·εᵢ is sound because its value
   set [−|xᵢ|, |xᵢ|] is exactly what the error term gains — only the
   correlation is lost. *)
let condense_form b f =
  let n = Array.length f.idx in
  if n <= b then Aff f
  else begin
    Telemetry.Counter.incr m_condensations;
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        let ai = Float.abs f.coef.(i) and aj = Float.abs f.coef.(j) in
        if ai <> aj then Float.compare aj ai else Int.compare f.idx.(i) f.idx.(j))
      order;
    let e = ref f.err in
    for k = b to n - 1 do
      e := eplus !e (Float.abs f.coef.(order.(k)))
    done;
    let keep = Array.sub order 0 b in
    Array.sort (fun i j -> Int.compare f.idx.(i) f.idx.(j)) keep;
    if not (Float.is_finite !e) then Itv I.entire
    else
      Aff
        { c = f.c;
          idx = Array.map (fun i -> f.idx.(i)) keep;
          coef = Array.map (fun i -> f.coef.(i)) keep;
          err = !e }
  end

(* Build a form from scratch buffers ([n] valid entries), demoting to
   the entire line on any overflow — sound, merely useless — and
   condensing past the noise budget.  Zero coefficients were skipped by
   the callers (their rounding slack is already in [err]). *)
let mk c idx coef n err =
  if not (Float.is_finite c && Float.is_finite err) then Itv I.entire
  else begin
    let fin = ref true in
    for i = 0 to n - 1 do
      if not (Float.is_finite coef.(i)) then fin := false
    done;
    if not !fin then Itv I.entire
    else
      condense_form (budget ())
        { c; idx = Array.sub idx 0 n; coef = Array.sub coef 0 n; err }
  end

let condense ?budget:b x =
  match x with
  | Bot | Itv _ -> x
  | Aff f -> condense_form (match b with Some b -> Stdlib.max 1 b | None -> budget ()) f

(* ---- Constructors ---- *)

let const c =
  if Float.is_finite c then Aff { c; idx = [||]; coef = [||]; err = 0.0 }
  else if c <> c then Bot
  else Itv (I.of_float c)

let of_interval ~sym iv =
  if I.is_empty iv then Bot
  else if not (I.is_bounded iv) then Itv iv
  else
    let c = I.mid iv in
    (* mag of the outward-rounded recentering bounds both |hi − c| and
       |c − lo|, rounding included. *)
    let r = I.mag (I.sub_float iv c) in
    if r = 0.0 then Aff { c; idx = [||]; coef = [||]; err = 0.0 }
    else Aff { c; idx = [| sym |]; coef = [| r |]; err = 0.0 }

(* ---- Exact linear operations ---- *)

let neg = function
  | Bot -> Bot
  | Itv v -> Itv (I.neg v)
  | Aff f ->
      Aff { f with c = -.f.c; coef = Array.map (fun x -> -.x) f.coef }

(* Merged sum z = x + s·y with s = ±1 (exact).  Matching symbols add
   their coefficients (one ulp of slack each); unmatched ones copy
   exactly. *)
let addsub_form s fx fy =
  let nx = Array.length fx.idx and ny = Array.length fy.idx in
  let idx = Array.make (nx + ny) 0 and coef = Array.make (nx + ny) 0.0 in
  let c = fx.c +. (s *. fy.c) in
  let e = ref (eplus (eplus fx.err fy.err) (ulp c)) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < nx || !j < ny do
    let store ix v =
      if v <> 0.0 then begin
        idx.(!k) <- ix;
        coef.(!k) <- v;
        incr k
      end
    in
    if !j >= ny || (!i < nx && fx.idx.(!i) < fy.idx.(!j)) then begin
      store fx.idx.(!i) fx.coef.(!i);
      incr i
    end
    else if !i >= nx || fy.idx.(!j) < fx.idx.(!i) then begin
      store fy.idx.(!j) (s *. fy.coef.(!j));
      incr j
    end
    else begin
      let v = fx.coef.(!i) +. (s *. fy.coef.(!j)) in
      e := eplus !e (ulp v);
      store fx.idx.(!i) v;
      incr i;
      incr j
    end
  done;
  mk c idx coef !k !e

(* z = α·x̂ + K ± δ, for a caller-established claim
   f(x) ∈ α·x + K ± δ on the operand's range (K an interval absorbing
   its own rounding; δ ≥ 0 finite).  Also the spine of the exact cases
   α = ±1, K an interval, δ = 0. *)
let affine_map ~alpha ~konst ~delta fx =
  let ci = I.add konst (I.mul_float (I.of_float fx.c) alpha) in
  if I.is_empty ci || not (I.is_bounded ci) then
    (* Overflow in the center: concretize instead. *)
    mk_itv (I.add konst (I.mul_float (concretize_form fx) alpha))
  else begin
    let c = I.mid ci in
    let slop = I.mag (I.sub_float ci c) in
    let e =
      ref (eplus (up (Float.abs alpha *. fx.err)) (eplus slop delta))
    in
    let n = Array.length fx.idx in
    let idx = Array.make n 0 and coef = Array.make n 0.0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let v = alpha *. fx.coef.(i) in
      e := eplus !e (ulp v);
      if v <> 0.0 then begin
        idx.(!k) <- fx.idx.(i);
        coef.(!k) <- v;
        incr k
      end
    done;
    mk c idx coef !k !e
  end

let add x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Aff fx, Aff fy -> addsub_form 1.0 fx fy
  | Aff f, Itv v | Itv v, Aff f when I.is_bounded v ->
      affine_map ~alpha:1.0 ~konst:v ~delta:0.0 f
  | _ -> mk_itv (I.add (concretize x) (concretize y))

let sub x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Aff fx, Aff fy -> addsub_form (-1.0) fx fy
  | Aff f, Itv v when I.is_bounded v ->
      affine_map ~alpha:1.0 ~konst:(I.neg v) ~delta:0.0 f
  | Itv v, Aff f when I.is_bounded v ->
      affine_map ~alpha:(-1.0) ~konst:v ~delta:0.0 f
  | _ -> mk_itv (I.sub (concretize x) (concretize y))

let scale k x =
  match x with
  | Bot -> Bot
  | _ when k <> k -> Bot
  | Itv v -> mk_itv (I.mul_float v k)
  | Aff f when Float.is_finite k -> affine_map ~alpha:k ~konst:I.zero ~delta:0.0 f
  | Aff f -> mk_itv (I.mul_float (concretize_form f) k)

let add_const a x =
  match x with
  | Bot -> Bot
  | Itv v -> mk_itv (I.add_float v a)
  | Aff f when Float.is_finite a ->
      affine_map ~alpha:1.0 ~konst:(I.of_float a) ~delta:0.0 f
  | Aff f -> mk_itv (I.add_float (concretize_form f) a)

(* ---- Multiplication and squaring ---- *)

(* Upward-rounded total radius Σ|coef| + err. *)
let total_radius f = radius f

(* x·y with x = x₀ + Pₓ ± eₓ, y = y₀ + P_y ± e_y:
     x·y = x₀y₀ + x₀·P_y + y₀·Pₓ + (Pₓ ± eₓ)(P_y ± e_y) ± x₀e_y ± y₀eₓ,
   so the linear terms keep every shared-symbol correlation and the
   error gains |x₀|e_y + |y₀|eₓ + Rₓ·R_y (R the total radius). *)
let mul_form fx fy =
  let nx = Array.length fx.idx and ny = Array.length fy.idx in
  let idx = Array.make (nx + ny) 0 and coef = Array.make (nx + ny) 0.0 in
  let c = fx.c *. fy.c in
  let e = ref (ulp c) in
  e := eplus !e (up (Float.abs fx.c *. fy.err));
  e := eplus !e (up (Float.abs fy.c *. fx.err));
  e := eplus !e (up (total_radius fx *. total_radius fy));
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let store ix v =
    if v <> 0.0 then begin
      idx.(!k) <- ix;
      coef.(!k) <- v;
      incr k
    end
  in
  while !i < nx || !j < ny do
    if !j >= ny || (!i < nx && fx.idx.(!i) < fy.idx.(!j)) then begin
      let v = fy.c *. fx.coef.(!i) in
      e := eplus !e (ulp v);
      store fx.idx.(!i) v;
      incr i
    end
    else if !i >= nx || fy.idx.(!j) < fx.idx.(!i) then begin
      let v = fx.c *. fy.coef.(!j) in
      e := eplus !e (ulp v);
      store fy.idx.(!j) v;
      incr j
    end
    else begin
      let p = fy.c *. fx.coef.(!i) and q = fx.c *. fy.coef.(!j) in
      let v = p +. q in
      e := eplus (eplus !e (ulp p)) (eplus (ulp q) (ulp v));
      store fx.idx.(!i) v;
      incr i;
      incr j
    end
  done;
  mk c idx coef !k !e

let mul x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Aff fx, Aff fy -> mul_form fx fy
  | _ -> mk_itv (I.mul (concretize x) (concretize y))

(* x² = x₀² + 2x₀(Pₓ ± eₓ) + (Pₓ ± eₓ)²; the quadratic part lies in
   [0, R²], so recentering it at R²/2 halves the error the plain product
   formula would pay. *)
let sqr_form fx =
  let rtot = up (total_radius fx) in
  let q = up (rtot *. rtot) in
  let q2 = 0.5 *. q in
  if not (Float.is_finite q2) then mk_itv (I.sqr (concretize_form fx))
  else begin
    let t = 2.0 *. fx.c in
    let c0 = fx.c *. fx.c in
    let c = c0 +. q2 in
    let e = ref (eplus (eplus (ulp c0) (ulp c)) q2) in
    e := eplus !e (up (Float.abs t *. fx.err));
    let n = Array.length fx.idx in
    let idx = Array.make n 0 and coef = Array.make n 0.0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let v = t *. fx.coef.(i) in
      e := eplus !e (ulp v);
      if v <> 0.0 then begin
        idx.(!k) <- fx.idx.(i);
        coef.(!k) <- v;
        incr k
      end
    done;
    mk c idx coef !k !e
  end

let sqr x =
  match x with
  | Bot -> Bot
  | Itv v -> mk_itv (I.sqr v)
  | Aff f -> sqr_form f

(* ---- Linearized elementary functions ---- *)

(* Shared prologue: concretize, evaluate the interval extension (the
   result the fallback returns and the guard compares against), handle
   empties and unbounded ranges. *)
let unary fi x k =
  match x with
  | Bot -> Bot
  | Itv v -> mk_itv (fi v)
  | Aff f ->
      let xr = concretize_form f in
      let fx = fi xr in
      if I.is_empty fx then Bot
      else if not (I.is_bounded xr) then Itv fx
      else k f xr fx

(* Chebyshev-style mean-value linearization of a C¹ [f] on [xr]:
   f(x) ∈ F(m) + F'(xr)·(x − m) for every x ∈ xr.  With the slope
   centered at α = mid F'(xr), the residual slope is bounded by
   mag(F'(xr) − α) and the deviation by mag(xr − m), so their product
   bounds the remainder — second-order in the width of [xr].  Falls back
   to the interval result when the remainder would not beat it (wide
   boxes, e.g. sin over more than a period). *)
let mean_value ~f ~f' x xr fx =
  let d = f' xr in
  if not (I.is_bounded d) then Itv fx
  else
    let alpha = I.mid d in
    let m = I.mid xr in
    let fm = f (I.of_float m) in
    if I.is_empty fm || not (I.is_bounded fm) then Itv fx
    else
      let rd = I.mag (I.sub_float d alpha) in
      let dev = I.mag (I.sub_float xr m) in
      let delta = up (rd *. dev) in
      if not (delta < I.width fx) then Itv fx
      else
        let konst = I.sub fm (I.mul_float (I.of_float m) alpha) in
        affine_map ~alpha ~konst ~delta x

(* Min-range linearization for [f] monotone with monotone derivative
   magnitude on [xr] (exp, log, sqrt, inv away from zero).  The slope
   [alpha] is the derivative at the flat end of the curve, computed by
   the caller with directed rounding so that g = f − α·id is provably
   monotone on [xr]; the range of g is then within the hull of its
   interval-evaluated endpoint values.  Unlike the mean-value form, the
   concretization stays inside F(xr)'s hull — no domain overshoot. *)
let min_range ~f ~alpha x xr fx =
  if not (Float.is_finite alpha) then Itv fx
  else
    let a = I.lo xr and b = I.hi xr in
    let ga = I.sub (f (I.of_float a)) (I.mul_float (I.of_float a) alpha) in
    let gb = I.sub (f (I.of_float b)) (I.mul_float (I.of_float b) alpha) in
    let h = I.hull ga gb in
    if I.is_empty h || not (I.is_bounded h) then Itv fx
    else affine_map ~alpha ~konst:h ~delta:0.0 x

let exp x =
  unary I.exp x (fun f xr fx ->
      (* f' = exp is increasing: clamp the slope below its minimum. *)
      let alpha = I.lo (I.exp (I.of_float (I.lo xr))) in
      min_range ~f:I.exp ~alpha (f : form) xr fx)

let log x =
  unary I.log x (fun f xr fx ->
      if I.lo xr <= 0.0 then Itv fx
      else
        (* f' = 1/x is positive decreasing: its minimum sits at the
           upper endpoint. *)
        let alpha = I.lo (I.inv (I.of_float (I.hi xr))) in
        min_range ~f:I.log ~alpha f xr fx)

let sqrt x =
  unary I.sqrt x (fun f xr fx ->
      (* Restricting to the nonnegative part mirrors I.sqrt; the
         linearization only needs to cover points where the value is
         defined. *)
      let xr = I.inter xr (I.make 0.0 infinity) in
      if I.is_empty xr then Bot
      else if I.hi xr <= 0.0 then mk_itv fx
      else
        (* f' = 1/(2√x) is decreasing: minimum at the upper endpoint. *)
        let alpha =
          I.lo (I.inv (I.mul_float (I.sqrt (I.of_float (I.hi xr))) 2.0))
        in
        min_range ~f:I.sqrt ~alpha f xr fx)

let inv x =
  unary I.inv x (fun f xr fx ->
      if I.lo xr > 0.0 then
        (* f' = −1/x² rises toward zero: its maximum sits at the upper
           endpoint; clamping above it makes g decreasing. *)
        let alpha = I.hi (I.neg (I.inv (I.sqr (I.of_float (I.hi xr))))) in
        min_range ~f:I.inv ~alpha f xr fx
      else if I.hi xr < 0.0 then
        (* Mirror image: the maximum of f' sits at the lower endpoint. *)
        let alpha = I.hi (I.neg (I.inv (I.sqr (I.of_float (I.lo xr))))) in
        min_range ~f:I.inv ~alpha f xr fx
      else Itv fx (* zero-straddling range: no affine enclosure exists *))

let div x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | _ -> ( match inv y with Bot -> Bot | iy -> mul x iy)

let pow_int x k =
  match x with
  | Bot -> Bot
  | Itv v -> mk_itv (I.pow_int v k)
  | Aff f -> (
      match k with
      | 0 -> const 1.0
      | 1 -> x
      | 2 -> sqr_form f
      | _ ->
          unary
            (fun v -> I.pow_int v k)
            x
            (fun _ xr fx ->
              if k < 0 && I.lo xr <= 0.0 && I.hi xr >= 0.0 then Itv fx
              else
                mean_value
                  ~f:(fun v -> I.pow_int v k)
                  ~f':(fun v -> I.mul_float (I.pow_int v (k - 1)) (float_of_int k))
                  f xr fx))

let sin x = unary I.sin x (fun f xr fx -> mean_value ~f:I.sin ~f':I.cos f xr fx)

let cos x =
  unary I.cos x (fun f xr fx ->
      mean_value ~f:I.cos ~f':(fun v -> I.neg (I.sin v)) f xr fx)

let tan x =
  unary I.tan x (fun f xr fx ->
      (* A bounded interval result certifies a single monotone branch
         (the same certificate Expr.Tape.smooth_on uses). *)
      if not (I.is_bounded fx) then Itv fx
      else
        mean_value ~f:I.tan
          ~f':(fun v -> I.add I.one (I.sqr (I.tan v)))
          f xr fx)

let atan x =
  unary I.atan x (fun f xr fx ->
      mean_value ~f:I.atan
        ~f':(fun v -> I.inv (I.add I.one (I.sqr v)))
        f xr fx)

let tanh x =
  unary I.tanh x (fun f xr fx ->
      mean_value ~f:I.tanh
        ~f':(fun v -> I.sub I.one (I.sqr (I.tanh v)))
        f xr fx)

(* ---- Non-smooth operations ---- *)

(* abs is exactly ±id once the range has a definite sign — the affine
   form survives; only a sign-straddling range degrades. *)
let abs x =
  match x with
  | Bot -> Bot
  | Itv v -> mk_itv (I.abs v)
  | Aff f ->
      let xr = concretize_form f in
      if I.lo xr >= 0.0 then x
      else if I.hi xr <= 0.0 then neg x
      else mk_itv (I.abs xr)

(* min/max are exactly one of their operands when the ranges separate;
   otherwise interval fallback. *)
let min_ x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | _ ->
      let xr = concretize x and yr = concretize y in
      if I.hi xr <= I.lo yr then x
      else if I.hi yr <= I.lo xr then y
      else mk_itv (I.min_ xr yr)

let max_ x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | _ ->
      let xr = concretize x and yr = concretize y in
      if I.lo xr >= I.hi yr then x
      else if I.lo yr >= I.hi xr then y
      else mk_itv (I.max_ xr yr)
