(* Degree-2 Taylor models: sparse quadratic polynomial + interval
   remainder over normalized input symbols.  See tm.mli for the
   soundness contract.

   The range bounds, products, sums, linear maps and the smart
   constructor compute on plain floats.  Each interval step there is the
   {!Ia} operation transcribed bound by bound — same formulas, same
   operand order, same outward steps — so every result is bit-identical
   to composing [Ia] calls, without an [Ia.t] record or a boxed float
   per step.  [Ia.t] values remain where a model's remainder is stored
   and where the unary linearizations call the interval kernels. *)

module I = Ia

(* ------------------------------------------------------------------ *)
(* Telemetry                                                          *)
(* ------------------------------------------------------------------ *)

let tm_span = Telemetry.Span.probe "icp.tm"

(* Created always-on so kill-switch ablations report explicit zeros
   rather than missing metrics (same policy as the cache counters). *)
let m_refutations = Telemetry.Counter.make ~always:true "tm.refutations"
let m_tightenings = Telemetry.Counter.make ~always:true "tm.tightenings"
let m_truncations = Telemetry.Counter.make ~always:true "tm.truncations"

let note_refutation () =
  Telemetry.Counter.incr m_refutations;
  Journal.set_reason "tm-refute"

let note_tightening () = Telemetry.Counter.incr m_tightenings
let note_truncation () = Telemetry.Counter.incr m_truncations
let truncations () = Telemetry.Counter.value m_truncations
let with_span f = Telemetry.Span.with_ tm_span f

(* ------------------------------------------------------------------ *)
(* Enable/disable switch                                              *)
(* ------------------------------------------------------------------ *)

let override : bool option Atomic.t = Atomic.make None

let enabled () =
  match Atomic.get override with
  | Some b -> b
  | None -> not (Telemetry.env_switch "BIOMC_NO_TM")

let set_enabled b = Atomic.set override (Some b)
let clear_enabled_override () = Atomic.set override None

(* ------------------------------------------------------------------ *)
(* Monomial budget                                                    *)
(* ------------------------------------------------------------------ *)

let default_budget = 64

(* BIOMC_TM_BUDGET tunes the default; a [set_budget] call wins over the
   environment.  Malformed or non-positive values fall back to the
   compiled default rather than failing — the budget only trades
   precision for speed, never soundness. *)
let env_budget =
  lazy
    (match Sys.getenv_opt "BIOMC_TM_BUDGET" with
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

(* ------------------------------------------------------------------ *)
(* Representation                                                     *)
(* ------------------------------------------------------------------ *)

(* The scalars of a model, in one all-float record so they are stored
   flat: the constant [c], the range [plo, phi] of the polynomial part
   (constant included), NaN until [range] first computes it, and the
   remainder [rlo, rhi], a nonempty bounded interval. *)
type scalars = {
  c : float;
  mutable plo : float;
  mutable phi : float;
  rlo : float;
  rhi : float;
}

(* Monomial families are kept as parallel (key, coefficient) arrays,
   each sorted by key with finite nonzero coefficients.  A linear or
   diagonal monomial is keyed by its symbol, a cross monomial εᵢεⱼ
   (i < j) by [pack i j], whose integer order is the lexicographic
   order on (i, j).  The model denotes { c + Σ lin·ε + Σ diag·ε² +
   Σ cross·εε' + r : ε ∈ [−1,1]ⁿ, r ∈ [rlo, rhi] }.  Arrays are never
   mutated, so models share them freely: empty families share
   [no_ints]/[no_coefs], and a sum or scaling that leaves a family
   unchanged keeps its operand's arrays. *)
type form = {
  sc : scalars;
  lin_idx : int array;
  lin : float array;
  diag_idx : int array;
  diag : float array;
  cross_idx : int array;
  cross : float array;
}

type t = Bot | Itv of I.t | Tm of form

let no_ints : int array = [||]
let no_coefs : float array = [||]

let[@inline] pack i j = (i lsl 31) lor j
let[@inline] key_i k = k lsr 31
let[@inline] key_j k = k land 0x7FFF_FFFF

(* ------------------------------------------------------------------ *)
(* Flat rounding and interval steps                                   *)
(* ------------------------------------------------------------------ *)

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

let[@inline] ulp z =
  let az = Float.abs z in
  if az = infinity then infinity else up az -. az

(* Running upward-rounded slack accumulator. *)
let[@inline] eplus e d = up (e +. d)

let[@inline] finite x = x -. x = 0.0

(* [Float.min]/[Float.max] result for result, as in {!Ia}: no
   [sign_bit] C call unless an operand is NaN. *)
let[@inline] fmin (x : float) (y : float) =
  if x < y then x
  else if y < x then y
  else if x = y then if x = 0.0 then -.(-.x -. y) else x
  else Float.min x y

let[@inline] fmax (x : float) (y : float) =
  if x > y then x
  else if y > x then y
  else if x = y then if x = 0.0 then x +. y else x
  else Float.max x y

(* Bounds of [Ia.mul [al, ah] [bl, bh]] and [Ia.sqr [l, h]] on nonempty
   operands: [Ia.prod]'s 0·∞ = 0 and the order of the four products
   included. *)
let[@inline] prod x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

let[@inline] mul_lo al ah bl bh =
  down (fmin (fmin (prod al bl) (prod al bh)) (fmin (prod ah bl) (prod ah bh)))

let[@inline] mul_hi al ah bl bh =
  up (fmax (fmax (prod al bl) (prod al bh)) (fmax (prod ah bl) (prod ah bh)))

let[@inline] sqr_lo l h =
  let m = if l <= 0.0 && 0.0 <= h then 0.0 else fmin (Float.abs l) (Float.abs h) in
  if m = 0.0 then 0.0 else down (m *. m)

let[@inline] sqr_hi l h =
  let g = fmax (Float.abs l) (Float.abs h) in
  up (g *. g)

(* [mul_lo] and [mul_hi] bit for bit, without multiplying a subnormal
   bound where a product of two other bounds decides the fold.

   The quadratic range of a model with a positive diagonal has the
   subnormal lower bound −2⁻¹⁰⁷³ (or below), the outward step under an
   exact 0, and a negative diagonal gives a subnormal upper bound; each
   product with such a bound costs a microcode assist on common x86
   parts.  A product of a subnormal v with any u is tiny: |v| < 2⁻¹⁰²²,
   so |fl(u·v)| < |u|·2⁻¹⁰²²·(1 + 2⁻⁵²) + 2⁻¹⁰⁷⁴.  When the smallest
   (largest) product of two non-subnormal bounds is negative (positive)
   and beyond that bound for the largest |u| among the four bounds, it
   is the fold's strict minimum (maximum), and [fmin]/[fmax] of non-NaN
   values is the exact minimum (maximum), so the skipped products
   cannot change the result.  The test scales the candidate p up
   instead of the bound down, so it multiplies no subnormal either:
   |p|·2¹⁰²² is exact for a normal p (or overflows to ∞, still above a
   finite right side), and 2·|u| + 1 rounded to nearest is at least
   |u|·(1 + 2⁻⁵²) + 2⁻⁵², the bound scaled up.  An infinite bound makes
   the right side ∞, so the four-product formula runs. *)
let[@inline] subnormal x = x <> 0.0 && Float.abs x < 0x1p-1022

let[@inline] bound_mag al ah bl bh =
  fmax (fmax (Float.abs al) (Float.abs ah)) (fmax (Float.abs bl) (Float.abs bh))

let[@inline] beyond_tiny p al ah bl bh =
  Float.abs p >= 0x1p-1022
  && Float.abs p *. 0x1p1022 > (2.0 *. bound_mag al ah bl bh) +. 1.0

let[@inline] normal_prod_lo x y =
  if subnormal x || subnormal y then infinity else prod x y

let[@inline] normal_prod_hi x y =
  if subnormal x || subnormal y then neg_infinity else prod x y

let[@inline] trunc_mul_lo al ah bl bh =
  if not (subnormal al || subnormal ah || subnormal bl || subnormal bh) then
    mul_lo al ah bl bh
  else begin
    let p =
      fmin
        (fmin (normal_prod_lo al bl) (normal_prod_lo al bh))
        (fmin (normal_prod_lo ah bl) (normal_prod_lo ah bh))
    in
    if p < 0.0 && beyond_tiny p al ah bl bh then down p else mul_lo al ah bl bh
  end

let[@inline] trunc_mul_hi al ah bl bh =
  if not (subnormal al || subnormal ah || subnormal bl || subnormal bh) then
    mul_hi al ah bl bh
  else begin
    let p =
      fmax
        (fmax (normal_prod_hi al bl) (normal_prod_hi al bh))
        (fmax (normal_prod_hi ah bl) (normal_prod_hi ah bh))
    in
    if p > 0.0 && beyond_tiny p al ah bl bh then up p else mul_hi al ah bl bh
  end

(* The bounds of [Ia.mul] of the point v (non-NaN) by [−1, 1] and by
   [0, 1], in either operand order: the ranges of the monomials
   v·εᵢεⱼ, v·εᵢ and v·εᵢ².  [Ia.prod] maps every product with v = ±0
   to +0, and the outward step sends ±0 to the same neighbour, so
   [−|v|, |v|] and [min(v, 0), max(v, 0)] reproduce its four-product
   bounds exactly. *)
let[@inline] sym_lo v = down (-.Float.abs v)
let[@inline] sym_hi v = up (Float.abs v)
let[@inline] unit_lo v = down (if v < 0.0 then v else 0.0)
let[@inline] unit_hi v = up (if v > 0.0 then v else 0.0)

(* [Ia.mid] of a bounded nonempty interval. *)
let[@inline] mid_bounded l h =
  let m = 0.5 *. (l +. h) in
  if finite m then fmax l (fmin h m) else (0.5 *. l) +. (0.5 *. h)

(* A pair of bounds stored flat: where the range bounds write their
   result, and the slack accumulator of the family merges. *)
type cell = { mutable lo : float; mutable hi : float }

(* ------------------------------------------------------------------ *)
(* Range bounds                                                       *)
(* ------------------------------------------------------------------ *)

(* Radius s of the linear monomials' range [−s, s]: Σ|lᵢ| upward. *)
let[@inline] lin_radius f =
  let s = ref 0.0 in
  for k = 0 to Array.length f.lin - 1 do
    s := eplus !s (Float.abs (Array.unsafe_get f.lin k))
  done;
  !s

(* Range of the quadratic monomials by interval evaluation,
   diag·[0,1] + cross·[−1,1], written to [r]. *)
let quad_range r f =
  let lo = ref 0.0 and hi = ref 0.0 in
  for k = 0 to Array.length f.diag - 1 do
    let v = Array.unsafe_get f.diag k in
    lo := down (!lo +. unit_lo v);
    hi := up (!hi +. unit_hi v)
  done;
  for k = 0 to Array.length f.cross - 1 do
    let v = Array.unsafe_get f.cross k in
    lo := down (!lo +. sym_lo v);
    hi := up (!hi +. sym_hi v)
  done;
  r.lo <- !lo;
  r.hi <- !hi

(* Range of the polynomial part over the given families, with the
   constant [s.c], written to [s.plo], [s.phi].  Per variable the
   univariate slice g(t) = q·t² + l·t on [−1,1] is bounded by its
   degree-2 Bernstein coefficients — over [−1,1] these are
   b₀ = g(−1) = q − l, b₁ = −q, b₂ = g(1) = q + l, and the control
   polygon [min bᵢ, max bᵢ] encloses the curve — intersected with the
   interval evaluation l·[−1,1] + q·[0,1].  Each bound is sound on its
   own (Bernstein wins when l, q interact, e.g. (t−1)² near its root;
   the interval form wins when the parabola's vertex lies outside
   [−1,1]), so the intersection is sound, and since both enclose the
   slice's range it is never empty.  Coefficient arithmetic is
   outward-rounded.  Cross monomials, which couple two variables, are
   bounded by magnitude.  No bound is NaN: the constant and the
   coefficients are finite, every term added to the lower bound is at
   most 0 and every term added to the upper one at least 0, so the
   lower bound can reach −∞ but never +∞, and the upper one the
   reverse.  Only [range] calls this. *)
let poly_range s lin_idx lin diag_idx diag cross =
  let lo = ref s.c and hi = ref s.c in
  let nl = Array.length lin_idx and nd = Array.length diag_idx in
  let i = ref 0 and j = ref 0 in
  while !i < nl || !j < nd do
    let ki = if !i < nl then Array.unsafe_get lin_idx !i else max_int
    and kj = if !j < nd then Array.unsafe_get diag_idx !j else max_int in
    let l = if ki <= kj then Array.unsafe_get lin !i else 0.0
    and q = if kj <= ki then Array.unsafe_get diag !j else 0.0 in
    if ki <= kj then incr i;
    if kj <= ki then incr j;
    (* Hull of the control points q − l, −q and q + l. *)
    let b_lo = fmin (fmin (down (q -. l)) (-.q)) (down (q +. l))
    and b_hi = fmax (fmax (up (q -. l)) (-.q)) (up (q +. l)) in
    let i_lo = down (sym_lo l +. unit_lo q) and i_hi = up (sym_hi l +. unit_hi q) in
    lo := down (!lo +. fmax b_lo i_lo);
    hi := up (!hi +. fmin b_hi i_hi)
  done;
  for k = 0 to Array.length cross - 1 do
    let v = Array.unsafe_get cross k in
    lo := down (!lo +. sym_lo v);
    hi := up (!hi +. sym_hi v)
  done;
  s.phi <- !hi;
  s.plo <- !lo

(* The model's polynomial range, computed on its first read:
   [concretize_form], [product_rem] and [sqr_form] read it through here.
   A model's families never change, so this is the range of the
   families it was built with, whenever it runs; it writes two flat
   fields of [f.sc] and allocates nothing.  Since [poly_range] gives no
   NaN, a NaN [plo] marks a range not yet computed. *)
let[@inline] range f =
  let s = f.sc in
  if s.plo <> s.plo then poly_range s f.lin_idx f.lin f.diag_idx f.diag f.cross

let concretize_form f =
  range f;
  let s = f.sc in
  I.make_unordered (down (s.plo +. s.rlo)) (up (s.phi +. s.rhi))

let concretize = function
  | Bot -> I.empty
  | Itv v -> v
  | Tm f -> concretize_form f

let share m =
  (match m with Tm f -> range f | Bot | Itv _ -> ());
  m

let is_bot = function Bot -> true | _ -> false

let nterms = function
  | Tm f ->
      Array.length f.lin + Array.length f.diag + Array.length f.cross
  | _ -> 0

type poly = {
  constant : float;
  linear : (int * float) list;
  square : (int * float) list;
  cross : (int * int * float) list;
  remainder : I.t;
}

let to_poly = function
  | Bot -> None
  | Itv v ->
      Some { constant = 0.0; linear = []; square = []; cross = []; remainder = v }
  | Tm f ->
      let family idx coef =
        List.combine (Array.to_list idx) (Array.to_list coef)
      in
      Some
        {
          constant = f.sc.c;
          linear = family f.lin_idx f.lin;
          square = family f.diag_idx f.diag;
          cross =
            List.map
              (fun (k, v) -> (key_i k, key_j k, v))
              (family f.cross_idx f.cross);
          remainder = I.make f.sc.rlo f.sc.rhi;
        }

let pp ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Itv v -> I.pp ppf v
  | Tm f ->
      Fmt.pf ppf "@[<h>%g" f.sc.c;
      Array.iteri
        (fun k i -> Fmt.pf ppf " %+g·e%d" f.lin.(k) i)
        f.lin_idx;
      Array.iteri
        (fun k i -> Fmt.pf ppf " %+g·e%d²" f.diag.(k) i)
        f.diag_idx;
      Array.iteri
        (fun k key ->
          Fmt.pf ppf " %+g·e%de%d" f.cross.(k) (key_i key) (key_j key))
        f.cross_idx;
      Fmt.pf ppf " + %a@]" I.pp (I.make f.sc.rlo f.sc.rhi)

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let mk_itv v = if I.is_empty v then Bot else Itv v

(* The model over final families with the remainder ordered from
   [rl, rh] (as [Ia.make_unordered] orders it).  Its polynomial range is
   left to [range]: many models are only operands of sums and scalings,
   which read it only on their interval fallbacks. *)
let[@inline] build ~c ~lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rl ~rh =
  Tm
    {
      sc =
        {
          c;
          plo = nan;
          phi = nan;
          rlo = (if rl <= rh then rl else rh);
          rhi = (if rl <= rh then rh else rl);
        };
      lin_idx;
      lin;
      diag_idx;
      diag;
      cross_idx;
      cross;
    }

(* Deterministic condensation of one monomial family past the budget:
   rank by |coefficient| descending (position ascending on ties), keep
   the top [b], and add the rest — [−|v|, |v|] each, or v·[0,1] for
   the [diag] family — into [e]. *)
let condense_family b ~diag idx coef e =
  let n = Array.length coef in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a bk ->
      let ca = Float.abs coef.(a) and cb = Float.abs coef.(bk) in
      if ca > cb then -1 else if ca < cb then 1 else Int.compare a bk)
    order;
  let keep = Array.sub order 0 b in
  Array.sort Int.compare keep;
  for k = b to n - 1 do
    let v = coef.(order.(k)) in
    if diag then begin
      e.lo <- down (e.lo +. unit_lo v);
      e.hi <- up (e.hi +. unit_hi v)
    end
    else begin
      let a = Float.abs v in
      e.lo <- down (e.lo +. -.a);
      e.hi <- up (e.hi +. a)
    end
  done;
  (Array.map (fun k -> idx.(k)) keep, Array.map (fun k -> coef.(k)) keep)

(* Drop zero coefficients from a family (products and scalings create
   exact zeros that would otherwise accumulate as dead monomials). *)
let compact idx coef =
  let n = Array.length coef in
  let m = ref 0 in
  for k = 0 to n - 1 do
    if coef.(k) <> 0.0 then incr m
  done;
  if !m = n then (idx, coef)
  else if !m = 0 then (no_ints, no_coefs)
  else begin
    let idx' = Array.make !m idx.(0) and coef' = Array.make !m 0.0 in
    let j = ref 0 in
    for k = 0 to n - 1 do
      if coef.(k) <> 0.0 then begin
        idx'.(!j) <- idx.(k);
        coef'.(!j) <- coef.(k);
        incr j
      end
    done;
    (idx', coef')
  end

let finite_arr a =
  let ok = ref true in
  for k = 0 to Array.length a - 1 do
    if not (finite (Array.unsafe_get a k)) then ok := false
  done;
  !ok

(* The slack [mk] adds to the remainder when no family condensed:
   e₁ + (e₂ + e₃) with every eₖ = [0, 0], each sum still rounded
   outward. *)
let uncondensed_lo = down (0.0 +. down (0.0 +. 0.0))
let uncondensed_hi = up (0.0 +. up (0.0 +. 0.0))

(* [mk]'s path when some family exceeds the budget [b]: each family past
   it condenses, and the condensed parts enter the remainder as
   rem + (e₁ + (e₂ + e₃)), accumulated in [r]. *)
let condensed r b ~c ~lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rlo ~rhi =
  r.lo <- 0.0;
  r.hi <- 0.0;
  let lin_idx, lin =
    if Array.length lin > b then condense_family b ~diag:false lin_idx lin r
    else (lin_idx, lin)
  in
  let e1l = r.lo and e1h = r.hi in
  r.lo <- 0.0;
  r.hi <- 0.0;
  let diag_idx, diag =
    if Array.length diag > b then condense_family b ~diag:true diag_idx diag r
    else (diag_idx, diag)
  in
  let e2l = r.lo and e2h = r.hi in
  r.lo <- 0.0;
  r.hi <- 0.0;
  let cross_idx, cross =
    if Array.length cross > b then condense_family b ~diag:false cross_idx cross r
    else (cross_idx, cross)
  in
  let sl = down (e1l +. down (e2l +. r.lo)) and sh = up (e1h +. up (e2h +. r.hi)) in
  let rl = down (rlo +. sl) and rh = up (rhi +. sh) in
  if finite rl && finite rh then
    build ~c ~lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rl ~rh
  else Itv I.entire

(* Smart constructor over the remainder [rlo, rhi]: folds accumulated
   rounding slack into the remainder, demotes non-finite results to a
   sound interval fallback, drops zero coefficients and condenses each
   family to the budget.  [r] is a scratch cell whose contents the
   caller no longer needs ([~rlo:r.lo] and the like are read before
   [mk] overwrites it). *)
let[@inline] mk r ~c ~lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rlo ~rhi
    ~slack =
  let rlo = if slack > 0.0 then down (rlo +. -.slack) else rlo
  and rhi = if slack > 0.0 then up (rhi +. slack) else rhi in
  if
    not
      (finite c && finite rlo && finite rhi && finite_arr lin
     && finite_arr diag && finite_arr cross)
  then Itv I.entire
  else begin
    let lin_idx, lin = compact lin_idx lin in
    let diag_idx, diag = compact diag_idx diag in
    let cross_idx, cross = compact cross_idx cross in
    let b = budget () in
    if Array.length lin > b || Array.length diag > b || Array.length cross > b
    then
      condensed r b ~c ~lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rlo
        ~rhi
    else begin
      let rl = down (rlo +. uncondensed_lo) and rh = up (rhi +. uncondensed_hi) in
      if finite rl && finite rh then
        build ~c ~lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rl ~rh
      else Itv I.entire
    end
  end

let const c =
  if c <> c then Bot
  else if Float.is_finite c then
    Tm
      {
        sc = { c; plo = c; phi = c; rlo = 0.0; rhi = 0.0 };
        lin_idx = no_ints;
        lin = no_coefs;
        diag_idx = no_ints;
        diag = no_coefs;
        cross_idx = no_ints;
        cross = no_coefs;
      }
  else Itv (I.of_float c)

let of_interval ~sym iv =
  if I.is_empty iv then Bot
  else if not (I.is_bounded iv) then Itv iv
  else begin
    let c = I.mid iv in
    let rad = I.mag (I.sub_float iv c) in
    if rad = 0.0 then const c
    else
      build ~c ~lin_idx:[| sym |] ~lin:[| rad |]
        ~diag_idx:no_ints ~diag:no_coefs ~cross_idx:no_ints ~cross:no_coefs
        ~rl:0.0 ~rh:0.0
  end

(* ------------------------------------------------------------------ *)
(* Linear combination machinery                                       *)
(* ------------------------------------------------------------------ *)

(* Merged sum ax·x + ay·y over one sorted coefficient family.  Matching
   keys add, and the ulp of each such sum accumulates upward in
   [e.lo]; zero results are dropped.  An empty side at unit scale on
   the other leaves the family unchanged (1·v = v, and coefficients are
   never zero), so its arrays are shared; otherwise a key-count pass
   sizes the output, which needs trimming only when a sum cancels or a
   product underflows to zero. *)
let merge ax xi xc ay yi yc e =
  let nx = Array.length xi and ny = Array.length yi in
  if ny = 0 && ax = 1.0 then (xi, xc)
  else if nx = 0 && ay = 1.0 then (yi, yc)
  else if nx + ny = 0 then (no_ints, no_coefs)
  else begin
    let i = ref 0 and j = ref 0 and m = ref 0 in
    while !i < nx && !j < ny do
      let ki = Array.unsafe_get xi !i and kj = Array.unsafe_get yi !j in
      if ki <= kj then incr i;
      if kj <= ki then incr j;
      incr m
    done;
    let m = !m + (nx - !i) + (ny - !j) in
    let idx = Array.make m 0 and coef = Array.make m 0.0 in
    i := 0;
    j := 0;
    let n = ref 0 in
    while !i < nx || !j < ny do
      let ki = if !i < nx then Array.unsafe_get xi !i else max_int
      and kj = if !j < ny then Array.unsafe_get yi !j else max_int in
      let v =
        if ki < kj then ax *. Array.unsafe_get xc !i
        else if kj < ki then ay *. Array.unsafe_get yc !j
        else begin
          let v = (ax *. Array.unsafe_get xc !i) +. (ay *. Array.unsafe_get yc !j) in
          e.lo <- eplus e.lo (ulp v);
          v
        end
      in
      if v <> 0.0 then begin
        Array.unsafe_set idx !n (if ki <= kj then ki else kj);
        Array.unsafe_set coef !n v;
        incr n
      end;
      if ki <= kj then incr i;
      if kj <= ki then incr j
    done;
    if !n = m then (idx, coef)
    else if !n = 0 then (no_ints, no_coefs)
    else (Array.sub idx 0 !n, Array.sub coef 0 !n)
  end

(* x ± y: coefficient sums carry their ulps (scaling by sign = ±1 is
   exact); each family's merge slack is folded in separately. *)
let addsub_form sign fx fy =
  let c = fx.sc.c +. (sign *. fy.sc.c) in
  let e = { lo = 0.0; hi = 0.0 } in
  let lin_idx, lin = merge 1.0 fx.lin_idx fx.lin sign fy.lin_idx fy.lin e in
  let e1 = e.lo in
  e.lo <- 0.0;
  let diag_idx, diag = merge 1.0 fx.diag_idx fx.diag sign fy.diag_idx fy.diag e in
  let e2 = e.lo in
  e.lo <- 0.0;
  let cross_idx, cross =
    merge 1.0 fx.cross_idx fx.cross sign fy.cross_idx fy.cross e
  in
  let slack = eplus (eplus (eplus (ulp c) e1) e2) e.lo in
  let rx = fx.sc and ry = fy.sc in
  let rlo = down (rx.rlo +. if sign > 0.0 then ry.rlo else -.ry.rhi)
  and rhi = up (rx.rhi +. if sign > 0.0 then ry.rhi else -.ry.rlo) in
  mk e ~c ~lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rlo ~rhi ~slack

(* alpha·v for every coefficient, each product's ulp added to [e.lo].
   At alpha = 1 every product is v itself, so the family is kept. *)
let scale_family alpha coef e =
  let n = Array.length coef in
  if n = 0 then no_coefs
  else if alpha = 1.0 then begin
    for k = 0 to n - 1 do
      e.lo <- eplus e.lo (ulp (Array.unsafe_get coef k))
    done;
    coef
  end
  else begin
    let out = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let r = alpha *. Array.unsafe_get coef k in
      e.lo <- eplus e.lo (ulp r);
      Array.unsafe_set out k r
    done;
    out
  end

(* Sound enclosure of konst + alpha·x ± delta (alpha, delta floats;
   konst an interval): the workhorse behind scaling and every unary
   linearization.  Coefficients scale in float with per-term ulp slack;
   the centre is recentred through interval arithmetic. *)
let lin_map ~alpha ~konst ~delta fx =
  let kl = konst.I.lo and kh = konst.I.hi in
  let c0 = fx.sc.c in
  let cl = down (kl +. mul_lo c0 c0 alpha alpha)
  and ch = up (kh +. mul_hi c0 c0 alpha alpha) in
  if kl <> kl || kh <> kh || not (finite cl && finite ch) then
    mk_itv (I.add konst (I.mul_float (concretize_form fx) alpha))
  else begin
    let c = mid_bounded cl ch in
    let slop = fmax (Float.abs (down (cl -. c))) (Float.abs (up (ch -. c))) in
    let e = { lo = eplus slop delta; hi = 0.0 } in
    let lin = scale_family alpha fx.lin e in
    let diag = scale_family alpha fx.diag e in
    let cross = scale_family alpha fx.cross e in
    let rx = fx.sc in
    mk e ~c ~lin_idx:fx.lin_idx ~lin ~diag_idx:fx.diag_idx ~diag
      ~cross_idx:fx.cross_idx ~cross
      ~rlo:(mul_lo rx.rlo rx.rhi alpha alpha)
      ~rhi:(mul_hi rx.rlo rx.rhi alpha alpha)
      ~slack:e.lo
  end

let neg = function
  | Bot -> Bot
  | Itv v -> Itv (I.neg v)
  | Tm f -> lin_map ~alpha:(-1.0) ~konst:I.zero ~delta:0.0 f

let scale k = function
  | Bot -> Bot
  | _ when k <> k -> Bot
  | Itv v -> mk_itv (I.mul_float v k)
  | Tm f ->
      if Float.is_finite k then lin_map ~alpha:k ~konst:I.zero ~delta:0.0 f
      else mk_itv (I.mul_float (concretize_form f) k)

let add_const k = function
  | Bot -> Bot
  | _ when k <> k -> Bot
  | Itv v -> mk_itv (I.add_float v k)
  | Tm f ->
      if Float.is_finite k then
        lin_map ~alpha:1.0 ~konst:(I.of_float k) ~delta:0.0 f
      else mk_itv (I.add_float (concretize_form f) k)

let add x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Tm fx, Tm fy -> addsub_form 1.0 fx fy
  | Tm f, Itv v | Itv v, Tm f when I.is_bounded v ->
      lin_map ~alpha:1.0 ~konst:v ~delta:0.0 f
  | _ -> mk_itv (I.add (concretize x) (concretize y))

let sub x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Tm fx, Tm fy -> addsub_form (-1.0) fx fy
  | Tm f, Itv v when I.is_bounded v ->
      lin_map ~alpha:1.0 ~konst:(I.neg v) ~delta:0.0 f
  | Itv v, Tm f when I.is_bounded v ->
      lin_map ~alpha:(-1.0) ~konst:v ~delta:0.0 f
  | _ -> mk_itv (I.sub (concretize x) (concretize y))

(* ------------------------------------------------------------------ *)
(* Products                                                           *)
(* ------------------------------------------------------------------ *)

(* Per-domain accumulator for the degree-2 part of a product: a dense
   grid over symbol pairs, cell i·dim + j for i ≤ j.  A cell is live
   only while its stamp equals the current generation, so starting a
   product just bumps [gen]; [keys] lists the live cells' [pack i j]
   keys in insertion order.  [dim] grows to the largest symbol seen
   plus one — at most the number of inputs of the tapes evaluated on
   the domain — and the grid keeps dim² cells.  [r] is the product's
   scratch cell. *)
type quad = {
  mutable dim : int;
  mutable vals : float array;
  mutable stamps : int array;
  mutable gen : int;
  mutable keys : int array;
  mutable nkeys : int;
  r : cell;
}

let quad_key =
  Domain.DLS.new_key (fun () ->
      { dim = 0; vals = [||]; stamps = [||]; gen = 0; keys = [||]; nkeys = 0;
        r = { lo = 0.0; hi = 0.0 } })

(* Largest symbol of a model, -1 for a constant. *)
let max_sym f =
  let m = ref (-1) in
  let nl = Array.length f.lin_idx and nd = Array.length f.diag_idx in
  if nl > 0 then m := f.lin_idx.(nl - 1);
  if nd > 0 then m := Int.max !m f.diag_idx.(nd - 1);
  for k = 0 to Array.length f.cross_idx - 1 do
    m := Int.max !m (key_j f.cross_idx.(k))
  done;
  !m

(* The accumulator, emptied, for symbols below [n]. *)
let quad_begin n =
  let q = Domain.DLS.get quad_key in
  if n > q.dim then begin
    q.dim <- n;
    q.vals <- Array.make (n * n) 0.0;
    q.stamps <- Array.make (n * n) 0;
    q.keys <- Array.make (n * n) 0
  end;
  q.gen <- q.gen + 1;
  q.nkeys <- 0;
  q

(* Add v to the εᵢεⱼ coefficient and return the running slack, grown by
   the ulp of the sum when the cell was already live.  A zero v adds
   nothing, and creates no cell. *)
let[@inline] quad_add q slack i j v =
  if v <> 0.0 then begin
    let a = if i <= j then i else j and b = if i <= j then j else i in
    let cell = (a * q.dim) + b in
    if Array.unsafe_get q.stamps cell = q.gen then begin
      let s = Array.unsafe_get q.vals cell +. v in
      Array.unsafe_set q.vals cell s;
      eplus slack (ulp s)
    end
    else begin
      Array.unsafe_set q.stamps cell q.gen;
      Array.unsafe_set q.vals cell v;
      Array.unsafe_set q.keys q.nkeys (pack a b);
      q.nkeys <- q.nkeys + 1;
      slack
    end
  end
  else slack

(* The live nonzero coefficients in key order, split into the diagonal
   and cross families.  The live keys are distinct and few, and arrive
   in a few ascending runs, so they are insertion-sorted in place. *)
let quad_families q =
  let keys = q.keys and n = q.nkeys in
  for a = 1 to n - 1 do
    let k = Array.unsafe_get keys a in
    let b = ref (a - 1) in
    while !b >= 0 && Array.unsafe_get keys !b > k do
      Array.unsafe_set keys (!b + 1) (Array.unsafe_get keys !b);
      decr b
    done;
    Array.unsafe_set keys (!b + 1) k
  done;
  let nd = ref 0 and nc = ref 0 in
  for a = 0 to n - 1 do
    let k = Array.unsafe_get keys a in
    let i = key_i k and j = key_j k in
    if q.vals.((i * q.dim) + j) <> 0.0 then if i = j then incr nd else incr nc
  done;
  let diag_idx = if !nd = 0 then no_ints else Array.make !nd 0
  and diag = if !nd = 0 then no_coefs else Array.make !nd 0.0
  and cross_idx = if !nc = 0 then no_ints else Array.make !nc 0
  and cross = if !nc = 0 then no_coefs else Array.make !nc 0.0 in
  nd := 0;
  nc := 0;
  for a = 0 to n - 1 do
    let k = Array.unsafe_get keys a in
    let i = key_i k and j = key_j k in
    let v = q.vals.((i * q.dim) + j) in
    if v <> 0.0 then
      if i = j then begin
        diag_idx.(!nd) <- i;
        diag.(!nd) <- v;
        incr nd
      end
      else begin
        cross_idx.(!nc) <- k;
        cross.(!nc) <- v;
        incr nc
      end
  done;
  (diag_idx, diag, cross_idx, cross)

let is_linear_form f =
  Array.length f.diag_idx = 0 && Array.length f.cross_idx = 0

(* Whether a model has no monomials: its constant and remainder only. *)
let monomial_free f = Array.length f.lin_idx = 0 && is_linear_form f

(* Remainder of x·y: Aₓ·rem_y + A_y·remₓ + remₓ·rem_y + the truncated
   part [fl, fh], with A the stored polynomial range. *)
let product_rem r fx fy fl fh =
  range fx;
  range fy;
  let x = fx.sc and y = fy.sc in
  let axl = x.plo and axh = x.phi and ayl = y.plo and ayh = y.phi in
  let xl = x.rlo and xh = x.rhi and yl = y.rlo and yh = y.rhi in
  r.lo <-
    down
      (down
         (down (mul_lo axl axh yl yh +. mul_lo ayl ayh xl xh)
         +. mul_lo xl xh yl yh)
      +. fl);
  r.hi <-
    up
      (up
         (up (mul_hi axl axh yl yh +. mul_hi ayl ayh xl xh)
         +. mul_hi xl xh yl yh)
      +. fh)

(* The truncated part of a product with a monomial-free operand.  That
   operand's linear radius and quadratic range are +0, so each of the
   three products in the general formula has a zero factor, and
   [prod] makes every one of them +0 whatever the other operand. *)
let free_trunc_lo =
  let z = mul_lo 0.0 0.0 0.0 0.0 in
  down (down (z +. z) +. z)

let free_trunc_hi =
  let z = mul_hi 0.0 0.0 0.0 0.0 in
  up (up (z +. z) +. z)

(* The truncated part 2·([−s, s]·Q) + Q² of a square whose operand has
   no quadratic monomials.  Q's range is then [+0, +0], so every product
   in [−s, s]·Q has a zero factor and [prod] makes it +0 whatever s:
   [sqr_form]'s general formula run once.  Its outward steps leave
   subnormal bounds, and doubling them per call costs a microcode assist
   per multiplication on common x86 parts. *)
let linear_sqr_truncation =
  let ml = mul_lo 0.0 0.0 0.0 0.0 and mh = mul_hi 0.0 0.0 0.0 0.0 in
  I.make_unordered
    (down (mul_lo ml mh 2.0 2.0 +. sqr_lo 0.0 0.0))
    (up (mul_hi ml mh 2.0 2.0 +. sqr_hi 0.0 0.0))

(* alpha·coef over one family, zero products dropped, each product's
   ulp added to [e.lo] in order.  At alpha = 1 the family is kept. *)
let scale_kept alpha idx coef e =
  let n = Array.length coef in
  if n = 0 then (idx, coef)
  else if alpha = 1.0 then begin
    for k = 0 to n - 1 do
      e.lo <- eplus e.lo (ulp (Array.unsafe_get coef k))
    done;
    (idx, coef)
  end
  else begin
    let out = Array.make n 0.0 in
    let zeros = ref false in
    for k = 0 to n - 1 do
      let v = alpha *. Array.unsafe_get coef k in
      e.lo <- eplus e.lo (ulp v);
      if v = 0.0 then zeros := true;
      Array.unsafe_set out k v
    done;
    if !zeros then compact idx out else (idx, out)
  end

(* x·y where one operand is monomial-free, with constant a, and [fm] is
   the other: [mul_form] with its empty loops left out, bit for bit.
   Only a·Lₘ and a·Qₘ survive, every key lands in a fresh accumulator
   cell (so no sum adds an ulp), and the products' ulps join the slack
   in [mul_form]'s order — c, the linear products, the empty merge's
   zero slack (still one upward step), then the diagonal and cross
   products.  The remainder formula is [mul_form]'s. *)
let scale_form fx fy =
  let free_y = monomial_free fy in
  let fm = if free_y then fx else fy
  and a = if free_y then fy.sc.c else fx.sc.c in
  let r = (Domain.DLS.get quad_key).r in
  let c = fx.sc.c *. fy.sc.c in
  r.lo <- eplus 0.0 (ulp c);
  let lin_idx, lin = scale_kept a fm.lin_idx fm.lin r in
  r.lo <- eplus r.lo 0.0;
  let diag_idx, diag = scale_kept a fm.diag_idx fm.diag r in
  let cross_idx, cross = scale_kept a fm.cross_idx fm.cross r in
  let slack = r.lo in
  product_rem r fx fy free_trunc_lo free_trunc_hi;
  mk r ~c ~lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rlo:r.lo ~rhi:r.hi
    ~slack

(* x·y with x = cₓ + Lₓ + Qₓ + remₓ (L linear, Q quadratic monomials):
   keep cₓc_y, cₓL_y + c_yLₓ, cₓQ_y + c_yQₓ + Lₓ⊗L_y exactly (degree
   ≤ 2); truncate LQ and QQ products — degree 3 and 4 — into the
   remainder via their ranges; remainders couple through the full
   polynomial ranges.  The ulps of the scaled linear parts accumulate
   c_x·L_y first, then c_y·Lₓ, then their merge.  [mul] sends a
   product with a monomial-free operand to [scale_form] instead. *)
let mul_form fx fy =
  let q = quad_begin (1 + Int.max (max_sym fx) (max_sym fy)) in
  let cx = fx.sc.c and cy = fy.sc.c in
  let slack = ref 0.0 in
  let c = cx *. cy in
  slack := eplus !slack (ulp c);
  for k = 0 to Array.length fy.lin - 1 do
    slack := eplus !slack (ulp (cx *. fy.lin.(k)))
  done;
  for k = 0 to Array.length fx.lin - 1 do
    slack := eplus !slack (ulp (cy *. fx.lin.(k)))
  done;
  let r = q.r in
  r.lo <- 0.0;
  let lin_idx, lin = merge cy fx.lin_idx fx.lin cx fy.lin_idx fy.lin r in
  slack := eplus !slack r.lo;
  for k = 0 to Array.length fx.diag - 1 do
    let v = cy *. fx.diag.(k) in
    slack := eplus !slack (ulp v);
    slack := quad_add q !slack fx.diag_idx.(k) fx.diag_idx.(k) v
  done;
  for k = 0 to Array.length fx.cross - 1 do
    let v = cy *. fx.cross.(k) in
    slack := eplus !slack (ulp v);
    let key = fx.cross_idx.(k) in
    slack := quad_add q !slack (key_i key) (key_j key) v
  done;
  for k = 0 to Array.length fy.diag - 1 do
    let v = cx *. fy.diag.(k) in
    slack := eplus !slack (ulp v);
    slack := quad_add q !slack fy.diag_idx.(k) fy.diag_idx.(k) v
  done;
  for k = 0 to Array.length fy.cross - 1 do
    let v = cx *. fy.cross.(k) in
    slack := eplus !slack (ulp v);
    let key = fy.cross_idx.(k) in
    slack := quad_add q !slack (key_i key) (key_j key) v
  done;
  for a = 0 to Array.length fx.lin - 1 do
    for b = 0 to Array.length fy.lin - 1 do
      let v = fx.lin.(a) *. fy.lin.(b) in
      slack := eplus !slack (ulp v);
      slack := quad_add q !slack fx.lin_idx.(a) fy.lin_idx.(b) v
    done
  done;
  let diag_idx, diag, cross_idx, cross = quad_families q in
  (* Truncated part: [−sₓ, sₓ]·Q_y + [−s_y, s_y]·Qₓ + Qₓ·Q_y.  When
     neither operand is monomial-free, it has degree-3/4 monomials
     exactly when one of them has a quadratic part. *)
  if not (is_linear_form fx && is_linear_form fy) then note_truncation ();
  let sx = lin_radius fx and sy = lin_radius fy in
  quad_range r fx;
  let qxl = r.lo and qxh = r.hi in
  quad_range r fy;
  let qyl = r.lo and qyh = r.hi in
  let fl =
    down
      (down
         (trunc_mul_lo (-.sx) sx qyl qyh +. trunc_mul_lo (-.sy) sy qxl qxh)
      +. trunc_mul_lo qxl qxh qyl qyh)
  and fh =
    up
      (up (trunc_mul_hi (-.sx) sx qyl qyh +. trunc_mul_hi (-.sy) sy qxl qxh)
      +. trunc_mul_hi qxl qxh qyl qyh)
  in
  product_rem r fx fy fl fh;
  mk r ~c ~lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rlo:r.lo ~rhi:r.hi
    ~slack:!slack

(* x² = c² + 2cL + (2cQ + L⊗L) + [2LQ + Q²] + remainder coupling, with
   the degree-3/4 bracket truncated by range.  The remainder coupling
   2·A·rem + rem² and the Q² range use one-sided forms (Ia.sqr) rather
   than the generic product, which is what makes sqr worth keeping
   separate from mul. *)
let sqr_form f =
  let q = quad_begin (1 + max_sym f) in
  let slack = ref 0.0 in
  let c = f.sc.c *. f.sc.c in
  slack := eplus !slack (ulp c);
  let two_c = 2.0 *. f.sc.c in
  slack := eplus !slack (ulp two_c);
  let nl = Array.length f.lin in
  let lin = if nl = 0 then no_coefs else Array.make nl 0.0 in
  for k = 0 to nl - 1 do
    let v = two_c *. f.lin.(k) in
    slack := eplus !slack (ulp v);
    lin.(k) <- v
  done;
  for k = 0 to Array.length f.diag - 1 do
    let v = two_c *. f.diag.(k) in
    slack := eplus !slack (ulp v);
    slack := quad_add q !slack f.diag_idx.(k) f.diag_idx.(k) v
  done;
  for k = 0 to Array.length f.cross - 1 do
    let v = two_c *. f.cross.(k) in
    slack := eplus !slack (ulp v);
    let key = f.cross_idx.(k) in
    slack := quad_add q !slack (key_i key) (key_j key) v
  done;
  for a = 0 to nl - 1 do
    for b = a to nl - 1 do
      let v = f.lin.(a) *. f.lin.(b) in
      slack := eplus !slack (ulp v);
      let v = if a = b then v else 2.0 *. v in
      slack := eplus !slack (ulp v);
      slack := quad_add q !slack f.lin_idx.(a) f.lin_idx.(b) v
    done
  done;
  let diag_idx, diag, cross_idx, cross = quad_families q in
  let r = q.r in
  (* Truncated part: 2·([−s, s]·Q) + Q², which has degree 3 or 4
     exactly when Q is not empty. *)
  if is_linear_form f then begin
    r.lo <- linear_sqr_truncation.I.lo;
    r.hi <- linear_sqr_truncation.I.hi
  end
  else begin
    note_truncation ();
    let s = lin_radius f in
    quad_range r f;
    let ql = r.lo and qh = r.hi in
    let ml = trunc_mul_lo (-.s) s ql qh and mh = trunc_mul_hi (-.s) s ql qh in
    r.lo <- down (mul_lo ml mh 2.0 2.0 +. sqr_lo ql qh);
    r.hi <- up (mul_hi ml mh 2.0 2.0 +. sqr_hi ql qh)
  end;
  let fl = r.lo and fh = r.hi in
  (* Remainder: 2·(A·rem) + rem² + truncated part. *)
  range f;
  let al = f.sc.plo and ah = f.sc.phi in
  let xl = f.sc.rlo and xh = f.sc.rhi in
  let pl = mul_lo al ah xl xh and ph = mul_hi al ah xl xh in
  let rlo = down (down (mul_lo pl ph 2.0 2.0 +. sqr_lo xl xh) +. fl)
  and rhi = up (up (mul_hi pl ph 2.0 2.0 +. sqr_hi xl xh) +. fh) in
  mk r ~c ~lin_idx:f.lin_idx ~lin ~diag_idx ~diag ~cross_idx ~cross ~rlo ~rhi
    ~slack:!slack

let mul x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Tm fx, Tm fy ->
      if monomial_free fx || monomial_free fy then scale_form fx fy
      else mul_form fx fy
  | Tm f, Itv v when I.is_singleton v && I.is_bounded v ->
      lin_map ~alpha:(I.lo v) ~konst:I.zero ~delta:0.0 f
  | Itv v, Tm f when I.is_singleton v && I.is_bounded v ->
      lin_map ~alpha:(I.lo v) ~konst:I.zero ~delta:0.0 f
  | _ -> mk_itv (I.mul (concretize x) (concretize y))

let sqr = function
  | Bot -> Bot
  | Itv v -> mk_itv (I.sqr v)
  | Tm f -> sqr_form f

(* ------------------------------------------------------------------ *)
(* Unary linearizations                                               *)
(* ------------------------------------------------------------------ *)

(* Shared prologue for unary ops: concretize, compute the interval
   image, handle the degenerate cases, otherwise hand the polynomial
   form plus its range to the op-specific body. *)
let unary fi x k =
  match x with
  | Bot -> Bot
  | Itv v -> mk_itv (fi v)
  | Tm f ->
      let xr = concretize_form f in
      let fx = fi xr in
      if I.is_empty fx then Bot
      else if not (I.is_bounded fx) then Itv fx
      else k f xr fx

(* First-order Chebyshev (mean-value) linearization, applied to the
   whole degree-2 polynomial: f(x) ∈ f(m) + f'(X)(x − m) over x ∈ X. *)
let mean_value ~f ~f' fx0 xr fx =
  let di = f' xr in
  if I.is_empty di || not (I.is_bounded di) then Itv fx
  else begin
    let alpha = I.mid di in
    let m = I.mid xr in
    let dev = I.mag (I.sub_float xr m) in
    let delta = up (I.mag (I.sub_float di alpha) *. dev) in
    if not (delta < I.width fx) then Itv fx
    else begin
      let fm = f (I.of_float m) in
      if I.is_empty fm || not (I.is_bounded fm) then Itv fx
      else
        let konst = I.sub fm (I.mul_float (I.of_float m) alpha) in
        lin_map ~alpha ~konst ~delta fx0
    end
  end

(* Min-range linearization with caller-chosen slope (monotone ops pick
   the endpoint derivative, making the enclosure one-sided). *)
let min_range ~f ~alpha fx0 xr fx =
  if not (Float.is_finite alpha) then Itv fx
  else begin
    let glo = I.sub (f (I.of_float (I.lo xr))) (I.mul_float (I.of_float (I.lo xr)) alpha) in
    let ghi = I.sub (f (I.of_float (I.hi xr))) (I.mul_float (I.of_float (I.hi xr)) alpha) in
    let g = I.hull glo ghi in
    if I.is_empty g || not (I.is_bounded g) then Itv fx
    else begin
      let konst = I.of_float (I.mid g) in
      let delta = I.mag (I.sub_float g (I.mid g)) in
      if not (delta < I.width fx) then Itv fx
      else lin_map ~alpha ~konst ~delta fx0
    end
  end

(* Second-order Taylor form around the midpoint, for linear operands
   only (there (x − m)² is exactly degree 2, so nothing truncates):
   f(x) = f(m) + f'(m)(x − m) + ½f''(ξ)(x − m)², ξ ∈ X.  Enclose f(m)
   and f'(m) as intervals, take ½f''(X) = β ± ρ, and emit
   mid(f'(m))·u + f(m) + mid-slops + β·u² with ρ·|u²| pushed into the
   remainder.  On a width-r operand the residual slops are O(r³) —
   versus O(r²) for the first-order forms — which is the mechanism
   that cracks band-paving boundary boxes. *)
let taylor2 ~f ~f' ~f'' x xr fx =
  if not (is_linear_form x) then None
  else begin
    let d2 = f'' xr in
    if I.is_empty d2 || not (I.is_bounded d2) then None
    else begin
      let m = I.mid xr in
      let fm = f (I.of_float m) in
      let f1m = f' (I.of_float m) in
      if
        I.is_empty fm
        || (not (I.is_bounded fm))
        || I.is_empty f1m
        || not (I.is_bounded f1m)
      then None
      else begin
        let am = I.mid f1m in
        let dev = I.mag (I.sub_float xr m) in
        let slop1 = up (I.mag (I.sub_float f1m am) *. dev) in
        let beta = I.mul_float d2 0.5 in
        let bm = I.mid beta in
        match add_const (-.m) (Tm x) with
        | Tm u -> (
            match sqr_form u with
            | Tm uq ->
                let r2 = I.mag (concretize_form uq) in
                let delta2 = up (I.mag (I.sub_float beta bm) *. r2) in
                let delta = eplus slop1 delta2 in
                if not (delta < I.width fx) then None
                else begin
                  let t1 = lin_map ~alpha:am ~konst:fm ~delta u in
                  let t2 = scale bm (Tm uq) in
                  match add t1 t2 with Bot -> None | r -> Some r
                end
            | _ -> None)
        | _ -> None
      end
    end
  end

(* Smooth ops: second-order form when the operand is linear, otherwise
   first-order Chebyshev applied to the full polynomial. *)
let chebyshev2 ~f ~f' ~f'' x xr fx =
  match taylor2 ~f ~f' ~f'' x xr fx with
  | Some r -> r
  | None -> mean_value ~f ~f' x xr fx

(* Monotone-convex/concave ops: second-order form when linear,
   min-range with the caller's endpoint slope otherwise. *)
let min_range2 ~f ~f' ~f'' ~alpha x xr fx =
  match taylor2 ~f ~f' ~f'' x xr fx with
  | Some r -> r
  | None -> min_range ~f ~alpha x xr fx

let exp x =
  unary I.exp x (fun f xr fx ->
      min_range2 ~f:I.exp ~f':I.exp ~f'':I.exp
        ~alpha:(I.lo (I.exp (I.of_float (I.lo xr))))
        f xr fx)

let log x =
  unary I.log x (fun f xr fx ->
      if I.lo xr <= 0.0 then Itv fx
      else
        min_range2 ~f:I.log ~f':I.inv
          ~f'':(fun v -> I.neg (I.inv (I.sqr v)))
          ~alpha:(I.lo (I.inv (I.of_float (I.hi xr))))
          f xr fx)

let sqrt x =
  unary I.sqrt x (fun f xr fx ->
      if I.lo xr <= 0.0 then Itv fx
      else
        min_range2 ~f:I.sqrt
          ~f':(fun v -> I.inv (I.mul_float (I.sqrt v) 2.0))
          ~f'':(fun v ->
            I.neg (I.inv (I.mul_float (I.mul (I.sqrt v) v) 4.0)))
          ~alpha:(I.lo (I.inv (I.mul_float (I.sqrt (I.of_float (I.hi xr))) 2.0)))
          f xr fx)

let inv x =
  unary I.inv x (fun f xr fx ->
      if I.lo xr > 0.0 || I.hi xr < 0.0 then begin
        (* 1/x is convex on each sign branch; slope at the endpoint of
           larger magnitude gives the min-range form. *)
        let e = if I.lo xr > 0.0 then I.hi xr else I.lo xr in
        let alpha_i = I.neg (I.inv (I.sqr (I.of_float e))) in
        min_range2 ~f:I.inv
          ~f':(fun v -> I.neg (I.inv (I.sqr v)))
          ~f'':(fun v -> I.mul_float (I.inv (I.mul (I.sqr v) v)) 2.0)
          ~alpha:(I.hi alpha_i) f xr fx
      end
      else Itv fx)

let div x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | _, Tm _ -> mul x (inv y)
  | _ -> mk_itv (I.div (concretize x) (concretize y))

let pow_int x k =
  match x with
  | Bot -> Bot
  | Itv v -> mk_itv (I.pow_int v k)
  | Tm f when k = 0 -> if I.is_empty (concretize_form f) then Bot else const 1.0
  | Tm _ when k = 1 -> x
  | Tm _ when k = 2 -> sqr x
  | Tm _ when k = -1 -> inv x
  | Tm _ ->
      unary
        (fun v -> I.pow_int v k)
        x
        (fun f xr fx ->
          if k < 0 && I.lo xr <= 0.0 && I.hi xr >= 0.0 then Itv fx
          else
            let kf = float_of_int k in
            chebyshev2
              ~f:(fun v -> I.pow_int v k)
              ~f':(fun v -> I.mul_float (I.pow_int v (k - 1)) kf)
              ~f'':(fun v ->
                I.mul_float (I.pow_int v (k - 2)) (kf *. float_of_int (k - 1)))
              f xr fx)

let sin x =
  unary I.sin x (fun f xr fx ->
      chebyshev2 ~f:I.sin ~f':I.cos ~f'':(fun v -> I.neg (I.sin v)) f xr fx)

let cos x =
  unary I.cos x (fun f xr fx ->
      chebyshev2 ~f:I.cos
        ~f':(fun v -> I.neg (I.sin v))
        ~f'':(fun v -> I.neg (I.cos v))
        f xr fx)

let tan x =
  unary I.tan x (fun f xr fx ->
      chebyshev2 ~f:I.tan
        ~f':(fun v -> I.add I.one (I.sqr (I.tan v)))
        ~f'':(fun v ->
          let t = I.tan v in
          I.mul_float (I.mul t (I.add I.one (I.sqr t))) 2.0)
        f xr fx)

let atan x =
  unary I.atan x (fun f xr fx ->
      chebyshev2 ~f:I.atan
        ~f':(fun v -> I.inv (I.add I.one (I.sqr v)))
        ~f'':(fun v ->
          I.neg (I.div (I.mul_float v 2.0) (I.sqr (I.add I.one (I.sqr v)))))
        f xr fx)

let tanh x =
  unary I.tanh x (fun f xr fx ->
      chebyshev2 ~f:I.tanh
        ~f':(fun v -> I.sub I.one (I.sqr (I.tanh v)))
        ~f'':(fun v ->
          let t = I.tanh v in
          I.mul_float (I.mul t (I.sub I.one (I.sqr t))) (-2.0))
        f xr fx)

(* ------------------------------------------------------------------ *)
(* Non-smooth operations                                              *)
(* ------------------------------------------------------------------ *)

let abs x =
  match x with
  | Bot -> Bot
  | Itv v -> mk_itv (I.abs v)
  | Tm f ->
      let xr = concretize_form f in
      if I.lo xr >= 0.0 then x
      else if I.hi xr <= 0.0 then neg x
      else mk_itv (I.abs xr)

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
