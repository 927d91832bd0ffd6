(* L_RF terms: real-valued expressions built from variables, constants and
   computable functions (Definition 1 of the paper).

   Terms support float evaluation, interval evaluation (the basis of the
   δ-decision procedure), symbolic differentiation, substitution, and
   compilation to array-indexed closures for fast inner loops (ODE
   right-hand sides, Monte-Carlo sampling). *)

module SSet = Set.Make (String)

type t =
  | Var of string
  | Const of float
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Neg of t
  | Pow of t * int
  | Exp of t
  | Log of t
  | Sqrt of t
  | Sin of t
  | Cos of t
  | Tan of t
  | Atan of t
  | Tanh of t
  | Abs of t
  | Min of t * t
  | Max of t * t

(* ---- Smart constructors (light algebraic simplification) ---- *)

let var x = Var x
let const c = Const c
let zero = Const 0.0
let one = Const 1.0

let is_const = function Const _ -> true | _ -> false

let add a b =
  match (a, b) with
  | Const 0.0, t | t, Const 0.0 -> t
  | Const x, Const y -> Const (x +. y)
  | _ -> Add (a, b)

let sub a b =
  match (a, b) with
  | t, Const 0.0 -> t
  | Const 0.0, t -> Neg t
  | Const x, Const y -> Const (x -. y)
  | _ -> Sub (a, b)

let mul a b =
  match (a, b) with
  | Const 0.0, _ | _, Const 0.0 -> Const 0.0
  | Const 1.0, t | t, Const 1.0 -> t
  | Const x, Const y -> Const (x *. y)
  | _ -> Mul (a, b)

let div a b =
  match (a, b) with
  | t, Const 1.0 -> t
  | Const 0.0, _ -> Const 0.0
  | Const x, Const y when y <> 0.0 -> Const (x /. y)
  | _ -> Div (a, b)

let neg = function
  | Const c -> Const (-.c)
  | Neg t -> t
  | t -> Neg t

let pow t n =
  match (t, n) with
  | _, 0 -> one
  | t, 1 -> t
  | Const c, n -> Const (Float.pow c (float_of_int n))
  | t, n -> Pow (t, n)

let exp t = match t with Const c -> Const (Float.exp c) | _ -> Exp t
let log t = match t with Const c when c > 0.0 -> Const (Float.log c) | _ -> Log t
let sqrt t = match t with Const c when c >= 0.0 -> Const (Float.sqrt c) | _ -> Sqrt t
let sin t = match t with Const c -> Const (Float.sin c) | _ -> Sin t
let cos t = match t with Const c -> Const (Float.cos c) | _ -> Cos t
let tan t = match t with Const c -> Const (Float.tan c) | _ -> Tan t
let atan t = match t with Const c -> Const (Float.atan c) | _ -> Atan t
let tanh t = match t with Const c -> Const (Float.tanh c) | _ -> Tanh t
let abs t = match t with Const c -> Const (Float.abs c) | _ -> Abs t
let min_ a b = match (a, b) with Const x, Const y -> Const (Float.min x y) | _ -> Min (a, b)
let max_ a b = match (a, b) with Const x, Const y -> Const (Float.max x y) | _ -> Max (a, b)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( ** ) = pow
  let ( !. ) = const
  let ( !! ) = var
end

(* ---- Structure ---- *)

let rec size = function
  | Var _ | Const _ -> 1
  | Neg t | Pow (t, _) | Exp t | Log t | Sqrt t | Sin t | Cos t | Tan t
  | Atan t | Tanh t | Abs t ->
      1 + size t
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b) ->
      1 + size a + size b

let rec depth = function
  | Var _ | Const _ -> 1
  | Neg t | Pow (t, _) | Exp t | Log t | Sqrt t | Sin t | Cos t | Tan t
  | Atan t | Tanh t | Abs t ->
      1 + depth t
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b) ->
      1 + Stdlib.max (depth a) (depth b)

let rec free_vars_acc acc = function
  | Var x -> SSet.add x acc
  | Const _ -> acc
  | Neg t | Pow (t, _) | Exp t | Log t | Sqrt t | Sin t | Cos t | Tan t
  | Atan t | Tanh t | Abs t ->
      free_vars_acc acc t
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b) ->
      free_vars_acc (free_vars_acc acc a) b

let free_vars t = free_vars_acc SSet.empty t
let free_var_list t = SSet.elements (free_vars t)
let mentions x t = SSet.mem x (free_vars t)

(* Canonical, injective serialization for use as a memoization key.
   Floats are rendered with %h (hex, exact), so syntactically different
   constants never collide the way a rounded decimal rendering would. *)
let fingerprint_acc buf t =
  let rec go t =
    let unary tag c =
      Buffer.add_char buf tag;
      Buffer.add_char buf '(';
      go c;
      Buffer.add_char buf ')'
    in
    let binary tag a b =
      Buffer.add_char buf tag;
      Buffer.add_char buf '(';
      go a;
      Buffer.add_char buf ',';
      go b;
      Buffer.add_char buf ')'
    in
    match t with
    | Var x ->
        Buffer.add_char buf 'v';
        Buffer.add_string buf x;
        Buffer.add_char buf ';'
    | Const c ->
        Buffer.add_char buf 'c';
        Buffer.add_string buf (Printf.sprintf "%h;" c)
    | Add (a, b) -> binary '+' a b
    | Sub (a, b) -> binary '-' a b
    | Mul (a, b) -> binary '*' a b
    | Div (a, b) -> binary '/' a b
    | Min (a, b) -> binary 'm' a b
    | Max (a, b) -> binary 'M' a b
    | Neg a -> unary 'n' a
    | Pow (a, k) ->
        Buffer.add_char buf '^';
        Buffer.add_string buf (string_of_int k);
        Buffer.add_char buf '(';
        go a;
        Buffer.add_char buf ')'
    | Exp a -> unary 'e' a
    | Log a -> unary 'l' a
    | Sqrt a -> unary 'q' a
    | Sin a -> unary 's' a
    | Cos a -> unary 'o' a
    | Tan a -> unary 't' a
    | Atan a -> unary 'a' a
    | Tanh a -> unary 'h' a
    | Abs a -> unary 'b' a
  in
  go t

(* ---- Mapping and substitution ---- *)

let rec map_vars f = function
  | Var x -> f x
  | Const c -> Const c
  | Add (a, b) -> add (map_vars f a) (map_vars f b)
  | Sub (a, b) -> sub (map_vars f a) (map_vars f b)
  | Mul (a, b) -> mul (map_vars f a) (map_vars f b)
  | Div (a, b) -> div (map_vars f a) (map_vars f b)
  | Neg t -> neg (map_vars f t)
  | Pow (t, n) -> pow (map_vars f t) n
  | Exp t -> exp (map_vars f t)
  | Log t -> log (map_vars f t)
  | Sqrt t -> sqrt (map_vars f t)
  | Sin t -> sin (map_vars f t)
  | Cos t -> cos (map_vars f t)
  | Tan t -> tan (map_vars f t)
  | Atan t -> atan (map_vars f t)
  | Tanh t -> tanh (map_vars f t)
  | Abs t -> abs (map_vars f t)
  | Min (a, b) -> min_ (map_vars f a) (map_vars f b)
  | Max (a, b) -> max_ (map_vars f a) (map_vars f b)

let subst bindings t =
  map_vars (fun x -> match List.assoc_opt x bindings with Some u -> u | None -> Var x) t

let rename renaming t =
  map_vars
    (fun x -> Var (match List.assoc_opt x renaming with Some y -> y | None -> x))
    t

(* Rebuild the term through the smart constructors, folding constants. *)
let simplify t = subst [] t

(* ---- Deep simplification (gradient pipeline) ----

   [Term.deriv] builds its output through the smart constructors, which
   fold adjacent constants but leave the chain/product-rule scaffolding
   in place: nested negations, products of negated factors, constants
   buried one level inside a product.  [simplify_deep] cleans those up
   before tape compilation.

   Every rule preserves the function's domain of definition exactly —
   the interval Newton layer certifies smoothness from the natural
   enclosures of the simplified tree, so a rewrite that extended the
   domain (say [exp (log x) → x]) could hide a singularity and break
   the certificate.  Rules are also numerically conservative: they
   either commute with IEEE arithmetic bit-for-bit (neg hoisting,
   sub-of-neg) or are gated on the constant folding being exact
   (checked with an FMA residual for products, a Fast2Sum-style
   round-trip for sums).  [Term.simplify] (used by [compile]) is left
   untouched: its float semantics are pinned by the tape differential
   tests. *)

let exact_mul c d =
  let p = c *. d in
  Float.is_finite p && Float.fma c d (-.p) = 0.0

let exact_add c d =
  let s = c +. d in
  Float.is_finite s && s -. c = d && s -. d = c

let s_neg = function
  | Const c -> Const (-.c)
  | Neg t -> t
  | Sub (a, b) -> Sub (b, a)  (* -(a - b) = b - a, bit-identical *)
  | t -> Neg t

(* Strip negations off the operands of a product or quotient; the sign
   is re-applied on top where [s_neg] can cancel it against the
   context.  Recursion consumes one [Neg] constructor per step, so it
   terminates. *)
let rec s_mul a b =
  match (a, b) with
  | Neg a, Neg b -> s_mul a b
  | Neg a, b | a, Neg b -> s_neg (s_mul a b)
  | Const c, Mul (Const d, e) when exact_mul c d -> s_mul (Const (c *. d)) e
  | Mul (Const d, e), Const c when exact_mul c d -> s_mul (Const (c *. d)) e
  | Const c, Mul (e, Const d) when exact_mul c d -> s_mul (Const (c *. d)) e
  | _ -> mul a b

let rec s_div a b =
  match (a, b) with
  | Neg a, Neg b -> s_div a b
  | Neg a, b | a, Neg b -> s_neg (s_div a b)
  | _ -> div a b

let s_add a b =
  match (a, b) with
  | a, Neg b -> sub a b
  | Neg a, b -> sub b a
  | Const c, Add (Const d, e) when exact_add c d -> add (Const (c +. d)) e
  | _ -> add a b

let s_sub a b =
  match (a, b) with
  | Neg a, Neg b -> sub b a
  | a, Neg b -> add a b
  | _ -> sub a b

let s_pow t n =
  match (t, n) with
  (* (a^m)^n = a^(mn) as real functions when m, n ≥ 1 (same domain:
     total in a for non-negative exponents). *)
  | Pow (a, m), n when m >= 1 && n >= 1 -> pow a (m * n)
  | Neg a, n when n >= 0 -> if n land 1 = 0 then pow a n else s_neg (pow a n)
  | _ -> pow t n

let rec simplify_deep t =
  let s = simplify_deep in
  match t with
  | Var _ | Const _ -> t
  | Add (a, b) -> s_add (s a) (s b)
  | Sub (a, b) -> s_sub (s a) (s b)
  | Mul (a, b) -> s_mul (s a) (s b)
  | Div (a, b) -> s_div (s a) (s b)
  | Neg a -> s_neg (s a)
  | Pow (a, n) -> s_pow (s a) n
  | Exp a -> exp (s a)
  | Log a -> log (s a)
  | Sqrt a -> sqrt (s a)
  | Sin a -> sin (s a)
  | Cos a -> cos (s a)
  | Tan a -> tan (s a)
  | Atan a -> atan (s a)
  | Tanh a -> tanh (s a)
  | Abs a -> abs (s a)
  | Min (a, b) -> min_ (s a) (s b)
  | Max (a, b) -> max_ (s a) (s b)

(* ---- Evaluation ---- *)

let rec eval lookup = function
  | Var x -> lookup x
  | Const c -> c
  | Add (a, b) -> eval lookup a +. eval lookup b
  | Sub (a, b) -> eval lookup a -. eval lookup b
  | Mul (a, b) -> eval lookup a *. eval lookup b
  | Div (a, b) -> eval lookup a /. eval lookup b
  | Neg t -> -.eval lookup t
  | Pow (t, n) -> Float.pow (eval lookup t) (float_of_int n)
  | Exp t -> Float.exp (eval lookup t)
  | Log t -> Float.log (eval lookup t)
  | Sqrt t -> Float.sqrt (eval lookup t)
  | Sin t -> Float.sin (eval lookup t)
  | Cos t -> Float.cos (eval lookup t)
  | Tan t -> Float.tan (eval lookup t)
  | Atan t -> Float.atan (eval lookup t)
  | Tanh t -> Float.tanh (eval lookup t)
  | Abs t -> Float.abs (eval lookup t)
  | Min (a, b) -> Float.min (eval lookup a) (eval lookup b)
  | Max (a, b) -> Float.max (eval lookup a) (eval lookup b)

let eval_env env t =
  eval
    (fun x ->
      match List.assoc_opt x env with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Term.eval_env: unbound variable %S" x))
    t

let rec eval_interval (box : Interval.Box.t) t =
  let module I = Interval.Ia in
  match t with
  | Var x -> (
      match Interval.Box.find_opt x box with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Term.eval_interval: unbound variable %S" x))
  | Const c -> I.of_float c
  | Add (a, b) -> I.add (eval_interval box a) (eval_interval box b)
  | Sub (a, b) -> I.sub (eval_interval box a) (eval_interval box b)
  | Mul (a, b) -> I.mul (eval_interval box a) (eval_interval box b)
  | Div (a, b) -> I.div (eval_interval box a) (eval_interval box b)
  | Neg t -> I.neg (eval_interval box t)
  | Pow (t, n) -> I.pow_int (eval_interval box t) n
  | Exp t -> I.exp (eval_interval box t)
  | Log t -> I.log (eval_interval box t)
  | Sqrt t -> I.sqrt (eval_interval box t)
  | Sin t -> I.sin (eval_interval box t)
  | Cos t -> I.cos (eval_interval box t)
  | Tan t -> I.tan (eval_interval box t)
  | Atan t -> I.atan (eval_interval box t)
  | Tanh t -> I.tanh (eval_interval box t)
  | Abs t -> I.abs (eval_interval box t)
  | Min (a, b) -> I.min_ (eval_interval box a) (eval_interval box b)
  | Max (a, b) -> I.max_ (eval_interval box a) (eval_interval box b)

(* Compile to a closure over a value array indexed by position in [vars].
   Unbound variables are rejected at compile time, so the hot loop carries
   no name lookups. *)
let compile ~vars t =
  let index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace index v i) vars;
  let rec go = function
    | Var x -> (
        match Hashtbl.find_opt index x with
        | Some i -> fun a -> Array.unsafe_get a i
        | None -> invalid_arg (Printf.sprintf "Term.compile: unbound variable %S" x))
    | Const c -> fun _ -> c
    | Add (a, b) ->
        let fa = go a and fb = go b in
        fun arr -> fa arr +. fb arr
    | Sub (a, b) ->
        let fa = go a and fb = go b in
        fun arr -> fa arr -. fb arr
    | Mul (a, b) ->
        let fa = go a and fb = go b in
        fun arr -> fa arr *. fb arr
    | Div (a, b) ->
        let fa = go a and fb = go b in
        fun arr -> fa arr /. fb arr
    | Neg t ->
        let f = go t in
        fun arr -> -.f arr
    | Pow (t, 2) ->
        let f = go t in
        fun arr ->
          let v = f arr in
          v *. v
    | Pow (t, 3) ->
        let f = go t in
        fun arr ->
          let v = f arr in
          v *. v *. v
    | Pow (t, n) ->
        let f = go t and e = float_of_int n in
        fun arr -> Float.pow (f arr) e
    | Exp t ->
        let f = go t in
        fun arr -> Float.exp (f arr)
    | Log t ->
        let f = go t in
        fun arr -> Float.log (f arr)
    | Sqrt t ->
        let f = go t in
        fun arr -> Float.sqrt (f arr)
    | Sin t ->
        let f = go t in
        fun arr -> Float.sin (f arr)
    | Cos t ->
        let f = go t in
        fun arr -> Float.cos (f arr)
    | Tan t ->
        let f = go t in
        fun arr -> Float.tan (f arr)
    | Atan t ->
        let f = go t in
        fun arr -> Float.atan (f arr)
    | Tanh t ->
        let f = go t in
        fun arr -> Float.tanh (f arr)
    | Abs t ->
        let f = go t in
        fun arr -> Float.abs (f arr)
    | Min (a, b) ->
        let fa = go a and fb = go b in
        fun arr -> Float.min (fa arr) (fb arr)
    | Max (a, b) ->
        let fa = go a and fb = go b in
        fun arr -> Float.max (fa arr) (fb arr)
  in
  go (simplify t)

(* ---- Differentiation ---- *)

let rec deriv x t =
  let d = deriv x in
  match t with
  | Var y -> if String.equal x y then one else zero
  | Const _ -> zero
  | Add (a, b) -> add (d a) (d b)
  | Sub (a, b) -> sub (d a) (d b)
  | Mul (a, b) -> add (mul (d a) b) (mul a (d b))
  | Div (a, b) -> div (sub (mul (d a) b) (mul a (d b))) (pow b 2)
  | Neg t -> neg (d t)
  | Pow (t, n) -> mul (mul (const (float_of_int n)) (pow t (n - 1))) (d t)
  | Exp t -> mul (exp t) (d t)
  | Log t -> div (d t) t
  | Sqrt t -> div (d t) (mul (const 2.0) (sqrt t))
  | Sin t -> mul (cos t) (d t)
  | Cos t -> neg (mul (sin t) (d t))
  | Tan t -> div (d t) (pow (cos t) 2)
  | Atan t -> div (d t) (add one (pow t 2))
  | Tanh t -> mul (sub one (pow (tanh t) 2)) (d t)
  | Abs t ->
      (* Weak derivative: sign(t) * t'.  Not defined at 0; adequate for the
         smooth regions the analyses evaluate it on. *)
      mul (div t (abs t)) (d t)
  | Min _ | Max _ ->
      invalid_arg "Term.deriv: min/max are not differentiable symbolically"

let gradient vars t = List.map (fun v -> (v, deriv v t)) vars

(* Lie derivative of [t] along the vector field [field : (var, rhs)]. *)
let lie_derivative field t =
  List.fold_left
    (fun acc (v, rhs) -> add acc (mul (deriv v t) rhs))
    zero field

(* ---- Printing ---- *)

let rec pp ppf t = pp_prec 0 ppf t

and pp_prec prec ppf t =
  let parens p body =
    if prec > p then Fmt.pf ppf "(%t)" body else body ppf
  in
  match t with
  | Var x -> Fmt.string ppf x
  | Const c ->
      (* Shortest decimal that parses back to the same double. *)
      let s =
        let short = Printf.sprintf "%.12g" c in
        if float_of_string short = c then short else Printf.sprintf "%.17g" c
      in
      if c < 0.0 then parens 10 (fun ppf -> Fmt.string ppf s)
      else Fmt.string ppf s
  | Add (a, b) ->
      parens 1 (fun ppf -> Fmt.pf ppf "%a + %a" (pp_prec 1) a (pp_prec 2) b)
  | Sub (a, b) ->
      parens 1 (fun ppf -> Fmt.pf ppf "%a - %a" (pp_prec 1) a (pp_prec 2) b)
  | Mul (a, b) ->
      parens 2 (fun ppf -> Fmt.pf ppf "%a * %a" (pp_prec 2) a (pp_prec 3) b)
  | Div (a, b) ->
      parens 2 (fun ppf -> Fmt.pf ppf "%a / %a" (pp_prec 2) a (pp_prec 3) b)
  | Neg t -> parens 2 (fun ppf -> Fmt.pf ppf "-%a" (pp_prec 3) t)
  | Pow (t, n) -> parens 3 (fun ppf -> Fmt.pf ppf "%a^%d" (pp_prec 4) t n)
  | Exp t -> Fmt.pf ppf "exp(%a)" pp t
  | Log t -> Fmt.pf ppf "log(%a)" pp t
  | Sqrt t -> Fmt.pf ppf "sqrt(%a)" pp t
  | Sin t -> Fmt.pf ppf "sin(%a)" pp t
  | Cos t -> Fmt.pf ppf "cos(%a)" pp t
  | Tan t -> Fmt.pf ppf "tan(%a)" pp t
  | Atan t -> Fmt.pf ppf "atan(%a)" pp t
  | Tanh t -> Fmt.pf ppf "tanh(%a)" pp t
  | Abs t -> Fmt.pf ppf "abs(%a)" pp t
  | Min (a, b) -> Fmt.pf ppf "min(%a, %a)" pp a pp b
  | Max (a, b) -> Fmt.pf ppf "max(%a, %a)" pp a pp b

let to_string t = Fmt.str "%a" pp t

let rec equal a b =
  match (a, b) with
  | Var x, Var y -> String.equal x y
  | Const x, Const y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Add (a1, a2), Add (b1, b2)
  | Sub (a1, a2), Sub (b1, b2)
  | Mul (a1, a2), Mul (b1, b2)
  | Div (a1, a2), Div (b1, b2)
  | Min (a1, a2), Min (b1, b2)
  | Max (a1, a2), Max (b1, b2) ->
      equal a1 b1 && equal a2 b2
  | Neg a, Neg b
  | Exp a, Exp b
  | Log a, Log b
  | Sqrt a, Sqrt b
  | Sin a, Sin b
  | Cos a, Cos b
  | Tan a, Tan b
  | Atan a, Atan b
  | Tanh a, Tanh b
  | Abs a, Abs b ->
      equal a b
  | Pow (a, m), Pow (b, n) -> m = n && equal a b
  | ( ( Var _ | Const _ | Add _ | Sub _ | Mul _ | Div _ | Neg _ | Pow _ | Exp _
      | Log _ | Sqrt _ | Sin _ | Cos _ | Tan _ | Atan _ | Tanh _ | Abs _ | Min _
      | Max _ ),
      _ ) ->
      false
