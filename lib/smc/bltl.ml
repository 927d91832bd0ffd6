(* Bounded linear temporal logic over continuous traces.

   The paper's SMC framework (Sec. I and the Fig. 2 refinement branch)
   encodes behavioural constraints as BLTL formulas and checks them on
   simulated trajectories.  Time bounds are real-valued; satisfaction is
   evaluated on the sampled time points of a trace (the standard
   discretized semantics).

   Both qualitative satisfaction and the quantitative robustness degree
   (max-min signed distance) are provided; robustness > 0 implies
   satisfaction at the sampled resolution. *)

type t =
  | Prop of Expr.Formula.t  (** state predicate over vars ∪ params ∪ t *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Next of t
  | Until of float * t * t  (** φ U≤b ψ *)
  | Finally of float * t  (** F≤b φ = true U≤b φ *)
  | Globally of float * t  (** G≤b φ = ¬F≤b ¬φ *)

let prop s = Prop (Expr.Parse.formula s)

let rec pp ppf = function
  | Prop f -> Fmt.pf ppf "(%a)" Expr.Formula.pp f
  | Not f -> Fmt.pf ppf "!%a" pp f
  | And (a, b) -> Fmt.pf ppf "(%a & %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a | %a)" pp a pp b
  | Implies (a, b) -> Fmt.pf ppf "(%a => %a)" pp a pp b
  | Next f -> Fmt.pf ppf "X %a" pp f
  | Until (b, f, g) -> Fmt.pf ppf "(%a U[%g] %a)" pp f b pp g
  | Finally (b, f) -> Fmt.pf ppf "F[%g] %a" b pp f
  | Globally (b, f) -> Fmt.pf ppf "G[%g] %a" b pp f

(* Horizon: how much trace time the formula needs beyond its start. *)
let rec horizon = function
  | Prop _ -> 0.0
  | Not f | Next f -> horizon f
  | And (a, b) | Or (a, b) | Implies (a, b) -> Float.max (horizon a) (horizon b)
  | Until (b, f, g) -> b +. Float.max (horizon f) (horizon g)
  | Finally (b, f) | Globally (b, f) -> b +. horizon f

(* ---- Trace views ----

   A view holds the sampled points in flat buffers: [times.(i)] and the
   state row [states.(i*dim) .. states.(i*dim + dim - 1)] in [vars]
   order.  A view of a stored trace or trajectory is complete from the
   start.  A streamed view is filled on demand from a stepper: [has view
   j] pulls accepted points until point [j] exists or the integration
   has ended, so the recursion below integrates exactly as far as it
   reads.  The stepper produces the points [Ode.Integrate.simulate]
   stores, so either view hands [sat] and [rob] the same points. *)

type trace_view = {
  mutable times : float array;
  mutable states : float array;
  mutable n : int;  (* points filled so far *)
  mutable dim : int;
  mutable vars : string array;
  mutable pnames : string array;  (* parameters, which shadow t and the state *)
  mutable pvals : float array;
  mutable source : Ode.Integrate.stepper option;  (* [None] once complete *)
  mutable at : int;  (* the point the atoms read *)
}

let reserve view npts =
  if Array.length view.times < npts then begin
    let cap = Stdlib.max npts (2 * Array.length view.times) in
    let times = Array.make cap 0.0 and states = Array.make (cap * view.dim) 0.0 in
    Array.blit view.times 0 times 0 view.n;
    Array.blit view.states 0 states 0 (view.n * view.dim);
    view.times <- times;
    view.states <- states
  end

let push view t y =
  reserve view (view.n + 1);
  view.times.(view.n) <- t;
  let row = view.n * view.dim in
  for j = 0 to view.dim - 1 do
    view.states.(row + j) <- y.(j)
  done;
  view.n <- view.n + 1

(* A name's first binding shadows any later one: atoms read the first
   position of a name (see [term_fn]). *)
let set_params view params =
  view.pnames <- Array.of_list (List.map fst params);
  view.pvals <- Array.of_list (List.map snd params)

let make ~params ~vars =
  let view =
    { times = [||]; states = [||]; n = 0; dim = List.length vars;
      vars = Array.of_list vars; pnames = [||]; pvals = [||]; source = None; at = 0 }
  in
  set_params view params;
  view

let of_trace ?(params = []) (tr : Ode.Integrate.trace) =
  let view = make ~params ~vars:tr.Ode.Integrate.vars in
  Array.iteri (fun i t -> push view t tr.Ode.Integrate.states.(i)) tr.Ode.Integrate.times;
  view

(* A hybrid trajectory as a single concatenated view (global time). *)
let of_trajectory ?(params = []) (traj : Hybrid.Simulate.trajectory) =
  let segments = traj.Hybrid.Simulate.segments in
  let vars =
    match segments with
    | seg :: _ -> seg.Hybrid.Simulate.trace.Ode.Integrate.vars
    | [] -> []
  in
  let view = make ~params ~vars in
  List.iter
    (fun (seg : Hybrid.Simulate.segment) ->
      let tr = seg.Hybrid.Simulate.trace in
      Array.iteri
        (fun i t -> push view (seg.Hybrid.Simulate.t_global +. t) tr.Ode.Integrate.states.(i))
        tr.Ode.Integrate.times)
    segments;
  view

let streaming () = make ~params:[] ~vars:[]

let stream ?(params = []) view stepper =
  let vars = Ode.Integrate.stepper_vars stepper in
  let dim = List.length vars in
  if dim <> view.dim then begin
    (* rows change length: [reserve] starts over *)
    view.dim <- dim;
    view.times <- [||];
    view.states <- [||]
  end;
  view.vars <- Array.of_list vars;
  set_params view params;
  view.n <- 0;
  view.source <- Some stepper;
  push view (Ode.Integrate.time stepper) (Ode.Integrate.state stepper)

let points view = view.n

(* Whether point [j] exists, pulling accepted points as needed. *)
let rec has view j =
  j < view.n
  ||
  match view.source with
  | None -> false
  | Some st ->
      if Ode.Integrate.advance st then begin
        push view (Ode.Integrate.time st) (Ode.Integrate.state st);
        has view j
      end
      else begin
        view.source <- None;
        false
      end

(* ---- Monitors: formulas with resolved atoms ----

   An atom's term becomes a closure over the view that reads a name
   where the layout puts it: a parameter's value, else the time of
   point [at], else a state column of point [at].  The closures keep
   [Expr.Term.eval]'s arithmetic node for node ([Float.pow] for every
   power, no simplification), so an atom's value is the one
   [Expr.Formula.holds] and [Expr.Formula.robustness] compute through a
   name lookup, bit for bit.  A name the layout lacks becomes a closure
   that raises when it is evaluated, as the lookup did. *)

let term_fn ~pnames ~vars term =
  let index arr x =
    let rec go j = if j >= Array.length arr then -1 else if String.equal arr.(j) x then j else go (j + 1) in
    go 0
  in
  let rec go : Expr.Term.t -> trace_view -> float = function
    | Var x ->
        let p = index pnames x in
        if p >= 0 then fun v -> v.pvals.(p)
        else if String.equal x Ode.System.time_var then fun v -> v.times.(v.at)
        else begin
          let j = index vars x in
          if j >= 0 then fun v -> v.states.((v.at * v.dim) + j)
          else fun _ -> invalid_arg (Printf.sprintf "Bltl: unbound variable %S" x)
        end
    | Const c -> fun _ -> c
    | Add (a, b) ->
        let fa = go a and fb = go b in
        fun v -> fa v +. fb v
    | Sub (a, b) ->
        let fa = go a and fb = go b in
        fun v -> fa v -. fb v
    | Mul (a, b) ->
        let fa = go a and fb = go b in
        fun v -> fa v *. fb v
    | Div (a, b) ->
        let fa = go a and fb = go b in
        fun v -> fa v /. fb v
    | Neg a ->
        let fa = go a in
        fun v -> -.fa v
    | Pow (a, k) ->
        let fa = go a and e = float_of_int k in
        fun v -> Float.pow (fa v) e
    | Exp a ->
        let fa = go a in
        fun v -> Float.exp (fa v)
    | Log a ->
        let fa = go a in
        fun v -> Float.log (fa v)
    | Sqrt a ->
        let fa = go a in
        fun v -> Float.sqrt (fa v)
    | Sin a ->
        let fa = go a in
        fun v -> Float.sin (fa v)
    | Cos a ->
        let fa = go a in
        fun v -> Float.cos (fa v)
    | Tan a ->
        let fa = go a in
        fun v -> Float.tan (fa v)
    | Atan a ->
        let fa = go a in
        fun v -> Float.atan (fa v)
    | Tanh a ->
        let fa = go a in
        fun v -> Float.tanh (fa v)
    | Abs a ->
        let fa = go a in
        fun v -> Float.abs (fa v)
    | Min (a, b) ->
        let fa = go a and fb = go b in
        fun v -> Float.min (fa v) (fb v)
    | Max (a, b) ->
        let fa = go a and fb = go b in
        fun v -> Float.max (fa v) (fb v)
  in
  go term

(* A state predicate's satisfaction and robustness at point [at]: the
   recursions of [Expr.Formula.holds] (short-circuit, left to right)
   and [Expr.Formula.robustness] (min/max folds from ±infinity). *)
type prop = { sat_at : trace_view -> bool; rob_at : trace_view -> float }

let prop_fns ~pnames ~vars f =
  let rec go : Expr.Formula.t -> prop = function
    | True -> { sat_at = (fun _ -> true); rob_at = (fun _ -> infinity) }
    | False -> { sat_at = (fun _ -> false); rob_at = (fun _ -> neg_infinity) }
    | Atom { term; rel } ->
        let value = term_fn ~pnames ~vars term in
        let sat_at =
          match rel with Gt -> fun v -> value v > 0.0 | Ge -> fun v -> value v >= 0.0
        in
        { sat_at; rob_at = value }
    | And fs ->
        let ps = List.map go fs in
        let rec all v = function [] -> true | p :: rest -> p.sat_at v && all v rest in
        let rec lowest v acc = function
          | [] -> acc
          | p :: rest -> lowest v (Float.min acc (p.rob_at v)) rest
        in
        { sat_at = (fun v -> all v ps); rob_at = (fun v -> lowest v infinity ps) }
    | Or fs ->
        let ps = List.map go fs in
        let rec any v = function [] -> false | p :: rest -> p.sat_at v || any v rest in
        let rec highest v acc = function
          | [] -> acc
          | p :: rest -> highest v (Float.max acc (p.rob_at v)) rest
        in
        { sat_at = (fun v -> any v ps); rob_at = (fun v -> highest v neg_infinity ps) }
  in
  go f

type node =
  | MProp of prop
  | MNot of node
  | MAnd of node * node
  | MOr of node * node
  | MImplies of node * node
  | MNext of node
  | MUntil of float * node * node
  | MFinally of float * node
  | MGlobally of float * node

type monitor = { m_pnames : string array; m_vars : string array; root : node }

let monitor ~params ~vars f =
  let pnames = Array.of_list params and vars = Array.of_list vars in
  let rec go = function
    | Prop p -> MProp (prop_fns ~pnames ~vars p)
    | Not f -> MNot (go f)
    | And (a, b) -> MAnd (go a, go b)
    | Or (a, b) -> MOr (go a, go b)
    | Implies (a, b) -> MImplies (go a, go b)
    | Next f -> MNext (go f)
    | Until (b, f, g) -> MUntil (b, go f, go g)
    | Finally (b, f) -> MFinally (b, go f)
    | Globally (b, f) -> MGlobally (b, go f)
  in
  { m_pnames = pnames; m_vars = vars; root = go f }

(* ---- Semantics over a sampled trace ---- *)

(* Qualitative satisfaction at sample index [i]. *)
let rec sat view i = function
  | MProp p ->
      view.at <- i;
      p.sat_at view
  | MNot f -> not (sat view i f)
  | MAnd (a, b) -> sat view i a && sat view i b
  | MOr (a, b) -> sat view i a || sat view i b
  | MImplies (a, b) -> (not (sat view i a)) || sat view i b
  | MNext f -> if has view (i + 1) then sat view (i + 1) f else sat view i f
  | MFinally (b, f) -> exists_within view i b (fun j -> sat view j f)
  | MGlobally (b, f) -> not (exists_within view i b (fun j -> not (sat view j f)))
  | MUntil (b, f, g) ->
      let t0 = view.times.(i) in
      let rec go j =
        if (not (has view j)) || view.times.(j) -. t0 > b then false
        else if sat view j g then true
        else if sat view j f then go (j + 1)
        else false
      in
      go i

and exists_within view i bound p =
  let t0 = view.times.(i) in
  let rec go j =
    if (not (has view j)) || view.times.(j) -. t0 > bound then false
    else p j || go (j + 1)
  in
  go i

let start_at name view m at =
  let same a b = Array.length a = Array.length b && Array.for_all2 String.equal a b in
  if not (same m.m_pnames view.pnames && same m.m_vars view.vars) then
    invalid_arg (Printf.sprintf "Bltl.%s: the monitor was resolved against another layout" name);
  if not (has view 0) then invalid_arg (Printf.sprintf "Bltl.%s: empty trace" name);
  if not (has view at) then invalid_arg (Printf.sprintf "Bltl.%s: index out of bounds" name)

let check ?(at = 0) view m =
  start_at "holds" view m at;
  sat view at m.root

(* Quantitative robustness degree (Fainekos-Pappas style). *)
let rec rob view i = function
  | MProp p ->
      view.at <- i;
      p.rob_at view
  | MNot f -> -.rob view i f
  | MAnd (a, b) -> Float.min (rob view i a) (rob view i b)
  | MOr (a, b) -> Float.max (rob view i a) (rob view i b)
  | MImplies (a, b) -> Float.max (-.rob view i a) (rob view i b)
  | MNext f -> if has view (i + 1) then rob view (i + 1) f else rob view i f
  | MFinally (b, f) ->
      fold_within view i b neg_infinity Float.max (fun j -> rob view j f)
  | MGlobally (b, f) ->
      fold_within view i b infinity Float.min (fun j -> rob view j f)
  | MUntil (b, f, g) ->
      let t0 = view.times.(i) in
      let rec go j best prefix =
        if (not (has view j)) || view.times.(j) -. t0 > b then best
        else
          let here = Float.min prefix (rob view j g) in
          let best = Float.max best here in
          go (j + 1) best (Float.min prefix (rob view j f))
      in
      go i neg_infinity infinity

and fold_within view i bound init combine f =
  let t0 = view.times.(i) in
  let rec go j acc =
    if (not (has view j)) || view.times.(j) -. t0 > bound then acc
    else go (j + 1) (combine acc (f j))
  in
  go i init

let check_robustness ?(at = 0) view m =
  start_at "robustness" view m at;
  rob view at m.root

let monitor_of view f =
  monitor ~params:(Array.to_list view.pnames) ~vars:(Array.to_list view.vars) f

let holds ?at view f = check ?at view (monitor_of view f)
let robustness ?at view f = check_robustness ?at view (monitor_of view f)
