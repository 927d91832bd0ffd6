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
  mutable params : (string * float) list;  (* shadow t and the state *)
  mutable source : Ode.Integrate.stepper option;  (* [None] once complete *)
  mutable at : int;  (* the point [read] reads *)
  mutable read : string -> float;  (* atoms' lookup at point [at] *)
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

(* The value of [x] at point [at], with the precedence of the
   environment [params @ [t; vars...]]: parameters first, then time,
   then the state. *)
let lookup view x =
  match List.assoc_opt x view.params with
  | Some v -> v
  | None ->
      if String.equal x Ode.System.time_var then view.times.(view.at)
      else begin
        let rec find j =
          if j >= view.dim then invalid_arg (Printf.sprintf "Bltl: unbound variable %S" x)
          else if String.equal view.vars.(j) x then view.states.((view.at * view.dim) + j)
          else find (j + 1)
        in
        find 0
      end

(* One [read] closure per view, so evaluating an atom allocates none. *)
let make ~params ~vars =
  let view =
    { times = [||]; states = [||]; n = 0; dim = List.length vars;
      vars = Array.of_list vars; params; source = None; at = 0; read = Fun.const nan }
  in
  view.read <- lookup view;
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
  view.n <- 0;
  view.vars <- Array.of_list vars;
  view.params <- params;
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

(* ---- Semantics over a sampled trace ---- *)

(* Qualitative satisfaction at sample index [i]. *)
let rec sat view i = function
  | Prop f ->
      view.at <- i;
      Expr.Formula.holds view.read f
  | Not f -> not (sat view i f)
  | And (a, b) -> sat view i a && sat view i b
  | Or (a, b) -> sat view i a || sat view i b
  | Implies (a, b) -> (not (sat view i a)) || sat view i b
  | Next f -> if has view (i + 1) then sat view (i + 1) f else sat view i f
  | Finally (b, f) -> exists_within view i b (fun j -> sat view j f)
  | Globally (b, f) -> not (exists_within view i b (fun j -> not (sat view j f)))
  | Until (b, f, g) ->
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

let start_at name view at =
  if not (has view 0) then invalid_arg (Printf.sprintf "Bltl.%s: empty trace" name);
  if not (has view at) then invalid_arg (Printf.sprintf "Bltl.%s: index out of bounds" name)

let holds ?(at = 0) view f =
  start_at "holds" view at;
  sat view at f

(* Quantitative robustness degree (Fainekos-Pappas style). *)
let rec rob view i = function
  | Prop f ->
      view.at <- i;
      Expr.Formula.robustness view.read f
  | Not f -> -.rob view i f
  | And (a, b) -> Float.min (rob view i a) (rob view i b)
  | Or (a, b) -> Float.max (rob view i a) (rob view i b)
  | Implies (a, b) -> Float.max (-.rob view i a) (rob view i b)
  | Next f -> if has view (i + 1) then rob view (i + 1) f else rob view i f
  | Finally (b, f) ->
      fold_within view i b neg_infinity Float.max (fun j -> rob view j f)
  | Globally (b, f) ->
      fold_within view i b infinity Float.min (fun j -> rob view j f)
  | Until (b, f, g) ->
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

let robustness ?(at = 0) view f =
  start_at "robustness" view at;
  rob view at f
