(* Numerical ODE integration: fixed-step Euler/RK4 and adaptive RKF45,
   with dense trace output and event localization.

   The integrators operate on the compiled vector field of a {!System.t};
   all allocation in the inner loop is array-based. *)

type method_ =
  | Euler of float  (** fixed step size *)
  | Rk4 of float  (** fixed step size *)
  | Rkf45 of { rtol : float; atol : float; h0 : float; h_max : float }
  | Implicit_euler of { h : float; newton_iters : int; newton_tol : float }
      (** backward Euler with a damped Newton solve per step; A-stable,
          for stiff systems where explicit steppers need tiny steps *)

let default_rkf45 = Rkf45 { rtol = 1e-6; atol = 1e-9; h0 = 1e-3; h_max = 0.1 }

let default_implicit h = Implicit_euler { h; newton_iters = 20; newton_tol = 1e-10 }

type trace = {
  vars : string list;
  times : float array;
  states : float array array;  (* states.(i) is the state at times.(i) *)
}

let length tr = Array.length tr.times
let final_time tr = tr.times.(length tr - 1)
let final_state tr = tr.states.(length tr - 1)

let var_index tr x =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Integrate.var_index: unknown %S" x)
    | v :: rest -> if String.equal v x then i else go (i + 1) rest
  in
  go 0 tr.vars

(* State as an environment, including time. *)
let env_at tr i =
  (System.time_var, tr.times.(i))
  :: List.mapi (fun j v -> (v, tr.states.(i).(j))) tr.vars

let final_env tr = env_at tr (length tr - 1)

(* Linear interpolation of the state at time [t] (clamped to the trace). *)
let state_at tr t =
  let n = length tr in
  if t <= tr.times.(0) then tr.states.(0)
  else if t >= tr.times.(n - 1) then tr.states.(n - 1)
  else begin
    (* binary search for the segment containing t *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let m = (!lo + !hi) / 2 in
      if tr.times.(m) <= t then lo := m else hi := m
    done;
    let t0 = tr.times.(!lo) and t1 = tr.times.(!hi) in
    let s0 = tr.states.(!lo) and s1 = tr.states.(!hi) in
    let w = if t1 > t0 then (t -. t0) /. (t1 -. t0) else 0.0 in
    Array.init (Array.length s0) (fun j -> s0.(j) +. (w *. (s1.(j) -. s0.(j))))
  end

let value_at tr x t =
  let j = var_index tr x in
  (state_at tr t).(j)

(* Signal of one variable, for plotting / monitors. *)
let signal tr x =
  let j = var_index tr x in
  Array.map (fun s -> s.(j)) tr.states

(* CSV rendering (header: t,var1,var2,...), for external plotting. *)
let to_csv tr =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," ("t" :: tr.vars));
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i t ->
      Buffer.add_string buf (Printf.sprintf "%.9g" t);
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%.9g" v)) tr.states.(i);
      Buffer.add_char buf '\n')
    tr.times;
  Buffer.contents buf

(* ---- Steppers ---- *)

let axpy n a x y =
  (* y_i + a * x_i as a fresh array *)
  Array.init n (fun i -> y.(i) +. (a *. x.(i)))

let euler_step f t y h =
  let n = Array.length y in
  axpy n h (f t y) y

let rk4_step f t y h =
  let n = Array.length y in
  let k1 = f t y in
  let k2 = f (t +. (h /. 2.0)) (axpy n (h /. 2.0) k1 y) in
  let k3 = f (t +. (h /. 2.0)) (axpy n (h /. 2.0) k2 y) in
  let k4 = f (t +. h) (axpy n h k3 y) in
  Array.init n (fun i ->
      y.(i) +. (h /. 6.0 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i))))

(* One Runge-Kutta-Fehlberg 4(5) step; returns (y4, y5) of orders 4/5. *)
let rkf45_step f t y h =
  let n = Array.length y in
  let k1 = f t y in
  let arg c cs =
    Array.init n (fun i ->
        y.(i) +. (h *. List.fold_left (fun acc (a, k) -> acc +. (a *. k.(i))) 0.0 cs))
    |> fun st -> f (t +. (c *. h)) st
  in
  let k2 = arg 0.25 [ (0.25, k1) ] in
  let k3 = arg 0.375 [ (3.0 /. 32.0, k1); (9.0 /. 32.0, k2) ] in
  let k4 =
    arg (12.0 /. 13.0)
      [ (1932.0 /. 2197.0, k1); (-7200.0 /. 2197.0, k2); (7296.0 /. 2197.0, k3) ]
  in
  let k5 =
    arg 1.0
      [ (439.0 /. 216.0, k1); (-8.0, k2); (3680.0 /. 513.0, k3); (-845.0 /. 4104.0, k4) ]
  in
  let k6 =
    arg 0.5
      [ (-8.0 /. 27.0, k1); (2.0, k2); (-3544.0 /. 2565.0, k3); (1859.0 /. 4104.0, k4);
        (-11.0 /. 40.0, k5) ]
  in
  let y4 =
    Array.init n (fun i ->
        y.(i)
        +. h
           *. ((25.0 /. 216.0 *. k1.(i))
              +. (1408.0 /. 2565.0 *. k3.(i))
              +. (2197.0 /. 4104.0 *. k4.(i))
              -. (0.2 *. k5.(i))))
  in
  let y5 =
    Array.init n (fun i ->
        y.(i)
        +. h
           *. ((16.0 /. 135.0 *. k1.(i))
              +. (6656.0 /. 12825.0 *. k3.(i))
              +. (28561.0 /. 56430.0 *. k4.(i))
              -. (9.0 /. 50.0 *. k5.(i))
              +. (2.0 /. 55.0 *. k6.(i))))
  in
  (y4, y5)

(* Dense Gaussian elimination with partial pivoting (systems here are
   tiny: the state dimension). *)
let solve_linear a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  for col = 0 to n - 1 do
    (* pivot *)
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!piv).(col) then piv := r
    done;
    if !piv <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!piv);
      a.(!piv) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!piv);
      b.(!piv) <- tb
    end;
    let d = a.(col).(col) in
    if Float.abs d > 1e-300 then
      for r = col + 1 to n - 1 do
        let factor = a.(r).(col) /. d in
        if factor <> 0.0 then begin
          for c = col to n - 1 do
            a.(r).(c) <- a.(r).(c) -. (factor *. a.(col).(c))
          done;
          b.(r) <- b.(r) -. (factor *. b.(col))
        end
      done
  done;
  let x = Array.make n 0.0 in
  for r = n - 1 downto 0 do
    let s = ref b.(r) in
    for c = r + 1 to n - 1 do
      s := !s -. (a.(r).(c) *. x.(c))
    done;
    x.(r) <- (if Float.abs a.(r).(r) > 1e-300 then !s /. a.(r).(r) else 0.0)
  done;
  x

(* Backward Euler: solve z = y + h·f(t+h, z) by Newton iteration with a
   finite-difference Jacobian.  Falls back to the explicit step if Newton
   stalls (keeps the driver total). *)
let implicit_euler_step ~newton_iters ~newton_tol f t y h =
  let n = Array.length y in
  let t1 = t +. h in
  let residual z =
    let fz = f t1 z in
    Array.init n (fun i -> z.(i) -. y.(i) -. (h *. fz.(i)))
  in
  let jacobian z =
    (* J_G = I - h·J_f, J_f by forward differences *)
    let fz = f t1 z in
    Array.init n (fun i ->
        Array.init n (fun j ->
            let dz = 1e-7 *. (1.0 +. Float.abs z.(j)) in
            let z' = Array.copy z in
            z'.(j) <- z'.(j) +. dz;
            let fz' = f t1 z' in
            let dfij = (fz'.(i) -. fz.(i)) /. dz in
            (if i = j then 1.0 else 0.0) -. (h *. dfij)))
  in
  (* start from the explicit Euler predictor *)
  let z = ref (euler_step f t y h) in
  let converged = ref false in
  let iters = ref 0 in
  while (not !converged) && !iters < newton_iters do
    incr iters;
    let r = residual !z in
    let norm = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 r in
    if norm < newton_tol then converged := true
    else begin
      let delta = solve_linear (jacobian !z) r in
      let z' = Array.init n (fun i -> !z.(i) -. delta.(i)) in
      if Array.exists Float.is_nan z' then begin
        (* diverged: fall back to the predictor *)
        z := euler_step f t y h;
        converged := true
      end
      else z := z'
    end
  done;
  !z

(* ---- Driver ---- *)

let init_state sys init =
  Array.of_list
    (List.map
       (fun v ->
         match List.assoc_opt v init with
         | Some x -> x
         | None -> invalid_arg (Printf.sprintf "Integrate: missing initial value for %S" v))
       (System.vars sys))

(* ---- Resumable stepper ----

   [advance] runs the integration loop until it accepts one point, and
   [simulate], [simulate_until] and the SMC trace views are consumers of
   it.  The explicit methods run in place on preallocated stage buffers
   (k1..k6) over the in-place field of [System.field]: each stage's
   state and time are written straight into the field's input cells,
   and the state is updated in place, so a step allocates nothing.
   Every linear combination below replicates the expression shape (and
   fold order) of the allocating steppers above, so the accepted points
   are bit-identical to them.  [restart] puts a stepper back at its
   first point with new parameters and a new initial state, so one
   stepper serves any number of trajectories of its system. *)

(* RKF45's step-size factor after an accepted step with relative error
   [err] in [0, 1]: 0.9 * (1/err)^(1/5), capped at 4.  The cap decides
   for every err up to 0.9^5 / 4^5 = 5.7665e-4, so below
   [rkf45_cap_err] = 5.7e-4 the factor is 4 without the power: there
   the uncapped factor is at least 0.9 * (1/5.7e-4)^0.2 = 4.0093, 0.23%
   above the cap, which no rounding of the power (an ulp or two) can
   close.  test_ode checks the shortcut against the power bit for bit
   on either side of the threshold. *)
let rkf45_cap_err = 5.7e-4

let[@inline] rkf45_growth err =
  if err < rkf45_cap_err then 4.0
  else Float.min 4.0 (0.9 *. Float.pow (1.0 /. Float.max err 1e-10) 0.2)

(* The integration clock: an all-float record, so its fields are stored
   flat and updating them allocates nothing. *)
type clock = {
  mutable t : float;
  mutable h : float;
  t_end : float;
  t0 : float;  (* where [restart] puts [t] *)
  h0 : float;  (* and [h] *)
}

type kernel =
  | Fixed of { rk4 : bool; k1 : float array; k2 : float array; k3 : float array;
               k4 : float array }
  | Adaptive of { rtol : float; atol : float; h_max : float; k1 : float array;
                  k2 : float array; k3 : float array; k4 : float array;
                  k5 : float array; k6 : float array; y4 : float array;
                  y5 : float array }
  | Implicit of { newton_iters : int; newton_tol : float;
                  f : float -> float array -> float array }
      (* Newton solves allocate per iteration regardless (residuals,
         Jacobians); an allocating adapter keeps this path simple. *)

type stepper = {
  vars : string list;
  field : System.field;
  cells : float array;  (* the field's inputs *)
  cell_of : int array;  (* state i's cell in [cells]; entry [n] is t's *)
  clock : clock;
  y : float array;  (* the current point's state *)
  kernel : kernel;
  mutable steps : int;  (* points accepted so far *)
  mutable live : bool;  (* false once the loop has ended *)
}

let create ?(t0 = 0.0) ?(method_ = default_rkf45) ~t_end sys =
  let field = System.field sys in
  let cells = System.field_cells field and cell_of = System.field_cell_of field in
  let n = System.dim sys in
  let buf () = Array.make n 0.0 in
  let kernel, h0 =
    match method_ with
    | Euler h0 | Rk4 h0 ->
        let rk4 = match method_ with Rk4 _ -> true | _ -> false in
        (Fixed { rk4; k1 = buf (); k2 = buf (); k3 = buf (); k4 = buf () }, h0)
    | Rkf45 { rtol; atol; h0; h_max } ->
        ( Adaptive { rtol; atol; h_max; k1 = buf (); k2 = buf (); k3 = buf ();
                     k4 = buf (); k5 = buf (); k6 = buf (); y4 = buf (); y5 = buf () },
          h0 )
    | Implicit_euler { h = h0; newton_iters; newton_tol } ->
        let f t y =
          for i = 0 to n - 1 do
            cells.(cell_of.(i)) <- y.(i)
          done;
          cells.(cell_of.(n)) <- t;
          let out = Array.make n 0.0 in
          System.eval_field field out;
          out
        in
        (Implicit { newton_iters; newton_tol; f }, h0)
  in
  { vars = System.vars sys; field; cells; cell_of;
    clock = { t = t0; h = h0; t_end; t0; h0 }; y = buf (); kernel; steps = 0;
    live = false }

let restart st ~params ~init =
  if Array.length init <> Array.length st.y then
    invalid_arg "Integrate.restart: one initial value per state variable";
  System.bind_field st.field params;
  Array.blit init 0 st.y 0 (Array.length init);
  st.clock.t <- st.clock.t0;
  st.clock.h <- st.clock.h0;
  st.steps <- 0;
  st.live <- true

let start ?t0 ?method_ ~params ~init ~t_end sys =
  let params = System.param_values sys params in
  let init = init_state sys init in
  let st = create ?t0 ?method_ ~t_end sys in
  restart st ~params ~init;
  st

let time st = st.clock.t
let state st = st.y
let steps st = st.steps
let stepper_vars st = st.vars

let check_h h0 = if h0 <= 0.0 then invalid_arg "Integrate: step must be positive" else h0

let advance st =
  st.live
  && begin
    let c = st.clock and y = st.y and field = st.field in
    let x = st.cells and cell = st.cell_of in
    let n = Array.length y in
    let tc = cell.(n) in
    (* 0: trying, 1: accepted a point, 2: the loop has ended *)
    let outcome = ref 0 in
    (match st.kernel with
    | Implicit { newton_iters; newton_tol; f } ->
        let h0 = check_h c.h0 in
        if c.t < c.t_end -. 1e-15 then begin
          let h = Float.min h0 (c.t_end -. c.t) in
          let z = implicit_euler_step ~newton_iters ~newton_tol f c.t y h in
          Array.blit z 0 y 0 n;
          c.t <- c.t +. h;
          outcome := 1
        end
        else outcome := 2
    | Fixed { rk4; k1; k2; k3; k4 } ->
        let h0 = check_h c.h0 in
        if c.t < c.t_end -. 1e-15 then begin
          let h = Float.min h0 (c.t_end -. c.t) in
          for i = 0 to n - 1 do
            x.(cell.(i)) <- y.(i)
          done;
          x.(tc) <- c.t;
          System.eval_field field k1;
          (if not rk4 then
             for i = 0 to n - 1 do
               y.(i) <- y.(i) +. (h *. k1.(i))
             done
           else begin
             for i = 0 to n - 1 do
               x.(cell.(i)) <- y.(i) +. ((h /. 2.0) *. k1.(i))
             done;
             x.(tc) <- c.t +. (h /. 2.0);
             System.eval_field field k2;
             for i = 0 to n - 1 do
               x.(cell.(i)) <- y.(i) +. ((h /. 2.0) *. k2.(i))
             done;
             x.(tc) <- c.t +. (h /. 2.0);
             System.eval_field field k3;
             for i = 0 to n - 1 do
               x.(cell.(i)) <- y.(i) +. (h *. k3.(i))
             done;
             x.(tc) <- c.t +. h;
             System.eval_field field k4;
             for i = 0 to n - 1 do
               y.(i) <-
                 y.(i)
                 +. (h /. 6.0 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i)))
             done
           end);
          c.t <- c.t +. h;
          outcome := 1
        end
        else outcome := 2
    | Adaptive { rtol; atol; h_max; k1; k2; k3; k4; k5; k6; y4; y5 } ->
        let safety = 0.9 and h_min = 1e-12 in
        while !outcome = 0 do
          if not (c.t < c.t_end -. 1e-15) then outcome := 2
          else begin
            let hstep = Float.min c.h (c.t_end -. c.t) in
            (* The six stages, with the same fold-order linear
               combinations as [rkf45_step]. *)
            for i = 0 to n - 1 do
              x.(cell.(i)) <- y.(i)
            done;
            x.(tc) <- c.t;
            System.eval_field field k1;
            for i = 0 to n - 1 do
              x.(cell.(i)) <- y.(i) +. (hstep *. (0.0 +. (0.25 *. k1.(i))))
            done;
            x.(tc) <- c.t +. (0.25 *. hstep);
            System.eval_field field k2;
            for i = 0 to n - 1 do
              x.(cell.(i)) <-
                y.(i)
                +. (hstep
                   *. ((0.0 +. (3.0 /. 32.0 *. k1.(i))) +. (9.0 /. 32.0 *. k2.(i))))
            done;
            x.(tc) <- c.t +. (0.375 *. hstep);
            System.eval_field field k3;
            for i = 0 to n - 1 do
              x.(cell.(i)) <-
                y.(i)
                +. (hstep
                   *. (((0.0 +. (1932.0 /. 2197.0 *. k1.(i)))
                        +. (-7200.0 /. 2197.0 *. k2.(i)))
                      +. (7296.0 /. 2197.0 *. k3.(i))))
            done;
            x.(tc) <- c.t +. (12.0 /. 13.0 *. hstep);
            System.eval_field field k4;
            for i = 0 to n - 1 do
              x.(cell.(i)) <-
                y.(i)
                +. (hstep
                   *. ((((0.0 +. (439.0 /. 216.0 *. k1.(i))) +. (-8.0 *. k2.(i)))
                        +. (3680.0 /. 513.0 *. k3.(i)))
                      +. (-845.0 /. 4104.0 *. k4.(i))))
            done;
            x.(tc) <- c.t +. (1.0 *. hstep);
            System.eval_field field k5;
            for i = 0 to n - 1 do
              x.(cell.(i)) <-
                y.(i)
                +. (hstep
                   *. (((((0.0 +. (-8.0 /. 27.0 *. k1.(i))) +. (2.0 *. k2.(i)))
                         +. (-3544.0 /. 2565.0 *. k3.(i)))
                        +. (1859.0 /. 4104.0 *. k4.(i)))
                      +. (-11.0 /. 40.0 *. k5.(i))))
            done;
            x.(tc) <- c.t +. (0.5 *. hstep);
            System.eval_field field k6;
            for i = 0 to n - 1 do
              y4.(i) <-
                y.(i)
                +. hstep
                   *. ((25.0 /. 216.0 *. k1.(i))
                      +. (1408.0 /. 2565.0 *. k3.(i))
                      +. (2197.0 /. 4104.0 *. k4.(i))
                      -. (0.2 *. k5.(i)))
            done;
            for i = 0 to n - 1 do
              y5.(i) <-
                y.(i)
                +. hstep
                   *. ((16.0 /. 135.0 *. k1.(i))
                      +. (6656.0 /. 12825.0 *. k3.(i))
                      +. (28561.0 /. 56430.0 *. k4.(i))
                      -. (9.0 /. 50.0 *. k5.(i))
                      +. (2.0 /. 55.0 *. k6.(i)))
            done;
            (* Error estimate relative to tolerance. *)
            let err = ref 0.0 in
            for i = 0 to n - 1 do
              let sc = atol +. (rtol *. Float.max (Float.abs y.(i)) (Float.abs y4.(i))) in
              let e = Float.abs (y5.(i) -. y4.(i)) /. sc in
              if e > !err then err := e
            done;
            if Float.is_nan !err then begin
              (* Blow-up: shrink aggressively or give up at h_min. *)
              if hstep <= h_min *. 2.0 then outcome := 2
              else c.h <- hstep /. 10.0
            end
            else if !err <= 1.0 then begin
              for i = 0 to n - 1 do
                y.(i) <- y5.(i)
              done;
              c.t <- c.t +. hstep;
              outcome := 1;
              c.h <- Float.min h_max (hstep *. rkf45_growth !err)
            end
            else begin
              let shrink = safety *. Float.pow (1.0 /. !err) 0.25 in
              c.h <- Float.max (h_min *. 2.0) (hstep *. Float.max 0.1 shrink);
              if c.h <= h_min *. 4.0 then begin
                (* Accept a tiny forced step to guarantee progress. *)
                for i = 0 to n - 1 do
                  y.(i) <- y4.(i)
                done;
                c.t <- c.t +. hstep;
                outcome := 1
              end
            end
          end
        done);
    if !outcome = 1 then st.steps <- st.steps + 1 else st.live <- false;
    !outcome = 1
  end

(* Integrate [sys] from [init] over [t0, t_end] into a trace.  [stop]
   may terminate integration early (it sees time and state after each
   accepted step). *)
let simulate_gen ?(t0 = 0.0) ?method_ ?stop ~params ~init ~t_end sys =
  let st = start ~t0 ?method_ ~params ~init ~t_end sys in
  let y0 = Array.copy st.y in
  let times = ref [ t0 ] and states = ref [ y0 ] in
  let should_stop t y = match stop with Some g -> g t y | None -> false in
  if not (should_stop t0 y0) then begin
    let continue_ = ref true in
    while !continue_ && advance st do
      let t = st.clock.t and y = Array.copy st.y in
      times := t :: !times;
      states := y :: !states;
      if should_stop t y then continue_ := false
    done
  end;
  {
    vars = st.vars;
    times = Array.of_list (List.rev !times);
    states = Array.of_list (List.rev !states);
  }

let simulate ?t0 ?method_ ~params ~init ~t_end sys =
  simulate_gen ?t0 ?method_ ~params ~init ~t_end sys

(* ---- Event localization ----

   Simulate until [guard] (a formula over state vars, params and "t")
   becomes true; then bisect the last step to localize the crossing time
   within [tol].  Returns the truncated trace and the crossing event. *)

type event = { time : float; state : float array }

let simulate_until ?t0 ?method_ ?(tol = 1e-9) ~params ~init ~t_end ~guard sys =
  let vars = System.vars sys in
  let holds t y =
    let env =
      (System.time_var, t) :: (params @ List.mapi (fun j v -> (v, y.(j))) vars)
    in
    Expr.Formula.holds_env env guard
  in
  let tr = simulate_gen ?t0 ?method_ ~stop:holds ~params ~init ~t_end sys in
  let n = length tr in
  if n = 0 || not (holds tr.times.(n - 1) tr.states.(n - 1)) then (tr, None)
  else if n = 1 then (tr, Some { time = tr.times.(0); state = tr.states.(0) })
  else begin
    (* Bisect between the last false sample and the first true sample,
       re-integrating the final step for accuracy. *)
    let t_false = tr.times.(n - 2) and y_false = tr.states.(n - 2) in
    let t_true = ref tr.times.(n - 1) and y_true = ref tr.states.(n - 1) in
    let f = System.compile ~param_env:params sys in
    let lo_t = ref t_false and lo_y = ref y_false in
    while !t_true -. !lo_t > tol do
      let mid_t = 0.5 *. (!lo_t +. !t_true) in
      let y_mid = rk4_step f !lo_t !lo_y (mid_t -. !lo_t) in
      if holds mid_t y_mid then begin
        t_true := mid_t;
        y_true := y_mid
      end
      else begin
        lo_t := mid_t;
        lo_y := y_mid
      end
    done;
    (* Truncate the trace at the localized event so that it ends exactly
       when the guard fires (the overshooting sample is replaced). *)
    let tr' =
      {
        tr with
        times = Array.append (Array.sub tr.times 0 (n - 1)) [| !t_true |];
        states = Array.append (Array.sub tr.states 0 (n - 1)) [| !y_true |];
      }
    in
    (tr', Some { time = !t_true; state = !y_true })
  end
