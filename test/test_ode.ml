(* Tests for the ODE substrate: numeric integrators and validated
   enclosures. *)

module I = Interval.Ia
module Box = Interval.Box
module P = Expr.Parse
module Sys = Ode.System
module Int = Ode.Integrate
module Enc = Ode.Enclosure

let decay = Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ]

let decay_k = Sys.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]

let oscillator =
  Sys.of_strings ~vars:[ "x"; "y" ] ~params:[ "w" ]
    ~rhs:[ ("x", "w*y"); ("y", "-w*x") ]

(* ---- System construction ---- *)

let test_system_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "missing equation" (fun () ->
      Sys.of_strings ~vars:[ "x"; "y" ] ~params:[] ~rhs:[ ("x", "-x") ]);
  expect_invalid "unbound name" (fun () ->
      Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-z") ]);
  expect_invalid "duplicate var" (fun () ->
      Sys.of_strings ~vars:[ "x"; "x" ] ~params:[] ~rhs:[ ("x", "-x") ]);
  expect_invalid "var is param" (fun () ->
      Sys.of_strings ~vars:[ "x" ] ~params:[ "x" ] ~rhs:[ ("x", "-x") ]);
  expect_invalid "t reserved" (fun () ->
      Sys.of_strings ~vars:[ "t" ] ~params:[] ~rhs:[ ("t", "1") ]);
  expect_invalid "equation for non-state" (fun () ->
      Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x"); ("y", "1") ])

let test_bind_params () =
  let bound = Sys.bind_params [ ("k", 2.0) ] decay_k in
  Alcotest.(check (list string)) "no params left" [] (Sys.params bound);
  let f = Sys.compile bound in
  Alcotest.(check (float 1e-12)) "rhs at x=3" (-6.0) (f 0.0 [| 3.0 |]).(0)

let test_compile_requires_params () =
  Alcotest.check_raises "unbound param"
    (Invalid_argument "System.compile: parameter \"k\" not bound") (fun () ->
      ignore (Sys.compile decay_k 0.0 [| 1.0 |]))

let test_jacobian () =
  match Sys.jacobian oscillator with
  | [ [ dxx; dxy ]; [ dyx; dyy ] ] ->
      let at = [ ("x", 1.0); ("y", 2.0); ("w", 3.0) ] in
      Alcotest.(check (float 1e-12)) "dfx/dx" 0.0 (Expr.Term.eval_env at dxx);
      Alcotest.(check (float 1e-12)) "dfx/dy" 3.0 (Expr.Term.eval_env at dxy);
      Alcotest.(check (float 1e-12)) "dfy/dx" (-3.0) (Expr.Term.eval_env at dyx);
      Alcotest.(check (float 1e-12)) "dfy/dy" 0.0 (Expr.Term.eval_env at dyy)
  | _ -> Alcotest.fail "jacobian shape"

(* ---- Numeric integration ---- *)

let test_decay_rk4 () =
  let tr =
    Int.simulate ~method_:(Int.Rk4 0.01) ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 decay
  in
  Alcotest.(check (float 1e-6)) "e^-1" (Float.exp (-1.0)) (Int.final_state tr).(0);
  Alcotest.(check (float 1e-9)) "final time" 1.0 (Int.final_time tr)

let test_decay_rkf45 () =
  let tr = Int.simulate ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 decay in
  Alcotest.(check (float 1e-4)) "e^-1 adaptive" (Float.exp (-1.0)) (Int.final_state tr).(0)

let test_integrator_order () =
  (* Euler at the same step should be much less accurate than RK4. *)
  let final m =
    (Int.final_state (Int.simulate ~method_:m ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 decay)).(0)
  in
  let exact = Float.exp (-1.0) in
  let err_euler = Float.abs (final (Int.Euler 0.05) -. exact) in
  let err_rk4 = Float.abs (final (Int.Rk4 0.05) -. exact) in
  Alcotest.(check bool) "rk4 beats euler by 100x" true (err_rk4 *. 100.0 < err_euler)

let test_oscillator_energy () =
  let tr =
    Int.simulate ~method_:(Int.Rk4 0.001) ~params:[ ("w", 2.0) ]
      ~init:[ ("x", 1.0); ("y", 0.0) ] ~t_end:3.0 oscillator
  in
  let final = Int.final_state tr in
  let energy = (final.(0) *. final.(0)) +. (final.(1) *. final.(1)) in
  Alcotest.(check (float 1e-6)) "energy conserved" 1.0 energy;
  (* x(t) = cos(w t) *)
  Alcotest.(check (float 1e-5)) "x = cos(2*3)" (Float.cos 6.0) final.(0)

let test_time_dependent () =
  let sys = Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "t") ] in
  let tr = Int.simulate ~method_:(Int.Rk4 0.01) ~params:[] ~init:[ ("x", 0.0) ] ~t_end:2.0 sys in
  Alcotest.(check (float 1e-6)) "x = t^2/2" 2.0 (Int.final_state tr).(0)

let test_trace_accessors () =
  let tr =
    Int.simulate ~method_:(Int.Rk4 0.1) ~params:[ ("w", 1.0) ]
      ~init:[ ("x", 1.0); ("y", 0.0) ] ~t_end:1.0 oscillator
  in
  Alcotest.(check (float 3e-3)) "value_at interpolates" (Float.cos 0.55)
    (Int.value_at tr "x" 0.55);
  let sig_x = Int.signal tr "x" in
  Alcotest.(check int) "signal length" (Int.length tr) (Array.length sig_x);
  Alcotest.(check (float 0.0)) "signal start" 1.0 sig_x.(0);
  (match Int.env_at tr 0 with
  | env ->
      Alcotest.(check (float 0.0)) "env time" 0.0 (List.assoc "t" env);
      Alcotest.(check (float 0.0)) "env x" 1.0 (List.assoc "x" env));
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Integrate.var_index: unknown \"z\"") (fun () ->
      ignore (Int.value_at tr "z" 0.5))

let test_simulate_until () =
  let guard = P.formula "x <= 1/2" in
  let _, ev =
    Int.simulate_until ~method_:(Int.Rk4 0.01) ~params:[] ~init:[ ("x", 1.0) ]
      ~t_end:5.0 ~guard decay
  in
  match ev with
  | None -> Alcotest.fail "decay reaches 1/2"
  | Some e ->
      Alcotest.(check (float 1e-4)) "crossing at ln 2" (Float.log 2.0) e.Int.time;
      Alcotest.(check (float 1e-4)) "state at crossing" 0.5 e.Int.state.(0)

let test_simulate_until_no_event () =
  let guard = P.formula "x >= 2" in
  let _, ev =
    Int.simulate_until ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 ~guard decay
  in
  Alcotest.(check bool) "no event" true (ev = None)

let test_simulate_until_immediate () =
  let guard = P.formula "x >= 1" in
  let _, ev =
    Int.simulate_until ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 ~guard decay
  in
  match ev with
  | None -> Alcotest.fail "guard true initially"
  | Some e -> Alcotest.(check (float 1e-9)) "event at t=0" 0.0 e.Int.time

let test_solve_linear () =
  (* 2x + y = 5, x - y = 1  =>  x = 2, y = 1 *)
  let x = Int.solve_linear [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] [| 5.0; 1.0 |] in
  Alcotest.(check (float 1e-12)) "x" 2.0 x.(0);
  Alcotest.(check (float 1e-12)) "y" 1.0 x.(1);
  (* pivoting required: zero on the diagonal *)
  let z = Int.solve_linear [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] [| 3.0; 7.0 |] in
  Alcotest.(check (float 1e-12)) "pivot x" 7.0 z.(0);
  Alcotest.(check (float 1e-12)) "pivot y" 3.0 z.(1)

(* Stiff test problem: x' = -1000 (x - cos t) - sin t, exact x = cos t
   from x0 = 1.  Explicit Euler at h = 0.01 has amplification |1 - 10| = 9
   per step and explodes; backward Euler is A-stable. *)
let stiff =
  Sys.of_strings ~vars:[ "x" ] ~params:[]
    ~rhs:[ ("x", "-1000 * (x - cos(t)) - sin(t)") ]

let test_implicit_euler_stiff () =
  let tr =
    Int.simulate ~method_:(Int.default_implicit 0.01) ~params:[]
      ~init:[ ("x", 1.0) ] ~t_end:2.0 stiff
  in
  Alcotest.(check (float 1e-3)) "tracks cos t" (Float.cos 2.0) (Int.final_state tr).(0);
  (* explicit Euler at the same step must blow up *)
  let tr_exp =
    Int.simulate ~method_:(Int.Euler 0.01) ~params:[] ~init:[ ("x", 1.0) ]
      ~t_end:2.0 stiff
  in
  let v = (Int.final_state tr_exp).(0) in
  Alcotest.(check bool) "explicit euler diverges" true
    (Float.is_nan v || Float.abs v > 1e3)

let test_implicit_euler_accuracy_nonstiff () =
  (* On the plain decay problem it should agree with the exact solution
     to first order. *)
  let tr =
    Int.simulate ~method_:(Int.default_implicit 0.001) ~params:[]
      ~init:[ ("x", 1.0) ] ~t_end:1.0 decay
  in
  Alcotest.(check (float 1e-3)) "e^-1" (Float.exp (-1.0)) (Int.final_state tr).(0)

(* ---- Validated enclosures ---- *)

let box1 x lo hi = Box.of_list [ (x, I.make lo hi) ]

let test_enclosure_decay () =
  let tube =
    Enc.flow ~params:Box.empty_map ~init:(box1 "x" 1.0 1.0) ~t_end:1.0 decay
  in
  Alcotest.(check bool) "complete" true tube.Enc.complete;
  let final = Box.find "x" tube.Enc.final in
  Alcotest.(check bool) "contains e^-1" true (I.mem (Float.exp (-1.0)) final);
  Alcotest.(check bool) "reasonably tight" true (I.width final < 0.1)

let test_enclosure_contains_trace () =
  (* Every numerically computed point must lie in the tube. *)
  let tube =
    Enc.flow ~params:Box.empty_map ~init:(box1 "x" 1.0 1.0) ~t_end:1.0 decay
  in
  let ok = ref true in
  for i = 0 to 20 do
    let t = float_of_int i /. 20.0 in
    match Enc.state_at tube t with
    | None -> ok := false
    | Some b -> if not (I.mem (Float.exp (-.t)) (Box.find "x" b)) then ok := false
  done;
  Alcotest.(check bool) "exact solution inside tube" true !ok

let test_enclosure_param_box () =
  (* k ∈ [0.5, 1.5]: the final box must contain e^-k for every k. *)
  let tube =
    Enc.flow
      ~params:(box1 "k" 0.5 1.5)
      ~init:(box1 "x" 1.0 1.0) ~t_end:1.0 decay_k
  in
  Alcotest.(check bool) "complete" true tube.Enc.complete;
  let final = Box.find "x" tube.Enc.final in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "contains e^-%g" k)
        true
        (I.mem (Float.exp (-.k)) final))
    [ 0.5; 0.8; 1.0; 1.2; 1.5 ]

let test_enclosure_orders () =
  let run order =
    let config = { Enc.default_config with order } in
    let tube = Enc.flow ~config ~params:Box.empty_map ~init:(box1 "x" 1.0 1.0) ~t_end:1.0 decay in
    I.width (Box.find "x" tube.Enc.final)
  in
  let w1 = run Enc.Euler_1 and w2 = run Enc.Taylor_2 in
  Alcotest.(check bool) "taylor-2 tighter than euler-1" true (w2 < w1)

let test_enclosure_initial_box () =
  (* An initial box must stay an enclosure of all member trajectories. *)
  let tube =
    Enc.flow ~params:Box.empty_map ~init:(box1 "x" 0.8 1.2) ~t_end:1.0 decay
  in
  let final = Box.find "x" tube.Enc.final in
  List.iter
    (fun x0 ->
      Alcotest.(check bool)
        (Printf.sprintf "x0=%g" x0)
        true
        (I.mem (x0 *. Float.exp (-1.0)) final))
    [ 0.8; 0.9; 1.0; 1.1; 1.2 ]

(* Three-valued truth of a formula along the tube, judged row by row by
   the reach checker's compiled checks. *)
let test_formula_along () =
  let tube =
    Enc.flow ~params:Box.empty_map ~init:(box1 "x" 1.0 1.0) ~t_end:2.0 decay
  in
  let verdicts f =
    let j = Reach.Checker.judge decay (P.formula f) in
    List.init (Enc.length tube.Enc.steps) (fun k ->
        ( Enc.t_lo tube.Enc.steps k,
          Enc.t_hi tube.Enc.steps k,
          Reach.Checker.judge_row j ~params_box:Box.empty_map tube.Enc.steps k ))
  in
  let half = verdicts "x <= 1/2" in
  Alcotest.(check bool) "not true initially" false
    (List.for_all (fun (_, _, v) -> v = Expr.Formula.Certain) half);
  Alcotest.(check bool) "window near ln 2" true
    (List.exists
       (fun (lo, hi, v) ->
         v <> Expr.Formula.Impossible && lo <= Float.log 2.0
         && Float.log 2.0 <= hi +. 0.1)
       half);
  Alcotest.(check bool) "x never reaches 2" true
    (List.for_all (fun (_, _, v) -> v = Expr.Formula.Impossible) (verdicts "x >= 2"));
  Alcotest.(check bool) "x stays positive" true
    (List.for_all (fun (_, _, v) -> v = Expr.Formula.Certain) (verdicts "x > 0"))

(* [state_at] finds the covering steps by binary search; the linear scan
   it replaced is the oracle.  Random tubes with steps of random length
   (zero included), probed at random times, at every step boundary and
   1e-12 to either side of one, and outside the tube. *)
let linear_state_at (tube : Enc.tube) t =
  let s = tube.Enc.steps in
  let covering =
    List.filter
      (fun k -> Enc.t_lo s k -. 1e-12 <= t && t <= Enc.t_hi s k +. 1e-12)
      (List.init (Enc.length s) Fun.id)
  in
  match covering with
  | [] -> None
  | k :: rest ->
      Some
        (List.fold_left (fun acc k -> Box.hull acc (Enc.enclosure s k))
           (Enc.enclosure s k) rest)

let test_state_at_binary_search () =
  let st = Random.State.make [| 71 |] in
  let probes = ref 0 and hits = ref 0 in
  for _ = 1 to 300 do
    let n = Random.State.int st 40 in
    let rows = Enc.builder [ "x"; "y" ] in
    let t = ref (Random.State.float st 2.0 -. 1.0) in
    let itv () =
      let a = Random.State.float st 4.0 -. 2.0 in
      I.make a (a +. Random.State.float st 1.0)
    in
    for _ = 1 to n do
      let h =
        match Random.State.int st 4 with
        | 0 -> 0.0
        | 1 -> 1e-12
        | _ -> Random.State.float st 0.5
      in
      let e = [| itv (); itv () |] in
      Enc.push rows ~t_lo:!t ~t_hi:(!t +. h) e [| itv (); itv () |];
      t := !t +. h
    done;
    let tube =
      { Enc.vars = [ "x"; "y" ]; steps = Enc.contents rows; final = Box.empty_map;
        t_end = !t; complete = true }
    in
    let s = tube.Enc.steps in
    let boundaries =
      List.concat_map
        (fun k -> [ Enc.t_lo s k; Enc.t_hi s k ])
        (List.init (Enc.length s) Fun.id)
    in
    let times =
      List.concat_map (fun b -> [ b; b -. 1e-12; b +. 1e-12; b -. 2e-12; b +. 2e-12 ])
        boundaries
      @ List.init 20 (fun _ -> Random.State.float st 24.0 -. 2.0)
      @ [ nan; infinity; neg_infinity ]
    in
    List.iter
      (fun time ->
        incr probes;
        let want = linear_state_at tube time and got = Enc.state_at tube time in
        if Option.is_some want then incr hits;
        if not (Option.equal Box.equal want got) then
          Alcotest.failf "state_at %h on a %d-step tube: %s, scan %s" time n
            (Option.fold ~none:"None" ~some:Box.to_string got)
            (Option.fold ~none:"None" ~some:Box.to_string want))
      times
  done;
  if !hits < !probes / 2 then
    Alcotest.failf "only %d of %d probes hit a step" !hits !probes

(* A tube stores 4·dim + 2 floats per step in one unboxed array, so a
   long Fenton-Karma tube (dimension 3) takes at most twice that many
   words per step in all, with its variables and final box. *)
let test_tube_layout () =
  let fk = Biomodels.Fenton_karma.automaton () in
  let tube =
    Enc.flow ~params:Box.empty_map ~init:(Hybrid.Automaton.init_box fk) ~t_end:400.0
      (Hybrid.Automaton.mode_system fk Biomodels.Fenton_karma.mode_mid)
  in
  let n = Enc.length tube.Enc.steps and dim = List.length tube.Enc.vars in
  Alcotest.(check bool) (Printf.sprintf "%d steps, at least 1,000" n) true (n >= 1_000);
  let words = Obj.reachable_words (Obj.repr tube) in
  let bound = 2 * ((4 * dim) + 2) * n in
  if words > bound then
    Alcotest.failf "%d words for %d steps at dimension %d: more than %d" words n dim
      bound

let test_enclosure_oscillator () =
  let tube =
    Enc.flow
      ~config:{ Enc.default_config with h = 0.02 }
      ~params:(box1 "w" 1.0 1.0)
      ~init:(Box.of_list [ ("x", I.of_float 1.0); ("y", I.of_float 0.0) ])
      ~t_end:1.5 oscillator
  in
  Alcotest.(check bool) "complete" true tube.Enc.complete;
  Alcotest.(check bool) "contains cos(1.5)" true
    (I.mem (Float.cos 1.5) (Box.find "x" tube.Enc.final))

(* ---- Bit-identity digest of the validated flow ----

   Every step's enclosure and endpoint from [Enc.flow], printed with %h
   and hashed, for two small systems over boxes drawn with SplitMix64.
   The fields use only +, −, ×, ÷ and constants whose squares are exact
   (the Taylor-2 terms fold c² with [Float.pow]), so every bound is
   fixed by IEEE 754 and the digest does not depend on the platform's
   libm.  One system is autonomous, with constant divisors and a
   parameter box; the other reads t.  The TM layer is pinned on, at the
   default monomial budget, so the digest covers the default path
   whatever the environment. *)

let digest_autonomous =
  Sys.of_strings ~vars:[ "x"; "y" ] ~params:[ "k" ]
    ~rhs:
      [ ("x", "x*(1 - x/3.25) - k*x*y/(1.5 + x)");
        ("y", "(x - y)/12.5 + k/2.5") ]

let digest_timed =
  Sys.of_strings ~vars:[ "x"; "y" ] ~params:[]
    ~rhs:[ ("x", "t*y - x/3.25"); ("y", "(t - x*y)/2.5") ]

let flow_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let add_box b =
    List.iter
      (fun (_, i) -> Printf.bprintf buf "%h %h;" (I.lo i) (I.hi i))
      (Box.to_list b)
  in
  let st = ref 29L in
  let draw lo width =
    let a = lo +. Splitmix.float st 1.0 in
    I.make a (a +. Splitmix.float st width)
  in
  List.iter
    (fun sys ->
      for _ = 1 to 3 do
        let init = Box.of_list [ ("x", draw 0.5 0.05); ("y", draw 0.5 0.05) ] in
        let params =
          Box.of_list
            (List.map (fun p -> (p, draw 0.2 0.1)) (Sys.params sys))
        in
        let tube = Enc.flow ~params ~init ~t_end:2.0 sys in
        let s = tube.Enc.steps in
        for k = 0 to Enc.length s - 1 do
          Printf.bprintf buf "%h %h|" (Enc.t_lo s k) (Enc.t_hi s k);
          add_box (Enc.enclosure s k);
          add_box (Enc.at_end s k)
        done;
        Printf.bprintf buf "%h %b|" tube.Enc.t_end tube.Enc.complete
      done)
    [ digest_autonomous; digest_timed ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_flow_digest () =
  let budget0 = Interval.Tm.budget () in
  Interval.Tm.set_enabled true;
  Interval.Tm.set_budget Interval.Tm.default_budget;
  Fun.protect
    ~finally:(fun () ->
      Interval.Tm.clear_enabled_override ();
      Interval.Tm.set_budget budget0)
  @@ fun () ->
  Alcotest.(check string) "flow tubes bit-identical"
    "f160da8d3d70a662c246e0e66a9e3794" (flow_digest ())

(* ---- State widths never fall along a tube ----

   Each Taylor-2 or Euler endpoint box contains, per component,
   [x₀.lo + h·c, x₀.hi + h·c] for any c in both the endpoint's f(X₀)
   and the accepted Picard iteration's f(B), and the derivative at any
   point of X₀ is such a c.  So no step ends narrower than the state it
   started from, which is what lets [Reach.Checker] stop a tube at its
   first state wider than its usability gate's limit.  Random fields
   over x, y, k and sometimes t, with exp, tanh and products, on random
   init and parameter boxes, under both orders and TM on and off.  The
   strict growths are counted so the check cannot pass on tubes that
   never step. *)

let rec rand_field st depth =
  let leaf () =
    match Splitmix.int st 6 with
    | 0 | 1 -> Expr.Term.var "x"
    | 2 -> Expr.Term.var "y"
    | 3 -> Expr.Term.var "k"
    | 4 -> Expr.Term.var Sys.time_var
    | _ -> Expr.Term.const (Splitmix.float st 4.0 -. 2.0)
  in
  if depth = 0 then leaf ()
  else
    let sub () = rand_field st (depth - 1) in
    match Splitmix.int st 7 with
    | 0 -> Expr.Term.add (sub ()) (sub ())
    | 1 -> Expr.Term.sub (sub ()) (sub ())
    | 2 | 3 -> Expr.Term.mul (sub ()) (sub ())
    | 4 -> Expr.Term.exp (sub ())
    | 5 -> Expr.Term.tanh (sub ())
    | _ -> leaf ()

let test_widths_never_fall () =
  let st = ref 53L in
  let draw lo span width =
    let a = lo +. Splitmix.float st span in
    I.make a (a +. Splitmix.float st width)
  in
  let compared = ref 0 and grew = ref 0 in
  for case = 1 to 150 do
    let sys =
      Sys.create ~vars:[ "x"; "y" ] ~params:[ "k" ]
        ~rhs:
          [ ("x", rand_field st (1 + Splitmix.int st 3));
            ("y", rand_field st (1 + Splitmix.int st 3)) ]
    in
    let init = Box.of_list [ ("x", draw (-1.0) 2.0 0.2); ("y", draw (-1.0) 2.0 0.2) ] in
    let params = Box.of_list [ ("k", draw (-1.0) 2.0 0.5) ] in
    List.iter
      (fun (order, tm) ->
        Interval.Tm.set_enabled tm;
        let tube =
          Fun.protect ~finally:Interval.Tm.clear_enabled_override
            (fun () ->
              Enc.flow ~config:{ Enc.default_config with order } ~params ~init
                ~t_end:1.0 sys)
        in
        let s = tube.Enc.steps in
        ignore
          (List.fold_left
             (fun start k ->
               let at_end = Enc.at_end s k in
               List.iter
                 (fun v ->
                   let w0 = I.width (Box.find v start)
                   and w1 = I.width (Box.find v at_end) in
                   incr compared;
                   if w1 > w0 then incr grew
                   else if not (w1 >= w0) then
                     Alcotest.failf
                       "case %d (order %s, tm %b): %s narrowed from %h to %h at t=%g"
                       case
                       (if order = Enc.Euler_1 then "1" else "2")
                       tm v w0 w1 (Enc.t_hi s k))
                 [ "x"; "y" ];
               at_end)
             init
             (List.init (Enc.length s) Fun.id)))
      (List.concat_map
         (fun order -> List.map (fun tm -> (order, tm)) [ true; false ])
         [ Enc.Euler_1; Enc.Taylor_2 ])
  done;
  if !compared < 20_000 || !grew < !compared / 2 then
    Alcotest.failf "only %d widths compared, %d grew: the draw is too weak"
      !compared !grew

(* ---- Flows contain true trajectories ----

   Every step of a default [Enc.flow] tube must hold the trajectories it
   encloses.  From 17 points of the initial and parameter box (its
   midpoint and 16 SplitMix64 draws), an accurate RKF45 run restarts at
   each step's t_lo from the state the run reached at the previous
   step's t_hi: every point it accepts must lie in the step's enclosure,
   and its state at t_hi in the step's end box.  The cases are FK's
   three modes, TBI's m0 and mA, and the logistic flow over a box of
   rates.  An endpoint without its Taylor-2 remainder (h²/2)·f′(B) fails
   it on FK's high mode. *)

let logistic = Sys.of_strings ~vars:[ "x" ] ~params:[ "r" ] ~rhs:[ ("x", "r*x*(1 - x)") ]

let itv = List.map (fun (x, lo, hi) -> (x, I.make lo hi))

(* FK's three modes and TBI's modes (at fixed thresholds) as
   [(name, automaton, mode, init, t_end)], each from a box inside or at
   the edge of its invariant. *)
let fk_modes =
  let module Fk = Biomodels.Fenton_karma in
  let fk = Fk.automaton () in
  let init (u_lo, u_hi) (lo, hi) = itv [ ("u", u_lo, u_hi); ("v", lo, hi); ("w", lo, hi) ] in
  [ ("FK low", fk, Fk.mode_low, init (0.0, 0.01) (0.95, 1.0), 50.0);
    ("FK mid", fk, Fk.mode_mid, init (0.08, 0.09) (0.9, 0.91), 50.0);
    ("FK high", fk, Fk.mode_high, init (0.5, 0.51) (0.9, 0.91), 50.0) ]

let tbi_modes =
  let tbi = Biomodels.Tbi.automaton ~theta1:(`Fixed 0.8) ~theta2:(`Fixed 0.9) () in
  let init =
    itv
      (("clox", 0.5, 0.52)
      :: List.map (fun v -> (v, 0.1, 0.11)) [ "rip3"; "casp3"; "lip"; "il"; "par" ])
  in
  List.map
    (fun q -> ("TBI " ^ q, tbi, q, init, 10.0))
    (Hybrid.Automaton.mode_names tbi)

let test_flows_contain_trajectories () =
  let module Tbi = Biomodels.Tbi in
  let rkf45 = Int.Rkf45 { rtol = 1e-10; atol = 1e-12; h0 = 1e-3; h_max = 0.05 } in
  let mode (name, a, q, init, t_end) =
    (name, Hybrid.Automaton.mode_system a q, [], init, t_end)
  in
  let tbi q = List.find (fun (_, _, q', _, _) -> String.equal q q') tbi_modes in
  let cases =
    List.map mode fk_modes
    @ [ mode (tbi Tbi.mode0); mode (tbi Tbi.mode_a);
        ("logistic", logistic, itv [ ("r", 0.9, 1.1) ], itv [ ("x", 0.1, 0.12) ], 5.0) ]
  in
  let st = ref 67L in
  List.iter
    (fun (name, sys, params, init, t_end) ->
      let tube = Enc.flow ~params:(Box.of_list params) ~init:(Box.of_list init) ~t_end sys in
      let s = tube.Enc.steps and vars = Sys.vars sys in
      if Enc.length s = 0 then Alcotest.failf "%s: the tube has no step" name;
      for p = 0 to 16 do
        let draw =
          List.map (fun (x, i) ->
              (x, if p = 0 then I.mid i else I.lo i +. Splitmix.float st (I.width i)))
        in
        let params = draw params in
        let state = ref (Array.of_list (List.map snd (draw init))) in
        for k = 0 to Enc.length s - 1 do
          let inside what box t (x : float array) =
            List.iteri
              (fun i v ->
                let b = Box.find v box in
                if not (I.mem x.(i) b) then
                  Alcotest.failf "%s, point %d, step %d: %s = %h at t = %g outside the \
                                  %s [%h, %h]"
                    name p k v x.(i) t what (I.lo b) (I.hi b))
              vars
          in
          let tr =
            Int.simulate ~t0:(Enc.t_lo s k) ~method_:rkf45 ~params
              ~init:(List.combine vars (Array.to_list !state)) ~t_end:(Enc.t_hi s k) sys
          in
          let enclosure = Enc.enclosure s k in
          Array.iteri (fun j t -> inside "enclosure" enclosure t tr.Int.states.(j)) tr.Int.times;
          state := Int.final_state tr;
          inside "end box" (Enc.at_end s k) (Int.final_time tr) !state
        done
      done)
    cases

(* ---- A flow that stops where [until] says ----

   [Enc.flow ~until] gives the uncut tube's rows, bit for bit, up to and
   including the first step [until] accepts, and ends there, complete,
   at that step's t_hi and end state; [until] is called once per step
   with the window and enclosure the row stores.  The predicates: one
   that never fires (the uncut tube), the first, a middle and the last
   step, and the reach checker's stop, the mode invariant certainly
   left on the step's box ([eval_cert] gives [Impossible]).  FK's three
   modes and every TBI mode. *)

let hex_box b =
  String.concat ";"
    (List.map (fun (_, i) -> Printf.sprintf "%h %h" (I.lo i) (I.hi i)) (Box.to_list b))

(* A step's window and enclosure. *)
let hex_window t_lo t_hi b = Printf.sprintf "%h %h|%s" t_lo t_hi (hex_box b)

let hex_row s k =
  hex_window (Enc.t_lo s k) (Enc.t_hi s k) (Enc.enclosure s k)
  ^ "|" ^ hex_box (Enc.at_end s k)

let hex_rows s = List.init (Enc.length s) (hex_row s)

let test_flow_until () =
  let invariant_cuts = ref 0 in
  List.iter
    (fun (name, a, q, init, t_end) ->
      let sys = Hybrid.Automaton.mode_system a q in
      let vars = Sys.vars sys in
      let flow until =
        Enc.flow ?until ~params:Box.empty_map ~init:(Box.of_list init) ~t_end sys
      in
      let full = flow None in
      let s = full.Enc.steps in
      let n = Enc.length s in
      if n = 0 then Alcotest.failf "%s: the tube has no step" name;
      (* Flows with [stop k ~t_lo ~t_hi box] as [until], k counting the
         calls from 0, and checks the tube against the uncut one. *)
      let check what stop =
        let name = Printf.sprintf "%s, %s" name what in
        let calls = ref 0 and fired = ref None in
        let until ~t_lo ~t_hi (enc : I.t array) =
          let k = !calls in
          incr calls;
          let b = Box.of_list (List.mapi (fun i v -> (v, enc.(i))) vars) in
          let want = hex_window (Enc.t_lo s k) (Enc.t_hi s k) (Enc.enclosure s k)
          and got = hex_window t_lo t_hi b in
          if got <> want then
            Alcotest.failf "%s: step %d's window and enclosure %s, row %s" name k got want;
          let stop = stop k ~t_lo ~t_hi b in
          if stop then fired := Some k;
          stop
        in
        let tube = flow (Some until) in
        let rows, complete, t_end, final =
          match !fired with
          | None -> (n, full.Enc.complete, full.Enc.t_end, full.Enc.final)
          | Some k -> (k + 1, true, Enc.t_hi s k, Enc.at_end s k)
        in
        Alcotest.(check (list string)) (name ^ ": rows")
          (List.filteri (fun k _ -> k < rows) (hex_rows s))
          (hex_rows tube.Enc.steps);
        Alcotest.(check int) (name ^ ": one call per step") rows !calls;
        Alcotest.(check (pair bool string)) (name ^ ": end")
          (complete, Printf.sprintf "%h %s" t_end (hex_box final))
          (tube.Enc.complete, Printf.sprintf "%h %s" tube.Enc.t_end (hex_box tube.Enc.final));
        !fired
      in
      ignore (check "never" (fun _ ~t_lo:_ ~t_hi:_ _ -> false));
      List.iter
        (fun j ->
          if check (Printf.sprintf "step %d" j) (fun k ~t_lo:_ ~t_hi:_ _ -> k = j) <> Some j
          then Alcotest.failf "%s: no stop at step %d" name j)
        [ 0; n / 2; n - 1 ];
      let inv = (Hybrid.Automaton.find_mode a q).Hybrid.Automaton.invariant in
      let leaves _ ~t_lo ~t_hi b =
        Expr.Formula.eval_cert (Box.set Sys.time_var (I.make t_lo t_hi) b) inv
        = Expr.Formula.Impossible
      in
      if check "invariant left" leaves <> None then incr invariant_cuts)
    (fk_modes @ tbi_modes);
  Alcotest.(check bool)
    (Printf.sprintf "the invariant cuts %d tubes" !invariant_cuts)
    true (!invariant_cuts > 0)

(* ---- Bit-identity digest of the numeric integrators ----

   Every point of [Int.simulate] traces under all four methods, and the
   trace and event of [Int.simulate_until], printed with %h and hashed.
   The expected value was computed before the integration loop became
   a resumable stepper: splitting the loop must not move a point.  The
   systems are the two of the flow digest, a blow-up (x' = x², where
   RKF45 forces tiny y4 steps through the singularity) and a square
   root that turns NaN when the state crosses zero (the max-norm error
   estimate skips NaN components, so the NaN points are accepted up to
   [t_end]).  RKF45's step control calls [Float.pow]. *)

let blow_up = Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "x^2") ]
let sqrt_drain = Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-sqrt(x)") ]

let integrator_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let add_trace tr =
    Array.iteri
      (fun i t ->
        Printf.bprintf buf "%h:" t;
        Array.iter (fun v -> Printf.bprintf buf "%h," v) tr.Int.states.(i);
        Buffer.add_char buf ';')
      tr.Int.times;
    Buffer.add_char buf '|'
  in
  let methods =
    [ Int.Euler 0.05; Int.Rk4 0.05; Int.default_rkf45; Int.default_implicit 0.05;
      Int.Rkf45 { rtol = 1e-3; atol = 1e-6; h0 = 0.5; h_max = 1.0 } ]
  in
  let st = ref 31L in
  let init sys = List.map (fun v -> (v, 0.4 +. Splitmix.float st 0.4)) (Sys.vars sys) in
  let params sys = List.map (fun p -> (p, 0.2 +. Splitmix.float st 0.1)) (Sys.params sys) in
  List.iter
    (fun method_ ->
      List.iter
        (fun (sys, t_end) ->
          add_trace (Int.simulate ~method_ ~params:(params sys) ~init:(init sys) ~t_end sys))
        [ (digest_autonomous, 2.0); (digest_timed, 2.0); (blow_up, 3.0); (sqrt_drain, 3.0) ];
      add_trace
        (Int.simulate ~t0:0.5 ~method_ ~params:[] ~init:[ ("x", 1.0) ] ~t_end:2.0 blow_up);
      List.iter
        (fun (sys, guard) ->
          let tr, ev =
            Int.simulate_until ~method_ ~params:(params sys) ~init:(init sys) ~t_end:3.0
              ~guard:(P.formula guard) sys
          in
          add_trace tr;
          match ev with
          | None -> Buffer.add_string buf "none|"
          | Some e ->
              Printf.bprintf buf "%h:" e.Int.time;
              Array.iter (fun v -> Printf.bprintf buf "%h," v) e.Int.state;
              Buffer.add_char buf '|')
        [ (digest_timed, "x*y >= 0.5"); (digest_autonomous, "y >= 2");
          (sqrt_drain, "x <= 0.25"); (blow_up, "x >= 0") ])
    methods;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_integrator_digest () =
  Alcotest.(check string) "integrator traces bit-identical"
    "c1d35c1eb1508e40e11a2486f9da502f" (integrator_digest ())

(* ---- The in-place field and the restarted stepper ---- *)

let same_bits what got want =
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float want.(i) then
        Alcotest.failf "%s, component %d: %h, expected %h" what i v want.(i))
    got

(* [System.field] driven as the steppers drive it (each state value and
   the time written straight into its cell, then an evaluation) must
   give what [System.compile_into] gives and what a full
   [Expr.Tape.eval_floats_into] pass gives, bit for bit, on every field
   of the model library.  The field's parameters are bound again
   between batches of calls, so a stale parameter slot would show. *)
let test_in_place_field () =
  let st = ref 71L in
  let draw () = Splitmix.float st 4.0 -. 1.0 in
  List.iteri
    (fun k sys ->
      let n = Sys.dim sys in
      let fld = Sys.field sys in
      let cells = Sys.field_cells fld and cell_of = Sys.field_cell_of fld in
      let tp = Sys.rhs_tape sys in
      let sc = Expr.Tape.scratch tp in
      for _ = 1 to 4 do
        let param_env = List.map (fun p -> (p, draw ())) (Sys.params sys) in
        let values = Sys.param_values sys param_env in
        Sys.bind_field fld values;
        let f = Sys.compile_into ~param_env sys in
        for _ = 1 to 25 do
          let state = Array.init n (fun _ -> draw ()) and t = draw () in
          Array.iteri (fun i v -> cells.(cell_of.(i)) <- v) state;
          cells.(cell_of.(n)) <- t;
          let got = Array.make n 0.0 and want = Array.make n 0.0 in
          Sys.eval_field fld got;
          f t state want;
          let what = Printf.sprintf "field %d" k in
          same_bits (what ^ " vs compile_into") got want;
          let full = Array.make n 0.0 in
          Expr.Tape.eval_floats_into tp sc
            ~inputs:(Array.concat [ state; values; [| t |] ])
            ~out:full;
          same_bits (what ^ " vs a full tape pass") got full
        done
      done)
    (Fields.all ())

(* RKF45's growth factor takes the cap of 4 without [Float.pow] below
   [rkf45_cap_err]; it must equal the power's capped value bit for bit
   at err = 0, on 10^6 random errors below the threshold (half of them
   log-uniform, down past the 1e-10 clamp), on the 10^5 floats just
   under it, and above it, where the power decides. *)
let test_rkf45_growth () =
  let power err = Float.min 4.0 (0.9 *. Float.pow (1.0 /. Float.max err 1e-10) 0.2) in
  let check err =
    let got = Int.rkf45_growth err and want = power err in
    if Int64.bits_of_float got <> Int64.bits_of_float want then
      Alcotest.failf "err %h: %h, the power gives %h" err got want
  in
  let cap = Int.rkf45_cap_err in
  check 0.0;
  let st = ref 97L in
  for i = 1 to 1_000_000 do
    check
      (if i land 1 = 0 then Splitmix.float st cap
       else cap *. Float.pow 10.0 (-.Splitmix.float st 16.0))
  done;
  let e = ref (Float.pred cap) in
  for _ = 1 to 100_000 do
    check !e;
    e := Float.pred !e
  done;
  let e = ref cap in
  for _ = 1 to 100_000 do
    check !e;
    e := Float.succ !e
  done;
  for _ = 1 to 100_000 do
    check (cap +. Splitmix.float st (1.0 -. cap))
  done;
  Alcotest.(check bool) "the cap decides below the threshold" true (power (Float.pred cap) = 4.0);
  Alcotest.(check bool) "the power decides at 5.77e-4" true (power 5.77e-4 < 4.0)

(* A stepper restarted in place, with new parameters and a new initial
   state, mid-trajectory or after its end, accepts the same points as a
   fresh [start], bit for bit, under every method; a created stepper
   has no point to advance from until its first restart. *)
let test_restart_stepper () =
  let points st =
    let acc = ref [ (Int.time st, Array.copy (Int.state st)) ] in
    while Int.advance st do
      acc := (Int.time st, Array.copy (Int.state st)) :: !acc
    done;
    List.rev !acc
  in
  let st = ref 43L in
  let env names = List.map (fun x -> (x, 0.2 +. Splitmix.float st 1.0)) names in
  let methods =
    [ Int.Euler 0.05; Int.Rk4 0.05; Int.default_rkf45; Int.default_implicit 0.05;
      Int.Rkf45 { rtol = 1e-3; atol = 1e-6; h0 = 0.5; h_max = 1.0 } ]
  in
  List.iter
    (fun method_ ->
      List.iter
        (fun (sys, t_end) ->
          let stepper =
            Int.start ~method_ ~params:(env (Sys.params sys)) ~init:(env (Sys.vars sys))
              ~t_end sys
          in
          for round = 0 to 3 do
            (* leave the last trajectory part way, or at its end *)
            let k = if round = 3 then max_int else Splitmix.int st 40 in
            let i = ref 0 in
            while !i < k && Int.advance stepper do
              incr i
            done;
            let params = env (Sys.params sys) and init = env (Sys.vars sys) in
            Int.restart stepper ~params:(Sys.param_values sys params)
              ~init:(Array.of_list (List.map snd init));
            let fresh = Int.start ~method_ ~params ~init ~t_end sys in
            let a = points stepper and b = points fresh in
            let what = Fmt.str "%a, round %d" Sys.pp sys round in
            Alcotest.(check int) (what ^ ": points") (List.length b) (List.length a);
            List.iter2
              (fun (ta, ya) (tb, yb) ->
                same_bits what [| ta |] [| tb |];
                same_bits what ya yb)
              a b;
            Alcotest.(check int) (what ^ ": steps") (Int.steps fresh) (Int.steps stepper)
          done)
        [ (decay_k, 2.0); (oscillator, 3.0); (Biomodels.Classics.p53_mdm2, 30.0);
          (Biomodels.Classics.lotka_volterra, 5.0) ])
    methods;
  let idle = Int.create ~t_end:1.0 oscillator in
  Alcotest.(check bool) "no point before the first restart" false (Int.advance idle)

(* ---- Properties ---- *)

let prop_enclosure_contains_exact =
  let gen =
    QCheck.Gen.(
      float_range (-1.0) 0.5 >>= fun a ->
      float_range 0.5 2.0 >>= fun x0 -> return (a, x0))
  in
  QCheck.Test.make ~count:50 ~name:"linear flow enclosure contains exact solution"
    (QCheck.make ~print:(fun (a, x0) -> Printf.sprintf "a=%g x0=%g" a x0) gen)
    (fun (a, x0) ->
      let sys = Sys.of_strings ~vars:[ "x" ] ~params:[ "a" ] ~rhs:[ ("x", "a*x") ] in
      let tube =
        Enc.flow
          ~params:(box1 "a" a a)
          ~init:(box1 "x" x0 x0)
          ~t_end:1.0 sys
      in
      (not tube.Enc.complete)
      || I.mem (x0 *. Float.exp a) (Box.find "x" tube.Enc.final))

let prop_rk4_matches_exact_linear =
  let gen = QCheck.Gen.float_range (-2.0) 1.0 in
  QCheck.Test.make ~count:50 ~name:"rk4 solves linear ODEs accurately"
    (QCheck.make ~print:string_of_float gen)
    (fun a ->
      let sys = Sys.of_strings ~vars:[ "x" ] ~params:[ "a" ] ~rhs:[ ("x", "a*x") ] in
      let tr =
        Int.simulate ~method_:(Int.Rk4 0.01) ~params:[ ("a", a) ] ~init:[ ("x", 1.0) ]
          ~t_end:1.0 sys
      in
      Float.abs ((Int.final_state tr).(0) -. Float.exp a) < 1e-5)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_enclosure_contains_exact; prop_rk4_matches_exact_linear ]

let () =
  Alcotest.run "ode"
    [
      ( "system",
        [
          Alcotest.test_case "validation" `Quick test_system_validation;
          Alcotest.test_case "bind params" `Quick test_bind_params;
          Alcotest.test_case "compile requires params" `Quick test_compile_requires_params;
          Alcotest.test_case "jacobian" `Quick test_jacobian;
        ] );
      ( "integrate",
        [
          Alcotest.test_case "decay rk4" `Quick test_decay_rk4;
          Alcotest.test_case "decay rkf45" `Quick test_decay_rkf45;
          Alcotest.test_case "integrator order" `Quick test_integrator_order;
          Alcotest.test_case "oscillator energy" `Quick test_oscillator_energy;
          Alcotest.test_case "time dependent" `Quick test_time_dependent;
          Alcotest.test_case "trace accessors" `Quick test_trace_accessors;
          Alcotest.test_case "linear solver" `Quick test_solve_linear;
          Alcotest.test_case "implicit euler stiff" `Quick test_implicit_euler_stiff;
          Alcotest.test_case "implicit euler accuracy" `Quick test_implicit_euler_accuracy_nonstiff;
          Alcotest.test_case "event localization" `Quick test_simulate_until;
          Alcotest.test_case "no event" `Quick test_simulate_until_no_event;
          Alcotest.test_case "immediate event" `Quick test_simulate_until_immediate;
          Alcotest.test_case "traces match committed digest" `Quick test_integrator_digest;
          Alcotest.test_case "in-place field = compile_into" `Quick test_in_place_field;
          Alcotest.test_case "rkf45 growth shortcut = power" `Quick test_rkf45_growth;
          Alcotest.test_case "restarted stepper = fresh start" `Quick test_restart_stepper;
        ] );
      ( "enclosure",
        [
          Alcotest.test_case "decay" `Quick test_enclosure_decay;
          Alcotest.test_case "contains trace" `Quick test_enclosure_contains_trace;
          Alcotest.test_case "parameter box" `Quick test_enclosure_param_box;
          Alcotest.test_case "order comparison" `Quick test_enclosure_orders;
          Alcotest.test_case "initial box" `Quick test_enclosure_initial_box;
          Alcotest.test_case "formula along tube" `Quick test_formula_along;
          Alcotest.test_case "oscillator" `Quick test_enclosure_oscillator;
          Alcotest.test_case "flow tubes match committed digest" `Quick
            test_flow_digest;
          Alcotest.test_case "widths never fall" `Quick test_widths_never_fall;
          Alcotest.test_case "state_at = linear scan" `Quick test_state_at_binary_search;
          Alcotest.test_case "tube rows layout" `Quick test_tube_layout;
          Alcotest.test_case "flows contain RKF45 trajectories" `Quick
            test_flows_contain_trajectories;
          Alcotest.test_case "until = uncut prefix" `Quick test_flow_until;
        ] );
      ("properties", qcheck_tests);
    ]
