(* Tests for the statistical model checking branch: BLTL monitoring,
   sampling, SPRT, estimation, and the end-to-end runner. *)

module L = Smc.Bltl
module Sa = Smc.Sampler
module Sp = Smc.Sprt
module Es = Smc.Estimate
module R = Smc.Runner

let decay = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ]

let decay_trace ?(x0 = 1.0) ?(t_end = 2.0) () =
  Ode.Integrate.simulate ~method_:(Ode.Integrate.Rk4 0.01) ~params:[]
    ~init:[ ("x", x0) ] ~t_end decay

(* ---- BLTL semantics ---- *)

let test_bltl_prop () =
  let view = L.of_trace (decay_trace ()) in
  Alcotest.(check bool) "x>0.9 initially" true (L.holds view (L.prop "x > 0.9"));
  Alcotest.(check bool) "x<0.9 fails initially" false (L.holds view (L.prop "x < 0.9"))

let test_bltl_finally () =
  let view = L.of_trace (decay_trace ()) in
  Alcotest.(check bool) "F[1] x <= 0.5" true
    (L.holds view (L.Finally (1.0, L.prop "x <= 0.5")));
  Alcotest.(check bool) "F[0.5] x <= 0.5 fails (ln 2 > 0.5)" false
    (L.holds view (L.Finally (0.5, L.prop "x <= 0.5")));
  Alcotest.(check bool) "F[2] x <= 0.2" true
    (L.holds view (L.Finally (2.0, L.prop "x <= 0.2")))

let test_bltl_globally () =
  let view = L.of_trace (decay_trace ()) in
  Alcotest.(check bool) "G[2] x > 0" true (L.holds view (L.Globally (2.0, L.prop "x > 0")));
  Alcotest.(check bool) "G[1] x >= 0.5 fails" false
    (L.holds view (L.Globally (1.0, L.prop "x >= 0.5")));
  Alcotest.(check bool) "G[0.5] x >= 0.5" true
    (L.holds view (L.Globally (0.5, L.prop "x >= 0.5")))

let test_bltl_until () =
  let view = L.of_trace (decay_trace ()) in
  (* x stays above 0.4 until it dips below 0.5 (which happens at ln 2) *)
  Alcotest.(check bool) "until holds" true
    (L.holds view (L.Until (1.0, L.prop "x >= 0.4", L.prop "x <= 0.5")));
  (* bound too small: the release event is not reached *)
  Alcotest.(check bool) "until bound too small" false
    (L.holds view (L.Until (0.3, L.prop "x >= 0.4", L.prop "x <= 0.5")))

let test_bltl_boolean () =
  let view = L.of_trace (decay_trace ()) in
  let f = L.And (L.prop "x > 0.9", L.Not (L.prop "x > 2")) in
  Alcotest.(check bool) "and/not" true (L.holds view f);
  Alcotest.(check bool) "implies" true
    (L.holds view (L.Implies (L.prop "x > 2", L.prop "x < 0")));
  Alcotest.(check bool) "or" true
    (L.holds view (L.Or (L.prop "x > 2", L.prop "x > 0.5")))

let test_bltl_next () =
  let view = L.of_trace (decay_trace ()) in
  (* one RK4 step of 0.01: x decreases *)
  Alcotest.(check bool) "next sees a smaller x" true
    (L.holds view (L.Next (L.prop "x < 1")))

let test_bltl_horizon () =
  Alcotest.(check (float 1e-12)) "nested horizon" 3.0
    (L.horizon (L.Finally (1.0, L.Globally (2.0, L.prop "x > 0"))));
  Alcotest.(check (float 1e-12)) "until horizon" 2.5
    (L.horizon (L.Until (0.5, L.prop "x > 0", L.Globally (2.0, L.prop "x > 0"))))

let test_bltl_robustness () =
  let view = L.of_trace (decay_trace ()) in
  let r = L.robustness view (L.Globally (1.0, L.prop "x > 0.1")) in
  (* min over [0,1] of x - 0.1 = e^-1 - 0.1 ≈ 0.268 *)
  Alcotest.(check bool) "robustness value" true (Float.abs (r -. (Float.exp (-1.0) -. 0.1)) < 0.01);
  let neg = L.robustness view (L.Globally (1.0, L.prop "x > 0.5")) in
  Alcotest.(check bool) "violated has negative robustness" true (neg < 0.0);
  (* Not flips the sign *)
  Alcotest.(check (float 1e-9)) "negation flips" (-.r)
    (L.robustness view (L.Not (L.Globally (1.0, L.prop "x > 0.1"))))

let test_bltl_trajectory_view () =
  (* two-mode trajectory: the view must stitch global time correctly *)
  let h =
    Hybrid.Automaton.create ~vars:[ "x" ] ~params:[]
      ~modes:
        [ Hybrid.Automaton.mode ~name:"up" ~flow:[ ("x", Expr.Parse.term "1") ] ();
          Hybrid.Automaton.mode ~name:"down" ~flow:[ ("x", Expr.Parse.term "-1") ] () ]
      ~jumps:
        [ Hybrid.Automaton.jump ~source:"up" ~target:"down"
            ~guard:(Expr.Parse.formula "x >= 1") () ]
      ~init_mode:"up"
      ~init:(Interval.Box.of_list [ ("x", Interval.Ia.of_float 0.0) ])
  in
  let traj = Hybrid.Simulate.simulate ~params:[] ~init:[] ~t_end:2.0 h in
  let view = L.of_trajectory traj in
  Alcotest.(check bool) "peak reached" true
    (L.holds view (L.Finally (1.5, L.prop "x >= 0.99")));
  Alcotest.(check bool) "eventually back down" true
    (L.holds view (L.Finally (2.0, L.prop "x <= 0.2")));
  Alcotest.(check bool) "never above 1.1" false
    (L.holds view (L.Finally (2.0, L.prop "x >= 1.1")))

(* ---- Streamed views agree with stored traces ----

   A streamed view reads its points from an [Ode.Integrate] stepper on
   demand; a stored view holds the whole [Ode.Integrate.simulate] trace.  On random systems
   (1-3 state variables, two parameters, one field reading t, SplitMix64
   initial states, all four methods) and random formulas over all nine
   constructors up to depth 3, both must give the same verdict and a
   bit-identical robustness degree, and the streamed view must never
   hold more points than the trace.  Atom thresholds are state values
   and times taken from the trace, and bounds include exact offsets
   between point times, horizons past t_end and 0, so the ties of
   [t_j - t_i > b] and of [>=] against [>] are exercised; evaluating at
   the last point makes [Next] stutter. *)

module T = Expr.Term
module F = Expr.Formula
module P = Expr.Parse

let streamed ?(params = []) ?method_ ~init ~t_end sys =
  let view = L.streaming () in
  L.stream ~params view (Ode.Integrate.start ?method_ ~params ~init ~t_end sys);
  view

let rand_system st =
  let k = 1 + Splitmix.int st 3 in
  let vars = List.init k (fun i -> Printf.sprintf "x%d" i) in
  let coef () = T.const (Splitmix.float st 1.0 -. 0.5) in
  let rhs =
    List.mapi
      (fun i v ->
        let next = T.var (List.nth vars ((i + 1) mod k)) in
        let base =
          T.add
            (T.mul (T.neg (T.var "a")) (T.var v))
            (T.add (T.mul (T.var "b") next) (T.mul (coef ()) (T.pow (T.var v) 3)))
        in
        (v, if i = 0 then T.add base (T.mul (coef ()) (T.sin (T.var "t"))) else base))
      vars
  in
  Ode.System.create ~vars ~params:[ "a"; "b" ] ~rhs

let rand_method st =
  match Splitmix.int st 5 with
  | 0 -> Ode.Integrate.Euler (0.05 +. Splitmix.float st 0.2)
  | 1 -> Ode.Integrate.Rk4 (0.05 +. Splitmix.float st 0.3)
  | 2 -> Ode.Integrate.default_implicit (0.05 +. Splitmix.float st 0.2)
  | 3 -> Ode.Integrate.Rkf45 { rtol = 1e-4; atol = 1e-7; h0 = 0.01; h_max = 0.5 }
  | _ -> Ode.Integrate.default_rkf45

(* A random atom over the trace's variables, t and the parameter a,
   its threshold a value the trace takes. *)
let rand_atom st (tr : Ode.Integrate.trace) =
  let n = Ode.Integrate.length tr in
  let vars = Array.of_list tr.Ode.Integrate.vars in
  let point () = Splitmix.int st n in
  let state_var () =
    let j = Splitmix.int st (Array.length vars) in
    (T.var vars.(j), fun i -> tr.Ode.Integrate.states.(i).(j))
  in
  let rel = if Splitmix.int st 2 = 0 then F.ge else F.gt in
  let flip a b = if Splitmix.int st 2 = 0 then rel a b else rel b a in
  match Splitmix.int st 4 with
  | 0 ->
      let x, value = state_var () in
      flip x (T.const (value (point ())))
  | 1 ->
      let x, vx = state_var () and y, vy = state_var () in
      let i = point () in
      flip (T.sub x y) (T.const (vx i -. vy i))
  | 2 -> flip (T.var "t") (T.const tr.Ode.Integrate.times.(point ()))
  | _ ->
      let x, value = state_var () in
      flip (T.mul (T.var "a") x) (T.const (value (point ()) *. 0.5))

let rand_formula st (tr : Ode.Integrate.trace) ~t_end =
  let n = Ode.Integrate.length tr in
  let point () = Splitmix.int st n in
  let atom () = rand_atom st tr in
  let bound () =
    match Splitmix.int st 5 with
    | 0 ->
        let i = point () and j = point () in
        let i, j = (Stdlib.min i j, Stdlib.max i j) in
        tr.Ode.Integrate.times.(j) -. tr.Ode.Integrate.times.(i)
    | 1 -> t_end +. 1.0 +. Splitmix.float st t_end
    | 2 -> 0.0
    | _ -> Splitmix.float st t_end
  in
  let rec go d =
    if d = 0 || Splitmix.int st 5 = 0 then L.Prop (atom ())
    else
      match Splitmix.int st 8 with
      | 0 -> L.Not (go (d - 1))
      | 1 -> L.And (go (d - 1), go (d - 1))
      | 2 -> L.Or (go (d - 1), go (d - 1))
      | 3 -> L.Implies (go (d - 1), go (d - 1))
      | 4 -> L.Next (go (d - 1))
      | 5 ->
          let b = bound () in
          L.Until (b, go (d - 1), go (d - 1))
      | 6 ->
          let b = bound () in
          L.Finally (b, go (d - 1))
      | _ ->
          let b = bound () in
          L.Globally (b, go (d - 1))
  in
  go 3

let test_streamed_differential () =
  let st = ref 0x5eedL in
  let verdicts = ref 0 and early = ref 0 in
  for case = 1 to 150 do
    let sys = rand_system st in
    let method_ = rand_method st in
    let params = [ ("a", 0.2 +. Splitmix.float st 1.0); ("b", Splitmix.float st 1.0 -. 0.5) ] in
    let init = List.map (fun v -> (v, Splitmix.float st 2.0 -. 1.0)) (Ode.System.vars sys) in
    let t_end = 0.5 +. Splitmix.float st 2.5 in
    let tr = Ode.Integrate.simulate ~method_ ~params ~init ~t_end sys in
    let eager = L.of_trace ~params tr in
    let n = Ode.Integrate.length tr in
    for _ = 1 to 6 do
      let f = rand_formula st tr ~t_end in
      let at = match Splitmix.int st 3 with 0 -> 0 | 1 -> n - 1 | _ -> Splitmix.int st n in
      let what = Fmt.str "case %d at %d: %a" case at L.pp f in
      let sv = streamed ~params ~method_ ~init ~t_end sys in
      let h = L.holds ~at sv f in
      Alcotest.(check bool) what (L.holds ~at eager f) h;
      if h then incr verdicts;
      if L.points sv > n then Alcotest.failf "%s: streamed %d points, trace %d" what (L.points sv) n;
      if L.points sv < n then incr early;
      let rv = streamed ~params ~method_ ~init ~t_end sys in
      let r_eager = L.robustness ~at eager f and r_streamed = L.robustness ~at rv f in
      if Int64.bits_of_float r_eager <> Int64.bits_of_float r_streamed then
        Alcotest.failf "%s: robustness %h streamed, %h stored" what r_streamed r_eager
    done
  done;
  (* the draw must exercise both verdicts and early stops *)
  Alcotest.(check bool) "some verdicts true" true (!verdicts > 100);
  Alcotest.(check bool) "some false" true (!verdicts < 800);
  Alcotest.(check bool) "some streams stop early" true (!early > 100)

(* Atoms keep [Term.eval] semantics: [x^3] is [Float.pow x 3.], which
   differs from the tapes' [x*x*x] in the last bit for about a quarter
   of x in [0, 2).  At an x0 where [x0*x0*x0 < Float.pow x0 3.], the
   atom [x^3 >= Float.pow x0 3.] holds at the initial point; a float
   tape would say it does not. *)
let test_streamed_pow_atom () =
  let st = ref 3L in
  let rec pick () =
    let x = Splitmix.float st 2.0 in
    if x *. x *. x < Float.pow x 3.0 then x else pick ()
  in
  let x0 = pick () in
  let f = L.Prop (F.ge (T.pow (T.var "x") 3) (T.const (Float.pow x0 3.0))) in
  let init = [ ("x", x0) ] in
  Alcotest.(check bool) "stored" true (L.holds (L.of_trace (decay_trace ~x0 ())) f);
  Alcotest.(check bool) "streamed" true (L.holds (streamed ~init ~t_end:2.0 decay) f)

(* The near-end property of the DBN abstraction example: F[30] over
   points with t >= 29.9 reads up to the last point. *)
let test_streamed_near_end () =
  let f = L.Finally (30.0, L.And (L.prop "p53 >= 0.3", L.prop "t >= 29.9")) in
  let seen = ref [] in
  List.iter
    (fun damage ->
      let params = [ ("damage", damage) ] and init = [ ("p53", 0.05); ("mdm2", 0.05) ] in
      let sys = Biomodels.Classics.p53_mdm2 in
      let tr = Ode.Integrate.simulate ~params ~init ~t_end:30.0 sys in
      let h = L.holds (L.of_trace ~params tr) f in
      seen := h :: !seen;
      Alcotest.(check bool) (Printf.sprintf "damage %g" damage) h
        (L.holds (streamed ~params ~init ~t_end:30.0 sys) f))
    [ 0.05; 0.2; 0.3; 0.45; 1.0; 1.4 ];
  Alcotest.(check bool) "both verdicts" true (List.mem true !seen && List.mem false !seen)

(* Parameters come first in the atoms' environment: a parameter named
   like a state variable or like t shadows it, in both views. *)
let test_streamed_param_shadowing () =
  let params = [ ("x", 5.0); ("t", -1.0) ] and init = [ ("x", 1.0) ] in
  let stored = L.of_trace ~params (decay_trace ()) in
  let sv = streamed ~params ~method_:(Ode.Integrate.Rk4 0.01) ~init ~t_end:2.0 decay in
  List.iter
    (fun (f, want) ->
      let what = Fmt.str "%a" L.pp f in
      Alcotest.(check bool) (what ^ " stored") want (L.holds stored f);
      Alcotest.(check bool) (what ^ " streamed") want (L.holds sv f))
    [ (L.Globally (2.0, L.prop "x >= 4"), true); (L.Finally (2.0, L.prop "t >= 0"), false) ]

let test_streamed_unbound () =
  let f = L.Finally (1.0, L.prop "zzz > 0") in
  let raises what view =
    Alcotest.check_raises what (Invalid_argument "Bltl: unbound variable \"zzz\"") (fun () ->
        ignore (L.holds view f))
  in
  raises "stored" (L.of_trace (decay_trace ()));
  raises "streamed" (streamed ~init:[ ("x", 1.0) ] ~t_end:2.0 decay)

(* ---- Monitors: atoms resolved against the layout ----

   A monitor's atoms read their names by position; at every point of a
   view they must give [Expr.Formula.holds] and
   [Expr.Formula.robustness] through a name lookup over
   [params @ [t; x]], bit for bit, raising where the lookup raises.
   The state formulas nest the random atoms of "streamed = stored
   (random)" and atoms with powers (positive and negative), quotients
   and exponentials in And/Or lists; some cases add a parameter named
   like a state variable or like t. *)

let lookup params (tr : Ode.Integrate.trace) i x =
  match List.assoc_opt x params with
  | Some v -> v
  | None -> (
      if String.equal x "t" then tr.Ode.Integrate.times.(i)
      else
        match List.find_index (String.equal x) tr.Ode.Integrate.vars with
        | Some j -> tr.Ode.Integrate.states.(i).(j)
        | None -> invalid_arg (Printf.sprintf "Bltl: unbound variable %S" x))

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let rand_state_formula st (tr : Ode.Integrate.trace) =
  let vars = Array.of_list tr.Ode.Integrate.vars in
  let var () = T.var vars.(Splitmix.int st (Array.length vars)) in
  let threshold () = T.const (Splitmix.float st 2.0 -. 1.0) in
  let atom () =
    let rel = if Splitmix.int st 2 = 0 then F.ge else F.gt in
    match Splitmix.int st 6 with
    | 0 -> rel (T.pow (var ()) (List.nth [ -2; -1; 2; 3; 4; 5 ] (Splitmix.int st 6))) (threshold ())
    | 1 -> rel (T.div (var ()) (T.add (var ()) (T.const 1.5))) (threshold ())
    | 2 -> rel (T.exp (T.mul (T.var "b") (var ()))) (T.const (Splitmix.float st 2.0))
    | _ -> rand_atom st tr
  in
  let rec go d =
    match Splitmix.int st (if d = 0 then 8 else 11) with
    | 8 -> F.And (List.init (1 + Splitmix.int st 3) (fun _ -> go (d - 1)))
    | 9 | 10 -> F.Or (List.init (1 + Splitmix.int st 3) (fun _ -> go (d - 1)))
    | 7 -> if Splitmix.int st 2 = 0 then F.True else F.False
    | _ -> atom ()
  in
  go 2

let test_monitor_atoms () =
  let st = ref 0xa70L in
  let checked = ref 0 and raised = ref 0 in
  for case = 1 to 60 do
    let sys = rand_system st in
    let method_ = rand_method st in
    let params = [ ("a", 0.2 +. Splitmix.float st 1.0); ("b", Splitmix.float st 1.0 -. 0.5) ] in
    let params =
      match Splitmix.int st 4 with
      | 0 -> ("x0", Splitmix.float st 2.0 -. 1.0) :: params
      | 1 -> params @ [ ("t", Splitmix.float st 2.0) ]
      | _ -> params
    in
    let init = List.map (fun v -> (v, Splitmix.float st 2.0 -. 1.0)) (Ode.System.vars sys) in
    let t_end = 0.5 +. Splitmix.float st 2.5 in
    let tr = Ode.Integrate.simulate ~method_ ~params ~init ~t_end sys in
    let view = L.of_trace ~params tr in
    let vars = tr.Ode.Integrate.vars in
    for _ = 1 to 10 do
      let f = rand_state_formula st tr in
      let m = L.monitor ~params:(List.map fst params) ~vars (L.Prop f) in
      for i = 0 to Ode.Integrate.length tr - 1 do
        let what = Fmt.str "case %d at %d: %a" case i F.pp f in
        let env = lookup params tr i in
        if outcome (fun () -> L.check ~at:i view m) <> outcome (fun () -> F.holds env f) then
          Alcotest.failf "%s: verdicts differ" what;
        (match
           ( outcome (fun () -> L.check_robustness ~at:i view m),
             outcome (fun () -> F.robustness env f) )
         with
        | Ok r, Ok want when Int64.bits_of_float r = Int64.bits_of_float want -> ()
        | Error e, Error want when e = want -> incr raised
        | Ok r, Ok want -> Alcotest.failf "%s: robustness %h, lookup %h" what r want
        | _ -> Alcotest.failf "%s: robustness raised on one side only" what);
        incr checked
      done
    done
  done;
  Alcotest.(check bool) (Printf.sprintf "%d points checked" !checked) true (!checked > 5_000);
  Alcotest.(check int) "no random atom is unbound" 0 !raised

(* A name outside the layout raises only when its atom is evaluated: an
   Or whose first branch holds, or an And whose first branch fails,
   never reads it; robustness reads every atom and raises as the lookup
   does. *)
let test_monitor_unbound_branch () =
  let view = L.of_trace (decay_trace ()) in
  let zzz = F.gt (T.var "zzz") (T.const 0.0) in
  let m f = L.monitor ~params:[] ~vars:[ "x" ] (L.Prop f) in
  let unbound = Invalid_argument "Bltl: unbound variable \"zzz\"" in
  Alcotest.(check bool) "or" true (L.check view (m (F.Or [ P.formula "x > 0"; zzz ])));
  Alcotest.(check bool) "and" false (L.check view (m (F.And [ P.formula "x < 0"; zzz ])));
  Alcotest.check_raises "or, second branch read" unbound (fun () ->
      ignore (L.check view (m (F.Or [ P.formula "x < 0"; zzz ]))));
  Alcotest.check_raises "robustness" unbound (fun () ->
      ignore (L.check_robustness view (m (F.Or [ P.formula "x > 0"; zzz ]))));
  Alcotest.check_raises "another layout"
    (Invalid_argument "Bltl.holds: the monitor was resolved against another layout")
    (fun () -> ignore (L.check view (L.monitor ~params:[] ~vars:[ "y" ] (L.prop "x > 0"))))

(* ---- Sampler ---- *)

let test_sampler_deterministic () =
  let spec = [ ("a", Sa.Uniform (0.0, 1.0)); ("b", Sa.Normal (0.0, 1.0)) ] in
  let s1 = Sa.sample (Random.State.make [| 3 |]) spec in
  let s2 = Sa.sample (Random.State.make [| 3 |]) spec in
  Alcotest.(check (float 0.0)) "same a" (List.assoc "a" s1) (List.assoc "a" s2);
  Alcotest.(check (float 0.0)) "same b" (List.assoc "b" s1) (List.assoc "b" s2)

let test_sampler_bounds () =
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 200 do
    let u = Sa.draw rng (Sa.Uniform (2.0, 3.0)) in
    Alcotest.(check bool) "uniform in range" true (2.0 <= u && u <= 3.0);
    let t = Sa.draw rng (Sa.Truncated (Sa.Normal (0.0, 5.0), -1.0, 1.0)) in
    Alcotest.(check bool) "truncated in range" true (-1.0 <= t && t <= 1.0);
    let l = Sa.draw rng (Sa.Lognormal (0.0, 0.5)) in
    Alcotest.(check bool) "lognormal positive" true (l > 0.0)
  done;
  Alcotest.(check (float 0.0)) "constant" 7.5 (Sa.draw rng (Sa.Constant 7.5))

let test_sampler_moments () =
  let rng = Random.State.make [| 9 |] in
  let n = 20_000 in
  let mean d =
    let s = ref 0.0 in
    for _ = 1 to n do
      s := !s +. Sa.draw rng d
    done;
    !s /. float_of_int n
  in
  Alcotest.(check (float 0.05)) "normal mean" 2.0 (mean (Sa.Normal (2.0, 1.0)));
  Alcotest.(check (float 0.05)) "uniform mean" 0.5 (mean (Sa.Uniform (0.0, 1.0)))

(* ---- SPRT ---- *)

let bernoulli_stream p seed =
  let rng = Random.State.make [| seed |] in
  fun _ -> Random.State.float rng 1.0 < p

let test_sprt_accepts_high_p () =
  let r = Sp.run ~config:{ Sp.default_config with theta = 0.8 } (bernoulli_stream 0.95 1) in
  Alcotest.(check bool) "accept" true (r.Sp.verdict = Sp.Accept);
  Alcotest.(check bool) "used few samples" true (r.Sp.samples_used < 1000)

let test_sprt_rejects_low_p () =
  let r = Sp.run ~config:{ Sp.default_config with theta = 0.8 } (bernoulli_stream 0.4 2) in
  Alcotest.(check bool) "reject" true (r.Sp.verdict = Sp.Reject)

let test_sprt_inconclusive_budget () =
  let config = { Sp.default_config with theta = 0.5; delta_ind = 0.01; max_samples = 5 } in
  let r = Sp.run ~config (bernoulli_stream 0.5 3) in
  Alcotest.(check bool) "inconclusive" true (r.Sp.verdict = Sp.Inconclusive)

let test_sprt_validation () =
  Alcotest.check_raises "bad indifference"
    (Invalid_argument "Sprt: indifference region leaves (0,1)") (fun () ->
      ignore
        (Sp.run
           ~config:{ Sp.default_config with theta = 0.99; delta_ind = 0.05 }
           (bernoulli_stream 0.5 4)))

(* ---- Estimation ---- *)

let test_chernoff_bound () =
  let n = Es.chernoff_sample_size ~eps:0.05 ~alpha:0.05 in
  (* ln(40)/(2*0.0025) ≈ 737.8 *)
  Alcotest.(check int) "chernoff size" 738 n;
  Alcotest.check_raises "bad eps" (Invalid_argument "Estimate: eps outside (0,1)")
    (fun () -> ignore (Es.chernoff_sample_size ~eps:0.0 ~alpha:0.05))

let test_monte_carlo_estimate () =
  let e = Es.monte_carlo ~eps:0.05 ~alpha:0.01 (bernoulli_stream 0.7 5) in
  Alcotest.(check bool) "estimate near 0.7" true (Float.abs (e.Es.p_hat -. 0.7) < 0.05);
  Alcotest.(check bool) "interval brackets" true (e.Es.ci_low <= 0.7 && 0.7 <= e.Es.ci_high)

let test_betai_uniform () =
  (* Beta(1,1) is uniform: I_x(1,1) = x *)
  List.iter
    (fun x -> Alcotest.(check (float 1e-9)) "uniform cdf" x (Es.betai 1.0 1.0 x))
    [ 0.0; 0.25; 0.5; 0.9; 1.0 ];
  (* Beta(2,2) median is 0.5 *)
  Alcotest.(check (float 1e-9)) "beta(2,2) cdf at median" 0.5 (Es.betai 2.0 2.0 0.5);
  (* symmetry: I_x(a,b) = 1 - I_{1-x}(b,a) *)
  Alcotest.(check (float 1e-9)) "symmetry" (1.0 -. Es.betai 5.0 3.0 0.7)
    (Es.betai 3.0 5.0 0.3)

let test_beta_quantile () =
  Alcotest.(check (float 1e-6)) "median of beta(2,2)" 0.5
    (Es.beta_quantile ~a:2.0 ~b:2.0 0.5);
  Alcotest.(check (float 1e-6)) "median of uniform" 0.5
    (Es.beta_quantile ~a:1.0 ~b:1.0 0.5);
  let q1 = Es.beta_quantile ~a:10.0 ~b:2.0 0.05 in
  Alcotest.(check bool) "skewed quantile high" true (q1 > 0.5)

let test_bayesian_estimate () =
  let e = Es.bayesian ~confidence:0.95 ~n:2000 (bernoulli_stream 0.3 6) in
  Alcotest.(check bool) "posterior mean near 0.3" true (Float.abs (e.Es.p_hat -. 0.3) < 0.05);
  Alcotest.(check bool) "credible interval brackets" true
    (e.Es.ci_low <= 0.3 && 0.3 <= e.Es.ci_high);
  Alcotest.(check bool) "interval narrow" true (e.Es.ci_high -. e.Es.ci_low < 0.1)

(* ---- Runner ---- *)

let decay_problem property =
  R.problem ~model:(R.Ode_model decay)
    ~init_dist:[ ("x", Smc.Sampler.Uniform (0.8, 1.2)) ]
    ~param_dist:[] ~property ~t_end:2.0 ()

let test_runner_sure_property () =
  (* From any x0 in [0.8, 1.2], x reaches 0.5 within 2 time units. *)
  let prob = decay_problem (L.Finally (2.0, L.prop "x <= 0.5")) in
  let e = R.estimate ~eps:0.1 ~alpha:0.05 prob in
  Alcotest.(check (float 1e-9)) "probability 1" 1.0 e.Es.p_hat;
  let t = R.test ~config:{ Sp.default_config with theta = 0.9 } prob in
  Alcotest.(check bool) "sprt accepts" true (t.Sp.verdict = Sp.Accept)

let test_runner_impossible_property () =
  let prob = decay_problem (L.Finally (2.0, L.prop "x >= 2")) in
  let e = R.estimate ~eps:0.1 ~alpha:0.05 prob in
  Alcotest.(check (float 1e-9)) "probability 0" 0.0 e.Es.p_hat

let test_runner_threshold_property () =
  (* x(1) = x0 e^-1: x0 > 0.5 e ≈ 1.359 never happens; x(0.5) <= 0.65
     happens iff x0 <= 0.65 e^0.5 ≈ 1.0716, i.e. for ~68% of U(0.8,1.2). *)
  let prob = decay_problem (L.Finally (0.5, L.prop "x <= 0.65")) in
  let e = R.estimate ~seed:17 ~eps:0.05 ~alpha:0.05 prob in
  Alcotest.(check bool)
    (Printf.sprintf "p_hat = %.3f near 0.68" e.Es.p_hat)
    true
    (Float.abs (e.Es.p_hat -. 0.679) < 0.08)

let test_runner_reproducible () =
  let prob = decay_problem (L.Finally (0.5, L.prop "x <= 0.65")) in
  let a = R.estimate ~seed:23 ~eps:0.1 ~alpha:0.1 prob in
  let b = R.estimate ~seed:23 ~eps:0.1 ~alpha:0.1 prob in
  Alcotest.(check (float 0.0)) "same estimate" a.Es.p_hat b.Es.p_hat

let test_runner_robustness () =
  let prob = decay_problem (L.Globally (1.0, L.prop "x > 0.1")) in
  let r = R.mean_robustness ~n:50 prob in
  Alcotest.(check bool) "positive robustness" true (r > 0.0);
  let prob2 = decay_problem (L.Globally (1.0, L.prop "x > 0.9")) in
  let r2 = R.mean_robustness ~n:50 prob2 in
  Alcotest.(check bool) "negative robustness" true (r2 < 0.0)

let test_runner_hybrid_model () =
  let h =
    Hybrid.Automaton.of_system
      ~init:(Interval.Box.of_list [ ("x", Interval.Ia.of_float 1.0) ])
      decay
  in
  let prob =
    R.problem ~model:(R.Hybrid_model h)
      ~init_dist:[ ("x", Smc.Sampler.Uniform (0.8, 1.2)) ]
      ~param_dist:[]
      ~property:(L.Finally (2.0, L.prop "x <= 0.5"))
      ~t_end:2.0 ()
  in
  let e = R.estimate ~eps:0.1 ~alpha:0.1 prob in
  Alcotest.(check (float 1e-9)) "hybrid probability 1" 1.0 e.Es.p_hat

(* ---- Exact outcomes on the p53 regimes ----

   Chernoff success counts, SPRT verdicts with their sample counts, and
   Bayesian success counts on the three damage regimes of the E8 p53
   workload, at seeds 0-2 and jobs 1 and 2.  The expected lines were
   computed when every sample still integrated to [t_end] into a stored
   trace: reading the stepper on demand and stopping at the verdict must
   not move one Bernoulli outcome.  The jobs = 2 SPRT counts also pin
   the adaptive batch sizes. *)

let p53_regimes = [ ("0.0-0.1", 0.0, 0.1); ("0.1-0.5", 0.1, 0.5); ("0.5-1.5", 0.5, 1.5) ]

let p53_problem lo hi =
  R.problem ~model:(R.Ode_model Biomodels.Classics.p53_mdm2)
    ~init_dist:[ ("p53", Sa.Uniform (0.02, 0.08)); ("mdm2", Sa.Uniform (0.02, 0.08)) ]
    ~param_dist:[ ("damage", Sa.Uniform (lo, hi)) ]
    ~property:(L.Finally (30.0, L.prop "p53 >= 0.3"))
    ~t_end:30.0 ()

let p53_outcomes () =
  let sprt = { Sp.default_config with theta = 0.8; max_samples = 2000 } in
  List.concat_map
    (fun jobs ->
      List.concat_map
        (fun seed ->
          List.map
            (fun (label, lo, hi) ->
              let pb = p53_problem lo hi in
              let e = R.estimate ~seed ~jobs ~eps:0.1 ~alpha:0.05 pb in
              let t = R.test ~seed ~jobs ~config:sprt pb in
              let b = R.estimate_bayesian ~seed ~jobs ~n:100 pb in
              let verdict =
                match t.Sp.verdict with
                | Sp.Accept -> "accept"
                | Sp.Reject -> "reject"
                | Sp.Inconclusive -> "inconclusive"
              in
              Printf.sprintf "j%d s%d %s: %d/%d %s@%d %d/%d" jobs seed label e.Es.successes
                e.Es.n verdict t.Sp.samples_used b.Es.successes b.Es.n)
            p53_regimes)
        [ 0; 1; 2 ])
    [ 1; 2 ]

let p53_expected =
  [ "j1 s0 0.0-0.1: 0/185 reject@9 0/100";
    "j1 s0 0.1-0.5: 149/185 accept@261 84/100";
    "j1 s0 0.5-1.5: 185/185 accept@37 100/100";
    "j1 s1 0.0-0.1: 0/185 reject@9 0/100";
    "j1 s1 0.1-0.5: 162/185 accept@78 89/100";
    "j1 s1 0.5-1.5: 185/185 accept@37 100/100";
    "j1 s2 0.0-0.1: 0/185 reject@9 0/100";
    "j1 s2 0.1-0.5: 167/185 accept@63 91/100";
    "j1 s2 0.5-1.5: 185/185 accept@37 100/100";
    "j2 s0 0.0-0.1: 0/185 reject@9 0/100";
    "j2 s0 0.1-0.5: 167/185 accept@68 92/100";
    "j2 s0 0.5-1.5: 185/185 accept@37 100/100";
    "j2 s1 0.0-0.1: 0/185 reject@9 0/100";
    "j2 s1 0.1-0.5: 163/185 accept@113 85/100";
    "j2 s1 0.5-1.5: 185/185 accept@37 100/100";
    "j2 s2 0.0-0.1: 0/185 reject@9 0/100";
    "j2 s2 0.1-0.5: 158/185 accept@154 83/100";
    "j2 s2 0.5-1.5: 185/185 accept@37 100/100" ]

let test_p53_outcomes () =
  Alcotest.(check (list string)) "p53 outcomes" p53_expected (p53_outcomes ())

(* The Chernoff estimate of perfbench's 0.1-0.5 regime (eps 0.02, 4,612
   samples) at jobs = 2, where every worker compiles the problem for
   itself, and the mean robustness over 200 samples: both computed when
   each sample still looked its names up and compiled its own field. *)
let test_jobs2_counts () =
  let pb = p53_problem 0.1 0.5 in
  List.iter
    (fun (seed, want, robust) ->
      let e = R.estimate ~seed ~jobs:2 ~eps:0.02 ~alpha:0.05 pb in
      Alcotest.(check string) (Printf.sprintf "seed %d" seed) want
        (Printf.sprintf "%d/%d" e.Es.successes e.Es.n);
      Alcotest.(check string) (Printf.sprintf "seed %d robustness" seed) robust
        (Printf.sprintf "%h" (R.mean_robustness ~seed ~jobs:2 ~n:200 pb)))
    [ (1, "4034/4612", "0x1.0950886c6a27ep-3"); (17, "4019/4612", "0x1.e0453d7e22d03p-4") ]

let () =
  Alcotest.run "smc"
    [
      ( "bltl",
        [
          Alcotest.test_case "prop" `Quick test_bltl_prop;
          Alcotest.test_case "finally" `Quick test_bltl_finally;
          Alcotest.test_case "globally" `Quick test_bltl_globally;
          Alcotest.test_case "until" `Quick test_bltl_until;
          Alcotest.test_case "boolean" `Quick test_bltl_boolean;
          Alcotest.test_case "next" `Quick test_bltl_next;
          Alcotest.test_case "horizon" `Quick test_bltl_horizon;
          Alcotest.test_case "robustness" `Quick test_bltl_robustness;
          Alcotest.test_case "trajectory view" `Quick test_bltl_trajectory_view;
          Alcotest.test_case "streamed = stored (random)" `Quick test_streamed_differential;
          Alcotest.test_case "streamed pow atom" `Quick test_streamed_pow_atom;
          Alcotest.test_case "streamed near-end property" `Quick test_streamed_near_end;
          Alcotest.test_case "streamed parameter shadowing" `Quick test_streamed_param_shadowing;
          Alcotest.test_case "streamed unbound variable" `Quick test_streamed_unbound;
          Alcotest.test_case "monitor atoms = formula lookup" `Quick test_monitor_atoms;
          Alcotest.test_case "monitor unbound branch" `Quick test_monitor_unbound_branch;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "deterministic" `Quick test_sampler_deterministic;
          Alcotest.test_case "bounds" `Quick test_sampler_bounds;
          Alcotest.test_case "moments" `Quick test_sampler_moments;
        ] );
      ( "sprt",
        [
          Alcotest.test_case "accepts high p" `Quick test_sprt_accepts_high_p;
          Alcotest.test_case "rejects low p" `Quick test_sprt_rejects_low_p;
          Alcotest.test_case "inconclusive on budget" `Quick test_sprt_inconclusive_budget;
          Alcotest.test_case "validation" `Quick test_sprt_validation;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "chernoff bound" `Quick test_chernoff_bound;
          Alcotest.test_case "monte carlo" `Quick test_monte_carlo_estimate;
          Alcotest.test_case "incomplete beta" `Quick test_betai_uniform;
          Alcotest.test_case "beta quantile" `Quick test_beta_quantile;
          Alcotest.test_case "bayesian" `Quick test_bayesian_estimate;
        ] );
      ( "runner",
        [
          Alcotest.test_case "sure property" `Quick test_runner_sure_property;
          Alcotest.test_case "impossible property" `Quick test_runner_impossible_property;
          Alcotest.test_case "threshold property" `Quick test_runner_threshold_property;
          Alcotest.test_case "reproducible" `Quick test_runner_reproducible;
          Alcotest.test_case "mean robustness" `Quick test_runner_robustness;
          Alcotest.test_case "hybrid model" `Quick test_runner_hybrid_model;
          Alcotest.test_case "p53 outcomes match committed" `Quick test_p53_outcomes;
          Alcotest.test_case "jobs 2 counts match committed" `Quick test_jobs2_counts;
        ] );
    ]
