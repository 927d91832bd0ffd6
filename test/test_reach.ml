(* Tests for bounded reachability (dReach-equivalent) and parameter
   synthesis for reachability. *)

module I = Interval.Ia
module Box = Interval.Box
module P = Expr.Parse
module A = Hybrid.Automaton
module E = Reach.Encoding
module C = Reach.Checker

(* Naive substring search, sufficient for checking rendered encodings. *)
module Astring_like = struct
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
    m = 0 || go 0
end

let pt x = I.of_float x

let decay_automaton =
  (* x' = -x from x0 = 1, no parameters. *)
  A.of_system
    ~init:(Box.of_list [ ("x", pt 1.0) ])
    (Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ])

let decay_k_automaton =
  A.of_system
    ~init:(Box.of_list [ ("x", pt 1.0) ])
    (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])

(* Two modes: in "up" x grows at rate 1; jumps to "down" when x crosses the
   parameter theta; in "down" x decays at rate 1 after a reset to 0. *)
let switch_automaton =
  A.create ~vars:[ "x" ] ~params:[ "theta" ]
    ~modes:
      [ A.mode ~name:"up" ~flow:[ ("x", P.term "1") ] ();
        A.mode ~name:"down" ~flow:[ ("x", P.term "-1") ] () ]
    ~jumps:
      [ A.jump ~source:"up" ~target:"down" ~guard:(P.formula "x >= theta")
          ~reset:[ ("x", P.term "0") ] () ]
    ~init_mode:"up"
    ~init:(Box.of_list [ ("x", pt 0.0) ])

(* x' = -k x from x0 = 1 in one mode with invariant [inv]. *)
let decay_inv_automaton inv =
  A.create ~vars:[ "x" ] ~params:[ "k" ]
    ~modes:[ A.mode ~name:"m" ~flow:[ ("x", P.term "-k*x") ] ~invariant:(P.formula inv) () ]
    ~jumps:[] ~init_mode:"m"
    ~init:(Box.of_list [ ("x", pt 1.0) ])

let goal ?(modes = []) pred = { E.goal_modes = modes; predicate = P.formula pred }

let expect_delta_sat name r =
  match r with
  | C.Delta_sat w -> w
  | C.Unsat _ -> Alcotest.failf "%s: expected delta-sat, got unsat" name
  | C.Unknown why -> Alcotest.failf "%s: expected delta-sat, got unknown (%s)" name why

let expect_unsat name r =
  match r with
  | C.Unsat _ -> ()
  | C.Delta_sat w ->
      Alcotest.failf "%s: expected unsat, got delta-sat (%s)" name
        (Fmt.str "%a" C.pp_result (C.Delta_sat w))
  | C.Unknown why -> Alcotest.failf "%s: expected unsat, got unknown (%s)" name why

(* ---- Encoding ---- *)

let test_encoding_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : E.t) -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "negative k" (fun () ->
      E.create ~goal:(goal "x <= 0") ~k:(-1) ~time_bound:1.0 decay_automaton);
  expect_invalid "bad time bound" (fun () ->
      E.create ~goal:(goal "x <= 0") ~k:0 ~time_bound:0.0 decay_automaton);
  expect_invalid "unknown goal mode" (fun () ->
      E.create ~goal:(goal ~modes:[ "ghost" ] "x <= 0") ~k:0 ~time_bound:1.0
        decay_automaton);
  expect_invalid "missing param box" (fun () ->
      E.create ~goal:(goal "x <= 0") ~k:0 ~time_bound:1.0 decay_k_automaton)

let test_candidate_paths () =
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("theta", I.make 0.5 1.5) ])
      ~goal:(goal ~modes:[ "down" ] "x <= 0") ~k:2 ~time_bound:3.0 switch_automaton
  in
  let paths = E.candidate_paths pb in
  Alcotest.(check bool) "up->down present" true (List.mem [ "up"; "down" ] paths);
  Alcotest.(check bool) "no trivial path (wrong mode)" true
    (not (List.mem [ "up" ] paths))

let test_render () =
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("theta", I.make 0.5 1.5) ])
      ~goal:(goal ~modes:[ "down" ] "x <= 0 - 1/2") ~k:2 ~time_bound:3.0
      switch_automaton
  in
  let s = E.render pb in
  Alcotest.(check bool) "mentions goal" true
    (Astring_like.contains s "goal");
  Alcotest.(check bool) "mentions flow of up" true (Astring_like.contains s "flow_up");
  Alcotest.(check bool) "mentions jump" true (Astring_like.contains s "jump_up_down")

(* ---- Reachability without parameters ---- *)

let test_reach_decay_sat () =
  let pb =
    E.create ~goal:(goal "x <= 1/2") ~k:0 ~time_bound:1.0 decay_automaton
  in
  let w = expect_delta_sat "decay to 0.5" (C.check pb) in
  Alcotest.(check bool) "certified" true w.C.certified;
  Alcotest.(check (float 0.02)) "time ~ ln 2" (Float.log 2.0) w.C.reach_time

let test_reach_decay_unsat () =
  (* e^{-0.5} ≈ 0.6065: x cannot fall to 0.5 within 0.5 time units. *)
  let pb =
    E.create ~goal:(goal "x <= 1/2") ~k:0 ~time_bound:0.5 decay_automaton
  in
  expect_unsat "decay cannot reach 0.5 by t=0.5" (C.check pb)

let test_reach_goal_mode_filter () =
  (* Goal mode that is not reachable in k jumps: no candidate path. *)
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("theta", I.make 0.5 1.0) ])
      ~goal:(goal ~modes:[ "down" ] "x <= 1") ~k:0 ~time_bound:1.0 switch_automaton
  in
  expect_unsat "down unreachable with k=0" (C.check pb)

(* ---- Reachability with parameter synthesis ---- *)

let test_reach_parameterized_sat () =
  (* Reach x <= 0.3 by time 1: needs e^{-k} <= 0.3, i.e. k >= 1.204. *)
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
      ~goal:(goal "x <= 0.3") ~k:0 ~time_bound:1.0 decay_k_automaton
  in
  let w = expect_delta_sat "parameterized decay" (C.check pb) in
  Alcotest.(check bool) "certified" true w.C.certified;
  let k = List.assoc "k" w.C.params in
  Alcotest.(check bool) "witness k >= 1.1" true (k >= 1.1)

let test_reach_parameterized_unsat () =
  (* k <= 0.5 can only bring x down to e^{-0.5} ≈ 0.6065 > 0.55. *)
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("k", I.make 0.1 0.5) ])
      ~goal:(goal "x <= 0.55") ~k:0 ~time_bound:1.0 decay_k_automaton
  in
  expect_unsat "k too small" (C.check pb)

let test_reach_two_modes () =
  (* Any theta in [0.5, 1.5] allows reaching x <= -0.5 in "down" within
     the time bound: path up -> down. *)
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("theta", I.make 0.5 1.5) ])
      ~goal:(goal ~modes:[ "down" ] "x <= -1/2") ~k:1 ~time_bound:3.0 switch_automaton
  in
  let w = expect_delta_sat "two-mode reach" (C.check pb) in
  Alcotest.(check (list string)) "path" [ "up"; "down" ] w.C.path;
  Alcotest.(check bool) "certified" true w.C.certified

let test_reach_two_modes_unsat () =
  (* In "down", x starts at 0 after reset and decreases at rate 1; it can
     never be >= 1 again. *)
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("theta", I.make 0.5 1.5) ])
      ~goal:(goal ~modes:[ "down" ] "x >= 1") ~k:1 ~time_bound:2.0 switch_automaton
  in
  expect_unsat "down never re-reaches 1" (C.check pb)

(* Every setting of the Newton and Taylor-model switches is a sound
   search, so each reaches the same verdict on these margins, and every
   δ-sat witness is certified. *)
let test_reach_layer_agreement () =
  let problems =
    [ ( "decay sat", true,
        E.create ~goal:(goal "x <= 1/2") ~k:0 ~time_bound:1.0 decay_automaton );
      ( "decay unsat", false,
        E.create ~goal:(goal "x <= 1/2") ~k:0 ~time_bound:0.5 decay_automaton );
      ( "parameterized sat", true,
        E.create
          ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
          ~goal:(goal "x <= 0.3") ~k:0 ~time_bound:1.0 decay_k_automaton );
      ( "parameterized unsat", false,
        E.create
          ~param_box:(Box.of_list [ ("k", I.make 0.1 0.5) ])
          ~goal:(goal "x <= 0.55") ~k:0 ~time_bound:1.0 decay_k_automaton );
      ( "two modes sat", true,
        E.create
          ~param_box:(Box.of_list [ ("theta", I.make 0.5 1.5) ])
          ~goal:(goal ~modes:[ "down" ] "x <= -1/2")
          ~k:1 ~time_bound:3.0 switch_automaton ) ]
  in
  List.iter
    (fun layers ->
      Layers.with_layers layers @@ fun () ->
      List.iter
        (fun (name, sat, pb) ->
          let name = Printf.sprintf "%s, %s" name (Layers.name layers) in
          if sat then
            Alcotest.(check bool)
              (name ^ ": certified") true
              (expect_delta_sat name (C.check pb)).C.certified
          else expect_unsat name (C.check pb))
        problems)
    Layers.settings

(* The segment cache keys the Taylor-model switch through the flow
   fingerprint: a check run with the layer off right after the same
   check with it on must compute its own segments, not replay the
   TM-tightened ones. *)
let test_seg_cache_keys_tm () =
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("k", I.make 0.1 0.5) ])
      ~goal:(goal "x <= 0.55") ~k:0 ~time_bound:1.0 decay_k_automaton
  in
  let seg () =
    Option.value ~default:Cache.zero_stats
      (List.assoc_opt "reach-seg" (Cache.named_stats ()))
  in
  Cache.set_enabled true;
  Cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Cache.clear_enabled_override ();
      Interval.Tm.clear_enabled_override ())
  @@ fun () ->
  Interval.Tm.set_enabled true;
  expect_unsat "TM on" (C.check pb);
  let seg0 = seg () in
  Interval.Tm.set_enabled false;
  expect_unsat "TM off" (C.check pb);
  let seg1 = seg () in
  Alcotest.(check int) "TM-off check replays no segment" seg0.Cache.hits
    seg1.Cache.hits;
  Alcotest.(check bool) "TM-off check computes its own segments" true
    (seg1.Cache.misses > seg0.Cache.misses)

(* Two one-mode automata with one vector field and different
   invariants: the strict one cuts its bracket before the goal, the loose
   one reaches it.  Checked strict-first in one process, the loose check
   must integrate its own segment: replaying the strict bracket would
   make the goal look unreachable. *)
let test_seg_cache_keys_inv () =
  let strict = decay_inv_automaton "x >= 0.5" and loose = decay_inv_automaton "x >= 0.2" in
  Alcotest.(check string) "one vector field"
    (Ode.System.digest (A.mode_system strict "m"))
    (Ode.System.digest (A.mode_system loose "m"));
  let problem a =
    E.create
      ~param_box:(Box.of_list [ ("k", I.make 1.0 1.01) ])
      ~goal:(goal "x <= 0.3") ~k:0 ~time_bound:3.0 a
  in
  let config = { C.default_config with tube_quality_width = 0.0 } in
  let render r = Fmt.str "%a" C.pp_result r in
  let seg () =
    Option.value ~default:Cache.zero_stats
      (List.assoc_opt "reach-seg" (Cache.named_stats ()))
  in
  Cache.set_enabled true;
  Fun.protect ~finally:Cache.clear_enabled_override @@ fun () ->
  Cache.clear ();
  let fresh = render (C.check ~config (problem loose)) in
  Cache.clear ();
  expect_unsat "strict invariant" (C.check ~config (problem strict));
  let seg0 = seg () in
  let loose_after = render (C.check ~config (problem loose)) in
  let seg1 = seg () in
  Alcotest.(check int) "loose check replays no segment" seg0.Cache.hits
    seg1.Cache.hits;
  Alcotest.(check bool) "loose check misses" true
    (seg1.Cache.misses > seg0.Cache.misses);
  Alcotest.(check string) "same answer as with a cleared cache" fresh loose_after

(* Synthesis must not count goal steps taken after the invariant is
   certainly violated: here every run leaves x >= 0.5 before it can
   reach x <= 0.49, so no box is feasible. *)
let test_synthesize_respects_invariant () =
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("k", I.make 1.0 1.01) ])
      ~goal:(goal "x <= 0.49") ~k:0 ~time_bound:3.0 (decay_inv_automaton "x >= 0.5")
  in
  let s = C.synthesize pb in
  Alcotest.(check int) "no feasible box" 0 (List.length s.C.feasible);
  (match C.check pb with
  | C.Delta_sat _ -> Alcotest.fail "check: unexpected delta-sat"
  | C.Unsat _ | C.Unknown _ -> ())

(* ---- Ensemble bracket: streamed vs stored traces ---- *)

(* The stored-trace bracket, the oracle for the streamed one: every
   member integrated to [t_end] into a trace, each window hulled from
   [Ode.Integrate.state_at] samples over Map boxes, and the invariant
   applied afterwards by [truncate_at_invariant]. *)
let bracket_of_traces (cfg : C.config) vars t_end traces =
  let windows = Stdlib.max 1 cfg.C.fallback_windows in
  let dt = t_end /. float_of_int windows in
  let steps =
    List.init windows (fun i ->
        let t_lo = dt *. float_of_int i and t_hi = dt *. float_of_int (i + 1) in
        let hulls =
          List.filter_map
            (fun (tr : Ode.Integrate.trace) ->
              if Ode.Integrate.final_time tr < t_lo -. 1e-9 then None
              else begin
                let samples =
                  [ Ode.Integrate.state_at tr t_lo;
                    Ode.Integrate.state_at tr (0.5 *. (t_lo +. t_hi));
                    Ode.Integrate.state_at tr t_hi ]
                in
                let vars = tr.Ode.Integrate.vars in
                Some
                  (List.fold_left
                     (fun acc st ->
                       let b =
                         Box.of_list
                           (List.mapi (fun j v -> (v, I.of_float st.(j))) vars)
                       in
                       match acc with None -> Some b | Some a -> Some (Box.hull a b))
                     None samples)
              end)
            traces
        in
        let hull =
          List.fold_left
            (fun acc h -> match (acc, h) with
              | None, h -> h
              | acc, None -> acc
              | Some a, Some b -> Some (Box.hull a b))
            None hulls
        in
        match hull with
        | None -> None
        | Some h ->
            let inflated =
              Box.map
                (fun itv -> I.inflate (cfg.C.fallback_margin *. I.width itv +. 1e-6) itv)
                h
            in
            Some (t_lo, t_hi, Array.of_list (List.map (fun v -> Box.find v inflated) vars)))
  in
  let rows = Ode.Enclosure.builder vars in
  List.iter
    (fun (t_lo, t_hi, b) -> Ode.Enclosure.push rows ~t_lo ~t_hi b b)
    (List.filter_map Fun.id steps);
  Ode.Enclosure.contents rows

let stored_bracket (cfg : C.config) sys ~inv ~params_box ~members ~t_end =
  let traces =
    List.filter_map
      (fun (params, init) ->
        match
          Ode.Integrate.simulate ~method_:cfg.C.sim_method ~params ~init ~t_end sys
        with
        | tr -> Some tr
        | exception _ -> None)
      members
  in
  C.truncate_at_invariant (C.judge sys inv) ~params_box
    (bracket_of_traces cfg (Ode.System.vars sys) t_end traces)

let hex_steps steps =
  let box b =
    String.concat " "
      (List.map
         (fun (v, i) -> Printf.sprintf "%s=[%h,%h]" v (I.lo i) (I.hi i))
         (Box.to_list b))
  in
  let module Enc = Ode.Enclosure in
  List.init (Enc.length steps) (fun k ->
      Printf.sprintf "[%h,%h] %s | %s" (Enc.t_lo steps k) (Enc.t_hi steps k)
        (box (Enc.enclosure steps k)) (box (Enc.at_end steps k)))

(* Streamed and stored brackets agree bit for bit; returns the window
   count. *)
let check_bracket name ?(cfg = C.default_config) ?members sys ~inv ~params_box
    ~init_box ~t_end =
  let members =
    match members with
    | Some m -> m
    | None -> C.ensemble_members cfg ~params_box ~init_box
  in
  let streamed = C.ensemble_steps cfg sys ~inv:(C.judge sys inv) ~params_box ~members ~t_end in
  let stored = stored_bracket cfg sys ~inv ~params_box ~members ~t_end in
  Alcotest.(check (list string)) name (hex_steps stored) (hex_steps streamed);
  Ode.Enclosure.length streamed

(* The boxes a path unrolling flows from, as [path_feasible] computes
   them over the steps [flow] gives in each mode (by default the
   brackets): the initial box, then each jump's guard states contracted
   with the guard and source invariant and with the target invariant.
   (FK and TBI jumps reset nothing.)  Stops at the first refuted jump. *)
let path_boxes ?flow (pb : E.t) path =
  let a = pb.E.automaton in
  let params_box, init_box = C.interpret_box pb (C.searchable_box pb) in
  let inv q = (A.find_mode a q).A.invariant in
  let flow =
    match flow with
    | Some f -> f
    | None ->
        fun q box ->
          let sys = A.mode_system a q in
          C.ensemble_steps C.default_config sys ~inv:(C.judge sys (inv q)) ~params_box
            ~members:(C.ensemble_members C.default_config ~params_box ~init_box:box)
            ~t_end:pb.E.time_bound
  in
  let rec go box acc = function
    | q :: (q' :: _ as rest) -> (
        let acc = (q, box) :: acc in
        let guard =
          (List.find (fun (j : A.jump) -> String.equal j.A.target q') (A.jumps_from a q))
            .A.guard
        in
        let sys = A.mode_system a q in
        let steps = flow q box in
        let contract f b = C.prepare_contract f ~params_box b in
        match
          Option.bind (C.states_satisfying steps ~params_box (C.judge sys guard)) (fun gs ->
              Option.bind (contract (Expr.Formula.and_ [ guard; inv q ]) gs)
                (contract (inv q')))
        with
        | Some next -> go next acc rest
        | None -> List.rev acc)
    | [ q ] -> List.rev ((q, box) :: acc)
    | [] -> List.rev acc
  in
  (params_box, go init_box [] path)

let test_bracket_oracle () =
  (* E1: Fenton-Karma, spike-and-dome, every mode along its paths. *)
  let fk = Biomodels.Fenton_karma.automaton () in
  let e1 =
    E.create ~min_jumps:2 ~goal:(Biomodels.Fenton_karma.spike_and_dome_goal ()) ~k:4
      ~time_bound:400.0 fk
  in
  let modes = Hashtbl.create 4 in
  List.iter
    (fun path ->
      let params_box, boxes = path_boxes e1 path in
      List.iteri
        (fun i (q, box) ->
          Hashtbl.replace modes q ();
          ignore
            (check_bracket
               (Printf.sprintf "E1 %s, step %d (%s)" (String.concat "->" path) i q)
               (A.mode_system fk q) ~inv:(A.find_mode fk q).A.invariant ~params_box
               ~init_box:box ~t_end:400.0))
        boxes)
    (E.candidate_paths e1);
  Alcotest.(check int) "E1 brackets every FK mode" 3 (Hashtbl.length modes);
  (* E4: TBI m0 and mA on the therapy parameter box. *)
  let tbi = Biomodels.Tbi.automaton () in
  let e4 =
    E.create
      ~param_box:(Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ])
      ~goal:(Biomodels.Tbi.recovery_goal ()) ~k:1 ~time_bound:40.0 tbi
  in
  let params_box, boxes = path_boxes e4 [ "m0"; "mA" ] in
  Alcotest.(check (list string)) "TBI path reaches mA" [ "m0"; "mA" ] (List.map fst boxes);
  List.iter
    (fun (q, box) ->
      ignore
        (check_bracket ("E4 " ^ q) (A.mode_system tbi q)
           ~inv:(A.find_mode tbi q).A.invariant ~params_box ~init_box:box ~t_end:40.0))
    boxes;
  (* x' = -k x from 1: the invariant x >= 0.5 is left at t ~ ln 2. *)
  let decay = Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ] in
  let params_box = Box.of_list [ ("k", I.make 1.0 1.01) ]
  and init_box = Box.of_list [ ("x", pt 1.0) ] in
  let half = P.formula "x >= 0.5" in
  Alcotest.(check int) "True keeps every window" 120
    (check_bracket "invariant True" decay ~inv:Expr.Formula.tt ~params_box ~init_box
       ~t_end:3.0);
  let cut = check_bracket "invariant x >= 0.5" decay ~inv:half ~params_box ~init_box ~t_end:3.0 in
  Alcotest.(check bool) "the invariant cuts the bracket" true (cut > 1 && cut < 120);
  Alcotest.(check int) "one window" 1
    (check_bracket "fallback_windows = 1"
       ~cfg:{ C.default_config with fallback_windows = 1 }
       decay ~inv:half ~params_box ~init_box ~t_end:3.0);
  ignore
    (check_bracket "Rk4"
       ~cfg:{ C.default_config with sim_method = Ode.Integrate.Rk4 0.07 }
       decay ~inv:half ~params_box ~init_box ~t_end:3.0);
  (* A member without its parameter cannot start and is dropped. *)
  let members = C.ensemble_members C.default_config ~params_box ~init_box in
  let members = List.hd members :: ([], [ ("x", 1.0) ]) :: List.tl members in
  ignore
    (check_bracket "a member that cannot start" ~members decay ~inv:half ~params_box
       ~init_box ~t_end:3.0);
  Alcotest.(check (list string)) "no member starts" []
    (hex_steps
       (C.ensemble_steps C.default_config decay ~inv:(C.judge decay half) ~params_box
          ~members:[ ([], [ ("x", 1.0) ]) ] ~t_end:3.0))

(* ---- Duplicate members integrate once ----

   [ensemble_steps] integrates each distinct (params, init) member once,
   telling members apart bit for bit, so −0.0 and +0.0 differ.  On
   member lists with repeats its bracket must equal, in hex, the
   stored-trace oracle's, which integrates every member, and the
   bracket of the list without its repeats; [reach.bracket_steps] must
   grow by as much as for that list. *)
let test_duplicate_members () =
  let bracket_steps = Telemetry.Counter.make "reach.bracket_steps" in
  Telemetry.reset ();
  Telemetry.set_metrics true;
  Fun.protect ~finally:(fun () -> Telemetry.disable (); Telemetry.reset ()) @@ fun () ->
  let same_bits (k, x) (k', y) =
    String.equal k k' && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  in
  let same (p, i) (p', i') = List.equal same_bits p p' && List.equal same_bits i i' in
  let distinct ms =
    List.rev
      (List.fold_left
         (fun acc m -> if List.exists (same m) acc then acc else m :: acc)
         [] ms)
  in
  (* The bracket of [members] and the bracket steps it counted. *)
  let run sys ~inv ~params_box ~t_end members =
    let before = Telemetry.Counter.value bracket_steps in
    let steps =
      C.ensemble_steps C.default_config sys ~inv:(C.judge sys inv) ~params_box ~members
        ~t_end
    in
    (hex_steps steps, Telemetry.Counter.value bracket_steps - before)
  in
  (* Checks [members] and returns its distinct members and step count. *)
  let case name sys ~inv ~params_box ~t_end members =
    let bracket, n = run sys ~inv ~params_box ~t_end members in
    Alcotest.(check (list string)) (name ^ ": stored-trace oracle")
      (hex_steps (stored_bracket C.default_config sys ~inv ~params_box ~members ~t_end))
      bracket;
    let d = distinct members in
    let bracket', n' = run sys ~inv ~params_box ~t_end d in
    Alcotest.(check (list string)) (name ^ ": distinct members") bracket' bracket;
    Alcotest.(check int) (name ^ ": steps of the distinct members") n' n;
    Alcotest.(check bool) (name ^ ": integrates") true (n > 0);
    (d, n)
  in
  (* E1's first flow: the ensemble of a point joint box is 25 copies of
     its midpoint. *)
  let fk = Biomodels.Fenton_karma.automaton () in
  let e1 =
    E.create ~min_jumps:2 ~goal:(Biomodels.Fenton_karma.spike_and_dome_goal ()) ~k:4
      ~time_bound:400.0 fk
  in
  let params_box, init_box = C.interpret_box e1 (C.searchable_box e1) in
  let q = A.init_mode fk in
  let members = C.ensemble_members C.default_config ~params_box ~init_box in
  let d, _ =
    case "E1 first flow" (A.mode_system fk q) ~inv:(A.find_mode fk q).A.invariant
      ~params_box ~t_end:400.0 members
  in
  Alcotest.(check (pair int int)) "E1: 25 members, one distinct"
    (C.default_config.C.fallback_samples + 1, 1) (List.length members, List.length d);
  (* Repeats in an explicit list. *)
  let decay =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]
  in
  let params_box = Box.of_list [ ("k", I.make 0.5 2.0) ] in
  let m k x = ([ ("k", k) ], [ ("x", x) ]) in
  let a = m 1.0 1.0 and b = m 2.0 0.9 and c = m 0.5 1.1 in
  let d, _ =
    case "explicit repeats" decay ~inv:(P.formula "x >= 0.2") ~params_box ~t_end:3.0
      [ a; b; a; a; c; b; a ]
  in
  Alcotest.(check int) "explicit repeats: three distinct" 3 (List.length d);
  (* Members that differ only in the sign of a zero are both
     integrated: their traces agree, so the pair counts twice the steps
     of either. *)
  let pos = m 0.0 1.0 and neg = m (-0.0) 1.0 in
  let d, n =
    case "signed zeros" decay ~inv:Expr.Formula.tt ~params_box ~t_end:3.0
      [ pos; neg; pos ]
  in
  Alcotest.(check int) "signed zeros: two distinct" 2 (List.length d);
  let _, n_pos = run decay ~inv:Expr.Formula.tt ~params_box ~t_end:3.0 [ pos ]
  and _, n_neg = run decay ~inv:Expr.Formula.tt ~params_box ~t_end:3.0 [ neg ] in
  Alcotest.(check int) "signed zeros: both integrated" (n_pos + n_neg) n

(* ---- The usability gate keeps its results ----

   [flow_enclosure] ends a tube at its first state wider than the
   gate's limit, and at its first step that leaves the mode invariant.
   Its answers must still be the full rule's, built here from public
   pieces: a tube integrated under the checker's enclosure config to
   [t_end], cut by [truncate_at_invariant] at its first step that leaves
   the invariant (a tube so cut ends there, complete, at that step's end
   state); then usable when it is complete and no wider than
   max(tube_quality_width, 4·width(init)) at its end; its cut steps when
   usable, else the ensemble bracket.  Caches are off, so every call
   integrates.  Each case runs at tube_quality_width 0, 1 and 1e5, which
   is above the 1e4 width ceiling, and, when the full tube is complete,
   at its final width; and, when the cut tube is complete, at its final
   width: the tightest limit it passes, where a stop even slightly early
   would lose it.  Neither the tubes nor the bracket depend on
   tube_quality_width, so the oracle computes each once per case. *)
let test_gate_keeps_results () =
  Cache.set_enabled false;
  Fun.protect ~finally:Cache.clear_enabled_override @@ fun () ->
  let usable = ref 0 and too_wide = ref 0 and incomplete = ref 0 in
  let case name sys ~inv ~params_box ~init_box ~t_end =
    let full =
      Ode.Enclosure.flow ~config:C.default_config.C.enclosure ~params:params_box
        ~init:init_box ~t_end sys
    in
    let inv = C.judge sys inv in
    let steps = C.truncate_at_invariant inv ~params_box full.Ode.Enclosure.steps in
    let n = Ode.Enclosure.length steps in
    let complete, final =
      if n > 0 && C.judge_row inv ~params_box steps (n - 1) = Expr.Formula.Impossible
      then (true, Ode.Enclosure.at_end steps (n - 1))
      else (full.Ode.Enclosure.complete, full.Ode.Enclosure.final)
    in
    let bracket =
      lazy
        (C.ensemble_steps C.default_config sys ~inv ~params_box
           ~members:(C.ensemble_members C.default_config ~params_box ~init_box)
           ~t_end)
    in
    let prepared = Ode.Enclosure.prepare sys in
    let render = Option.map (fun (r, steps) -> (r, hex_steps steps)) in
    List.iter
      (fun w ->
        let cfg = { C.default_config with tube_quality_width = w } in
        let limit = Float.max w (4.0 *. Box.width init_box) in
        let want =
          if complete && Box.width final <= limit then begin
            incr usable;
            Some (true, steps)
          end
          else begin
            incr (if complete then too_wide else incomplete);
            let steps = Lazy.force bracket in
            if Ode.Enclosure.length steps = 0 then None else Some (false, steps)
          end
        in
        let got =
          Option.map
            (fun (s : C.segment_enclosure) -> (s.C.rigorous, s.C.steps))
            (C.flow_enclosure cfg sys ~inv ~prepared ~params_box ~init_box ~t_end)
        in
        Alcotest.(check (option (pair bool (list string))))
          (Printf.sprintf "%s, tube_quality_width %g" name w)
          (render want) (render got))
      ([ 0.0; 1.0; 1e5 ]
      @ (if full.Ode.Enclosure.complete then [ Box.width full.Ode.Enclosure.final ]
         else [])
      @ if complete then [ Box.width final ] else [])
  in
  let modes name a pb ~t_end =
    let params_box, init_box = C.interpret_box pb (C.searchable_box pb) in
    List.iter
      (fun q ->
        case (name ^ " " ^ q) (A.mode_system a q) ~inv:(A.find_mode a q).A.invariant
          ~params_box ~init_box ~t_end)
      (A.mode_names a)
  in
  let fk = Biomodels.Fenton_karma.automaton () in
  modes "E1" fk ~t_end:400.0
    (E.create ~min_jumps:2 ~goal:(Biomodels.Fenton_karma.spike_and_dome_goal ()) ~k:4
       ~time_bound:400.0 fk);
  let tbi = Biomodels.Tbi.automaton () in
  modes "E4" tbi ~t_end:40.0
    (E.create
       ~param_box:(Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ])
       ~goal:(Biomodels.Tbi.recovery_goal ()) ~k:1 ~time_bound:40.0 tbi);
  let decay = A.mode_system decay_k_automaton (List.hd (A.mode_names decay_k_automaton)) in
  let x1 = Box.of_list [ ("x", pt 1.0) ] in
  case "decay, k in [0.1, 3]" decay ~inv:Expr.Formula.tt
    ~params_box:(Box.of_list [ ("k", I.make 0.1 3.0) ]) ~init_box:x1 ~t_end:1.0;
  case "decay, k in [0.1, 0.5]" decay ~inv:Expr.Formula.tt
    ~params_box:(Box.of_list [ ("k", I.make 0.1 0.5) ]) ~init_box:x1 ~t_end:1.0;
  case "Lotka-Volterra" Biomodels.Classics.lotka_volterra ~inv:Expr.Formula.tt
    ~params_box:(Box.of_list [ ("a", I.make 0.9 1.1); ("b", I.make 0.9 1.1) ])
    ~init_box:(Box.of_list [ ("x", I.make 0.95 1.05); ("y", I.make 0.95 1.05) ])
    ~t_end:1.0;
  Alcotest.(check bool)
    (Printf.sprintf "usable %d, complete but too wide %d, incomplete %d: each occurs"
       !usable !too_wide !incomplete)
    true
    (!usable > 0 && !too_wide > 0 && !incomplete > 0)

(* ---- Segments end at the invariant ----

   Every segment [flow_enclosure] returns ends at its first step that
   leaves the mode invariant, so [truncate_at_invariant] keeps all of
   it and [path_feasible] reads the segments as they come.  Checked in
   hex on every segment of E1's and E4's path unrollings, each unrolled
   over the segments themselves, and on a decay whose tight tube leaves
   its invariant x >= 0.5 at t ≈ 0.69.  The stop is what makes E1's
   tube in fk_mid from the guard u = 0.13 usable: u falls below the
   invariant's 0.04 by t ≈ 15, and the tube ends there at width 0.01,
   where the full tube ran on to t = 112 and was rejected at width 1. *)
let test_segments_end_at_invariant () =
  let ended = ref 0 and rigor = Hashtbl.create 16 in
  let unrolled name (pb : E.t) =
    let a = pb.E.automaton in
    let params_box = fst (C.interpret_box pb (C.searchable_box pb)) in
    let segment q box =
      let sys = A.mode_system a q in
      let inv = C.judge sys (A.find_mode a q).A.invariant in
      let seg =
        C.flow_enclosure C.default_config sys ~inv ~prepared:(Ode.Enclosure.prepare sys)
          ~params_box ~init_box:box ~t_end:pb.E.time_bound
      in
      Option.iter
        (fun (seg : C.segment_enclosure) ->
          let steps = seg.C.steps in
          let n = Ode.Enclosure.length steps in
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s from %s" name q (Box.to_string box))
            (hex_steps (C.truncate_at_invariant inv ~params_box steps))
            (hex_steps steps);
          if n > 0 && C.judge_row inv ~params_box steps (n - 1) = Expr.Formula.Impossible
          then incr ended)
        seg;
      seg
    in
    let flow q box =
      match segment q box with
      | Some seg -> seg.C.steps
      | None -> Ode.Enclosure.(contents (builder (A.vars a)))
    in
    List.iter
      (fun path ->
        List.iteri
          (fun i (q, box) ->
            Hashtbl.replace rigor
              (name, String.concat "->" path, i)
              (Option.fold ~none:false ~some:(fun s -> s.C.rigorous) (segment q box)))
          (snd (path_boxes ~flow pb path)))
      (E.candidate_paths pb)
  in
  let fk = Biomodels.Fenton_karma.automaton () in
  unrolled "E1"
    (E.create ~min_jumps:2 ~goal:(Biomodels.Fenton_karma.spike_and_dome_goal ()) ~k:4
       ~time_bound:400.0 fk);
  let tbi = Biomodels.Tbi.automaton () in
  unrolled "E4"
    (E.create
       ~param_box:(Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ])
       ~goal:(Biomodels.Tbi.recovery_goal ()) ~k:2 ~time_bound:40.0 tbi);
  unrolled "decay"
    (E.create
       ~param_box:(Box.of_list [ ("k", I.make 1.0 1.01) ])
       ~goal:(goal "x <= 0.3") ~k:0 ~time_bound:3.0 (decay_inv_automaton "x >= 0.5"));
  Alcotest.(check (option bool)) "decay: rigorous" (Some true)
    (Hashtbl.find_opt rigor ("decay", "m", 0));
  Alcotest.(check bool)
    (Printf.sprintf "%d segments end at the invariant" !ended)
    true (!ended > 0);
  Alcotest.(check (option bool)) "E1: the fk_mid tube from the guard is rigorous"
    (Some true)
    (Hashtbl.find_opt rigor ("E1", "fk_high->fk_mid->fk_high", 1))

(* ---- Compiled row checks = [Formula.eval_cert] ----

   [C.judge_row] evaluates a tape with a root per atom over the row's
   intervals, the parameters and the row's time window.  Its verdict
   must be
   [eval_cert]'s on the same box, for random formulas from [Gen] (some
   with a time atom) over two layouts of x and y (both states, or x a
   state and y a parameter), on random rows whose intervals may be
   empty, unbounded on either side, entire or a point. *)
let test_compiled_checks () =
  let st = Random.State.make [| 523 |] in
  let itv () =
    let a = Random.State.float st 4.0 -. 2.0 in
    match Random.State.int st 9 with
    | 0 -> I.empty
    | 1 -> I.entire
    | 2 -> I.make a infinity
    | 3 -> I.make neg_infinity a
    | 4 -> I.of_float a
    | _ -> I.make a (a +. Random.State.float st 2.0)
  in
  let layouts =
    [ Ode.System.of_strings ~vars:[ "x"; "y" ] ~params:[] ~rhs:[ ("x", "y"); ("y", "-x") ];
      Ode.System.of_strings ~vars:[ "x" ] ~params:[ "y" ] ~rhs:[ ("x", "-y*x") ] ]
  in
  let verdicts = Hashtbl.create 3 in
  for case = 1 to 400 do
    let sys = List.nth layouts (case mod 2) in
    let f = Gen.formula st in
    let f =
      if Random.State.int st 3 = 0 then
        Expr.Formula.or_
          [ f; Expr.Formula.ge (Expr.Term.var "t") (Expr.Term.const (Random.State.float st 2.0)) ]
      else f
    in
    let vars = Ode.System.vars sys in
    let params_box =
      Box.of_list (List.map (fun p -> (p, itv ())) (Ode.System.params sys))
    in
    let rows = Ode.Enclosure.builder vars in
    let n = 1 + Random.State.int st 6 in
    for _ = 1 to n do
      let t_lo = Random.State.float st 2.0 in
      let t_hi = t_lo +. Random.State.float st 0.5 in
      let e = Array.of_list (List.map (fun _ -> itv ()) vars) in
      Ode.Enclosure.push rows ~t_lo ~t_hi e (Array.map (fun _ -> itv ()) e)
    done;
    let steps = Ode.Enclosure.contents rows in
    let j = C.judge sys f in
    for k = 0 to n - 1 do
      let box =
        Box.set Ode.System.time_var
          (I.make (Ode.Enclosure.t_lo steps k) (Ode.Enclosure.t_hi steps k))
          (Box.join params_box (Ode.Enclosure.enclosure steps k))
      in
      let want = Expr.Formula.eval_cert box f in
      Hashtbl.replace verdicts want ();
      if C.judge_row j ~params_box steps k <> want then
        Alcotest.failf "case %d, row %d: %s on %s" case k (Expr.Formula.to_string f)
          (Box.to_string box)
    done
  done;
  Alcotest.(check int) "every verdict occurs" 3 (Hashtbl.length verdicts)

(* A traced check books certification's simulations and the checks
   along each segment to reach, under spans of their own. *)
let test_check_spans () =
  let count name json =
    let key = Printf.sprintf "\"name\":\"%s\"" name in
    let n = String.length json and m = String.length key in
    let rec go i acc =
      if i + m > n then acc
      else go (i + 1) (if String.sub json i m = key then acc + 1 else acc)
    in
    go 0 0
  in
  Telemetry.reset ();
  Telemetry.set_trace true;
  let json =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.disable ();
        Telemetry.reset ())
      (fun () ->
        (match
           C.check
             (E.create
                ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
                ~goal:(goal "x <= 0.3") ~k:0 ~time_bound:1.0 decay_k_automaton)
         with
        | C.Delta_sat _ -> ()
        | r -> Alcotest.failf "expected delta-sat, got %a" C.pp_result r);
        Telemetry.Trace.to_json ())
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded") true (count name json > 0))
    [ "reach.seg_check"; "reach.certify" ]

let test_synthesize_threshold () =
  (* Partition k ∈ [0.1, 3.0] for goal x <= 0.3 by t=1: the boundary is at
     k* = -ln 0.3 ≈ 1.204.  Feasible boxes must lie (mostly) right of it,
     infeasible ones left. *)
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
      ~goal:(goal "x <= 0.3") ~k:0 ~time_bound:1.0 decay_k_automaton
  in
  let config = { C.default_config with epsilon = 0.05 } in
  let s = C.synthesize ~config pb in
  Alcotest.(check bool) "has feasible" true (s.C.feasible <> []);
  Alcotest.(check bool) "has infeasible" true (s.C.infeasible <> []);
  let kstar = -.Float.log 0.3 in
  List.iter
    (fun (b, _) ->
      Alcotest.(check bool) "feasible boxes right of k*" true
        (I.hi (Box.find "k" b) >= kstar -. 0.2))
    s.C.feasible;
  List.iter
    (fun (b, rigorous) ->
      Alcotest.(check bool) "infeasible proof is rigorous" true rigorous;
      Alcotest.(check bool) "infeasible boxes left of k*" true
        (I.lo (Box.find "k" b) <= kstar +. 0.2))
    s.C.infeasible

let test_witness_replays () =
  (* Simulating the automaton at the synthesized parameters must actually
     achieve the goal: end-to-end consistency. *)
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
      ~goal:(goal "x <= 0.3") ~k:0 ~time_bound:1.0 decay_k_automaton
  in
  let w = expect_delta_sat "synthesis" (C.check pb) in
  let tr =
    Ode.Integrate.simulate ~params:w.C.params ~init:[ ("x", 1.0) ] ~t_end:1.0
      (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])
  in
  Alcotest.(check bool) "goal achieved on replay" true
    ((Ode.Integrate.final_state tr).(0) <= 0.3 +. 0.01)

(* ---- drh export ---- *)

let test_drh_export () =
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("theta", I.make 0.5 1.5) ])
      ~goal:(goal ~modes:[ "down" ] "x <= 0 - 1/2") ~k:2 ~time_bound:3.0
      switch_automaton
  in
  let s = Reach.Drh.of_problem pb in
  let has sub = Astring_like.contains s sub in
  Alcotest.(check bool) "declares x" true (has "] x;");
  Alcotest.(check bool) "declares theta with its box" true (has "[0.5, 1.5] theta;");
  Alcotest.(check bool) "declares time" true (has "[0, 3] time;");
  Alcotest.(check bool) "has mode 1" true (has "{ mode 1;");
  Alcotest.(check bool) "has mode 2" true (has "{ mode 2;");
  Alcotest.(check bool) "flow syntax" true (has "d/dt[x] =");
  Alcotest.(check bool) "parameter is constant" true (has "d/dt[theta] = 0;");
  Alcotest.(check bool) "jump arrow" true (has "==> @2");
  Alcotest.(check bool) "reset assigns prime" true (has "(x' = 0)");
  Alcotest.(check bool) "init line" true (has "init: @1");
  Alcotest.(check bool) "goal line" true (has "goal: @2")

let test_drh_formula_syntax () =
  let f = P.formula "x >= 1 and (y > 2 or x <= 0)" in
  let s = Reach.Drh.formula_to_drh f in
  Alcotest.(check bool) "and rendered" true (Astring_like.contains s "(and ");
  Alcotest.(check bool) "or rendered" true (Astring_like.contains s "(or ");
  Alcotest.(check bool) "atoms vs zero" true (Astring_like.contains s ">= 0)")

(* ---- Property: certified witnesses replay ---- *)

let prop_witness_replays =
  let gen =
    QCheck.Gen.(
      float_range 0.1 0.6 >>= fun goal_level ->
      float_range 0.5 2.0 >>= fun k_hi -> return (goal_level, k_hi))
  in
  QCheck.Test.make ~count:25 ~name:"certified reach witnesses replay by simulation"
    (QCheck.make ~print:(fun (g, k) -> Printf.sprintf "goal=%g khi=%g" g k) gen)
    (fun (goal_level, k_hi) ->
      let pb =
        E.create
          ~param_box:(Box.of_list [ ("k", I.make 0.1 (0.1 +. k_hi)) ])
          ~goal:(goal (Printf.sprintf "x <= %.17g" goal_level))
          ~k:0 ~time_bound:1.5 decay_k_automaton
      in
      match C.check pb with
      | C.Delta_sat w when w.C.certified ->
          let tr =
            Ode.Integrate.simulate ~params:w.C.params ~init:w.C.init ~t_end:1.5
              (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ]
                 ~rhs:[ ("x", "-k*x") ])
          in
          (* the witness must achieve the goal somewhere on the horizon *)
          Array.exists (fun st -> st.(0) <= goal_level +. 0.01) tr.Ode.Integrate.states
      | C.Delta_sat _ -> true
      | C.Unsat _ ->
          (* unsat only acceptable when even the strongest k misses it *)
          Float.exp (-.(0.1 +. k_hi) *. 1.5) > goal_level -. 0.01
      | C.Unknown _ -> true)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_witness_replays ]

let () =
  Alcotest.run "reach"
    [
      ( "encoding",
        [
          Alcotest.test_case "validation" `Quick test_encoding_validation;
          Alcotest.test_case "candidate paths" `Quick test_candidate_paths;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "drh export" `Quick test_drh_export;
          Alcotest.test_case "drh formula syntax" `Quick test_drh_formula_syntax;
        ] );
      ( "checker",
        [
          Alcotest.test_case "decay sat" `Quick test_reach_decay_sat;
          Alcotest.test_case "decay unsat" `Quick test_reach_decay_unsat;
          Alcotest.test_case "goal mode filter" `Quick test_reach_goal_mode_filter;
          Alcotest.test_case "parameterized sat" `Quick test_reach_parameterized_sat;
          Alcotest.test_case "parameterized unsat" `Quick test_reach_parameterized_unsat;
          Alcotest.test_case "two modes sat" `Quick test_reach_two_modes;
          Alcotest.test_case "two modes unsat" `Quick test_reach_two_modes_unsat;
          Alcotest.test_case "layer switches agree" `Quick test_reach_layer_agreement;
          Alcotest.test_case "segment cache keys the TM switch" `Quick
            test_seg_cache_keys_tm;
          Alcotest.test_case "segment cache keys the invariant" `Quick
            test_seg_cache_keys_inv;
          Alcotest.test_case "streamed bracket = stored-trace oracle" `Quick
            test_bracket_oracle;
          Alcotest.test_case "synthesize respects the invariant" `Quick
            test_synthesize_respects_invariant;
          Alcotest.test_case "gate keeps its results" `Quick test_gate_keeps_results;
          Alcotest.test_case "segments end at the invariant" `Quick
            test_segments_end_at_invariant;
          Alcotest.test_case "compiled checks = eval_cert" `Quick test_compiled_checks;
          Alcotest.test_case "traced check books its checks" `Quick test_check_spans;
          Alcotest.test_case "synthesize threshold" `Slow test_synthesize_threshold;
          Alcotest.test_case "witness replays" `Quick test_witness_replays;
          Alcotest.test_case "duplicate members integrate once" `Quick
            test_duplicate_members;
        ] );
      ("properties", qcheck_tests);
    ]
