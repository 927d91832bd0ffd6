(* Tests for BioPSy-style guaranteed parameter synthesis. *)

module I = Interval.Ia
module Box = Interval.Box
module D = Synth.Data
module B = Synth.Biopsy

let decay_k =
  Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]

(* Exact data for k = 1 from x0 = 1, generous bands. *)
let decay_data tol =
  List.map
    (fun t -> D.point ~time:t ~var:"x" ~value:(Float.exp (-.t)) ~tolerance:tol)
    [ 0.25; 0.5; 0.75; 1.0 ]

let problem ?(tol = 0.1) ?(lo = 0.2) ?(hi = 3.0) () =
  B.problem ~sys:decay_k
    ~param_box:(Box.of_list [ ("k", I.make lo hi) ])
    ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
    ~data:(decay_data tol)

(* ---- Data ---- *)

let test_data_validation () =
  Alcotest.check_raises "negative tolerance"
    (Invalid_argument "Data.point: negative tolerance") (fun () ->
      ignore (D.point ~time:1.0 ~var:"x" ~value:0.0 ~tolerance:(-0.1)));
  Alcotest.check_raises "negative time" (Invalid_argument "Data.point: negative time")
    (fun () -> ignore (D.point ~time:(-1.0) ~var:"x" ~value:0.0 ~tolerance:0.1))

let test_data_accessors () =
  let d = decay_data 0.1 in
  Alcotest.(check (float 1e-12)) "horizon" 1.0 (D.horizon d);
  Alcotest.(check (list string)) "vars" [ "x" ] (D.vars d);
  let b = D.band (List.hd d) in
  Alcotest.(check bool) "band contains value" true (I.mem (Float.exp (-0.25)) b);
  Alcotest.(check bool) "band width = 2 tol" true (Float.abs (I.width b -. 0.2) < 1e-9)

let test_data_trace_consistency () =
  let trace =
    Ode.Integrate.simulate ~method_:(Ode.Integrate.Rk4 0.001) ~params:[ ("k", 1.0) ]
      ~init:[ ("x", 1.0) ] ~t_end:1.0 decay_k
  in
  Alcotest.(check bool) "k=1 consistent" true
    (D.consistent_with_trace (decay_data 0.05) trace);
  Alcotest.(check bool) "sse small" true (D.sse (decay_data 0.05) trace < 1e-6);
  let trace2 =
    Ode.Integrate.simulate ~method_:(Ode.Integrate.Rk4 0.001) ~params:[ ("k", 2.0) ]
      ~init:[ ("x", 1.0) ] ~t_end:1.0 decay_k
  in
  Alcotest.(check bool) "k=2 inconsistent" false
    (D.consistent_with_trace (decay_data 0.05) trace2)

let test_synthetic_data () =
  let rng = Random.State.make [| 11 |] in
  let d =
    D.synthetic ~rng ~sys:decay_k ~params:[ ("k", 1.0) ] ~init:[ ("x", 1.0) ]
      ~t_end:1.0 ~observed:[ "x" ] ~n:5 ~noise:0.01 ~tolerance:0.05
  in
  Alcotest.(check int) "5 points" 5 (List.length d);
  List.iter
    (fun (p : D.point) ->
      Alcotest.(check bool) "close to truth" true
        (Float.abs (p.D.value -. Float.exp (-.p.D.time)) <= 0.0100001))
    d;
  (* reproducible *)
  let rng2 = Random.State.make [| 11 |] in
  let d2 =
    D.synthetic ~rng:rng2 ~sys:decay_k ~params:[ ("k", 1.0) ] ~init:[ ("x", 1.0) ]
      ~t_end:1.0 ~observed:[ "x" ] ~n:5 ~noise:0.01 ~tolerance:0.05
  in
  List.iter2
    (fun (a : D.point) (b : D.point) ->
      Alcotest.(check (float 0.0)) "deterministic" a.D.value b.D.value)
    d d2

(* ---- Problem validation ---- *)

let test_problem_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : B.problem) -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "missing param box" (fun () ->
      B.problem ~sys:decay_k ~param_box:Box.empty_map
        ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
        ~data:(decay_data 0.1));
  expect_invalid "missing init" (fun () ->
      B.problem ~sys:decay_k
        ~param_box:(Box.of_list [ ("k", I.make 0.0 1.0) ])
        ~init:Box.empty_map ~data:(decay_data 0.1));
  expect_invalid "unknown data var" (fun () ->
      B.problem ~sys:decay_k
        ~param_box:(Box.of_list [ ("k", I.make 0.0 1.0) ])
        ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
        ~data:[ D.point ~time:0.5 ~var:"nope" ~value:1.0 ~tolerance:0.1 ])

(* ---- Synthesis ---- *)

let test_synthesize_brackets_truth () =
  let prob = problem () in
  let r = B.synthesize ~config:{ B.default_config with epsilon = 0.02 } prob in
  Alcotest.(check bool) "not falsified" false (B.falsified r);
  Alcotest.(check bool) "has consistent boxes" true (r.B.consistent <> []);
  Alcotest.(check bool) "has inconsistent boxes" true (r.B.inconsistent <> []);
  (* every consistent box must be near k = 1 *)
  List.iter
    (fun b ->
      let k = Box.find "k" b in
      Alcotest.(check bool) "consistent near 1" true (I.lo k > 0.6 && I.hi k < 1.4))
    r.B.consistent;
  (* the truth is not in any inconsistent box *)
  List.iter
    (fun b ->
      Alcotest.(check bool) "truth not excluded" false (I.mem 1.0 (Box.find "k" b)))
    r.B.inconsistent;
  (* volumes partition the box *)
  let vc, vi, vu = B.volumes prob r in
  Alcotest.(check bool) "volumes sum" true (Float.abs (vc +. vi +. vu -. 2.8) < 0.01)

let test_falsification () =
  (* Data demanding growth: the decay model cannot fit for any k > 0. *)
  let growth_data =
    [ D.point ~time:0.5 ~var:"x" ~value:2.0 ~tolerance:0.2;
      D.point ~time:1.0 ~var:"x" ~value:4.0 ~tolerance:0.2 ]
  in
  let prob =
    B.problem ~sys:decay_k
      ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      ~data:growth_data
  in
  let r = B.synthesize prob in
  Alcotest.(check bool) "falsified" true (B.falsified r);
  Alcotest.(check bool) "everything inconsistent" true (r.B.consistent = [])

let test_fit_recovers_truth () =
  let prob = problem ~tol:0.05 () in
  match B.fit prob with
  | None -> Alcotest.fail "fit should succeed"
  | Some (env, sse) ->
      Alcotest.(check bool) "k near 1" true (Float.abs (List.assoc "k" env -. 1.0) < 0.1);
      Alcotest.(check bool) "sse small" true (sse < 1e-3)

let test_two_parameter_synthesis () =
  (* x' = a - b x: equilibrium a/b; data from a = 1, b = 2. *)
  let sys =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "a"; "b" ] ~rhs:[ ("x", "a - b*x") ]
  in
  let truth t = 0.5 -. (0.5 *. Float.exp (-2.0 *. t)) in
  let data =
    List.map
      (fun t -> D.point ~time:t ~var:"x" ~value:(truth t) ~tolerance:0.05)
      [ 0.3; 0.6; 1.0; 2.0 ]
  in
  let prob =
    B.problem ~sys
      ~param_box:(Box.of_list [ ("a", I.make 0.2 2.0); ("b", I.make 0.5 4.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 0.0) ])
      ~data
  in
  let r = B.synthesize ~config:{ B.default_config with epsilon = 0.1 } prob in
  Alcotest.(check bool) "not falsified" false (B.falsified r);
  (* the ground truth is never excluded *)
  List.iter
    (fun b ->
      Alcotest.(check bool) "truth survives" false
        (Box.contains_env [ ("a", 1.0); ("b", 2.0) ] b))
    r.B.inconsistent

(* Every setting of the Newton and Taylor-model switches gives a sound
   paving of the parameter box: the truth k = 1 is never ruled out, the
   volumes partition the box, and no setting's consistent box shares
   volume with another setting's inconsistent box. *)
let test_layer_agreement () =
  let prob = problem () in
  let config = { B.default_config with epsilon = 0.05 } in
  let runs =
    List.map
      (fun layers ->
        (Layers.name layers,
          Layers.with_layers layers (fun () -> B.synthesize ~config prob)))
      Layers.settings
  in
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool) (name ^ ": not falsified") false (B.falsified r);
      Alcotest.(check bool)
        (name ^ ": truth not excluded") false
        (List.exists (fun b -> I.mem 1.0 (Box.find "k" b)) r.B.inconsistent);
      let vc, vi, vu = B.volumes prob r in
      Alcotest.(check bool)
        (name ^ ": volumes sum") true
        (Float.abs (vc +. vi +. vu -. 2.8) < 1e-9);
      List.iter
        (fun (other, r') ->
          Alcotest.(check bool)
            (Printf.sprintf "%s consistent vs %s inconsistent" name other)
            false
            (List.exists
               (fun c ->
                 List.exists
                   (fun i -> Box.volume (Box.inter c i) > 0.0)
                   r'.B.inconsistent)
               r.B.consistent))
        runs)
    runs

let test_undecided_shrinks_with_epsilon () =
  let prob = problem () in
  let run eps =
    let r = B.synthesize ~config:{ B.default_config with epsilon = eps } prob in
    let _, _, vu = B.volumes prob r in
    vu
  in
  let coarse = run 0.4 and fine = run 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "undecided volume shrinks (%.3f -> %.3f)" coarse fine)
    true (fine <= coarse +. 1e-9)

(* ---- Property tests ---- *)

let prop_truth_never_inconsistent =
  let gen = QCheck.Gen.float_range 0.5 2.5 in
  QCheck.Test.make ~count:20 ~name:"ground truth never lands in an inconsistent box"
    (QCheck.make ~print:string_of_float gen)
    (fun k_true ->
      let data =
        List.map
          (fun t ->
            D.point ~time:t ~var:"x" ~value:(Float.exp (-.k_true *. t)) ~tolerance:0.05)
          [ 0.5; 1.0 ]
      in
      let prob =
        B.problem ~sys:decay_k
          ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
          ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
          ~data
      in
      let r = B.synthesize ~config:{ B.default_config with epsilon = 0.05 } prob in
      List.for_all (fun b -> not (I.mem k_true (Box.find "k" b))) r.B.inconsistent)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_truth_never_inconsistent ]

let () =
  Alcotest.run "synth"
    [
      ( "data",
        [
          Alcotest.test_case "validation" `Quick test_data_validation;
          Alcotest.test_case "accessors" `Quick test_data_accessors;
          Alcotest.test_case "trace consistency" `Quick test_data_trace_consistency;
          Alcotest.test_case "synthetic generation" `Quick test_synthetic_data;
        ] );
      ( "biopsy",
        [
          Alcotest.test_case "problem validation" `Quick test_problem_validation;
          Alcotest.test_case "brackets the truth" `Quick test_synthesize_brackets_truth;
          Alcotest.test_case "falsification" `Quick test_falsification;
          Alcotest.test_case "fit recovers truth" `Quick test_fit_recovers_truth;
          Alcotest.test_case "layer switches agree" `Quick test_layer_agreement;
          Alcotest.test_case "two parameters" `Slow test_two_parameter_synthesis;
          Alcotest.test_case "epsilon refinement" `Slow test_undecided_shrinks_with_epsilon;
        ] );
      ("properties", qcheck_tests);
    ]
