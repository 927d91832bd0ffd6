(* Differential tests: cached vs uncached analyses.

   The caches only replay results for boxes equal to a previously
   queried one, and every cached computation is a deterministic
   function of its key — so decide, pave, flow, reach and synthesize
   must produce *identical* answers with the caches on, off, and
   pre-populated, whatever layer switch flipped in between. *)

module I = Interval.Ia
module Box = Interval.Box
module T = Expr.Term
module F = Expr.Formula
module S = Icp.Solver
module Enc = Ode.Enclosure
module TM = Interval.Tm
module B = Synth.Biopsy
module D = Synth.Data

(* Every run below clears the caches before and after, so tests are
   independent of execution order and of each other's populations. *)
let with_cache on f =
  Cache.clear ();
  Cache.set_enabled on;
  Fun.protect
    ~finally:(fun () ->
      Cache.clear_enabled_override ();
      Cache.clear ())
    f

(* ---- result / paving equality ---- *)

let result_eq a b =
  match (a, b) with
  | S.Unsat, S.Unsat -> true
  | S.Unknown x, S.Unknown y -> String.equal x y
  | S.Delta_sat w1, S.Delta_sat w2 ->
      w1.S.certified = w2.S.certified
      && Box.equal w1.S.box w2.S.box
      && List.length w1.S.point = List.length w2.S.point
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && v1 = v2)
           w1.S.point w2.S.point
  | _ -> false

let pp_res r = Fmt.str "%a" S.pp_result r

let sorted_boxes bs = List.sort compare (List.map Box.to_string bs)

let paving_eq (p1 : S.paving) (p2 : S.paving) =
  sorted_boxes p1.S.sat = sorted_boxes p2.S.sat
  && sorted_boxes p1.S.unsat = sorted_boxes p2.S.unsat
  && sorted_boxes p1.S.undecided = sorted_boxes p2.S.undecided

(* ---- decide: cached = uncached, including a pre-populated cache ---- *)

let decide_config jobs =
  { S.default_config with epsilon = 1e-2; max_boxes = 5_000; jobs }

let test_decide_differential () =
  let st = Random.State.make [| 2026 |] in
  for case = 1 to 400 do
    let f = Gen.formula st and b = Gen.box st in
    let config = decide_config 1 in
    let off = with_cache false (fun () -> S.decide ~config f b) in
    let cold, again =
      with_cache true (fun () ->
          (* a second call in the same process, caches populated *)
          let r1 = S.decide ~config f b in
          let r2 = S.decide ~config f b in
          (r1, r2))
    in
    if not (result_eq off cold) then
      Alcotest.failf "case %d: off=%s cached=%s on %s | %s" case (pp_res off)
        (pp_res cold) (Fmt.str "%a" F.pp f) (Box.to_string b);
    if not (result_eq off again) then
      Alcotest.failf "case %d: off=%s replay=%s on %s" case (pp_res off)
        (pp_res again)
        (Fmt.str "%a" F.pp f)
  done

let test_decide_differential_parallel () =
  let st = Random.State.make [| 2027 |] in
  for case = 1 to 60 do
    let f = Gen.formula st and b = Gen.box st in
    let off = with_cache false (fun () -> S.decide ~config:(decide_config 2) f b) in
    let on = with_cache true (fun () -> S.decide ~config:(decide_config 2) f b) in
    (* Parallel searches stop at the first δ-sat found, so only the
       verdict kind is deterministic across runs. *)
    let kind = function
      | S.Unsat -> "unsat" | S.Delta_sat _ -> "sat" | S.Unknown _ -> "unknown"
    in
    if kind off <> kind on then
      Alcotest.failf "case %d (jobs=2): off=%s cached=%s" case (pp_res off)
        (pp_res on)
  done

(* Regression: contraction erases strictness (x > 0 and x >= 0 share a
   constraint), but the sat_possible pruning does not: on [-1, 0] at
   δ = 0 the strict atom is refuted while the non-strict one is δ-sat at
   the boundary.  Decided one after the other with the caches on, the
   strict refutation must not carry over to x >= 0. *)
let test_strictness_not_conflated () =
  let config = { S.default_config with delta = 0.0 } in
  let b = Box.of_list [ ("x", I.make (-1.0) 0.0) ] in
  let gt = F.gt (T.var "x") (T.const 0.0) in
  let ge = F.ge (T.var "x") (T.const 0.0) in
  with_cache true (fun () ->
      (match S.decide ~config gt b with
      | S.Unsat -> ()
      | r -> Alcotest.failf "x>0 on [-1,0] must be unsat, got %s" (pp_res r));
      match S.decide ~config ge b with
      | S.Delta_sat _ -> ()
      | r ->
          Alcotest.failf
            "x>=0 on [-1,0] must be delta-sat (strict refutation must not \
             replay), got %s"
            (pp_res r))

(* ---- pave: identical leaf sets ---- *)

let test_pave_differential () =
  let st = Random.State.make [| 2028 |] in
  let config = { S.default_config with epsilon = 0.25; max_boxes = 2_000 } in
  for case = 1 to 300 do
    let f = Gen.formula st and b = Gen.box st in
    let off = with_cache false (fun () -> S.pave ~config f b) in
    let cold, replay =
      with_cache true (fun () ->
          (S.pave ~config f b, S.pave ~config f b))
    in
    if not (paving_eq off cold) then
      Alcotest.failf "case %d: pavings differ (off vs cached) on %s" case
        (Fmt.str "%a" F.pp f);
    if not (paving_eq off replay) then
      Alcotest.failf "case %d: pavings differ (off vs replay) on %s" case
        (Fmt.str "%a" F.pp f);
    let vols p = S.paving_volumes ~over:Gen.vars p in
    if vols off <> vols cold then
      Alcotest.failf "case %d: paving volumes differ" case
  done

(* ---- flow: identical tubes with the caches on, off and on again ---- *)

let decay2 =
  Ode.System.of_strings ~vars:[ "u"; "v" ] ~params:[ "k" ]
    ~rhs:[ ("u", "-k*u"); ("v", "k*u - 0.5*v") ]

let rand_flow_query st =
  let k0 = 0.4 +. Random.State.float st 1.0 in
  let kw = Random.State.float st 0.3 in
  let u0 = 0.5 +. Random.State.float st 1.0 in
  let params = Box.of_list [ ("k", I.make k0 (k0 +. kw)) ] in
  let init =
    Box.of_list
      [ ("u", I.make u0 (u0 +. 0.05)); ("v", I.of_float 0.0) ]
  in
  let t_end = if Random.State.bool st then 0.5 else 1.0 in
  (params, init, t_end)

let step_eq a b k =
  Enc.t_lo a k = Enc.t_lo b k && Enc.t_hi a k = Enc.t_hi b k
  && Box.equal (Enc.enclosure a k) (Enc.enclosure b k)
  && Box.equal (Enc.at_end a k) (Enc.at_end b k)

let tube_eq (a : Enc.tube) (b : Enc.tube) =
  a.Enc.vars = b.Enc.vars && a.Enc.t_end = b.Enc.t_end
  && a.Enc.complete = b.Enc.complete
  && Box.equal a.Enc.final b.Enc.final
  && Enc.length a.Enc.steps = Enc.length b.Enc.steps
  && List.for_all (step_eq a.Enc.steps b.Enc.steps)
       (List.init (Enc.length a.Enc.steps) Fun.id)

let test_flow_differential () =
  let st = Random.State.make [| 2029 |] in
  for case = 1 to 200 do
    let params, init, t_end = rand_flow_query st in
    let off =
      with_cache false (fun () ->
          Enc.flow ~params ~init ~t_end decay2)
    in
    let cold, again =
      with_cache true (fun () ->
          let t1 = Enc.flow ~params ~init ~t_end decay2 in
          let t2 = Enc.flow ~params ~init ~t_end decay2 in
          (t1, t2))
    in
    if not (tube_eq off cold) then Alcotest.failf "case %d: tubes differ" case;
    if not (tube_eq cold again) then
      Alcotest.failf "case %d: a second flow differs from the first" case
  done

(* ---- biopsy: identical pavings, sequential and parallel ---- *)

let decay_k =
  Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]

let decay_data tol =
  List.map
    (fun t -> D.point ~time:t ~var:"x" ~value:(Float.exp (-.t)) ~tolerance:tol)
    [ 0.25; 0.5; 0.75; 1.0 ]

let rand_biopsy_problem st =
  let tol = 0.05 +. Random.State.float st 0.2 in
  let lo = 0.2 +. Random.State.float st 0.4 in
  let hi = lo +. 0.5 +. Random.State.float st 2.0 in
  B.problem ~sys:decay_k
    ~param_box:(Box.of_list [ ("k", I.make lo hi) ])
    ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
    ~data:(decay_data tol)

let biopsy_result_eq (a : B.result) (b : B.result) =
  sorted_boxes a.B.consistent = sorted_boxes b.B.consistent
  && sorted_boxes a.B.inconsistent = sorted_boxes b.B.inconsistent
  && sorted_boxes a.B.undecided = sorted_boxes b.B.undecided

let test_biopsy_differential () =
  let st = Random.State.make [| 2030 |] in
  let config = { B.default_config with epsilon = 0.05; max_boxes = 800 } in
  for case = 1 to 40 do
    let prob = rand_biopsy_problem st in
    let off = with_cache false (fun () -> B.synthesize ~config prob) in
    let cold, replay =
      with_cache true (fun () ->
          (B.synthesize ~config prob, B.synthesize ~config prob))
    in
    if not (biopsy_result_eq off cold) then
      Alcotest.failf "case %d: pavings differ (off vs cached)" case;
    if not (biopsy_result_eq off replay) then
      Alcotest.failf "case %d: pavings differ (off vs replay)" case;
    if off.B.boxes_explored <> cold.B.boxes_explored then
      Alcotest.failf "case %d: explored %d (off) vs %d (cached)" case
        off.B.boxes_explored cold.B.boxes_explored;
    (* Parallel paving with a shared cache: same leaves. *)
    let par =
      with_cache true (fun () ->
          B.synthesize ~config:{ config with jobs = 2 } prob)
    in
    if not (biopsy_result_eq off par) then
      Alcotest.failf "case %d: pavings differ (off vs cached jobs=2)" case
  done

(* ---- BIOMC_NO_CACHE / Off reproduces the uncached path ---- *)

let test_off_is_identity () =
  let st = Random.State.make [| 2034 |] in
  for case = 1 to 50 do
    let f = Gen.formula st and b = Gen.box st in
    let r1 = with_cache false (fun () -> S.decide f b) in
    let r2 = with_cache false (fun () -> S.decide f b) in
    if not (result_eq r1 r2) then Alcotest.failf "case %d: Off not deterministic" case
  done;
  (* Off: no lookups, no inserts. *)
  with_cache false (fun () ->
      let c : int Cache.t = Cache.create "test-off" in
      let b = Box.of_list [ ("x", I.make 0.0 1.0) ] in
      Cache.add c ~group:"g" b 1;
      Alcotest.(check int) "no insert under Off" 0 (Cache.length c);
      match Cache.find c ~group:"g" b with
      | None -> ()
      | Some _ -> Alcotest.fail "Off must always miss")

(* ---- store coverage: only the reach scan and BioPSy consult a cache ---- *)

(* The cache names whose lookups or insertions [f] moved, sorted. *)
let names_touched f =
  let before = Cache.named_stats () in
  f ();
  List.filter_map
    (fun (name, s) ->
      let b =
        Option.value ~default:Cache.zero_stats (List.assoc_opt name before)
      in
      let d = Cache.sub_stats s b in
      if d.Cache.hits + d.Cache.misses + d.Cache.insertions > 0 then Some name
      else None)
    (Cache.named_stats ())

let test_uncached_layers () =
  let st = Random.State.make [| 2035 |] in
  let pave_config =
    { S.default_config with epsilon = 0.25; max_boxes = 2_000 }
  in
  with_cache true (fun () ->
      let touched =
        names_touched (fun () ->
            for _ = 1 to 20 do
              let f = Gen.formula st and b = Gen.box st in
              ignore (S.decide ~config:(decide_config 1) f b);
              ignore (S.pave ~config:pave_config f b)
            done;
            let params, init, t_end = rand_flow_query st in
            ignore (Enc.flow ~params ~init ~t_end decay2))
      in
      Alcotest.(check (list string)) "no cache consulted" [] touched)

let test_two_stores () =
  let pb =
    Reach.Encoding.create
      ~param_box:(Box.of_list [ ("k", I.make 0.1 0.5) ])
      ~goal:
        { Reach.Encoding.goal_modes = [];
          predicate = Expr.Parse.formula "x <= 0.55" }
      ~k:0 ~time_bound:1.0
      (Hybrid.Automaton.of_system
         ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
         decay_k)
  in
  let config = { B.default_config with epsilon = 0.05; max_boxes = 800 } in
  let prob = rand_biopsy_problem (Random.State.make [| 2036 |]) in
  with_cache true (fun () ->
      let touched =
        names_touched (fun () ->
            ignore (Reach.Checker.check pb);
            ignore (B.synthesize ~config prob))
      in
      Alcotest.(check (list string)) "the two stores" [ "biopsy"; "reach-seg" ]
        touched)

(* ---- cache mechanics units ---- *)

let mkbox lo hi = Box.of_list [ ("x", I.make lo hi) ]

let test_exact_hit_identity () =
  with_cache true (fun () ->
      let c : string list Cache.t = Cache.create "test-unit" in
      let v = [ "a"; "b" ] in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) v;
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Some v' -> Alcotest.(check bool) "physically equal" true (v == v')
      | None -> Alcotest.fail "expected exact hit")

(* A containing box's entry does not answer for a sub-box: replay is
   exact only. *)
let test_exact_policy_no_subsumption () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox (-4.0) 4.0) 1;
      match Cache.find c ~group:"g" (mkbox (-0.5) 0.5) with
      | None -> ()
      | Some _ -> Alcotest.fail "a cache must not subsume")

let test_group_isolation () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g1" (mkbox 0.0 1.0) 1;
      match Cache.find c ~group:"g2" (mkbox 0.0 1.0) with
      | None -> ()
      | Some _ -> Alcotest.fail "groups must be isolated")

let test_capacity_eviction () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create ~group_capacity:4 "test-unit" in
      for i = 0 to 9 do
        Cache.add c ~group:"g" (mkbox 0.0 (float_of_int i +. 1.0)) i
      done;
      Alcotest.(check int) "capacity bound" 4 (Cache.length c);
      (* newest entries survive FIFO truncation *)
      (match Cache.find c ~group:"g" (mkbox 0.0 10.0) with
      | Some 9 -> ()
      | _ -> Alcotest.fail "newest entry must survive");
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | None -> ()
      | Some _ -> Alcotest.fail "oldest entry must be evicted")

let test_replace_equal_box () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 2;
      Alcotest.(check int) "replaced, not duplicated" 1 (Cache.length c);
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Some 2 -> ()
      | _ -> Alcotest.fail "replacement must win")

(* Replacing a key keeps its first-insertion slot in the eviction order
   (and adds no queue growth): after a replace, the key is still the
   oldest and evicts first once capacity is exceeded. *)
let test_replace_keeps_fifo_slot () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create ~group_capacity:2 "test-unit" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 10;
      Cache.add c ~group:"g" (mkbox 0.0 2.0) 2;
      Cache.add c ~group:"g" (mkbox 0.0 3.0) 3;
      Alcotest.(check int) "capacity bound" 2 (Cache.length c);
      (match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | None -> ()
      | Some _ -> Alcotest.fail "replaced key must still evict first");
      match Cache.find c ~group:"g" (mkbox 0.0 3.0) with
      | Some 3 -> ()
      | _ -> Alcotest.fail "newest entry must survive")

let test_clear_invalidates () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      Cache.clear ();
      (match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | None -> ()
      | Some _ -> Alcotest.fail "clear must invalidate");
      (* the cache is usable again after a clear *)
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 2;
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Some 2 -> ()
      | _ -> Alcotest.fail "cache must accept inserts after clear")

let test_stats_counting () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-stats" in
      let before = Cache.global_stats () in
      ignore (Cache.find c ~group:"g" (mkbox 0.0 1.0));
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      ignore (Cache.find c ~group:"g" (mkbox 0.0 1.0));
      let d = Cache.sub_stats (Cache.global_stats ()) before in
      Alcotest.(check int) "one miss" 1 d.Cache.misses;
      Alcotest.(check int) "one hit" 1 d.Cache.hits;
      Alcotest.(check int) "one insertion" 1 d.Cache.insertions;
      Alcotest.(check bool) "named stats include test-stats" true
        (List.mem_assoc "test-stats" (Cache.named_stats ())))

let test_concurrent_access () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to 249 do
                  let b = mkbox 0.0 (float_of_int ((i mod 25) + 1)) in
                  let g = Printf.sprintf "g%d" (i mod 3) in
                  (match Cache.find c ~group:g b with
                  | Some v -> assert (v = i mod 25)
                  | None -> Cache.add c ~group:g b (i mod 25))
                done;
                d))
      in
      let done_ = List.map Domain.join domains in
      Alcotest.(check (list int)) "all domains joined" [ 0; 1; 2; 3 ] done_)

(* Both stores cache values derived from a validated flow, and both key
   them by [Enclosure.flow_fingerprint]: the Taylor-model switch and its
   monomial budget.  A Lotka–Volterra reach check (the segment store)
   and a Lotka–Volterra calibration (the verdict store) run under three
   settings — TM at budget 64, TM at budget 1, TM off — each on a
   cleared cache, and every flip away from budget 64 moves both
   answers.  Then, in one process with the caches on and never
   cleared, each setting runs right after the budget-64 one and must
   give its cleared-cache answers, not replay the budget-64 ones. *)
let test_budget_keys_groups () =
  let near_one = I.make 0.9 1.1 in
  let reach_pb =
    Reach.Encoding.create
      ~param_box:(Box.of_list [ ("a", near_one); ("b", near_one) ])
      ~goal:{ Reach.Encoding.goal_modes = []; predicate = Expr.Parse.formula "x >= 3" }
      ~k:0 ~time_bound:1.0
      (Hybrid.Automaton.of_system
         ~init:(Box.of_list [ ("x", I.of_float 1.0); ("y", I.of_float 1.0) ])
         Biomodels.Classics.lotka_volterra)
  in
  let reach () = Fmt.str "%a" Reach.Checker.pp_result (Reach.Checker.check reach_pb) in
  let lv =
    B.problem
      ~sys:
        (Ode.System.of_strings ~vars:[ "x"; "y" ] ~params:[ "a"; "b" ]
           ~rhs:[ ("x", "a*x - x*y"); ("y", "x*y - b*y") ])
      ~param_box:(Box.of_list [ ("a", I.make 0.8 1.4); ("b", I.make 0.8 1.4) ])
      ~init:(Box.of_list [ ("x", I.make 0.95 1.05); ("y", I.make 0.95 1.05) ])
      ~data:
        [ D.point ~time:0.5 ~var:"x" ~value:1.05 ~tolerance:0.05;
          D.point ~time:1.0 ~var:"x" ~value:1.08 ~tolerance:0.05 ]
  in
  let biopsy () =
    Fmt.str "%a" B.pp_result
      (B.synthesize ~config:{ B.default_config with epsilon = 0.05 } lv)
  in
  (* (name, TM, budget); the first is the reference setting. *)
  let settings =
    [ ("budget 64", true, 64); ("budget 1", true, 1); ("TM off", false, 64) ]
  in
  let run (_, tm, budget) =
    TM.set_enabled tm;
    TM.set_budget budget;
    (reach (), biopsy ())
  in
  (* Newton and TM pinned, so the settings mean the same under every
     BIOMC_NO_* leg. *)
  Fun.protect ~finally:(fun () -> TM.set_budget TM.default_budget) @@ fun () ->
  Layers.with_layers (true, true) @@ fun () ->
  with_cache true @@ fun () ->
  let fresh =
    List.map
      (fun s ->
        Cache.clear ();
        run s)
      settings
  in
  let reach64, bio64 = List.hd fresh in
  List.iter2
    (fun (name, _, _) (r, b) ->
      Alcotest.(check bool) (name ^ " moves the reach check") true (r <> reach64);
      Alcotest.(check bool) (name ^ " moves the biopsy") true (b <> bio64))
    (List.tl settings) (List.tl fresh);
  Cache.clear ();
  List.iter2
    (fun ((name, _, _) as s) (r, b) ->
      ignore (run (List.hd settings));
      let r', b' = run s in
      Alcotest.(check string) (name ^ " reach check after a budget-64 one") r r';
      Alcotest.(check string) (name ^ " biopsy after a budget-64 one") b b')
    settings fresh

let () =
  Alcotest.run "cache"
    [ ( "differential",
        [ Alcotest.test_case "decide off=exact=replay" `Quick
            test_decide_differential;
          Alcotest.test_case "decide jobs=2" `Quick
            test_decide_differential_parallel;
          Alcotest.test_case "pave off=exact=replay" `Quick
            test_pave_differential;
          Alcotest.test_case "flow off=exact, hit identity" `Quick
            test_flow_differential;
          Alcotest.test_case "biopsy off=exact=replay, jobs=2" `Quick
            test_biopsy_differential;
          Alcotest.test_case "Off reproduces uncached" `Quick
            test_off_is_identity;
          Alcotest.test_case "strictness not conflated in refuted store"
            `Quick test_strictness_not_conflated;
          Alcotest.test_case "TM budget keys every TM group" `Quick
            test_budget_keys_groups ] );
      ( "store coverage",
        [ Alcotest.test_case "decide, pave and flow uncached" `Quick
            test_uncached_layers;
          Alcotest.test_case "only reach-seg and biopsy" `Quick
            test_two_stores ] );
      ( "mechanics",
        [ Alcotest.test_case "exact hit identity" `Quick test_exact_hit_identity;
          Alcotest.test_case "exact never subsumes" `Quick
            test_exact_policy_no_subsumption;
          Alcotest.test_case "group isolation" `Quick test_group_isolation;
          Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
          Alcotest.test_case "replace equal box" `Quick test_replace_equal_box;
          Alcotest.test_case "replace keeps FIFO slot" `Quick
            test_replace_keeps_fifo_slot;
          Alcotest.test_case "clear invalidates" `Quick test_clear_invalidates;
          Alcotest.test_case "stats counting" `Quick test_stats_counting;
          Alcotest.test_case "concurrent access" `Quick test_concurrent_access ] ) ]
