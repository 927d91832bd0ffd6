(* Differential tests: cached vs uncached analyses.

   The Exact policy (the default) only replays results for boxes equal
   to a previously queried one, and every cached computation is a
   deterministic function of its key — so decide, pave, flow and
   synthesize must produce *identical* answers with the caches on, off,
   and pre-populated.  The Warm policy relaxes identity to soundness
   (subsumption reuse, warm-started enclosures), which we check against
   ground truth instead: refutations stay refutations, enclosures still
   contain sampled trajectories, and All_fit boxes really fit the data. *)

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
let with_policy p f =
  Cache.clear ();
  Cache.set_policy p;
  Fun.protect
    ~finally:(fun () ->
      Cache.clear_policy_override ();
      Cache.clear ())
    f

(* ---- random generators (deterministic seeds) ---- *)

let vars = [ "x"; "y" ]
let nvars = List.length vars

let rand_leaf st =
  if Random.State.bool st then T.var (List.nth vars (Random.State.int st nvars))
  else T.const (Random.State.float st 4.0 -. 2.0)

let rec rand_term st depth =
  if depth = 0 then rand_leaf st
  else
    let sub () = rand_term st (depth - 1) in
    match Random.State.int st 8 with
    | 0 -> T.add (sub ()) (sub ())
    | 1 -> T.sub (sub ()) (sub ())
    | 2 -> T.mul (sub ()) (sub ())
    | 3 -> T.neg (sub ())
    | 4 -> T.pow (sub ()) (1 + Random.State.int st 3)
    | 5 -> T.sin (sub ())
    | 6 -> T.min_ (sub ()) (sub ())
    | _ -> rand_leaf st

let rand_formula st =
  let atom () =
    F.atom (if Random.State.bool st then F.Gt else F.Ge)
      (rand_term st (1 + Random.State.int st 3))
  in
  match Random.State.int st 4 with
  | 0 -> atom ()
  | 1 -> F.and_ [ atom (); atom () ]
  | 2 -> F.or_ [ atom (); atom () ]
  | _ -> F.and_ [ F.or_ [ atom (); atom () ]; atom () ]

let rand_box st =
  Box.of_list
    (List.map
       (fun v ->
         let a = Random.State.float st 4.0 -. 2.0 in
         let w = Random.State.float st 2.0 in
         (v, I.make a (a +. w)))
       vars)

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
    let f = rand_formula st and b = rand_box st in
    let config = decide_config 1 in
    let off = with_policy Cache.Off (fun () -> S.decide ~config f b) in
    let cold, warm =
      with_policy Cache.Exact (fun () ->
          (* second call answers from the populated cache *)
          let r1 = S.decide ~config f b in
          let r2 = S.decide ~config f b in
          (r1, r2))
    in
    if not (result_eq off cold) then
      Alcotest.failf "case %d: off=%s cached=%s on %s | %s" case (pp_res off)
        (pp_res cold) (Fmt.str "%a" F.pp f) (Box.to_string b);
    if not (result_eq off warm) then
      Alcotest.failf "case %d: off=%s replay=%s on %s" case (pp_res off)
        (pp_res warm)
        (Fmt.str "%a" F.pp f)
  done

let test_decide_differential_parallel () =
  let st = Random.State.make [| 2027 |] in
  for case = 1 to 60 do
    let f = rand_formula st and b = rand_box st in
    let off = with_policy Cache.Off (fun () -> S.decide ~config:(decide_config 2) f b) in
    let on = with_policy Cache.Exact (fun () -> S.decide ~config:(decide_config 2) f b) in
    (* Parallel searches stop at the first δ-sat found, so only the
       verdict kind is deterministic across runs. *)
    let kind = function
      | S.Unsat -> "unsat" | S.Delta_sat _ -> "sat" | S.Unknown _ -> "unknown"
    in
    if kind off <> kind on then
      Alcotest.failf "case %d (jobs=2): off=%s cached=%s" case (pp_res off)
        (pp_res on)
  done

(* Regression: the refuted-box store must key on each atom's relation.
   Contraction erases strictness (x > 0 and x >= 0 share a constraint
   fingerprint), but the sat_possible pruning does not: on [-1, 0] at
   δ = 0 the strict atom is refuted while the non-strict one is δ-sat at
   the boundary.  A conflated key replays the strict refutation and
   returns a wrong Unsat for x >= 0. *)
let test_strictness_not_conflated () =
  let config = { S.default_config with delta = 0.0 } in
  let b = Box.of_list [ ("x", I.make (-1.0) 0.0) ] in
  let gt = F.gt (T.var "x") (T.const 0.0) in
  let ge = F.ge (T.var "x") (T.const 0.0) in
  with_policy Cache.Exact (fun () ->
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
    let f = rand_formula st and b = rand_box st in
    let off = with_policy Cache.Off (fun () -> S.pave ~config f b) in
    let cold, replay =
      with_policy Cache.Exact (fun () ->
          (S.pave ~config f b, S.pave ~config f b))
    in
    if not (paving_eq off cold) then
      Alcotest.failf "case %d: pavings differ (off vs cached) on %s" case
        (Fmt.str "%a" F.pp f);
    if not (paving_eq off replay) then
      Alcotest.failf "case %d: pavings differ (off vs replay) on %s" case
        (Fmt.str "%a" F.pp f);
    let vols p = S.paving_volumes ~over:vars p in
    if vols off <> vols cold then
      Alcotest.failf "case %d: paving volumes differ" case
  done

(* ---- flow: identical tubes, and exact hits return the same tube ---- *)

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

let step_eq (a : Enc.step) (b : Enc.step) =
  a.Enc.t_lo = b.Enc.t_lo && a.Enc.t_hi = b.Enc.t_hi
  && Box.equal a.Enc.enclosure b.Enc.enclosure
  && Box.equal a.Enc.at_end b.Enc.at_end

let tube_eq (a : Enc.tube) (b : Enc.tube) =
  a.Enc.vars = b.Enc.vars && a.Enc.t_end = b.Enc.t_end
  && a.Enc.complete = b.Enc.complete
  && Box.equal a.Enc.final b.Enc.final
  && List.length a.Enc.steps = List.length b.Enc.steps
  && List.for_all2 step_eq a.Enc.steps b.Enc.steps

let test_flow_differential () =
  let st = Random.State.make [| 2029 |] in
  for case = 1 to 200 do
    let params, init, t_end = rand_flow_query st in
    let off =
      with_policy Cache.Off (fun () ->
          Enc.flow ~params ~init ~t_end decay2)
    in
    let cold, hit =
      with_policy Cache.Exact (fun () ->
          let t1 = Enc.flow ~params ~init ~t_end decay2 in
          let t2 = Enc.flow ~params ~init ~t_end decay2 in
          (t1, t2))
    in
    if not (tube_eq off cold) then Alcotest.failf "case %d: tubes differ" case;
    if not (hit == cold) then
      Alcotest.failf "case %d: exact hit did not return the cached tube" case
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
    let off = with_policy Cache.Off (fun () -> B.synthesize ~config prob) in
    let cold, replay =
      with_policy Cache.Exact (fun () ->
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
      with_policy Cache.Exact (fun () ->
          B.synthesize ~config:{ config with jobs = 2 } prob)
    in
    if not (biopsy_result_eq off par) then
      Alcotest.failf "case %d: pavings differ (off vs cached jobs=2)" case
  done

(* ---- Warm policy: sound, checked against ground truth ---- *)

(* An Unsat verdict is a proof; caching must never flip one.  Decide the
   full box first (populating the refuted-box store), then sub-boxes:
   under Warm those may be answered by subsumption, and any Unsat must
   agree with the uncached answer. *)
let test_warm_decide_sound () =
  let st = Random.State.make [| 2031 |] in
  let config = decide_config 1 in
  for case = 1 to 150 do
    let f = rand_formula st and b = rand_box st in
    let shrink b =
      Box.of_list
        (List.map
           (fun (v, itv) ->
             let w = I.width itv in
             (v, I.make (I.lo itv +. (0.25 *. w)) (I.hi itv -. (0.25 *. w))))
           (Box.to_list b))
    in
    let sub = shrink b in
    let off_sub = with_policy Cache.Off (fun () -> S.decide ~config f sub) in
    let warm_sub =
      with_policy Cache.Warm (fun () ->
          ignore (S.decide ~config f b);
          S.decide ~config f sub)
    in
    match (off_sub, warm_sub) with
    | S.Delta_sat _, S.Unsat ->
        Alcotest.failf "case %d: warm cache flipped sat to unsat on %s" case
          (Fmt.str "%a" F.pp f)
    | S.Unsat, S.Delta_sat _ ->
        Alcotest.failf "case %d: warm cache flipped unsat to sat on %s" case
          (Fmt.str "%a" F.pp f)
    | _ -> ()
  done

(* A warm-started tube must still contain a numerically sampled
   trajectory from the midpoint of the (sub-)query. *)
let trajectory_inside tube ~params ~init =
  let env = Box.mid_env params and ienv = Box.mid_env init in
  let tr =
    Ode.Integrate.simulate ~params:env ~init:ienv
      ~t_end:tube.Enc.t_end decay2
  in
  List.for_all
    (fun (s : Enc.step) ->
      let t = 0.5 *. (s.Enc.t_lo +. s.Enc.t_hi) in
      let state = Ode.Integrate.state_at tr t in
      List.for_all2
        (fun v x ->
          (* generous slack: the sampled trajectory is itself approximate *)
          let itv = Box.find v s.Enc.enclosure in
          x >= I.lo itv -. 1e-6 && x <= I.hi itv +. 1e-6)
        tube.Enc.vars (Array.to_list state))
    tube.Enc.steps

let test_warm_flow_sound () =
  let st = Random.State.make [| 2032 |] in
  for case = 1 to 50 do
    let params, init, t_end = rand_flow_query st in
    let shrink b =
      Box.map
        (fun itv ->
          let w = I.width itv in
          I.make (I.lo itv +. (0.3 *. w)) (I.hi itv -. (0.3 *. w)))
        b
    in
    let sub_params = shrink params and sub_init = shrink init in
    let tube =
      with_policy Cache.Warm (fun () ->
          ignore (Enc.flow ~params ~init ~t_end decay2);
          Enc.flow ~params:sub_params ~init:sub_init ~t_end decay2)
    in
    if tube.Enc.complete && not (trajectory_inside tube ~params:sub_params ~init:sub_init)
    then Alcotest.failf "case %d: warm tube does not enclose trajectory" case
  done

(* Under Warm, every box synthesize proves consistent must really fit:
   its midpoint trajectory passes through all bands. *)
let test_warm_biopsy_sound () =
  let st = Random.State.make [| 2033 |] in
  let config = { B.default_config with epsilon = 0.05; max_boxes = 800 } in
  for case = 1 to 20 do
    let prob = rand_biopsy_problem st in
    let r =
      with_policy Cache.Warm (fun () ->
          ignore (B.synthesize ~config prob);
          (* refine: the sub-box reuses parental verdicts *)
          B.synthesize ~config { prob with B.param_box = prob.B.param_box })
    in
    List.iter
      (fun cbox ->
        let params = Box.mid_env cbox in
        let tr =
          Ode.Integrate.simulate ~params ~init:(Box.mid_env prob.B.init)
            ~t_end:(D.horizon prob.B.data) decay_k
        in
        if not (D.consistent_with_trace prob.B.data tr) then
          Alcotest.failf "case %d: consistent box %s rejects its midpoint" case
            (Box.to_string cbox))
      r.B.consistent
  done

(* ---- BIOMC_NO_CACHE / Off reproduces the uncached path ---- *)

let test_off_is_identity () =
  let st = Random.State.make [| 2034 |] in
  for case = 1 to 50 do
    let f = rand_formula st and b = rand_box st in
    let r1 = with_policy Cache.Off (fun () -> S.decide f b) in
    let r2 = with_policy Cache.Off (fun () -> S.decide f b) in
    if not (result_eq r1 r2) then Alcotest.failf "case %d: Off not deterministic" case
  done;
  (* Off: no lookups, no inserts. *)
  with_policy Cache.Off (fun () ->
      let c : int Cache.t = Cache.create "test-off" in
      let b = Box.of_list [ ("x", I.make 0.0 1.0) ] in
      Cache.add c ~group:"g" b 1;
      Alcotest.(check int) "no insert under Off" 0 (Cache.length c);
      match Cache.find c ~group:"g" b with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "Off must always miss")

(* ---- cache mechanics units ---- *)

let mkbox lo hi = Box.of_list [ ("x", I.make lo hi) ]

let test_exact_hit_identity () =
  with_policy Cache.Exact (fun () ->
      let c : string list Cache.t = Cache.create "test-unit" in
      let v = [ "a"; "b" ] in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) v;
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Cache.Hit v' -> Alcotest.(check bool) "physically equal" true (v == v')
      | _ -> Alcotest.fail "expected exact hit")

let test_subsumption_tightest () =
  with_policy Cache.Warm (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox (-4.0) 4.0) 1;
      Cache.add c ~group:"g" (mkbox (-1.0) 1.0) 2;
      Cache.add c ~group:"g" (mkbox 5.0 9.0) 3;
      (match Cache.find c ~group:"g" (mkbox (-0.5) 0.5) with
      | Cache.Subsumed (eb, v) ->
          Alcotest.(check int) "tightest container wins" 2 v;
          Alcotest.(check bool) "its box" true (Box.equal eb (mkbox (-1.0) 1.0))
      | Cache.Hit _ -> Alcotest.fail "no exact entry exists"
      | Cache.Miss -> Alcotest.fail "expected subsumption hit");
      (* no containment → miss, even under Warm *)
      match Cache.find c ~group:"g" (mkbox 3.0 6.0) with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "expected miss")

let test_exact_policy_no_subsumption () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox (-4.0) 4.0) 1;
      match Cache.find c ~group:"g" (mkbox (-0.5) 0.5) with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "Exact policy must not subsume")

let test_group_isolation () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g1" (mkbox 0.0 1.0) 1;
      match Cache.find c ~group:"g2" (mkbox 0.0 1.0) with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "groups must be isolated")

let test_capacity_eviction () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create ~group_capacity:4 "test-unit" in
      for i = 0 to 9 do
        Cache.add c ~group:"g" (mkbox 0.0 (float_of_int i +. 1.0)) i
      done;
      Alcotest.(check int) "capacity bound" 4 (Cache.length c);
      (* newest entries survive FIFO truncation *)
      (match Cache.find c ~group:"g" (mkbox 0.0 10.0) with
      | Cache.Hit 9 -> ()
      | _ -> Alcotest.fail "newest entry must survive");
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "oldest entry must be evicted")

let test_replace_equal_box () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 2;
      Alcotest.(check int) "replaced, not duplicated" 1 (Cache.length c);
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Cache.Hit 2 -> ()
      | _ -> Alcotest.fail "replacement must win")

(* Replacing a key keeps its first-insertion slot in the eviction order
   (and adds no queue growth): after a replace, the key is still the
   oldest and evicts first once capacity is exceeded. *)
let test_replace_keeps_fifo_slot () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create ~group_capacity:2 "test-unit" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 10;
      Cache.add c ~group:"g" (mkbox 0.0 2.0) 2;
      Cache.add c ~group:"g" (mkbox 0.0 3.0) 3;
      Alcotest.(check int) "capacity bound" 2 (Cache.length c);
      (match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "replaced key must still evict first");
      match Cache.find c ~group:"g" (mkbox 0.0 3.0) with
      | Cache.Hit 3 -> ()
      | _ -> Alcotest.fail "newest entry must survive")

(* A contractor closure built while the policy is Off must start caching
   after set_policy enables it (the policy is read per call, not baked in
   at closure creation). *)
let test_contractor_policy_flip () =
  Cache.clear ();
  Cache.set_policy Cache.Off;
  let a = { F.term = T.sub (T.var "x") (T.const 0.5); rel = F.Ge } in
  let contract =
    Icp.Contractor.contractor [ Icp.Contractor.of_atom ~delta:0.0 a ]
  in
  Fun.protect
    ~finally:(fun () ->
      Cache.clear_policy_override ();
      Cache.clear ())
    (fun () ->
      Cache.set_policy Cache.Exact;
      let b = Box.of_list [ ("x", I.make 0.0 1.0) ] in
      let before = Cache.global_stats () in
      let r1 = contract b in
      let r2 = contract b in
      (match (r1, r2) with
      | Some b1, Some b2 ->
          Alcotest.(check bool) "same contraction" true (Box.equal b1 b2)
      | None, None -> ()
      | _ -> Alcotest.fail "cached and fresh contraction disagree");
      let d = Cache.sub_stats (Cache.global_stats ()) before in
      Alcotest.(check bool) "second call hits" true (d.Cache.hits >= 1))

(* Warm-start iteration accounting is signed: a costlier-than-parent warm
   run subtracts, so the aggregate is the net savings. *)
let test_warm_saved_signed () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create "test-warm-net" in
      let before = Cache.global_stats () in
      Cache.note_warm_start c ~saved_iterations:5;
      Cache.note_warm_start c ~saved_iterations:(-2);
      let d = Cache.sub_stats (Cache.global_stats ()) before in
      Alcotest.(check int) "two warm starts" 2 d.Cache.warm_starts;
      Alcotest.(check int) "net savings" 3 d.Cache.warm_saved_iterations)

let test_clear_invalidates () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      Cache.clear ();
      (match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "clear must invalidate");
      (* the cache is usable again after a clear *)
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 2;
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Cache.Hit 2 -> ()
      | _ -> Alcotest.fail "cache must accept inserts after clear")

let test_stats_counting () =
  with_policy Cache.Exact (fun () ->
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

(* ---- auto-demote of hitless groups ---- *)

(* A group accumulating [demote_after] consecutive misses with zero
   lifetime hits switches itself off: entries dropped, later adds and
   finds are no-ops, one demotion recorded. *)
let test_demote_hitless_group () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create ~demote_after:3 "test-demote" in
      let before = Cache.demotions c in
      (* The group record only exists after the first add; misses on a
         nonexistent group don't count toward any streak. *)
      ignore (Cache.find c ~group:"g" (mkbox 0.0 1.0));
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 0;
      for i = 1 to 3 do
        match Cache.find c ~group:"g" (mkbox 0.0 (1.0 +. float_of_int i)) with
        | Cache.Miss -> ()
        | _ -> Alcotest.fail "distinct boxes must miss"
      done;
      Alcotest.(check int) "one demotion" (before + 1) (Cache.demotions c);
      Alcotest.(check int) "entries dropped" 0 (Cache.length c);
      (* Demoted: adds are dropped, so the exact box that was just added
         still misses. *)
      Cache.add c ~group:"g" (mkbox 5.0 6.0) 42;
      (match Cache.find c ~group:"g" (mkbox 5.0 6.0) with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "demoted group must not serve hits");
      (* Other groups of the same cache are unaffected. *)
      Cache.add c ~group:"h" (mkbox 0.0 1.0) 7;
      match Cache.find c ~group:"h" (mkbox 0.0 1.0) with
      | Cache.Hit 7 -> ()
      | _ -> Alcotest.fail "sibling group must still work")

(* Any hit grants permanent immunity: a group that hit once never
   demotes, no matter how long its later miss streak runs. *)
let test_demote_immunity_after_hit () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create ~demote_after:3 "test-demote" in
      let before = Cache.demotions c in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      (match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Cache.Hit 1 -> ()
      | _ -> Alcotest.fail "expected hit");
      for i = 1 to 20 do
        ignore (Cache.find c ~group:"g" (mkbox 0.0 (1.0 +. float_of_int i)))
      done;
      Alcotest.(check int) "no demotion" before (Cache.demotions c);
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Cache.Hit 1 -> ()
      | _ -> Alcotest.fail "immune group must keep serving hits")

(* An epoch bump re-arms demoted groups: the group record is discarded
   with the rest of the shard, so the fresh group caches again. *)
let test_demote_rearmed_by_clear () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create ~demote_after:2 "test-demote" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 0;
      for i = 1 to 2 do
        ignore (Cache.find c ~group:"g" (mkbox 0.0 (1.0 +. float_of_int i)))
      done;
      Cache.add c ~group:"g" (mkbox 5.0 6.0) 42;
      (match Cache.find c ~group:"g" (mkbox 5.0 6.0) with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "expected demoted group");
      Cache.clear ();
      Cache.add c ~group:"g" (mkbox 5.0 6.0) 42;
      match Cache.find c ~group:"g" (mkbox 5.0 6.0) with
      | Cache.Hit 42 -> ()
      | _ -> Alcotest.fail "clear must re-arm demoted groups")

let test_concurrent_access () =
  with_policy Cache.Exact (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to 249 do
                  let b = mkbox 0.0 (float_of_int ((i mod 25) + 1)) in
                  let g = Printf.sprintf "g%d" (i mod 3) in
                  (match Cache.find c ~group:g b with
                  | Cache.Hit v -> assert (v = i mod 25)
                  | _ -> Cache.add c ~group:g b (i mod 25))
                done;
                d))
      in
      let done_ = List.map Domain.join domains in
      Alcotest.(check (list int)) "all domains joined" [ 0; 1; 2; 3 ] done_)

(* The Taylor-model switch and monomial budget change what the TM passes
   compute, so both key the hc4, refuted-box, paving, flow, segment and
   biopsy groups.  In one process under the Exact policy, a pave of the
   impulse-response calibration constraints, a Lotka–Volterra flow and a
   Lotka–Volterra calibration run with the TM layer on at budget 64, then
   off, then on at budget 1, must give the answers those settings give on
   empty caches, not replay the budget-64 ones. *)
let test_budget_keys_groups () =
  let fit =
    Expr.Parse.formula
      "a*k*exp(-k) >= 0.3 and a*k*exp(-k) <= 0.5 and 3*a*k*exp(-3*k) >= 0.1 and \
       3*a*k*exp(-3*k) <= 0.3"
  in
  let fit_box = Box.of_list [ ("k", I.make 0.05 2.5); ("a", I.make 0.2 3.0) ] in
  let config = { S.default_config with epsilon = 0.02 } in
  let pave () =
    let p = S.pave ~config fit fit_box in
    Printf.sprintf "sat=%d unsat=%d undecided=%d" (List.length p.S.sat)
      (List.length p.S.unsat) (List.length p.S.undecided)
  in
  let near_one = I.make 0.9 1.1 in
  let flow () =
    let tube =
      Enc.flow
        ~params:(Box.of_list [ ("a", near_one); ("b", near_one) ])
        ~init:(Box.of_list [ ("x", near_one); ("y", near_one) ])
        ~t_end:1.0 Biomodels.Classics.lotka_volterra
    in
    String.concat " "
      (List.map
         (fun (v, i) -> Printf.sprintf "%s=[%h, %h]" v (I.lo i) (I.hi i))
         (Box.to_list tube.Enc.final))
  in
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
  let all () = (pave (), flow (), biopsy ()) in
  (* TM passes run on tapes only; the layers are pinned so the budget
     matters under every BIOMC_NO_* leg. *)
  Expr.Tape.set_enabled true;
  Fun.protect ~finally:(fun () ->
      TM.set_budget TM.default_budget;
      Expr.Tape.clear_enabled_override ())
  @@ fun () ->
  Layers.with_layers (true, true) @@ fun () ->
  with_policy Cache.Exact @@ fun () ->
  TM.set_budget 1;
  let pave1, flow1, bio1 = all () in
  Cache.clear ();
  TM.set_enabled false;
  let pave_off, flow_off, bio_off = all () in
  Cache.clear ();
  TM.set_enabled true;
  TM.set_budget 64;
  let pave64, flow64, bio64 = all () in
  Alcotest.(check bool) "the budget moves the pave" true (pave1 <> pave64);
  Alcotest.(check bool) "the budget moves the tube" true (flow1 <> flow64);
  Alcotest.(check bool) "the budget moves the biopsy" true (bio1 <> bio64);
  Alcotest.(check bool) "the switch moves the biopsy" true (bio_off <> bio64);
  TM.set_enabled false;
  Alcotest.(check string) "TM-off pave after a TM-on one" pave_off (pave ());
  Alcotest.(check string) "TM-off flow after a TM-on one" flow_off (flow ());
  Alcotest.(check string) "TM-off biopsy after a TM-on one" bio_off (biopsy ());
  TM.set_enabled true;
  TM.set_budget 1;
  Alcotest.(check string) "budget-1 pave after a budget-64 one" pave1 (pave ());
  Alcotest.(check string) "budget-1 flow after a budget-64 one" flow1 (flow ());
  Alcotest.(check string) "budget-1 biopsy after a budget-64 one" bio1 (biopsy ())

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
      ( "warm soundness",
        [ Alcotest.test_case "decide verdicts never flip" `Quick
            test_warm_decide_sound;
          Alcotest.test_case "warm tube encloses trajectory" `Quick
            test_warm_flow_sound;
          Alcotest.test_case "consistent boxes really fit" `Quick
            test_warm_biopsy_sound ] );
      ( "mechanics",
        [ Alcotest.test_case "exact hit identity" `Quick test_exact_hit_identity;
          Alcotest.test_case "subsumption tightest" `Quick
            test_subsumption_tightest;
          Alcotest.test_case "exact never subsumes" `Quick
            test_exact_policy_no_subsumption;
          Alcotest.test_case "group isolation" `Quick test_group_isolation;
          Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
          Alcotest.test_case "replace equal box" `Quick test_replace_equal_box;
          Alcotest.test_case "replace keeps FIFO slot" `Quick
            test_replace_keeps_fifo_slot;
          Alcotest.test_case "contractor follows policy flips" `Quick
            test_contractor_policy_flip;
          Alcotest.test_case "warm savings are signed" `Quick
            test_warm_saved_signed;
          Alcotest.test_case "clear invalidates" `Quick test_clear_invalidates;
          Alcotest.test_case "stats counting" `Quick test_stats_counting;
          Alcotest.test_case "demote hitless group" `Quick
            test_demote_hitless_group;
          Alcotest.test_case "hit grants demote immunity" `Quick
            test_demote_immunity_after_hit;
          Alcotest.test_case "clear re-arms demoted groups" `Quick
            test_demote_rearmed_by_clear;
          Alcotest.test_case "concurrent access" `Quick test_concurrent_access ] ) ]
