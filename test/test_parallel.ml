(* Tests for the multicore layer: the domain pool itself, and agreement
   between the sequential (jobs = 1) and parallel code paths of the
   δ-decision solver, the paver, the reachability checker, and SMC.

   Agreement is on verdict *kinds* (and, where the parallel search is
   deterministic, on exact leaf sets): which δ-sat witness wins a
   portfolio race is documented nondeterminism. *)

module I = Interval.Ia
module Box = Interval.Box
module P = Expr.Parse
module S = Icp.Solver
module E = Reach.Encoding
module C = Reach.Checker

let box l = Box.of_list (List.map (fun (x, lo, hi) -> (x, I.make lo hi)) l)

(* CI's jobs=2 leg runs the whole parallel suite with the sweep pinned
   to [1; j] and the domain cap raised to [j], so the agreement tests
   exercise real cross-domain scheduling even on 1-core runners. *)
let jobs_sweep =
  match Sys.getenv_opt "BIOMC_TEST_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some j when j > 1 ->
          Parallel.Pool.set_domain_cap (Some j);
          [ 1; j ]
      | _ -> [ 1; 2; 4 ])
  | None -> [ 1; 2; 4 ]

(* Force real domains for a scheduler stress test, then restore. *)
let with_domain_cap n f =
  let saved =
    match Sys.getenv_opt "BIOMC_TEST_JOBS" with
    | Some s -> (
        match int_of_string_opt s with Some j when j > 1 -> Some j | _ -> None)
    | None -> None
  in
  Parallel.Pool.set_domain_cap (Some n);
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_domain_cap saved) f

(* ---- Pool primitives ---- *)

let test_run_worker_order () =
  let r = Parallel.Pool.run ~jobs:4 (fun w -> w * w) in
  Alcotest.(check (list int)) "results in worker order" [ 0; 1; 4; 9 ]
    (Array.to_list r)

let test_run_propagates_exception () =
  match Parallel.Pool.run ~jobs:3 (fun w -> if w = 1 then failwith "boom" else w) with
  | exception Failure msg -> Alcotest.(check string) "worker exn" "boom" msg
  | _ -> Alcotest.fail "expected the worker exception to propagate"

let test_chunks_partition () =
  let n = 17 and jobs = 4 in
  let seen = Array.make n 0 in
  for w = 0 to jobs - 1 do
    let lo, hi = Parallel.Pool.chunk ~jobs ~n w in
    for i = lo to hi - 1 do
      seen.(i) <- seen.(i) + 1
    done
  done;
  Alcotest.(check bool) "every index covered exactly once" true
    (Array.for_all (fun c -> c = 1) seen)

let test_frontier_drains_all () =
  (* Count down from each seed; every decrement must be processed. *)
  let total = Atomic.make 0 in
  let fr = Parallel.Pool.Frontier.create [ 5; 3; 7 ] in
  Parallel.Pool.Frontier.drain ~jobs:4 fr (fun _w slot n ->
      Atomic.incr total;
      if n > 0 then Parallel.Pool.Frontier.push slot (n - 1));
  Alcotest.(check int) "5+1 + 3+1 + 7+1 items" 18 (Atomic.get total)

let test_frontier_stop_discards () =
  let processed = Atomic.make 0 in
  let fr = Parallel.Pool.Frontier.create (List.init 100 Fun.id) in
  Parallel.Pool.Frontier.drain ~jobs:2 fr (fun _w _slot _n ->
      if Atomic.fetch_and_add processed 1 = 0 then
        Parallel.Pool.Frontier.stop fr);
  Alcotest.(check bool) "stop cuts the queue short"
    true
    (Atomic.get processed < 100)

(* ---- Deque primitives ---- *)

let test_deque_order () =
  let d : int Parallel.Deque.t = Parallel.Deque.create () in
  List.iter (Parallel.Deque.push d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "LIFO pop" (Some 3) (Parallel.Deque.pop d);
  Parallel.Deque.push_list d [ 10; 11; 12 ];
  Alcotest.(check (option int)) "batch head first" (Some 10) (Parallel.Deque.pop d);
  Alcotest.(check (option int)) "then batch order" (Some 11) (Parallel.Deque.pop d);
  Alcotest.(check (option int)) "batch tail" (Some 12) (Parallel.Deque.pop d);
  Alcotest.(check (option int)) "back to LIFO" (Some 2) (Parallel.Deque.pop d);
  Alcotest.(check (option int)) "oldest last" (Some 1) (Parallel.Deque.pop d);
  Alcotest.(check (option int)) "empty" None (Parallel.Deque.pop d)

let test_deque_steal_half () =
  let v : int Parallel.Deque.t = Parallel.Deque.create () in
  for i = 1 to 8 do
    Parallel.Deque.push v i
  done;
  let thief = Parallel.Deque.create () in
  (* oldest half: 1 (returned) and 2, 3, 4 (into the thief, age order) *)
  Alcotest.(check (option int)) "oldest item returned" (Some 1)
    (Parallel.Deque.steal_half v ~into:thief);
  Alcotest.(check int) "victim keeps newest half" 4 (Parallel.Deque.size v);
  Alcotest.(check (option int)) "thief pops stolen in age order" (Some 2)
    (Parallel.Deque.pop thief);
  Alcotest.(check (option int)) "next stolen" (Some 3) (Parallel.Deque.pop thief);
  Alcotest.(check (option int)) "last stolen" (Some 4) (Parallel.Deque.pop thief);
  Alcotest.(check (option int)) "thief drained" None (Parallel.Deque.pop thief);
  Alcotest.(check (option int)) "victim newest intact" (Some 8)
    (Parallel.Deque.pop v);
  Alcotest.(check (option int)) "steal of singleton returns it" (Some 5)
    (let v2 = Parallel.Deque.create () in
     Parallel.Deque.push v2 5;
     Parallel.Deque.steal_half v2 ~into:thief)

(* Raw deque stress: an owner pushes [total] items in bursts and pops,
   while thieves steal (from anyone, including each other) and drain
   their own deques.  Every item must be consumed exactly once. *)
let deque_stress ~jobs ~total () =
  with_domain_cap jobs @@ fun () ->
  let deques = Array.init jobs (fun _ -> Parallel.Deque.create ()) in
  let consumed = Atomic.make 0 in
  let bags =
    Parallel.Pool.run ~jobs (fun w ->
        let mine = deques.(w) in
        let bag = ref [] in
        let eat x =
          bag := x :: !bag;
          Atomic.incr consumed
        in
        let try_steal () =
          let rec go v =
            if v >= jobs then None
            else if v = w then go (v + 1)
            else
              match Parallel.Deque.steal_half deques.(v) ~into:mine with
              | Some _ as r -> r
              | None -> go (v + 1)
          in
          go 0
        in
        if w = 0 then begin
          (* owner: push in bursts of 16, popping one per burst *)
          let i = ref 0 in
          while !i < total do
            let burst = Stdlib.min 16 (total - !i) in
            Parallel.Deque.push_list mine (List.init burst (fun k -> !i + k));
            i := !i + burst;
            match Parallel.Deque.pop mine with Some x -> eat x | None -> ()
          done
        end;
        (* everyone drains until the global count is reached *)
        while Atomic.get consumed < total do
          match Parallel.Deque.pop mine with
          | Some x -> eat x
          | None -> (
              match try_steal () with
              | Some x -> eat x
              | None -> Domain.cpu_relax ())
        done;
        !bag)
  in
  let seen = Array.make total 0 in
  Array.iter (List.iter (fun x -> seen.(x) <- seen.(x) + 1)) bags;
  Alcotest.(check int) "every item consumed" total (Atomic.get consumed);
  Alcotest.(check bool) "no loss, no duplication" true
    (Array.for_all (fun c -> c = 1) seen)

(* Frontier stress with dynamic pushes: seeds [0, n) each spawn one
   child [n + i]; the processed multiset must be exactly seeds+children. *)
let frontier_stress ~jobs ~n () =
  with_domain_cap jobs @@ fun () ->
  let seen = Array.make (2 * n) 0 in
  let bags = Array.init jobs (fun _ -> ref []) in
  let fr = Parallel.Pool.Frontier.create (List.init n Fun.id) in
  Parallel.Pool.Frontier.drain ~jobs fr (fun w slot x ->
      bags.(w) := x :: !(bags.(w));
      if x < n then Parallel.Pool.Frontier.push slot (x + n));
  Array.iter (fun bag -> List.iter (fun x -> seen.(x) <- seen.(x) + 1) !bag) bags;
  Alcotest.(check bool) "seeds and children each processed exactly once" true
    (Array.for_all (fun c -> c = 1) seen)

(* ---- Budget leases ---- *)

let test_lease_exact_consumption () =
  List.iter
    (fun (total, jobs) ->
      with_domain_cap (Stdlib.min jobs 4) @@ fun () ->
      let lease = Parallel.Pool.Lease.create ~total () in
      let spent =
        Parallel.Pool.run ~jobs (fun _w ->
            let l = Parallel.Pool.Lease.local lease in
            let n = ref 0 in
            while Parallel.Pool.Lease.spend l do
              incr n
            done;
            Parallel.Pool.Lease.return_unspent l;
            !n)
      in
      let sum = Array.fold_left ( + ) 0 spent in
      Alcotest.(check int)
        (Printf.sprintf "all %d units spent once (jobs=%d)" total jobs)
        total sum;
      Alcotest.(check int)
        (Printf.sprintf "consumed exact (total=%d jobs=%d)" total jobs)
        total
        (Parallel.Pool.Lease.consumed lease))
    [ (1000, 2); (1000, 4); (37, 4); (0, 2); (64, 3) ]

let test_lease_partial_return () =
  let lease = Parallel.Pool.Lease.create ~chunk:16 ~total:1_000 () in
  let locals = Array.init 3 (fun _ -> Parallel.Pool.Lease.local lease) in
  Array.iter
    (fun l ->
      for _ = 1 to 10 do
        ignore (Parallel.Pool.Lease.spend l)
      done)
    locals;
  Array.iter Parallel.Pool.Lease.return_unspent locals;
  Alcotest.(check int) "consumed = successful spends only" 30
    (Parallel.Pool.Lease.consumed lease);
  (* the returned units are spendable again *)
  let l = Parallel.Pool.Lease.local lease in
  let n = ref 0 in
  while Parallel.Pool.Lease.spend l do
    incr n
  done;
  Alcotest.(check int) "remainder spendable" 970 !n

(* ---- decide: parallel vs sequential verdict kinds ---- *)

let verdict_kind = function
  | S.Delta_sat _ -> "delta-sat"
  | S.Unsat -> "unsat"
  | S.Unknown _ -> "unknown"

let check_decide_agrees name formula bx =
  let f = P.formula formula in
  let expected =
    verdict_kind (S.decide ~config:{ S.default_config with jobs = 1 } f bx)
  in
  List.iter
    (fun jobs ->
      let got =
        verdict_kind (S.decide ~config:{ S.default_config with jobs } f bx)
      in
      Alcotest.(check string)
        (Printf.sprintf "%s at jobs=%d" name jobs)
        expected got)
    jobs_sweep

let test_decide_sqrt2 () =
  check_decide_agrees "sqrt2" "x^2 = 2" (box [ ("x", 0.0, 2.0) ])

let test_decide_geom_unsat () =
  check_decide_agrees "geom-unsat" "x^2 + y^2 <= 1 and x + y >= 3"
    (box [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ])

let test_decide_sin () =
  check_decide_agrees "sin" "sin(x) = 1/2" (box [ ("x", 0.0, 3.0) ])

let test_decide_disjunction_portfolio () =
  (* First disjunct infeasible in the box, second δ-sat: the portfolio
     must still find the satisfiable branch. *)
  check_decide_agrees "disjunction"
    "(x <= 0 - 5 and x >= 0 - 6) or x^2 = 9"
    (box [ ("x", 0.0, 10.0) ])

let test_decide_witness_valid () =
  (* Whatever witness the parallel race returns must lie in the box. *)
  let f = P.formula "x^2 = 2" in
  let bx = box [ ("x", 0.0, 2.0) ] in
  List.iter
    (fun jobs ->
      match S.decide ~config:{ S.default_config with jobs } f bx with
      | S.Delta_sat w ->
          let x = List.assoc "x" w.S.point in
          Alcotest.(check bool)
            (Printf.sprintf "witness in box at jobs=%d" jobs)
            true
            (x >= 0.0 && x <= 2.0 && Float.abs ((x *. x) -. 2.0) <= 0.1)
      | r ->
          Alcotest.failf "expected delta-sat at jobs=%d, got %s" jobs
            (verdict_kind r))
    jobs_sweep

(* ---- pave: identical leaf sets ---- *)

let sort_boxes over bs =
  List.sort compare
    (List.map
       (fun b ->
         List.map
           (fun v ->
             let i = Box.find v b in
             (v, I.lo i, I.hi i))
           over)
       bs)

let test_pave_deterministic () =
  let f = P.formula "x^2 + y^2 <= 1" in
  let bx = box [ ("x", -1.0, 1.0); ("y", -1.0, 1.0) ] in
  let over = [ "x"; "y" ] in
  let config jobs = { S.default_config with epsilon = 0.05; jobs } in
  let base = S.pave ~config:(config 1) f bx in
  List.iter
    (fun jobs ->
      let p = S.pave ~config:(config jobs) f bx in
      List.iter
        (fun (label, proj) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s leaves equal at jobs=%d" label jobs)
            true
            (sort_boxes over (proj base) = sort_boxes over (proj p)))
        [ ("sat", fun (p : S.paving) -> p.S.sat);
          ("unsat", fun p -> p.S.unsat);
          ("undecided", fun p -> p.S.undecided) ])
    jobs_sweep

let test_pave_stats_reported () =
  let f = P.formula "x^2 + y^2 <= 1" in
  let bx = box [ ("x", -1.0, 1.0); ("y", -1.0, 1.0) ] in
  List.iter
    (fun jobs ->
      let config = { S.default_config with epsilon = 0.1; jobs } in
      let p, stats = S.pave_with_stats ~config f bx in
      let leaves =
        List.length p.S.sat + List.length p.S.unsat + List.length p.S.undecided
      in
      Alcotest.(check bool)
        (Printf.sprintf "boxes_processed >= leaves at jobs=%d" jobs)
        true
        (stats.S.boxes_processed >= leaves && stats.S.splits > 0))
    jobs_sweep

(* ---- cancellation: a huge budget must not delay an easy δ-sat ---- *)

let test_cancellation_prompt () =
  let f = P.formula "x^2 + y^2 = 1" in
  let bx = box [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ] in
  List.iter
    (fun jobs ->
      let config =
        { S.default_config with max_boxes = 10_000_000; jobs }
      in
      let r, stats = S.decide_with_stats ~config f bx in
      Alcotest.(check string)
        (Printf.sprintf "delta-sat at jobs=%d" jobs)
        "delta-sat" (verdict_kind r);
      (* The δ-sat flag must stop the frontier long before the budget. *)
      Alcotest.(check bool)
        (Printf.sprintf "cancelled early at jobs=%d (processed %d)" jobs
           stats.S.boxes_processed)
        true
        (stats.S.boxes_processed < 100_000))
    jobs_sweep

(* ---- reach: parallel path decision agrees ---- *)

let decay_problem ~lo ~hi ~goal =
  let a =
    Hybrid.Automaton.of_system
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])
  in
  E.create
    ~param_box:(Box.of_list [ ("k", I.make lo hi) ])
    ~goal:{ E.goal_modes = []; predicate = P.formula goal }
    ~k:0 ~time_bound:1.0 a

let reach_kind = function
  | C.Delta_sat _ -> "delta-sat"
  | C.Unsat _ -> "unsat"
  | C.Unknown _ -> "unknown"

let check_reach_agrees name pb =
  let expected =
    reach_kind (C.check ~config:{ C.default_config with jobs = 1 } pb)
  in
  List.iter
    (fun jobs ->
      let got = reach_kind (C.check ~config:{ C.default_config with jobs } pb) in
      Alcotest.(check string)
        (Printf.sprintf "%s at jobs=%d" name jobs)
        expected got)
    jobs_sweep

let test_reach_sat_agrees () =
  check_reach_agrees "decay reaches 0.3"
    (decay_problem ~lo:0.1 ~hi:3.0 ~goal:"x <= 0.3")

let test_reach_unsat_agrees () =
  check_reach_agrees "slow decay cannot reach 0.55"
    (decay_problem ~lo:0.1 ~hi:0.5 ~goal:"x <= 0.55")

(* ---- reach synthesis: identical leaf sets ---- *)

let test_reach_synthesis_deterministic () =
  let pb = decay_problem ~lo:0.1 ~hi:3.0 ~goal:"x <= 0.3" in
  let fingerprint boxes =
    Journal.leaf_bounds_fingerprint
      (List.map
         (fun b ->
           Array.of_list
             (List.map (fun (x, i) -> (x, I.lo i, I.hi i)) (Box.to_list b)))
         boxes)
  in
  let leaves jobs =
    let s = C.synthesize ~config:{ C.default_config with epsilon = 0.05; jobs } pb in
    List.map fingerprint
      [ List.map fst s.C.feasible; List.map fst s.C.infeasible;
        List.map fst s.C.undecided ]
  in
  let base = leaves 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "feasible, infeasible, undecided leaves at jobs=%d" jobs)
        base (leaves jobs))
    jobs_sweep

(* ---- biopsy: identical leaf sets ---- *)

let test_biopsy_deterministic () =
  let sys =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]
  in
  let data =
    [ Synth.Data.point ~time:0.5 ~var:"x" ~value:(Float.exp (-0.5)) ~tolerance:0.08;
      Synth.Data.point ~time:1.0 ~var:"x" ~value:(Float.exp (-1.0)) ~tolerance:0.08 ]
  in
  let prob =
    Synth.Biopsy.problem ~sys
      ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      ~data
  in
  let over = [ "k" ] in
  let run jobs =
    Synth.Biopsy.synthesize
      ~config:{ Synth.Biopsy.default_config with epsilon = 0.05; jobs }
      prob
  in
  let base = run 1 in
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check int)
        (Printf.sprintf "boxes_explored at jobs=%d" jobs)
        base.Synth.Biopsy.boxes_explored r.Synth.Biopsy.boxes_explored;
      List.iter
        (fun (label, proj) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s leaves equal at jobs=%d" label jobs)
            true
            (sort_boxes over (proj base) = sort_boxes over (proj r)))
        [ ("consistent", fun (r : Synth.Biopsy.result) -> r.Synth.Biopsy.consistent);
          ("inconsistent", fun r -> r.Synth.Biopsy.inconsistent);
          ("undecided", fun r -> r.Synth.Biopsy.undecided) ])
    jobs_sweep

(* ---- SMC: reproducible at a fixed (seed, jobs) ---- *)

let smc_problem () =
  let sys =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]
  in
  Smc.Runner.problem
    ~model:(Smc.Runner.Ode_model sys)
    ~init_dist:[ ("x", Smc.Sampler.Uniform (0.8, 1.2)) ]
    ~param_dist:[ ("k", Smc.Sampler.Uniform (0.5, 1.5)) ]
    ~property:(Smc.Bltl.Finally (2.0, Smc.Bltl.prop "x <= 0.5"))
    ~t_end:2.0 ()

let test_smc_reproducible () =
  let prob = smc_problem () in
  List.iter
    (fun jobs ->
      let e1 = Smc.Runner.estimate ~seed:7 ~jobs ~eps:0.1 ~alpha:0.05 prob in
      let e2 = Smc.Runner.estimate ~seed:7 ~jobs ~eps:0.1 ~alpha:0.05 prob in
      Alcotest.(check int)
        (Printf.sprintf "same successes at jobs=%d" jobs)
        e1.Smc.Estimate.successes e2.Smc.Estimate.successes;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "same p_hat at jobs=%d" jobs)
        e1.Smc.Estimate.p_hat e2.Smc.Estimate.p_hat)
    jobs_sweep

let test_smc_jobs_statistically_close () =
  (* Different jobs values consume different PRNG streams; the estimates
     must still agree within the Chernoff error bound (eps + slack). *)
  let prob = smc_problem () in
  let base = Smc.Runner.estimate ~seed:7 ~jobs:1 ~eps:0.05 ~alpha:0.05 prob in
  List.iter
    (fun jobs ->
      let e = Smc.Runner.estimate ~seed:7 ~jobs ~eps:0.05 ~alpha:0.05 prob in
      Alcotest.(check bool)
        (Printf.sprintf "within 2*eps at jobs=%d" jobs)
        true
        (Float.abs (e.Smc.Estimate.p_hat -. base.Smc.Estimate.p_hat) <= 0.1))
    [ 2; 4 ]

let test_smc_sprt_deterministic () =
  let prob = smc_problem () in
  let kind = function
    | Smc.Sprt.Accept -> "accept"
    | Smc.Sprt.Reject -> "reject"
    | Smc.Sprt.Inconclusive -> "inconclusive"
  in
  List.iter
    (fun jobs ->
      let r1 = Smc.Runner.test ~seed:11 ~jobs prob in
      let r2 = Smc.Runner.test ~seed:11 ~jobs prob in
      Alcotest.(check string)
        (Printf.sprintf "same verdict at jobs=%d" jobs)
        (kind r1.Smc.Sprt.verdict) (kind r2.Smc.Sprt.verdict);
      Alcotest.(check int)
        (Printf.sprintf "same sample count at jobs=%d" jobs)
        r1.Smc.Sprt.samples_used r2.Smc.Sprt.samples_used)
    jobs_sweep

let test_smc_mean_robustness_reproducible () =
  let prob = smc_problem () in
  List.iter
    (fun jobs ->
      let a = Smc.Runner.mean_robustness ~seed:3 ~jobs ~n:50 prob in
      let b = Smc.Runner.mean_robustness ~seed:3 ~jobs ~n:50 prob in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "same mean at jobs=%d" jobs)
        a b)
    jobs_sweep

(* ---- SPRT incremental state vs the batch fold ---- *)

let test_sprt_state_matches_run () =
  (* Folding feed/status over the same outcome stream must be
     bit-identical to Sprt.run — decision, sample count, llr. *)
  let rng = Random.State.make [| 123 |] in
  for case = 1 to 500 do
    let p = Random.State.float rng 1.0 in
    let config =
      { Smc.Sprt.default_config with theta = 0.9; max_samples = 400 }
    in
    let outcomes = Array.init 400 (fun _ -> Random.State.float rng 1.0 < p) in
    let r = Smc.Sprt.run ~config (fun i -> outcomes.(i)) in
    let st = ref (Smc.Sprt.start ~config ()) in
    let i = ref 0 in
    while Option.is_none (Smc.Sprt.status !st) do
      st := Smc.Sprt.feed !st outcomes.(!i);
      incr i
    done;
    let r' = Option.get (Smc.Sprt.status !st) in
    Alcotest.(check bool)
      (Printf.sprintf "case %d: state fold = run" case)
      true
      (r.Smc.Sprt.verdict = r'.Smc.Sprt.verdict
      && r.Smc.Sprt.samples_used = r'.Smc.Sprt.samples_used
      && r.Smc.Sprt.successes = r'.Smc.Sprt.successes
      && Float.equal r.Smc.Sprt.llr r'.Smc.Sprt.llr)
  done

let test_sprt_min_remaining_lower_bound () =
  (* From any undecided state, feeding min_remaining - 1 outcomes (of any
     kind) must never decide the test. *)
  let rng = Random.State.make [| 321 |] in
  for case = 1 to 200 do
    let config =
      { Smc.Sprt.default_config with theta = 0.85; max_samples = 1_000 }
    in
    (* wander to a random undecided state *)
    let st = ref (Smc.Sprt.start ~config ()) in
    let steps = Random.State.int rng 30 in
    (try
       for _ = 1 to steps do
         if Option.is_some (Smc.Sprt.status !st) then raise Exit;
         st := Smc.Sprt.feed !st (Random.State.bool rng)
       done
     with Exit -> ());
    if Option.is_none (Smc.Sprt.status !st) then begin
      let need = Smc.Sprt.min_remaining !st in
      Alcotest.(check bool)
        (Printf.sprintf "case %d: min_remaining >= 1" case)
        true (need >= 1);
      (* adversarial prefixes of length need - 1: all-success,
         all-failure, and a random one *)
      let try_prefix mk =
        let s = ref !st in
        for k = 0 to need - 2 do
          s := Smc.Sprt.feed !s (mk k)
        done;
        Option.is_none (Smc.Sprt.status !s)
      in
      Alcotest.(check bool)
        (Printf.sprintf "case %d: undecided within min_remaining - 1" case)
        true
        (try_prefix (fun _ -> true)
        && try_prefix (fun _ -> false)
        && try_prefix (fun _ -> Random.State.bool rng))
    end
  done

(* ---- One scheduler, two drives ---- *)

(* At jobs = 2 a domain cap of 1 runs the frontier's sequential drive and
   multiplexes Pool.run's workers on the calling domain; a cap of 2 runs
   the threaded deque drive on two domains.  Results must not depend on
   which drive ran (pool.mli's determinism contracts). *)

let on_both_drives run = (with_domain_cap 1 run, with_domain_cap 2 run)

let test_drives_decide () =
  let f = P.formula "x^2 + y^2 <= 1 and x + y >= 3" in
  let bx = box [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ] in
  let seq, thr =
    on_both_drives (fun () ->
        verdict_kind (S.decide ~config:{ S.default_config with jobs = 2 } f bx))
  in
  Alcotest.(check string) "decide verdict cap 1 = cap 2" seq thr

let test_drives_pave () =
  let f = P.formula "x^2 + y^2 <= 1" in
  let bx = box [ ("x", -1.0, 1.0); ("y", -1.0, 1.0) ] in
  let config = { S.default_config with epsilon = 0.05; jobs = 2 } in
  let over = [ "x"; "y" ] in
  let (seq, seq_stats), (thr, thr_stats) =
    on_both_drives (fun () -> S.pave_with_stats ~config f bx)
  in
  Alcotest.(check int) "boxes_processed cap 1 = cap 2"
    seq_stats.S.boxes_processed thr_stats.S.boxes_processed;
  List.iter
    (fun (label, proj) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s leaves cap 1 = cap 2" label)
        true
        (sort_boxes over (proj seq) = sort_boxes over (proj thr)))
    [ ("sat", fun (p : S.paving) -> p.S.sat);
      ("unsat", fun p -> p.S.unsat);
      ("undecided", fun p -> p.S.undecided) ]

let test_drives_smc () =
  let prob = smc_problem () in
  let seq, thr = on_both_drives (fun () -> Smc.Runner.test ~seed:11 ~jobs:2 prob) in
  Alcotest.(check bool) "sprt verdict cap 1 = cap 2" true
    (seq.Smc.Sprt.verdict = thr.Smc.Sprt.verdict);
  Alcotest.(check int) "sprt samples cap 1 = cap 2" seq.Smc.Sprt.samples_used
    thr.Smc.Sprt.samples_used;
  let seq, thr =
    on_both_drives (fun () ->
        Smc.Runner.estimate ~seed:7 ~jobs:2 ~eps:0.1 ~alpha:0.05 prob)
  in
  Alcotest.(check (float 0.0)) "estimate p_hat cap 1 = cap 2"
    seq.Smc.Estimate.p_hat thr.Smc.Estimate.p_hat

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "run worker order" `Quick test_run_worker_order;
          Alcotest.test_case "run exception" `Quick test_run_propagates_exception;
          Alcotest.test_case "chunks partition" `Quick test_chunks_partition;
          Alcotest.test_case "frontier drains" `Quick test_frontier_drains_all;
          Alcotest.test_case "frontier stop" `Quick test_frontier_stop_discards ] );
      ( "deque",
        [ Alcotest.test_case "lifo and batch order" `Quick test_deque_order;
          Alcotest.test_case "steal-half order" `Quick test_deque_steal_half;
          Alcotest.test_case "stress 10k items jobs=2" `Quick
            (deque_stress ~jobs:2 ~total:10_000);
          Alcotest.test_case "stress 10k items jobs=4" `Quick
            (deque_stress ~jobs:4 ~total:10_000);
          Alcotest.test_case "frontier stress jobs=2" `Quick
            (frontier_stress ~jobs:2 ~n:10_000);
          Alcotest.test_case "frontier stress jobs=4" `Quick
            (frontier_stress ~jobs:4 ~n:10_000) ] );
      ( "lease",
        [ Alcotest.test_case "exact consumption" `Quick
            test_lease_exact_consumption;
          Alcotest.test_case "partial return" `Quick test_lease_partial_return ] );
      ( "sprt-state",
        [ Alcotest.test_case "state fold = run" `Quick test_sprt_state_matches_run;
          Alcotest.test_case "min_remaining lower bound" `Quick
            test_sprt_min_remaining_lower_bound ] );
      ( "sequential-threaded-drive",
        [ Alcotest.test_case "decide cap 1 = cap 2" `Quick test_drives_decide;
          Alcotest.test_case "pave cap 1 = cap 2" `Quick test_drives_pave;
          Alcotest.test_case "smc cap 1 = cap 2" `Quick test_drives_smc ] );
      ( "decide",
        [ Alcotest.test_case "sqrt2" `Quick test_decide_sqrt2;
          Alcotest.test_case "geometric unsat" `Quick test_decide_geom_unsat;
          Alcotest.test_case "sin" `Quick test_decide_sin;
          Alcotest.test_case "disjunction portfolio" `Quick
            test_decide_disjunction_portfolio;
          Alcotest.test_case "witness valid" `Quick test_decide_witness_valid;
          Alcotest.test_case "cancellation prompt" `Quick test_cancellation_prompt ] );
      ( "pave",
        [ Alcotest.test_case "deterministic leaves" `Quick test_pave_deterministic;
          Alcotest.test_case "stats reported" `Quick test_pave_stats_reported ] );
      ( "reach",
        [ Alcotest.test_case "delta-sat agrees" `Quick test_reach_sat_agrees;
          Alcotest.test_case "unsat agrees" `Quick test_reach_unsat_agrees;
          Alcotest.test_case "synthesis leaf sets agree" `Quick
            test_reach_synthesis_deterministic ] );
      ( "biopsy",
        [ Alcotest.test_case "deterministic paving" `Quick
            test_biopsy_deterministic ] );
      ( "smc",
        [ Alcotest.test_case "estimate reproducible" `Quick test_smc_reproducible;
          Alcotest.test_case "jobs statistically close" `Quick
            test_smc_jobs_statistically_close;
          Alcotest.test_case "sprt deterministic" `Quick
            test_smc_sprt_deterministic;
          Alcotest.test_case "mean robustness reproducible" `Quick
            test_smc_mean_robustness_reproducible ] ) ]
