(* Provenance-journal tests: the load-bearing differential — the leaf
   partition reconstructed from the journal is fingerprint-identical to
   the solver's own paving, sequential and parallel — plus explain
   round-trips on pinned decide / pave / reach runs, audit rejection of
   corrupted journals, and the disabled-mode no-op (journaling off is
   bit-identical to no journaling at all). *)

module I = Interval.Ia
module Box = Interval.Box
module S = Icp.Solver
module P = Expr.Parse
module A = Hybrid.Automaton
module E = Reach.Encoding
module C = Reach.Checker
module J = Journal

(* Journal state is process-global; every test starts and ends from a
   clean, disabled slate so ordering cannot leak between tests (and so
   a BIOMC_JOURNAL=1 ablation run cannot either). *)
let clean f () =
  J.set_sink J.Off;
  J.reset ();
  Fun.protect
    ~finally:(fun () ->
      J.set_sink J.Off;
      J.reset ())
    f

let formula s =
  match P.formula_opt s with
  | Some f -> f
  | None -> Alcotest.failf "cannot parse %S" s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  m = 0 || go 0

let jbounds b =
  Array.of_list (List.map (fun (x, i) -> (x, I.lo i, I.hi i)) (Box.to_list b))

(* Flush the memory sink, parse it back, reconstruct. *)
let load_forest () =
  let s = J.contents () in
  match J.of_string s with
  | Error e -> Alcotest.failf "journal parse: %s" e
  | Ok records -> (records, J.reconstruct records)

let the_run forest =
  match J.runs forest with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected exactly 1 run, got %d" (List.length rs)

let check_audit forest = Alcotest.(check (list string)) "audit" [] (J.audit forest)

(* Terminal bounds of a run, excluding empty-box leaves (those are
   dropped from the solver's paving as well). *)
let leaf_bounds forest run =
  List.filter_map
    (fun (n : J.node) ->
      match n.J.outcome with
      | Some (J.O_leaf ("empty", _)) -> None
      | Some _ -> (
          match n.J.bounds with
          | Some b -> Some b
          | None -> Alcotest.fail "terminal node without bounds")
      | None -> None)
    (J.leaves forest ~run)

(* ---- the differential: journal leaves == paving leaves ---- *)

let test_pave_fingerprint jobs () =
  J.set_sink J.Memory;
  let f = formula "x^2 + y^2 <= 1" in
  let box =
    Box.of_list [ ("x", I.make (-1.5) 1.5); ("y", I.make (-1.5) 1.5) ]
  in
  let config = { S.default_config with epsilon = 0.25; jobs } in
  let paving = S.pave ~config f box in
  let solver_boxes = paving.S.sat @ paving.S.unsat @ paving.S.undecided in
  let solver_fp = J.leaf_bounds_fingerprint (List.map jbounds solver_boxes) in
  let _, forest = load_forest () in
  check_audit forest;
  let run = the_run forest in
  Alcotest.(check string) "kind" "pave" run.J.kind;
  let lb = leaf_bounds forest run.J.rid in
  Alcotest.(check int) "leaf count" (List.length solver_boxes) (List.length lb);
  Alcotest.(check string)
    "leaf partition fingerprint" solver_fp (J.leaf_bounds_fingerprint lb)

(* An unsat decide explores the whole tree: the journal's terminals are
   a refutation cover of the query box, every one a prune, and the
   cover is the same set at any worker count. *)
let test_decide_unsat_cover () =
  let f = formula "x^2 + y^2 = 1 and x + y = 2" in
  let box = Box.of_list [ ("x", I.make 0.0 1.0); ("y", I.make 0.0 1.0) ] in
  let run_one jobs =
    J.set_sink J.Memory;
    J.reset ();
    let config = { S.default_config with jobs } in
    (match S.decide ~config f box with
    | S.Unsat -> ()
    | r -> Alcotest.failf "expected unsat, got %a" S.pp_result r);
    let _, forest = load_forest () in
    check_audit forest;
    let run = the_run forest in
    Alcotest.(check (option string)) "verdict" (Some "unsat") run.J.verdict;
    Alcotest.(check bool) "not truncated" false run.J.truncated;
    let leaves = J.leaves forest ~run:run.J.rid in
    List.iter
      (fun (n : J.node) ->
        match n.J.outcome with
        | Some (J.O_prune _) -> ()
        | _ -> Alcotest.fail "an unsat cover must consist of prunes")
      leaves;
    J.leaf_bounds_fingerprint (leaf_bounds forest run.J.rid)
  in
  let fp1 = run_one 1 in
  let fp2 = run_one 2 in
  Alcotest.(check string) "jobs-invariant refutation cover" fp1 fp2

(* Every search kind writes a journal that audits clean, at one worker
   and at two: decide (one conjunction, and a DNF race), pave, a reach
   check over two paths, reach synthesis and BioPSy synthesis. *)
let test_every_kind_audits_clean () =
  let sq = Box.of_list [ ("x", I.make (-2.0) 2.0); ("y", I.make (-2.0) 2.0) ] in
  let switch =
    A.create ~vars:[ "x" ] ~params:[ "theta" ]
      ~modes:
        [ A.mode ~name:"up" ~flow:[ ("x", P.term "1") ] ();
          A.mode ~name:"down" ~flow:[ ("x", P.term "-1") ] () ]
      ~jumps:
        [ A.jump ~source:"up" ~target:"down" ~guard:(formula "x >= theta")
            ~reset:[ ("x", P.term "0") ] () ]
      ~init_mode:"up"
      ~init:(Box.of_list [ ("x", I.of_float 0.0) ])
  in
  let decay_k =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]
  in
  let threshold =
    E.create
      ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
      ~goal:{ E.goal_modes = []; predicate = formula "x <= 0.3" }
      ~k:0 ~time_bound:1.0
      (A.of_system ~init:(Box.of_list [ ("x", I.of_float 1.0) ]) decay_k)
  in
  let runs jobs =
    let sc = { S.default_config with jobs } in
    [ ( "decide",
        fun () ->
          ignore (S.decide ~config:sc (formula "x^2 + y^2 = 1 and x*y = 1") sq) );
      ( "decide",
        fun () ->
          ignore
            (S.decide ~config:sc
               (formula "(x^2 + y^2 = 1 and x*y = 1) or (x^2 + y^2 = 1 and y = x^2)")
               sq) );
      ( "pave",
        fun () ->
          ignore
            (S.pave ~config:{ sc with epsilon = 0.25 } (formula "x^2 + y^2 <= 1") sq) );
      ( "reach",
        fun () ->
          ignore
            (C.check ~config:{ C.default_config with jobs }
               (E.create
                  ~param_box:(Box.of_list [ ("theta", I.make 0.5 1.5) ])
                  ~goal:{ E.goal_modes = []; predicate = formula "x <= -1/2" }
                  ~k:1 ~time_bound:3.0 switch)) );
      ( "synth",
        fun () ->
          ignore
            (C.synthesize
               ~config:{ C.default_config with epsilon = 0.1; jobs }
               threshold) );
      ( "synth",
        fun () ->
          ignore
            (Synth.Biopsy.synthesize
               ~config:{ Synth.Biopsy.default_config with epsilon = 0.1; jobs }
               (Synth.Biopsy.problem ~sys:decay_k
                  ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
                  ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
                  ~data:
                    [ Synth.Data.point ~time:1.0 ~var:"x" ~value:(Float.exp (-1.0))
                        ~tolerance:0.08 ])) ) ]
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun (kind, run) ->
          J.set_sink J.Memory;
          J.reset ();
          run ();
          let _, forest = load_forest () in
          Alcotest.(check (list string))
            (Printf.sprintf "%s audit at jobs=%d" kind jobs)
            [] (J.audit forest);
          let run = the_run forest in
          Alcotest.(check string) "kind" kind run.J.kind;
          Alcotest.(check bool)
            (Printf.sprintf "%s search recorded at jobs=%d" kind jobs)
            true
            (J.leaves forest ~run:run.J.rid <> []))
        (runs jobs))
    [ 1; 2 ]

(* ---- explain round-trips on pinned runs ---- *)

let test_explain_decide () =
  J.set_sink J.Memory;
  let f = formula "x^2 + y^2 = 1 and y = x^2" in
  let box = Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ] in
  (match S.decide f box with
  | S.Delta_sat _ -> ()
  | r -> Alcotest.failf "expected delta-sat, got %a" S.pp_result r);
  let records, forest = load_forest () in
  check_audit forest;
  let run = the_run forest in
  Alcotest.(check (option string)) "verdict" (Some "delta-sat") run.J.verdict;
  Alcotest.(check bool) "conclusive run is not truncated" false run.J.truncated;
  let sats =
    List.filter
      (fun (n : J.node) ->
        match n.J.outcome with Some (J.O_sat _) -> true | _ -> false)
      (J.nodes forest)
  in
  Alcotest.(check int) "one sat probe" 1 (List.length sats);
  let report = J.report forest in
  Alcotest.(check bool) "report names verdict" true (contains report "delta-sat");
  Alcotest.(check bool)
    "report has witness chain" true
    (contains report "witness chain");
  let json = J.provenance_json forest in
  Alcotest.(check bool) "json mentions runs" true (contains json "\"runs\"");
  let dot = J.to_dot ~max_nodes:50 forest in
  Alcotest.(check bool) "dot export" true (contains dot "digraph");
  (* parse round-trip: every record re-read is already sorted *)
  Alcotest.(check bool) "records non-empty" true (records <> []);
  Alcotest.(check int)
    "reconstruct keeps every record" (List.length records)
    (List.length (J.records forest))

let decay_automaton =
  A.of_system
    ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
    (Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ])

let test_explain_reach () =
  J.set_sink J.Memory;
  let pb =
    E.create
      ~goal:{ E.goal_modes = []; predicate = P.formula "x <= 1/2" }
      ~k:0 ~time_bound:1.0 decay_automaton
  in
  (match C.check pb with
  | C.Delta_sat _ -> ()
  | r -> Alcotest.failf "expected delta-sat, got %a" C.pp_result r);
  let _, forest = load_forest () in
  check_audit forest;
  let run = the_run forest in
  Alcotest.(check string) "kind" "reach" run.J.kind;
  Alcotest.(check (option string)) "verdict" (Some "delta-sat") run.J.verdict;
  let has_seg =
    List.exists
      (fun r -> match r.J.ev with J.Seg _ -> true | _ -> false)
      (J.records forest)
  and has_path =
    List.exists
      (fun r -> match r.J.ev with J.Path _ -> true | _ -> false)
      (J.records forest)
  and has_tube =
    List.exists
      (fun r -> match r.J.ev with J.Tube _ -> true | _ -> false)
      (J.records forest)
  in
  Alcotest.(check bool) "segment provenance" true has_seg;
  Alcotest.(check bool) "path provenance" true has_path;
  Alcotest.(check bool) "tube provenance" true has_tube;
  Alcotest.(check bool)
    "report names reach" true
    (contains (J.report forest) "reach")

(* Journals written while ODE tubes were cached marked replayed tube
   records ["ch":true].  Such a journal, and one whose tube records carry
   no flag at all, must still parse, audit clean and report its tubes. *)
let test_older_tube_records () =
  (* an empty segment store, so the check integrates its tubes *)
  Cache.clear ();
  J.set_sink J.Memory;
  let pb =
    E.create
      ~goal:{ E.goal_modes = []; predicate = P.formula "x <= 1/2" }
      ~k:0 ~time_bound:1.0 decay_automaton
  in
  ignore (C.check pb);
  let lines = String.split_on_char '\n' (J.contents ()) in
  let is_tube l = contains l "\"k\":\"tube\"" in
  let tubes = List.length (List.filter is_tube lines) in
  Alcotest.(check bool) "the run integrated tubes" true (tubes > 0);
  let replace ~sub ~by l =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length l then l
      else if String.sub l i n = sub then
        String.sub l 0 i ^ by ^ String.sub l (i + n) (String.length l - i - n)
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (name, by) ->
      let older =
        String.concat "\n"
          (List.map
             (fun l -> if is_tube l then replace ~sub:",\"ch\":false" ~by l else l)
             lines)
      in
      match J.of_string older with
      | Error e -> Alcotest.failf "%s: journal parse: %s" name e
      | Ok records ->
          let forest = J.reconstruct records in
          Alcotest.(check (list string)) (name ^ ": audit") [] (J.audit forest);
          Alcotest.(check int)
            (name ^ ": tube records")
            tubes
            (List.length
               (List.filter
                  (fun r -> match r.J.ev with J.Tube _ -> true | _ -> false)
                  (J.records forest)));
          Alcotest.(check bool)
            (name ^ ": report counts the tubes")
            true
            (contains (J.report forest) (Printf.sprintf "ODE tubes: %d" tubes)))
    [ ("replayed tubes", ",\"ch\":true"); ("no flag", "") ]

(* ---- one flag header for every run kind ---- *)

(* decide, pave, reach and synth runs record the same layer flags, so
   the audit's prune-reason rules (e.g. "tm-refute requires tm") apply
   to every kind; a switched-off layer reads "false" in each. *)
let test_run_headers_share_flags () =
  J.set_sink J.Memory;
  Interval.Tm.set_enabled false;
  Fun.protect ~finally:Interval.Tm.clear_enabled_override @@ fun () ->
  let box = Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ] in
  ignore (S.decide (formula "x^2 + y^2 = 1 and y = x^2") box);
  ignore
    (S.pave ~config:{ S.default_config with epsilon = 0.5 }
       (formula "x^2 + y^2 <= 1") box);
  ignore
    (C.check
       (E.create
          ~goal:{ E.goal_modes = []; predicate = P.formula "x <= 1/2" }
          ~k:0 ~time_bound:1.0 decay_automaton));
  let decay_k =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]
  in
  ignore
    (Synth.Biopsy.synthesize
       ~config:{ Synth.Biopsy.default_config with epsilon = 0.5 }
       (Synth.Biopsy.problem ~sys:decay_k
          ~param_box:(Box.of_list [ ("k", I.make 0.5 2.0) ])
          ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
          ~data:
            [ Synth.Data.point ~time:1.0 ~var:"x" ~value:(Float.exp (-1.0))
                ~tolerance:0.1 ]));
  let _, forest = load_forest () in
  check_audit forest;
  let runs = J.runs forest in
  Alcotest.(check (list string))
    "run kinds" [ "decide"; "pave"; "reach"; "synth" ]
    (List.map (fun (r : J.run_info) -> r.J.kind) runs);
  let keys (r : J.run_info) = List.sort compare (List.map fst r.J.flags) in
  let expected = keys (List.hd runs) in
  List.iter
    (fun (r : J.run_info) ->
      Alcotest.(check (list string)) (r.J.kind ^ " flag keys") expected (keys r);
      Alcotest.(check (option string))
        (r.J.kind ^ " tm flag") (Some "false")
        (List.assoc_opt "tm" r.J.flags))
    runs

(* The header snapshot reads every switch at the time of the call. *)
let test_flags_follow_switches () =
  Fun.protect
    ~finally:(fun () ->
      Icp.Deriv.clear_enabled_override ();
      Interval.Tm.set_budget Interval.Tm.default_budget;
      Interval.Tm.clear_enabled_override ();
      Cache.clear_enabled_override ())
  @@ fun () ->
  let set on =
    Icp.Deriv.set_enabled on;
    Interval.Tm.set_enabled on;
    Cache.set_enabled on
  in
  let switches = [ "newton"; "tm"; "cache" ] in
  List.iter
    (fun on ->
      set on;
      let flags = Icp.Search.journal_flags 3 in
      Alcotest.(check (list string))
        "header keys"
        [ "cache"; "jobs"; "newton"; "tm"; "tm_budget" ]
        (List.sort compare (List.map fst flags));
      List.iter
        (fun k ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s with switches %b" k on)
            (Some (string_of_bool on))
            (List.assoc_opt k flags))
        switches;
      Alcotest.(check (option string)) "jobs" (Some "3")
        (List.assoc_opt "jobs" flags))
    [ false; true ];
  Interval.Tm.set_budget 7;
  Alcotest.(check (option string)) "TM budget" (Some "7")
    (List.assoc_opt "tm_budget" (Icp.Search.journal_flags 1))

(* ---- audit rejections ---- *)

(* Emit a synthetic journal through the public emitters, then audit. *)
let audit_of build =
  J.set_sink J.Memory;
  J.reset ();
  build ();
  let _, forest = load_forest () in
  J.audit forest

let b1 lo hi : J.bounds = [| ("x", lo, hi) |]

let test_audit_clean_synthetic () =
  let problems =
    audit_of (fun () ->
        let r = J.begin_run ~kind:"pave" ~flags:[] () in
        let root = J.fresh_id () in
        J.root ~id:root (b1 0.0 1.0);
        J.enter ~id:root ~depth:0;
        let l = J.fresh_id () and rt = J.fresh_id () in
        J.split ~id:root ~heur:"bisect" ~left:l ~right:rt
          ~left_bounds:(b1 0.0 0.5) ~right_bounds:(b1 0.5 1.0);
        J.enter ~id:l ~depth:1;
        J.prune ~id:l ~reason:"hc4-empty" ();
        J.enter ~id:rt ~depth:1;
        J.leaf ~id:rt ~cls:"sat" ();
        J.end_run ~verdict:"ok" r)
  in
  Alcotest.(check (list string)) "well-formed synthetic journal" [] problems

let test_audit_rejects_dropped_leaf () =
  let problems =
    audit_of (fun () ->
        let r = J.begin_run ~kind:"pave" ~flags:[] () in
        let root = J.fresh_id () in
        J.root ~id:root (b1 0.0 1.0);
        J.enter ~id:root ~depth:0;
        let l = J.fresh_id () and rt = J.fresh_id () in
        J.split ~id:root ~heur:"bisect" ~left:l ~right:rt
          ~left_bounds:(b1 0.0 0.5) ~right_bounds:(b1 0.5 1.0);
        J.enter ~id:l ~depth:1;
        J.prune ~id:l ~reason:"hc4-empty" ();
        (* the right child is never accounted for *)
        J.end_run ~verdict:"ok" r)
  in
  Alcotest.(check bool) "dropped leaf is flagged" true (problems <> [])

let test_audit_rejects_non_partition () =
  let problems =
    audit_of (fun () ->
        let r = J.begin_run ~kind:"pave" ~flags:[] () in
        let root = J.fresh_id () in
        J.root ~id:root (b1 0.0 1.0);
        J.enter ~id:root ~depth:0;
        let l = J.fresh_id () and rt = J.fresh_id () in
        (* gap: [0, 0.4] ∪ [0.5, 1] does not partition [0, 1] *)
        J.split ~id:root ~heur:"bisect" ~left:l ~right:rt
          ~left_bounds:(b1 0.0 0.4) ~right_bounds:(b1 0.5 1.0);
        J.enter ~id:l ~depth:1;
        J.prune ~id:l ~reason:"hc4-empty" ();
        J.enter ~id:rt ~depth:1;
        J.prune ~id:rt ~reason:"hc4-empty" ();
        J.end_run ~verdict:"ok" r)
  in
  Alcotest.(check bool) "split gap is flagged" true (problems <> [])

let test_audit_rejects_impossible_reason () =
  let problems =
    audit_of (fun () ->
        let r =
          J.begin_run ~kind:"pave" ~flags:[ ("newton", "false") ] ()
        in
        let root = J.fresh_id () in
        J.root ~id:root (b1 0.0 1.0);
        J.enter ~id:root ~depth:0;
        (* a newton prune in a run whose header says newton was off *)
        J.prune ~id:root ~reason:"newton" ();
        J.end_run ~verdict:"ok" r)
  in
  Alcotest.(check bool) "impossible prune reason is flagged" true
    (problems <> [])

(* A budget flag must parse as a positive integer: the header's
   [tm_budget], and the [affine_budget] of journals written while the
   affine layer existed. *)
let test_audit_budget_flags () =
  let audit_flags flags =
    audit_of (fun () ->
        let r = J.begin_run ~kind:"decide" ~flags () in
        let root = J.fresh_id () in
        J.root ~id:root (b1 0.0 1.0);
        J.enter ~id:root ~depth:0;
        J.prune ~id:root ~reason:"hc4-empty" ();
        J.end_run ~verdict:"unsat" r)
  in
  List.iter
    (fun key ->
      Alcotest.(check (list string))
        (key ^ " = 7 is clean") []
        (audit_flags [ (key, "7") ]);
      List.iter
        (fun bad ->
          Alcotest.(check bool)
            (Printf.sprintf "%s = %S is flagged" key bad)
            true
            (audit_flags [ (key, bad) ] <> []))
        [ "0"; "-3"; "many" ])
    [ "tm_budget"; "affine_budget" ]

(* Every run kind records the full flag header, so a prune credited to a
   switched-off layer is flagged whatever the kind, and the same prune
   under the live layer is clean.  Journals written while the affine
   layer existed record its flag and its "affine-refute" prunes; the
   audit still checks the two against each other. *)
let test_audit_layer_reasons_every_kind () =
  let switch set_enabled clear on =
    set_enabled on;
    Fun.protect ~finally:clear (fun () -> Icp.Search.journal_flags 1)
  in
  let layers =
    [ ("newton", switch Icp.Deriv.set_enabled Icp.Deriv.clear_enabled_override);
      ( "tm-refute",
        switch Interval.Tm.set_enabled Interval.Tm.clear_enabled_override );
      ( "affine-refute",
        fun on -> ("affine", string_of_bool on) :: Icp.Search.journal_flags 1 ) ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun (reason, flags) ->
          let audit_with on =
            let flags = flags on in
            audit_of (fun () ->
                let r = J.begin_run ~kind ~flags () in
                let root = J.fresh_id () in
                J.root ~id:root (b1 0.0 1.0);
                J.enter ~id:root ~depth:0;
                J.prune ~id:root ~reason ();
                J.end_run ~verdict:"unsat" r)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s run: %s with the layer off is flagged" kind
               reason)
            true
            (audit_with false <> []);
          Alcotest.(check (list string))
            (Printf.sprintf "%s run: %s with the layer on is clean" kind reason)
            [] (audit_with true))
        layers)
    [ "decide"; "pave"; "reach"; "synth" ]

(* A decide journal with its end record dropped: the audit names the
   open run. *)
let test_audit_rejects_open_run () =
  J.set_sink J.Memory;
  let sq = Box.of_list [ ("x", I.make (-2.0) 2.0); ("y", I.make (-2.0) 2.0) ] in
  ignore (S.decide (formula "x^2 + y^2 = 1 and x*y = 1") sq);
  let lines = String.split_on_char '\n' (J.contents ()) in
  let is_end l = contains l "\"k\":\"end\"" in
  Alcotest.(check int) "one end record" 1 (List.length (List.filter is_end lines));
  match J.of_string (String.concat "\n" (List.filter (fun l -> not (is_end l)) lines)) with
  | Error e -> Alcotest.failf "journal parse: %s" e
  | Ok records ->
      let forest = J.reconstruct records in
      let run = the_run forest in
      let problems = J.audit forest in
      Alcotest.(check bool)
        (Printf.sprintf "audit names run %d in %s" run.J.rid
           (String.concat "; " problems))
        true
        (List.exists (fun p -> contains p (Printf.sprintf "run %d " run.J.rid)) problems)

(* ---- disabled mode is a no-op ---- *)

let test_disabled_noop () =
  let f = formula "x^3 - x = 1/4" in
  let box = Box.of_list [ ("x", I.make (-2.0) 2.0) ] in
  J.set_sink J.Off;
  Alcotest.(check bool) "off" false (J.on ());
  let r_off = S.decide f box in
  Alcotest.(check string) "no records when off" "" (J.contents ());
  J.set_sink J.Memory;
  Alcotest.(check bool) "on" true (J.on ());
  let r_on = S.decide f box in
  J.set_sink J.Off;
  Alcotest.(check string) "verdict bit-identical"
    (Fmt.str "%a" S.pp_result r_off)
    (Fmt.str "%a" S.pp_result r_on)

(* Every journaled entry point, on a problem that names an unbound
   variable, raises and ends its run as a truncated "error", leaving no
   run open. *)
let test_raising_queries_end_their_runs () =
  let x = Box.of_list [ ("x", I.make 0.0 1.0) ] in
  let decay_k =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]
  in
  let unbound_goal =
    E.create
      ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
      ~goal:{ E.goal_modes = []; predicate = formula "x + z <= 0.3" }
      ~k:0 ~time_bound:1.0
      (A.of_system ~init:(Box.of_list [ ("x", I.of_float 1.0) ]) decay_k)
  in
  let fit =
    Synth.Biopsy.problem ~sys:decay_k
      ~param_box:(Box.of_list [ ("k", I.make 0.5 1.5) ])
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      ~data:
        [ Synth.Data.point ~time:1.0 ~var:"x" ~value:(Float.exp (-1.0))
            ~tolerance:0.1 ]
  in
  let queries =
    [ ("decide", fun () -> ignore (S.decide (formula "x + z >= 1") x));
      ("pave", fun () -> ignore (S.pave (formula "x + z >= 1") x));
      ("reach", fun () -> ignore (C.check unbound_goal));
      ("synth", fun () -> ignore (C.synthesize unbound_goal));
      ( "synth",
        fun () ->
          (* the data names [z], which [problem] would reject *)
          ignore
            (Synth.Biopsy.synthesize
               { fit with
                 Synth.Biopsy.data =
                   [ Synth.Data.point ~time:1.0 ~var:"z" ~value:0.5
                       ~tolerance:0.1 ] }) ) ]
  in
  List.iter
    (fun (kind, query) ->
      J.set_sink J.Memory;
      J.reset ();
      (match query () with
      | () -> Alcotest.failf "%s: expected the unbound variable to raise" kind
      | exception _ -> ());
      Alcotest.(check bool) (kind ^ ": no run left open") false (J.in_run ());
      let _, forest = load_forest () in
      let run = the_run forest in
      Alcotest.(check string) "kind" kind run.J.kind;
      Alcotest.(check (option string)) (kind ^ ": verdict") (Some "error") run.J.verdict;
      Alcotest.(check bool) (kind ^ ": truncated") true run.J.truncated)
    queries

let () =
  Alcotest.run "journal"
    [ ("differential",
       [ Alcotest.test_case "pave fingerprint, jobs=1" `Quick
           (clean (test_pave_fingerprint 1));
         Alcotest.test_case "pave fingerprint, jobs=2" `Quick
           (clean (test_pave_fingerprint 2));
         Alcotest.test_case "every search kind audits clean at jobs 1 and 2"
           `Quick (clean test_every_kind_audits_clean);
         Alcotest.test_case "decide unsat cover" `Quick
           (clean test_decide_unsat_cover) ]);
      ("explain",
       [ Alcotest.test_case "decide round-trip" `Quick
           (clean test_explain_decide);
         Alcotest.test_case "reach round-trip" `Quick
           (clean test_explain_reach);
         Alcotest.test_case "older tube records still parse" `Quick
           (clean test_older_tube_records);
         Alcotest.test_case "run headers share one flag set" `Quick
           (clean test_run_headers_share_flags);
         Alcotest.test_case "flag header follows the switches" `Quick
           (clean test_flags_follow_switches) ]);
      ("audit",
       [ Alcotest.test_case "clean synthetic journal" `Quick
           (clean test_audit_clean_synthetic);
         Alcotest.test_case "rejects dropped leaf" `Quick
           (clean test_audit_rejects_dropped_leaf);
         Alcotest.test_case "rejects non-partition split" `Quick
           (clean test_audit_rejects_non_partition);
         Alcotest.test_case "rejects impossible prune reason" `Quick
           (clean test_audit_rejects_impossible_reason);
         Alcotest.test_case "layer prune reasons on every run kind" `Quick
           (clean test_audit_layer_reasons_every_kind);
         Alcotest.test_case "budget flags are positive integers" `Quick
           (clean test_audit_budget_flags);
         Alcotest.test_case "names a run with no end record" `Quick
           (clean test_audit_rejects_open_run) ]);
      ("discipline",
       [ Alcotest.test_case "disabled journaling is a no-op" `Quick
           (clean test_disabled_noop);
         Alcotest.test_case "a raising query ends its run" `Quick
           (clean test_raising_queries_end_their_runs) ]) ]
