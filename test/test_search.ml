(* Equivalence gate for the branch-and-prune searches: decide, pave,
   reach check, reach synthesis and BioPSy synthesis at jobs = 1, each
   pinned to a committed digest of everything the search reports —
   verdict, witness, leaves in list order (hex-float bounds), stats and
   the journal records it emits (memory sink, domain stamps stripped).
   A run that exhausts its budget is pinned by its verdict and its leaf
   set only.

   The digests were computed on the code before the searches shared one
   driver; recompute them only for a change that is meant to move a
   search's output, on a clean archive of the parent commit, never from
   the changed code.  Caches are off and the Newton and Taylor-model
   layers pinned on, so every CI leg must reproduce them.
   A change that only shortens journaled tubes may pin the changed
   code's digest once a script shows that the parent's rendering and
   the change's differ only in "tube" records (same count and order,
   same run, system and start time), each changed one incomplete with
   fewer steps and an earlier end; "check parameterized delta-sat" and
   "synthesize" were re-pinned so when reach tubes began to stop at
   the usability gate's width limit.  "synthesize" was re-pinned again
   when it stopped integrating a usable jump-free tube a second time,
   and once more when it stopped integrating a second time a complete
   tube the gate had rejected: each time the change's rendering is the
   parent's without the tube records that repeated the one just before
   them, every other line identical.  Every journaled pin was re-derived
   when the tape switch went: on an archive of the parent with only the
   "tape" key deleted from the journal's flag header, each rendering is
   the parent's with the "tape":"true" member gone from its run record,
   every other line identical.

   Four of the pinned queries run again at jobs = 2 on two domains,
   where the frontier's schedule varies from run to run: while the
   budget lasts, the verdict, the sorted leaves and the box counts must
   be those of the pinned jobs = 1 run. *)

module I = Interval.Ia
module Box = Interval.Box
module P = Expr.Parse
module S = Icp.Solver
module A = Hybrid.Automaton
module E = Reach.Encoding
module C = Reach.Checker
module B = Synth.Biopsy
module J = Journal

let box l = Box.of_list (List.map (fun (x, lo, hi) -> (x, I.make lo hi)) l)

let hex_box b =
  String.concat ";"
    (List.map
       (fun (x, i) -> Printf.sprintf "%s=[%h,%h]" x (I.lo i) (I.hi i))
       (Box.to_list b))

let hex_point pt =
  String.concat ";" (List.map (fun (x, v) -> Printf.sprintf "%s=%h" x v) pt)

let lines name l = String.concat "\n" (name :: l)

(* A journal record without its trailing (domain, sequence) stamp. *)
let unstamp line =
  let key = ",\"d\":" in
  let k = String.length key in
  let rec find i =
    if i < 0 then line
    else if String.sub line i k = key then String.sub line 0 i ^ "}"
    else find (i - 1)
  in
  find (String.length line - k)

(* Run [f] with the journal in the memory sink; its result and the
   journal's text. *)
let journaled f =
  J.set_sink J.Memory;
  J.reset ();
  Fun.protect
    ~finally:(fun () ->
      J.reset ();
      J.clear_sink_override ())
  @@ fun () ->
  let r = f () in
  (r, J.contents ())

(* The records in order, without their stamps. *)
let records journal =
  List.map unstamp (List.filter (fun l -> l <> "") (String.split_on_char '\n' journal))

(* A journaled query's rendering, whose digest is pinned at jobs = 1,
   and the verdict line and journal text behind it. *)
type report = { rendering : string; head : string; journal : string }

(* What no schedule moves while the budget lasts: the verdict line with
   the numbers of entered, split and pruned boxes, and the leaf boxes
   with their outcomes, sorted. *)
let schedule_free r =
  let nodes =
    match J.of_string r.journal with
    | Ok rs -> J.nodes (J.reconstruct rs)
    | Error e -> Alcotest.fail e
  in
  let count p = List.length (List.filter p nodes) in
  let leaf (n : J.node) =
    let box =
      String.concat ";"
        (List.map
           (fun (x, lo, hi) -> Printf.sprintf "%s=[%h,%h]" x lo hi)
           (Array.to_list (Option.value n.J.bounds ~default:[||])))
    in
    match n.J.outcome with
    | Some (J.O_prune (reason, _)) -> Some ("prune " ^ reason ^ " " ^ box)
    | Some (J.O_leaf (cls, _)) -> Some (cls ^ " " ^ box)
    | Some (J.O_sat _) -> Some ("sat " ^ box)
    | Some J.O_split | None -> None
  in
  ( Printf.sprintf "%s entered=%d splits=%d prunes=%d" r.head
      (count (fun n -> n.J.entered))
      (count (fun n -> n.J.outcome = Some J.O_split))
      (count (fun n ->
           match n.J.outcome with Some (J.O_prune _) -> true | _ -> false)),
    List.sort compare (List.filter_map leaf nodes) )

let pinned f () =
  Cache.set_enabled false;
  Icp.Deriv.set_enabled true;
  Interval.Tm.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Cache.clear_enabled_override ();
      Icp.Deriv.clear_enabled_override ();
      Interval.Tm.clear_enabled_override ())
    f

(* ---- renderings ---- *)

let stats (s : S.stats) =
  Printf.sprintf "boxes=%d splits=%d prunings=%d depth=%d certifications=%d"
    s.S.boxes_processed s.S.splits s.S.prunings s.S.max_depth
    s.S.certifications

let decide_verdict = function
  | S.Unsat -> "unsat"
  | S.Delta_sat w ->
      Printf.sprintf "delta-sat certified=%b point=%s box=%s" w.S.certified
        (hex_point w.S.point) (hex_box w.S.box)
  | S.Unknown why -> "unknown " ^ why

let reach_witness (w : C.witness) =
  Printf.sprintf "path=%s params=%s init=%s t=%h certified=%b box=%s"
    (String.concat "->" w.C.path) (hex_point w.C.params) (hex_point w.C.init)
    w.C.reach_time w.C.certified (hex_box w.C.param_box)

let reach_verdict = function
  | C.Unsat { rigorous } -> Printf.sprintf "unsat rigorous=%b" rigorous
  | C.Delta_sat w -> "delta-sat " ^ reach_witness w
  | C.Unknown why -> "unknown " ^ why

let classes l =
  List.concat_map (fun (cls, boxes) -> List.map (fun b -> cls ^ " " ^ b) boxes) l

let paving_leaves (p : S.paving) =
  classes
    [ ("sat", List.map hex_box p.S.sat);
      ("unsat", List.map hex_box p.S.unsat);
      ("undecided", List.map hex_box p.S.undecided) ]

let synthesis_leaves (s : C.synthesis) =
  classes
    [ ( "feasible",
        List.map (fun (b, w) -> hex_box b ^ " " ^ reach_witness w) s.C.feasible );
      ( "infeasible",
        List.map (fun (b, r) -> Printf.sprintf "%s rigorous=%b" (hex_box b) r)
          s.C.infeasible );
      ( "undecided",
        List.map
          (fun (b, w) ->
            hex_box b ^ match w with Some w -> " " ^ reach_witness w | None -> "")
          s.C.undecided ) ]

let biopsy_leaves (r : B.result) =
  classes
    [ ("consistent", List.map hex_box r.B.consistent);
      ("inconsistent", List.map hex_box r.B.inconsistent);
      ("undecided", List.map hex_box r.B.undecided) ]

(* ---- the queries ---- *)

let report head body journal =
  { rendering = lines head (body @ records journal); head; journal }

let decide ?(config = S.default_config) f b () =
  let (r, s), journal =
    journaled (fun () -> S.decide_with_stats ~config (P.formula f) (box b))
  in
  report (decide_verdict r) [ stats s ] journal

let pave ?(config = S.default_config) f b () =
  let (p, s), journal =
    journaled (fun () -> S.pave_with_stats ~config (P.formula f) (box b))
  in
  report "paving" (stats s :: paving_leaves p) journal

let check ?(config = C.default_config) pb () =
  let r, journal = journaled (fun () -> C.check ~config pb) in
  report (reach_verdict r) [] journal

let synthesize ?(config = C.default_config) pb () =
  let s, journal = journaled (fun () -> C.synthesize ~config pb) in
  report "synthesis" (synthesis_leaves s) journal

let biopsy ?(config = B.default_config) prob () =
  let r, journal = journaled (fun () -> B.synthesize ~config prob) in
  report (Printf.sprintf "biopsy explored=%d" r.B.boxes_explored) (biopsy_leaves r)
    journal

let rendering query () = (query ()).rendering

(* Budget-exhausting runs: verdict and sorted leaf set. *)
let exhausted_decide config f b () =
  decide_verdict (S.decide ~config (P.formula f) (box b))

let exhausted_pave config f b () =
  lines "paving"
    (List.sort compare (paving_leaves (S.pave ~config (P.formula f) (box b))))

let exhausted_check config pb () = reach_verdict (C.check ~config pb)

let exhausted_synthesize config pb () =
  lines "synthesis" (List.sort compare (synthesis_leaves (C.synthesize ~config pb)))

let exhausted_biopsy config prob () =
  lines "biopsy" (List.sort compare (biopsy_leaves (B.synthesize ~config prob)))

(* ---- fixtures ---- *)

let goal ?(modes = []) pred = { E.goal_modes = modes; predicate = P.formula pred }

let decay_k =
  A.of_system
    ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
    (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])

(* Two modes: x grows in "up", jumps to "down" at x >= theta with a reset
   to 0, and decays there. *)
let switch =
  A.create ~vars:[ "x" ] ~params:[ "theta" ]
    ~modes:
      [ A.mode ~name:"up" ~flow:[ ("x", P.term "1") ] ();
        A.mode ~name:"down" ~flow:[ ("x", P.term "-1") ] () ]
    ~jumps:
      [ A.jump ~source:"up" ~target:"down" ~guard:(P.formula "x >= theta")
          ~reset:[ ("x", P.term "0") ] () ]
    ~init_mode:"up"
    ~init:(Box.of_list [ ("x", I.of_float 0.0) ])

let theta = Box.of_list [ ("theta", I.make 0.5 1.5) ]

(* Paths [up] (unsat: x only grows there) then [up; down] (δ-sat). *)
let switch_sat =
  E.create ~param_box:theta ~goal:(goal "x <= -1/2") ~k:1 ~time_bound:3.0 switch

let switch_unsat =
  E.create ~param_box:theta ~goal:(goal ~modes:[ "down" ] "x >= 1") ~k:1
    ~time_bound:2.0 switch

let decay_threshold =
  E.create
    ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
    ~goal:(goal "x <= 0.3") ~k:0 ~time_bound:1.0 decay_k

let decay_slow =
  E.create
    ~param_box:(Box.of_list [ ("k", I.make 0.1 0.5) ])
    ~goal:(goal "x <= 0.55") ~k:0 ~time_bound:1.0 decay_k

let decay_fit =
  B.problem
    ~sys:(Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])
    ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
    ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
    ~data:
      [ Synth.Data.point ~time:0.5 ~var:"x" ~value:(Float.exp (-0.5)) ~tolerance:0.08;
        Synth.Data.point ~time:1.0 ~var:"x" ~value:(Float.exp (-1.0)) ~tolerance:0.08 ]

let square = [ ("x", 0.0, 2.0); ("y", 0.0, 2.0) ]
let wide = [ ("x", -1.5, 1.5); ("y", -1.5, 1.5) ]
let wider = [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ]

(* Unsat after five splits: x*y <= 1/2 on the circle. *)
let circle_hyperbola = "x^2 + y^2 = 1 and x*y = 1"

(* perfbench's calib-pave formula and box: two terms, each bounded on
   both sides.  The workload paves at epsilon 0.002. *)
let impulse_fit =
  "a*k*exp(-k) >= 0.3 and a*k*exp(-k) <= 0.5 and 3*a*k*exp(-3*k) >= 0.1 and \
   3*a*k*exp(-3*k) <= 0.3"

let impulse_box = [ ("k", 0.05, 2.5); ("a", 0.2, 3.0) ]

(* test_tm's cubic band on [square]: at epsilon 0.05 only the
   Taylor-model certifier proves sat leaves in it. *)
let cubic_band =
  "x^3 - 2*x^2 + 1.25*x >= 0.2 and x^3 - 2*x^2 + 1.25*x <= 0.3 and \
   y^3 - 2*y^2 + 1.25*y >= 0.2 and y^3 - 2*y^2 + 1.25*y <= 0.3"

(* Pavings with no contractor: the certifier alone classifies boxes. *)
let no_contraction = { S.default_config with epsilon = 0.05; use_contraction = false }

(* The queries the scheduler test runs at jobs = 1 and 2; none exhausts
   its budget. *)
let scheduled =
  [ ( "decide unsat",
      fun jobs -> decide ~config:{ S.default_config with jobs } circle_hyperbola wider );
    ( "pave impulse fit, workload epsilon",
      fun jobs ->
        pave ~config:{ S.default_config with epsilon = 0.002; jobs } impulse_fit
          impulse_box );
    ( "synthesize",
      fun jobs ->
        synthesize ~config:{ C.default_config with epsilon = 0.1; jobs }
          decay_threshold );
    ( "biopsy",
      fun jobs -> biopsy ~config:{ B.default_config with epsilon = 0.05; jobs } decay_fit
    ) ]

let at_jobs_1 name = rendering (List.assoc name scheduled 1)

(* (name, query, digest of its rendering computed on the parent). *)
let queries =
  [ ( "decide delta-sat",
      rendering (decide "x^2 + y^2 = 1 and y = x^2" square),
      "56ef90ca5bd82a878f098b6d48c3295d" );
    ( "decide delta-sat, one variable",
      rendering (decide "x^3 - x = 1/4" [ ("x", -2.0, 2.0) ]),
      "2b20140b1e78a74130a4a73420198725" );
    ("decide unsat", at_jobs_1 "decide unsat", "e6611af4ab781c7537dfeddaecc32eaf");
    ( "decide dnf",
      rendering
        (decide ("(" ^ circle_hyperbola ^ ") or (x^2 + y^2 = 1 and y = x^2)") wider),
      "83467f52d615f4c9a442b8d190591d2f" );
    ( "pave",
      rendering
        (pave ~config:{ S.default_config with epsilon = 0.1 } "x^2 + y^2 <= 1" wide),
      "b09e7151b55e2d09ff33b2cff9e1c7a6" );
    ("check delta-sat", rendering (check switch_sat), "6b8f47a227d04cb8ce8a64583dabda6c");
    ("check unsat", rendering (check switch_unsat), "15f1f23e877e7e79e802d662a9c83055");
    ( "check parameterized delta-sat",
      rendering (check decay_threshold),
      "cfaf25096d2a2f96995e61843f9dd344" );
    ( "check parameterized unsat",
      rendering (check decay_slow),
      "1094fca93e14b0e4e4ce5f05a27d2a36" );
    ("synthesize", at_jobs_1 "synthesize", "7f470bf43227ee50732a2b275dd5b0ae");
    ("biopsy", at_jobs_1 "biopsy", "3d649037e88daa66f58f83124b51bffb");
    ( "decide exhausted",
      exhausted_decide { S.default_config with max_boxes = 5 } circle_hyperbola wider,
      "0327fe6c16fe4343364edf9ad4e3868c" );
    ( "pave exhausted",
      exhausted_pave
        { S.default_config with epsilon = 0.1; max_boxes = 40 }
        "x^2 + y^2 <= 1" wide,
      "00698d87863b6d67c55d970a2271d05e" );
    ( "check exhausted",
      exhausted_check { C.default_config with max_param_boxes = 2 } decay_slow,
      "2a59bebfd050bada0997cbe7193b74b8" );
    ( "synthesize exhausted",
      exhausted_synthesize
        { C.default_config with epsilon = 0.1; max_param_boxes = 6 }
        decay_threshold,
      "dd3d816f619e5c7c9b08b18d68677a11" );
    ( "pave impulse fit",
      rendering
        (pave ~config:{ S.default_config with epsilon = 0.05 } impulse_fit impulse_box),
      "ac16877551e275ec513058f5aff40756" );
    ( "pave impulse fit, workload epsilon",
      at_jobs_1 "pave impulse fit, workload epsilon",
      "8c50d1f6d08f5f3a419121c9f1a861d1" );
    ( "decide two-sided band",
      rendering (decide "x^3 - x >= 0.2 and x^3 - x <= 0.25" [ ("x", -2.0, 2.0) ]),
      "4d877f41c9831820f952c27e2e9f3e9f" );
    ( "biopsy exhausted",
      exhausted_biopsy
        { B.default_config with epsilon = 0.05; max_boxes = 6 }
        decay_fit,
      "ef2e8e16d9c021603b3743df0c70a843" );
    ( "pave cubic band, no contraction",
      rendering (pave ~config:no_contraction cubic_band square),
      "b98d01a6ef19c8783a8cff12afdcdb55" );
    ( "pave impulse fit, no contraction",
      rendering (pave ~config:no_contraction impulse_fit impulse_box),
      "5b9f0dde9668e2048d3963044ea3cd35" ) ]

let digest s = Digest.to_hex (Digest.string s)

(* The jobs = 1 run must still render to its pinned digest, and the
   jobs = 2 run on two domains must share its schedule-free part. *)
let same_at_jobs_2 name query () =
  let _, _, pin = List.find (fun (n, _, _) -> n = name) queries in
  let one = query 1 () in
  Alcotest.(check string) (name ^ " at jobs=1") pin (digest one.rendering);
  Parallel.Pool.set_domain_cap (Some 2);
  let two =
    Fun.protect ~finally:(fun () -> Parallel.Pool.set_domain_cap None) (query 2)
  in
  let counts1, leaves1 = schedule_free one and counts2, leaves2 = schedule_free two in
  Alcotest.(check string) (name ^ ": verdict and counts at jobs=2") counts1 counts2;
  Alcotest.(check string)
    (name ^ ": sorted leaves at jobs=2")
    (digest (String.concat "\n" leaves1))
    (digest (String.concat "\n" leaves2))

let () =
  Alcotest.run "search"
    [ ( "digest at jobs=1",
        List.map
          (fun (name, render, expected) ->
            Alcotest.test_case name `Quick
              (pinned (fun () ->
                   Alcotest.(check string) name expected (digest (render ())))))
          queries );
      ( "jobs=2 = jobs=1",
        List.map
          (fun (name, query) ->
            Alcotest.test_case name `Quick (pinned (same_at_jobs_2 name query)))
          scheduled ) ]
