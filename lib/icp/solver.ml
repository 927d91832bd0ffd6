(* Branch-and-prune δ-decision procedure (the dReal-equivalent core).

   Given a bounded quantifier-free L_RF formula φ and a box of variable
   domains, [decide] answers (Theorem 1 of the paper):
   - [Unsat]      — φ has no solution in the box;
   - [Delta_sat]  — the δ-weakening φ^δ is satisfiable (with a witness).

   The search follows the DPLL(ICP) recipe: the formula is split into its
   DNF branches (the Boolean search), and each conjunction of atoms is
   handled by HC4 fixpoint contraction + bisection (the theory search).
   A δ-sat verdict is preferentially certified by an explicit point
   witness of φ^δ (midpoint/corner sampling); when certification at a
   sub-ε box fails, the one-sided-error answer licensed by δ-decidability
   is returned with the box as the witness region.

   The box loop is {!Search.run}, the driver every box search shares;
   this module supplies the decide and pave steps.  With
   [config.jobs > 1] worker domains drain the driver's work-stealing
   frontier.  The first δ-sat witness stops the search; an unsat
   verdict still requires full frontier exhaustion, so the one-sided
   soundness guarantee is untouched.  DNF branches race one another on
   a frontier of their own (first δ-sat wins), each branch searched by
   the driver at [jobs = 1].  At [jobs = 1] the frontier's sequential
   drive makes every search a depth-first loop on the calling domain,
   left half first. *)

module I = Interval.Ia
module Box = Interval.Box

let src = Logs.Src.create "icp.solver" ~doc:"delta-decision solver"
module Log = (val Logs.src_log src : Logs.LOG)

(* Search telemetry.  Spans time whole queries and individual box steps
   (the box step's trace payload is the box's total width, so a Perfetto
   timeline shows the measure shrinking down the search tree); the
   counters mirror the per-query [stats] records into the process-wide
   metrics registry, which is the one reporting path `--metrics` and the
   bench breakdown read.  Always-on, so the counts do not depend on
   telemetry being enabled. *)
let tm_decide = Telemetry.Span.probe "icp.decide"
let tm_pave = Telemetry.Span.probe "icp.pave"
let tm_box = Telemetry.Span.probe "icp.box"
let m_decide_boxes = Telemetry.Counter.make ~always:true "icp.decide.boxes"
let m_decide_splits = Telemetry.Counter.make ~always:true "icp.decide.splits"
let m_decide_prunings = Telemetry.Counter.make ~always:true "icp.decide.prunings"
let m_decide_certifications =
  Telemetry.Counter.make ~always:true "icp.decide.certifications"
let m_pave_boxes = Telemetry.Counter.make ~always:true "icp.pave.boxes"
let m_pave_splits = Telemetry.Counter.make ~always:true "icp.pave.splits"
let m_pave_prunings = Telemetry.Counter.make ~always:true "icp.pave.prunings"

type config = {
  delta : float;  (** perturbation bound δ of the δ-decision problem *)
  epsilon : float;  (** boxes thinner than this are no longer split *)
  max_boxes : int;  (** branch-and-prune work budget *)
  contractor_rounds : int;  (** HC4 fixpoint rounds per box *)
  use_contraction : bool;  (** disable to get bisection-only search (ablation) *)
  jobs : int;  (** worker domains for the search; 1 = sequential *)
}

let default_config =
  { delta = 1e-3; epsilon = 1e-4; max_boxes = 200_000; contractor_rounds = 10;
    use_contraction = true; jobs = 1 }

type stats = {
  mutable boxes_processed : int;
  mutable splits : int;
  mutable prunings : int;
  mutable max_depth : int;
  mutable certifications : int;  (** candidate witness points probed *)
}

let fresh_stats () =
  { boxes_processed = 0; splits = 0; prunings = 0; max_depth = 0;
    certifications = 0 }

(* Accumulate worker-local stats into [acc] (parallel searches merge the
   per-domain records when they join). *)
let merge_stats acc s =
  acc.boxes_processed <- acc.boxes_processed + s.boxes_processed;
  acc.splits <- acc.splits + s.splits;
  acc.prunings <- acc.prunings + s.prunings;
  acc.max_depth <- Stdlib.max acc.max_depth s.max_depth;
  acc.certifications <- acc.certifications + s.certifications

type witness = {
  point : (string * float) list;  (** a point satisfying φ^δ, when certified *)
  box : Box.t;  (** the sub-ε box the verdict came from *)
  certified : bool;  (** true iff [point] was checked to satisfy φ^δ *)
}

type result =
  | Unsat
  | Delta_sat of witness
  | Unknown of string  (** work budget exhausted before reaching a verdict *)

let pp_result ppf = function
  | Unsat -> Fmt.string ppf "unsat"
  | Delta_sat w ->
      Fmt.pf ppf "delta-sat%s @[%a@]"
        (if w.certified then " (certified witness)" else " (interval verdict)")
        Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string float))
        w.point
  | Unknown why -> Fmt.pf ppf "unknown (%s)" why

(* Candidate witness points of a box: the midpoint plus a bounded sample
   of corners.  Full corner enumeration is 2^n points, which at n = 10
   meant up to 1024 certification probes per box; we now cap the corner
   sample at [max_corner_samples], enumerating exhaustively only while
   that stays exact. *)
let max_corner_samples = 32

(* Deterministic corner selector: bit [d] of sampled corner [j]. *)
let corner_bit j d =
  let h = (j * 73856093) lxor (d * 19349663) in
  let h = h lxor (h lsr 13) in
  let h = h * 1274126177 in
  (h lsr 7) land 1 = 1

let candidate_points box =
  let bindings = Box.to_list box in
  let mid = List.map (fun (x, i) -> (x, I.mid i)) bindings in
  let toggled = List.filter (fun (_, i) -> not (I.is_singleton i)) bindings in
  let n = List.length toggled in
  let corner bit =
    (* [bit d] picks hi (true) or lo (false) for the d-th wide dimension *)
    let d = ref (-1) in
    List.map
      (fun (x, i) ->
        if I.is_singleton i then (x, I.lo i)
        else begin
          incr d;
          (x, if bit !d then I.hi i else I.lo i)
        end)
      bindings
  in
  let corners =
    if n = 0 then []
    else if n <= 5 then
      (* exhaustive: 2^n <= max_corner_samples *)
      List.init (1 lsl n) (fun c -> corner (fun d -> (c lsr d) land 1 = 1))
    else
      (* bounded sample: the two extreme corners plus hashed patterns *)
      corner (fun _ -> false)
      :: corner (fun _ -> true)
      :: List.init (max_corner_samples - 2) (fun j -> corner (corner_bit (j + 2)))
  in
  mid :: corners

let lookup_of env x =
  match List.assoc_opt x env with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Solver: unbound variable %S in witness" x)

let certify ~delta stats formula box =
  let try_point pt =
    stats.certifications <- stats.certifications + 1;
    if Expr.Formula.holds_delta ~delta (lookup_of pt) formula then Some pt else None
  in
  List.find_map try_point (candidate_points box)

(* ---- The decide step ---- *)

let split_box ?dsys ~min_width b =
  match dsys with
  | Some sys -> Deriv.split sys ~min_width b
  | None -> Box.split ~min_width b

(* A δ-sat verdict as the driver's stop outcome. *)
let found w =
  Search.Sat ({ Search.point = w.point; certified = w.certified; box = w.box },
              Delta_sat w)

let process_box_inner cfg stats ?dsys contract formula b =
  match contract b with
  | None -> Search.Prune None
  | Some b' ->
      if Box.is_empty b' then Search.Prune None
      else if not (Expr.Formula.sat_possible ~delta:cfg.delta b' formula) then begin
        if Journal.on () then Journal.set_reason "sat-impossible";
        Search.Prune None
      end
      else begin
        match certify ~delta:cfg.delta stats formula b' with
        | Some pt -> found { point = pt; box = b'; certified = true }
        | None -> (
            match split_box ?dsys ~min_width:cfg.epsilon b' with
            | Some (left, right) -> Search.Split (left, right)
            | None ->
                (* Sub-ε box on which φ^δ cannot be refuted: the
                   one-sided δ-sat answer. *)
                found { point = Box.mid_env b'; box = b'; certified = false })
      end

let total_width b = Box.fold (fun _ itv acc -> acc +. I.width itv) b 0.0

(* The telemetry wrapper around the per-box step: pure observation (a
   span and, when tracing, the box measure), so verdicts are identical
   with telemetry on or off. *)
let process_box cfg stats ?dsys contract formula b =
  if not (Telemetry.enabled ()) then
    process_box_inner cfg stats ?dsys contract formula b
  else begin
    let tok =
      if Telemetry.trace_on () then
        Telemetry.Span.enter ~arg:(total_width b) tm_box
      else Telemetry.Span.enter tm_box
    in
    match process_box_inner cfg stats ?dsys contract formula b with
    | r ->
        Telemetry.Span.exit tm_box tok;
        r
    | exception e ->
        Telemetry.Span.exit tm_box tok;
        raise e
  end

(* One conjunction's range constraints, compiled (also when no
   contraction runs: the paving certifier reads them), the contractor
   over them and the derivative system behind both its Newton
   contraction and the smear split.  [dsys] is [None] when the
   derivative layer is disabled or no constraint is differentiable; the
   split sites then fall back to widest-dimension bisection, the
   pre-Newton behaviour.  Compiled once per query; the closure and the
   systems are shared by all boxes of the search, across domains, each
   call borrowing its system's workspace. *)
let conjunction_contractor ~max_rounds ~delta ~use_contraction atoms =
  let cs = Contractor.compile_atoms ~delta atoms in
  let dsys = Contractor.deriv_system (Contractor.constraints cs) in
  let contract =
    if use_contraction then Contractor.contractor ~max_rounds ~newton:dsys cs
    else fun b -> Some b
  in
  (contract, dsys, cs)

(* Decide one conjunction of atoms on [box] with [jobs] workers; every
   DNF branch of a race is one such search at [jobs = 1], over the
   [budget] all branches share.  Worker [w]'s certification probes
   count in [worker_stats.(w)], and the search's box, split and prune
   counts are added to [worker_stats.(0)]. *)
let decide_conjunction ~jobs ~budget ?cancelled ?label cfg worker_stats atoms
    box =
  let formula =
    Expr.Formula.and_ (List.map (fun a -> Expr.Formula.Atom a) atoms)
  in
  let contract, dsys, _ =
    conjunction_contractor ~max_rounds:cfg.contractor_rounds ~delta:cfg.delta
      ~use_contraction:cfg.use_contraction atoms
  in
  let r =
    Search.run ~jobs ~budget ?cancelled ?label
      ~heur:(if Option.is_some dsys then "smear" else "bisect")
      ~exhausted:(fun _ ->
        Search.Give_up ("budget-exhaust", Unknown "box budget exhausted"))
      (fun w b ->
        process_box cfg worker_stats.(w) ?dsys contract formula b)
      box
  in
  let s = worker_stats.(0) and c = r.Search.counts in
  s.boxes_processed <- s.boxes_processed + c.Search.boxes;
  s.splits <- s.splits + c.Search.splits;
  s.prunings <- s.prunings + c.Search.prunes;
  s.max_depth <- Stdlib.max s.max_depth c.Search.max_depth;
  Option.value r.Search.verdict ~default:Unsat

(* The race over DNF branches: each branch is searched by whichever
   worker picks it up; the first δ-sat stops the race and cancels the
   branches in flight (the ABC-style first-conclusive-result pattern).
   Unsat still needs every branch refuted. *)
let decide_branches ~jobs ~budget cfg worker_stats branches box =
  let sat = Atomic.make None in
  let pending_unknown = Atomic.make None in
  let fr = Parallel.Pool.Frontier.create branches in
  Parallel.Pool.Frontier.drain ~jobs fr (fun w _slot atoms ->
      let cancelled () = Option.is_some (Atomic.get sat) in
      match
        decide_conjunction ~jobs:1 ~budget ~cancelled ~label:"dnf-branch" cfg
          [| worker_stats.(w) |] atoms box
      with
      | Unsat -> ()
      | Delta_sat _ as r ->
          ignore (Atomic.compare_and_set sat None (Some r));
          Parallel.Pool.Frontier.stop fr
      | Unknown why -> Atomic.set pending_unknown (Some why));
  match Atomic.get sat with
  | Some v -> v
  | None -> (
      match Atomic.get pending_unknown with
      | Some why -> Unknown why
      | None -> Unsat)

(* ---- Public entry points ---- *)

(* The box budget is shared by every worker and every DNF branch. *)
let decide_default config stats formula box =
  let jobs = Stdlib.max 1 config.jobs in
  let budget = Search.budget config.max_boxes in
  let worker_stats = Array.init jobs (fun _ -> fresh_stats ()) in
  let branches = Expr.Formula.dnf formula in
  Log.debug (fun m ->
      m "decide: %d DNF branch(es), %d domain(s)" (List.length branches) jobs);
  let r =
    match branches with
    | [ atoms ] -> decide_conjunction ~jobs ~budget config worker_stats atoms box
    | _ -> decide_branches ~jobs ~budget config worker_stats branches box
  in
  Array.iter (merge_stats stats) worker_stats;
  r

let decide_with_stats_inner ?(config = default_config) formula box =
  let stats = fresh_stats () in
  let result =
    match formula with
    | Expr.Formula.True ->
        Delta_sat { point = Box.mid_env box; box; certified = true }
    | Expr.Formula.False -> Unsat
    | _ -> decide_default config stats formula box
  in
  (result, stats)

let verdict_string = function
  | Unsat -> "unsat"
  | Delta_sat _ -> "delta-sat"
  | Unknown _ -> "unknown"

let decide_with_stats ?(config = default_config) formula box =
  Telemetry.Span.with_ tm_decide @@ fun () ->
  Search.journaled ~kind:"decide" ~jobs:config.jobs
    ~verdict:(fun (result, _) ->
      (verdict_string result, match result with Unknown _ -> true | _ -> false))
  @@ fun () ->
  let ((_, stats) as r) = decide_with_stats_inner ~config formula box in
  Telemetry.Counter.add m_decide_boxes stats.boxes_processed;
  Telemetry.Counter.add m_decide_splits stats.splits;
  Telemetry.Counter.add m_decide_prunings stats.prunings;
  Telemetry.Counter.add m_decide_certifications stats.certifications;
  r

let decide ?config formula box = fst (decide_with_stats ?config formula box)

(* ---- Paving: partition the box by formula status ----

   Used for guaranteed parameter set synthesis: the box is recursively
   split into regions where the formula certainly holds everywhere
   ([sat]), certainly fails everywhere ([unsat]), and sub-ε [undecided]
   remainder. *)

type paving = {
  sat : Box.t list;
  unsat : Box.t list;
  undecided : Box.t list;
}

let paving_volumes ~over p =
  let vol = List.fold_left (fun acc b -> acc +. Box.volume_over over b) 0.0 in
  (vol p.sat, vol p.unsat, vol p.undecided)

let pp_paving ppf p =
  Fmt.pf ppf "paving: %d sat, %d unsat, %d undecided boxes"
    (List.length p.sat) (List.length p.unsat) (List.length p.undecided)

(* ---- Enclosure-assisted sat-certification ----

   [Formula.eval_cert] classifies boxes with plain interval evaluation
   of each atom, so a feasible band box only certifies once bisection
   has shrunk the interval overestimate below the band's slack — on
   dependency-rich atoms that is exactly the overestimate the
   Taylor-model walker removes.  The paving's classifier re-evaluates
   Unknown atoms through the TM pass and intersects the ranges before
   the zero test ({!Contractor.certify}); sound because both passes
   enclose the atom's true value set on the box.  An atom is judged on
   the compiled system of the first DNF branch that holds it, whose
   scratches that branch's HC4 contracts with.  The certifier belongs
   to the Taylor-model layer: without it ([BIOMC_NO_TM=1]/[--no-tm])
   the plain {!Expr.Formula.eval_cert} classifier — and with it the
   interval-only pave — is restored bit for bit. *)
let pave_cert systems =
  if not (Interval.Tm.enabled ()) then Expr.Formula.eval_cert
  else
    Expr.Formula.eval_cert_with ~atom:(fun box a ->
        match List.find_map (fun cs -> Contractor.certify cs box a) systems with
        | Some v -> v
        | None -> Expr.Formula.eval_atom_interval box a)

(* The pave step.  Classification is deterministic, so pavings at any
   [jobs] contain the same leaf boxes (only the list order differs) as
   long as the budget is not exhausted. *)
let pave_step cfg ~cert ?dsys refutes formula b =
  let unsat () = Search.Prune (Some (`Unsat, b)) in
  if Box.is_empty b then Search.Leaf ("empty", None, None)
  else
  match cert b formula with
  | Expr.Formula.Certain -> Search.Leaf ("sat", None, Some (`Sat, b))
  | Expr.Formula.Impossible ->
      if Journal.on () then Journal.set_reason "eval-impossible";
      unsat ()
  | Expr.Formula.Unknown ->
      (* Contraction accelerates carving of the unsat region, but the
         removed shell must be recorded as unsat, not dropped: split
         the difference approximately by checking each component.  To
         stay simple and exact we only use contraction as an
         infeasibility test here. *)
      if refutes b then unsat ()
      else (
        match split_box ?dsys ~min_width:cfg.epsilon b with
        | Some (l, r) -> Search.Split (l, r)
        | None ->
            Search.Leaf ("undecided", Some "sub-epsilon", Some (`Undecided, b)))

let pave_default ?(config = default_config) formula box =
  (* Contraction is only an infeasibility test here, and a box is
     refuted only when every DNF branch refutes it: a conjunction of
     all the formula's atoms would refute boxes that satisfy one
     disjunct.  One conjunction keeps one contractor, which shares its
     derivative system with the smear split; otherwise the split reads
     a system over every atom. *)
  let contract_branch =
    conjunction_contractor ~max_rounds:2 ~delta:0.0
      ~use_contraction:config.use_contraction
  in
  let branches = List.map contract_branch (Expr.Formula.dnf formula) in
  let refutes, dsys =
    match branches with
    | [ (contract, dsys, _) ] -> ((fun b -> Option.is_none (contract b)), dsys)
    | _ ->
        ( (fun b -> List.for_all (fun (c, _, _) -> Option.is_none (c b)) branches),
          Contractor.deriv_system
            (Contractor.of_atoms (Expr.Formula.atoms formula)) )
  in
  let cert = pave_cert (List.map (fun (_, _, cs) -> cs) branches) in
  (* A box that finds the budget exhausted becomes an undecided leaf. *)
  let r =
    Search.run ~jobs:config.jobs
      ~budget:(Search.budget config.max_boxes)
      ~heur:(if Option.is_some dsys then "smear" else "bisect")
      ~exhausted:(fun b ->
        Search.Leaf ("undecided", Some "budget-exhaust", Some (`Undecided, b)))
      (fun _ b -> pave_step config ~cert ?dsys refutes formula b)
      box
  in
  let leaves cls =
    List.filter_map
      (fun (c, b) -> if c = cls then Some b else None)
      r.Search.leaves
  in
  let c = r.Search.counts in
  ( { sat = leaves `Sat; unsat = leaves `Unsat; undecided = leaves `Undecided },
    { boxes_processed = c.Search.boxes; splits = c.Search.splits;
      prunings = c.Search.prunes; max_depth = c.Search.max_depth;
      certifications = 0 } )

let pave_with_stats ?(config = default_config) formula box =
  Telemetry.Span.with_ tm_pave @@ fun () ->
  Search.journaled ~kind:"pave" ~jobs:config.jobs
    ~verdict:(fun (paving, _) ->
      ( Printf.sprintf "paving sat=%d unsat=%d undecided=%d"
          (List.length paving.sat) (List.length paving.unsat)
          (List.length paving.undecided),
        false ))
  @@ fun () ->
  let ((_, stats) as r) = pave_default ~config formula box in
  Telemetry.Counter.add m_pave_boxes stats.boxes_processed;
  Telemetry.Counter.add m_pave_splits stats.splits;
  Telemetry.Counter.add m_pave_prunings stats.prunings;
  r

let pave ?config formula box = fst (pave_with_stats ?config formula box)
