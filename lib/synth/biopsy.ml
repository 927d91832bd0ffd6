(* Guaranteed parameter set synthesis for single-mode ODE models against
   time-series bands (the BioPSy-equivalent, Section IV-A of the paper).

   Given an ODE system, a box of admissible parameters, and data bands,
   the parameter box is paved into:
   - [consistent]: every parameter in the box yields a trajectory passing
     through all bands (proved: the validated enclosure at each data time
     is inside the band);
   - [inconsistent]: no parameter can fit (proved: some enclosure misses
     its band entirely);
   - [undecided]: sub-ε remainder.

   An `unsat` over the whole box — [inconsistent] covering everything — is
   model *falsification*: no parameter value lets the model explain the
   data (the paper's model-rejection arrow in Fig. 2).

   The paving loop is {!Icp.Search.run}, the driver shared with decide,
   pave and reach; this module supplies the classification step.  At
   [jobs = 1] it is a depth-first search, left half first. *)

module I = Interval.Ia
module Box = Interval.Box

let src = Logs.Src.create "synth.biopsy" ~doc:"guaranteed parameter synthesis"
module Log = (val Logs.src_log src : Logs.LOG)

let tm_synth = Telemetry.Span.probe "biopsy.synthesize"
let tm_classify = Telemetry.Span.probe "biopsy.classify"
let m_boxes = Telemetry.Counter.make "biopsy.boxes"

type config = {
  epsilon : float;  (** minimum parameter-box width *)
  max_boxes : int;
  enclosure : Ode.Enclosure.config;
  jobs : int;  (** worker domains paving in parallel; 1 = sequential *)
}

let default_config =
  { epsilon = 1e-2; max_boxes = 5_000; enclosure = Ode.Enclosure.default_config;
    jobs = 1 }

type problem = {
  sys : Ode.System.t;
  param_box : Box.t;
  init : Box.t;  (** initial state (box; singleton components = known) *)
  data : Data.t;
}

let problem ~sys ~param_box ~init ~data =
  List.iter
    (fun p ->
      if not (Box.mem_var p param_box) then
        invalid_arg (Printf.sprintf "Biopsy.problem: parameter %S has no box" p))
    (Ode.System.params sys);
  List.iter
    (fun v ->
      if not (Box.mem_var v init) then
        invalid_arg (Printf.sprintf "Biopsy.problem: initial state misses %S" v))
    (Ode.System.vars sys);
  List.iter
    (fun (p : Data.point) ->
      if not (List.mem p.Data.var (Ode.System.vars sys)) then
        invalid_arg (Printf.sprintf "Biopsy.problem: data for unknown variable %S" p.Data.var))
    data;
  { sys; param_box; init; data }

type verdict = All_fit | None_fit | Split_

(* Verdict store for parameter-box classification.  [classify] is a pure,
   deterministic function of (problem, config, box), so exact replays are
   identity-preserving: a finer paving of the same problem replays every
   box a coarser one already classified. *)
let verdict_cache : verdict Cache.t = Cache.create ~group_capacity:4096 "biopsy"

let problem_group cfg prob =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "biopsy|";
  Buffer.add_string buf (Ode.System.digest prob.sys);
  Buffer.add_char buf '|';
  (* The flow fingerprint names every layer switch the classifying tube
     depends on. *)
  Buffer.add_string buf (Ode.Enclosure.flow_fingerprint cfg.enclosure);
  Buffer.add_char buf '|';
  List.iter
    (fun (v, itv) ->
      Buffer.add_string buf
        (Printf.sprintf "%s=%h,%h;" v (I.lo itv) (I.hi itv)))
    (Box.to_list prob.init);
  Buffer.add_char buf '|';
  List.iter
    (fun (p : Data.point) ->
      Buffer.add_string buf
        (Printf.sprintf "%h:%s=%h±%h;" p.Data.time p.Data.var p.Data.value
           p.Data.tolerance))
    prob.data;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Classify one parameter box against the data using a validated tube. *)
let classify_uncached cfg prob prepared pbox =
  let t_end = Data.horizon prob.data in
  let tube =
    Ode.Enclosure.flow ~config:cfg.enclosure ~prepared ~params:pbox
      ~init:prob.init ~t_end prob.sys
  in
  if not tube.Ode.Enclosure.complete then Split_
  else begin
    let rec go all_inside = function
      | [] -> if all_inside then All_fit else Split_
      | (p : Data.point) :: rest -> (
          match Ode.Enclosure.state_at tube p.Data.time with
          | None -> Split_ (* should not happen on a complete tube *)
          | Some state ->
              let x = Box.find p.Data.var state in
              let b = Data.band p in
              if I.is_empty (I.inter x b) then begin
                if Journal.on () then Journal.set_reason "band-miss";
                None_fit
              end
              else go (all_inside && I.subset x b) rest)
    in
    go true prob.data
  end

(* [group] is [problem_group cfg prob], built once per synthesis. *)
let classify_inner cfg prob prepared ~group pbox =
  match Cache.find verdict_cache ~group pbox with
  | Some v ->
      if v = None_fit && Journal.on () then Journal.set_reason ~group "cache-replay";
      v
  | None ->
      let v = classify_uncached cfg prob prepared pbox in
      Cache.add verdict_cache ~group pbox v;
      v

(* Per-box classification, the hot path of the paving loop: count every
   box and span it when tracing, without allocating a closure when
   telemetry is off. *)
let classify cfg prob prepared ~group pbox =
  Telemetry.Counter.incr m_boxes;
  if not (Telemetry.enabled ()) then classify_inner cfg prob prepared ~group pbox
  else begin
    let tok = Telemetry.Span.enter tm_classify in
    match classify_inner cfg prob prepared ~group pbox with
    | v ->
        Telemetry.Span.exit tm_classify tok;
        v
    | exception e ->
        Telemetry.Span.exit tm_classify tok;
        raise e
  end

type result = {
  consistent : Box.t list;
  inconsistent : Box.t list;
  undecided : Box.t list;
  boxes_explored : int;
}

let volumes prob r =
  let over = Box.vars prob.param_box in
  let vol = List.fold_left (fun acc b -> acc +. Box.volume_over over b) 0.0 in
  (vol r.consistent, vol r.inconsistent, vol r.undecided)

let pp_result ppf r =
  Fmt.pf ppf "biopsy: %d consistent, %d inconsistent, %d undecided (in %d boxes)"
    (List.length r.consistent) (List.length r.inconsistent)
    (List.length r.undecided) r.boxes_explored

let synthesize ?(config = default_config) prob =
  Telemetry.Span.with_ tm_synth @@ fun () ->
  Icp.Search.journaled ~kind:"synth" ~jobs:config.jobs
    ~verdict:(fun result ->
      ( Printf.sprintf "synthesis consistent=%d inconsistent=%d undecided=%d"
          (List.length result.consistent)
          (List.length result.inconsistent)
          (List.length result.undecided),
        false ))
  @@ fun () ->
  let prepared = Ode.Enclosure.prepare prob.sys in
  let group = problem_group config prob in
  (* [classify] is a pure function of the box, so the leaf set does not
     depend on [jobs] while the budget lasts; only the list order does. *)
  let r =
    Icp.Search.run ~jobs:config.jobs
      ~budget:(Icp.Search.budget config.max_boxes)
      ~heur:"bisect"
      ~exhausted:(fun pbox ->
        Icp.Search.Leaf
          ("undecided", Some "budget-exhaust", Some (`Undecided, pbox)))
      (fun _ pbox ->
        match classify config prob prepared ~group pbox with
        | All_fit -> Icp.Search.Leaf ("consistent", None, Some (`Consistent, pbox))
        | None_fit -> Icp.Search.Prune (Some (`Inconsistent, pbox))
        | Split_ -> (
            match Box.split ~min_width:config.epsilon pbox with
            | Some (l, r) -> Icp.Search.Split (l, r)
            | None ->
                Icp.Search.Leaf
                  ("undecided", Some "sub-epsilon", Some (`Undecided, pbox))))
      prob.param_box
  in
  let leaves cls =
    List.filter_map
      (fun (c, b) -> if c = cls then Some b else None)
      r.Icp.Search.leaves
  in
  let result =
    { consistent = leaves `Consistent; inconsistent = leaves `Inconsistent;
      undecided = leaves `Undecided;
      boxes_explored = r.Icp.Search.counts.Icp.Search.boxes }
  in
  Log.info (fun m ->
      m "synthesis finished after %d boxes (%d/%d/%d)" result.boxes_explored
        (List.length result.consistent)
        (List.length result.inconsistent)
        (List.length result.undecided));
  result

(* The model is falsified when no parameter box survives. *)
let falsified r = r.consistent = [] && r.undecided = []

(* CSV of the paving (one row per box: class, then lo/hi per parameter),
   for external plotting of the feasible region. *)
let to_csv prob r =
  let params = Box.vars prob.param_box in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (String.concat ","
       ("class" :: List.concat_map (fun p -> [ p ^ "_lo"; p ^ "_hi" ]) params));
  Buffer.add_char buf '\n';
  let dump cls boxes =
    List.iter
      (fun b ->
        Buffer.add_string buf cls;
        List.iter
          (fun p ->
            let itv = Box.find p b in
            Buffer.add_string buf (Printf.sprintf ",%.9g,%.9g" (I.lo itv) (I.hi itv)))
          params;
        Buffer.add_char buf '\n')
      boxes
  in
  dump "consistent" r.consistent;
  dump "inconsistent" r.inconsistent;
  dump "undecided" r.undecided;
  Buffer.contents buf

(* Point estimate: cheapest SSE among midpoints of surviving boxes,
   refined by a golden-section-free local probe (coordinate descent). *)
let fit ?(config = default_config) ?(refine_iters = 40) prob =
  let r = synthesize ~config prob in
  let candidates = List.map Box.mid_env (r.consistent @ r.undecided) in
  let t_end = Data.horizon prob.data in
  let init_env = Box.mid_env prob.init in
  let cost env =
    let trace =
      Ode.Integrate.simulate ~params:env ~init:init_env ~t_end prob.sys
    in
    Data.sse prob.data trace
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left
          (fun (be, bc) env ->
            let c = cost env in
            if c < bc then (env, c) else (be, bc))
          (first, cost first) rest
      in
      (* Coordinate descent within the original parameter box. *)
      let rec refine (env, c) step iters =
        if iters = 0 || step < 1e-6 then (env, c)
        else
          let improved =
            List.fold_left
              (fun (env, c) p ->
                let dom = Box.find p prob.param_box in
                let v = List.assoc p env in
                let try_v v' =
                  if I.mem v' dom then
                    let env' = (p, v') :: List.remove_assoc p env in
                    let c' = cost env' in
                    if c' < c then Some (env', c') else None
                  else None
                in
                let w = I.width dom *. step in
                match try_v (v +. w) with
                | Some r -> r
                | None -> ( match try_v (v -. w) with Some r -> r | None -> (env, c)))
              (env, c)
              (Ode.System.params prob.sys)
          in
          if snd improved < c then refine improved step (iters - 1)
          else refine improved (step /. 2.0) (iters - 1)
      in
      Some (refine best 0.25 refine_iters)
