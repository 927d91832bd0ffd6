(* End-to-end statistical model checking of ODE / hybrid models with
   probabilistic initial states and parameters (the Fig.-2 SMC branch).

   Each sample: draw initial state and parameters from the declared
   distributions, simulate, evaluate the BLTL property on the trajectory.
   The Bernoulli stream feeds either an SPRT hypothesis test or an
   estimation procedure. *)

type model =
  | Ode_model of Ode.System.t
  | Hybrid_model of Hybrid.Automaton.t

let tm_test = Telemetry.Span.probe "smc.test"
let tm_estimate = Telemetry.Span.probe "smc.estimate"
let tm_batch = Telemetry.Span.probe "smc.batch"
let m_samples = Telemetry.Counter.make "smc.samples"
let m_successes = Telemetry.Counter.make "smc.successes"
let m_batches = Telemetry.Counter.make "smc.sprt_batches"
let m_discarded = Telemetry.Counter.make "smc.discarded"
let m_steps = Telemetry.Counter.make "smc.steps"

type problem = {
  model : model;
  init_dist : Sampler.spec;  (** distributions of initial values *)
  param_dist : Sampler.spec;  (** distributions of parameters *)
  property : Bltl.t;
  t_end : float;
  max_jumps : int;
}

let problem ?(max_jumps = 100) ~model ~init_dist ~param_dist ~property ~t_end () =
  if t_end <= 0.0 then invalid_arg "Smc.problem: t_end must be positive";
  { model; init_dist; param_dist; property; t_end; max_jumps }

(* ---- A problem compiled for one worker ----

   Every name is resolved once per query and worker domain, never per
   sample or per point: an ODE worker holds one stepper (its field
   compiled once, see [Ode.Integrate.restart]), one streamed view whose
   point buffers grow to the longest sample, the property's monitor
   with its atoms resolved against that view, and where each sampled
   value goes.  A sample then draws its values, restarts the stepper in
   place and streams it into the view, so integration stops where the
   verdict is fixed, and [smc.steps] adds the steps it took.  A hybrid
   sample simulates its whole trajectory first and reads it with
   [Bltl.holds]. *)

type ode_worker = {
  stepper : Ode.Integrate.stepper;
  view : Bltl.trace_view;
  monitor : Bltl.monitor;
  init_at : int array;  (* state variable i's position in the init spec *)
  param_at : int array;  (* parameter j's position in the parameter spec *)
  y0 : float array;
  p0 : float array;
}

type worker = Ode_worker of ode_worker | Hybrid_worker of Hybrid.Automaton.t

(* The position of the first entry named [x] in [spec], or -1. *)
let position (spec : Sampler.spec) x =
  let rec go k = function
    | [] -> -1
    | (y, _) :: rest -> if String.equal x y then k else go (k + 1) rest
  in
  go 0 spec

let compile prob =
  match prob.model with
  | Hybrid_model h -> Hybrid_worker h
  | Ode_model sys ->
      let resolve spec what x =
        match position spec x with
        | -1 -> invalid_arg (Printf.sprintf "Smc: no %s distribution for %S" what x)
        | k -> k
      in
      let vars = Ode.System.vars sys and params = Ode.System.params sys in
      let init_at = Array.of_list (List.map (resolve prob.init_dist "initial") vars) in
      let param_at = Array.of_list (List.map (resolve prob.param_dist "parameter") params) in
      Ode_worker
        { stepper = Ode.Integrate.create ~t_end:prob.t_end sys;
          view = Bltl.streaming ();
          monitor =
            Bltl.monitor ~params:(List.map fst prob.param_dist) ~vars prob.property;
          init_at; param_at; y0 = Array.make (List.length vars) 0.0;
          p0 = Array.make (List.length params) 0.0 }

(* [dst.(i)] gets the value drawn at position [at.(i)] of its spec. *)
let place dst at (drawn : (string * float) list) =
  let values = Array.of_list (List.map snd drawn) in
  Array.iteri (fun i k -> dst.(i) <- values.(k)) at

(* Draw one sample and read it: [read view monitor] on an ODE worker's
   streamed view, [read_trajectory view] on a hybrid one. *)
let read_sample w rng prob read read_trajectory =
  let init = Sampler.sample rng prob.init_dist in
  let params = Sampler.sample rng prob.param_dist in
  match w with
  | Ode_worker o ->
      place o.y0 o.init_at init;
      place o.p0 o.param_at params;
      Ode.Integrate.restart o.stepper ~params:o.p0 ~init:o.y0;
      Bltl.stream ~params o.view o.stepper;
      let r = read o.view o.monitor in
      Telemetry.Counter.add m_steps (Ode.Integrate.steps o.stepper);
      r
  | Hybrid_worker h ->
      let traj =
        Hybrid.Simulate.simulate ~params ~init ~t_end:prob.t_end
          ~max_jumps:prob.max_jumps h
      in
      read_trajectory (Bltl.of_trajectory ~params traj)

(* One Bernoulli sample of the property.  Sampling only observes the
   outcome, so telemetry never perturbs the Bernoulli stream. *)
let holds_once w rng prob =
  let outcome =
    read_sample w rng prob
      (fun view m -> Bltl.check view m)
      (fun view -> Bltl.holds view prob.property)
  in
  Telemetry.Counter.incr m_samples;
  if outcome then Telemetry.Counter.incr m_successes;
  outcome

(* Robustness of one random trajectory (quantitative sample). *)
let robustness_once w rng prob =
  read_sample w rng prob
    (fun view m -> Bltl.check_robustness view m)
    (fun view -> Bltl.robustness view prob.property)

let sample_once rng prob = holds_once (compile prob) rng prob
let sample_robustness rng prob = robustness_once (compile prob) rng prob

(* ---- Parallel sampling ----

   Trace samples are independent, so with [jobs > 1] they fan out over
   worker domains.  Worker [w] owns the contiguous slice [w*n/jobs,
   (w+1)*n/jobs) of the sample indices and its own PRNG stream split
   from the root seed as [Random.State.make [| seed; w |]]; the
   assignment is static, so an estimate at a fixed (seed, jobs) pair is
   bit-identical across runs.  Estimates at different [jobs] values
   consume different streams and may differ within the statistical
   error bounds — that is the documented trade-off.  [jobs = 1] takes
   the original sequential code path (stream [| seed |]). *)

let worker_rng ~seed w = Random.State.make [| seed; w |]

(* Per-domain tally of [f worker rng] over a static slice of [n]
   samples, each domain with [prob] compiled for it; returns the summed
   tallies combined with [add] from [zero]. *)
let fan_out ~seed ~jobs ~n ~zero ~add prob f =
  let parts =
    Parallel.Pool.parallel_for_chunks ~jobs n (fun w lo hi ->
        Telemetry.Span.with_ ~arg:(float_of_int (hi - lo)) tm_batch
        @@ fun () ->
        let rng = worker_rng ~seed w in
        let worker = compile prob in
        let acc = ref zero in
        for _ = lo to hi - 1 do
          acc := add !acc (f worker rng)
        done;
        !acc)
  in
  Array.fold_left add zero parts

let count_successes ~seed ~jobs ~n prob =
  fan_out ~seed ~jobs ~n ~zero:0 ~add:( + ) prob (fun w rng ->
      if holds_once w rng prob then 1 else 0)

(* Hypothesis test: is P(property) >= theta?  With [jobs > 1] outcomes
   are precomputed in speculative batches (each worker extends its own
   stream by a batch slice) and fed to the SPRT in global index order.

   The batch size adapts to test progress: each round computes at least
   [Sprt.min_remaining] further samples (no shorter batch can decide the
   test), so batches are large while the llr is far from both Wald
   boundaries and shrink as a decision approaches — bounding the
   speculative samples discarded past the decision point.  The round
   structure is a deterministic function of the consumed outcome prefix,
   so the verdict is bit-reproducible at a fixed (seed, jobs). *)
let test ?(seed = 42) ?(jobs = 1) ?config prob =
  Telemetry.Span.with_ tm_test @@ fun () ->
  if jobs <= 1 then begin
    let rng = Random.State.make [| seed |] in
    let w = compile prob in
    Sprt.run ?config (fun _ -> holds_once w rng prob)
  end
  else begin
    let jobs = Stdlib.max 1 jobs in
    let rngs = Array.init jobs (fun w -> worker_rng ~seed w) in
    let workers = Array.init jobs (fun _ -> compile prob) in
    let buffer = ref [||] (* outcomes so far, in global order *) in
    let extend st =
      (* round: worker w computes outcomes for its next slice; global
         order interleaves the slices round-robin by worker. *)
      let per_worker =
        let need = Sprt.min_remaining st in
        Stdlib.max 1 (Stdlib.min 256 ((need + jobs - 1) / jobs))
      in
      Telemetry.Counter.incr m_batches;
      Telemetry.Span.with_ ~arg:(float_of_int (jobs * per_worker)) tm_batch
      @@ fun () ->
      let batch =
        Parallel.Pool.run ~jobs (fun w ->
            Array.init per_worker (fun _ -> holds_once workers.(w) rngs.(w) prob))
      in
      let woven =
        Array.init (jobs * per_worker) (fun i -> batch.(i mod jobs).(i / jobs))
      in
      buffer := Array.append !buffer woven
    in
    let rec drive st i =
      match Sprt.status st with
      | Some r ->
          Telemetry.Counter.add m_discarded
            (Array.length !buffer - r.Sprt.samples_used);
          r
      | None ->
          if i >= Array.length !buffer then extend st;
          drive (Sprt.feed st !buffer.(i)) (i + 1)
    in
    drive (Sprt.start ?config ()) 0
  end

(* Probability estimation with Chernoff sample size. *)
let estimate ?(seed = 42) ?(jobs = 1) ?(eps = 0.05) ?(alpha = 0.05) prob =
  Telemetry.Span.with_ tm_estimate @@ fun () ->
  if jobs <= 1 then begin
    let rng = Random.State.make [| seed |] in
    let w = compile prob in
    Estimate.monte_carlo ~eps ~alpha (fun _ -> holds_once w rng prob)
  end
  else begin
    let n = Estimate.chernoff_sample_size ~eps ~alpha in
    let successes = count_successes ~seed ~jobs ~n prob in
    Estimate.monte_carlo_of_counts ~eps ~alpha ~n ~successes
  end

(* Bayesian estimation with fixed sample count. *)
let estimate_bayesian ?(seed = 42) ?(jobs = 1) ?(n = 500) ?confidence prob =
  Telemetry.Span.with_ tm_estimate @@ fun () ->
  if jobs <= 1 then begin
    let rng = Random.State.make [| seed |] in
    let w = compile prob in
    Estimate.bayesian ?confidence ~n (fun _ -> holds_once w rng prob)
  end
  else begin
    let successes = count_successes ~seed ~jobs ~n prob in
    Estimate.bayesian_of_counts ?confidence ~n ~successes ()
  end

(* Average robustness over [n] samples — the objective SMC-based
   parameter search maximizes when calibrating against behaviour
   constraints. *)
let mean_robustness ?(seed = 42) ?(jobs = 1) ?(n = 100) prob =
  let clamp r = Float.max (-1e6) (Float.min 1e6 r) in
  if jobs <= 1 then begin
    let rng = Random.State.make [| seed |] in
    let w = compile prob in
    let total = ref 0.0 in
    for _ = 1 to n do
      total := !total +. clamp (robustness_once w rng prob)
    done;
    !total /. float_of_int n
  end
  else
    let total =
      fan_out ~seed ~jobs ~n ~zero:0.0 ~add:( +. ) prob (fun w rng ->
          clamp (robustness_once w rng prob))
    in
    total /. float_of_int n
