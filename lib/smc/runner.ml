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

(* Each domain's streamed trace view.  A sample's verdict is read to
   the end before the next sample starts on the same domain, so one
   view per domain is never shared by two live samples, and its point
   buffers are allocated once per domain instead of once per sample. *)
let view_key = Domain.DLS.new_key Bltl.streaming

(* Draw one sample and [read] its view.  An ODE sample streams its
   points from the stepper, so integration stops where [read] has what
   it needs, and [smc.steps] adds the steps it took; a hybrid sample
   simulates the whole trajectory first. *)
let read_sample rng prob read =
  let init = Sampler.sample rng prob.init_dist in
  let params = Sampler.sample rng prob.param_dist in
  match prob.model with
  | Ode_model sys ->
      List.iter
        (fun v ->
          if not (List.mem_assoc v init) then
            invalid_arg (Printf.sprintf "Smc: no initial distribution for %S" v))
        (Ode.System.vars sys);
      let stepper = Ode.Integrate.start ~params ~init ~t_end:prob.t_end sys in
      let view = Domain.DLS.get view_key in
      Bltl.stream ~params view stepper;
      let r = read view in
      Telemetry.Counter.add m_steps (Ode.Integrate.steps stepper);
      r
  | Hybrid_model h ->
      let traj =
        Hybrid.Simulate.simulate ~params ~init ~t_end:prob.t_end
          ~max_jumps:prob.max_jumps h
      in
      read (Bltl.of_trajectory ~params traj)

(* One Bernoulli sample of the property.  Sampling only observes the
   outcome, so telemetry never perturbs the Bernoulli stream. *)
let sample_once rng prob =
  let outcome = read_sample rng prob (fun view -> Bltl.holds view prob.property) in
  Telemetry.Counter.incr m_samples;
  if outcome then Telemetry.Counter.incr m_successes;
  outcome

(* Robustness of one random trajectory (quantitative sample). *)
let sample_robustness rng prob =
  read_sample rng prob (fun view -> Bltl.robustness view prob.property)

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

(* Per-domain tally of [f rng] over a static slice of [n] samples;
   returns the summed tallies combined with [add] from [zero]. *)
let fan_out ~seed ~jobs ~n ~zero ~add f =
  let parts =
    Parallel.Pool.parallel_for_chunks ~jobs n (fun w lo hi ->
        Telemetry.Span.with_ ~arg:(float_of_int (hi - lo)) tm_batch
        @@ fun () ->
        let rng = worker_rng ~seed w in
        let acc = ref zero in
        for _ = lo to hi - 1 do
          acc := add !acc (f rng)
        done;
        !acc)
  in
  Array.fold_left add zero parts

let count_successes ~seed ~jobs ~n prob =
  fan_out ~seed ~jobs ~n ~zero:0
    ~add:( + )
    (fun rng -> if sample_once rng prob then 1 else 0)

(* Hypothesis test: is P(property) >= theta?  With [jobs > 1] outcomes
   are precomputed in speculative batches (each worker extends its own
   stream by a batch slice) and fed to the SPRT in global index order.

   The batch size adapts to test progress: each round computes at least
   [Sprt.min_remaining] further samples (no shorter batch can decide the
   test), so batches are large while the llr is far from both Wald
   boundaries and shrink as a decision approaches — bounding the
   speculative samples discarded past the decision point, which the old
   fixed-32 batches threw away wholesale.  The round structure is a
   deterministic function of the consumed outcome prefix, so the verdict
   is still bit-reproducible at a fixed (seed, jobs).  Under
   BIOMC_NO_WORKSTEAL=1 the batch is pinned at the historical 32 per
   worker, reproducing the old sample stream exactly. *)
let test ?(seed = 42) ?(jobs = 1) ?config prob =
  Telemetry.Span.with_ tm_test @@ fun () ->
  if jobs <= 1 then begin
    let rng = Random.State.make [| seed |] in
    Sprt.run ?config (fun _ -> sample_once rng prob)
  end
  else begin
    let jobs = Stdlib.max 1 jobs in
    let adaptive = Parallel.Pool.workstealing_enabled () in
    let rngs = Array.init jobs (fun w -> worker_rng ~seed w) in
    let buffer = ref [||] (* outcomes so far, in global order *) in
    let extend st =
      (* round: worker w computes outcomes for its next slice; global
         order interleaves the slices round-robin by worker. *)
      let per_worker =
        if adaptive then
          let need = Sprt.min_remaining st in
          Stdlib.max 1 (Stdlib.min 256 ((need + jobs - 1) / jobs))
        else 32
      in
      Telemetry.Counter.incr m_batches;
      Telemetry.Span.with_ ~arg:(float_of_int (jobs * per_worker)) tm_batch
      @@ fun () ->
      let batch =
        Parallel.Pool.run ~jobs (fun w ->
            Array.init per_worker (fun _ -> sample_once rngs.(w) prob))
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
    Estimate.monte_carlo ~eps ~alpha (fun _ -> sample_once rng prob)
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
    Estimate.bayesian ?confidence ~n (fun _ -> sample_once rng prob)
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
    let total = ref 0.0 in
    for _ = 1 to n do
      total := !total +. clamp (sample_robustness rng prob)
    done;
    !total /. float_of_int n
  end
  else
    let total =
      fan_out ~seed ~jobs ~n ~zero:0.0 ~add:( +. ) (fun rng ->
          clamp (sample_robustness rng prob))
    in
    total /. float_of_int n
