(* Fixed-size domain pool with a work-stealing frontier.

   The branch-and-prune analyses of this framework are embarrassingly
   parallel: boxes on the solver stack are independent, as are DNF
   branches, paving subtrees, candidate mode paths and SMC trace samples.
   This module provides the coordination shapes they need on OCaml 5
   domains, with no dependency beyond the stdlib:

   - {!run}: fork/join over a fixed set of logical workers, scheduled
     over at most {!domain_cap} hardware domains (worker 0 runs on the
     calling domain, so [jobs = 1] spawns nothing);
   - {!Frontier}: a cancellable work pool drained by [jobs] workers over
     per-worker work-stealing deques (owner-local LIFO, steal-half) —
     the pattern behind parallel [decide], [pave] and parameter
     synthesis;
   - {!Lease}: per-worker leases over a shared work budget, so the
     search budget costs one atomic operation per lease instead of one
     per box;
   - {!parallel_for_chunks}: static contiguous chunking of an index
     range — the pattern behind SMC sampling, where worker [w] owns its
     deterministic slice and its own PRNG stream.

   Scheduling-wise the design point is near-zero coordination on the hot
   path: a worker's own deque is guarded by a mutex nobody else touches
   unless a steal is probing it, budget traffic is amortized over lease
   chunks, and sleeping is an eventcount that producers only signal when
   somebody is actually idle.  Oversubscription is handled in {!run}:
   when [jobs] exceeds the hardware domain budget, the extra logical
   workers are multiplexed sequentially onto the available domains
   instead of forcing the runtime to rendezvous descheduled domains at
   every minor collection — which is precisely what made [jobs > cores]
   lose before (BENCH_icp.json's 0.16x SMC rows). *)

let src = Logs.Src.create "parallel.pool" ~doc:"domain pool"
module Log = (val Logs.src_log src : Logs.LOG)

(* Scheduling telemetry: how often workers pick up items, how often a
   pickup crossed deques (a steal), how often a full victim sweep found
   nothing, how long workers sit in Condition.wait, how deep the deques
   run, and how often budget leases go back to the shared counter for a
   refill. *)
let tm_drain = Telemetry.Span.probe "pool.drain"
let m_takes = Telemetry.Counter.make "pool.takes"
let m_steals = Telemetry.Counter.make "pool.steals"
let m_steal_fails = Telemetry.Counter.make "pool.steal_fails"
let m_idle_ns = Telemetry.Counter.make "pool.idle_ns"
let m_lease_refills = Telemetry.Counter.make "pool.lease_refills"
let h_deque_depth = Telemetry.Histogram.make "pool.deque_depth"

(* Cap the default well below huge machines: branch-and-prune frontiers
   rarely keep more than a handful of domains saturated, and the GC's
   minor-heap traffic grows with every extra domain. *)
let default_jobs () = Stdlib.max 1 (Stdlib.min 8 (Domain.recommended_domain_count ()))

let validate_jobs jobs =
  if jobs < 1 then invalid_arg "Parallel.Pool: jobs must be >= 1"

(* ---- Hardware domain budget ----

   [run ~jobs] never keeps more domains runnable than the machine has
   cores (or than this override says): two domains time-slicing one core
   do not add throughput, but every minor collection must interrupt and
   reschedule the descheduled one to reach its safepoint.  Logical
   workers beyond the cap run sequentially on the available domains;
   every worker still executes with its own index (PRNG streams, stats
   slots and chunk assignments are per logical worker, so results do not
   depend on the cap).  Tests and benches override the cap to force real
   concurrency on constrained machines. *)

let cap_override : int option Atomic.t = Atomic.make None

let set_domain_cap c =
  (match c with
  | Some n when n < 1 -> invalid_arg "Parallel.Pool.set_domain_cap: cap must be >= 1"
  | _ -> ());
  Atomic.set cap_override c

let domain_cap () =
  match Atomic.get cap_override with
  | Some c -> c
  | None -> Stdlib.max 1 (Domain.recommended_domain_count ())

(* ---- Fork/join ---- *)

(* [run ~jobs worker] evaluates [worker w] for w = 0..jobs-1 on
   [min jobs (domain_cap ())] domains — domain d executes logical
   workers d, d+doms, d+2*doms... in ascending order, worker 0 on the
   calling domain — and returns the results in worker order.  Every
   spawned domain is joined even when a worker raises; the first
   exception (in worker order) is re-raised after the join. *)
let run ~jobs worker =
  validate_jobs jobs;
  if jobs = 1 then [| worker 0 |]
  else begin
    let doms = Stdlib.min jobs (domain_cap ()) in
    let wrap w = try Ok (worker w) with e -> Error e in
    let run_domain d =
      let rec go acc w =
        if w >= jobs then List.rev acc else go (wrap w :: acc) (w + doms)
      in
      go [] d
    in
    let spawned =
      Array.init (doms - 1) (fun i -> Domain.spawn (fun () -> run_domain (i + 1)))
    in
    let r0 = run_domain 0 in
    let rest = Array.map Domain.join spawned in
    let results = Array.make jobs None in
    let record d rs = List.iteri (fun i r -> results.(d + (i * doms)) <- Some r) rs in
    record 0 r0;
    Array.iteri (fun i rs -> record (i + 1) rs) rest;
    Array.iter (function Some (Error e) -> raise e | _ -> ()) results;
    Array.map (function Some (Ok v) -> v | _ -> assert false) results
  end

(* ---- Work-stealing frontier ---- *)

(* One deque per logical worker, owner pops LIFO, dry workers steal the
   oldest half of a victim chosen by a seeded per-worker sweep.
   Termination and sleeping:

   - [pending] counts items that are queued or in flight; it is
     incremented {e before} an item is published and decremented only
     after [process] returns, so [pending = 0] proves there is nothing
     left anywhere and nothing in flight that could push.
   - A dry worker that found [pending > 0] registers in [idlers], reads
     the wake generation, re-scans every deque once, and only then
     waits for a generation bump.  A producer bumps the generation only
     when [idlers > 0] at push time.  The handshake cannot lose a
     wakeup: if the producer misses the idler registration, the idler's
     re-scan necessarily runs after the item was published (both sides
     cross the deque mutexes and the [idlers] atomic, which order the
     two races); if the idler's re-scan misses the item, the producer
     necessarily sees [idlers > 0] and bumps.  See DESIGN.md §15. *)
module Frontier = struct
  type 'a t = {
    mutable deques : 'a Deque.t array;  (* one per worker; set by drain *)
    mutable seeds : 'a list;  (* initial items, in take order *)
    mutable seq : bool;  (* sequential drive: see [drain] below *)
    pending : int Atomic.t;
    stop_flag : bool Atomic.t;
    idlers : int Atomic.t;
    lock : Mutex.t;  (* sleep monitor: guards [gen] *)
    wake : Condition.t;
    mutable gen : int;
  }

  (* A worker's handle on the frontier: the frontier and its own deque.
     Allocated once per worker per drain. *)
  type 'a slot = 'a t * 'a Deque.t

  let create init =
    { deques = [||]; seeds = init; seq = false;
      pending = Atomic.make (List.length init);
      stop_flag = Atomic.make false; idlers = Atomic.make 0;
      lock = Mutex.create (); wake = Condition.create (); gen = 0 }

  let wake_all t =
    Mutex.lock t.lock;
    t.gen <- t.gen + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock

  let stop t =
    Atomic.set t.stop_flag true;
    wake_all t

  let observe_depth my =
    (* guarded here rather than relying on the histogram's own check:
       [Deque.size] is evaluated eagerly as the argument, and this runs
       once per published batch *)
    if Telemetry.metrics_on () then
      Telemetry.Histogram.observe h_deque_depth (Deque.size my)

  (* Publication order matters: [pending] goes up before the item is
     visible, and comes down only after the item is fully processed
     ([finish]), so [pending = 0] can never race with a live item.  In
     sequential-drive mode ([t.seq], single-threaded by construction)
     there is nobody to publish to: no pending counter, no locks, no
     wakeups. *)
  let push (t, my) x =
    if not (Atomic.get t.stop_flag) then
      if t.seq then begin
        Deque.unsafe_push my x;
        observe_depth my
      end
      else begin
        Atomic.incr t.pending;
        Deque.push my x;
        observe_depth my;
        if Atomic.get t.idlers > 0 then wake_all t
      end

  (* Batched publish under one lock acquisition; the next item popped by
     this worker is [List.hd xs]. *)
  let push_batch (t, my) xs =
    match xs with
    | [] -> ()
    | xs ->
        if not (Atomic.get t.stop_flag) then
          if t.seq then begin
            Deque.unsafe_push_list my xs;
            observe_depth my
          end
          else begin
            ignore (Atomic.fetch_and_add t.pending (List.length xs));
            Deque.push_list my xs;
            observe_depth my;
            if Atomic.get t.idlers > 0 then wake_all t
          end

  let finish t =
    if Atomic.fetch_and_add t.pending (-1) = 1 then
      (* last outstanding item: wake sleepers so they can exit *)
      wake_all t

  (* One seeded-random cyclic sweep over the other deques; [Some] on the
     first successful steal-half.  [steal] is {!Deque.steal_half} or its
     unsafe variant in sequential-drive mode. *)
  let try_steal_gen ~steal t my w rng =
    let n = Array.length t.deques in
    if n <= 1 then None
    else begin
      let start = Random.State.int rng n in
      let rec sweep i =
        if i >= n then None
        else
          let v = (start + i) mod n in
          if v = w then sweep (i + 1)
          else
            match steal t.deques.(v) ~into:my with
            | Some _ as r -> r
            | None -> sweep (i + 1)
      in
      sweep 0
    end

  let try_steal t my w rng = try_steal_gen ~steal:Deque.steal_half t my w rng

  let take_local () = Telemetry.Counter.incr m_takes
  let take_stolen () =
    Telemetry.Counter.incr m_takes;
    Telemetry.Counter.incr m_steals

  (* Next item for worker [w]: own deque, then steal, then the eventcount
     sleep described above.  [None] = drained or stopped. *)
  let rec acquire t my w rng =
    if Atomic.get t.stop_flag then None
    else
      match Deque.pop my with
      | Some _ as r -> take_local (); r
      | None ->
          if Atomic.get t.pending = 0 then None
          else (
            match try_steal t my w rng with
            | Some _ as r -> take_stolen (); r
            | None ->
                Telemetry.Counter.incr m_steal_fails;
                if Atomic.get t.pending = 0 then None
                else begin
                  Atomic.incr t.idlers;
                  Mutex.lock t.lock;
                  let g0 = t.gen in
                  Mutex.unlock t.lock;
                  (* one more scan after registering as idle: items a
                     producer published without seeing us are guaranteed
                     visible here *)
                  let again =
                    match Deque.pop my with
                    | Some _ as r -> take_local (); r
                    | None -> (
                        match try_steal t my w rng with
                        | Some _ as r -> take_stolen (); r
                        | None -> None)
                  in
                  match again with
                  | Some _ ->
                      Atomic.decr t.idlers;
                      again
                  | None ->
                      if
                        Atomic.get t.pending > 0
                        && not (Atomic.get t.stop_flag)
                      then begin
                        let t0 =
                          if Telemetry.metrics_on () then Telemetry.now_ns ()
                          else 0
                        in
                        Mutex.lock t.lock;
                        while
                          t.gen = g0
                          && Atomic.get t.pending > 0
                          && not (Atomic.get t.stop_flag)
                        do
                          Condition.wait t.wake t.lock
                        done;
                        Mutex.unlock t.lock;
                        if t0 <> 0 then
                          Telemetry.Counter.add m_idle_ns
                            (Telemetry.now_ns () - t0)
                      end;
                      Atomic.decr t.idlers;
                      acquire t my w rng
                end)

  (* Build the per-worker deques and spread the seeds round-robin, in
     index order within each deque (so worker w starts on the
     lowest-indexed seed it owns — [Reach.Checker] relies on
     low-index-first preference for its shortest-path-first scan). *)
  let install ~jobs t =
    let deques = Array.init jobs (fun _ -> Deque.create ()) in
    t.deques <- deques;
    let seeds = t.seeds in
    t.seeds <- [];
    let buckets = Array.make jobs [] in
    List.iteri
      (fun i x -> buckets.(i mod jobs) <- x :: buckets.(i mod jobs))
      seeds;
    Array.iteri (fun w b -> Deque.push_list deques.(w) (List.rev b)) buckets;
    deques

  (* Drain the frontier with [jobs] workers.  [process w slot item] may
     [push]/[push_batch] follow-up items through its slot and may [stop]
     the whole frontier (first conclusive result wins).  Exceptions
     cancel the frontier, and the first one is re-raised after all
     domains joined. *)
  let drain ~jobs t process =
    validate_jobs jobs;
    let tok = Telemetry.Span.enter tm_drain in
    Fun.protect
      ~finally:(fun () -> Telemetry.Span.exit tm_drain tok)
      (fun () ->
        let deques = install ~jobs t in
        let doms = Stdlib.min jobs (domain_cap ()) in
        t.seq <- doms = 1;
        if doms = 1 then
          (* Sequential drive: one effective domain means [run] would
             execute the logical workers back to back on the calling
             domain anyway, with every push/pop paying mutexes and
             pending-counter RMWs that coordinate with nobody.  This loop
             is that same schedule — worker 0 drains its own deque LIFO,
             then steals the remaining seeds worker by worker — minus all
             synchronization, so [jobs > 1] on one core costs the same as
             [jobs = 1].  Item-granular cancellation is preserved (the
             stop flag is checked before every item), and so is worker
             identity (the callback still sees the logical [w] that owns
             the deque).  A failed steal sweep here means global
             emptiness, i.e. normal termination — not contention — so it
             does not count toward [pool.steal_fails]. *)
          for w = 0 to jobs - 1 do
            let my = deques.(w) in
            let slot = (t, my) in
            let rng = Random.State.make [| 0x5ca1ab1e; w |] in
            let rec loop () =
              if not (Atomic.get t.stop_flag) then begin
                let item =
                  match Deque.unsafe_pop my with
                  | Some _ as r -> take_local (); r
                  | None -> (
                      match
                        try_steal_gen ~steal:Deque.unsafe_steal_half t my w rng
                      with
                      | Some _ as r -> take_stolen (); r
                      | None -> None)
                in
                match item with
                | None -> ()
                | Some item ->
                    (match process w slot item with
                    | () -> ()
                    | exception e ->
                        stop t;
                        raise e);
                    loop ()
              end
            in
            loop ()
          done
        else
          ignore
            (run ~jobs (fun w ->
                 let my = deques.(w) in
                 let slot = (t, my) in
                 let rng = Random.State.make [| 0x5ca1ab1e; w |] in
                 let rec loop () =
                   match acquire t my w rng with
                   | None -> ()
                   | Some item ->
                       (match process w slot item with
                       | () -> finish t
                       | exception e ->
                           finish t;
                           stop t;
                           raise e);
                       loop ()
                 in
                 loop ())))
end

(* ---- Budget leases ---- *)

(* The search budget (max boxes) used to be one atomic counter hit once
   per box by every worker — a guaranteed cache-line ping-pong.  A lease
   moves the contention boundary: each worker claims [chunk] units at a
   time from the shared counter and then spends them with plain local
   mutations; unspent units go back at drain so the consumed total stays
   exact.  The budget remains a hard global cap (a claim never exceeds
   [total]); the only slack is that exhaustion can be detected up to
   [jobs * chunk] units early when workers hold unspent leases —
   irrelevant in practice because budgets are orders of magnitude larger
   than the lease chunk, and tests only fix behaviour when the budget is
   not exhausted. *)
module Lease = struct
  type t = { total : int; chunk : int; taken : int Atomic.t }
  type local = { shared : t; mutable remaining : int }

  let default_chunk = 64

  let create ?(chunk = default_chunk) ~total () =
    if chunk < 1 then invalid_arg "Parallel.Pool.Lease.create: chunk must be >= 1";
    { total; chunk; taken = Atomic.make 0 }

  let local t = { shared = t; remaining = 0 }

  let refill l =
    let t = l.shared in
    let old = Atomic.fetch_and_add t.taken t.chunk in
    let granted = Stdlib.max 0 (Stdlib.min t.chunk (t.total - old)) in
    if granted < t.chunk then
      (* return the part of the claim that overshot the budget *)
      ignore (Atomic.fetch_and_add t.taken (granted - t.chunk));
    Telemetry.Counter.incr m_lease_refills;
    l.remaining <- granted;
    granted > 0

  let spend l =
    if l.remaining > 0 then begin
      l.remaining <- l.remaining - 1;
      true
    end
    else if refill l then begin
      l.remaining <- l.remaining - 1;
      true
    end
    else false

  let return_unspent l =
    if l.remaining > 0 then begin
      ignore (Atomic.fetch_and_add l.shared.taken (-l.remaining));
      l.remaining <- 0
    end

  let consumed t = Stdlib.min t.total (Atomic.get t.taken)
end

(* ---- Static chunked index ranges ---- *)

(* The [w]-th of [jobs] contiguous chunks of [0, n): deterministic
   assignment, so per-worker PRNG streams reproduce run to run. *)
let chunk ~jobs ~n w =
  let lo = w * n / jobs and hi = (w + 1) * n / jobs in
  (lo, hi)

(* [parallel_for_chunks ~jobs n f] calls [f w lo hi] per worker with its
   contiguous slice [lo, hi) of [0, n) and returns per-worker results in
   worker order.  With [jobs = 1] it degenerates to [f 0 0 n] inline. *)
let parallel_for_chunks ~jobs n f =
  validate_jobs jobs;
  let jobs = Stdlib.max 1 (Stdlib.min jobs (Stdlib.max 1 n)) in
  run ~jobs (fun w ->
      let lo, hi = chunk ~jobs ~n w in
      f w lo hi)
