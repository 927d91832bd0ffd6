(** Fixed-size domain pool with a work-stealing frontier.

    Stdlib-only parallel building blocks for the branch-and-prune
    analyses: fork/join over logical workers ({!run}), a cancellable
    work-stealing frontier ({!Frontier}), per-worker budget leases
    ({!Lease}) and static chunked fan-out ({!parallel_for_chunks}).

    {2 Determinism contracts}

    - [jobs = 1] runs entirely on the calling domain and is
      bit-identical to the sequential code path.
    - Logical worker indices, not domains, carry identity: PRNG streams,
      stats slots and chunk assignments are per worker [w], so results
      at fixed [(seed, jobs)] do not depend on {!domain_cap} or on how
      workers were multiplexed onto domains.
    - The frontier schedule is nondeterministic at [jobs > 1]; callers
      that promise deterministic output (Reach's path-order merge,
      pave's leaf sets, SMC's weave) merge per-worker results by worker
      index, which this module returns in order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1, 8]. *)

val domain_cap : unit -> int
(** Hardware domain budget: how many domains {!run} keeps runnable at
    once.  Defaults to [Domain.recommended_domain_count ()]. *)

val set_domain_cap : int option -> unit
(** Override the cap ([None] restores the default).  Tests use this to
    force real concurrency on 1-core machines; 1-core machines benefit
    from the default, because multiplexing logical workers sequentially
    avoids cross-domain minor-GC rendezvous.  Results never depend on
    the cap (see the determinism contracts above) — only scheduling
    does.
    @raise Invalid_argument when [Some n] with [n < 1]. *)

val run : jobs:int -> (int -> 'a) -> 'a array
(** [run ~jobs worker] evaluates [worker w] for [w = 0 .. jobs-1] on
    [min jobs (domain_cap ())] domains and returns the results in worker
    order.  Worker 0 runs on the calling domain; [jobs = 1] spawns
    nothing.  When [jobs] exceeds the cap, domain [d] runs workers
    [d, d+doms, d+2*doms, ...] sequentially in ascending order.  All
    spawned domains are joined even on exceptions; the first worker
    exception (in worker order) is re-raised afterwards.
    @raise Invalid_argument when [jobs < 1]. *)

(** A shared pool of independent work items, drained concurrently.

    Each worker owns a {!Deque}, pushes follow-up items locally (LIFO,
    so the search stays depth-first-ish), and steals the oldest half of
    a seeded-randomly chosen victim when dry.  On one effective domain
    ([min jobs (domain_cap ()) = 1]) {!drain} runs the same schedule as
    a plain loop on the calling domain, without synchronization. *)
module Frontier : sig
  type 'a t

  type 'a slot
  (** A worker's handle on the frontier, passed to the {!drain}
      callback; pushes through a slot land in that worker's own deque. *)

  val create : 'a list -> 'a t
  (** Frontier seeded with the given items.  Seeds are distributed
      round-robin across workers at {!drain} time, lowest index first
      within each worker (worker [w] starts on seed [w]). *)

  val push : 'a slot -> 'a -> unit
  (** Add one item.  No-op after {!stop}. *)

  val push_batch : 'a slot -> 'a list -> unit
  (** Add a batch under one lock acquisition; the pushing worker pops
      [List.hd] of the batch first.  No-op after {!stop} and on [[]]. *)

  val stop : 'a t -> unit
  (** Cancel: discard queued items and wake all workers.  Items already
      being processed run to completion (cancellation is
      item-granular). *)

  val drain : jobs:int -> 'a t -> (int -> 'a slot -> 'a -> unit) -> unit
  (** [drain ~jobs t process] runs [jobs] workers until the frontier is
      empty (no queued items, none in flight) or stopped.  [process w
      slot item] may {!push}/{!push_batch} follow-ups through [slot] and
      may {!stop} the frontier (first conclusive result wins).  An
      exception in [process] stops the frontier and is re-raised after
      all workers joined.
      @raise Invalid_argument when [jobs < 1]. *)
end

(** Per-worker leases over a shared integer budget.

    The box budget used to cost one contended atomic per box; a lease
    claims {!Lease.default_chunk} units at a time and spends them with
    local mutations.  The budget stays a hard cap — a claim never
    exceeds [total], and unspent units are returned by
    {!Lease.return_unspent} — the only slack being that exhaustion can
    be declared up to [jobs * chunk] units early while other workers
    hold unspent leases. *)
module Lease : sig
  type t
  (** The shared budget. *)

  type local
  (** One worker's lease.  Not thread-safe: each worker creates its own
      with {!local}. *)

  val default_chunk : int
  (** 64. *)

  val create : ?chunk:int -> total:int -> unit -> t
  (** @raise Invalid_argument when [chunk < 1]. *)

  val local : t -> local

  val spend : local -> bool
  (** Consume one unit, refilling the lease from the shared budget when
      empty; [false] means the budget is exhausted. *)

  val return_unspent : local -> unit
  (** Give unspent claimed units back to the shared budget (call at
      drain, so {!consumed} is exact). *)

  val consumed : t -> int
  (** Units actually spent, exact once every worker has returned its
      lease; equals the number of successful {!spend}s and never exceeds
      [total]. *)
end

val chunk : jobs:int -> n:int -> int -> (int * int)
(** [chunk ~jobs ~n w] is the [w]-th contiguous slice [lo, hi) of
    [0, n); slices partition the range deterministically. *)

val parallel_for_chunks : jobs:int -> int -> (int -> int -> int -> 'a) -> 'a array
(** [parallel_for_chunks ~jobs n f] runs [f w lo hi] per worker on its
    {!chunk}; [jobs] is clamped to [n] so no worker gets an empty slice
    unless [n = 0].
    @raise Invalid_argument when [jobs < 1]. *)
