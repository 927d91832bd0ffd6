(** Domain-safe exact-replay caches for interval computations.

    Two analyses redo work they have already done: a bounded-reachability
    path scan flows the same mode segments again for every candidate path
    that shares them ([Reach.Checker]'s ["reach-seg"] store), and a
    calibration sweep classifies again the parameter boxes a coarser
    paving already visited ([Synth.Biopsy]'s ["biopsy"] store).  Both
    values are deterministic functions of their key, so a hit on a
    [Box.equal] box returns exactly what recomputation would.

    A cache is a set of {e groups}, one per fully-qualified query key
    built by the caller (system digest, flow fingerprint, horizon, …);
    each group holds recently inserted [(box, value)] entries.  The group
    key must name everything besides the box that decides the value.

    Storage is sharded by group with one [Mutex] per shard, so worker
    domains of [lib/parallel] frontiers can share a cache without a
    global lock.  Capacity is bounded per group (FIFO eviction) and per
    shard (bounded group count).

    Escape hatch: [BIOMC_NO_CACHE=1] (any value {!Telemetry.env_switch}
    accepts) disables every cache — every lookup misses, every insert is
    dropped — reproducing the uncached code paths exactly.
    {!set_enabled} overrides the environment (CLI [--no-cache],
    benchmarks, tests). *)

val enabled : unit -> bool
val set_enabled : bool -> unit
val clear_enabled_override : unit -> unit

(** {1 Stats}

    The backing store for every statistic below is the process-wide
    telemetry metrics registry ([Telemetry.Counter], one counter per
    ["cache.<name>.<field>"], created always-on so counting does not
    depend on telemetry being enabled).  The entry points here are thin
    views over those counters; [biomc --metrics] reports the same
    numbers from the registry directly. *)

type stats = { hits : int; misses : int; insertions : int; evictions : int }

val zero_stats : stats

val sub_stats : stats -> stats -> stats
(** Pointwise difference — for per-query deltas around a run. *)

val global_stats : unit -> stats
(** Totals over every cache in the process. *)

val named_stats : unit -> (string * stats) list
(** Per cache-name totals, sorted by name (caches created with the same
    name share one counter set). *)

val summary : unit -> string
(** One-line global summary (switch, hits, misses) for CLI output. *)

(** {1 Caches} *)

type 'v t

val create :
  ?shards:int -> ?group_capacity:int -> ?max_groups_per_shard:int -> string -> 'v t
(** [create name] makes a cache whose stats are aggregated under [name].
    [group_capacity] bounds the entries retained per group (newest kept);
    [max_groups_per_shard] bounds distinct groups per shard (oldest
    evicted). *)

val find : 'v t -> group:string -> Interval.Box.t -> 'v option
(** The value stored for a [Box.equal] box in [group]; always [None]
    when the caches are disabled. *)

val add : 'v t -> group:string -> Interval.Box.t -> 'v -> unit
(** Insert (replacing an existing entry with an equal box).  No-op when
    the caches are disabled. *)

val length : 'v t -> int
(** Total entries currently cached (diagnostic). *)

val clear : unit -> unit
(** Invalidate every entry of every cache in the process (an epoch bump:
    stale groups are discarded lazily).  Stats are not reset. *)
