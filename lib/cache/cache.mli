(** Domain-safe subsumption caches for interval computations.

    Branch-and-prune workloads re-derive the same facts over and over:
    sibling candidate paths replay identical mode flows, progressive
    refinements revisit every ancestor box, and HC4 fixpoints are
    recomputed for boxes already refuted by a containing hull.  Interval
    monotonicity makes all of this memoizable: a result computed for a
    box is exact for the identical box, and (for refutations and
    enclosures) remains *sound* for every sub-box.

    A cache is a set of {e groups}, one per fully-qualified query key
    (system digest, configuration fingerprint, horizon, …); each group
    holds recently inserted [(box, value)] entries.  Lookup first tries
    an exact [Box.equal] hit — identity-preserving, since every cached
    computation is deterministic — and then, under the [Warm] policy
    only, a subsumption hit: the tightest cached entry whose box contains
    the query.  Callers decide what a subsumption hit soundly licenses
    (reusing a refutation, warm-starting a Picard iteration, …).

    Storage is sharded by group with one [Mutex] per shard, so worker
    domains of [lib/parallel] frontiers can share a cache without a
    global lock.  Capacity is bounded per group (FIFO eviction) and per
    shard (bounded group count).

    Escape hatch: [BIOMC_NO_CACHE=1] disables all caches (every lookup
    misses, every insert is dropped), reproducing the uncached code
    paths exactly; [BIOMC_CACHE=warm] opts into subsumption reuse.
    {!set_policy} overrides the environment (benchmarks, tests). *)

type policy =
  | Off  (** no lookups, no inserts: the uncached code path *)
  | Exact
      (** exact [Box.equal] hits only — byte-identical results, the
          default *)
  | Warm
      (** exact hits plus subsumption hits: sound but not always
          byte-identical (warm-started enclosures are wider, contraction
          seeds differ); opt-in *)

val policy : unit -> policy
(** Current policy: the {!set_policy} override if any, else the
    environment default ([Off] under [BIOMC_NO_CACHE=1]; [Warm] under
    [BIOMC_CACHE=warm]; [Exact] otherwise). *)

val enabled : unit -> bool
(** [policy () <> Off]. *)

val set_policy : policy -> unit
(** Override {!policy} for the whole process (all domains). *)

val clear_policy_override : unit -> unit
(** Return {!policy} to the environment-variable default. *)

val pp_policy : policy Fmt.t

(** {1 Stats}

    The backing store for every statistic below is the process-wide
    telemetry metrics registry ([Telemetry.Counter], one counter per
    ["cache.<name>.<field>"], created always-on so counting does not
    depend on telemetry being enabled).  The entry points here are thin
    views over those counters, kept for callers and tests; [biomc
    --metrics] reports the same numbers from the registry directly. *)

type stats = {
  hits : int;  (** exact hits *)
  subsumption_hits : int;  (** containment hits (Warm policy only) *)
  misses : int;
  insertions : int;
  evictions : int;
  warm_starts : int;  (** computations seeded from a subsumption hit *)
  warm_saved_iterations : int;
      (** estimated net fixpoint/Picard iterations avoided by warm starts
          (signed: a warm run costlier than its parent subtracts) *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats
val sub_stats : stats -> stats -> stats
(** Pointwise difference — for per-query deltas around a run. *)

val global_stats : unit -> stats
(** Totals over every cache in the process. *)

val named_stats : unit -> (string * stats) list
(** Per cache-name totals, sorted by name (caches created with the same
    name share one counter set). *)

val reset_stats : unit -> unit
val pp_stats : stats Fmt.t

val summary : unit -> string
(** One-line global summary (hits/misses/warm-starts) for CLI output. *)

val report_kvs : unit -> (string * string) list
(** Per-cache stat lines as key/value pairs, ready for
    [Core.Report.kv]. *)

(** {1 Caches} *)

type 'v t

val create :
  ?shards:int ->
  ?group_capacity:int ->
  ?max_groups_per_shard:int ->
  ?demote_after:int ->
  string ->
  'v t
(** [create name] makes a cache whose stats are aggregated under [name].
    [group_capacity] bounds the entries retained per group (newest kept);
    [max_groups_per_shard] bounds distinct groups per shard (oldest
    evicted).

    [demote_after] (default: [group_capacity]) is the hit-rate guard: a
    group that accumulates this many {e consecutive} misses without a
    single lifetime hit demotes itself to Off — its entries are dropped
    (counted as evictions plus one [cache.<name>.demotions]) and further
    finds and adds in the group become near-free no-ops.  This caps the
    overhead of workloads that never revisit a box (each pave query is
    one such group).  The default threshold is safe by construction: a
    group that missed [group_capacity] consecutive times has FIFO-evicted
    everything an exact replay could still hit.  Any hit or subsumption
    hit grants the group permanent immunity; {!clear} re-arms demoted
    groups. *)

val demotions : 'v t -> int
(** Number of group demotions recorded under this cache's name
    (diagnostic; also exported as the [cache.<name>.demotions]
    telemetry counter). *)

type 'v outcome =
  | Hit of 'v  (** exact [Box.equal] match *)
  | Subsumed of Interval.Box.t * 'v
      (** the tightest cached (box, value) with query ⊆ box; only under
          [Warm] *)
  | Miss

val find : 'v t -> group:string -> Interval.Box.t -> 'v outcome
(** Look [box] up in [group] under the current {!policy}; always
    [Miss] when the policy is [Off]. *)

val add : 'v t -> group:string -> Interval.Box.t -> 'v -> unit
(** Insert (replacing an existing entry with an equal box).  No-op when
    the policy is [Off]. *)

val note_warm_start : 'v t -> saved_iterations:int -> unit
(** Record that a computation was warm-started off a subsumption hit,
    with a signed estimate of the iterations it avoided (negative when
    the warm run cost more than its parent; the aggregate statistic is
    the net savings). *)

val length : 'v t -> int
(** Total entries currently cached (diagnostic). *)

val clear : unit -> unit
(** Invalidate every entry of every cache in the process (an epoch bump:
    stale groups are discarded lazily).  Stats are not reset. *)
