(** Domain-safe tracing and metrics for the δ-decision stack.

    Every analysis layer (ICP search, HC4 contraction, validated
    integration, reachability unrolling, BioPSy paving, SMC sampling,
    the domain pool, the exact-replay caches) reports through this
    module, so one registry answers "where did the time, boxes and
    Picard iterations go".  Three kinds of instruments:

    - {e counters} — named [Atomic] integers, shared by all domains;
    - {e histograms} — log-bucketed value distributions with one
      plain-int cell array per domain ([Domain.DLS]), merged at
      snapshot time, so the hot path never contends;
    - {e spans} — timed begin/end pairs.  A span exit feeds the probe's
      histogram and, when tracing, appends begin/end events to the
      recording domain's ring buffer for the Chrome [trace_event]
      exporter (load the file in Perfetto or chrome://tracing).

    Cost model: everything is off by default and every instrument
    checks one [Atomic] flag first, so a disabled probe costs a load
    and a branch — verdicts, pavings and estimates are bit-identical
    with telemetry on or off because instrumentation only observes
    (clocks and counts), never steers.  [BIOMC_TELEMETRY=1] enables
    metrics from the environment; {!set_metrics}/{!set_trace} override
    programmatically (CLI flags, benches, tests).

    Counters created with [~always:true] bypass the flag: they are the
    registry's backing store for statistics that must always count
    (cache hits, per-query solver totals). *)

(** {1 Switches} *)

val metrics_on : unit -> bool
(** Counters and histograms record. *)

val trace_on : unit -> bool
(** Span events are appended to the per-domain ring buffers. *)

val enabled : unit -> bool
(** [metrics_on () || trace_on ()]. *)

val env_switch : string -> bool
(** [env_switch name]: the environment sets [name] to [1], [true],
    [yes] or [on], surrounding blanks and case ignored.  The one value
    rule of every [BIOMC_NO_*] kill-switch (tape, Newton, TM, cache,
    work stealing, journal), read here so the layers cannot drift apart;
    [BIOMC_JOURNAL] reads its memory-sink value through it too. *)

val set_metrics : bool -> unit
(** Process-wide (all domains) metric recording override. *)

val set_trace : bool -> unit
(** Process-wide trace recording override. *)

val disable : unit -> unit
(** Turn both off (tests, benches). *)

val now_ns : unit -> int
(** Nanoseconds since process start (wall clock; for idle-time style
    accounting at instrumentation sites that cannot use a span). *)

val reset : unit -> unit
(** Zero every counter and histogram and drop all recorded trace
    events.  Counters created [~always:true] are reset too (the cache
    statistics among them). *)

(** {1 Counters} *)

module Counter : sig
  type t

  val make : ?always:bool -> string -> t
  (** [make name] registers (or retrieves — names are deduplicated
      process-wide) the counter called [name].  With [~always:true]
      the counter records regardless of {!metrics_on}. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val set : t -> int -> unit
end

(** {1 Log-bucketed histograms} *)

module Histogram : sig
  type t

  val make : string -> t
  (** Registered and deduplicated by name, like counters. *)

  val observe : t -> int -> unit
  (** Record one non-negative sample (nanoseconds for span timings;
      any magnitude for generic distributions such as queue depths).
      No-op unless {!metrics_on}. *)

  val bucket_index : int -> int
  (** Bucket 0 holds values [<= 0]; bucket [i >= 1] holds
      [2^(i-1) <= v < 2^i]. *)

  val bucket_lo : int -> int
  (** Inclusive lower edge of a bucket. *)

  val bucket_hi : int -> int
  (** Exclusive upper edge of a bucket. *)

  type snapshot = {
    count : int;
    total : int;  (** sum of all observed values *)
    buckets : (int * int * int) list;
        (** non-empty buckets as [(lo, hi_exclusive, count)] *)
  }

  val snapshot : t -> snapshot
  (** Merge the per-domain cells.  Cheap and safe to call while other
      domains observe; in-flight samples may be missed (advisory
      reads), which is fine for telemetry. *)

  val mean : snapshot -> float
  val quantile : float -> snapshot -> int
  (** Upper edge of the bucket containing the [q]-quantile (so an
      over-approximation within one power of two); 0 on empty. *)
end

(** {1 Spans} *)

module Span : sig
  type probe
  (** A named span site with an attached timing histogram.  Create
      probes once at module initialization. *)

  val probe : string -> probe

  type token
  (** Unboxed start timestamp (or a disabled sentinel). *)

  val enter : ?arg:float -> probe -> token
  (** Start a span.  When disabled this is one flag load.  [arg] is an
      optional numeric payload written to the trace begin event (box
      widths, depths, batch sizes); compute it only when {!trace_on}
      to keep the metrics-only path cheap. *)

  val exit : probe -> token -> unit
  (** Finish the span: feeds the probe's histogram with the elapsed
      nanoseconds and, when tracing, records the end event. *)

  val with_ : ?arg:float -> probe -> (unit -> 'a) -> 'a
  (** [enter]/[exit] around a thunk, exception-safe. *)

  val instant : ?arg:float -> probe -> unit
  (** A zero-duration trace event (decision points). *)
end

(** {1 Trace recording and the Chrome trace_event exporter} *)

module Trace : sig
  val events_recorded : unit -> int
  (** Events currently held in the ring buffers (post-overwrite). *)

  val events_dropped : unit -> int
  (** Events overwritten by ring wrap-around. *)

  val set_capacity : int -> unit
  (** Per-domain ring capacity for buffers created afterwards
      (default 65536). *)

  val to_json : unit -> string
  (** The recorded events as a Chrome [trace_event] JSON document:
      one pid (the process), one tid per domain, [ph] B/E/i events
      with microsecond timestamps.  Begin/end balance is enforced at
      export: an end whose begin was overwritten is skipped, a begin
      whose end was overwritten is closed at the last timestamp. *)

  val write_file : string -> unit

  type check = {
    events : int;  (** non-metadata events *)
    begins : int;
    ends : int;
    instants : int;
    tids : int list;  (** distinct tids, sorted *)
    max_depth : int;  (** deepest begin/end nesting over all tids *)
  }

  val validate : string -> (check, string) result
  (** Round-trip check of a trace document: parse the JSON back,
      require the [traceEvents] structure, per-tid stack discipline
      (every E matches the innermost open B of the same name, nothing
      left open), and pid/tid/ts fields on every event. *)

  val validate_file : string -> (check, string) result
end

(** {1 Minimal JSON}

    The writer/parser used by the trace validator and the provenance
    journal (no external JSON dependency).  Exposed so sibling
    observability code ([Journal], [biomc check-artifacts]) shares one
    implementation. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val escape : Buffer.t -> string -> unit
  (** Append [s] as a quoted, escaped JSON string. *)

  val parse : string -> (t, string) result
end

(** {1 Metrics snapshot} *)

module Metrics : sig
  val counters : unit -> (string * int) list
  (** Every registered counter with its value, sorted by name. *)

  val histograms : unit -> (string * Histogram.snapshot) list
  (** Every non-empty registered histogram's merged snapshot, sorted by
      name. *)

  val kvs : unit -> (string * string) list
  (** Non-zero counters as key/value lines, ready for
      [Core.Report.kv]. *)

  val to_json : unit -> string
  (** Counters and histograms as one JSON object (the [--metrics-json]
      payload and the bench breakdown section). *)

  val to_prometheus : unit -> string
  (** Counters and histograms in the Prometheus text exposition format
      (the [--metrics-prom] payload, and what a future [biomc serve]
      scrape endpoint would return).  Counter names are sanitized to
      [biomc_<name>] with non-alphanumerics mapped to underscores;
      histograms are exported as summaries whose quantile values are
      upper log-bucket edges (over-approximations within a power of
      two, same contract as {!Histogram.quantile}). *)
end
