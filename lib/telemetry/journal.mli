(** Provenance journal: a structured event log of the branch-and-prune
    search DAG.

    Where [Telemetry] answers "where did the time go" with aggregate
    counters and Chrome spans, the journal answers "why is this verdict
    true": every box entered, every split (with the variable and the
    branching heuristic that chose it), every pruning (tagged with the
    contractor that refuted the box), every ODE tube and every reach
    path/segment step is one line-delimited JSON record.  [biomc explain] reloads a journal, reconstructs the search
    forest and emits a verdict-provenance report, a DOT export and a
    soundness audit; the differential tests check the reconstructed
    leaf partition against the solver's own paving, fingerprint for
    fingerprint.

    Discipline is the same as [Telemetry]: everything is off by default
    and every emitter checks one [Atomic] flag first, so a disabled
    site costs a load and a branch and verdicts are bit-identical with
    journaling on or off (the journal observes the search, it never
    steers it).  [BIOMC_JOURNAL=1] records into a bounded in-memory
    sink; [BIOMC_JOURNAL=<path>] streams to a file;
    [BIOMC_NO_JOURNAL=1] force-disables and outranks both.

    Multicore: each domain buffers its own records ([Domain.DLS]) and
    stamps every record with a domain index and a per-domain sequence
    number.  Chunks from different domains may interleave in the sink;
    {!of_string} re-sorts by (domain, sequence), so reconstruction is a
    deterministic function of what each domain recorded, independent of
    flush interleaving.  Read a journal only once the queries writing
    it have returned (same quiescence contract as the trace ring
    buffers). *)

(** {1 Switches and sinks} *)

type sink =
  | Off
  | Memory  (** bounded in-process buffer, read back with {!contents} *)
  | To_file of string  (** append NDJSON to the file, created lazily *)

val on : unit -> bool
(** One atomic load: is any sink active?  Hot loops capture this once
    per query — flipping the switch mid-query is not supported. *)

val sink : unit -> sink
(** The {!set_sink} override if any, else the environment default
    ([Off] under [BIOMC_NO_JOURNAL=1]; [Memory] under [BIOMC_JOURNAL=1]
    or any other value {!Telemetry.env_switch} reads as on; [Off] under
    [BIOMC_JOURNAL] set to [0], [false], [no], [off] or empty, in any
    case, blanks trimmed; [To_file p] under any other [BIOMC_JOURNAL=p];
    [Off] when unset). *)

val set_sink : sink -> unit
(** Process-wide programmatic override (CLI [--journal], tests,
    benches).  Flushes and closes the previous sink first. *)

val clear_sink_override : unit -> unit
(** Drop the {!set_sink} override and re-read the environment. *)

val flush : unit -> unit
(** Flush every domain's buffered records into the sink.  Call between
    queries, not while workers are emitting. *)

val close : unit -> unit
(** {!flush}, then close the file channel if the sink is a file. *)

val contents : unit -> string
(** Flush, then return the memory sink's NDJSON (chunks in flush order;
    records carry their own (domain, sequence) stamps).  [""] for other
    sinks. *)

val dropped : unit -> int
(** Records dropped because the memory sink hit its byte cap (the cap
    keeps [BIOMC_JOURNAL=1 dune runtest] bounded; dropped tails fail
    the audit loudly rather than silently truncating a file). *)

val reset : unit -> unit
(** Drop buffered and sunk records and restart the id counters
    (tests). *)

(** {1 Emitters}

    Every emitter is a no-op unless {!on}.  Box bounds are passed
    pre-rendered as [(var, lo, hi)] arrays so this library does not
    depend on [Interval]; endpoints are serialized as ["%h"] hex-float
    strings for exact round-trips. *)

type bounds = (string * float * float) array

val fresh_id : unit -> int
(** Allocate a process-unique box/node id (call only when {!on}). *)

val begin_run :
  kind:string -> flags:(string * string) list -> unit -> int
(** Open a run (one [decide]/[pave]/[reach]/[synth] query): emits the
    run header with the flag snapshot the audit checks prune reasons
    against, makes it the current run for subsequent events, and
    returns its id.  Runs nest (a synth run flows tubes); {!end_run}
    restores the enclosing run. *)

val end_run : ?truncated:bool -> verdict:string -> int -> unit

val in_run : unit -> bool
(** A run is currently open.  Layer-level emitters ([tube], [seg]) that
    can also fire outside any query (a bare simulation) gate on this so
    a journal never contains records with no run header to hang off. *)

val root : id:int -> ?label:string -> bounds -> unit
(** A search root: the query box of a decide/pave (one per DNF branch
    when a decide races its branches), a reach path's search box, a
    synth parameter box. *)

val enter : id:int -> depth:int -> unit

val split :
  id:int ->
  heur:string ->
  left:int ->
  right:int ->
  left_bounds:bounds ->
  right_bounds:bounds ->
  unit
(** The split variable is derived from the child bounds and recorded;
    the box actually split (the contracted parent) is their join, so
    the audit can check both the partition and containment in the
    entered box. *)

val prune : id:int -> reason:string -> ?group:string -> unit -> unit
val leaf : id:int -> cls:string -> ?reason:string -> unit -> unit

val sat :
  id:int ->
  ?point:(string * float) list ->
  certified:bool ->
  bounds ->
  unit

val tube :
  sys:string ->
  t0:float ->
  t1:float ->
  steps:int ->
  complete:bool ->
  unit

val path_event : index:int -> info:string -> unit
val seg : path:int -> index:int -> mode:string -> cached:bool -> unit

(** {2 Prune-reason attribution}

    The layer that actually refutes a box (HC4 tape, interval Newton,
    mean-value form, TM pass, a verdict-store replay) is several calls
    below the loop that emits the prune record, so attribution flows
    through a per-domain cell: the refuting site calls {!set_reason},
    the search driver ([Icp.Search.run], which writes every search
    record) clears the cell as it enters each box and {!take_reason}s
    it when the outcome is a prune.  An unset cell reads as ["hc4-empty"]
    (the base contractor refutes without announcing itself). *)

val set_reason : ?group:string -> string -> unit
val clear_reason : unit -> unit
val take_reason : unit -> string * string option

(** {1 Reading a journal} *)

type ev =
  | Run of { id : int; kind : string; flags : (string * string) list }
  | End_run of { id : int; verdict : string; truncated : bool }
  | Root of { run : int; id : int; label : string option; bounds : bounds }
  | Enter of { run : int; id : int; depth : int }
  | Split of {
      run : int;
      id : int;
      var : string;
      heur : string;
      left : int;
      right : int;
      lb : bounds;
      rb : bounds;
    }
  | Prune of { run : int; id : int; reason : string; group : string option }
  | Leaf of { run : int; id : int; cls : string; reason : string option }
  | Sat of {
      run : int;
      id : int;
      point : (string * float) list;
      certified : bool;
      bounds : bounds;
    }
  | Tube of {
      run : int;
      sys : string;
      t0 : float;
      t1 : float;
      steps : int;
      complete : bool;
    }
  | Path of { run : int; index : int; info : string }
  | Seg of { run : int; path : int; index : int; mode : string; cached : bool }

type record = { dom : int; seq : int; ev : ev }

val parse_line : string -> (record, string) result
val of_string : string -> (record list, string) result
(** Parse an NDJSON document and sort by (domain, sequence).  The first
    malformed line is the error. *)

val load : string -> (record list, string) result

(** {1 Reconstruction, audit, explain} *)

type outcome =
  | O_split
  | O_prune of string * string option  (** reason, cache group *)
  | O_leaf of string * string option  (** class, reason *)
  | O_sat of bool  (** certified *)

type node = {
  nid : int;
  nrun : int;
  mutable bounds : bounds option;
      (** from its root record or its parent's split record *)
  mutable depth : int;
  mutable entered : bool;
  mutable heur : string option;
  mutable var : string option;
  mutable kids : (int * int) option;
  mutable outcome : outcome option;
  mutable is_root : bool;
  mutable label : string option;
}

type run_info = {
  rid : int;
  kind : string;
  flags : (string * string) list;
  mutable verdict : string option;
  mutable truncated : bool;
  mutable roots : int list;  (** in record order *)
}

type forest

val reconstruct : record list -> forest
val runs : forest -> run_info list
val node : forest -> int -> node option
val nodes : forest -> node list
val records : forest -> record list

val leaves : forest -> run:int -> node list
(** Terminal nodes (nodes with a non-split outcome) of a run, in id
    order. *)

val leaf_bounds_fingerprint : bounds list -> string
(** Canonical digest of a leaf set: each bounds rendered with sorted
    variables and ["%h"] endpoints, the renderings sorted, the whole
    digested.  The solver-side tests compute the same fingerprint from
    the paving's boxes; equality means the journal reconstructed the
    exact leaf partition. *)

val audit : forest -> string list
(** Soundness audit; [[]] means clean.  Checks, per run: every record
    references a known run; the run has an end record; split children
    exist, are distinct and partition the split box (adjacent on the
    split variable, identical elsewhere), which is itself contained in
    the parent's entered bounds; every node has at most one outcome; in
    every un-truncated pave or synth run, and every un-truncated decide
    run whose verdict is unsat, every reachable node is accounted for
    (split or terminal); prune reasons are consistent with the run
    header's flag snapshot (["newton"]/["mean-value"] need the newton
    flag, ["tm-refute"] the tm flag, ["cache-replay"] the cache flag,
    and ["affine-refute"] — found in journals written while the affine
    layer existed — the affine flag); a recorded ["tm_budget"] flag, or
    an older journal's ["affine_budget"], parses as a positive
    integer. *)

val provenance_json : forest -> string
(** The explain payload: per-run verdict, prune-reason breakdown per
    depth, the witness chain (root-to-sat splits) for delta-sat, the
    refutation cover for unsat, tube and path summaries. *)

val report : forest -> string
(** Human-readable rendering of {!provenance_json}'s content. *)

val to_dot : ?max_nodes:int -> forest -> string
(** Truncated DOT export of the search forest (breadth-first from the
    roots, [max_nodes] cap, default 400). *)

(** {1 Live progress} *)

module Progress : sig
  type t

  val start : ?interval:float -> ?budget:int -> unit -> t
  (** Spawn the heartbeat domain: every [interval] seconds (default
      0.5) it reads the always-on telemetry registry and, when the
      numbers moved, writes one line to stderr — boxes/sec, total
      boxes, prunings, cache hit rate, budget remaining (against
      [budget] total when given).  Purely observational. *)

  val stop : t -> unit
  (** Stop and join the heartbeat; prints a final line. *)
end
