(** The branch-and-prune driver behind every box search: [decide] (each
    conjunction, and each DNF branch of its race), [pave], a reach
    path's search, reach parameter synthesis and BioPSy synthesis.

    The driver owns the root and the frontier ({!Parallel.Pool.Frontier}),
    the box budget (one {!Parallel.Pool.Lease.local} per worker over the
    {!budget} it is given), depth, per-worker leaf lists, cancellation
    and stop, and the journal's root, enter, split, leaf, prune and sat
    records.  A caller supplies the per-box step.

    Every box pops from the frontier, spends one unit of the budget —
    or, with the budget gone, becomes [exhausted box] — is entered, and
    takes the step's outcome.  Split halves are pushed left first, so at
    [jobs = 1] the search is depth first, left half first, and the leaf
    list is in reverse visit order.  At [jobs > 1] each worker keeps its
    own leaves and the lists are concatenated, the last worker's first. *)

type witness = {
  point : (string * float) list;
  certified : bool;
  box : Interval.Box.t;  (** the box the sat record carries *)
}

type ('leaf, 'v) outcome =
  | Prune of 'leaf option
      (** refuted: a prune record whose reason is the journal's reason
          cell ({!Journal.take_reason}) *)
  | Leaf of string * string option * 'leaf option
      (** a terminal box: a leaf record with this class and reason *)
  | Split of Interval.Box.t * Interval.Box.t
  | Sat of witness * 'v  (** a sat record, then stop with the verdict *)
  | Give_up of string * 'v
      (** an ["undecided"] leaf record with this reason, then stop with
          the verdict *)

type counts = {
  boxes : int;  (** boxes entered, one budget unit each *)
  splits : int;
  prunes : int;
  max_depth : int;  (** of an entered box *)
}

type ('leaf, 'v) result = {
  verdict : 'v option;  (** [None] when the frontier drained or was cancelled *)
  leaves : 'leaf list;
  counts : counts;
}

type budget
(** A box budget.  Runs handed the same budget share it: decide's DNF
    branches draw on one. *)

val budget : int -> budget
(** [budget n]: [n] boxes, leased to workers in chunks
    ({!Parallel.Pool.Lease}). *)

val journal_flags : int -> (string * string) list
(** [journal_flags jobs] is the layer-flag snapshot (newton, tm,
    tm_budget, cache, tape, jobs) recorded in the header of every
    journaled run: decide and pave in {!Solver}, reach and synth runs in
    [Reach.Checker] and [Synth.Biopsy].  The journal audit checks each
    prune reason against it. *)

val journaled :
  kind:string -> jobs:int -> verdict:('a -> string * bool) -> (unit -> 'a) -> 'a
(** [journaled ~kind ~jobs ~verdict body] runs one query as a journal
    run when the journal is on: a run header of [kind] carrying
    [journal_flags (max 1 jobs)], then [body ()], then an end record
    with the verdict string and truncation flag [verdict] renders from
    the result.  If [body] raises, the run ends as a truncated ["error"]
    and the exception propagates.  With the journal off it is
    [body ()]. *)

val run :
  jobs:int ->
  budget:budget ->
  ?cancelled:(unit -> bool) ->
  ?label:string ->
  heur:string ->
  exhausted:(Interval.Box.t -> ('leaf, 'v) outcome) ->
  (int -> Interval.Box.t -> ('leaf, 'v) outcome) ->
  Interval.Box.t ->
  ('leaf, 'v) result
(** [run ~jobs ~budget ~heur ~exhausted step root] searches [root] with
    [jobs] workers; [step w box] is worker [w]'s step.  [cancelled] is
    polled before each box and stops the search without a verdict;
    [label] tags the root record; [heur] names the splitting rule in
    split records.  A [Sat] verdict replaces a [Give_up] one recorded by
    another worker, never the other way round. *)
