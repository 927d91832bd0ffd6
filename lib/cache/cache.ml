(* Sharded subsumption caches (see cache.mli for the contract).

   Concurrency model: a group (all entries of one fully-qualified key)
   lives wholly inside one shard, so a subsumption scan never crosses a
   shard boundary and holds exactly one mutex.  Counters are atomics,
   incremented outside any lock.  Invalidation is an epoch bump: each
   shard remembers the epoch it was last used under and drops its whole
   table when the global epoch has moved on, so [clear] is O(shards)
   and never blocks behind a scan. *)

module Box = Interval.Box
module I = Interval.Ia

let src = Logs.Src.create "cache" ~doc:"subsumption caches"
module Log = (val Logs.src_log src : Logs.LOG)

(* ---- Policy ---- *)

type policy = Off | Exact | Warm

let pp_policy ppf = function
  | Off -> Fmt.string ppf "off"
  | Exact -> Fmt.string ppf "exact"
  | Warm -> Fmt.string ppf "warm"

let env_policy () =
  if Telemetry.env_switch "BIOMC_NO_CACHE" then Off
  else
    match Option.map String.lowercase_ascii (Sys.getenv_opt "BIOMC_CACHE") with
    | Some "off" | Some "0" | Some "no" -> Off
    | Some "warm" -> Warm
    | _ -> Exact

let override : policy option Atomic.t = Atomic.make None

let policy () =
  match Atomic.get override with Some p -> p | None -> env_policy ()

let enabled () = policy () <> Off
let set_policy p = Atomic.set override (Some p)
let clear_policy_override () = Atomic.set override None

(* ---- Stats ---- *)

type stats = {
  hits : int;
  subsumption_hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  warm_starts : int;
  warm_saved_iterations : int;
}

let zero_stats =
  { hits = 0; subsumption_hits = 0; misses = 0; insertions = 0; evictions = 0;
    warm_starts = 0; warm_saved_iterations = 0 }

let add_stats a b =
  { hits = a.hits + b.hits;
    subsumption_hits = a.subsumption_hits + b.subsumption_hits;
    misses = a.misses + b.misses;
    insertions = a.insertions + b.insertions;
    evictions = a.evictions + b.evictions;
    warm_starts = a.warm_starts + b.warm_starts;
    warm_saved_iterations = a.warm_saved_iterations + b.warm_saved_iterations }

let sub_stats a b =
  { hits = a.hits - b.hits;
    subsumption_hits = a.subsumption_hits - b.subsumption_hits;
    misses = a.misses - b.misses;
    insertions = a.insertions - b.insertions;
    evictions = a.evictions - b.evictions;
    warm_starts = a.warm_starts - b.warm_starts;
    warm_saved_iterations = a.warm_saved_iterations - b.warm_saved_iterations }

let pp_stats ppf s =
  Fmt.pf ppf "%d hits, %d subsumed, %d misses, %d warm-starts (~%d iters saved)"
    s.hits s.subsumption_hits s.misses s.warm_starts s.warm_saved_iterations

(* One counter set per cache name; caches created with the same name
   (across modules, or many times in tests) share counters, so the
   registry stays bounded by the handful of static names in the code.

   The counters themselves live in the Telemetry metrics registry under
   "cache.<name>.<field>" (created [~always:true]: cache statistics
   count whether or not telemetry is enabled, as they always have).
   [stats]/[summary]/[report_kvs] below are thin views over those
   telemetry counters, so `biomc --metrics` and the cache's own
   reporting read one store. *)
type counters = {
  c_hits : Telemetry.Counter.t;
  c_subsumed : Telemetry.Counter.t;
  c_misses : Telemetry.Counter.t;
  c_insertions : Telemetry.Counter.t;
  c_evictions : Telemetry.Counter.t;
  c_warm_starts : Telemetry.Counter.t;
  c_warm_saved : Telemetry.Counter.t;
  c_demotions : Telemetry.Counter.t;
      (* groups switched off for having no hits; not part of [stats]
         (it is a structural event, not a per-query one) *)
}

let snapshot c =
  { hits = Telemetry.Counter.value c.c_hits;
    subsumption_hits = Telemetry.Counter.value c.c_subsumed;
    misses = Telemetry.Counter.value c.c_misses;
    insertions = Telemetry.Counter.value c.c_insertions;
    evictions = Telemetry.Counter.value c.c_evictions;
    warm_starts = Telemetry.Counter.value c.c_warm_starts;
    warm_saved_iterations = Telemetry.Counter.value c.c_warm_saved }

let registry : (string, counters) Hashtbl.t = Hashtbl.create 8
let registry_lock = Mutex.create ()

let counters_for name =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let field f = Telemetry.Counter.make ~always:true ("cache." ^ name ^ "." ^ f) in
          let c =
            { c_hits = field "hits"; c_subsumed = field "subsumed";
              c_misses = field "misses"; c_insertions = field "insertions";
              c_evictions = field "evictions"; c_warm_starts = field "warm_starts";
              c_warm_saved = field "warm_saved_iterations";
              c_demotions = field "demotions" }
          in
          Hashtbl.add registry name c;
          c)

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) (fun () -> f ())

let named_stats () =
  with_registry (fun () ->
      Hashtbl.fold (fun name c acc -> (name, snapshot c) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let global_stats () =
  List.fold_left (fun acc (_, s) -> add_stats acc s) zero_stats (named_stats ())

let reset_stats () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ c ->
          Telemetry.Counter.set c.c_hits 0;
          Telemetry.Counter.set c.c_subsumed 0;
          Telemetry.Counter.set c.c_misses 0;
          Telemetry.Counter.set c.c_insertions 0;
          Telemetry.Counter.set c.c_evictions 0;
          Telemetry.Counter.set c.c_warm_starts 0;
          Telemetry.Counter.set c.c_warm_saved 0;
          Telemetry.Counter.set c.c_demotions 0)
        registry)

let summary () =
  let s = global_stats () in
  Fmt.str "cache[%a]: %a" pp_policy (policy ()) pp_stats s

let report_kvs () =
  List.filter_map
    (fun (name, s) ->
      if s = zero_stats then None
      else Some ("cache " ^ name, Fmt.str "%a" pp_stats s))
    (named_stats ())

(* ---- Storage ---- *)

(* Exact hits are the hot path (the default policy), so each group keeps
   two lanes: a hashtable keyed by the bit patterns of the box bounds
   (O(1) exact lookup — branch-and-prune runs do one lookup per box, and
   a linear scan would cost more than the contraction it saves) and a
   FIFO queue recording insertion order for capacity eviction.  The
   subsumption scan of the [Warm] policy folds over the index.

   Replacing an entry updates the index in place and leaves the queue
   untouched: every live key has exactly one queue element (from its
   first insertion), so the queue length always equals the index length
   and cannot grow unboundedly when racing domains re-add the same box
   (find-before-add is not atomic).  Eviction order is FIFO on first
   insertion; a replacement does not refresh its key's position. *)

(* Binary rendering of the box: per variable, the name (NUL-terminated —
   names never contain NUL) followed by the raw bit patterns of the two
   bounds.  A string key hashes and compares via the fast string
   primitives; bit-pattern identity is exactly the [Box.equal] relation
   up to the sign of zero (a −0.0/+0.0 mismatch turns an exact hit into
   a recomputation — sound, merely redundant). *)
type box_key = string

let box_key b =
  let buf = Buffer.create 64 in
  Box.fold
    (fun v itv () ->
      Buffer.add_string buf v;
      Buffer.add_char buf '\000';
      Buffer.add_int64_le buf (Int64.bits_of_float (I.lo itv));
      Buffer.add_int64_le buf (Int64.bits_of_float (I.hi itv)))
    b ();
  Buffer.contents buf

type 'v entry = { ebox : Box.t; ekey : box_key; value : 'v }

(* A group that keeps missing without ever hitting is pure overhead:
   branch-and-prune explores each box once, so stores like the pave
   verdict cache pay key rendering, lookup, and insertion on every box
   and win nothing back (BENCH_cache.json recorded pave at ~0.8x).  A
   group demotes itself to Off after [demote_after] consecutive misses
   with zero lifetime hits: its entries are dropped (counted as
   evictions, plus one [cache.<name>.demotions]) and subsequent
   finds/adds return immediately.  The threshold defaults to the group
   capacity — after that many consecutive misses, FIFO eviction has
   already recycled the whole group, so an exact replay can no longer
   hit and demotion provably loses nothing.  Any hit (exact or
   subsumption) grants permanent immunity; an epoch bump ({!clear})
   discards the group record and thus re-arms it. *)
type 'v group = {
  queue : 'v entry Queue.t;  (* oldest-first, may hold stale entries *)
  index : (box_key, 'v entry) Hashtbl.t;  (* live entries *)
  mutable ghits : int;  (* lifetime hits + subsumption hits *)
  mutable miss_streak : int;  (* consecutive misses since the last hit *)
  mutable demoted : bool;
}

type 'v shard = {
  lock : Mutex.t;
  tbl : (string, 'v group) Hashtbl.t;
  order : string Queue.t;  (* group keys in insertion order, for eviction *)
  mutable epoch : int;
}

type 'v t = {
  ctr : counters;
  shards : 'v shard array;
  group_capacity : int;
  max_groups_per_shard : int;
  demote_after : int;
}

let epoch = Atomic.make 0
let clear () = Atomic.incr epoch

let create ?(shards = 8) ?(group_capacity = 4096) ?(max_groups_per_shard = 128)
    ?demote_after name =
  let shards = Stdlib.max 1 shards in
  let group_capacity = Stdlib.max 1 group_capacity in
  { ctr = counters_for name;
    shards =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); tbl = Hashtbl.create 16;
            order = Queue.create (); epoch = Atomic.get epoch });
    group_capacity;
    max_groups_per_shard = Stdlib.max 1 max_groups_per_shard;
    demote_after =
      (match demote_after with
      | Some d -> Stdlib.max 1 d
      | None -> group_capacity) }

let demotions t = Telemetry.Counter.value t.ctr.c_demotions

let shard_of t group =
  t.shards.(Hashtbl.hash group mod Array.length t.shards)

(* Callers hold [sh.lock]. *)
let check_epoch sh =
  let e = Atomic.get epoch in
  if sh.epoch <> e then begin
    Hashtbl.reset sh.tbl;
    Queue.clear sh.order;
    sh.epoch <- e
  end

let with_shard t group f =
  let sh = shard_of t group in
  Mutex.lock sh.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.lock)
    (fun () ->
      check_epoch sh;
      f sh)

type 'v outcome = Hit of 'v | Subsumed of Box.t * 'v | Miss

(* Tightness measure for choosing among several subsuming entries: total
   width over the components (smaller = tighter parent = better seed). *)
let total_width b =
  Box.fold (fun _ itv acc -> acc +. I.width itv) b 0.0

(* Callers hold the shard lock.  [g] just missed: advance its streak and
   demote when it has earned nothing over a full capacity's worth (or
   the configured [demote_after]) of consecutive queries. *)
let note_group_miss t g =
  g.miss_streak <- g.miss_streak + 1;
  if g.ghits = 0 && g.miss_streak >= t.demote_after then begin
    g.demoted <- true;
    Telemetry.Counter.add t.ctr.c_evictions (Hashtbl.length g.index);
    Telemetry.Counter.incr t.ctr.c_demotions;
    Hashtbl.reset g.index;
    Queue.clear g.queue
  end

let note_group_hit g =
  g.ghits <- g.ghits + 1;
  g.miss_streak <- 0

let find t ~group box =
  match policy () with
  | Off -> Miss
  | pol ->
      let outcome =
        with_shard t group (fun sh ->
            match Hashtbl.find_opt sh.tbl group with
            | None -> Miss
            | Some g ->
                (* The demoted check runs before the box key is even
                   rendered — a demoted group costs one hashtable probe
                   per query, nothing more. *)
                if g.demoted then Miss
                else begin
                  let key = box_key box in
                  match Hashtbl.find_opt g.index key with
                  | Some e ->
                      note_group_hit g;
                      Hit e.value
                  | None ->
                      let res =
                        if pol <> Warm then Miss
                        else
                          let best =
                            Hashtbl.fold
                              (fun _ e acc ->
                                if Box.subset box e.ebox then
                                  let w = total_width e.ebox in
                                  match acc with
                                  | Some (bw, _) when bw <= w -> acc
                                  | _ -> Some (w, e)
                                else acc)
                              g.index None
                          in
                          match best with
                          | Some (_, e) -> Subsumed (e.ebox, e.value)
                          | None -> Miss
                      in
                      (match res with
                      | Miss -> note_group_miss t g
                      | _ -> note_group_hit g);
                      res
                end)
      in
      (match outcome with
      | Hit _ -> Telemetry.Counter.incr t.ctr.c_hits
      | Subsumed _ -> Telemetry.Counter.incr t.ctr.c_subsumed
      | Miss -> Telemetry.Counter.incr t.ctr.c_misses);
      outcome

let add t ~group box value =
  if enabled () then begin
    let inserted =
      with_shard t group (fun sh ->
        let g =
          match Hashtbl.find_opt sh.tbl group with
          | Some g -> g
          | None ->
              (* Bound the number of groups per shard (FIFO on group
                 creation order). *)
              while Hashtbl.length sh.tbl >= t.max_groups_per_shard do
                match Queue.take_opt sh.order with
                | None -> Hashtbl.reset sh.tbl
                | Some old -> (
                    match Hashtbl.find_opt sh.tbl old with
                    | Some og ->
                        Telemetry.Counter.add t.ctr.c_evictions
                          (Hashtbl.length og.index);
                        Hashtbl.remove sh.tbl old
                    | None -> ())
              done;
              let g =
                { queue = Queue.create (); index = Hashtbl.create 16;
                  ghits = 0; miss_streak = 0; demoted = false }
              in
              Hashtbl.add sh.tbl group g;
              Queue.add group sh.order;
              g
        in
        if g.demoted then false
        else begin
          let e = { ebox = box; ekey = box_key box; value } in
          let existed = Hashtbl.mem g.index e.ekey in
          Hashtbl.replace g.index e.ekey e;
          if not existed then Queue.add e g.queue;
          (* Evict the oldest entries beyond capacity; every live key is in
             the queue exactly once, so the loop terminates. *)
          while Hashtbl.length g.index > t.group_capacity do
            match Queue.take_opt g.queue with
            | None -> assert false
            | Some old ->
                Hashtbl.remove g.index old.ekey;
                Telemetry.Counter.incr t.ctr.c_evictions
          done;
          true
        end)
    in
    if inserted then Telemetry.Counter.incr t.ctr.c_insertions
  end

(* The saved-iterations delta is accumulated signed: a warm run that
   spends MORE iterations than its cached parent subtracts from the
   total, so the aggregate is the net savings rather than a sum of only
   the favorable cases (which would bias the statistic upward). *)
let note_warm_start t ~saved_iterations =
  Telemetry.Counter.incr t.ctr.c_warm_starts;
  if saved_iterations <> 0 then
    Telemetry.Counter.add t.ctr.c_warm_saved saved_iterations

let length t =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock sh.lock)
        (fun () ->
          check_epoch sh;
          Hashtbl.fold (fun _ g n -> n + Hashtbl.length g.index) sh.tbl acc))
    0 t.shards
