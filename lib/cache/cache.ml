(* Sharded exact-replay caches (see cache.mli for the contract).

   Concurrency model: a group (all entries of one fully-qualified key)
   lives wholly inside one shard, so a lookup holds exactly one mutex.
   Counters are atomics, incremented outside any lock.  Invalidation is
   an epoch bump: each shard remembers the epoch it was last used under
   and drops its whole table when the global epoch has moved on, so
   [clear] is O(shards). *)

module Box = Interval.Box
module I = Interval.Ia

(* ---- Switch ---- *)

let override : bool option Atomic.t = Atomic.make None

let enabled () =
  match Atomic.get override with
  | Some b -> b
  | None -> not (Telemetry.env_switch "BIOMC_NO_CACHE")

let set_enabled b = Atomic.set override (Some b)
let clear_enabled_override () = Atomic.set override None

(* ---- Stats ---- *)

type stats = { hits : int; misses : int; insertions : int; evictions : int }

let zero_stats = { hits = 0; misses = 0; insertions = 0; evictions = 0 }

let add_stats a b =
  { hits = a.hits + b.hits; misses = a.misses + b.misses;
    insertions = a.insertions + b.insertions; evictions = a.evictions + b.evictions }

let sub_stats a b =
  { hits = a.hits - b.hits; misses = a.misses - b.misses;
    insertions = a.insertions - b.insertions; evictions = a.evictions - b.evictions }

(* One counter set per cache name; caches created with the same name
   (across modules, or many times in tests) share counters, so the
   registry stays bounded by the handful of static names in the code.

   The counters themselves live in the Telemetry metrics registry under
   "cache.<name>.<field>" (created [~always:true]: cache statistics
   count whether or not telemetry is enabled).  [named_stats] and
   [summary] below are thin views over those telemetry counters, so
   `biomc --metrics` and the cache's own reporting read one store. *)
type counters = {
  c_hits : Telemetry.Counter.t;
  c_misses : Telemetry.Counter.t;
  c_insertions : Telemetry.Counter.t;
  c_evictions : Telemetry.Counter.t;
}

let snapshot c =
  { hits = Telemetry.Counter.value c.c_hits;
    misses = Telemetry.Counter.value c.c_misses;
    insertions = Telemetry.Counter.value c.c_insertions;
    evictions = Telemetry.Counter.value c.c_evictions }

let registry : (string, counters) Hashtbl.t = Hashtbl.create 8
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counters_for name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let field f = Telemetry.Counter.make ~always:true ("cache." ^ name ^ "." ^ f) in
          let c =
            { c_hits = field "hits"; c_misses = field "misses";
              c_insertions = field "insertions"; c_evictions = field "evictions" }
          in
          Hashtbl.add registry name c;
          c)

let named_stats () =
  with_registry (fun () ->
      Hashtbl.fold (fun name c acc -> (name, snapshot c) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let global_stats () =
  List.fold_left (fun acc (_, s) -> add_stats acc s) zero_stats (named_stats ())

let summary () =
  let s = global_stats () in
  Fmt.str "cache[%s]: %d hits, %d misses"
    (if enabled () then "on" else "off")
    s.hits s.misses

(* ---- Storage ----

   Each group keeps two lanes: a hashtable keyed by the bit patterns of
   the box bounds (O(1) lookup — branch-and-prune runs do one lookup per
   box) and a FIFO queue of keys recording insertion order for capacity
   eviction.  Replacing an entry updates the index in place and leaves
   the queue untouched: every live key has exactly one queue element
   (from its first insertion), so the queue length always equals the
   index length and cannot grow unboundedly when racing domains re-add
   the same box (find-before-add is not atomic).  Eviction order is
   FIFO on first insertion; a replacement does not refresh its key's
   position. *)

(* Binary rendering of the box: per variable, the name (NUL-terminated —
   names never contain NUL) followed by the raw bit patterns of the two
   bounds.  A string key hashes and compares via the fast string
   primitives; bit-pattern identity is exactly the [Box.equal] relation
   up to the sign of zero (a −0.0/+0.0 mismatch turns a hit into a
   recomputation — sound, merely redundant). *)
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

type 'v group = {
  queue : string Queue.t;  (* box keys, oldest first *)
  index : (string, 'v) Hashtbl.t;  (* live entries *)
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
}

let epoch = Atomic.make 0
let clear () = Atomic.incr epoch

let create ?(shards = 8) ?(group_capacity = 4096) ?(max_groups_per_shard = 128) name =
  { ctr = counters_for name;
    shards =
      Array.init (Stdlib.max 1 shards) (fun _ ->
          { lock = Mutex.create (); tbl = Hashtbl.create 16;
            order = Queue.create (); epoch = Atomic.get epoch });
    group_capacity = Stdlib.max 1 group_capacity;
    max_groups_per_shard = Stdlib.max 1 max_groups_per_shard }

(* Run [f] on [sh] under its lock, after dropping a stale epoch. *)
let locked sh f =
  Mutex.lock sh.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.lock)
    (fun () ->
      let e = Atomic.get epoch in
      if sh.epoch <> e then begin
        Hashtbl.reset sh.tbl;
        Queue.clear sh.order;
        sh.epoch <- e
      end;
      f sh)

let with_shard t group f =
  locked t.shards.(Hashtbl.hash group mod Array.length t.shards) f

let find t ~group box =
  if not (enabled ()) then None
  else begin
    let key = box_key box in
    let r =
      with_shard t group (fun sh ->
          match Hashtbl.find_opt sh.tbl group with
          | None -> None
          | Some g -> Hashtbl.find_opt g.index key)
    in
    Telemetry.Counter.incr (if Option.is_some r then t.ctr.c_hits else t.ctr.c_misses);
    r
  end

let add t ~group box value =
  if enabled () then begin
    let key = box_key box in
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
              let g = { queue = Queue.create (); index = Hashtbl.create 16 } in
              Hashtbl.add sh.tbl group g;
              Queue.add group sh.order;
              g
        in
        if not (Hashtbl.mem g.index key) then Queue.add key g.queue;
        Hashtbl.replace g.index key value;
        (* Evict the oldest entries beyond capacity; every live key is in
           the queue exactly once, so the loop terminates. *)
        while Hashtbl.length g.index > t.group_capacity do
          match Queue.take_opt g.queue with
          | None -> assert false
          | Some old ->
              Hashtbl.remove g.index old;
              Telemetry.Counter.incr t.ctr.c_evictions
        done);
    Telemetry.Counter.incr t.ctr.c_insertions
  end

let length t =
  Array.fold_left
    (fun acc sh ->
      locked sh (fun sh -> Hashtbl.fold (fun _ g n -> n + Hashtbl.length g.index) sh.tbl acc))
    0 t.shards
