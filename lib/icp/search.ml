(* One branch-and-prune loop for every box search (see search.mli).

   Work items are (box, depth, journal id); the id is 0 and never read
   when journaling is off.  The frontier's sequential drive runs
   [jobs = 1] (and any [jobs] on a one-domain budget) as a plain loop on
   the calling domain, so one code path serves every [jobs] value. *)

module I = Interval.Ia
module Box = Interval.Box
module Frontier = Parallel.Pool.Frontier
module Lease = Parallel.Pool.Lease

type witness = {
  point : (string * float) list;
  certified : bool;
  box : Box.t;
}

type ('leaf, 'v) outcome =
  | Prune of 'leaf option
  | Leaf of string * string option * 'leaf option
  | Split of Box.t * Box.t
  | Sat of witness * 'v
  | Give_up of string * 'v

type counts = { boxes : int; splits : int; prunes : int; max_depth : int }

type ('leaf, 'v) result = {
  verdict : 'v option;
  leaves : 'leaf list;
  counts : counts;
}

type budget = Lease.t

let budget total = Lease.create ~total ()

(* The layer-flag snapshot in every journaled run header: decide and
   pave in [Solver], reach and synth runs in [Reach.Checker] and
   [Synth.Biopsy].  The audit checks each prune reason against it and
   reads a missing flag as on, so every run kind must carry every key. *)
let journal_flags jobs =
  [ ("newton", string_of_bool (Deriv.enabled ()));
    ("tm", string_of_bool (Interval.Tm.enabled ()));
    ("tm_budget", string_of_int (Interval.Tm.budget ()));
    ("cache", string_of_bool (Cache.enabled ()));
    ("jobs", string_of_int jobs) ]

let journaled ~kind ~jobs ~verdict body =
  if not (Journal.on ()) then body ()
  else begin
    let run =
      Journal.begin_run ~kind ~flags:(journal_flags (Stdlib.max 1 jobs)) ()
    in
    match body () with
    | r ->
        let v, truncated = verdict r in
        Journal.end_run ~truncated ~verdict:v run;
        r
    | exception e ->
        Journal.end_run ~truncated:true ~verdict:"error" run;
        raise e
  end

(* A worker's private accumulators. *)
type 'leaf worker = {
  lease : Lease.local;
  mutable boxes : int;
  mutable splits : int;
  mutable prunes : int;
  mutable depth : int;
  mutable leaves : 'leaf list;
}

(* Boxes are rendered to (var, lo, hi) arrays so the journal library
   does not depend on [Interval]. *)
let jbounds b =
  Array.of_list (List.map (fun (x, i) -> (x, I.lo i, I.hi i)) (Box.to_list b))

(* The verdict cell: (sat, v).  A sat verdict may replace a give-up
   recorded by another worker; nothing replaces a sat one. *)
let rec record cell ((sat, _) as v) =
  let cur = Atomic.get cell in
  let should =
    match cur with None -> true | Some (false, _) -> sat | Some (true, _) -> false
  in
  if should && not (Atomic.compare_and_set cell cur (Some v)) then record cell v

let keep k = function Some l -> k.leaves <- l :: k.leaves | None -> ()

let run ~jobs ~budget ?(cancelled = fun () -> false) ?label ~heur ~exhausted step
    root =
  let jobs = Stdlib.max 1 jobs in
  let jon = Journal.on () in
  let workers =
    Array.init jobs (fun _ ->
        { lease = Lease.local budget; boxes = 0; splits = 0; prunes = 0;
          depth = 0; leaves = [] })
  in
  let verdict = Atomic.make None in
  let root_id = if jon then Journal.fresh_id () else 0 in
  if jon then Journal.root ~id:root_id ?label (jbounds root);
  let fr = Frontier.create [ (root, 0, root_id) ] in
  Frontier.drain ~jobs fr (fun w slot (b, depth, id) ->
      if cancelled () then Frontier.stop fr
      else begin
        let k = workers.(w) in
        let outcome =
          if Lease.spend k.lease then begin
            k.boxes <- k.boxes + 1;
            if depth > k.depth then k.depth <- depth;
            if jon then begin
              Journal.enter ~id ~depth;
              Journal.clear_reason ()
            end;
            step w b
          end
          else exhausted b
        in
        match outcome with
        | Prune leaf ->
            k.prunes <- k.prunes + 1;
            if jon then begin
              let reason, group = Journal.take_reason () in
              Journal.prune ~id ~reason ?group ()
            end;
            keep k leaf
        | Leaf (cls, reason, leaf) ->
            if jon then Journal.leaf ~id ~cls ?reason ();
            keep k leaf
        | Split (l, r) ->
            k.splits <- k.splits + 1;
            let lid, rid =
              if jon then begin
                let lid = Journal.fresh_id () in
                let rid = Journal.fresh_id () in
                Journal.split ~id ~heur ~left:lid ~right:rid
                  ~left_bounds:(jbounds l) ~right_bounds:(jbounds r);
                (lid, rid)
              end
              else (0, 0)
            in
            (* one publish for both halves; the left is popped next *)
            Frontier.push_batch slot [ (l, depth + 1, lid); (r, depth + 1, rid) ]
        | Sat (s, v) ->
            if jon then
              Journal.sat ~id ~point:s.point ~certified:s.certified (jbounds s.box);
            record verdict (true, v);
            Frontier.stop fr
        | Give_up (reason, v) ->
            if jon then Journal.leaf ~id ~cls:"undecided" ~reason ();
            record verdict (false, v);
            Frontier.stop fr
      end);
  Array.iter (fun k -> Lease.return_unspent k.lease) workers;
  let counts =
    Array.fold_left
      (fun (c : counts) k ->
        { boxes = c.boxes + k.boxes; splits = c.splits + k.splits;
          prunes = c.prunes + k.prunes;
          max_depth = Stdlib.max c.max_depth k.depth })
      { boxes = 0; splits = 0; prunes = 0; max_depth = 0 }
      workers
  in
  { verdict = Option.map snd (Atomic.get verdict);
    leaves = Array.fold_left (fun l k -> k.leaves @ l) [] workers;
    counts }
