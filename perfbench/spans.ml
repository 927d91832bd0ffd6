(* Self-time attribution over a span trace.

   A span's self time is its duration minus the part of that interval
   covered by its direct children.  Spans nest strictly per thread
   (begin/end balance is enforced by the trace exporter), so one stack
   per tid is enough: an end event closes the innermost open span,
   whose duration is then charged to its parent as child time.

   Names may nest inside themselves (a Taylor-model evaluation inside
   another one, a reach segment chain); self time stays exact in that
   case, and [total_s] counts only the outermost occurrence so it never
   exceeds the wall time the name covered. *)

type event = { name : string; ph : char; tid : int; ts_us : float }

type stat = {
  mutable calls : int;  (** begin events *)
  mutable self_s : float;
  mutable total_s : float;  (** outermost occurrences only *)
}

type t = {
  stats : (string * stat) list;  (** sorted by name *)
  unbalanced : int;  (** end events with no matching open span, plus spans left open *)
}

type frame = { fname : string; start : float; mutable child : float }

(* [iter f] feeds every event, in per-thread order, to [f]. *)
let attribute (iter : (event -> unit) -> unit) : t =
  let tbl : (string, stat) Hashtbl.t = Hashtbl.create 32 in
  let stat name =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None ->
        let s = { calls = 0; self_s = 0.0; total_s = 0.0 } in
        Hashtbl.add tbl name s;
        s
  in
  let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 4 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add stacks tid r;
        r
  in
  let unbalanced = ref 0 in
  iter (fun ev ->
      let st = stack ev.tid in
      match ev.ph with
      | 'B' ->
          let s = stat ev.name in
          s.calls <- s.calls + 1;
          st := { fname = ev.name; start = ev.ts_us; child = 0.0 } :: !st
      | 'E' -> (
          match !st with
          | f :: rest when f.fname = ev.name ->
              st := rest;
              let dur = (ev.ts_us -. f.start) *. 1e-6 in
              let s = stat f.fname in
              s.self_s <- s.self_s +. (dur -. f.child);
              if not (List.exists (fun g -> g.fname = f.fname) rest) then
                s.total_s <- s.total_s +. dur;
              (match rest with p :: _ -> p.child <- p.child +. dur | [] -> ())
          | _ -> incr unbalanced)
      | _ -> ());
  Hashtbl.iter (fun _ st -> unbalanced := !unbalanced + List.length !st) stacks;
  let stats =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { stats; unbalanced = !unbalanced }

let of_list events = attribute (fun f -> List.iter f events)

let find t name =
  match List.assoc_opt name t.stats with
  | Some s -> s
  | None -> { calls = 0; self_s = 0.0; total_s = 0.0 }

(* Begin and end events of a Chrome trace_event document as written by
   [Telemetry.Trace.to_json]: one event object per line.  Metadata and
   instant events are skipped.  The scan works in place on the document,
   so a trace of millions of events never becomes a list or a JSON
   tree. *)
let iter_trace (doc : string) (f : event -> unit) =
  let n = String.length doc in
  let field i j key =
    let pl = String.length key in
    let rec matches p k = k = pl || (doc.[p + k] = key.[k] && matches p (k + 1)) in
    let rec search p =
      if p + pl > j then None else if matches p 0 then Some (p + pl) else search (p + 1)
    in
    search i
  in
  let until i j stop =
    let k = ref i in
    while !k < j && not (String.contains stop doc.[!k]) do incr k done;
    String.sub doc i (!k - i)
  in
  let rec lines i =
    if i < n then begin
      let j = match String.index_from_opt doc i '\n' with Some j -> j | None -> n in
      (match field i j "\"ph\":\"" with
      | Some p when doc.[p] = 'B' || doc.[p] = 'E' -> (
          match (field i j "\"name\":\"", field i j "\"tid\":", field i j "\"ts\":") with
          | Some nm, Some t, Some ts ->
              f
                {
                  name = until nm j "\"";
                  ph = doc.[p];
                  tid = int_of_string (until t j ",}");
                  ts_us = float_of_string (until ts j ",}");
                }
          | _ -> ())
      | _ -> ());
      lines (j + 1)
    end
  in
  lines 0

let of_trace doc = attribute (iter_trace doc)

(* Synthetic span lists with hand-computed self times: the checks the
   traced run's attribution rests on. *)
let self_test () =
  let ev ?(tid = 0) name ph ts_us = { name; ph; tid; ts_us } in
  let close a b = Float.abs (a -. b) < 1e-12 in
  let expect t name ~calls ~self_s ~total_s =
    let s = find t name in
    if s.calls <> calls || not (close s.self_s self_s) || not (close s.total_s total_s)
    then
      failwith
        (Printf.sprintf "%s: calls=%d self=%.9f total=%.9f, expected %d %.9f %.9f" name
           s.calls s.self_s s.total_s calls self_s total_s)
  in
  (* icp.tm under both icp.hc4 and ode.flow: its self time is the sum
     of both occurrences, and each parent loses exactly its child. *)
  let t =
    of_list
      [ ev "bench.query" 'B' 0.0;
        ev "ode.flow" 'B' 10.0;
        ev "icp.tm" 'B' 20.0;
        ev "icp.tm" 'E' 50.0;
        ev "ode.flow" 'E' 100.0;
        ev "icp.hc4" 'B' 100.0;
        ev "icp.tm" 'B' 110.0;
        ev "icp.tm" 'E' 130.0;
        ev "icp.hc4" 'E' 160.0;
        ev "bench.query" 'E' 200.0 ]
  in
  expect t "icp.tm" ~calls:2 ~self_s:50e-6 ~total_s:50e-6;
  expect t "ode.flow" ~calls:1 ~self_s:60e-6 ~total_s:90e-6;
  expect t "icp.hc4" ~calls:1 ~self_s:40e-6 ~total_s:60e-6;
  expect t "bench.query" ~calls:1 ~self_s:50e-6 ~total_s:200e-6;
  if t.unbalanced <> 0 then failwith "balanced list reported unbalanced";
  (* A reach.path -> reach.segment -> reach.segment chain with flows at
     the leaves: the inner segment's total is not counted twice. *)
  let t =
    of_list
      [ ev "reach.path" 'B' 0.0;
        ev "reach.segment" 'B' 5.0;
        ev "ode.flow" 'B' 6.0;
        ev "ode.flow" 'E' 16.0;
        ev "reach.segment" 'B' 20.0;
        ev "ode.flow" 'B' 21.0;
        ev "ode.flow" 'E' 41.0;
        ev "reach.segment" 'E' 45.0;
        ev "reach.segment" 'E' 50.0;
        ev "reach.path" 'E' 60.0 ]
  in
  expect t "reach.segment" ~calls:2 ~self_s:(10e-6 +. 5e-6) ~total_s:45e-6;
  expect t "ode.flow" ~calls:2 ~self_s:30e-6 ~total_s:30e-6;
  expect t "reach.path" ~calls:1 ~self_s:15e-6 ~total_s:60e-6;
  (* Two threads interleave without charging each other, and damage is
     counted: an end with no open span and a span left open. *)
  let t =
    of_list
      [ ev ~tid:0 "icp.hc4" 'B' 0.0;
        ev ~tid:1 "icp.tm" 'B' 1.0;
        ev ~tid:0 "icp.hc4" 'E' 10.0;
        ev ~tid:1 "icp.tm" 'E' 4.0;
        ev ~tid:1 "ode.flow" 'E' 5.0;
        ev ~tid:0 "reach.path" 'B' 11.0 ]
  in
  expect t "icp.hc4" ~calls:1 ~self_s:10e-6 ~total_s:10e-6;
  expect t "icp.tm" ~calls:1 ~self_s:3e-6 ~total_s:3e-6;
  if t.unbalanced <> 2 then failwith "unbalanced events not counted";
  (* The line scanner reads the exporter's format back. *)
  let doc =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
    \  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"domain-0\"}},\n\
    \  {\"name\":\"icp.hc4\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"args\":{\"v\":2}},\n\
    \  {\"name\":\"x\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":2.000},\n\
    \  {\"name\":\"icp.hc4\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":4.250}\n\
     ]}\n"
  in
  let evs = ref [] in
  iter_trace doc (fun e -> evs := e :: !evs);
  match List.rev !evs with
  | [ { name = "icp.hc4"; ph = 'B'; tid = 0; ts_us = 1.5 };
      { name = "icp.hc4"; ph = 'E'; tid = 0; ts_us = 4.25 } ] -> ()
  | evs -> failwith (Printf.sprintf "iter_trace read %d events" (List.length evs))
