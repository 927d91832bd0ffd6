(* Provenance journal: NDJSON event log of the branch-and-prune search
   DAG, plus the reader/auditor behind `biomc explain` and the live
   progress heartbeat.  See journal.mli for the contracts.

   Same cost discipline as Telemetry: one atomic flag guards every
   emitter, per-domain buffers keep the hot path contention-free, and
   nothing here ever feeds back into the search. *)

(* ------------------------------------------------------------------ *)
(* Switches and sinks                                                  *)
(* ------------------------------------------------------------------ *)

type sink = Off | Memory | To_file of string

(* BIOMC_JOURNAL: a value [Telemetry.env_switch] reads as on selects the
   memory sink, one it reads as off (0, false, no, off or empty, in any
   case, blanks trimmed) selects none, and any other value is a path. *)
let env_sink () =
  if Telemetry.env_switch "BIOMC_NO_JOURNAL" then Off
  else if Telemetry.env_switch "BIOMC_JOURNAL" then Memory
  else
    match Sys.getenv_opt "BIOMC_JOURNAL" with
    | None -> Off
    | Some v -> (
        match String.lowercase_ascii (String.trim v) with
        | "" | "0" | "false" | "no" | "off" -> Off
        | _ -> To_file v)

let override : sink option Atomic.t = Atomic.make None

(* The one flag every emitter loads. *)
let active = Atomic.make false

let sink () =
  match Atomic.get override with Some s -> s | None -> env_sink ()

let on () = Atomic.get active

(* ------------------------------------------------------------------ *)
(* Per-domain record buffers and the shared sink                       *)
(* ------------------------------------------------------------------ *)

(* Memory-sink byte cap: keeps BIOMC_JOURNAL=1 over a whole test suite
   bounded.  Dropped records are counted and fail audits loudly (the
   forest has dangling references) instead of silently truncating. *)
let memory_cap = 32 * 1024 * 1024
let cell_flush_bytes = 64 * 1024

type cell = { dom : int; mutable seq : int; buf : Buffer.t }

let sink_lock = Mutex.create ()
let mem = Buffer.create 4096
let mem_dropped = ref 0
let file_chan : out_channel option ref = ref None
let cells : cell list ref = ref []
let next_dom = Atomic.make 0
let next_id = Atomic.make 1

let fresh_id () = Atomic.fetch_and_add next_id 1

let count_lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

(* Called with [sink_lock] held. *)
let sink_chunk_locked s =
  match sink () with
  | Off -> ()
  | Memory ->
      if Buffer.length mem + String.length s > memory_cap then
        mem_dropped := !mem_dropped + count_lines s
      else Buffer.add_string mem s
  | To_file path ->
      let oc =
        match !file_chan with
        | Some oc -> oc
        | None ->
            let oc = open_out path in
            file_chan := Some oc;
            oc
      in
      output_string oc s

let flush_cell_locked c =
  if Buffer.length c.buf > 0 then begin
    sink_chunk_locked (Buffer.contents c.buf);
    Buffer.clear c.buf
  end

let flush_cell c =
  Mutex.lock sink_lock;
  flush_cell_locked c;
  Mutex.unlock sink_lock

let key =
  Domain.DLS.new_key (fun () ->
      let c =
        { dom = Atomic.fetch_and_add next_dom 1; seq = 0; buf = Buffer.create 4096 }
      in
      Mutex.lock sink_lock;
      cells := c :: !cells;
      Mutex.unlock sink_lock;
      c)

let flush () =
  Mutex.lock sink_lock;
  List.iter flush_cell_locked !cells;
  (match !file_chan with Some oc -> Stdlib.flush oc | None -> ());
  Mutex.unlock sink_lock

let close_file_locked () =
  match !file_chan with
  | Some oc ->
      close_out oc;
      file_chan := None
  | None -> ()

let close () =
  flush ();
  Mutex.lock sink_lock;
  close_file_locked ();
  Mutex.unlock sink_lock

let contents () =
  flush ();
  Mutex.lock sink_lock;
  let s = Buffer.contents mem in
  Mutex.unlock sink_lock;
  s

let dropped () = !mem_dropped

let refresh_active () = Atomic.set active (sink () <> Off)

let set_sink s =
  flush ();
  Mutex.lock sink_lock;
  close_file_locked ();
  Mutex.unlock sink_lock;
  Atomic.set override (Some s);
  refresh_active ()

let clear_sink_override () =
  flush ();
  Mutex.lock sink_lock;
  close_file_locked ();
  Mutex.unlock sink_lock;
  Atomic.set override None;
  refresh_active ()

let () = refresh_active ()

(* ------------------------------------------------------------------ *)
(* Run scoping                                                         *)
(* ------------------------------------------------------------------ *)

(* One query at a time per process is the journal's concurrency model
   (worker domains of that query all emit under its run id); nested
   runs (a synth flowing tubes, a CEGIS loop calling decide) restore
   the enclosing id on end_run. *)
let current_run = Atomic.make 0
let run_lock = Mutex.create ()
let run_stack : int list ref = ref []

let in_run () = Atomic.get current_run <> 0

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

type bounds = (string * float * float) array

(* The emitters run once per search event, so the rendering avoids
   [Printf] for the integer fields (format-string interpretation costs
   more than the event's solver work on prune-heavy queries). *)
let add_int buf n = Buffer.add_string buf (string_of_int n)

let emit render =
  let c = Domain.DLS.get key in
  c.seq <- c.seq + 1;
  render c.buf;
  Buffer.add_string c.buf ",\"d\":";
  add_int c.buf c.dom;
  Buffer.add_string c.buf ",\"q\":";
  add_int c.buf c.seq;
  Buffer.add_string c.buf "}\n";
  if Buffer.length c.buf >= cell_flush_bytes then flush_cell c

let add_bounds buf (b : bounds) =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i (v, lo, hi) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      Telemetry.Json.escape buf v;
      Buffer.add_string buf (Printf.sprintf ",\"%h\",\"%h\"]" lo hi))
    b;
  Buffer.add_char buf ']'

let begin_run ~kind ~flags () =
  if not (on ()) then 0
  else begin
    let id = fresh_id () in
    Mutex.lock run_lock;
    run_stack := Atomic.get current_run :: !run_stack;
    Mutex.unlock run_lock;
    Atomic.set current_run id;
    emit (fun buf ->
        Buffer.add_string buf (Printf.sprintf "{\"k\":\"run\",\"r\":%d,\"kind\":" id);
        Telemetry.Json.escape buf kind;
        Buffer.add_string buf ",\"flags\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Telemetry.Json.escape buf k;
            Buffer.add_char buf ':';
            Telemetry.Json.escape buf v)
          flags;
        Buffer.add_char buf '}');
    id
  end

let end_run ?(truncated = false) ~verdict id =
  if on () && id <> 0 then begin
    emit (fun buf ->
        Buffer.add_string buf (Printf.sprintf "{\"k\":\"end\",\"r\":%d,\"v\":" id);
        Telemetry.Json.escape buf verdict;
        Buffer.add_string buf (Printf.sprintf ",\"tr\":%b" truncated));
    Mutex.lock run_lock;
    (match !run_stack with
    | prev :: rest ->
        run_stack := rest;
        Atomic.set current_run prev
    | [] -> Atomic.set current_run 0);
    Mutex.unlock run_lock
  end

let run_field buf kind =
  Buffer.add_string buf "{\"k\":\"";
  Buffer.add_string buf kind;
  Buffer.add_string buf "\",\"r\":";
  add_int buf (Atomic.get current_run)

let root ~id ?label (b : bounds) =
  if on () then
    emit (fun buf ->
        run_field buf "root";
        Buffer.add_string buf ",\"i\":";
        add_int buf id;
        Buffer.add_string buf ",\"b\":";
        add_bounds buf b;
        match label with
        | None -> ()
        | Some l ->
            Buffer.add_string buf ",\"lbl\":";
            Telemetry.Json.escape buf l)

let enter ~id ~depth =
  if on () then
    emit (fun buf ->
        run_field buf "enter";
        Buffer.add_string buf ",\"i\":";
        add_int buf id;
        Buffer.add_string buf ",\"dep\":";
        add_int buf depth)

(* The split variable is the one whose intervals differ between the two
   children; recorded explicitly so explain need not re-derive it. *)
let split_var (lb : bounds) (rb : bounds) =
  let n = Array.length lb in
  let rec go i =
    if i >= n then "?"
    else
      let (v, llo, lhi) = lb.(i) in
      let (_, rlo, rhi) = rb.(i) in
      if llo <> rlo || lhi <> rhi then v else go (i + 1)
  in
  go 0

let split ~id ~heur ~left ~right ~left_bounds ~right_bounds =
  if on () then
    emit (fun buf ->
        run_field buf "split";
        Buffer.add_string buf ",\"i\":";
        add_int buf id;
        Buffer.add_string buf ",\"v\":";
        Telemetry.Json.escape buf (split_var left_bounds right_bounds);
        Buffer.add_string buf ",\"h\":";
        Telemetry.Json.escape buf heur;
        Buffer.add_string buf ",\"l\":";
        add_int buf left;
        Buffer.add_string buf ",\"rt\":";
        add_int buf right;
        Buffer.add_string buf ",\"lb\":";
        add_bounds buf left_bounds;
        Buffer.add_string buf ",\"rb\":";
        add_bounds buf right_bounds)

let prune ~id ~reason ?group () =
  if on () then
    emit (fun buf ->
        run_field buf "prune";
        Buffer.add_string buf ",\"i\":";
        add_int buf id;
        Buffer.add_string buf ",\"rs\":";
        Telemetry.Json.escape buf reason;
        match group with
        | None -> ()
        | Some g ->
            Buffer.add_string buf ",\"g\":";
            Telemetry.Json.escape buf g)

let leaf ~id ~cls ?reason () =
  if on () then
    emit (fun buf ->
        run_field buf "leaf";
        Buffer.add_string buf ",\"i\":";
        add_int buf id;
        Buffer.add_string buf ",\"c\":";
        Telemetry.Json.escape buf cls;
        match reason with
        | None -> ()
        | Some r ->
            Buffer.add_string buf ",\"rs\":";
            Telemetry.Json.escape buf r)

let sat ~id ?(point = []) ~certified (b : bounds) =
  if on () then
    emit (fun buf ->
        run_field buf "sat";
        Buffer.add_string buf
          (Printf.sprintf ",\"i\":%d,\"crt\":%b,\"pt\":[" id certified);
        List.iteri
          (fun i (v, x) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '[';
            Telemetry.Json.escape buf v;
            Buffer.add_string buf (Printf.sprintf ",\"%h\"]" x))
          point;
        Buffer.add_string buf "],\"b\":";
        add_bounds buf b)

(* Tubes are no longer cached, but the record keeps its ["ch":false]
   field: older readers require it, and the byte format stays that of
   the journals already written. *)
let tube ~sys ~t0 ~t1 ~steps ~complete =
  if on () then
    emit (fun buf ->
        run_field buf "tube";
        Buffer.add_string buf ",\"sys\":";
        Telemetry.Json.escape buf sys;
        Buffer.add_string buf
          (Printf.sprintf ",\"t0\":\"%h\",\"t1\":\"%h\",\"n\":%d,\"cm\":%b,\"ch\":false"
             t0 t1 steps complete))

let path_event ~index ~info =
  if on () then
    emit (fun buf ->
        run_field buf "path";
        Buffer.add_string buf (Printf.sprintf ",\"p\":%d,\"info\":" index);
        Telemetry.Json.escape buf info)

let seg ~path ~index ~mode ~cached =
  if on () then
    emit (fun buf ->
        run_field buf "seg";
        Buffer.add_string buf (Printf.sprintf ",\"p\":%d,\"sg\":%d,\"m\":" path index);
        Telemetry.Json.escape buf mode;
        Buffer.add_string buf (Printf.sprintf ",\"ch\":%b" cached))

(* ------------------------------------------------------------------ *)
(* Prune-reason attribution cell                                       *)
(* ------------------------------------------------------------------ *)

type reason_cell = { mutable r : string option; mutable g : string option }

let reason_key = Domain.DLS.new_key (fun () -> { r = None; g = None })

let set_reason ?group r =
  let c = Domain.DLS.get reason_key in
  c.r <- Some r;
  c.g <- group

let clear_reason () =
  let c = Domain.DLS.get reason_key in
  c.r <- None;
  c.g <- None

let take_reason () =
  let c = Domain.DLS.get reason_key in
  let r = match c.r with Some r -> r | None -> "hc4-empty" in
  let g = c.g in
  c.r <- None;
  c.g <- None;
  (r, g)

let reset () =
  flush ();
  Mutex.lock sink_lock;
  List.iter (fun c -> c.seq <- 0) !cells;
  Buffer.clear mem;
  mem_dropped := 0;
  close_file_locked ();
  Mutex.unlock sink_lock;
  Mutex.lock run_lock;
  run_stack := [];
  Mutex.unlock run_lock;
  Atomic.set current_run 0;
  Atomic.set next_id 1;
  clear_reason ()

(* ------------------------------------------------------------------ *)
(* Reading a journal                                                   *)
(* ------------------------------------------------------------------ *)

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

module J = Telemetry.Json

exception Bad of string

let obj_fields = function J.Obj f -> f | _ -> raise (Bad "record is not an object")

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" k))

let opt_field fields k = List.assoc_opt k fields

let str = function J.Str s -> s | _ -> raise (Bad "expected a string")
let num = function J.Num f -> f | _ -> raise (Bad "expected a number")
let int_ v = int_of_float (num v)
let bool_ = function J.Bool b -> b | _ -> raise (Bad "expected a bool")

let hexf v =
  let s = str v in
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Bad (Printf.sprintf "bad float %S" s))

let bounds_of v =
  match v with
  | J.Arr items ->
      Array.of_list
        (List.map
           (function
             | J.Arr [ name; lo; hi ] -> (str name, hexf lo, hexf hi)
             | _ -> raise (Bad "bad bounds entry"))
           items)
  | _ -> raise (Bad "bounds is not an array")

let point_of v =
  match v with
  | J.Arr items ->
      List.map
        (function
          | J.Arr [ name; x ] -> (str name, hexf x)
          | _ -> raise (Bad "bad point entry"))
        items
  | _ -> raise (Bad "point is not an array")

let parse_line line =
  match J.parse line with
  | Error e -> Error (Printf.sprintf "invalid JSON: %s" e)
  | Ok v -> (
      try
        let f = obj_fields v in
        let dom = int_ (field f "d") and seq = int_ (field f "q") in
        let run () = int_ (field f "r") in
        let id () = int_ (field f "i") in
        let ev =
          match str (field f "k") with
          | "run" ->
              let flags =
                match field f "flags" with
                | J.Obj kvs -> List.map (fun (k, v) -> (k, str v)) kvs
                | _ -> raise (Bad "flags is not an object")
              in
              Run { id = run (); kind = str (field f "kind"); flags }
          | "end" ->
              End_run
                { id = run (); verdict = str (field f "v");
                  truncated = bool_ (field f "tr") }
          | "root" ->
              Root
                { run = run (); id = id ();
                  label = Option.map str (opt_field f "lbl");
                  bounds = bounds_of (field f "b") }
          | "enter" -> Enter { run = run (); id = id (); depth = int_ (field f "dep") }
          | "split" ->
              Split
                { run = run (); id = id (); var = str (field f "v");
                  heur = str (field f "h"); left = int_ (field f "l");
                  right = int_ (field f "rt"); lb = bounds_of (field f "lb");
                  rb = bounds_of (field f "rb") }
          | "prune" ->
              Prune
                { run = run (); id = id (); reason = str (field f "rs");
                  group = Option.map str (opt_field f "g") }
          | "leaf" ->
              Leaf
                { run = run (); id = id (); cls = str (field f "c");
                  reason = Option.map str (opt_field f "rs") }
          | "sat" ->
              Sat
                { run = run (); id = id (); point = point_of (field f "pt");
                  certified = bool_ (field f "crt");
                  bounds = bounds_of (field f "b") }
          | "tube" ->
              Tube
                { run = run (); sys = str (field f "sys");
                  t0 = hexf (field f "t0"); t1 = hexf (field f "t1");
                  steps = int_ (field f "n"); complete = bool_ (field f "cm") }
          | "path" -> Path { run = run (); index = int_ (field f "p"); info = str (field f "info") }
          | "seg" ->
              Seg
                { run = run (); path = int_ (field f "p"); index = int_ (field f "sg");
                  mode = str (field f "m"); cached = bool_ (field f "ch") }
          | k -> raise (Bad (Printf.sprintf "unknown record kind %S" k))
        in
        Ok { dom; seq; ev }
      with Bad msg -> Error msg)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (i + 1) acc rest
        else (
          match parse_line line with
          | Ok r -> go (i + 1) (r :: acc) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" i e))
  in
  match go 1 [] lines with
  | Error _ as e -> e
  | Ok records ->
      Ok
        (List.stable_sort
           (fun a b -> compare (a.dom, a.seq) (b.dom, b.seq))
           records)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                      *)
(* ------------------------------------------------------------------ *)

type outcome =
  | O_split
  | O_prune of string * string option
  | O_leaf of string * string option
  | O_sat of bool

type node = {
  nid : int;
  nrun : int;
  mutable bounds : bounds option;
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
  mutable roots : int list;
}

type forest = {
  f_records : record list;
  f_runs : (int, run_info) Hashtbl.t;
  mutable f_run_order : int list;
  f_nodes : (int, node) Hashtbl.t;
  f_parent : (int, int) Hashtbl.t;
  mutable f_errors : string list;
}

let err f fmt = Printf.ksprintf (fun s -> f.f_errors <- s :: f.f_errors) fmt

let get_node f run id =
  match Hashtbl.find_opt f.f_nodes id with
  | Some n -> n
  | None ->
      let n =
        { nid = id; nrun = run; bounds = None; depth = 0; entered = false;
          heur = None; var = None; kids = None; outcome = None;
          is_root = false; label = None }
      in
      Hashtbl.add f.f_nodes id n;
      n

let set_outcome f n o =
  match n.outcome with
  | Some _ -> err f "node %d: multiple outcomes recorded" n.nid
  | None -> n.outcome <- Some o

let reconstruct records =
  let f =
    { f_records = records; f_runs = Hashtbl.create 8; f_run_order = [];
      f_nodes = Hashtbl.create 1024; f_parent = Hashtbl.create 1024;
      f_errors = [] }
  in
  List.iter
    (fun { ev; _ } ->
      match ev with
      | Run { id; kind; flags } ->
          if Hashtbl.mem f.f_runs id then err f "run %d: duplicate header" id
          else begin
            Hashtbl.add f.f_runs id
              { rid = id; kind; flags; verdict = None; truncated = false;
                roots = [] };
            f.f_run_order <- id :: f.f_run_order
          end
      | End_run { id; verdict; truncated } -> (
          match Hashtbl.find_opt f.f_runs id with
          | Some r ->
              r.verdict <- Some verdict;
              r.truncated <- truncated
          | None -> err f "end of unknown run %d" id)
      | Root { run; id; label; bounds } ->
          let n = get_node f run id in
          n.is_root <- true;
          n.bounds <- Some bounds;
          n.label <- label;
          (match Hashtbl.find_opt f.f_runs run with
          | Some r -> r.roots <- id :: r.roots
          | None -> if run <> 0 then err f "root %d references unknown run %d" id run)
      | Enter { run; id; depth } ->
          let n = get_node f run id in
          n.entered <- true;
          (* the enter record's depth is exact; split-derived depths
             below are fallbacks for never-entered leaves *)
          n.depth <- depth
      | Split { run; id; var; heur; left; right; lb; rb } ->
          let n = get_node f run id in
          set_outcome f n O_split;
          n.var <- Some var;
          n.heur <- Some heur;
          n.kids <- Some (left, right);
          let l = get_node f run left and r = get_node f run right in
          l.bounds <- Some lb;
          r.bounds <- Some rb;
          if not l.entered then l.depth <- n.depth + 1;
          if not r.entered then r.depth <- n.depth + 1;
          Hashtbl.replace f.f_parent left id;
          Hashtbl.replace f.f_parent right id
      | Prune { run; id; reason; group } ->
          set_outcome f (get_node f run id) (O_prune (reason, group))
      | Leaf { run; id; cls; reason } ->
          set_outcome f (get_node f run id) (O_leaf (cls, reason))
      | Sat { run; id; certified; _ } ->
          set_outcome f (get_node f run id) (O_sat certified)
      | Tube _ | Path _ | Seg _ -> ())
    records;
  Hashtbl.iter (fun _ r -> r.roots <- List.rev r.roots) f.f_runs;
  f.f_run_order <- List.rev f.f_run_order;
  f

let runs f = List.filter_map (Hashtbl.find_opt f.f_runs) f.f_run_order
let node f id = Hashtbl.find_opt f.f_nodes id
let nodes f = Hashtbl.fold (fun _ n acc -> n :: acc) f.f_nodes []
              |> List.sort (fun a b -> compare a.nid b.nid)
let records f = f.f_records

let leaves f ~run =
  nodes f
  |> List.filter (fun n ->
         n.nrun = run
         && match n.outcome with Some O_split | None -> false | Some _ -> true)

(* ------------------------------------------------------------------ *)
(* Canonical leaf fingerprint                                          *)
(* ------------------------------------------------------------------ *)

let render_bounds (b : bounds) =
  Array.to_list b
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (v, lo, hi) -> Printf.sprintf "%s=%h:%h" v lo hi)
  |> String.concat ";"

let leaf_bounds_fingerprint bs =
  List.map render_bounds bs
  |> List.sort compare
  |> String.concat "\n"
  |> Digest.string |> Digest.to_hex

(* ------------------------------------------------------------------ *)
(* Audit                                                               *)
(* ------------------------------------------------------------------ *)

(* Run headers write flags with [string_of_bool]; a missing flag reads
   as on. *)
let flag_true flags k =
  match List.assoc_opt k flags with Some v -> v = "true" | None -> true

(* The run kinds whose searches terminate only by exhausting the tree:
   complete runs of these kinds must account for every node. *)
let completeness_enforced (r : run_info) =
  (not r.truncated)
  && (match r.kind with
     | "pave" | "synth" -> true
     | "decide" -> r.verdict = Some "unsat"
     | _ -> false)

let audit f =
  let violations = ref (List.rev f.f_errors) in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* run references *)
  let seen_unknown = Hashtbl.create 4 in
  let check_run run =
    if run <> 0 && (not (Hashtbl.mem f.f_runs run))
       && not (Hashtbl.mem seen_unknown run)
    then begin
      Hashtbl.add seen_unknown run ();
      add "records reference unknown run %d" run
    end
  in
  List.iter
    (fun { ev; _ } ->
      match ev with
      | Run _ -> ()
      | End_run { id; _ } -> check_run id
      | Root { run; _ } | Enter { run; _ } | Split { run; _ }
      | Prune { run; _ } | Leaf { run; _ } | Sat { run; _ }
      | Tube { run; _ } | Path { run; _ } | Seg { run; _ } ->
          check_run run)
    f.f_records;
  (* a run without an end record was left open: its query raised past
     it, or the journal lost its tail *)
  List.iter
    (fun (r : run_info) ->
      if Option.is_none r.verdict then add "run %d (%s): no end record" r.rid r.kind)
    (runs f);
  (* structural checks per node *)
  let sorted_bounds (b : bounds) =
    Array.to_list b |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  List.iter
    (fun n ->
      (match n.bounds with
      | None -> add "node %d (run %d): no recorded bounds" n.nid n.nrun
      | Some _ -> ());
      match n.kids with
      | None -> ()
      | Some (l, r) -> (
          if l = r then add "split %d: identical children" n.nid;
          match (Hashtbl.find_opt f.f_nodes l, Hashtbl.find_opt f.f_nodes r) with
          | None, _ | _, None -> add "split %d: missing child node" n.nid
          | Some ln, Some rn -> (
              match (ln.bounds, rn.bounds) with
              | Some lb, Some rb -> (
                  let lv = sorted_bounds lb and rv = sorted_bounds rb in
                  if
                    List.map (fun (v, _, _) -> v) lv
                    <> List.map (fun (v, _, _) -> v) rv
                  then add "split %d: children disagree on variables" n.nid
                  else begin
                    (* exactly one differing variable, adjacent there *)
                    let diffs =
                      List.combine lv rv
                      |> List.filter (fun ((_, llo, lhi), (_, rlo, rhi)) ->
                             llo <> rlo || lhi <> rhi)
                    in
                    (match diffs with
                    | [ ((v, llo, lhi), (_, rlo, rhi)) ] ->
                        if lhi <> rlo then
                          add
                            "split %d: children not adjacent on %s (left hi %h, right lo %h)"
                            n.nid v lhi rlo;
                        if not (llo < lhi && rlo < rhi) then
                          add "split %d: empty child on %s" n.nid v;
                        (match n.var with
                        | Some rv when rv <> v ->
                            add "split %d: recorded variable %s, bounds say %s"
                              n.nid rv v
                        | _ -> ())
                    | [] ->
                        add "split %d: children are identical boxes" n.nid
                    | _ ->
                        add "split %d: children differ on %d variables" n.nid
                          (List.length diffs));
                    (* the split box (join of the children) must fit in
                       the entered box — contraction only shrinks *)
                    match n.bounds with
                    | None -> ()
                    | Some pb ->
                        let pv = sorted_bounds pb in
                        if
                          List.map (fun (v, _, _) -> v) pv
                          = List.map (fun (v, _, _) -> v) lv
                        then
                          List.iter2
                            (fun (v, plo, phi) ((_, llo, _), (_, _, rhi)) ->
                              (* the split box is the children's join:
                                 [llo, rhi] on every variable (left is
                                 the lower half on the split variable,
                                 the twin elsewhere) *)
                              if llo < plo || rhi > phi then
                                add
                                  "split %d: children escape the parent box on %s"
                                  n.nid v)
                            pv (List.combine lv rv)
                        else
                          add "split %d: children disagree with parent variables"
                            n.nid
                  end)
              | _ -> add "split %d: child without bounds" n.nid)))
    (nodes f);
  (* completeness: in a complete run every node reachable from a root
     is split or terminal *)
  List.iter
    (fun (r : run_info) ->
      if completeness_enforced r then begin
        let rec walk id =
          match Hashtbl.find_opt f.f_nodes id with
          | None -> add "run %d: missing node %d" r.rid id
          | Some n -> (
              match n.outcome with
              | None ->
                  add "run %d: node %d unaccounted (no outcome recorded)"
                    r.rid n.nid
              | Some O_split -> (
                  match n.kids with
                  | Some (l, rr) ->
                      walk l;
                      walk rr
                  | None -> add "run %d: split %d without children" r.rid n.nid)
              | Some _ -> ())
        in
        List.iter walk r.roots
      end)
    (runs f);
  (* prune reasons consistent with the run header's flag snapshot *)
  List.iter
    (fun n ->
      match n.outcome with
      | Some (O_prune (reason, _)) -> (
          match Hashtbl.find_opt f.f_runs n.nrun with
          | None -> ()
          | Some r ->
              let requires flag =
                if not (flag_true r.flags flag) then
                  add
                    "run %d: node %d pruned by %s but the run's %s flag is off"
                    r.rid n.nid reason flag
              in
              (match reason with
              | "newton" | "mean-value" -> requires "newton"
              (* journals written while the affine layer existed *)
              | "affine-refute" -> requires "affine"
              | "tm-refute" -> requires "tm"
              | "cache-replay" -> requires "cache"
              | _ -> ()))
      | _ -> ())
    (nodes f);
  (* flag snapshot well-formedness: a recorded budget must be a positive
     integer (the solver writes the clamped Taylor-model budget; older
     journals the affine one) — anything else means a corrupted or
     hand-edited header *)
  List.iter
    (fun (r : run_info) ->
      List.iter
        (fun key ->
          match List.assoc_opt key r.flags with
          | None -> ()
          | Some s -> (
              match int_of_string_opt (String.trim s) with
              | Some b when b >= 1 -> ()
              | _ ->
                  add "run %d: %s flag %S is not a positive integer" r.rid
                    key s))
        [ "tm_budget"; "affine_budget" ])
    (runs f);
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Provenance report                                                   *)
(* ------------------------------------------------------------------ *)

type run_summary = {
  s_run : run_info;
  s_enters : int;
  s_splits : int;
  s_prunes : int;
  s_sats : int;
  s_leaves : (string * int) list;  (** class -> count *)
  s_reasons : (string * int) list;  (** reason -> count *)
  s_by_depth : (int * (string * int) list) list;  (** depth -> reasons *)
  s_witness : (int * int * string) list;
      (** delta-sat chain: (id, depth, split var or terminal marker) *)
  s_tubes : int;
  s_paths : int;
  s_segs : int;
}

let bump assoc k =
  match List.assoc_opt k !assoc with
  | Some n -> assoc := (k, n + 1) :: List.remove_assoc k !assoc
  | None -> assoc := (k, 1) :: !assoc

let summarize f (r : run_info) =
  let enters = ref 0 and splits = ref 0 and prunes = ref 0 and sats = ref 0 in
  let leaves_ = ref [] and reasons = ref [] in
  let by_depth : (int, (string * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  let tubes = ref 0 in
  let paths = ref 0 and segs = ref 0 in
  let depth_of id =
    match Hashtbl.find_opt f.f_nodes id with Some n -> n.depth | None -> 0
  in
  List.iter
    (fun { ev; _ } ->
      match ev with
      | Enter { run; _ } when run = r.rid -> incr enters
      | Split { run; _ } when run = r.rid -> incr splits
      | Prune { run; id; reason; _ } when run = r.rid ->
          incr prunes;
          bump reasons reason;
          let d = depth_of id in
          let cell =
            match Hashtbl.find_opt by_depth d with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.add by_depth d c;
                c
          in
          bump cell reason
      | Sat { run; _ } when run = r.rid -> incr sats
      | Leaf { run; cls; _ } when run = r.rid -> bump leaves_ cls
      | Tube { run; _ } when run = r.rid -> incr tubes
      | Path { run; _ } when run = r.rid -> incr paths
      | Seg { run; _ } when run = r.rid -> incr segs
      | _ -> ())
    f.f_records;
  (* witness chain: the sat node's root-to-leaf path *)
  let witness =
    let sat_node =
      List.find_opt
        (fun n -> match n.outcome with Some (O_sat _) -> true | _ -> false)
        (leaves f ~run:r.rid)
    in
    match sat_node with
    | None -> []
    | Some n ->
        let rec up id acc =
          let acc =
            match Hashtbl.find_opt f.f_nodes id with
            | Some nd ->
                let step =
                  match nd.outcome with
                  | Some (O_sat true) -> "delta-sat (certified)"
                  | Some (O_sat false) -> "delta-sat (interval)"
                  | _ -> (
                      match nd.var with
                      | Some v -> Printf.sprintf "split %s" v
                      | None -> "?")
                in
                (id, nd.depth, step) :: acc
            | None -> acc
          in
          match Hashtbl.find_opt f.f_parent id with
          | Some p -> up p acc
          | None -> acc
        in
        up n.nid []
  in
  {
    s_run = r;
    s_enters = !enters;
    s_splits = !splits;
    s_prunes = !prunes;
    s_sats = !sats;
    s_leaves = List.sort compare !leaves_;
    s_reasons = List.sort compare !reasons;
    s_by_depth =
      Hashtbl.fold (fun d c acc -> (d, List.sort compare !c) :: acc) by_depth []
      |> List.sort compare;
    s_witness = witness;
    s_tubes = !tubes;
    s_paths = !paths;
    s_segs = !segs;
  }

let provenance_json f =
  let buf = Buffer.create 4096 in
  let violations = audit f in
  Buffer.add_string buf "{\n  \"runs\": [";
  List.iteri
    (fun i r ->
      let s = summarize f r in
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    {\"run\": ";
      Buffer.add_string buf (string_of_int r.rid);
      Buffer.add_string buf ", \"kind\": ";
      J.escape buf r.kind;
      Buffer.add_string buf ", \"verdict\": ";
      (match r.verdict with
      | Some v -> J.escape buf v
      | None -> Buffer.add_string buf "null");
      Buffer.add_string buf (Printf.sprintf ", \"truncated\": %b" r.truncated);
      Buffer.add_string buf ", \"flags\": {";
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_string buf ", ";
          J.escape buf k;
          Buffer.add_string buf ": ";
          J.escape buf v)
        r.flags;
      Buffer.add_string buf
        (Printf.sprintf
           "}, \"boxes\": %d, \"splits\": %d, \"prunes\": %d, \"sats\": %d"
           s.s_enters s.s_splits s.s_prunes s.s_sats);
      Buffer.add_string buf ", \"leaf_classes\": {";
      List.iteri
        (fun j (c, n) ->
          if j > 0 then Buffer.add_string buf ", ";
          J.escape buf c;
          Buffer.add_string buf (Printf.sprintf ": %d" n))
        s.s_leaves;
      Buffer.add_string buf "}, \"prune_reasons\": {";
      List.iteri
        (fun j (c, n) ->
          if j > 0 then Buffer.add_string buf ", ";
          J.escape buf c;
          Buffer.add_string buf (Printf.sprintf ": %d" n))
        s.s_reasons;
      Buffer.add_string buf "}, \"prunes_by_depth\": [";
      List.iteri
        (fun j (d, rs) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "{\"depth\": %d" d);
          List.iter
            (fun (c, n) ->
              Buffer.add_string buf ", ";
              J.escape buf c;
              Buffer.add_string buf (Printf.sprintf ": %d" n))
            rs;
          Buffer.add_char buf '}')
        s.s_by_depth;
      Buffer.add_string buf "], \"witness_chain\": [";
      List.iteri
        (fun j (id, d, step) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "{\"id\": %d, \"depth\": %d, \"step\": " id d);
          J.escape buf step;
          Buffer.add_char buf '}')
        s.s_witness;
      Buffer.add_string buf
        (Printf.sprintf
           "], \"tubes\": %d, \"paths\": %d, \"segments\": %d"
           s.s_tubes s.s_paths s.s_segs);
      Buffer.add_string buf "}")
    (runs f);
  Buffer.add_string buf "\n  ],\n  \"audit\": {";
  Buffer.add_string buf
    (Printf.sprintf "\"clean\": %b, \"violations\": [" (violations = []));
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      J.escape buf v)
    violations;
  Buffer.add_string buf "]}\n}\n";
  Buffer.contents buf

let report f =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun r ->
      let s = summarize f r in
      pr "run %d (%s): verdict %s%s\n" r.rid r.kind
        (Option.value r.verdict ~default:"<none>")
        (if r.truncated then " [truncated]" else "");
      pr "  flags: %s\n"
        (String.concat ", "
           (List.map (fun (k, v) -> k ^ "=" ^ v) r.flags));
      pr "  boxes %d, splits %d, prunes %d, sat probes %d\n" s.s_enters
        s.s_splits s.s_prunes s.s_sats;
      if s.s_leaves <> [] then
        pr "  leaf classes: %s\n"
          (String.concat ", "
             (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) s.s_leaves));
      if s.s_reasons <> [] then begin
        pr "  prune reasons: %s\n"
          (String.concat ", "
             (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) s.s_reasons));
        pr "  prunes by depth:\n";
        List.iter
          (fun (d, rs) ->
            pr "    depth %2d: %s\n" d
              (String.concat ", "
                 (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) rs)))
          s.s_by_depth
      end;
      if s.s_witness <> [] then begin
        pr "  witness chain:\n";
        List.iter
          (fun (id, d, step) -> pr "    depth %2d  node %d  %s\n" d id step)
          s.s_witness
      end
      else if r.verdict = Some "unsat" then
        pr "  refutation cover: %d pruned leaves account for the whole box\n"
          s.s_prunes;
      if s.s_tubes > 0 then pr "  ODE tubes: %d\n" s.s_tubes;
      if s.s_paths > 0 then pr "  reach paths: %d, segments: %d\n" s.s_paths s.s_segs)
    (runs f);
  let violations = audit f in
  if violations = [] then pr "audit: clean\n"
  else begin
    pr "audit: %d violation(s)\n" (List.length violations);
    List.iter (fun v -> pr "  - %s\n" v) violations
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* DOT export                                                          *)
(* ------------------------------------------------------------------ *)

let to_dot ?(max_nodes = 400) f =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph search {\n  node [shape=box, fontsize=9];\n";
  let emitted = Hashtbl.create 256 in
  let count = ref 0 in
  let queue = Queue.create () in
  List.iter
    (fun (r : run_info) -> List.iter (fun id -> Queue.add id queue) r.roots)
    (runs f);
  while (not (Queue.is_empty queue)) && !count < max_nodes do
    let id = Queue.pop queue in
    if not (Hashtbl.mem emitted id) then begin
      Hashtbl.add emitted id ();
      incr count;
      (match Hashtbl.find_opt f.f_nodes id with
      | None -> ()
      | Some n ->
          let label, color =
            match n.outcome with
            | Some (O_prune (r, _)) -> (Printf.sprintf "%d\\n%s" id r, "lightcoral")
            | Some (O_leaf (c, _)) -> (Printf.sprintf "%d\\n%s" id c, "lightyellow")
            | Some (O_sat _) -> (Printf.sprintf "%d\\ndelta-sat" id, "palegreen")
            | Some O_split ->
                ( Printf.sprintf "%d\\nsplit %s"
                    id (Option.value n.var ~default:"?"),
                  "white" )
            | None -> (Printf.sprintf "%d\\n?" id, "lightgray")
          in
          Buffer.add_string buf
            (Printf.sprintf "  n%d [label=\"%s\", style=filled, fillcolor=%s];\n"
               id label color);
          match n.kids with
          | Some (l, r) ->
              Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id l);
              Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id r);
              Queue.add l queue;
              Queue.add r queue
          | None -> ())
    end
  done;
  if not (Queue.is_empty queue) then
    Buffer.add_string buf
      (Printf.sprintf
         "  truncated [label=\"... truncated at %d nodes\", shape=plaintext];\n"
         max_nodes);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Live progress heartbeat                                             *)
(* ------------------------------------------------------------------ *)

module Progress = struct
  type t = { stop_flag : bool Atomic.t; dom : unit Domain.t }

  let counter counters name =
    match List.assoc_opt name counters with Some v -> v | None -> 0

  let sum_suffix counters suffix =
    List.fold_left
      (fun acc (name, v) ->
        if String.length name > String.length suffix
           && String.sub name
                (String.length name - String.length suffix)
                (String.length suffix)
              = suffix
        then acc + v
        else acc)
      0 counters

  let render ~budget ~boxes ~rate counters =
    let prunes =
      counter counters "icp.decide.prunings" + counter counters "icp.pave.prunings"
    in
    let hits = sum_suffix counters ".hits" in
    let misses = sum_suffix counters ".misses" in
    let cache =
      if hits + misses = 0 then "-"
      else Printf.sprintf "%.0f%%" (100.0 *. float hits /. float (hits + misses))
    in
    let budget_s =
      match budget with
      | None -> "-"
      | Some total -> string_of_int (Stdlib.max 0 (total - boxes))
    in
    Printf.sprintf
      "progress: boxes=%d (%.0f/s) prunings=%d cache-hit=%s budget-left=%s"
      boxes rate prunes cache budget_s

  let start ?(interval = 0.5) ?budget () =
    let stop_flag = Atomic.make false in
    let dom =
      Domain.spawn (fun () ->
          let last_boxes = ref 0 in
          let last_t = ref (Unix.gettimeofday ()) in
          let last_line = ref "" in
          let tick ~final () =
            let counters = Telemetry.Metrics.counters () in
            let boxes =
              counter counters "icp.decide.boxes"
              + counter counters "icp.pave.boxes"
            in
            let now = Unix.gettimeofday () in
            let dt = now -. !last_t in
            let rate =
              if dt <= 0.0 then 0.0 else float (boxes - !last_boxes) /. dt
            in
            last_boxes := boxes;
            last_t := now;
            let line = render ~budget ~boxes ~rate counters in
            if final || (line <> !last_line && boxes > 0) then begin
              last_line := line;
              Printf.eprintf "%s\n%!" line
            end
          in
          let rec loop () =
            if not (Atomic.get stop_flag) then begin
              (* sleep in short slices so stop is prompt *)
              let slices = Stdlib.max 1 (int_of_float (interval /. 0.05)) in
              let rec nap i =
                if i > 0 && not (Atomic.get stop_flag) then begin
                  Unix.sleepf 0.05;
                  nap (i - 1)
                end
              in
              nap slices;
              if not (Atomic.get stop_flag) then tick ~final:false ();
              loop ()
            end
          in
          loop ();
          tick ~final:true ())
    in
    { stop_flag; dom }

  let stop t =
    Atomic.set t.stop_flag true;
    Domain.join t.dom
end
