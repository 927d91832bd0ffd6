(* Domain-safe tracing + metrics.  See telemetry.mli for the model.

   Hot-path discipline: every probe checks one Atomic flag before doing
   anything, counters are shared Atomics (uncontended in practice: a
   fetch_and_add per event), histograms and trace events go to
   per-domain storage (Domain.DLS) so recording never takes a lock.
   Locks only guard registries (probe/counter creation, buffer
   enrollment) and snapshots. *)

let start_time = Unix.gettimeofday ()
let now_ns () = int_of_float ((Unix.gettimeofday () -. start_time) *. 1e9)

let truthy v =
  match String.lowercase_ascii (String.trim v) with
  | "" | "0" | "false" | "no" | "off" -> false
  | _ -> true

let env_metrics =
  match Sys.getenv_opt "BIOMC_TELEMETRY" with
  | Some v -> truthy v
  | None -> false

let env_switch name =
  match Sys.getenv_opt name with
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "1" | "true" | "yes" | "on" -> true
      | _ -> false)
  | None -> false

let metrics_flag = Atomic.make env_metrics
let trace_flag = Atomic.make false
let metrics_on () = Atomic.get metrics_flag
let trace_on () = Atomic.get trace_flag
let enabled () = metrics_on () || trace_on ()
let set_metrics b = Atomic.set metrics_flag b
let set_trace b = Atomic.set trace_flag b

let disable () =
  set_metrics false;
  set_trace false

module Counter = struct
  type t = { name : string; cell : int Atomic.t; always : bool }

  let lock = Mutex.create ()
  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  let make ?(always = false) name =
    Mutex.lock lock;
    let t =
      match Hashtbl.find_opt registry name with
      | Some t -> t
      | None ->
          let t = { name; cell = Atomic.make 0; always } in
          Hashtbl.add registry name t;
          t
    in
    Mutex.unlock lock;
    t

  let add t n = if t.always || metrics_on () then ignore (Atomic.fetch_and_add t.cell n)
  let incr t = add t 1
  let value t = Atomic.get t.cell
  let set t n = Atomic.set t.cell n

  let all () =
    Mutex.lock lock;
    let l = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
    Mutex.unlock lock;
    List.sort (fun a b -> compare a.name b.name) l

  let reset_all () = List.iter (fun t -> Atomic.set t.cell 0) (all ())
end

module Histogram = struct
  let nbuckets = 64

  (* Per-domain cell layout: [0..nbuckets-1] bucket counts, then total
     observation count, then the value sum. *)
  let cells_len = nbuckets + 2

  type t = {
    name : string;
    cells : int array list ref;  (* every domain's cell array, ever *)
    cells_lock : Mutex.t;
    key : int array Domain.DLS.key;
  }

  let lock = Mutex.create ()
  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    Mutex.lock lock;
    let t =
      match Hashtbl.find_opt registry name with
      | Some t -> t
      | None ->
          let cells = ref [] in
          let cells_lock = Mutex.create () in
          let key =
            Domain.DLS.new_key (fun () ->
                let c = Array.make cells_len 0 in
                Mutex.lock cells_lock;
                cells := c :: !cells;
                Mutex.unlock cells_lock;
                c)
          in
          let t = { name; cells; cells_lock; key } in
          Hashtbl.add registry name t;
          t
    in
    Mutex.unlock lock;
    t

  let bucket_index v =
    if v <= 0 then 0
    else begin
      let i = ref 0 and v = ref v in
      while !v > 0 do
        incr i;
        v := !v lsr 1
      done;
      min !i (nbuckets - 1)
    end

  let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)

  let bucket_hi i =
    if i <= 0 then 1 else if i >= nbuckets - 1 then max_int else 1 lsl i

  let observe t v =
    if metrics_on () then begin
      let c = Domain.DLS.get t.key in
      let b = bucket_index v in
      c.(b) <- c.(b) + 1;
      c.(nbuckets) <- c.(nbuckets) + 1;
      c.(nbuckets + 1) <- c.(nbuckets + 1) + max v 0
    end

  type snapshot = { count : int; total : int; buckets : (int * int * int) list }

  let snapshot t =
    Mutex.lock t.cells_lock;
    let cs = !(t.cells) in
    Mutex.unlock t.cells_lock;
    let acc = Array.make cells_len 0 in
    List.iter
      (fun c ->
        for i = 0 to cells_len - 1 do
          acc.(i) <- acc.(i) + c.(i)
        done)
      cs;
    let buckets = ref [] in
    for i = nbuckets - 1 downto 0 do
      if acc.(i) > 0 then buckets := (bucket_lo i, bucket_hi i, acc.(i)) :: !buckets
    done;
    { count = acc.(nbuckets); total = acc.(nbuckets + 1); buckets = !buckets }

  let mean s = if s.count = 0 then 0.0 else float_of_int s.total /. float_of_int s.count

  let quantile q s =
    if s.count = 0 then 0
    else begin
      let target = q *. float_of_int s.count in
      let seen = ref 0 and res = ref 0 in
      (try
         List.iter
           (fun (_, hi, n) ->
             seen := !seen + n;
             res := hi;
             if float_of_int !seen >= target then raise Stdlib.Exit)
           s.buckets
       with Stdlib.Exit -> ());
      !res
    end

  let reset t =
    Mutex.lock t.cells_lock;
    List.iter (fun c -> Array.fill c 0 cells_len 0) !(t.cells);
    Mutex.unlock t.cells_lock

  let all () =
    Mutex.lock lock;
    let l = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
    Mutex.unlock lock;
    List.sort (fun a b -> compare a.name b.name) l

  let reset_all () = List.iter reset (all ())
end

(* ------------------------------------------------------------------ *)
(* Trace event recording: per-domain ring buffers.                     *)
(* ------------------------------------------------------------------ *)

(* Probe id -> name, filled by Span.probe. *)
let probe_lock = Mutex.create ()
let probe_names : (int, string) Hashtbl.t = Hashtbl.create 32
let next_probe_id = Atomic.make 0

let ph_begin = 0
let ph_end = 1
let ph_instant = 2

type buf = {
  tid : int;
  code : int array;  (* probe id lsl 2 lor phase *)
  ts : int array;  (* ns since process start *)
  argv : float array;  (* nan = no payload *)
  cap : int;
  mutable n : int;  (* total events ever written; ring index = n mod cap *)
}

let default_capacity = Atomic.make 65536
let set_capacity c = Atomic.set default_capacity (max 16 c)
let bufs_lock = Mutex.create ()
let bufs : buf list ref = ref []

(* The buffer (and its ~1.5 MB of arrays) is only materialized the
   first time a domain records a traced event, so untraced runs pay
   nothing. *)
let buf_key =
  Domain.DLS.new_key (fun () ->
      let cap = Atomic.get default_capacity in
      let b =
        {
          tid = (Domain.self () :> int);
          code = Array.make cap 0;
          ts = Array.make cap 0;
          argv = Array.make cap nan;
          cap;
          n = 0;
        }
      in
      Mutex.lock bufs_lock;
      bufs := b :: !bufs;
      Mutex.unlock bufs_lock;
      b)

let record_into b probe_id phase t a =
  let i = b.n mod b.cap in
  b.code.(i) <- (probe_id lsl 2) lor phase;
  b.ts.(i) <- t;
  b.argv.(i) <- a;
  b.n <- b.n + 1

let record probe_id phase t a =
  record_into (Domain.DLS.get buf_key) probe_id phase t a

let all_bufs () =
  Mutex.lock bufs_lock;
  let l = !bufs in
  Mutex.unlock bufs_lock;
  List.sort (fun a b -> compare a.tid b.tid) l

module Span = struct
  type probe = { id : int; hist : Histogram.t }

  let lock = Mutex.create ()
  let registry : (string, probe) Hashtbl.t = Hashtbl.create 32

  let probe name =
    Mutex.lock lock;
    let p =
      match Hashtbl.find_opt registry name with
      | Some p -> p
      | None ->
          let id = Atomic.fetch_and_add next_probe_id 1 in
          Mutex.lock probe_lock;
          Hashtbl.replace probe_names id name;
          Mutex.unlock probe_lock;
          let p = { id; hist = Histogram.make name } in
          Hashtbl.add registry name p;
          p
    in
    Mutex.unlock lock;
    p

  type token = int

  let disabled_token = min_int

  (* When tracing, the domain's ring is fetched before the begin
     timestamp: its first fetch allocates it (48 MB at 2^21 events), and
     that must not land inside the span. *)
  let enter ?arg p =
    if not (enabled ()) then disabled_token
    else if trace_on () then begin
      let b = Domain.DLS.get buf_key in
      let t = now_ns () in
      record_into b p.id ph_begin t (match arg with Some a -> a | None -> nan);
      t
    end
    else now_ns ()

  let exit p tok =
    if tok <> disabled_token then begin
      let t = now_ns () in
      if metrics_on () then Histogram.observe p.hist (t - tok);
      if trace_on () then record p.id ph_end t nan
    end

  let with_ ?arg p f =
    let tok = enter ?arg p in
    match f () with
    | v ->
        exit p tok;
        v
    | exception e ->
        exit p tok;
        raise e

  let instant ?arg p =
    if trace_on () then
      record p.id ph_instant (now_ns ())
        (match arg with Some a -> a | None -> nan)
end

let reset () =
  Counter.reset_all ();
  Histogram.reset_all ();
  Mutex.lock bufs_lock;
  List.iter (fun b -> b.n <- 0) !bufs;
  Mutex.unlock bufs_lock

(* ------------------------------------------------------------------ *)
(* Minimal JSON: writer helpers + a recursive-descent parser used by   *)
(* the trace round-trip validator (no external JSON dependency).       *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  exception Parse_error of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then s.[!pos] else '\255' in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail "bad literal"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              (if !pos >= n then fail "truncated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char b '"'; incr pos
                 | '\\' -> Buffer.add_char b '\\'; incr pos
                 | '/' -> Buffer.add_char b '/'; incr pos
                 | 'n' -> Buffer.add_char b '\n'; incr pos
                 | 'r' -> Buffer.add_char b '\r'; incr pos
                 | 't' -> Buffer.add_char b '\t'; incr pos
                 | 'b' -> Buffer.add_char b '\b'; incr pos
                 | 'f' -> Buffer.add_char b '\012'; incr pos
                 | 'u' ->
                     if !pos + 4 >= n then fail "truncated \\u escape";
                     let code =
                       try int_of_string ("0x" ^ String.sub s (!pos + 1) 4)
                       with _ -> fail "bad \\u escape"
                     in
                     (* Only decodes the ASCII range our writer emits;
                        anything above is replaced, which is fine for
                        validation. *)
                     Buffer.add_char b
                       (if code < 0x80 then Char.chr code else '?');
                     pos := !pos + 5
                 | _ -> fail "bad escape");
              go ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      if !pos = start then fail "expected a value"
      else
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> f
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          incr pos;
          skip_ws ();
          if peek () = '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | ',' ->
                  incr pos;
                  members ()
              | '}' -> incr pos
              | _ -> fail "expected ',' or '}'"
            in
            members ();
            Obj (List.rev !fields)
          end
      | '[' ->
          incr pos;
          skip_ws ();
          if peek () = ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | ',' ->
                  incr pos;
                  elements ()
              | ']' -> incr pos
              | _ -> fail "expected ',' or ']'"
            in
            elements ();
            Arr (List.rev !items)
          end
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> Num (parse_number ())
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error "trailing garbage" else Ok v
    with Parse_error msg -> Error msg
end

module Trace = struct
  let set_capacity = set_capacity

  let events_recorded () =
    List.fold_left (fun acc b -> acc + min b.n b.cap) 0 (all_bufs ())

  let events_dropped () =
    List.fold_left (fun acc b -> acc + max 0 (b.n - b.cap)) 0 (all_bufs ())

  let probe_name id =
    Mutex.lock probe_lock;
    let n = Hashtbl.find_opt probe_names id in
    Mutex.unlock probe_lock;
    match n with Some n -> n | None -> Printf.sprintf "probe-%d" id

  (* Emit one buffer's surviving events, repairing ring-overwrite
     damage: an E whose B was overwritten is dropped, a B whose E is
     missing (overwritten, or the trace stopped mid-span) is closed at
     the buffer's final timestamp so begin/end stay balanced. *)
  let emit_buf buf pid first b =
    let add_event ~name ~ph ~ts_ns ~arg =
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf "\n  {\"name\":";
      Json.escape buf name;
      Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\"" ph);
      if ph = "i" then Buffer.add_string buf ",\"s\":\"t\"";
      Buffer.add_string buf
        (Printf.sprintf ",\"pid\":%d,\"tid\":%d,\"ts\":%.3f" pid b.tid
           (float_of_int ts_ns /. 1e3));
      (match arg with
      | Some a -> Buffer.add_string buf (Printf.sprintf ",\"args\":{\"v\":%.17g}" a)
      | None -> ());
      Buffer.add_string buf "}"
    in
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf
      (Printf.sprintf
         "\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"ts\":0,\"args\":{\"name\":\"domain-%d\"}}"
         pid b.tid b.tid);
    let start = max 0 (b.n - b.cap) in
    let last_ts = ref 0 in
    let stack = ref [] in
    for i = start to b.n - 1 do
      let idx = i mod b.cap in
      let code = b.code.(idx) in
      let id = code lsr 2 and phase = code land 3 in
      let ts_ns = b.ts.(idx) in
      let a = b.argv.(idx) in
      let arg = if Float.is_nan a then None else Some a in
      last_ts := max !last_ts ts_ns;
      let name = probe_name id in
      if phase = ph_begin then begin
        stack := name :: !stack;
        add_event ~name ~ph:"B" ~ts_ns ~arg
      end
      else if phase = ph_end then begin
        match !stack with
        | [] -> ()  (* orphan end: begin was overwritten *)
        | top :: rest ->
            stack := rest;
            add_event ~name:top ~ph:"E" ~ts_ns ~arg:None
      end
      else add_event ~name ~ph:"i" ~ts_ns ~arg
    done;
    List.iter
      (fun name -> add_event ~name ~ph:"E" ~ts_ns:!last_ts ~arg:None)
      !stack

  let to_json () =
    let pid = Unix.getpid () in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    let first = ref true in
    (* process_name metadata once *)
    (if true then begin
       Buffer.add_string buf
         (Printf.sprintf
            "\n  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"ts\":0,\"args\":{\"name\":\"biomc\"}}"
            pid);
       first := false
     end);
    List.iter (fun b -> emit_buf buf pid first b) (all_bufs ());
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf

  let write_file path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_json ()))

  type check = {
    events : int;
    begins : int;
    ends : int;
    instants : int;
    tids : int list;
    max_depth : int;
  }

  exception Invalid of string

  let validate s =
    match Json.parse s with
    | Error e -> Error ("trace is not valid JSON: " ^ e)
    | Ok doc -> (
        try
          let top =
            match doc with
            | Json.Obj fields -> fields
            | _ -> raise (Invalid "top level is not an object")
          in
          let evs =
            match List.assoc_opt "traceEvents" top with
            | Some (Json.Arr evs) -> evs
            | Some _ -> raise (Invalid "traceEvents is not an array")
            | None -> raise (Invalid "missing traceEvents")
          in
          let begins = ref 0
          and ends = ref 0
          and instants = ref 0
          and events = ref 0
          and max_depth = ref 0 in
          let tids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
          let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
          let stack_for tid =
            match Hashtbl.find_opt stacks tid with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add stacks tid r;
                r
          in
          List.iter
            (fun ev ->
              let fields =
                match ev with
                | Json.Obj f -> f
                | _ -> raise (Invalid "event is not an object")
              in
              let str k =
                match List.assoc_opt k fields with
                | Some (Json.Str s) -> s
                | _ -> raise (Invalid (Printf.sprintf "event lacks string %S" k))
              in
              let num k =
                match List.assoc_opt k fields with
                | Some (Json.Num f) -> f
                | _ -> raise (Invalid (Printf.sprintf "event lacks number %S" k))
              in
              let ph = str "ph" in
              let name = str "name" in
              ignore (num "pid");
              let tid = int_of_float (num "tid") in
              if ph <> "M" then begin
                let ts = num "ts" in
                if Float.is_nan ts || ts < 0.0 then
                  raise (Invalid "event has a bad ts")
              end;
              match ph with
              | "M" -> ()
              | "B" ->
                  incr events;
                  incr begins;
                  Hashtbl.replace tids tid ();
                  let st = stack_for tid in
                  st := name :: !st;
                  max_depth := max !max_depth (List.length !st)
              | "E" -> (
                  incr events;
                  incr ends;
                  Hashtbl.replace tids tid ();
                  let st = stack_for tid in
                  match !st with
                  | [] ->
                      raise
                        (Invalid
                           (Printf.sprintf "tid %d: end %S with no open span"
                              tid name))
                  | top :: rest ->
                      if top <> name then
                        raise
                          (Invalid
                             (Printf.sprintf
                                "tid %d: end %S does not match open span %S"
                                tid name top));
                      st := rest)
              | "i" ->
                  incr events;
                  incr instants;
                  Hashtbl.replace tids tid ()
              | _ -> raise (Invalid (Printf.sprintf "unknown phase %S" ph)))
            evs;
          Hashtbl.iter
            (fun tid st ->
              if !st <> [] then
                raise
                  (Invalid
                     (Printf.sprintf "tid %d: %d span(s) left open" tid
                        (List.length !st))))
            stacks;
          let tid_list =
            Hashtbl.fold (fun tid () acc -> tid :: acc) tids []
            |> List.sort compare
          in
          Ok
            {
              events = !events;
              begins = !begins;
              ends = !ends;
              instants = !instants;
              tids = tid_list;
              max_depth = !max_depth;
            }
        with Invalid msg -> Error msg)

  let validate_file path =
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    validate s
end

module Metrics = struct
  let counters () =
    List.map (fun (c : Counter.t) -> (c.Counter.name, Counter.value c)) (Counter.all ())

  let histograms () =
    List.filter_map
      (fun (h : Histogram.t) ->
        let s = Histogram.snapshot h in
        if s.Histogram.count = 0 then None else Some (h.Histogram.name, s))
      (Histogram.all ())

  let kvs () =
    List.filter_map
      (fun (name, v) -> if v = 0 then None else Some (name, string_of_int v))
      (counters ())

  let to_json () =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"counters\": {";
    let first = ref true in
    List.iter
      (fun (name, v) ->
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf "\n    ";
        Json.escape buf name;
        Buffer.add_string buf (Printf.sprintf ": %d" v))
      (counters ());
    Buffer.add_string buf "\n  },\n  \"histograms\": {";
    let first = ref true in
    List.iter
      (fun (name, (s : Histogram.snapshot)) ->
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf "\n    ";
        Json.escape buf name;
        Buffer.add_string buf
          (Printf.sprintf ": {\"count\": %d, \"total\": %d, \"mean\": %.3f, \"buckets\": ["
             s.Histogram.count s.Histogram.total (Histogram.mean s));
        List.iteri
          (fun i (lo, hi, n) ->
            if i > 0 then Buffer.add_string buf ", ";
            (* the top bucket's exclusive edge is max_int; clamp for JSON *)
            let hi = if hi = max_int then -1 else hi in
            Buffer.add_string buf (Printf.sprintf "[%d, %d, %d]" lo hi n))
          s.Histogram.buckets;
        Buffer.add_string buf "]}")
      (histograms ());
    Buffer.add_string buf "\n  }\n}\n";
    Buffer.contents buf

  (* Prometheus text exposition (version 0.0.4).  Metric names are the
     registry names with every non-[a-zA-Z0-9_] mapped to '_' and a
     "biomc_" prefix; histograms are exported as summaries (quantiles
     are upper bucket edges, like {!Histogram.quantile}) because the
     log-bucket edges are process-internal. *)
  let prom_name name =
    let b = Buffer.create (String.length name + 6) in
    Buffer.add_string b "biomc_";
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
        | _ -> Buffer.add_char b '_')
      name;
    Buffer.contents b

  let to_prometheus () =
    let buf = Buffer.create 2048 in
    List.iter
      (fun (name, v) ->
        let n = prom_name name in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
        Buffer.add_string buf (Printf.sprintf "%s %d\n" n v))
      (counters ());
    List.iter
      (fun (name, (s : Histogram.snapshot)) ->
        let n = prom_name name in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
        List.iter
          (fun q ->
            Buffer.add_string buf
              (Printf.sprintf "%s{quantile=\"%g\"} %d\n" n q
                 (Histogram.quantile q s)))
          [ 0.5; 0.9; 0.99 ];
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %d\n%s_count %d\n" n s.Histogram.total n
             s.Histogram.count))
      (histograms ());
    Buffer.contents buf
end
