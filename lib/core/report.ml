(* Plain-text report rendering for the analysis tasks: the examples and
   the CLI assemble their output through this module so every tool prints
   results the same way. *)

type cell = string

type item =
  | Heading of string
  | Text of string
  | Kv of (string * string) list
  | Table of { header : cell list; rows : cell list list }
  | Rule

type t = item list

let heading s = Heading s
let text fmt = Printf.ksprintf (fun s -> Text s) fmt
let kv pairs = Kv pairs
let table ~header rows = Table { header; rows }
let rule = Rule

let cellf fmt = Printf.ksprintf Fun.id fmt

(* Column widths for an aligned table (ragged rows are tolerated). *)
let widths header rows =
  let base = Array.of_list (List.map String.length header) in
  List.iter
    (fun row ->
      List.iteri
        (fun i c ->
          if i < Array.length base then
            base.(i) <- Stdlib.max base.(i) (String.length c))
        row)
    rows;
  base

let pad width s = s ^ String.make (Stdlib.max 0 (width - String.length s)) ' '

let pp_item ppf = function
  | Heading s ->
      Fmt.pf ppf "@,== %s ==@," s
  | Text s -> Fmt.pf ppf "%s@," s
  | Kv pairs ->
      let w = List.fold_left (fun acc (k, _) -> Stdlib.max acc (String.length k)) 0 pairs in
      List.iter (fun (k, v) -> Fmt.pf ppf "  %s : %s@," (pad w k) v) pairs
  | Table { header; rows } ->
      let ws = widths header rows in
      let render_row row =
        String.concat "  "
          (List.mapi
             (fun i c -> if i < Array.length ws then pad ws.(i) c else c)
             row)
      in
      Fmt.pf ppf "  %s@," (render_row header);
      Fmt.pf ppf "  %s@,"
        (String.concat "  "
           (List.map (fun w -> String.make w '-') (Array.to_list ws)));
      List.iter (fun row -> Fmt.pf ppf "  %s@," (render_row row)) rows
  | Rule -> Fmt.pf ppf "%s@," (String.make 64 '-')

let pp ppf (t : t) = Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.nop pp_item) t

let print t = Fmt.pr "%a@." pp t

let to_string t = Fmt.str "%a" pp t

(* Machine-readable mirror of the same report: a JSON array of items,
   so --metrics-style consumers read the key/value plumbing without
   scraping the aligned text. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
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
  Buffer.contents buf

let to_json (t : t) =
  let buf = Buffer.create 1024 in
  let str s = Buffer.add_string buf (Printf.sprintf "\"%s\"" (json_escape s)) in
  let strs cells =
    Buffer.add_char buf '[';
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char buf ',';
        str c)
      cells;
    Buffer.add_char buf ']'
  in
  Buffer.add_char buf '[';
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buf ',';
      (match item with
      | Heading s ->
          Buffer.add_string buf "{\"type\":\"heading\",\"text\":";
          str s;
          Buffer.add_char buf '}'
      | Text s ->
          Buffer.add_string buf "{\"type\":\"text\",\"text\":";
          str s;
          Buffer.add_char buf '}'
      | Kv pairs ->
          Buffer.add_string buf "{\"type\":\"kv\",\"pairs\":{";
          List.iteri
            (fun j (k, v) ->
              if j > 0 then Buffer.add_char buf ',';
              str k;
              Buffer.add_char buf ':';
              str v)
            pairs;
          Buffer.add_string buf "}}"
      | Table { header; rows } ->
          Buffer.add_string buf "{\"type\":\"table\",\"header\":";
          strs header;
          Buffer.add_string buf ",\"rows\":[";
          List.iteri
            (fun j row ->
              if j > 0 then Buffer.add_char buf ',';
              strs row)
            rows;
          Buffer.add_string buf "]}"
      | Rule -> Buffer.add_string buf "{\"type\":\"rule\"}"))
    t;
  Buffer.add_char buf ']';
  Buffer.contents buf
