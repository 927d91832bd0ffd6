(** Plain-text report rendering shared by the examples, the CLI, and the
    bench harness: headings, key-value blocks, aligned tables. *)

type cell = string

type item =
  | Heading of string
  | Text of string
  | Kv of (string * string) list
  | Table of { header : cell list; rows : cell list list }
  | Rule

type t = item list

val heading : string -> item
val text : ('a, unit, string, item) format4 -> 'a
val kv : (string * string) list -> item
val table : header:cell list -> cell list list -> item

val rule : item

val cellf : ('a, unit, string) format -> 'a
(** Formatted cell. *)

val pp : t Fmt.t
val print : t -> unit
val to_string : t -> string

val to_json : t -> string
(** The same report as a JSON array of items ([{"type":"kv","pairs":…}],
    …) for machine-readable consumers of the key/value plumbing. *)
