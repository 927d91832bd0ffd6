(** Boxes: finite maps from variable names to intervals.

    A box denotes the Cartesian product of its components; it is the state
    over which the ICP solver branches and prunes. *)

type t

(** {1 Construction} *)

val empty_map : t
(** The box with no variables (denotes the single empty tuple). *)

val of_list : (string * Ia.t) list -> t
val to_list : t -> (string * Ia.t) list
val vars : t -> string list
val cardinal : t -> int
val mem_var : string -> t -> bool

val find : string -> t -> Ia.t
(** @raise Invalid_argument if the variable is unbound. *)

val find_opt : string -> t -> Ia.t option
val set : string -> Ia.t -> t -> t
val update : string -> (Ia.t -> Ia.t) -> t -> t
val remove : string -> t -> t

(** {1 Set-theoretic structure} *)

val is_empty : t -> bool
(** True iff some component is the empty interval. *)

val equal : t -> t -> bool
val subset : t -> t -> bool
val inter : t -> t -> t
val hull : t -> t -> t

val join : t -> t -> t
(** Disjoint union over different variable sets (left-biased when a
    variable is bound in both): [join params init] is the combined box
    used as a segment-cache key. *)

(** {1 Geometry} *)

val width : t -> float
(** Maximum component width. *)

val max_dim : t -> string option * float
(** Widest variable and its width. *)

val volume : t -> float
val volume_over : string list -> t -> float
val midpoint : t -> t
val mid_env : t -> (string * float) list
(** Midpoint as a point environment, suitable for float evaluation. *)

val contains_env : (string * float) list -> t -> bool

val split : ?min_width:float -> t -> (t * t) option
(** Bisect along the widest dimension wider than [min_width]. *)

val split_var : string -> t -> t * t
val inflate : float -> t -> t

(** {1 Iteration} *)

val map : (Ia.t -> Ia.t) -> t -> t
val fold : (string -> Ia.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (string -> Ia.t -> unit) -> t -> unit
val for_all : (string -> Ia.t -> bool) -> t -> bool

(** {1 Printing} *)

val pp : t Fmt.t
val to_string : t -> string
