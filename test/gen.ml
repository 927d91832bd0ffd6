(* Random formulas and boxes over x and y, drawn from a [Random.State]:
   atoms over terms of depth 1-3, alone, in a conjunction or
   disjunction of two, or as (a ∨ b) ∧ c.  Shared by the cache and ICP
   suites. *)

module I = Interval.Ia
module Box = Interval.Box
module T = Expr.Term
module F = Expr.Formula

let vars = [ "x"; "y" ]
let nvars = List.length vars

let leaf st =
  if Random.State.bool st then T.var (List.nth vars (Random.State.int st nvars))
  else T.const (Random.State.float st 4.0 -. 2.0)

let rec term st depth =
  if depth = 0 then leaf st
  else
    let sub () = term st (depth - 1) in
    match Random.State.int st 8 with
    | 0 -> T.add (sub ()) (sub ())
    | 1 -> T.sub (sub ()) (sub ())
    | 2 -> T.mul (sub ()) (sub ())
    | 3 -> T.neg (sub ())
    | 4 -> T.pow (sub ()) (1 + Random.State.int st 3)
    | 5 -> T.sin (sub ())
    | 6 -> T.min_ (sub ()) (sub ())
    | _ -> leaf st

let formula st =
  let atom () =
    F.atom (if Random.State.bool st then F.Gt else F.Ge)
      (term st (1 + Random.State.int st 3))
  in
  match Random.State.int st 4 with
  | 0 -> atom ()
  | 1 -> F.and_ [ atom (); atom () ]
  | 2 -> F.or_ [ atom (); atom () ]
  | _ -> F.and_ [ F.or_ [ atom (); atom () ]; atom () ]

let box st =
  Box.of_list
    (List.map
       (fun v ->
         let a = Random.State.float st 4.0 -. 2.0 in
         let w = Random.State.float st 2.0 in
         (v, I.make a (a +. w)))
       vars)
