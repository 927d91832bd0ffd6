(* SplitMix64 (Steele, Lea and Flood), so seeded test data does not
   depend on the [Random] algorithm of a given OCaml release. *)

let next st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Uniform on [0, n). *)
let int st n = Int64.(to_int (unsigned_rem (next st) (of_int n)))

(* Uniform on [0, x). *)
let float st x =
  Int64.(to_float (shift_right_logical (next st) 11)) *. 0x1p-53 *. x
