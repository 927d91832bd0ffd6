(* The four settings of the Newton and Taylor-model switches.  Tests pin
   them through the overrides, so a test sees the same layers under
   every BIOMC_NO_* leg. *)

type t = bool * bool  (** newton, tm *)

let settings : t list =
  List.concat_map
    (fun newton -> List.map (fun tm -> (newton, tm)) [ true; false ])
    [ true; false ]

let with_layers ((newton, tm) : t) f =
  Icp.Deriv.set_enabled newton;
  Interval.Tm.set_enabled tm;
  Fun.protect f ~finally:(fun () ->
      Icp.Deriv.clear_enabled_override ();
      Interval.Tm.clear_enabled_override ())

let name ((newton, tm) : t) = Printf.sprintf "newton=%b tm=%b" newton tm
