(* The eight settings of the Newton, affine and Taylor-model switches.
   Tests pin them through the overrides, so a test sees the same layers
   under every BIOMC_NO_* leg. *)

type t = bool * bool * bool  (** newton, affine, tm *)

let settings : t list =
  List.concat_map
    (fun newton ->
      List.concat_map
        (fun affine -> List.map (fun tm -> (newton, affine, tm)) [ true; false ])
        [ true; false ])
    [ true; false ]

let with_layers ((newton, affine, tm) : t) f =
  Icp.Deriv.set_enabled newton;
  Interval.Affine.set_enabled affine;
  Interval.Tm.set_enabled tm;
  Fun.protect f ~finally:(fun () ->
      Icp.Deriv.clear_enabled_override ();
      Interval.Affine.clear_enabled_override ();
      Interval.Tm.clear_enabled_override ())

let name ((newton, affine, tm) : t) =
  Printf.sprintf "newton=%b affine=%b tm=%b" newton affine tm
