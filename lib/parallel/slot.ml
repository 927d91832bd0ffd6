(* A value borrowed by one domain at a time; see slot.mli.  [busy] is
   the lock: the domain that sets it owns [value] until it clears it,
   and the atomic orders one owner's writes before the next owner's
   reads. *)

type 'a t = { busy : bool Atomic.t; mutable value : 'a option; fresh : unit -> 'a }

let make fresh = { busy = Atomic.make false; value = None; fresh }

let take s =
  if Atomic.compare_and_set s.busy false true then
    match s.value with
    | Some v -> v
    | None ->
        let v = s.fresh () in
        s.value <- Some v;
        v
  else s.fresh ()

let put s v = match s.value with Some w when w == v -> Atomic.set s.busy false | _ -> ()
