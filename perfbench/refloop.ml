(* Fixed stdlib reference loop, timed in its own process right before and
   after each repetition.

   The machine's speed moves between regimes that last seconds: a query
   timed in a slow regime is slow for reasons the program does not
   control.  Dividing the query's wall time by the time of a reference
   loop run at nearly the same moment cancels much of that drift,
   provided the loop is slowed by the same things as the query.  The
   loop has four parts:

   - float and integer arithmetic with no allocation (a chaotic logistic
     map mixed with an integer LCG);
   - the same kind of arithmetic on freshly allocated interval-like
     records, with a working list kept alive across minor collections so
     survivors are promoted and the major GC runs, the profile of
     interval, Taylor-model and enclosure code;
   - a streaming multiply-add over two 32 MB float arrays, which depends
     on the memory bandwidth the machine's other tenants leave;
   - a small stack-machine interpreter, whose indirect branches are the
     profile of the compiled expression tapes.

   Each part alone tracked some workloads and not others; their sum
   tracked all of them (see README.md).  None chases pointers through a
   large table: such a reference tracked the queries worse.  Every
   part's result is checked, so the loop cannot be optimized away or
   silently change. *)

let arith () =
  let x = ref 0.3 and h = ref 0x2545F491 and acc = ref 0.0 in
  for _ = 1 to 7_000_000 do
    x := 3.99 *. !x *. (1.0 -. !x);
    h := ((!h * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc +. (!x *. float_of_int (!h land 1023))
  done;
  !acc

type iv = { lo : float; hi : float }

let alloc () =
  let acc = ref 0.0 in
  for i = 1 to 150 do
    let l =
      List.init 5000 (fun j ->
          let x = float_of_int (((i * 7919) + j) land 1023) in
          { lo = x; hi = x +. 1.0 })
    in
    let m = List.map (fun r -> { lo = (r.lo *. r.hi) -. r.hi; hi = (r.lo *. r.hi) +. r.lo }) l in
    acc := List.fold_left (fun a r -> a +. (r.hi -. r.lo)) !acc m
  done;
  !acc

let stream () =
  let n = 1 lsl 22 in
  let a = Array.make n 1.0 and b = Array.make n 2.0 in
  let acc = ref 0.0 in
  for _ = 1 to 3 do
    for i = 0 to n - 1 do
      acc := !acc +. (a.(i) *. b.(i));
      a.(i) <- a.(i) +. 1e-9
    done
  done;
  !acc

type op = Push of float | Add | Mul | Sub | Dup | Swap | Pop

let interp () =
  let prog =
    [| Push 0.5; Dup; Mul; Push 0.25; Add; Dup; Push 3.0; Mul; Swap; Sub; Pop; Push 1.0; Add; Pop |]
  in
  let st = Array.make 8 0.0 and sp = ref 0 and acc = ref 0.0 in
  for it = 1 to 600_000 do
    st.(0) <- float_of_int (it land 7);
    sp := 1;
    Array.iter
      (function
        | Push x ->
            st.(!sp) <- x;
            incr sp
        | Add ->
            decr sp;
            st.(!sp - 1) <- st.(!sp - 1) +. st.(!sp)
        | Mul ->
            decr sp;
            st.(!sp - 1) <- st.(!sp - 1) *. st.(!sp)
        | Sub ->
            decr sp;
            st.(!sp - 1) <- st.(!sp - 1) -. st.(!sp)
        | Dup ->
            st.(!sp) <- st.(!sp - 1);
            incr sp
        | Swap ->
            let t = st.(!sp - 1) in
            st.(!sp - 1) <- st.(!sp - 2);
            st.(!sp - 2) <- t
        | Pop -> decr sp)
      prog;
    acc := !acc +. st.(0)
  done;
  !acc

(* Each part with its expected result. *)
let parts =
  [ ("arith", arith, 0x1.c68308ce3dfe6p+30);
    ("alloc", alloc, 0x1.6e2b0d8p+29);
    ("stream", stream, 0x1.80000006p+24);
    ("interp", interp, 0x1.4997p+21) ]

(* Seconds taken by one run of every part; raises if a result moved. *)
let time () =
  let t0 = Unix.gettimeofday () in
  let results = List.map (fun (name, f, want) -> (name, f (), want)) parts in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (name, got, want) ->
      if not (Float.equal got want) then
        failwith (Printf.sprintf "reference loop part %s returned %h, expected %h" name got want))
    results;
  dt
