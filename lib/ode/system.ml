(* ODE systems d x_i / dt = f_i(x, p, t) over L_RF terms.

   A system names its state variables and parameters explicitly; the
   right-hand sides may mention state variables, parameters, and the
   reserved time variable "t".  Validation happens at construction, so
   integrators can assume well-formedness. *)

module SSet = Expr.Term.SSet

let time_var = "t"

type t = {
  vars : string list;  (* state variables, in storage order *)
  params : string list;  (* free parameters, in storage order *)
  rhs : (string * Expr.Term.t) list;  (* one entry per state variable *)
  mutable rhs_tape : Expr.Tape.t option;
      (* cached flat tape of the field over vars @ params @ [t]; built on
         first compile and reused by every later one (e.g. one field
         per stepper).  Writing the cache twice from racing domains is
         benign: both tapes are equivalent and immutable. *)
  mutable rhs_staged : Expr.Tape.staged option;
      (* the tape's split into slots that read a state variable or t and
         slots that read only constants and parameters; built with the
         tape's first compile, racing writes benign as above *)
  mutable digest : string option;
      (* structural digest of (vars, params, rhs), built on first use;
         racing writes are benign for the same reason as [rhs_tape] *)
}

let vars s = s.vars
let params s = s.params
let rhs s = s.rhs
let dim s = List.length s.vars

let rhs_of s x =
  match List.assoc_opt x s.rhs with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "System.rhs_of: no equation for %S" x)

let create ~vars ~params ~rhs =
  let var_set = SSet.of_list vars in
  let param_set = SSet.of_list params in
  if SSet.cardinal var_set <> List.length vars then
    invalid_arg "System.create: duplicate state variable";
  if SSet.cardinal param_set <> List.length params then
    invalid_arg "System.create: duplicate parameter";
  (match SSet.choose_opt (SSet.inter var_set param_set) with
  | Some x -> invalid_arg (Printf.sprintf "System.create: %S is both state and parameter" x)
  | None -> ());
  if SSet.mem time_var var_set || SSet.mem time_var param_set then
    invalid_arg "System.create: \"t\" is reserved for time";
  List.iter
    (fun v ->
      if not (List.mem_assoc v rhs) then
        invalid_arg (Printf.sprintf "System.create: missing equation for %S" v))
    vars;
  List.iter
    (fun (v, term) ->
      if not (SSet.mem v var_set) then
        invalid_arg (Printf.sprintf "System.create: equation for non-state %S" v);
      SSet.iter
        (fun x ->
          if
            not
              (SSet.mem x var_set || SSet.mem x param_set || String.equal x time_var)
          then
            invalid_arg
              (Printf.sprintf "System.create: unbound name %S in equation for %S" x v))
        (Expr.Term.free_vars term))
    rhs;
  (* Order equations by variable order. *)
  let rhs = List.map (fun v -> (v, List.assoc v rhs)) vars in
  { vars; params; rhs; rhs_tape = None; rhs_staged = None; digest = None }

(* Parse a system from (var, rhs-string) pairs. *)
let of_strings ~vars ~params ~rhs =
  create ~vars ~params ~rhs:(List.map (fun (v, s) -> (v, Expr.Parse.term s)) rhs)

(* Fix parameters to values, yielding a parameter-free system. *)
let bind_params env s =
  let bindings = List.map (fun (p, v) -> (p, Expr.Term.const v)) env in
  let remaining = List.filter (fun p -> not (List.mem_assoc p env)) s.params in
  {
    vars = s.vars;
    params = remaining;
    rhs = List.map (fun (v, t) -> (v, Expr.Term.subst bindings t)) s.rhs;
    rhs_tape = None;
    rhs_staged = None;
    digest = None;
  }

(* The field's flat tape over vars @ params @ [t], compiled on demand. *)
let rhs_tape s =
  match s.rhs_tape with
  | Some tp -> tp
  | None ->
      let tp =
        Expr.Tape.compile
          ~vars:(s.vars @ s.params @ [ time_var ])
          (List.map snd s.rhs)
      in
      s.rhs_tape <- Some tp;
      tp

(* The tape split for one trajectory: state variables and t change per
   call, parameters are fixed when the field is compiled. *)
let rhs_staged s =
  match s.rhs_staged with
  | Some st -> st
  | None ->
      let n = List.length s.vars and np = List.length s.params in
      let st = Expr.Tape.stage (rhs_tape s) ~dynamic:(fun i -> i < n || i = n + np) in
      s.rhs_staged <- Some st;
      st

(* Structural digest of the system (state order, parameter order, and
   every right-hand side with exact float rendering): equal digests imply
   identical dynamics, so they key the segment and verdict caches
   soundly across independently constructed copies of one model. *)
let digest s =
  match s.digest with
  | Some d -> d
  | None ->
      let buf = Buffer.create 256 in
      List.iter (fun v -> Buffer.add_string buf v; Buffer.add_char buf ';') s.vars;
      Buffer.add_char buf '|';
      List.iter (fun p -> Buffer.add_string buf p; Buffer.add_char buf ';') s.params;
      Buffer.add_char buf '|';
      List.iter
        (fun (v, t) ->
          Buffer.add_string buf v;
          Buffer.add_char buf '=';
          Expr.Term.fingerprint_acc buf t;
          Buffer.add_char buf ';')
        s.rhs;
      let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
      s.digest <- Some d;
      d

(* ---- The field, compiled for in-place evaluation ----

   The numerical steppers evaluate the field 4-6 times per step, so
   their field takes its state and time where the evaluation reads
   them: each stage's values are written straight into the field's
   input cells, and an evaluation is then a call with the output array
   only (no argument copy, no boxed time).  The parameters are set
   separately, once per trajectory.

   The cells are the staged tape's float-only workspace (see
   [Expr.Tape.stage]).  The system's cached tape makes a new field (one
   per stepper) an array allocation, and setting the parameters
   evaluates the slots that read only constants and parameters, once,
   leaving each call the slots that read a state variable or t.  A
   field owns its buffers, so it must not be used from two domains at
   once. *)

type field = {
  fsys : t;
  st : Expr.Tape.staged;
  cells : float array;
  cell_of : int array;  (* state variable i's cell; entry [dim] is t's *)
  pin : float array;
      (* the tape's inputs for [eval_static], which reads only the
         parameters' *)
}

let field s =
  let n = List.length s.vars and np = List.length s.params in
  let st = rhs_staged s in
  let tape_cells = Expr.Tape.input_cells st in
  { fsys = s; st; cells = Expr.Tape.staged_cells st;
    cell_of = Array.init (n + 1) (fun i -> tape_cells.(if i < n then i else n + np));
    pin = Array.make (n + np + 1) 0.0 }

let field_cells fld = fld.cells
let field_cell_of fld = Array.copy fld.cell_of

let bind_field fld values =
  let s = fld.fsys in
  if Array.length values <> List.length s.params then
    invalid_arg "System.bind_field: one value per parameter";
  Array.blit values 0 fld.pin (List.length s.vars) (Array.length values);
  Expr.Tape.eval_static fld.st fld.cells ~inputs:fld.pin

let eval_field fld out = Expr.Tape.eval_dynamic_into fld.st fld.cells ~out

(* The system's parameter values in [params] order, read from [env]. *)
let param_values_for ~caller s env =
  Array.of_list
    (List.map
       (fun p ->
         match List.assoc_opt p env with
         | Some v -> v
         | None -> invalid_arg (Printf.sprintf "System.%s: parameter %S not bound" caller p))
       s.params)

let param_values s env = param_values_for ~caller:"param_values" s env

(* A bound field as a write-into closure [t -> state -> out -> unit]. *)
let field_into ~caller param_env s =
  let values = param_values_for ~caller s param_env in
  let fld = field s in
  bind_field fld values;
  let n = List.length s.vars and x = fld.cells and cell = fld.cell_of in
  fun t state out ->
    for i = 0 to n - 1 do
      x.(cell.(i)) <- state.(i)
    done;
    x.(cell.(n)) <- t;
    eval_field fld out

let compile_into ?(param_env = []) s = field_into ~caller:"compile_into" param_env s

(* [compile_into] returning a fresh derivative array per call. *)
let compile ?(param_env = []) s =
  let f = field_into ~caller:"compile" param_env s in
  let n = List.length s.vars in
  fun t state ->
    let out = Array.make n 0.0 in
    f t state out;
    out

(* Interval evaluation of the vector field over a box binding state
   variables, parameters, and (optionally) time. *)
let eval_interval ?(time = Interval.Ia.entire) s box =
  let box = Interval.Box.set time_var time box in
  List.map (fun (v, term) -> (v, Expr.Term.eval_interval box term)) s.rhs

(* Symbolic Jacobian: matrix of ∂f_i/∂x_j in variable order. *)
let jacobian s =
  List.map
    (fun (_, fi) -> List.map (fun xj -> Expr.Term.deriv xj fi) s.vars)
    s.rhs

let pp ppf s =
  let eq ppf (v, t) = Fmt.pf ppf "d%s/dt = %a" v Expr.Term.pp t in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut eq) s.rhs
