(* Quantifier-free L_RF formulas (Definition 1) in negation normal form.

   Atoms are of the form [t > 0] or [t >= 0]; negation is the inductively
   defined operation of the paper (it flips the relation sign and swaps
   ∧/∨), so every formula the solver sees is already in NNF.

   Three-valued interval evaluation over a box is what drives the
   branch-and-prune δ-decision search:
   - [eval_cert] answers whether the formula certainly holds / certainly
     fails for *every* point of the box;
   - [sat_possible ~delta] answers whether the δ-weakening (Definition 4)
     could still hold somewhere in the box. *)

module SSet = Term.SSet

type rel = Gt | Ge

type atom = { term : Term.t; rel : rel }

type t =
  | True
  | False
  | Atom of atom
  | And of t list
  | Or of t list

(* ---- Constructors ---- *)

let tt = True
let ff = False
let atom rel term = Atom { term; rel }

let gt a b = Atom { term = Term.sub a b; rel = Gt }
let ge a b = Atom { term = Term.sub a b; rel = Ge }
let lt a b = gt b a
let le a b = ge b a

let flatten_and fs =
  List.concat_map (function And gs -> gs | True -> [] | g -> [ g ]) fs

let flatten_or fs =
  List.concat_map (function Or gs -> gs | False -> [] | g -> [ g ]) fs

let and_ fs =
  let fs = flatten_and fs in
  if List.exists (function False -> true | _ -> false) fs then False
  else
    match fs with [] -> True | [ f ] -> f | fs -> And fs

let or_ fs =
  let fs = flatten_or fs in
  if List.exists (function True -> true | _ -> false) fs then True
  else
    match fs with [] -> False | [ f ] -> f | fs -> Or fs

(* Equality as the conjunction a - b >= 0 ∧ b - a >= 0. *)
let eq a b = and_ [ ge a b; ge b a ]

(* [t ∈ [lo, hi]] for a term. *)
let in_range t ~lo ~hi = and_ [ ge t (Term.const lo); le t (Term.const hi) ]

(* NNF negation: ¬(t > 0) = -t >= 0, ¬(t >= 0) = -t > 0. *)
let rec neg = function
  | True -> False
  | False -> True
  | Atom { term; rel = Gt } -> Atom { term = Term.neg term; rel = Ge }
  | Atom { term; rel = Ge } -> Atom { term = Term.neg term; rel = Gt }
  | And fs -> or_ (List.map neg fs)
  | Or fs -> and_ (List.map neg fs)

let imply a b = or_ [ neg a; b ]

(* ---- Structure ---- *)

let rec atoms = function
  | True | False -> []
  | Atom a -> [ a ]
  | And fs | Or fs -> List.concat_map atoms fs

let rec size = function
  | True | False -> 1
  | Atom a -> Term.size a.term
  | And fs | Or fs -> List.fold_left (fun acc f -> acc + size f) 1 fs

let fingerprint f =
  let buf = Buffer.create 128 in
  let rec go = function
    | True -> Buffer.add_char buf 'T'
    | False -> Buffer.add_char buf 'F'
    | Atom { term; rel } ->
        Buffer.add_char buf (match rel with Gt -> '>' | Ge -> 'G');
        Buffer.add_char buf '(';
        Term.fingerprint_acc buf term;
        Buffer.add_char buf ')'
    | And fs ->
        Buffer.add_char buf '&';
        Buffer.add_char buf '(';
        List.iter go fs;
        Buffer.add_char buf ')'
    | Or fs ->
        Buffer.add_char buf '|';
        Buffer.add_char buf '(';
        List.iter go fs;
        Buffer.add_char buf ')'
  in
  go f;
  Buffer.contents buf

let rec free_vars_acc acc = function
  | True | False -> acc
  | Atom a -> Term.free_vars_acc acc a.term
  | And fs | Or fs -> List.fold_left free_vars_acc acc fs

let free_vars f = free_vars_acc SSet.empty f
let free_var_list f = SSet.elements (free_vars f)

let rec map_terms fn = function
  | True -> True
  | False -> False
  | Atom a -> Atom { a with term = fn a.term }
  | And fs -> and_ (List.map (map_terms fn) fs)
  | Or fs -> or_ (List.map (map_terms fn) fs)

let subst bindings f = map_terms (Term.subst bindings) f
let rename renaming f = map_terms (Term.rename renaming) f

(* δ-weakening (Definition 4): each atom t ⋈ 0 becomes t ⋈ -δ, i.e.
   (t + δ) ⋈ 0. *)
let delta_weaken delta f =
  if delta = 0.0 then f
  else map_terms (fun t -> Term.add t (Term.const delta)) f

(* Disjunctive normal form: list of conjunctions of atoms.  Exponential in
   the worst case; the encodings this framework produces keep disjunctions
   shallow (mode choices), so DNF stays small in practice. *)
let dnf f =
  let rec go = function
    | True -> [ [] ]
    | False -> []
    | Atom a -> [ [ a ] ]
    | And fs ->
        List.fold_left
          (fun acc f ->
            let ds = go f in
            List.concat_map (fun conj -> List.map (fun d -> conj @ d) ds) acc)
          [ [] ] fs
    | Or fs -> List.concat_map go fs
  in
  go f

(* ---- Point evaluation ---- *)

let eval_atom_float lookup a =
  let v = Term.eval lookup a.term in
  match a.rel with Gt -> v > 0.0 | Ge -> v >= 0.0

let rec holds lookup = function
  | True -> true
  | False -> false
  | Atom a -> eval_atom_float lookup a
  | And fs -> List.for_all (holds lookup) fs
  | Or fs -> List.exists (holds lookup) fs

let holds_env env f =
  holds
    (fun x ->
      match List.assoc_opt x env with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Formula.holds_env: unbound variable %S" x))
    f

(* Signed distance to satisfaction at a point: >= 0 iff the formula holds
   with slack; used as a robustness metric and by SMC monitors. *)
let rec robustness lookup = function
  | True -> infinity
  | False -> neg_infinity
  | Atom a -> Term.eval lookup a.term
  | And fs -> List.fold_left (fun acc f -> Float.min acc (robustness lookup f)) infinity fs
  | Or fs -> List.fold_left (fun acc f -> Float.max acc (robustness lookup f)) neg_infinity fs

(* ---- Interval (three-valued) evaluation ---- *)

type verdict = Certain | Impossible | Unknown

let range_verdict rel i =
  let module I = Interval.Ia in
  if I.is_empty i then Impossible
  else
    match rel with
    | Gt -> if I.certainly_gt_zero i then Certain else if I.certainly_le_zero i then Impossible else Unknown
    | Ge -> if I.certainly_ge_zero i then Certain else if I.certainly_lt_zero i then Impossible else Unknown

let eval_atom_interval box a = range_verdict a.rel (Term.eval_interval box a.term)

(* The certification recursion, parameterized on the atom evaluator so
   callers can substitute a stronger-but-still-sound one (the solver's
   enclosure-assisted certifier tightens atom ranges with a
   Taylor-model forward pass before comparing against zero), and on
   any representation of the box the evaluator reads (the reach
   checker's compiled row checks pass interval arrays). *)
let rec eval_cert_with ~atom box = function
  | True -> Certain
  | False -> Impossible
  | Atom a -> atom box a
  | And fs ->
      let rec go acc = function
        | [] -> acc
        | f :: rest -> (
            match eval_cert_with ~atom box f with
            | Impossible -> Impossible
            | Unknown -> go Unknown rest
            | Certain -> go acc rest)
      in
      go Certain fs
  | Or fs ->
      let rec go acc = function
        | [] -> acc
        | f :: rest -> (
            match eval_cert_with ~atom box f with
            | Certain -> Certain
            | Unknown -> go Unknown rest
            | Impossible -> go acc rest)
      in
      go Impossible fs

let eval_cert box f = eval_cert_with ~atom:eval_atom_interval box f

(* Can the δ-weakened formula still be satisfied somewhere in the box?
   [false] is definitive (the weakened formula is unsatisfiable on the
   box); [true] only means "not refuted". *)
let rec sat_possible ~delta box f =
  let module I = Interval.Ia in
  match f with
  | True -> true
  | False -> false
  | Atom a -> (
      let i = Term.eval_interval box a.term in
      match a.rel with
      | Gt -> I.possibly_gt ~delta i
      | Ge -> I.possibly_ge ~delta i)
  | And fs -> List.for_all (sat_possible ~delta box) fs
  | Or fs -> List.exists (sat_possible ~delta box) fs

(* The witness check the δ-decision returns: does the δ-weakening hold at a
   given point?  (Definition 4 applied at a point.) *)
let holds_delta ~delta lookup f =
  let rec go = function
    | True -> true
    | False -> false
    | Atom a -> (
        let v = Term.eval lookup a.term in
        match a.rel with Gt -> v > -.delta | Ge -> v >= -.delta)
    | And fs -> List.for_all go fs
    | Or fs -> List.exists go fs
  in
  go f

(* ---- Printing ---- *)

let pp_rel ppf = function Gt -> Fmt.string ppf ">" | Ge -> Fmt.string ppf ">="

let pp_atom ppf a = Fmt.pf ppf "%a %a 0" Term.pp a.term pp_rel a.rel

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Atom a -> pp_atom ppf a
  | And fs ->
      Fmt.pf ppf "(@[<hv>%a@])" Fmt.(list ~sep:(any " /\\@ ") pp) fs
  | Or fs ->
      Fmt.pf ppf "(@[<hv>%a@])" Fmt.(list ~sep:(any " \\/@ ") pp) fs

let to_string f = Fmt.str "%a" pp f
