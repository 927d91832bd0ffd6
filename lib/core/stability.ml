(* Stability analysis (Sec. IV-C, infinite-time part): Lyapunov-function
   synthesis through δ-decisions, plus the time-bounded robustness checks
   delegated to [Robustness].

   This is a thin policy layer over [Lyapunov.Cegis]: it tries templates
   of increasing richness (quadratic form, then even quartic, then full
   degree-4) until one is proved, mirroring how the template-based ∃∀
   method is applied in practice. *)

type report = {
  certificate : Lyapunov.Cegis.certificate option;
  template_used : string option;
  attempts : (string * Lyapunov.Cegis.outcome) list;
}

let pp_report ppf r =
  match r.certificate with
  | Some c ->
      Fmt.pf ppf "stable: V = %a (template %s, %d CEGIS iterations)" Expr.Term.pp
        c.Lyapunov.Cegis.v
        (Option.value ~default:"?" r.template_used)
        c.Lyapunov.Cegis.iterations
  | None ->
      Fmt.pf ppf "@[<v>no Lyapunov certificate found:@ %a@]"
        Fmt.(
          list ~sep:cut (fun ppf (t, o) ->
              Fmt.pf ppf "  %s: %a" t Lyapunov.Cegis.pp_outcome o))
        r.attempts

(* Prove asymptotic stability of the origin for [sys] on [region] by
   trying progressively richer templates. *)
let prove ?(inner_radius = 0.1) ?(mu = 1e-2) ?(zeta = 1e-3) ?config ~region sys =
  let vars = Ode.System.vars sys in
  let templates =
    [ ("quadratic form", Lyapunov.Template.quadratic vars);
      ("even quartic", Lyapunov.Template.even_quartic vars);
      ("full degree <= 4", Lyapunov.Template.create ~min_degree:1 ~max_degree:4 vars) ]
  in
  let rec go attempts = function
    | [] -> { certificate = None; template_used = None; attempts = List.rev attempts }
    | (name, template) :: rest -> (
        let prob =
          Lyapunov.Cegis.problem ~inner_radius ~mu ~zeta ~region ~template sys
        in
        match Lyapunov.Cegis.synthesize ?config prob with
        | Lyapunov.Cegis.Proved cert ->
            {
              certificate = Some cert;
              template_used = Some name;
              attempts = List.rev attempts;
            }
        | outcome -> go ((name, outcome) :: attempts) rest)
  in
  go [] templates

(* Cross-validate a certificate by dense sampling (defense in depth for
   reports; the δ-decision proof stands on its own).  The certificate
   carries the margin and inner radius [prove] used. *)
let validate ?samples ~region sys (cert : Lyapunov.Cegis.certificate) =
  let template = Lyapunov.Template.quadratic (Ode.System.vars sys) in
  let prob =
    Lyapunov.Cegis.problem ~inner_radius:cert.inner_radius ~region ~template sys
  in
  Lyapunov.Cegis.validate ?samples prob cert
