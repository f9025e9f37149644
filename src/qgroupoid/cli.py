"""Command-line interface.

Reports are emitted as line-delimited JSON on stdout (header record with
the truncation parameters, one record per check, one summary record) plus
a human summary on stderr; --json-only suppresses the summary.  Exit
codes: 0 pass, 1 fail, 2 indeterminate, 3 usage or parse error.  A failed
internal cross-check (``InvariantViolation``) is a failing check; any
other engine error leaves the verdict indeterminate.  Every command built
on the spec's twistor validates it once: ``twist`` reports those checks,
the others report them only when one fails, and then certify nothing else.
"""

import argparse
import sys

from .axb import axb_iso_phi, axb_relation_suite, build_axb
from .deform import (
    DeformedEnvAlgebroid, defelem_from_env, deformed_axiom_suite,
    twistor_validate,
)
from .drinfeld import (
    duality_roundtrip, hprime_member, semiclassical_cobracket,
    semiclassical_dual_bracket, vee_build, vee_semiclassical,
)
from .envelope import EnvElement
from .errors import (
    EngineError, InvariantViolation, NonIntegralError, ParseError,
    SemanticError,
)
from .jets import LEFT, RIGHT, JetContext, jet_axiom_suite
from .properties import structure_property_suite
from .report import FAIL, INDETERMINATE, PASS, Report
from .specfile import check_truncation, load_spec_file

EXIT = {"pass": 0, "fail": 1, "indeterminate": 2}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qgroupoid",
        description="exact checks for twisted enveloping algebroids and "
                    "their jet duals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("specfile", help="engine spec file")
        p.add_argument("--h-order", type=int, default=None)
        p.add_argument("--jet-degree", type=int, default=None)
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json-only", action="store_true")

    add_common(sub.add_parser("validate", help="structure and property checks"))
    add_common(sub.add_parser("twist", help="twistor and deformed axioms"))
    dual = sub.add_parser("dualize", help="jet dual axioms and relations")
    dual.add_argument("--side", choices=("left", "right"), default="left")
    add_common(dual)
    drin = sub.add_parser("drinfeld", help="rescaling functors")
    drin.add_argument("--functor", choices=("vee", "prime", "roundtrip"),
                      default="roundtrip")
    add_common(drin)
    add_common(sub.add_parser("semiclassical", help="order-h structure"))
    ex = sub.add_parser("example", help="built-in worked examples")
    ex.add_argument("name", choices=("axb",))
    add_common(ex, needs_spec=False)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the exit-code contract uses 3
        return 0 if exc.code == 0 else 3
    try:
        report = _run(args)
    except (ParseError, SemanticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except EngineError as exc:
        report = Report(args.command)
        report.record("engine", FAIL if isinstance(exc, InvariantViolation)
                      else INDETERMINATE, str(exc), None)
        _emit(report, args)
        return EXIT[report.verdict()]
    _emit(report, args)
    return EXIT[report.verdict()]


def _emit(report, args):
    sys.stdout.write(report.json_lines() + "\n")
    if not args.json_only:
        sys.stderr.write(report.human_summary() + "\n")


def _load(args):
    try:
        espec = load_spec_file(args.specfile)
    except (OSError, UnicodeDecodeError) as exc:
        raise SemanticError("cannot read spec file %s: %s" % (
            args.specfile, getattr(exc, "strerror", None) or exc)) from None
    if args.h_order is not None:
        espec.h_order = args.h_order
    if args.jet_degree is not None:
        espec.jet_degree = args.jet_degree
    if args.n_max is not None:
        espec.n_max = args.n_max
    if args.seed is not None:
        espec.seed = args.seed
    check_truncation(espec.h_order, espec.jet_degree, espec.n_max,
                     espec.pbw_degree, espec.sample_degree)
    return espec


# command: (the option its report title names, the spec fields its header
# shows); every command but validate is built on the spec's twistor
HEADERS = {
    "validate": (None, ("seed", "sample_degree")),
    "twist": (None, ("h_order", "seed")),
    "dualize": ("side", ("h_order", "jet_degree", "seed")),
    "drinfeld": ("functor", ("h_order", "n_max", "jet_degree", "seed")),
    "semiclassical": (None, ("h_order", "seed")),
}


def _run(args):
    if args.command == "example":
        n = args.h_order if args.h_order is not None else 4
        d = args.jet_degree if args.jet_degree is not None else 4
        n_max = args.n_max if args.n_max is not None else min(3, n)
        check_truncation(n, d, n_max)
        if n_max > n:
            raise SemanticError("n_max (%d) must be <= h_order (%d)"
                                % (n_max, n))
        bundle = build_axb(n, d)
        report = Report("example-axb",
                        {"h_order": n, "jet_degree": d, "n_max": n_max,
                         "seed": args.seed if args.seed is not None else 0})
        report.extend(axb_relation_suite(n, d, bundle=bundle), prefix="relations")
        report.extend(axb_iso_phi(n, d, bundle=bundle), prefix="iso")
        report.extend(duality_roundtrip(bundle.left, n_max=n_max,
                                        degree=min(d, 3)), prefix="roundtrip")
        for i in (0, 1):
            u = defelem_from_env(bundle.spec,
                                 EnvElement.gen(2, 2, i), n).shift(1)
            report.check("membership/h-d%d" % (i + 1), [u], lambda u: (
                None if hprime_member(bundle.dfa, u, n_max=n_max)
                else "rescaled generator rejected"))
        return report

    espec = _load(args)
    option, fields = HEADERS[args.command]
    title = args.command if option is None \
        else "%s-%s" % (args.command, getattr(args, option))
    report = Report(title, {f: getattr(espec, f) for f in fields})
    spec = espec.build_structure()
    if args.command == "validate":
        report.extend(structure_property_suite(
            spec, espec.seed, espec.sample_degree,
            min(espec.h_order, 2), espec.jet_degree))
        return report

    # one validation of the twistor: twist reports its checks, the others
    # only a failure, and then certify nothing else on that twistor
    dfa = DeformedEnvAlgebroid(
        spec, espec.build_twistor(spec, espec.h_order), validate=False)
    twrep = twistor_validate(dfa)
    if args.command == "twist" or not twrep.ok():
        report.extend(twrep, prefix="twistor")
        if args.command != "twist":
            return report

    if args.command == "twist":
        report.extend(deformed_axiom_suite(
            dfa, min(espec.sample_degree, 2), espec.extra_polys),
            prefix="axioms")
    elif args.command == "dualize":
        flavor = LEFT if args.side == "left" else RIGHT
        ctx = JetContext(dfa, flavor, espec.jet_degree)
        report.extend(jet_axiom_suite(ctx, min(espec.sample_degree, 2)),
                      prefix="axioms")
        v = vee_build(ctx, degree=min(espec.jet_degree, 3))
        for (na, nb), rel in sorted(v.relations.items()):
            entries = "; ".join(
                "%s: %r" % (beta, val) for beta, val in sorted(rel.table.items()))
            report.record("relation/%s-%s" % (na, nb), PASS, None,
                          {"table": entries or "0"})
    elif args.command == "drinfeld":
        ctx = JetContext(dfa, LEFT, espec.jet_degree)
        if args.functor == "vee":
            try:
                v = vee_build(ctx, degree=min(espec.jet_degree, 3))
            except NonIntegralError as exc:
                report.check("vee-integrality", [exc], str)
            else:
                dual, rep = vee_semiclassical(v)
                report.extend(rep, prefix="vee")
        elif args.functor == "prime":
            n_max = min(espec.n_max, espec.h_order)
            for i in range(spec.rank):
                u0 = defelem_from_env(spec, EnvElement.gen(
                    spec.nvars, spec.rank, i), espec.h_order)
                report.check("member/h-gen%d" % (i + 1), [u0.shift(1)],
                             lambda u: None if hprime_member(dfa, u, n_max)
                             else "rescaled generator rejected")
                report.check("nonmember/gen%d" % (i + 1), [u0], lambda u: (
                    "unrescaled generator accepted"
                    if hprime_member(dfa, u, n_max=1) else None))
        else:
            report.extend(duality_roundtrip(
                ctx, n_max=min(espec.n_max, 3),
                degree=min(espec.jet_degree, 3)))
    else:  # semiclassical, the last choice the parser allows
        dual, rep = semiclassical_cobracket(dfa)
        report.extend(rep, prefix="cobracket")
        ctxR = JetContext(dfa, RIGHT, espec.jet_degree)
        dualR, repR = semiclassical_dual_bracket(ctxR)
        report.extend(repR, prefix="dual-bracket")
        report.check("dual-bracket-matches-cobracket", [dualR], lambda d: (
            None if d.bracket == dual.bracket and d.anchor == dual.anchor
            else "right-dual structure differs"))
    return report

if __name__ == "__main__":
    sys.exit(main())
