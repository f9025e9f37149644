"""Set-up and value-fingerprint children of the benchmark.

    python3 perfbench/values.py setup SPEC {structure,deformation} [--h-order N] [--jet-degree D]
    python3 perfbench/values.py fingerprint SPEC [--h-order N] [--jet-degree D] [--trace]

SPEC is a spec file or ``axb`` for the built-in worked example.

``setup`` does what a CLI invocation does before its first check and
stops: import, spec parse, and the structure build (``validate``) or the
structure and deformation build (every other command).

``fingerprint`` computes values through the public API and prints the
md5 of a canonical, order-independent form of them, with the kernel
backend for the environment stamp.  Report digests are
blind to most computed values, so this is what shows that the numbers
behind a "pass" did not change.  ``--trace`` installs the tracer's
wrappers first, which must not change the values.
"""

import argparse
import hashlib
import json
import sys
from fractions import Fraction


def build(spec_arg, what, h_order, jet_degree):
    """Build the structure or the deformation the way the CLI does."""
    from qgroupoid import DeformedEnvAlgebroid, load_spec_file
    if spec_arg == "axb":
        from qgroupoid.axb import build_axb
        return build_axb(h_order, jet_degree).dfa
    espec = load_spec_file(spec_arg)
    if h_order is not None:
        espec.h_order = h_order
    if jet_degree is not None:
        espec.jet_degree = jet_degree
    spec = espec.build_structure()
    if what == "structure":
        return spec
    tw = espec.build_twistor(spec, espec.h_order)
    return DeformedEnvAlgebroid(spec, tw, validate=False)


def canon(x):
    """A JSON-able form of an engine value that depends only on its value."""
    from qgroupoid import CPoly, EnvElement, HLaurent, HSeries
    from qgroupoid.tensorspace import TensorElement
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, CPoly):
        return sorted([list(e), str(c)] for e, c in x.terms.items() if c)
    if isinstance(x, EnvElement):
        return sorted([list(a), canon(c)] for a, c in x.terms.items())
    if isinstance(x, TensorElement):
        return sorted([[[list(g), list(a)] for g, a in k], str(c)]
                      for k, c in x.terms.items() if c)
    if isinstance(x, HSeries):
        return {"order": x.order,
                "terms": [[k, canon(c)] for k, c in enumerate(x.coeffs)
                          if not c.is_zero()]}
    if isinstance(x, HLaurent):
        return {"top": x.top,
                "terms": [[q, canon(x.coeff(q))]
                          for q in range(x.val, x.top + 1)
                          if not x.coeff(q).is_zero()]}
    if isinstance(x, dict):
        return sorted([canon(k), canon(v)] for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, str):
        return x
    raise TypeError("no canonical form for %r" % type(x))


def digest(obj):
    text = json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.md5(text.encode()).hexdigest()


def fingerprint_parts(dfa, jet_degree):
    """Values behind the reports, keyed by what they are, as md5s."""
    from qgroupoid import (
        EnvElement, HSeries, JetContext, basis_decompose, pbw_mul,
        star_product, twisted_coproduct,
    )
    from qgroupoid.deform import (
        defelem_from_env, deformed_coproduct_leg, reduce_series,
    )
    from qgroupoid.jets import (
        LEFT, RIGHT, coordinate_functional, jet_product_eval, pbw_indices,
        xi_functional,
    )
    from qgroupoid.scalars import CPoly, monomials_upto
    spec, n = dfa.spec, dfa.order
    p, m = spec.nvars, spec.rank

    def elem(alpha, gamma=None):
        coeff = CPoly.monomial(p, gamma) if gamma is not None else None
        return defelem_from_env(spec, EnvElement.monomial(p, m, alpha, coeff), n)

    def const(a):
        return HSeries(n, [a] + [CPoly.zero(p)] * n, CPoly.zero(p))

    parts = {}
    pbw2 = pbw_indices(m, 2)
    gammas = [(0,) * p] + [tuple(int(i == j) for i in range(p))
                           for j in range(p)]
    # PBW rewriting moves generators past coordinates and past each other,
    # so these products carry the anchor and the bracket
    parts["pbw_mul"] = [
        (a, g, b, pbw_mul(spec, EnvElement.monomial(p, m, a),
                          EnvElement.monomial(p, m, b, CPoly.monomial(p, g))))
        for a in pbw2 for g in gammas for b in pbw_indices(m, 1)]
    parts["twisted_coproduct"] = [
        (alpha, twisted_coproduct(dfa, elem(alpha))) for alpha in pbw2]
    base = monomials_upto(p, 2)
    parts["star_product"] = [
        (a, b, star_product(dfa, const(a), const(b)))
        for a in base for b in base]
    parts["basis_decompose"] = [
        (gamma, alpha, flavor, basis_decompose(dfa, elem(alpha, gamma), flavor))
        for gamma in gammas for alpha in pbw2
        for flavor in ("source", "target")]
    gens = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    parts["reduced_iterated_coproduct"] = [
        (alpha, reduce_series(dfa, deformed_coproduct_leg(
            dfa, twisted_coproduct(dfa, elem(alpha)), 0)))
        for alpha in gens]
    table = []
    for flavor in (LEFT, RIGHT):
        ctx = JetContext(dfa, flavor, jet_degree)
        funcs = [xi_functional(ctx, i) for i in range(m)] \
            + [coordinate_functional(ctx, j) for j in range(p)]
        for i, lam in enumerate(funcs):
            for j, mu in enumerate(funcs):
                for alpha in pbw_indices(m, 1):
                    table.append((flavor, i, j, alpha,
                                  jet_product_eval(ctx, lam, mu, alpha)))
    parts["jet_product_eval"] = table
    return {k: digest(v) for k, v in parts.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("spec")
    s.add_argument("what", choices=("structure", "deformation"))
    f = sub.add_parser("fingerprint")
    f.add_argument("spec")
    f.add_argument("--trace", action="store_true")
    for p in (s, f):
        p.add_argument("--h-order", type=int, default=None)
        p.add_argument("--jet-degree", type=int, default=None)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        build(args.spec, args.what, args.h_order, args.jet_degree)
        return 0
    if args.trace:
        from tracer import Tracer
        Tracer().install()
    dfa = build(args.spec, "deformation", args.h_order, args.jet_degree)
    jet_degree = args.jet_degree if args.jet_degree is not None else 2
    parts = fingerprint_parts(dfa, jet_degree)
    total = hashlib.md5(json.dumps(parts, sort_keys=True).encode()).hexdigest()
    import qgroupoid
    backend = getattr(qgroupoid, "KERNEL_BACKEND", "unknown")
    print(json.dumps({"fingerprint": total, "parts": parts,
                      "backend": backend}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
