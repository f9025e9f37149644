"""The standard worked example: polynomial differential operators on two
variables, twisted by the exponential twistor built from theta = x1 d1.

The base carries the solvable two-dimensional Poisson structure
{x1, x2} = x1; the twist quantizes it.  Generators of the rescaled duals
are named after the classical coordinates (e1, e2) and the rescaled
augmentation functionals (dv1, dv2); every identity of the example is
checked identity-for-identity in exact arithmetic at the truncation.

The identities of a rescaled dual are one table (``_identities``).  The
relation suite reads it for each dual on its own generators.  The
isomorphism phi(e_i) = e_i + h dv_i, phi(dv_i) = -dv_i from the left dual
onto the right one is checked by reading the left dual's table on phi's
images in the right dual.
"""

from fractions import Fraction
from itertools import product
from math import factorial

from .deform import DeformedEnvAlgebroid, exp_twistor, twistor_validate
from .envelope import EnvElement
from .errors import ConfigError
from .jets import (
    LEFT, RIGHT, JetContext, JetElement, coordinate_functional,
    jet_commutator, jet_coproduct_functional, jet_counit, jet_product,
    jet_source_target, jets_equal, table_sum, tensor_functional_from_pair,
    tensor_tables_equal, unit_functional, xi_functional,
)
from .lierinehart import LieRinehartSpec
from .report import Report
from .scalars import CPoly
from .series import HLaurent
from .tensorspace import TensorElement

__all__ = ["build_axb", "axb_relation_suite", "axb_iso_phi", "axb_spec"]


def axb_spec():
    """Derivations of Q[x1, x2] on the coordinate vector fields."""
    one, zero = CPoly.one(2), CPoly.zero(2)
    return LieRinehartSpec(2, 2, {}, [[one, zero], [zero, one]], name="axb")


def axb_exponent(spec):
    theta = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    d2 = EnvElement.gen(2, 2, 1)
    r = TensorElement.of(theta, d2) - TensorElement.of(d2, theta)
    return r.scale(Fraction(1, 2))


class AxbBundle:
    def __init__(self, spec, dfa, left, right):
        self.spec = spec
        self.dfa = dfa
        self.left = left
        self.right = right


def build_axb(h_order, jet_degree):
    if h_order < 1 or jet_degree < 1:
        raise ConfigError("h order and jet degree must be >= 1")
    spec = axb_spec()
    tw = exp_twistor(spec, axb_exponent(spec), h_order)
    dfa = DeformedEnvAlgebroid(spec, tw, validate=False)
    return AxbBundle(spec, dfa,
                     JetContext(dfa, LEFT, jet_degree),
                     JetContext(dfa, RIGHT, jet_degree))


def _expected_table_value(ctx, sign, a, b):
    """Case table for the product of the two rescaled-dual generators."""
    zero_p = ctx.zero_poly()
    n = ctx.order
    if a >= 2 or b >= 2 or (a, b) in ((0, 1), (0, 0)):
        return HLaurent.zero_upto(n, zero_p)
    if (a, b) == (1, 1):
        return HLaurent.const(CPoly.one(2), n, zero_p)
    # (a, b) == (1, 0): +- h/2
    val = HLaurent.const(CPoly.const(2, Fraction(sign, 2)), n, zero_p)
    return val.shift(1)


def _identities(ctx, flavor, dv, e):
    """The identities of the worked example's ``flavor`` rescaled dual,
    taken on the functionals ``dv`` = (dv1, dv2) and ``e`` = (e1, e2) of
    the context ``ctx``: [(name, ok, witness)] for the commutator table,
    the dual source and target of x_i, the coproducts of e_i and dv_i and
    the counits.

    With ``flavor`` the context's own, the functionals are its generators
    and the table is that dual's.  With the left flavor on the right
    context and phi's images phi(e_i) = e_i + h dv_i, phi(dv_i) = -dv_i,
    the table says that phi carries the left dual's identities onto the
    right dual, generator by generator.  The one entry that is not read off
    at once is the target: the left dual's target of x_i is e_i + h dv_i,
    which on phi's images is phi(e_i) + h phi(dv_i) = e_i + h dv_i - h dv_i
    = e_i, the right dual's target of x_i.
    """
    sign = -1 if flavor == LEFT else 1
    left = flavor == LEFT
    (dv1, dv2), (e1, e2) = dv, e
    zero = JetElement(ctx.flavor)
    out = [("relation-" + name, jets_equal(ctx, jet_commutator(ctx, a, b), want),
            "commutator table differs") for name, a, b, want in (
        ("dv1-dv2", dv1, dv2, dv1.scale(sign)),
        ("dv1-e2", dv1, e2, e1.scale(sign)),
        ("e1-e2", e1, e2, e1.shift(1).scale(-sign)),
        ("dv1-e1", dv1, e1, zero),
        ("dv2-e2", dv2, e2, zero),
        ("dv2-e1", dv2, e1, e1.scale(-sign)))]
    for i in range(2):
        src, tgt = jet_source_target(ctx, CPoly.var(2, i))
        shifted = e[i].add(dv[i].shift(1))
        want_s, want_t = (e[i], shifted) if left else (shifted, e[i])
        out += [("dual-source-x%d" % (i + 1), jets_equal(ctx, src, want_s),
                 "dual source table differs"),
                ("dual-target-x%d" % (i + 1), jets_equal(ctx, tgt, want_t),
                 "dual target table differs")]
    eps = unit_functional(ctx)
    for i in range(2):
        pair = (eps, e[i]) if left else (e[i], eps)
        primitive = table_sum((tensor_functional_from_pair(ctx, dv[i], eps),
                               tensor_functional_from_pair(ctx, eps, dv[i])))
        want = HLaurent.const(CPoly.var(2, i), ctx.order, ctx.zero_poly())
        out += [("coproduct-e%d" % (i + 1), tensor_tables_equal(
                    ctx, jet_coproduct_functional(ctx, e[i]),
                    tensor_functional_from_pair(ctx, *pair)),
                 "coproduct table differs"),
                ("coproduct-dv%d-primitive" % (i + 1), tensor_tables_equal(
                    ctx, jet_coproduct_functional(ctx, dv[i]), primitive),
                 "not primitive"),
                ("counit-dv%d" % (i + 1), jet_counit(ctx, dv[i]).is_zero(),
                 "counit of dv%d nonzero" % (i + 1)),
                ("counit-e%d" % (i + 1), jet_counit(ctx, e[i]).eq_to_order(want),
                 "counit of e%d wrong" % (i + 1))]
    return out


def _generators(ctx):
    """(dv1, dv2), (e1, e2) of the context's rescaled dual."""
    return ([xi_functional(ctx, i).shift(-1) for i in range(2)],
            [coordinate_functional(ctx, i) for i in range(2)])


def axb_relation_suite(h_order=4, jet_degree=4, bundle=None, table_range=3):
    """Every displayed identity of the worked example, both dual flavors."""
    bundle = bundle or build_axb(h_order, jet_degree)
    report = Report("axb-relations",
                    {"h_order": h_order, "jet_degree": jet_degree})

    report.check("twistor-valid",
                 [twistor_validate(bundle.dfa)],
                 Report.first_failure)

    # displayed source/target series on the base variables
    x1 = CPoly.var(2, 0)
    sF1 = bundle.dfa.source(x1)
    tF1 = bundle.dfa.target(x1)

    def series_failure(n):
        want = EnvElement(2, 2, {(0, n): x1 * Fraction(1, 2 ** n * factorial(n))})
        if sF1.coeffs[n] != want:
            return "source series on x1 differs at h^%d" % n
        if tF1.coeffs[n] != (want if n % 2 == 0 else -want):
            return "target series on x1 differs at h^%d" % n

    report.check("source-target-series-x1", range(h_order + 1), series_failure)

    x2 = CPoly.var(2, 1)
    x2_0 = EnvElement.from_poly(2, x2)
    half_theta = EnvElement(2, 2, {(1, 0): x1}).scale(Fraction(1, 2))

    def x2_failure(x2):
        sF2, tF2 = bundle.dfa.source(x2).coeffs, bundle.dfa.target(x2).coeffs
        if sF2[:2] != (x2_0, -half_theta) or tF2[:2] != (x2_0, half_theta) \
                or not all(c.is_zero() for c in sF2[2:] + tF2[2:]):
            return "series on x2 differ"

    report.check("source-target-series-x2", [x2], x2_failure)

    ctx = bundle.left
    de1, de2 = xi_functional(ctx, 0), xi_functional(ctx, 1)
    tables = (("de1de2", jet_product(ctx, de1, de2, 2 * table_range), -1),
              ("de2de1", jet_product(ctx, de2, de1, 2 * table_range), +1))
    for a, b in product(range(table_range + 1), repeat=2):
        for name, table, sign in tables:
            want = _expected_table_value(ctx, sign, a, b)
            report.check("left/pairing-%s-%d%d" % (name, a, b),
                         [table.value(ctx, (a, b))],
                         lambda got: None if got.eq_to_order(want)
                         else "got %r, want %r" % (got, want))

    for ctx in (bundle.left, bundle.right):
        dv, e = _generators(ctx)
        for name, ok, witness in _identities(ctx, ctx.flavor, dv, e):
            report.check("%s/%s" % (ctx.flavor, name), [ok],
                         lambda ok: None if ok else witness)
    return report


def axb_iso_phi(h_order=4, jet_degree=4, bundle=None):
    """Generator-level transport under phi(e_i) = e_i + h dv_i,
    phi(dv_i) = -dv_i, from the left rescaled dual onto the right one:
    the left dual's identity table (``_identities``) taken on phi's images
    in the right dual, each check under its transport name."""
    bundle = bundle or build_axb(h_order, jet_degree)
    report = Report("axb-iso-phi", {"h_order": h_order, "jet_degree": jet_degree})
    ctx = bundle.right
    dv, e = _generators(ctx)
    phi_dv = [d.neg() for d in dv]
    phi_e = [e[i].add(dv[i].shift(1)) for i in range(2)]      # e_i + h dv_i
    holds = {name: ok for name, ok, _ in _identities(ctx, LEFT, phi_dv, phi_e)}

    # (transport name, the identities it reads, witness)
    renames = [("transport-" + name[len("relation-"):], [name],
                "transported relation differs")
               for name in holds if name.startswith("relation-")]
    for i in (1, 2):
        renames += [("intertwine-source-x%d" % i, ["dual-source-x%d" % i],
                     "phi(source image) differs"),
                    ("intertwine-target-x%d" % i, ["dual-target-x%d" % i],
                     "phi(target image) differs")]
    renames += [("coproduct-transport-%d" % i,
                 ["coproduct-e%d" % i, "coproduct-dv%d-primitive" % i],
                 "coproduct transport differs") for i in (1, 2)]
    renames += [("counit-transport-%d" % i, ["counit-dv%d" % i, "counit-e%d" % i],
                 "counit transport differs") for i in (1, 2)]
    for name, reads, witness in renames:
        report.check(name, [reads], lambda reads: (
            None if all(holds[r] for r in reads) else witness))
    return report
