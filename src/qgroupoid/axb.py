"""The standard worked example: polynomial differential operators on two
variables, twisted by the exponential twistor built from theta = x1 d1.

The base carries the solvable two-dimensional Poisson structure
{x1, x2} = x1; the twist quantizes it.  Generators of the rescaled duals
are named after the classical coordinates (e1, e2) and the rescaled
augmentation functionals (dv1, dv2); every identity of the example is
checked identity-for-identity in exact arithmetic at the truncation.
"""

from fractions import Fraction
from math import factorial

from .deform import DeformedEnvAlgebroid, exp_twistor, twistor_validate
from .envelope import EnvElement
from .errors import ConfigError
from .jets import (
    LEFT, RIGHT, JetContext, JetElement, coordinate_functional,
    jet_commutator, jet_coproduct_functional, jet_counit, jet_product_eval,
    jet_source_target, jets_equal, table_sum, tensor_functional_from_pair,
    tensor_tables_equal, unit_functional, xi_functional,
)
from .lierinehart import LieRinehartSpec
from .report import Check, Report
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


def _check_value(report, name, got, want):
    ok = got.eq_to_order(want)
    report.add(Check(name, ok, None if ok else "got %r, want %r" % (got, want)))


def axb_relation_suite(h_order=4, jet_degree=4, bundle=None, table_range=3):
    """Every displayed identity of the worked example, both dual flavors."""
    bundle = bundle or build_axb(h_order, jet_degree)
    report = Report("axb-relations",
                    {"h_order": h_order, "jet_degree": jet_degree})

    rep_tw = twistor_validate(bundle.spec, bundle.dfa.twistor)
    report.add(Check("twistor-valid", rep_tw.ok(), rep_tw.first_failure()))

    # displayed source/target series on the base variables
    x1 = CPoly.var(2, 0)
    sF1 = bundle.dfa.source(x1)
    tF1 = bundle.dfa.target(x1)
    def series_failures():
        for n in range(h_order + 1):
            want = EnvElement(2, 2, {(0, n): x1 * Fraction(1, 2 ** n * factorial(n))})
            if sF1.coeffs[n] != want:
                yield "source series on x1 differs at h^%d" % n
            if tF1.coeffs[n] != (want if n % 2 == 0 else -want):
                yield "target series on x1 differs at h^%d" % n

    report.check("source-target-series-x1", series_failures())

    x2 = CPoly.var(2, 1)
    theta = EnvElement(2, 2, {(1, 0): x1})
    sF2 = bundle.dfa.source(x2)
    tF2 = bundle.dfa.target(x2)
    half_theta = theta.scale(Fraction(1, 2))
    ok = sF2.coeffs[0] == EnvElement.from_poly(2, x2) \
        and sF2.coeffs[1] == -half_theta \
        and all(c.is_zero() for c in sF2.coeffs[2:]) \
        and tF2.coeffs[0] == EnvElement.from_poly(2, x2) \
        and tF2.coeffs[1] == half_theta \
        and all(c.is_zero() for c in tF2.coeffs[2:])
    report.add(Check("source-target-series-x2", ok, "series on x2 differ"))

    for ctx, tag in ((bundle.left, "left"), (bundle.right, "right")):
        de1, de2 = xi_functional(ctx, 0), xi_functional(ctx, 1)
        e1, e2 = coordinate_functional(ctx, 0), coordinate_functional(ctx, 1)
        dv1, dv2 = de1.shift(-1), de2.shift(-1)
        sign = -1 if tag == "left" else 1

        if tag == "left":
            for a in range(table_range + 1):
                for b in range(table_range + 1):
                    got = jet_product_eval(ctx, de1, de2, (a, b))
                    want = _expected_table_value(ctx, -1, a, b)
                    _check_value(report, "left/pairing-de1de2-%d%d" % (a, b),
                                 got, want)
                    got = jet_product_eval(ctx, de2, de1, (a, b))
                    want = _expected_table_value(ctx, +1, a, b)
                    _check_value(report, "left/pairing-de2de1-%d%d" % (a, b),
                                 got, want)

        rels = [
            ("dv1-dv2", jet_commutator(ctx, dv1, dv2), dv1.scale(sign)),
            ("dv1-e2", jet_commutator(ctx, dv1, e2), e1.scale(sign)),
            ("e1-e2", jet_commutator(ctx, e1, e2), e1.shift(1).scale(-sign)),
            ("dv1-e1", jet_commutator(ctx, dv1, e1), JetElement(ctx.flavor)),
            ("dv2-e2", jet_commutator(ctx, dv2, e2), JetElement(ctx.flavor)),
            ("dv2-e1", jet_commutator(ctx, dv2, e1), e1.scale(-sign)),
        ]
        for name, got, want in rels:
            ok = jets_equal(ctx, got, want)
            report.add(Check("%s/relation-%s" % (tag, name), ok,
                             "commutator table differs"))

        for i, (de_i, e_i) in enumerate(((de1, e1), (de2, e2))):
            xi = CPoly.var(2, i)
            src, tgt = jet_source_target(ctx, xi)
            shifted = e_i.add(de_i)
            if tag == "left":
                ok_s = jets_equal(ctx, src, e_i)
                ok_t = jets_equal(ctx, tgt, shifted)
            else:
                ok_s = jets_equal(ctx, src, shifted)
                ok_t = jets_equal(ctx, tgt, e_i)
            report.add(Check("%s/dual-source-x%d" % (tag, i + 1), ok_s,
                             "dual source table differs"))
            report.add(Check("%s/dual-target-x%d" % (tag, i + 1), ok_t,
                             "dual target table differs"))

        eps = unit_functional(ctx)
        for i, (dv_i, e_i) in enumerate(((dv1, e1), (dv2, e2))):
            T = jet_coproduct_functional(ctx, e_i)
            if tag == "left":
                want = tensor_functional_from_pair(ctx, eps, e_i)
            else:
                want = tensor_functional_from_pair(ctx, e_i, eps)
            ok = tensor_tables_equal(ctx, T, want)
            report.add(Check("%s/coproduct-e%d" % (tag, i + 1), ok,
                             "coproduct table differs"))

            T = jet_coproduct_functional(ctx, dv_i)
            merged = table_sum((tensor_functional_from_pair(ctx, dv_i, eps),
                                tensor_functional_from_pair(ctx, eps, dv_i)))
            ok = tensor_tables_equal(ctx, T, merged)
            report.add(Check("%s/coproduct-dv%d-primitive" % (tag, i + 1), ok,
                             "not primitive"))

            ok = jet_counit(ctx, dv_i).is_zero()
            report.add(Check("%s/counit-dv%d" % (tag, i + 1), ok,
                             "counit of dv%d nonzero" % (i + 1)))
            want = HLaurent.const(CPoly.var(2, i), ctx.order, ctx.zero_poly())
            ok = jet_counit(ctx, e_i).eq_to_order(want)
            report.add(Check("%s/counit-e%d" % (tag, i + 1), ok,
                             "counit of e%d wrong" % (i + 1)))
    return report


def axb_iso_phi(h_order=4, jet_degree=4, bundle=None):
    """Generator-level transport under phi(e_i) = e_i + h dv_i,
    phi(dv_i) = -dv_i, from the left rescaled dual onto the right one."""
    bundle = bundle or build_axb(h_order, jet_degree)
    report = Report("axb-iso-phi", {"h_order": h_order, "jet_degree": jet_degree})
    ctx = bundle.right

    de = [xi_functional(ctx, i) for i in range(2)]
    ev = [coordinate_functional(ctx, i) for i in range(2)]
    dv = [d.shift(-1) for d in de]
    phi_e = [ev[i].add(de[i]) for i in range(2)]      # e_i + h dv_i
    phi_dv = [d.neg() for d in dv]

    transported = [
        ("dv1-dv2", jet_commutator(ctx, phi_dv[0], phi_dv[1]), phi_dv[0].neg()),
        ("dv1-e2", jet_commutator(ctx, phi_dv[0], phi_e[1]), phi_e[0].neg()),
        ("e1-e2", jet_commutator(ctx, phi_e[0], phi_e[1]), phi_e[0].shift(1)),
        ("dv1-e1", jet_commutator(ctx, phi_dv[0], phi_e[0]),
         JetElement(ctx.flavor)),
        ("dv2-e2", jet_commutator(ctx, phi_dv[1], phi_e[1]),
         JetElement(ctx.flavor)),
        ("dv2-e1", jet_commutator(ctx, phi_dv[1], phi_e[0]), phi_e[0]),
    ]
    for name, got, want in transported:
        ok = jets_equal(ctx, got, want)
        report.add(Check("transport-%s" % name, ok,
                         "transported relation differs"))

    for i in range(2):
        xi = CPoly.var(2, i)
        src, tgt = jet_source_target(ctx, xi)
        ok = jets_equal(ctx, src, phi_e[i])
        report.add(Check("intertwine-source-x%d" % (i + 1), ok,
                         "phi(source image) differs"))
        # phi(e_i + h dv_i) = e_i + h dv_i - h dv_i = e_i
        ok = jets_equal(ctx, tgt, ev[i])
        report.add(Check("intertwine-target-x%d" % (i + 1), ok,
                         "phi(target image) differs"))

    eps = unit_functional(ctx)
    for i in range(2):
        # transported claim: the coproduct of phi(e_i) is 1 (x) phi(e_i)
        T = jet_coproduct_functional(ctx, phi_e[i])
        want = tensor_functional_from_pair(ctx, eps, phi_e[i])
        merged_ok = tensor_tables_equal(ctx, T, want)
        T2 = jet_coproduct_functional(ctx, phi_dv[i])
        merged = table_sum((tensor_functional_from_pair(ctx, phi_dv[i], eps),
                            tensor_functional_from_pair(ctx, eps, phi_dv[i])))
        ok = merged_ok and tensor_tables_equal(ctx, T2, merged)
        report.add(Check("coproduct-transport-%d" % (i + 1), ok,
                         "coproduct transport differs"))

    for i in range(2):
        ok = jet_counit(ctx, phi_dv[i]).is_zero()
        want = HLaurent.const(CPoly.var(2, i), ctx.order, ctx.zero_poly())
        ok = ok and jet_counit(ctx, phi_e[i]).eq_to_order(want)
        report.add(Check("counit-transport-%d" % (i + 1), ok,
                         "counit transport differs"))
    return report
