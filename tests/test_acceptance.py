"""Acceptance suite: every criterion at its stated truncation, exact
arithmetic throughout (tolerance zero), one printed line per criterion."""

import io
import json
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

from qgroupoid.axb import axb_iso_phi, axb_relation_suite, build_axb
from qgroupoid.cli import main as cli_main
from qgroupoid.deform import (
    DeformedEnvAlgebroid, defelem_from_env, star_product, twistor_validate,
)
from qgroupoid.drinfeld import (
    duality_roundtrip, hprime_member, semiclassical_cobracket,
    semiclassical_dual_bracket,
)
from qgroupoid.envelope import EnvElement
from qgroupoid.jets import jet_product_eval, xi_functional
from qgroupoid.properties import structure_property_suite
from qgroupoid.scalars import CPoly, monomials_upto
from qgroupoid.series import HLaurent, hs_const

from oracles import jacobi_violating_spec, poisson_from_pair, random_valid_specs


def _line(num, ok, label):
    print("ACCEPTANCE %02d: %s - %s" % (num, "PASS" if ok else "FAIL", label))
    assert ok, label


@pytest.fixture(scope="module")
def bundle():
    return build_axb(4, 4)


def test_criterion_01_twistor_validity(bundle):
    t0 = time.monotonic()
    rep = twistor_validate(bundle.dfa)
    elapsed = time.monotonic() - t0
    ok = rep.ok() and elapsed < 10.0
    _line(1, ok, "twistor cocycle and counit conditions at N=4 "
          "(%.2fs)" % elapsed)


def test_criterion_02_source_target_series(bundle):
    dfa = bundle.dfa
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    theta = EnvElement(2, 2, {(1, 0): x1})
    ok = True
    s1, t1 = dfa.source(x1), dfa.target(x1)
    for n in range(5):
        want = EnvElement(2, 2, {(0, n): x1 * Fraction(1, 2 ** n * factorial(n))})
        ok = ok and s1.coeffs[n] == want
        ok = ok and t1.coeffs[n] == (want if n % 2 == 0 else -want)
    s2, t2 = dfa.source(x2), dfa.target(x2)
    half = theta.scale(Fraction(1, 2))
    ok = ok and s2.coeffs[0] == EnvElement.from_poly(2, x2) \
        and s2.coeffs[1] == -half and all(c.is_zero() for c in s2.coeffs[2:])
    ok = ok and t2.coeffs[0] == EnvElement.from_poly(2, x2) \
        and t2.coeffs[1] == half and all(c.is_zero() for c in t2.coeffs[2:])
    _line(2, ok, "deformed source/target series on x1, x2 at N=4")


def test_criterion_03_pairing_tables(bundle):
    ctx = bundle.left
    de1, de2 = xi_functional(ctx, 0), xi_functional(ctx, 1)
    zero_p = ctx.zero_poly()

    def expected(sign, a, b):
        if (a, b) == (1, 1):
            return HLaurent.const(CPoly.one(2), 4, zero_p)
        if (a, b) == (1, 0):
            return HLaurent.const(
                CPoly.const(2, Fraction(sign, 2)), 4, zero_p).shift(1)
        return HLaurent.zero_upto(4, zero_p)

    ok = True
    for a in range(4):
        for b in range(4):
            got = jet_product_eval(ctx, de1, de2, (a, b))
            ok = ok and got.eq_to_order(expected(-1, a, b))
            got = jet_product_eval(ctx, de2, de1, (a, b))
            ok = ok and got.eq_to_order(expected(+1, a, b))
    _line(3, ok, "pairing case tables of both generator products, a,b <= 3")


def test_criterion_04_relation_suites(bundle):
    t0 = time.monotonic()
    rep = axb_relation_suite(bundle)
    elapsed = time.monotonic() - t0
    ok = rep.ok() and elapsed < 60.0
    _line(4, ok, "both dual relation suites, source/target, coproducts and "
          "counits at N=4, d=4 (%.2fs): %s" % (elapsed, rep.first_failure() or "all pass"))


def test_criterion_05_iso_phi(bundle):
    rep = axb_iso_phi(bundle)
    _line(5, rep.ok(), "generator-level transport of the relation table "
          "under phi: %s" % (rep.first_failure() or "all pass"))


def test_criterion_06_membership_witnesses(bundle):
    dfa = bundle.dfa
    ok = True
    for i in (0, 1):
        u = defelem_from_env(dfa.spec, EnvElement.gen(2, 2, i), 4).shift(1)
        ok = ok and hprime_member(dfa, u, n_max=4)
    d1 = defelem_from_env(dfa.spec, EnvElement.gen(2, 2, 0), 4)
    ok = ok and not hprime_member(dfa, d1, n_max=1)
    _line(6, ok, "h-rescaled generators accepted at n_max=4, bare generator "
          "rejected at n=1")


def test_criterion_07_semiclassical_consistency(bundle):
    dfa = bundle.dfa
    dual, rep = semiclassical_cobracket(dfa)
    ok = rep.ok()
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    ok = ok and poisson_from_pair(dfa.spec, dual, x1, x2) == x1
    for f in monomials_upto(2, 1)[1:]:
        for g in monomials_upto(2, 1)[1:]:
            fz = hs_const(f, 4, CPoly.zero(2))
            gz = hs_const(g, 4, CPoly.zero(2))
            comm = star_product(dfa, fz, gz) - star_product(dfa, gz, fz)
            ok = ok and comm.coeffs[0].is_zero()
            ok = ok and poisson_from_pair(dfa.spec, dual, f, g) == comm.coeffs[1]
    dualR, repR = semiclassical_dual_bracket(bundle.right)
    ok = ok and repR.ok()
    ok = ok and dualR.bracket == dual.bracket and dualR.anchor == dual.anchor
    dualL, repL = semiclassical_dual_bracket(bundle.left)
    ok = ok and repL.ok()
    for key, vec in dual.bracket.items():
        ok = ok and dualL.bracket.get(key) == tuple(-c for c in vec)
    _line(7, ok, "cobracket Poisson bracket equals the star commutator and "
          "the dual-side brackets match per flavor")


def test_criterion_08_duality_roundtrip(bundle):
    rep = duality_roundtrip(bundle.left, n_max=3, degree=3)
    _line(8, rep.ok(), "rescale down then up recovers generators and "
          "relations at N=4: %s" % (rep.first_failure() or "all pass"))


def test_criterion_09_property_suites():
    ok = True
    for i, spec in enumerate(random_valid_specs(seed=29, count=3)):
        rep = structure_property_suite(spec, seed=29 + i)
        ok = ok and rep.ok()
    bad = structure_property_suite(jacobi_violating_spec(), seed=1)
    ok = ok and not bad.ok() and bad.first_failure() is not None

    from qgroupoid.series import HSeries
    from qgroupoid.tensorspace import TensorElement
    from qgroupoid.axb import axb_spec
    spec = axb_spec()
    theta = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    d2 = EnvElement.gen(2, 2, 1)
    unbalanced = HSeries(
        2, [TensorElement.unit(2, 2, 2), TensorElement.of(theta, d2),
            TensorElement.zero(2, 2, 2)], TensorElement.zero(2, 2, 2))
    rep = twistor_validate(DeformedEnvAlgebroid(spec, unbalanced,
                                                validate=False))
    ok = ok and not rep.ok() and "h^2" in rep.first_failure()
    _line(9, ok, "randomized structure suites pass; corrupted structures "
          "produce failing reports with witnesses")


def test_criterion_10_determinism():
    argv = ["example", "axb", "--h-order", "2", "--jet-degree", "2",
            "--n-max", "2", "--seed", "5", "--json-only"]

    def run():
        out = io.StringIO()
        old = sys.stdout
        sys.stdout = out
        try:
            code = cli_main(argv)
        finally:
            sys.stdout = old
        return code, out.getvalue()

    code1, out1 = run()
    code2, out2 = run()
    ok = code1 == code2 == 0 and out1 == out2 and out1.strip()
    for line in out1.strip().splitlines():
        json.loads(line)
    _line(10, bool(ok), "byte-identical JSON reports across runs with fixed "
          "flags and seed")
