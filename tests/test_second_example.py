"""A second deformation with an independent closed form: the symmetric
derivative twist exp(h e (x) e) on one variable, whose star product is
a *_F b = sum_n h^n/n! (d^n a)(d^n b).  Also exercises the zero-variable
edge (a plain Lie algebra base) through the dual pipeline."""

from fractions import Fraction
from math import factorial

from qgroupoid.deform import (
    DeformedEnvAlgebroid, deformed_axiom_suite, exp_twistor, star_product,
    trivial_twistor, twistor_validate,
)
from qgroupoid.drinfeld import (
    duality_roundtrip, semiclassical_cobracket, vee_build, vee_semiclassical,
)
from qgroupoid.envelope import EnvElement
from qgroupoid.jets import LEFT, RIGHT, JetContext, jet_axiom_suite
from qgroupoid.lierinehart import LieRinehartSpec
from qgroupoid.scalars import CPoly, parse_poly
from qgroupoid.series import HSeries, hs_const
from qgroupoid.tensorspace import TensorElement


def sym_dfa(order=3):
    spec = LieRinehartSpec(1, 1, {}, [[CPoly.one(1)]], name="der1")
    e = EnvElement.gen(1, 1, 0)
    tw = exp_twistor(spec, TensorElement.of(e, e), order)
    return DeformedEnvAlgebroid(spec, tw, validate=False)


def closed_form_star(a, b, order):
    out = []
    for n in range(order + 1):
        da, db = a, b
        for _ in range(n):
            da = da.diff(0)
            db = db.diff(0)
        out.append(da * db * Fraction(1, factorial(n)))
    return HSeries(order, out, CPoly.zero(1))


def test_symmetric_twist_is_valid():
    dfa = sym_dfa(3)
    rep = twistor_validate(dfa)
    assert rep.ok(), rep.first_failure()


def test_star_matches_closed_form():
    dfa = sym_dfa(3)
    polys = [parse_poly(s, 1) for s in ("x1", "x1^2", "x1^3 + 2*x1", "1")]
    for a in polys:
        for b in polys:
            sa = hs_const(a, 3, CPoly.zero(1))
            sb = hs_const(b, 3, CPoly.zero(1))
            assert star_product(dfa, sa, sb) == closed_form_star(a, b, 3)


def test_source_target_symmetric():
    # s_F(x) = x + h e: the order-one leg acts as the bare derivation
    dfa = sym_dfa(3)
    x = CPoly.var(1, 0)
    s, t = dfa.source(x), dfa.target(x)
    assert s == t
    assert s.coeffs[0] == EnvElement.from_poly(1, x)
    assert s.coeffs[1] == EnvElement.gen(1, 1, 0)
    assert s.coeffs[2].is_zero()


def test_axioms_and_trivial_semiclassics():
    dfa = sym_dfa(2)
    rep = deformed_axiom_suite(dfa, sample_degree=1)
    assert rep.ok(), rep.first_failure()
    dual, rep2 = semiclassical_cobracket(dfa)
    assert rep2.ok()
    assert not dual.bracket
    assert all(c.is_zero() for row in dual.anchor for c in row)


def test_jets_and_roundtrip():
    dfa = sym_dfa(3)
    for flavor in (LEFT, RIGHT):
        ctx = JetContext(dfa, flavor, 3)
        rep = jet_axiom_suite(ctx, sample_degree=2)
        assert rep.ok(), (flavor, rep.first_failure())
    ctx = JetContext(dfa, LEFT, 3)
    rep = duality_roundtrip(ctx, n_max=2, degree=2)
    assert rep.ok(), rep.first_failure()


def test_plain_lie_algebra_base_duals():
    """Zero base variables: the solvable rank-2 Lie algebra, trivial twist."""
    c = {(0, 1): (CPoly.one(0), CPoly.zero(0))}
    spec = LieRinehartSpec(0, 2, c, None, name="solvable")
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 3), validate=False)
    for flavor in (LEFT, RIGHT):
        ctx = JetContext(dfa, flavor, 3)
        rep = jet_axiom_suite(ctx, sample_degree=2)
        assert rep.ok(), (flavor, rep.first_failure())
    ctx = JetContext(dfa, LEFT, 3)
    v = vee_build(ctx, degree=2)
    dual, rep = vee_semiclassical(v)
    assert rep.ok(), rep.first_failure()
    # the classical jet dual is commutative: abelian dual structure
    assert not dual.bracket
    rep = duality_roundtrip(ctx, n_max=2, degree=2)
    assert rep.ok(), rep.first_failure()
