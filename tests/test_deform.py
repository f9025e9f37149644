import itertools
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest

from qgroupoid import deform
from qgroupoid.axb import axb_spec
from qgroupoid.deform import (
    DeformedEnvAlgebroid, _counit_contract, basis_decompose,
    defelem_from_env, deformed_axiom_suite, exp_twistor, reduce_series,
    sample_defelems, star_product, takeuchi_check_deformed, trivial_twistor,
    twisted_coproduct, twistor_invert, twistor_validate,
)
from qgroupoid.envelope import EnvElement, pbw_mul
from qgroupoid.lierinehart import LieRinehartSpec
from qgroupoid.scalars import CPoly, monomials_upto, parse_poly
from qgroupoid.series import HSeries, hs_const, hseries_mul
from qgroupoid.tensorspace import TensorElement, tensor_mul

from oracles import check, reexpand


def der2():
    one, zero = CPoly.one(2), CPoly.zero(2)
    return LieRinehartSpec(2, 2, {}, [[one, zero], [zero, one]], name="der2")


def theta_tensor(spec):
    """theta (x) d2 - d2 (x) theta with theta = x1 d1."""
    theta = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    d2 = EnvElement.gen(2, 2, 1)
    return TensorElement.of(theta, d2) - TensorElement.of(d2, theta)


def std_twistor(spec, order):
    return exp_twistor(spec, theta_tensor(spec).scale(Fraction(1, 2)), order)


def make_dfa(order=3):
    spec = der2()
    return DeformedEnvAlgebroid(spec, std_twistor(spec, order), validate=False)


def ser(poly, order):
    return hs_const(poly, order, CPoly.zero(2))


def test_trivial_twistor_valid():
    spec = der2()
    rep = twistor_validate(DeformedEnvAlgebroid(
        spec, trivial_twistor(spec, 2), validate=False))
    assert rep.ok(), rep.first_failure()


def test_std_twistor_valid_order4():
    spec = der2()
    rep = twistor_validate(DeformedEnvAlgebroid(
        spec, std_twistor(spec, 4), validate=False))
    assert rep.ok(), rep.first_failure()


def test_unbalanced_twistor_cocycle_fails_at_h2():
    spec = der2()
    theta = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    d2 = EnvElement.gen(2, 2, 1)
    B = TensorElement.of(theta, d2)
    unit = TensorElement.unit(2, 2, 2)
    zero = TensorElement.zero(2, 2, 2)
    F = HSeries(2, [unit, B, zero], zero)
    rep = twistor_validate(DeformedEnvAlgebroid(spec, F, validate=False))
    assert not rep.ok()
    assert "cocycle identity fails at order h^2" in rep.first_failure()


def counit_check(F1):
    """The counit-conditions record of twistor_validate on axb_spec() for
    F = 1 (x) 1 + h F1 at h_order 2."""
    spec = axb_spec()
    unit, zero = TensorElement.unit(2, 2, 2), TensorElement.zero(2, 2, 2)
    rep = twistor_validate(DeformedEnvAlgebroid(
        spec, HSeries(2, [unit, F1, zero], zero), validate=False))
    return next(c for c in rep.checks if c.name == "counit-conditions")


def test_counit_conditions_multiply_on_the_left():
    """(id (x) eps)(u (x) v) = eps(v) u: d1 (x) x1 - x1 d1 (x) 1 is zero in
    U (x)_A U, and the contraction on either leg reads zero; right
    multiplication would give d1 x1 - x1 d1 = 1."""
    x1 = EnvElement.from_poly(2, CPoly.var(2, 0))
    d1, one = EnvElement.gen(2, 2, 0), EnvElement.one(2, 2)
    x1d1 = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    assert counit_check(TensorElement.of(d1, x1)
                        - TensorElement.of(x1d1, one)).status == "pass"
    # d1 (x) x1 alone is x1 d1 (x) 1, whose right contraction is x1 d1
    alone = counit_check(TensorElement.of(d1, x1))
    assert alone.status == "fail"
    assert alone.witness == "counit condition fails at order h^1"
    assert counit_check(TensorElement.of(x1, d1)
                        - TensorElement.of(one, x1d1)).status == "pass"


def test_invert_trivial():
    spec = der2()
    G = twistor_invert(spec, trivial_twistor(spec, 2))
    assert G == trivial_twistor(spec, 2)


def test_invert_std_matches_closed_form():
    spec = der2()
    F = std_twistor(spec, 3)
    G = twistor_invert(spec, F)
    mt = lambda a, b: tensor_mul(spec, a, b)
    unit = hs_const(TensorElement.unit(2, 2, 2), 3, TensorElement.zero(2, 2, 2))
    assert hseries_mul(F, G, mt) == unit
    assert hseries_mul(G, F, mt) == unit


def test_invert_generic_geometric():
    spec = der2()
    B = theta_tensor(spec)
    unit = TensorElement.unit(2, 2, 2)
    zero = TensorElement.zero(2, 2, 2)
    F = HSeries(2, [unit, B, zero], zero)
    G = twistor_invert(spec, F)
    B2 = tensor_mul(spec, B, B)
    assert G == HSeries(2, [unit, -B, B2], zero)


def test_star_product_relation():
    dfa = make_dfa(3)
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    lhs = star_product(dfa, ser(x1, 3), ser(x2, 3)) \
        - star_product(dfa, ser(x2, 3), ser(x1, 3))
    expected = ser(x1, 3).shift(1)
    assert lhs == expected


def test_star_unit():
    dfa = make_dfa(2)
    one = ser(CPoly.one(2), 2)
    a = ser(parse_poly("x1^2*x2", 2), 2)
    assert star_product(dfa, a, one) == a
    assert star_product(dfa, one, a) == a


def test_trivial_twistor_star_is_commutative_product():
    spec = der2()
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 2), validate=False)
    a, b = parse_poly("x1 + x2", 2), parse_poly("x1*x2", 2)
    assert star_product(dfa, ser(a, 2), ser(b, 2)) == ser(a * b, 2)


def test_source_target_series():
    dfa = make_dfa(4)
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    s1, t1 = dfa.source_series(ser(x1, 4)), dfa.target_series(ser(x1, 4))
    s2, t2 = dfa.source_series(ser(x2, 4)), dfa.target_series(ser(x2, 4))
    theta = EnvElement(2, 2, {(1, 0): x1})
    for n in range(5):
        # s_F(x1) at order n is x1 d2^n / (2^n n!)
        want = EnvElement(2, 2, {(0, n): x1 * Fraction(1, 2 ** n * factorial(n))})
        assert s1.coeffs[n] == want
        assert t1.coeffs[n] == (want if n % 2 == 0 else -want)
    assert s2 == ser(x2, 4).map(lambda c: EnvElement.from_poly(2, c)) \
        - hs_const(theta, 4, EnvElement.zero(2, 2)).shift(1).map(
            lambda w: w.scale(Fraction(1, 2)))
    assert t2 == ser(x2, 4).map(lambda c: EnvElement.from_poly(2, c)) \
        + hs_const(theta, 4, EnvElement.zero(2, 2)).shift(1).map(
            lambda w: w.scale(Fraction(1, 2)))


def test_trivial_source_target():
    spec = der2()
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 2), validate=False)
    a = ser(parse_poly("x1*x2", 2), 2)
    s, t = dfa.source_series(a), dfa.target_series(a)
    assert s == t == a.map(lambda c: EnvElement.from_poly(2, c))


def test_twisted_coproduct_d1_lift():
    dfa = make_dfa(3)
    d1 = defelem_from_env(dfa.spec, EnvElement.gen(2, 2, 0), 3)
    lift = twisted_coproduct(dfa, d1)
    one = EnvElement.one(2, 2)
    e1 = EnvElement.gen(2, 2, 0)
    e2 = EnvElement.gen(2, 2, 1)
    for k in range(4):
        d2k = EnvElement(2, 2, {(0, k): CPoly.one(2)})
        c = Fraction(1, 2 ** k * factorial(k))
        want = TensorElement.of(e1, d2k).scale(c) \
            + TensorElement.of(d2k, e1).scale(c * (-1) ** k)
        assert lift.coeffs[k] == want


def test_twisted_coproduct_d2_stays_primitive():
    dfa = make_dfa(3)
    d2 = defelem_from_env(dfa.spec, EnvElement.gen(2, 2, 1), 3)
    lift = twisted_coproduct(dfa, d2)
    one = EnvElement.one(2, 2)
    e2 = EnvElement.gen(2, 2, 1)
    assert lift.coeffs[0] == TensorElement.of(e2, one) + TensorElement.of(one, e2)
    for k in range(1, 4):
        assert lift.coeffs[k].is_zero()


def test_twisted_coproduct_of_unit():
    dfa = make_dfa(2)
    one = defelem_from_env(dfa.spec, EnvElement.one(2, 2), 2)
    lift = twisted_coproduct(dfa, one)
    assert lift == hs_const(TensorElement.unit(2, 2, 2), 2,
                            TensorElement.zero(2, 2, 2))


def test_counit_contract_reads_the_named_leg():
    """Leg 0 contracts w1 and maps it by s_F, leg 1 contracts w2 and maps
    it by t_F; a term whose counit leg has positive degree drops out."""
    dfa = make_dfa(order=2)
    spec = dfa.spec
    x1 = CPoly.var(2, 0)
    a, e1 = EnvElement.from_poly(2, x1), EnvElement.gen(2, 2, 0)
    zero = TensorElement.zero(2, 2, 2)

    def contract(w1, w2, leg):
        lift = hs_const(TensorElement.of(w1, w2), dfa.order, zero)
        return _counit_contract(dfa, lift, leg)

    assert contract(a, e1, 0) == dfa.source(x1).map(
        lambda w: pbw_mul(spec, w, e1))
    assert contract(e1, a, 1) == dfa.target(x1).map(
        lambda w: pbw_mul(spec, w, e1))
    assert dfa.source(x1) != dfa.target(x1)
    for w1, w2, leg in ((a, e1, 1), (e1, a, 0)):
        assert all(c.is_zero() for c in contract(w1, w2, leg).coeffs)


def test_basis_decompose_roundtrip():
    dfa = make_dfa(3)
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    for flavor in ("source", "target"):
        for u0 in (EnvElement(2, 2, {(1, 1): x1 * x2}),
                   EnvElement(2, 2, {(0, 0): x2, (2, 0): CPoly.one(2)})):
            u = defelem_from_env(dfa.spec, u0, 3)
            dec = basis_decompose(dfa, u, flavor)
            assert reexpand(dfa, dec, flavor) == u


def test_basis_decompose_x2_source():
    dfa = make_dfa(3)
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    u = defelem_from_env(dfa.spec, EnvElement.from_poly(2, x2), 3)
    dec = basis_decompose(dfa, u, "source")
    empty = (0, 0)
    assert dec[empty].coeffs[0] == x2
    # x2 = s_F(x2) + (h/2) x1 d1 and recursively: coefficient of d1 is
    # (h/2) x1 + higher corrections
    assert dec[(1, 0)].coeffs[0].is_zero()
    assert dec[(1, 0)].coeffs[1] == x1 * Fraction(1, 2)
    assert reexpand(dfa, dec, "source") == u


def test_basis_decompose_source_image_is_delta():
    dfa = make_dfa(3)
    x2 = CPoly.var(2, 1)
    u = dfa.source_series(ser(x2, 3))
    dec = basis_decompose(dfa, u, "source")
    assert set(dec) == {(0, 0)}
    assert dec[(0, 0)] == ser(x2, 3)


def test_reduce_series_relation():
    dfa = make_dfa(3)
    spec = dfa.spec
    x2 = CPoly.var(2, 1)
    u = EnvElement.gen(2, 2, 0)
    v = EnvElement.gen(2, 2, 1)
    one = EnvElement.one(2, 2)
    tx2 = dfa.target(x2)
    sx2 = dfa.source(x2)
    left = tx2.map(lambda w: TensorElement.of(pbw_mul(spec, w, u), v))
    right = sx2.map(lambda w: TensorElement.of(u, pbw_mul(spec, w, v)))
    diff = reduce_series(dfa, left - right)
    assert all(c.is_zero() for c in diff.coeffs)


def test_reduce_series_idempotent():
    dfa = make_dfa(2)
    spec = dfa.spec
    xe = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    T = hs_const(TensorElement.of(xe, EnvElement.gen(2, 2, 1)), 2,
                 TensorElement.zero(2, 2, 2))
    once = reduce_series(dfa, T)
    assert reduce_series(dfa, once) == once


def test_takeuchi_deformed_coproduct():
    dfa = make_dfa(2)
    x1 = defelem_from_env(dfa.spec, EnvElement.from_poly(2, CPoly.var(2, 0)), 2)
    assert takeuchi_check_deformed(dfa, twisted_coproduct(dfa, x1),
                                   monomials_upto(2, 2))


def test_takeuchi_compares_a_unit_sample_when_the_counit_breaks(
        monkeypatch):
    """a = 1 stays among the samples: under a twistor that meets the
    counit conditions its relation t_F(1) (x) 1 - 1 (x) s_F(1) is zero and
    it is not compared, but F = 1 (x) 1 + h e1 (x) 1 gives
    t_F(1) = 1 + h e1 != s_F(1) = 1, and then 1 (x) 1 fails on a = 1
    alone, at h^1, in one reduction."""
    spec = der2()
    unit, zero = TensorElement.unit(2, 2, 2), TensorElement.zero(2, 2, 2)
    e1 = TensorElement.of(EnvElement.gen(2, 2, 0), EnvElement.one(2, 2))
    broken = DeformedEnvAlgebroid(
        spec, HSeries(2, [unit, e1, zero], zero), validate=False)
    one = CPoly.one(2)
    real = deform.reduce_series
    calls = []
    monkeypatch.setattr(deform, "reduce_series",
                        lambda dfa, T: calls.append(T) or real(dfa, T))
    T = hs_const(unit, 2, zero)
    assert takeuchi_check_deformed(make_dfa(2), T, [one])
    assert not calls
    assert not takeuchi_check_deformed(broken, T, [one])
    assert len(calls) == 1


def test_takeuchi_sides_are_built_once_per_base_element():
    """``takeuchi_check_deformed`` reads the relation
    t_F(a) (x) 1 - 1 (x) s_F(a) from one cache entry per a, for every
    tensor it checks; e1 (x) 1 is not in the Takeuchi subspace
    (e1 x1 = x1 e1 + 1), which only a = x1 shows."""
    dfa = make_dfa(2)
    one = EnvElement.one(2, 2)
    samples = monomials_upto(2, 1)
    outside = hs_const(TensorElement.of(EnvElement.gen(2, 2, 0), one), 2,
                       TensorElement.zero(2, 2, 2))
    x1 = defelem_from_env(dfa.spec,
                          EnvElement.from_poly(2, CPoly.var(2, 0)), 2)
    assert takeuchi_check_deformed(dfa, twisted_coproduct(dfa, x1), samples)
    assert not takeuchi_check_deformed(dfa, outside, samples)
    assert set(dfa._memos["takeuchi_relation"]) == {(a,) for a in samples}
    for a in samples:
        rel = dfa.takeuchi_relation(a)
        assert rel == dfa.target(a).map(lambda u: TensorElement.of(u, one)) \
            - dfa.source(a).map(lambda u: TensorElement.of(one, u))
        assert dfa.takeuchi_relation(a) is rel


def test_axiom_suite_trivial():
    spec = der2()
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 2), validate=False)
    rep = deformed_axiom_suite(dfa, sample_degree=1)
    assert rep.ok(), rep.first_failure()


def test_axiom_suite_std():
    dfa = make_dfa(2)
    rep = deformed_axiom_suite(dfa, sample_degree=1)
    assert rep.ok(), rep.first_failure()


def test_deformed_class_tests_see_every_order():
    """F = 1 (x) 1 + h x1 d1 (x) d2 fails the cocycle identity at h^2.
    The twisted coproduct of e1 is then not coassociative and leaves the
    Takeuchi product, and the signed difference of the two coassociativity
    sides vanishes at order zero, where every class test holds
    classically, so only its higher orders show the failures."""
    spec = der2()
    theta = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    unit, zero = TensorElement.unit(2, 2, 2), TensorElement.zero(2, 2, 2)
    F = HSeries(2, [unit, TensorElement.of(theta, EnvElement.gen(
        2, 2, 1)), zero], zero)
    dfa = DeformedEnvAlgebroid(spec, F, validate=False)
    failed = {c.name: c.witness for c in deformed_axiom_suite(
        dfa, sample_degree=1).checks if c.status == "fail"}
    assert failed["coassociativity"] == "coassociativity fails on (1)e1"
    assert failed["takeuchi-membership"] \
        == "coproduct image outside Takeuchi subspace"
    e1 = defelem_from_env(spec, EnvElement.gen(2, 2, 0), 2)
    lift = twisted_coproduct(dfa, e1)
    diff = reduce_series(dfa, deform.deformed_coproduct_leg(dfa, lift, 0)
                         - deform.deformed_coproduct_leg(dfa, lift, 1))
    assert diff.coeffs[0].is_zero()
    assert not all(T.is_zero() for T in diff.coeffs)


def test_axiom_suite_detects_corruption():
    spec = der2()
    F = std_twistor(spec, 2)
    bad = HSeries(2, [F.coeffs[0], F.coeffs[1], F.coeffs[2].scale(2)], F.zero)
    dfa = DeformedEnvAlgebroid(spec, bad, validate=False)
    rep = twistor_validate(dfa)
    assert not rep.ok()
    assert "h^2" in rep.first_failure()
    failed = {c.name: c.witness for c in rep.checks if c.status == "fail"}
    assert failed["cocycle-identity"] == "cocycle identity fails at order h^2"
    # the spliced sides against the 3-leg products on nested keys
    assert check(dfa, "_cocycle_sides")
    rep2 = deformed_axiom_suite(dfa, sample_degree=1)
    assert not rep2.ok()


def test_bad_leading_term_rejected():
    from qgroupoid.errors import TriangularityViolation
    spec = der2()
    theta = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    bad0 = TensorElement.of(theta, EnvElement.one(2, 2))
    zero = TensorElement.zero(2, 2, 2)
    F = HSeries(1, [bad0, zero], zero)
    with pytest.raises(TriangularityViolation):
        DeformedEnvAlgebroid(spec, F, validate=False)


def test_lift_first_order_is_half_exponent_commutator():
    """Order-h coefficient of the coproduct lift equals half the commutator
    of the classical coproduct with the twistor exponent."""
    dfa = make_dfa(2)
    spec = dfa.spec
    r = theta_tensor(spec)
    from qgroupoid.tensorspace import env_coproduct
    for u0 in (EnvElement.gen(2, 2, 0), EnvElement.gen(2, 2, 1),
               EnvElement.from_poly(2, CPoly.var(2, 0)),
               EnvElement(2, 2, {(1, 1): CPoly.var(2, 1)})):
        u = defelem_from_env(spec, u0, 2)
        lift = twisted_coproduct(dfa, u)
        d0 = env_coproduct(spec, u0)
        comm = tensor_mul(spec, d0, r) - tensor_mul(spec, r, d0)
        assert lift.coeffs[1] == comm.scale(Fraction(1, 2))


def test_sample_defelems_keep_the_lexicographic_order():
    # a sample's position decides which witness a failing check reports,
    # so the samples keep the order of the cube range(d + 1)^rank
    for rank in range(1, 6):
        dfa = SimpleNamespace(spec=SimpleNamespace(nvars=0, rank=rank), order=1)
        for d in range(1, 5):
            want = [a for a in itertools.product(range(d + 1), repeat=rank)
                    if 0 < sum(a) <= d]
            got = [alpha for u in sample_defelems(dfa, d)
                   for alpha in u.coeffs[0].terms]
            assert got == want
