from collections import Counter
from fractions import Fraction

import pytest

from qgroupoid import drinfeld
from qgroupoid.deform import (
    DeformedEnvAlgebroid, defelem_from_env, defelem_mul,
    deformed_coproduct_leg, exp_twistor, star_product, trivial_twistor,
    twisted_coproduct,
)
from qgroupoid.drinfeld import (
    augmentation_products, duality_roundtrip, functional_prime_member,
    hprime_basis, hprime_member,
    semiclassical_cobracket, semiclassical_dual_bracket, vee_build,
    vee_semiclassical,
)
from qgroupoid.envelope import EnvElement
from qgroupoid.errors import ConfigError, InvariantViolation
from qgroupoid.jets import LEFT, RIGHT, JetContext, jets_equal, xi_functional
from qgroupoid.lierinehart import LieRinehartSpec, cobracket_from_dual_spec
from qgroupoid.scalars import CPoly, pbw_indices
from qgroupoid.series import hs_const
from qgroupoid.tensorspace import TensorElement

from oracles import (
    axb_structure, generated_dfa, nested_project_leg, poisson_from_pair,
)


def der2():
    one, zero = CPoly.one(2), CPoly.zero(2)
    return LieRinehartSpec(2, 2, {}, [[one, zero], [zero, one]])


def make_dfa(order=4):
    spec = der2()
    theta = EnvElement(2, 2, {(1, 0): CPoly.var(2, 0)})
    d2 = EnvElement.gen(2, 2, 1)
    r = (TensorElement.of(theta, d2) - TensorElement.of(d2, theta)).scale(Fraction(1, 2))
    return DeformedEnvAlgebroid(spec, exp_twistor(spec, r, order), validate=False)


def make_ctx(flavor, order=4, d=4):
    return JetContext(make_dfa(order), flavor, d)


# -- membership ---------------------------------------------------------------


def test_hprime_members_positive():
    dfa = make_dfa(4)
    for i in (0, 1):
        u = defelem_from_env(dfa.spec, EnvElement.gen(2, 2, i), 4).shift(1)
        assert hprime_member(dfa, u, n_max=4)


def test_hprime_member_negative():
    dfa = make_dfa(3)
    d1 = defelem_from_env(dfa.spec, EnvElement.gen(2, 2, 0), 3)
    assert not hprime_member(dfa, d1, n_max=1)


@pytest.mark.parametrize("case", ["axb", 0, 1, 2])
def test_hprime_membership_is_two_sided_on_the_pbw_filtration(case):
    """Undeformed (the trivial twistor at N = n_max = 3), H' is the
    h-adic PBW filtration: for 1 <= |alpha| <= 2, h^|alpha| e^alpha is a
    member and h^(|alpha|-1) e^alpha is not.  A splice that loses terms
    accepts the non-members."""
    spec = axb_structure() if case == "axb" else generated_dfa(case).spec
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 3), validate=False)
    for alpha in pbw_indices(spec.rank, 2):
        if not any(alpha):
            continue
        u = defelem_from_env(
            spec, EnvElement.monomial(spec.nvars, spec.rank, alpha), 3)
        assert hprime_member(dfa, u.shift(sum(alpha)), n_max=3), alpha
        assert not hprime_member(dfa, u.shift(sum(alpha) - 1), n_max=3), alpha


def test_hprime_members_closed_under_product():
    dfa = make_dfa(3)
    h_d1 = defelem_from_env(dfa.spec, EnvElement.gen(2, 2, 0), 3).shift(1)
    h_d2 = defelem_from_env(dfa.spec, EnvElement.gen(2, 2, 1), 3).shift(1)
    prod = defelem_mul(dfa.spec, h_d1, h_d2)
    assert hprime_member(dfa, prod, n_max=3)
    # source images are members too
    sx = dfa.source_series(hs_const(CPoly.var(2, 0), 3, CPoly.zero(2)))
    assert hprime_member(dfa, sx, n_max=3)


def rebuilt_failure(dfa, u, n_max, visited):
    """The first (n, flavor) whose delta^n is not divisible by h^n, each
    (n, flavor) rebuilding the (n-1)-fold twisted coproduct from scratch
    and projecting its legs on nested monomial keys
    (``oracles.nested_project_leg``); ``visited`` records every (n, flavor)
    tested."""
    for n in range(1, n_max + 1):
        for flavor in ("source", "target"):
            visited.append((n, flavor))
            mapper = dfa.source_series if flavor == "source" \
                else dfa.target_series
            if n == 1:
                d = u - mapper(drinfeld._counit_series(u))
            else:
                d = twisted_coproduct(dfa, u)
                for _ in range(n - 2):
                    d = deformed_coproduct_leg(dfa, d, 0)
                for leg in range(n):
                    d = nested_project_leg(dfa, d, leg, flavor)
            if any(not d.coeffs[k].is_zero() for k in range(n)):
                return n, flavor
    return None


def test_hprime_member_shares_one_iterated_coproduct(monkeypatch):
    """u starts as a series of 1-leg tensors; each n >= 2 extends it by one
    twisted coproduct at leg 0, and each n, n = 1 included, projects its n
    legs with both flavors; the answer, and the (n, flavor) it stops at,
    are those of rebuilding the coproduct per (n, flavor)."""
    dfa = make_dfa(3)
    spec = dfa.spec
    gen = [defelem_from_env(spec, EnvElement.gen(2, 2, i), 3) for i in (0, 1)]
    e12 = defelem_from_env(spec, EnvElement.monomial(2, 2, (1, 1)), 3)
    sx = dfa.source_series(hs_const(CPoly.var(2, 0), 3, CPoly.zero(2)))
    elems = (gen[0], gen[0].shift(1), gen[1].shift(1), e12.shift(1),
             e12.shift(2), sx, defelem_mul(spec, gen[0], gen[1]).shift(2))
    oracle = []
    for u in elems:
        visited = []
        oracle.append((rebuilt_failure(dfa, u, 3, visited), visited))
    assert {None, (1, "source"), (2, "source")} <= {w for w, _ in oracle}

    counts = Counter()
    real_tc, real_leg = drinfeld.twisted_coproduct, drinfeld.deformed_coproduct_leg
    real_project = drinfeld._project_leg

    def tc(*args):
        counts["twisted"] += 1
        return real_tc(*args)

    def leg(*args):
        counts["leg"] += 1
        return real_leg(*args)

    def project(dfa, HT, leg, flavor):
        counts[HT.zero.legs, flavor] += 1
        return real_project(dfa, HT, leg, flavor)

    monkeypatch.setattr(drinfeld, "twisted_coproduct", tc)
    monkeypatch.setattr(drinfeld, "deformed_coproduct_leg", leg)
    monkeypatch.setattr(drinfeld, "_project_leg", project)
    for u, (want, visited) in zip(elems, oracle):
        counts.clear()
        assert hprime_member(dfa, u, n_max=3) == (want is None)
        top = visited[-1][0]
        assert counts["twisted"] == 0
        assert counts["leg"] == top - 1
        # each visited (n, flavor) projects the n legs once
        for n in range(1, top + 1):
            for flavor in ("source", "target"):
                assert counts[n, flavor] == \
                    (n if (n, flavor) in visited else 0)


def test_hprime_member_projects_each_flavor_by_its_own_map(monkeypatch):
    """Every leg projection of ``hprime_member`` equals the projection on
    nested monomial keys (``oracles.nested_project_leg``) of its own
    flavor, though the deformation keeps the 1-leg pieces of both flavors
    in its memos: on axb at N = 3, s_F and t_F differ at h^1, and so do
    some source and target projections of one input."""
    dfa = make_dfa(3)
    spec = dfa.spec
    sx = dfa.source_series(hs_const(CPoly.var(2, 0), 3, CPoly.zero(2)))
    h_d2 = defelem_from_env(spec, EnvElement.gen(2, 2, 1), 3).shift(1)
    real = drinfeld._project_leg
    seen = []

    def project(dfa, HT, leg, flavor):
        out = real(dfa, HT, leg, flavor)
        assert out == nested_project_leg(dfa, HT, leg, flavor), flavor
        seen.append((HT, leg, flavor, out))
        return out

    monkeypatch.setattr(drinfeld, "_project_leg", project)
    for u in (sx, defelem_mul(spec, sx, h_d2)):
        assert hprime_member(dfa, u, n_max=3)
    assert any(HT is HT2 and leg == leg2 and out != out2
               for HT, leg, flavor, out in seen if flavor == "source"
               for HT2, leg2, flavor2, out2 in seen if flavor2 == "target")


def test_hprime_member_stops_at_the_leg_bound(monkeypatch):
    dfa = make_dfa(3)
    u = defelem_from_env(dfa.spec, EnvElement.gen(2, 2, 0), 3).shift(1)
    monkeypatch.setattr(drinfeld, "MAX_LEGS", 2)
    assert hprime_member(dfa, u, n_max=2)
    with pytest.raises(ConfigError, match="iterated coproduct beyond "
                                          "configured bound"):
        hprime_member(dfa, u, n_max=3)


def test_hprime_basis_undeformed():
    spec = der2()
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 2), validate=False)
    ctx = JetContext(dfa, LEFT, 4)
    basis = hprime_basis(dfa, ctx, degree=1)
    for alpha, member in basis.items():
        want = defelem_from_env(
            spec, EnvElement.monomial(2, 2, alpha), 2).shift(sum(alpha))
        assert member == want


def test_hprime_basis_deformed():
    dfa = make_dfa(3)
    ctx = JetContext(dfa, LEFT, 4)
    basis = hprime_basis(dfa, ctx, degree=2, n_max=3)
    assert len(basis) == 6
    theta10 = basis[(1, 0)]
    # h * theta_(1,0) with theta = d1 + O(h)
    assert theta10.coeffs[0].is_zero()
    assert theta10.coeffs[1] == EnvElement.gen(2, 2, 0)
    for member in basis.values():
        assert hprime_member(dfa, member, n_max=3)


def test_hprime_basis_rejects_a_nonmember(monkeypatch):
    dfa = make_dfa(2)
    ctx = JetContext(dfa, LEFT, 2)
    monkeypatch.setattr(drinfeld, "hprime_member", lambda *args: False)
    with pytest.raises(InvariantViolation, match="membership test"):
        hprime_basis(dfa, ctx, degree=1, n_max=2)


# -- semiclassical limits -------------------------------------------------------


def test_cobracket_values():
    dfa = make_dfa(3)
    dual, rep = semiclassical_cobracket(dfa)
    assert rep.ok(), rep.first_failure()
    delta = cobracket_from_dual_spec(dfa.spec, dual)
    x1 = CPoly.var(2, 0)
    # delta(x2) = x1 d1, delta(x1) = -x1 d2
    assert delta.delta_base[1].terms == {(0,): x1}
    assert delta.delta_base[0].terms == {(1,): -x1}
    # delta(d1) = -d1 ^ d2, delta(d2) = 0
    assert delta.delta_gens[0].terms == {(0, 1): -CPoly.one(2)}
    assert delta.delta_gens[1].is_zero()
    # dual structure: [f1, f2] = f1, anchors x1 d2 and -x1 d1
    assert dual.bracket == {(0, 1): (CPoly.one(2), CPoly.zero(2))}
    assert dual.anchor[0][1] == x1 and dual.anchor[0][0].is_zero()
    assert dual.anchor[1][0] == -x1 and dual.anchor[1][1].is_zero()


def test_cobracket_trivial():
    spec = der2()
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 2), validate=False)
    dual, rep = semiclassical_cobracket(dfa)
    assert rep.ok()
    assert not dual.bracket
    assert all(c.is_zero() for row in dual.anchor for c in row)


def test_cobracket_poisson_matches_star_commutator():
    dfa = make_dfa(3)
    dual, rep = semiclassical_cobracket(dfa)
    assert rep.ok()
    spec = dfa.spec
    from qgroupoid.scalars import monomials_upto
    for f in monomials_upto(2, 1)[1:]:
        for g in monomials_upto(2, 1)[1:]:
            fz = hs_const(f, 3, CPoly.zero(2))
            gz = hs_const(g, 3, CPoly.zero(2))
            comm = star_product(dfa, fz, gz) - star_product(dfa, gz, fz)
            assert comm.coeffs[0].is_zero()
            assert poisson_from_pair(spec, dual, f, g) == comm.coeffs[1]


def test_dual_bracket_right_matches_cobracket():
    dfa = make_dfa(4)
    dual_cb, _ = semiclassical_cobracket(dfa)
    ctx = JetContext(dfa, RIGHT, 4)
    dual_r, rep = semiclassical_dual_bracket(ctx)
    assert rep.ok(), rep.first_failure()
    assert dual_r.bracket == dual_cb.bracket
    assert dual_r.anchor == dual_cb.anchor


def test_dual_bracket_left_is_opposite():
    dfa = make_dfa(4)
    dual_cb, _ = semiclassical_cobracket(dfa)
    ctx = JetContext(dfa, LEFT, 4)
    dual_l, rep = semiclassical_dual_bracket(ctx)
    assert rep.ok(), rep.first_failure()
    # opposite structure: negated bracket and anchor
    for key, vec in dual_cb.bracket.items():
        assert dual_l.bracket[key] == tuple(-c for c in vec)
    for i in range(2):
        for j in range(2):
            assert dual_l.anchor[i][j] == -dual_cb.anchor[i][j]


@pytest.mark.parametrize("case", [0, 2])
def test_dual_bracket_matches_cobracket_above_rank_two(case):
    # rank 4 and 5 on three variables, each with a nonzero dual anchor
    dfa = generated_dfa(case)
    dual_cb, rep = semiclassical_cobracket(dfa)
    assert rep.ok(), rep.first_failure()
    assert any(not c.is_zero() for row in dual_cb.anchor for c in row)
    dual_r, rep_r = semiclassical_dual_bracket(JetContext(dfa, RIGHT, 2))
    dual_l, rep_l = semiclassical_dual_bracket(JetContext(dfa, LEFT, 2))
    assert rep_r.ok(), rep_r.first_failure()
    assert rep_l.ok(), rep_l.first_failure()
    assert dual_r.bracket == dual_cb.bracket
    assert dual_r.anchor == dual_cb.anchor
    assert dual_l.bracket == {key: tuple(-c for c in vec)
                              for key, vec in dual_cb.bracket.items()}
    assert dual_l.anchor == tuple(tuple(-c for c in row)
                                  for row in dual_cb.anchor)


def test_dual_bracket_undeformed_zero():
    spec = der2()
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 2), validate=False)
    ctx = JetContext(dfa, LEFT, 3)
    dual, rep = semiclassical_dual_bracket(ctx)
    assert rep.ok()
    assert not dual.bracket
    assert all(c.is_zero() for row in dual.anchor for c in row)


# -- the vee construction ---------------------------------------------------------


def test_vee_build_left_relations():
    ctx = make_ctx(LEFT, 4, 4)
    v = vee_build(ctx, degree=3)
    # [xv1, xv2] = -xv1
    comm = v.relations[("xv1", "xv2")]
    assert jets_equal(ctx, comm, v.gens["xv1"].neg())
    # [xv1, b2] = -b1, [xv2, b1] = b1, [b1, b2] = h b1
    assert jets_equal(ctx, v.relations[("xv1", "b2")], v.gens["b1"].neg())
    assert jets_equal(ctx, v.relations[("xv2", "b1")], v.gens["b1"])
    assert jets_equal(ctx, v.relations[("b1", "b2")], v.gens["b1"].shift(1))
    # vanishing commutators
    assert not v.relations[("xv1", "b1")].table
    assert not v.relations[("xv2", "b2")].table


def test_vee_build_right_relations():
    ctx = make_ctx(RIGHT, 4, 4)
    v = vee_build(ctx, degree=3)
    assert jets_equal(ctx, v.relations[("xv1", "xv2")], v.gens["xv1"])
    assert jets_equal(ctx, v.relations[("b1", "b2")], v.gens["b1"].shift(1).neg())
    assert jets_equal(ctx, v.relations[("xv1", "b2")], v.gens["b1"])
    assert jets_equal(ctx, v.relations[("xv2", "b1")], v.gens["b1"].neg())


def test_vee_semiclassical_left():
    ctx = make_ctx(LEFT, 4, 4)
    v = vee_build(ctx, degree=2)
    dual, rep = vee_semiclassical(v)
    assert rep.ok(), rep.first_failure()
    # [f1, f2] = -f1; anchors: f1 -> -x1 d2, f2 -> x1 d1
    x1 = CPoly.var(2, 0)
    assert dual.bracket == {(0, 1): (-CPoly.one(2), CPoly.zero(2))}
    assert dual.anchor[0][1] == -x1
    assert dual.anchor[1][0] == x1


def test_vee_semiclassical_right_is_coopposite():
    ctxL = make_ctx(LEFT, 4, 4)
    ctxR = make_ctx(RIGHT, 4, 4)
    dualL, repL = vee_semiclassical(vee_build(ctxL, degree=2))
    dualR, repR = vee_semiclassical(vee_build(ctxR, degree=2))
    assert repL.ok() and repR.ok()
    for key, vec in dualL.bracket.items():
        assert dualR.bracket[key] == tuple(-c for c in vec)
    for i in range(2):
        for j in range(2):
            assert dualR.anchor[i][j] == -dualL.anchor[i][j]


def test_vee_trivial_abelian():
    spec = der2()
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 3), validate=False)
    ctx = JetContext(dfa, LEFT, 3)
    v = vee_build(ctx, degree=2)
    dual, rep = vee_semiclassical(v)
    assert rep.ok(), rep.first_failure()
    assert not dual.bracket
    # anchor of the rescaled duals comes from [xi-check, x_j] commutators,
    # which vanish classically only at the generator scale; the classical
    # jet dual of the derivation algebra has anchor zero at order h^0
    assert all(c.is_zero() for row in dual.anchor for c in row)


def test_vee_nonintegral_detection():
    # an extra h^-1 rescale of the coordinate functionals puts the
    # commutator below the admissible rescaling depth
    ctx = make_ctx(LEFT, 3, 3)
    from qgroupoid.jets import coordinate_functional, jet_product
    e1 = coordinate_functional(ctx, 0).shift(-1)
    e2 = coordinate_functional(ctx, 1).shift(-1)
    comm = jet_product(ctx, e1, e2, 2).sub(jet_product(ctx, e2, e1, 2))
    # read through the rule vee_build and the roundtrip share
    assert drinfeld._too_deep(comm) == ((0, 0), -1)


def test_roundtrip_reports_a_nonintegral_generator():
    # xi_1 rescaled once more: [h^-2 xi_1, h^-1 xi_2] has h^-2 at depth 1
    ctx = make_ctx(LEFT, 3, 3)
    gens = [xi_functional(ctx, 0).shift(-1), xi_functional(ctx, 1)]
    rep = duality_roundtrip(ctx, generators=gens, n_max=2, degree=2)
    check, = [c for c in rep.checks if c.name == "vee-relations-integral"]
    assert check.status == "fail"
    assert check.witness == "rescaled commutator exceeds depth at (1, 0)"


# -- roundtrip ---------------------------------------------------------------------


def test_roundtrip_left():
    ctx = make_ctx(LEFT, 4, 4)
    rep = duality_roundtrip(ctx, n_max=3, degree=3)
    assert rep.ok(), rep.first_failure()


def test_roundtrip_detects_rescaled_input():
    ctx = make_ctx(LEFT, 3, 3)
    rescaled = [xi_functional(ctx, i).shift(1) for i in range(2)]
    rep = duality_roundtrip(ctx, generators=rescaled, n_max=2, degree=2)
    assert not rep.ok()
    failed = [c.name for c in rep.checks if c.status != "pass"]
    assert "generator-tables-recovered" in failed


def test_functional_membership():
    ctx = make_ctx(LEFT, 3, 3)
    de1 = xi_functional(ctx, 0)
    ok, _ = functional_prime_member(ctx, de1, augmentation_products(ctx.dfa, 2))
    assert ok
    dv1 = de1.shift(-1)
    ok, _ = functional_prime_member(ctx, dv1, augmentation_products(ctx.dfa, 1))
    assert not ok
