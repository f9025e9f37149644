import inspect

import pytest

from qgroupoid import envelope
from qgroupoid.errors import DegreeUnsupportedError
from qgroupoid.lierinehart import (
    LieRinehartSpec, MultiVector, lr_bialgebra_validate, lr_differential,
    lr_validate, schouten_bracket,
)
from qgroupoid.scalars import CPoly, monomials_upto, parse_poly

from oracles import bracketed_structure, poisson_from_pair


def der_spec(p=1):
    """A = Q[x1..xp], L = Der(A) on the coordinate derivations."""
    one = CPoly.one(p)
    zero = CPoly.zero(p)
    anchor = [[one if i == j else zero for j in range(p)] for i in range(p)]
    return LieRinehartSpec(p, p, {}, anchor, name="der")


def axplusb_spec():
    """Rank-2 Lie algebra over Q (p=0): [e1,e2] = e1, zero anchor."""
    c = {(0, 1): (CPoly.one(0), CPoly.zero(0))}
    return LieRinehartSpec(0, 2, c, None, name="axb-lie")


def bad_jacobi_spec():
    one, zero = CPoly.one(0), CPoly.zero(0)
    c = {
        (0, 1): (zero, zero, one),   # [e1,e2] = e3
        (1, 2): (one, zero, zero),   # [e2,e3] = e1
        (0, 2): (one, zero, zero),   # [e1,e3] = e1
    }
    return LieRinehartSpec(0, 3, c, None)


def test_structure_bracket_is_read_only():
    spec = axplusb_spec()
    assert spec.bracket == {(0, 1): (CPoly.one(0), CPoly.zero(0))}
    with pytest.raises(TypeError):
        spec.bracket[(0, 1)] = (CPoly.zero(0), CPoly.one(0))
    assert isinstance(spec.anchor, tuple)


def test_validate_der():
    assert lr_validate(der_spec()).ok()
    assert lr_validate(der_spec(2)).ok()


def test_validate_axb():
    assert lr_validate(axplusb_spec()).ok()


def test_validate_jacobi_failure():
    rep = lr_validate(bad_jacobi_spec())
    assert not rep.ok()
    assert "jacobi" in rep.first_failure()


def test_leibniz_mismatch_fails(monkeypatch):
    """A bracket that drops a term of [e_i, f e_j] for a nonconstant f
    fails ``leibniz-compatibility``: the dropped key is on one side only,
    and the comparison reports it instead of raising."""
    real = LieRinehartSpec.bracket_elems
    one = CPoly.one(1)

    def dropped(self, X, Y):
        out = real(self, X, Y)
        if out and any(c != one for c in Y.values()):
            del out[min(out)]
        return out

    monkeypatch.setattr(LieRinehartSpec, "bracket_elems", dropped)
    checks = {c.name: c for c in lr_validate(der_spec()).checks}
    assert checks["leibniz-compatibility"].status == "fail"


def hand_leibniz_failures(spec):
    """The comparison ``leibniz-compatibility`` made before it read the
    envelope: ``bracket_elems(e_i, f e_j)`` against anchor(e_i)(f) e_j +
    f [e_i, e_j] written out by hand from ``bracket_elems`` itself."""
    out = []
    for i in range(spec.rank):
        for j in range(spec.rank):
            for f in monomials_upto(spec.nvars, 2):
                lhs = spec.bracket_elems(spec.basis_elem(i), {j: f})
                rhs = {k: v * f for k, v in spec.bracket_elems(
                    spec.basis_elem(i), spec.basis_elem(j)).items()}
                rhs[j] = rhs.get(j, CPoly.zero(spec.nvars)) \
                    + spec.anchor_apply(i, f)
                if lhs != {k: v for k, v in rhs.items() if not v.is_zero()}:
                    out.append((i, j, f))
    return out


def test_leibniz_check_reads_the_product_table(monkeypatch):
    """``leibniz-compatibility`` compares ``bracket_elems(e_i, f e_j)`` with
    the envelope commutator e_i (f e_j) - (f e_j) e_i, which the product
    table computes by rewriting.  With the sign of the bracket term
    flipped in ``envelope._leg_entry`` (e_j e_i rewritten as e_i e_j +
    [e_i, e_j]) it fails on the bracketed structure, while the hand-written
    Leibniz expansion it replaced reads no product and still passes."""
    source = inspect.getsource(envelope._leg_entry)
    flipped = source.replace("_acc_terms(out, ek, -v, mu)",
                             "_acc_terms(out, ek, v, mu)")
    assert flipped != source
    scope = {}
    exec(compile(flipped, envelope.__file__, "exec"), vars(envelope), scope)
    spec = bracketed_structure()
    checks = {c.name: c for c in lr_validate(spec).checks}
    assert checks["leibniz-compatibility"].status == "pass"
    monkeypatch.setattr(envelope, "_leg_entry", scope["_leg_entry"])
    spec = bracketed_structure()
    checks = {c.name: c for c in lr_validate(spec).checks}
    assert checks["leibniz-compatibility"].status == "fail"
    assert hand_leibniz_failures(spec) == []


def test_differential_on_function():
    spec = der_spec()
    d = lr_differential(spec, MultiVector(1, 0, {(): parse_poly("x1^2", 1)}))
    assert d.terms == {(0,): parse_poly("2*x1", 1)}


def test_differential_zero_structure():
    spec = LieRinehartSpec(1, 2, {}, None)  # zero anchor and bracket
    lam = MultiVector(1, 1, {(0,): CPoly.one(1), (1,): CPoly.var(1, 0)})
    assert lr_differential(spec, lam).is_zero()


def test_differential_axb_forms():
    spec = axplusb_spec()
    e1s = MultiVector(0, 1, {(0,): CPoly.one(0)})
    e2s = MultiVector(0, 1, {(1,): CPoly.one(0)})
    assert lr_differential(spec, e2s).is_zero()
    d1 = lr_differential(spec, e1s)
    assert d1.terms == {(0, 1): -CPoly.one(0)}


def test_d_squared_zero():
    for spec in (der_spec(2), axplusb_spec()):
        for f in monomials_upto(spec.nvars, 2):
            df = lr_differential(spec, MultiVector(spec.nvars, 0, {(): f}))
            assert lr_differential(spec, df).is_zero() or spec.rank < 2
        for i in range(spec.rank):
            lam = MultiVector(spec.nvars, 1, {(i,): CPoly.one(spec.nvars)})
            dd = lr_differential(spec, lr_differential(spec, lam))
            assert dd.is_zero()


def test_schouten_examples():
    spec = axplusb_spec()
    one = CPoly.one(0)
    e1 = MultiVector(0, 1, {(0,): one})
    e2 = MultiVector(0, 1, {(1,): one})
    e12 = MultiVector(0, 2, {(0, 1): one})
    assert schouten_bracket(spec, e1, e12).is_zero()
    out = schouten_bracket(spec, e2, e12)
    assert out.terms == {(0, 1): -one}
    # zero anchor kills [X, f]
    assert schouten_bracket(spec, e1, CPoly.one(0)).is_zero()
    with pytest.raises(DegreeUnsupportedError):
        schouten_bracket(spec, e12, e12)


def sixpair_specs():
    """The derivation algebra on two variables with the dual structure
    induced by its standard exponential deformation."""
    L = der_spec(2)
    x1 = CPoly.var(2, 0)
    zero = CPoly.zero(2)
    # bracket of the dual: [f1, f2] = f1; anchors f1 -> x1 d2, f2 -> -x1 d1
    c = {(0, 1): (CPoly.one(2), zero)}
    anchor = [[zero, x1], [-x1, zero]]
    Lstar = LieRinehartSpec(2, 2, c, anchor, name="dual")
    return L, Lstar


def test_bialgebra_validate_trivial():
    L = axplusb_spec()
    Lstar = LieRinehartSpec(0, 2, {}, None)
    assert lr_bialgebra_validate(L, Lstar).ok()


def test_bialgebra_validate_sixpair():
    L, Lstar = sixpair_specs()
    rep = lr_bialgebra_validate(L, Lstar)
    assert rep.ok(), rep.first_failure()
    # symmetry of the pair condition
    rep2 = lr_bialgebra_validate(Lstar, L)
    assert rep2.ok(), rep2.first_failure()


def test_bialgebra_validate_rejects_a_pair_of_other_ranks():
    rep = lr_bialgebra_validate(axplusb_spec(), LieRinehartSpec(0, 3, {}, None))
    assert [(c.name, c.status, c.witness, c.cases) for c in rep.checks] == [
        ("ranks-match", "fail", "rank/base mismatch between L and L*", 1)]


def test_bialgebra_validate_corrupted():
    L, Lstar = sixpair_specs()
    # perturb [f1, f2] -> [f1, f2] + f2
    c = {(0, 1): (CPoly.one(2), CPoly.one(2))}
    bad = LieRinehartSpec(2, 2, c, Lstar.anchor)
    rep = lr_bialgebra_validate(L, bad)
    assert not rep.ok()
    assert rep.first_failure() is not None


def test_poisson_from_sixpair():
    L, Lstar = sixpair_specs()
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    assert poisson_from_pair(L, Lstar, x1, x2) == x1
    assert poisson_from_pair(L, Lstar, x2, x1) == -x1
    for f in monomials_upto(2, 2):
        assert poisson_from_pair(L, Lstar, f, f).is_zero()


def test_poisson_leibniz():
    L, Lstar = sixpair_specs()
    x1, x2 = CPoly.var(2, 0), CPoly.var(2, 1)
    for f in (x1, x2, x1 * x2):
        for g in (x1, x2):
            for h in (x2, x1 * x1):
                lhs = poisson_from_pair(L, Lstar, f, g * h)
                rhs = poisson_from_pair(L, Lstar, f, g) * h \
                    + g * poisson_from_pair(L, Lstar, f, h)
                assert lhs == rhs


def test_poisson_zero_anchor():
    L = axplusb_spec()
    Lstar = LieRinehartSpec(0, 2, {}, None)
    assert poisson_from_pair(L, Lstar, CPoly.one(0), CPoly.one(0)).is_zero()
