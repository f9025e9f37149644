"""Vector fields on the line: e1 = d/dx, e2 = x d/dx over Q[x1].

Both the bracket ([e1, e2] = e1) and the anchor (polynomial in x) are
nontrivial at once, which exercises the mixed rewriting paths; the
abelian derivative twist exp(h e1 (x) e1) stays a twistor here because
e1 commutes with itself, so the whole deformed and dual pipeline runs on
a structure with genuinely interacting data.
"""

from qgroupoid.deform import (
    DeformedEnvAlgebroid, deformed_axiom_suite, exp_twistor, trivial_twistor,
    twistor_validate,
)
from qgroupoid.drinfeld import duality_roundtrip, semiclassical_cobracket, \
    vee_build, vee_semiclassical
from qgroupoid.envelope import EnvElement, pbw_mul
from qgroupoid.jets import LEFT, RIGHT, JetContext, jet_axiom_suite
from qgroupoid.lierinehart import LieRinehartSpec, lr_validate
from qgroupoid.properties import structure_property_suite
from qgroupoid.scalars import CPoly, parse_poly
from qgroupoid.tensorspace import TensorElement


def line_fields_spec():
    one, x = CPoly.one(1), CPoly.var(1, 0)
    bracket = {(0, 1): (one, CPoly.zero(1))}
    anchor = [[one], [x]]
    return LieRinehartSpec(1, 2, bracket, anchor, name="line-fields")


def test_structure_is_valid():
    assert lr_validate(line_fields_spec()).ok()


def test_mixed_rewriting():
    spec = line_fields_spec()
    e1, e2 = EnvElement.gen(1, 2, 0), EnvElement.gen(1, 2, 1)
    x = CPoly.var(1, 0)
    # e2 e1 = e1 e2 - e1
    assert pbw_mul(spec, e2, e1) == EnvElement(1, 2, {
        (1, 1): CPoly.one(1), (1, 0): -CPoly.one(1)})
    # e1 x = x e1 + 1, e2 x = x e2 + x
    xe = EnvElement.from_poly(2, x)
    assert pbw_mul(spec, e1, xe) == EnvElement(1, 2, {
        (1, 0): x, (0, 0): CPoly.one(1)})
    assert pbw_mul(spec, e2, xe) == EnvElement(1, 2, {
        (0, 1): x, (0, 0): x})


def test_property_suite():
    rep = structure_property_suite(line_fields_spec(), seed=5)
    assert rep.ok(), rep.first_failure()


def mixed_dfa(order=3):
    spec = line_fields_spec()
    e1 = EnvElement.gen(1, 2, 0)
    tw = exp_twistor(spec, TensorElement.of(e1, e1), order)
    return DeformedEnvAlgebroid(spec, tw, validate=False)


def test_twist_on_mixed_structure():
    dfa = mixed_dfa(3)
    rep = twistor_validate(dfa)
    assert rep.ok(), rep.first_failure()
    rep = deformed_axiom_suite(dfa, sample_degree=1)
    assert rep.ok(), rep.first_failure()


def test_semiclassics_on_mixed_structure():
    dfa = mixed_dfa(3)
    dual, rep = semiclassical_cobracket(dfa)
    assert rep.ok(), rep.first_failure()
    # symmetric twist: trivial cobracket again
    assert not dual.bracket
    assert all(c.is_zero() for row in dual.anchor for c in row)


def test_duals_and_roundtrip_on_mixed_structure():
    dfa = mixed_dfa(3)
    for flavor in (LEFT, RIGHT):
        ctx = JetContext(dfa, flavor, 3)
        rep = jet_axiom_suite(ctx, sample_degree=2)
        assert rep.ok(), (flavor, rep.first_failure())
    ctx = JetContext(dfa, LEFT, 3)
    v = vee_build(ctx, degree=2)
    dual, rep = vee_semiclassical(v)
    assert rep.ok(), rep.first_failure()
    rep = duality_roundtrip(ctx, n_max=2, degree=2)
    assert rep.ok(), rep.first_failure()


def test_undeformed_duals_on_mixed_structure():
    spec = line_fields_spec()
    dfa = DeformedEnvAlgebroid(spec, trivial_twistor(spec, 2), validate=False)
    for flavor in (LEFT, RIGHT):
        ctx = JetContext(dfa, flavor, 3)
        rep = jet_axiom_suite(ctx, sample_degree=2)
        assert rep.ok(), (flavor, rep.first_failure())
