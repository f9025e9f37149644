from qgroupoid.lierinehart import lr_validate
from qgroupoid.properties import structure_property_suite

from oracles import jacobi_violating_spec, random_valid_specs


def test_random_specs_are_valid():
    specs = random_valid_specs(seed=7, count=5)
    assert len(specs) == 5
    for spec in specs:
        assert lr_validate(spec).ok(), spec.name


def test_random_specs_deterministic():
    a = random_valid_specs(seed=3, count=4)
    b = random_valid_specs(seed=3, count=4)
    for s, t in zip(a, b):
        assert s.bracket == t.bracket
        assert s.anchor == t.anchor


def test_property_suite_on_random_specs():
    for i, spec in enumerate(random_valid_specs(seed=11, count=3)):
        rep = structure_property_suite(spec, seed=11 + i)
        assert rep.ok(), (spec.name, rep.first_failure())


def test_property_suite_flags_jacobi_violation():
    rep = structure_property_suite(jacobi_violating_spec(), seed=1)
    assert not rep.ok()
    assert "jacobi" in rep.first_failure()
