"""The seeded mutants of ``tools/mutants.py`` still apply to the engine."""

import importlib.util
import os


def test_each_mutant_snippet_occurs_once():
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "mutants.py")
    spec = importlib.util.spec_from_file_location("mutants", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.MUTANTS
    assert len({m[0] for m in mod.MUTANTS}) == len(mod.MUTANTS)
    assert mod.occurrences() == {m[0]: 1 for m in mod.MUTANTS}
