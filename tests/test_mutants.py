"""The seeded mutants of ``tools/mutants.py`` still apply to the engine."""

import ast
import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _mutants():
    path = os.path.join(ROOT, "tools", "mutants.py")
    spec = importlib.util.spec_from_file_location("mutants", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_each_mutant_snippet_occurs_once():
    mod = _mutants()
    assert mod.MUTANTS
    assert len({m[0] for m in mod.MUTANTS}) == len(mod.MUTANTS)
    assert mod.occurrences() == {m[0]: 1 for m in mod.MUTANTS}


def test_each_mutant_names_tests_that_exist():
    """Every test id a mutant names is a file of the repository and, after
    ``::``, a top-level ``def`` of that file, any ``[param]`` suffix
    dropped; the files are read with ``ast``, not collected by pytest."""
    defs = {}
    for name, _, _, _, tests in _mutants().MUTANTS:
        assert tests, name
        for test_id in tests:
            path, _, func = test_id.partition("::")
            full = os.path.join(ROOT, path)
            assert os.path.isfile(full), (name, test_id)
            if path not in defs:
                with open(full) as fh:
                    tree = ast.parse(fh.read())
                defs[path] = {node.name for node in tree.body
                              if isinstance(node, ast.FunctionDef)}
            if func:
                assert func.split("[")[0] in defs[path], (name, test_id)
