"""Every name a module exports through ``__all__`` exists on that module,
and every engine name the benchmark tracer wraps exists too."""

import importlib
import importlib.util
import os
import pkgutil

import pytest

import qgroupoid

MODULES = sorted(m.name for m in pkgutil.iter_modules(qgroupoid.__path__,
                                                      "qgroupoid."))


def test_modules_are_found():
    assert "qgroupoid.envelope" in MODULES and "qgroupoid.jets" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [e for e in exported if not hasattr(mod, e)] == []


def load_tracer():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_resolves():
    """The benchmark tracer wraps these names from outside; one it cannot
    find is only recorded as missing, and its per-layer numbers vanish."""
    tracer = load_tracer()
    targets = [(m, a) for m, a, _ in tracer.COUNTED] + list(tracer.SPANNED)
    missing = []
    for modname, attr in targets:
        owner = importlib.import_module("qgroupoid." + modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (modname, attr))
    assert missing == []
