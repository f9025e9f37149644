"""Every name a module exports through ``__all__`` exists on that module."""

import importlib
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
