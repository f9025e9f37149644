"""Each reference of ``oracles.PARITY`` runs none of the loops it checks.

A reference that calls the function under test, or one of the inner loops
that function runs, compares the fast path with itself: a fault in the
shared loop shows on both sides.  So for each entry the reference runs
once, under ``sys.setprofile``, on the smallest argument tuple its input
generator gives on the smallest generated structure (the fewest terms,
every element, series and functional among the arguments nonzero), and
the functions of ``src/qgroupoid`` it calls are collected, a call through
``envelope.memo`` counted as the function it wraps.  The fast path then
runs on the same arguments, traced the same way.  The test fails when the
reference calls the function under test (``under_test``), or a function of
``LOOP_HELPERS`` that the fast path calls, unless ``SHARED`` lists the pair
with its reason; it fails as well on a listed pair that no longer occurs.
"""

import importlib
import inspect
import os
import pkgutil
import sys

import qgroupoid
from qgroupoid.envelope import EnvElement, memo
from qgroupoid.jets import LEFT, RIGHT, JetElement
from qgroupoid.scalars import CPoly
from qgroupoid.series import HLaurent, HSeries
from qgroupoid.tensorspace import TensorElement

import oracles

PACKAGE = os.path.dirname(qgroupoid.__file__)
MEMOISED = memo(lambda owner: None).__code__

# the inner loops of the engine: a reference that runs one that its fast
# path runs checks that loop against itself
LOOP_HELPERS = {
    "envelope._mul_mono_into", "envelope._pbw_mul_into", "envelope._cauchy",
    "envelope._act_into", "envelope._series_image",
    "tensorspace._splice", "tensorspace._mul_into",
    "tensorspace._reduce_into", "tensorspace._reduce2_into",
    "tensorspace._reduce3_into",
    "deform._sweep_image", "deform._reduce_leg",
    "jets._pair_rows", "jets._product_rows", "jets._transpose",
    "jets._scatter", "series._add_terms",
}

# the functions under test of the entries whose name is not one engine
# function's
TESTED = {
    "source_target": ("deform.DeformedEnvAlgebroid.source",
                      "deform.DeformedEnvAlgebroid.target"),
    "series_images": ("deform.DeformedEnvAlgebroid.source_series",
                      "deform.DeformedEnvAlgebroid.target_series"),
    "tensor_arithmetic": ("tensorspace.TensorElement._combine",
                          "tensorspace.TensorElement.scale",
                          "tensorspace.TensorElement.__neg__"),
}

# (entry, engine function, reason) for a reference that shares a loop
# with its fast path on purpose: an earlier link of its chain of oracles,
# which entries of its own check against the end of that chain
PBW_PRODUCTS = "builds its products with pbw_mul, whose loop the pbw_mul " \
    "and _mul_mono_into entries check against the generator-by-generator " \
    "rewriting and the Fraction rows"
SHARED = [
    ("_pair_image", "envelope._mul_mono_into", PBW_PRODUCTS),
    ("jet_coproduct_functional", "envelope._mul_mono_into", PBW_PRODUCTS),
    ("tensor_functional_from_pair", "envelope._mul_mono_into", PBW_PRODUCTS),
    ("tensor_functional_from_pair", "envelope._series_image",
     "maps its first pairings through jets._apply_series_map, whose loop "
     "the series_images entry checks against chain_series_image"),
]


def _engine_functions():
    """{qualified name under the package: function} of every function and
    method that a module of the engine defines."""
    out = {}
    for info in pkgutil.iter_modules(qgroupoid.__path__, "qgroupoid."):
        module = importlib.import_module(info.name)
        short = info.name.rsplit(".", 1)[1]
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != info.name:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for f in members:
                f = getattr(f, "__func__", getattr(f, "fget", f))
                if inspect.isfunction(f):
                    out["%s.%s" % (short, f.__qualname__)] = f
    return out


def under_test(name, functions):
    """The engine functions an entry checks: its ``TESTED`` row, or the
    one function whose qualified name ends in the entry's name (before a
    ``/``)."""
    base = name.split("/")[0]
    if base in TESTED:
        return set(TESTED[base])
    found = {q for q in functions if q.split(".", 1)[1] == base
             or q.endswith("." + base)}
    assert len(found) == 1, (name, found)
    return found


def traced(fn, *args):
    """The qualified names of the engine functions ``fn(*args)`` calls."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call" or not code.co_filename.startswith(PACKAGE):
            return
        if code is MEMOISED:
            f = frame.f_locals["f"]
            seen.add("%s.%s" % (f.__module__.rsplit(".", 1)[1],
                                f.__qualname__))
        else:
            seen.add("%s.%s" % (frame.f_globals["__name__"].rsplit(".", 1)[1],
                                code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return seen


def _size(x):
    """The terms of an argument, or None for one that has none to count
    (a context, an index, a flag)."""
    if isinstance(x, (HSeries, HLaurent)):
        return sum(_size(c) for c in x.coeffs)
    if isinstance(x, JetElement):
        return len(x.table)
    if isinstance(x, CPoly):
        return len(x.terms)
    if isinstance(x, (EnvElement, TensorElement)):
        return len(x.num)
    if isinstance(x, list):
        sizes = [n for n in map(_size, x) if n is not None]
        return sum(sizes) if sizes else None
    return None


def smallest(inputs):
    """The argument tuple with the fewest terms among those whose every
    counted argument is nonzero, the first one on a tie."""
    sized = [[_size(a) for a in args] for args in inputs]
    ok = [i for i, sizes in enumerate(sized)
          if all(s is None or s > 0 for s in sizes)]
    return inputs[min(ok, key=lambda i: sum(s or 0 for s in sized[i]))]


def shared_loops():
    """{(entry, engine function)} of every reference call that the test
    forbids, on the smallest generated structure."""
    functions = _engine_functions()
    dfa = min((oracles.generated_dfa(i) for i in range(oracles.GENERATED)),
              key=lambda d: (d.spec.rank, d.spec.nvars))
    out = set()
    for name, fast, reference, make_inputs, _ in oracles.PARITY:
        args = smallest(make_inputs(dfa, (LEFT, RIGHT)))
        called = traced(reference, dfa, *args)
        forbidden = under_test(name, functions) \
            | (LOOP_HELPERS & traced(fast, dfa, *args))
        out |= {(name, f) for f in called & forbidden}
    return out


def test_loop_helpers_are_engine_functions():
    functions = _engine_functions()
    assert LOOP_HELPERS <= set(functions)
    for name in TESTED:
        assert set(TESTED[name]) <= set(functions), name
    assert all(reason for _, _, reason in SHARED)


def test_no_reference_runs_the_loop_it_checks():
    listed = {(name, f) for name, f, _ in SHARED}
    found = shared_loops()
    assert sorted(found - listed) == []
    assert sorted(listed - found) == []
