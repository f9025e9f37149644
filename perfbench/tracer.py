"""Run one qgroupoid CLI invocation with per-layer counters and spans.

    python3 perfbench/tracer.py STATS_FILE <qgroupoid cli arguments...>

The report on stdout is the CLI's own, byte for byte.  The counters and
spans go to STATS_FILE as one JSON document.  The wrappers are installed
from outside the engine, before ``cli.main`` runs: every module of the
package that bound a target name at import gets the wrapper in its place,
and methods are patched on their class.  The engine itself is not edited.

Counters (hot leaf calls) are aggregated per layer:

- ``calls``: number of calls;
- ``total_s``: wall time of the outermost calls (recursion counted once);
- ``self_s``: wall time minus the time spent inside wrapped callees;
- ``repeats``: calls whose arguments were already seen in this process,
  i.e. work a perfect cache would skip (only where ``track`` is set).

Spans (coarse boundaries: the invocation, the deformation build and each
suite call) keep their start, end and parent span id.
"""

import json
import sys
import time

_clock = time.perf_counter

# (module, attribute, track repeated arguments).  A dotted attribute is a
# method, patched on its class; its layer name is "<module>.<method>".
COUNTED = (
    ("deform", "DeformedEnvAlgebroid.lift_mono", True),
    ("deform", "DeformedEnvAlgebroid.star_coeffs", True),
    ("deform", "DeformedEnvAlgebroid.decompose_mono", True),
    ("deform", "reduce_series", False),
    ("deform", "deformed_coproduct_leg", False),
    ("deform", "basis_decompose", False),
    ("deform", "twistor_invert", False),
    ("deform", "twistor_validate", False),
    ("envelope", "pbw_mul", True),
    ("tensorspace", "tensor_mul", True),
    ("series", "hseries_mul", False),
    ("series", "hseries_invert", False),
    ("kernel", "poly_mul", False),
    ("kernel", "poly_add", False),
    ("jets", "jet_product_eval", False),
    ("jets", "jet_pair", False),
    ("drinfeld", "vee_build", False),
    ("drinfeld", "duality_roundtrip", False),
    ("drinfeld", "hprime_member", False),
    ("properties", "structure_property_suite", False),
    ("specfile", "load_spec_file", False),
)

# Coarse boundaries that get a span.  Counted layers named here get both.
SPANNED = (
    ("deform", "DeformedEnvAlgebroid.__init__"),
    ("axb", "build_axb"),
    ("axb", "axb_relation_suite"),
    ("axb", "axb_iso_phi"),
    ("deform", "twistor_validate"),
    ("deform", "deformed_axiom_suite"),
    ("jets", "jet_axiom_suite"),
    ("drinfeld", "vee_build"),
    ("drinfeld", "vee_semiclassical"),
    ("drinfeld", "duality_roundtrip"),
    ("drinfeld", "hprime_member"),
    ("drinfeld", "semiclassical_cobracket"),
    ("drinfeld", "semiclassical_dual_bracket"),
    ("properties", "structure_property_suite"),
    ("specfile", "load_spec_file"),
)


class Layer:
    __slots__ = ("calls", "total", "self_time", "repeats", "seen", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.repeats = 0
        self.seen = set()
        self.active = 0

    def as_dict(self):
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "repeats": self.repeats}


class Tracer:
    """Counters and spans of one process; ``install`` patches the package."""

    def __init__(self):
        self.layers = {}
        self.spans = []
        self.missing = []
        self._frames = []      # child-time accumulators of active counted calls
        self._open = []        # ids of active spans
        self.epoch = _clock()

    # -- spans -----------------------------------------------------------

    def begin(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "start": _clock() - self.epoch, "end": None})
        self._open.append(sid)
        return sid

    def end(self, sid):
        self._open.pop()
        self.spans[sid]["end"] = _clock() - self.epoch

    # -- wrappers --------------------------------------------------------

    def counted(self, layer, fn, track):
        frames = self._frames

        def wrapper(*args, **kwargs):
            layer.calls += 1
            if track:
                # the first argument is the spec or the deformation, which
                # lives for the whole invocation, so its id is a stable key
                try:
                    key = hash((id(args[0]),) + args[1:]
                               + tuple(sorted(kwargs.items())))
                except TypeError:
                    key = None
                if key is not None:
                    if key in layer.seen:
                        layer.repeats += 1
                    else:
                        layer.seen.add(key)
            frame = [0.0]
            frames.append(frame)
            layer.active += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                frames.pop()
                layer.active -= 1
                if not layer.active:
                    layer.total += dt
                layer.self_time += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
        return wrapper

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every target in the already imported ``qgroupoid`` package."""
        import qgroupoid  # noqa: F401  (imports every engine module)
        for modname, attr, track in COUNTED:
            name = "%s.%s" % (modname, attr.rsplit(".", 1)[-1])
            layer = self.layers[name] = Layer()
            self._patch(modname, attr,
                        lambda fn, layer=layer, track=track:
                        self.counted(layer, fn, track))
        for modname, attr in SPANNED:
            name = "%s.%s" % (modname, attr)
            self._patch(modname, attr,
                        lambda fn, name=name: self.spanned(name, fn))

    def _patch(self, modname, attr, make):
        mod = sys.modules.get("qgroupoid." + modname)
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, fname, None) if owner is not None else None
        if original is None:
            self.missing.append("%s.%s" % (modname, attr))
            return
        wrapper = make(original)
        if owner_name:
            setattr(owner, fname, wrapper)
            return
        # rebind the name wherever the package bound the original object
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "qgroupoid"
                                 or mname.startswith("qgroupoid.")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    def stats(self):
        return {"layers": {k: v.as_dict() for k, v in self.layers.items()},
                "spans": self.spans, "missing": self.missing}


def main(argv):
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 3
    stats_path, cli_argv = argv[0], argv[1:]
    t0 = _clock()
    import qgroupoid.cli
    import_s = _clock() - t0
    tracer = Tracer()
    tracer.install()
    root = tracer.begin("cli.main")
    code = None
    try:
        code = qgroupoid.cli.main(cli_argv)
    finally:
        tracer.end(root)
        sys.stdout.flush()
        out = tracer.stats()
        out.update({"argv": cli_argv, "import_s": import_s, "exit": code})
        with open(stats_path, "w") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
