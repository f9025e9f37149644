"""The reference commands of ``tools/digests.py``: no check of theirs passes
without reading a case, and the tool prints the pinned digest."""

import importlib.util
import os
import subprocess
import sys

from qgroupoid import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _digests():
    path = os.path.join(ROOT, "tools", "digests.py")
    spec = importlib.util.spec_from_file_location("digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIGESTS = _digests()

# check name: (the specs it may read no case on, None for any; the reason)
ZERO_CASES = {
    "axioms/filtration-growth":
        (None, "it evaluates the H' witnesses it is given, and no caller "
               "gives any yet (ROADMAP item 7)"),
    "lr/jacobi-basis-triples":
        ({"axb.spec", "polynomial.spec"},
         "a structure of rank 2 has no triple of basis elements"),
}
# a ``Report.record`` entry: a table shown as metadata, not a check of cases
RECORDS = "relation/"


def test_no_reference_check_passes_on_zero_cases(tmp_path, monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, args: reports.append(report))
    paths = DIGESTS.write_specs(str(tmp_path))
    vacuous, excepted = [], set()
    for argv in DIGESTS.COMMANDS:
        del reports[:]
        cli.main([paths.get(a, a) for a in argv] + ["--json-only"])
        report, = reports
        for check in report.checks:
            if check.cases or check.name.startswith(RECORDS):
                continue
            specs, _ = ZERO_CASES.get(check.name, (set(), None))
            if specs is None or set(argv) & specs:
                excepted.add(check.name)
            else:
                vacuous.append((DIGESTS.label(argv), check.name))
    assert vacuous == []
    # every exception is still needed
    assert excepted == set(ZERO_CASES)


def test_digests_tool_prints_the_pinned_digest():
    label = "example axb --h-order 4 --jet-degree 4"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "digests.py"),
         "--only", label], capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "54717f203e186fa1bec9b7813e68a19d  %s\n" % label
