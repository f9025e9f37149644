"""The reference commands of ``tools/digests.py``: no check of theirs passes
without reading a case, and the tool prints the pinned digest."""

import importlib.util
import os
import subprocess
import sys

from qgroupoid import cli
from qgroupoid.report import Report

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
# the same, for a check of a sub-report folded into a one-case check
# (``Report.first_failure`` as its test), by its name in the sub-report
FOLDED_ZERO_CASES = {
    "filtration-growth":
        (None, "validate's pairing-axioms folds jet_axiom_suite, whose "
               "filtration-growth is given no witnesses (ROADMAP item 7)"),
    "jacobi-basis-triples":
        ({"axb.spec", "polynomial.spec"},
         "semiclassical's induced-pair-is-bialgebra folds lr_validate "
         "reports of rank 2, which have no triple of basis elements"),
}
# a ``Report.record`` entry: a table shown as metadata, not a check of cases
RECORDS = "relation/"


def test_no_reference_check_passes_on_zero_cases(tmp_path, monkeypatch):
    """Every check of each reference command, and every check of each
    sub-report that a command folds into one check, reads at least one
    case, apart from the listed exceptions."""
    reports, folded = [], []
    monkeypatch.setattr(cli, "_emit", lambda report, args: reports.append(report))
    real = Report.first_failure

    def first_failure(report):
        folded.append(report)
        return real(report)

    monkeypatch.setattr(Report, "first_failure", first_failure)
    paths = DIGESTS.write_specs(str(tmp_path))
    vacuous, excepted = [], set()
    for argv in DIGESTS.COMMANDS:
        del reports[:], folded[:]
        cli.main([paths.get(a, a) for a in argv] + ["--json-only"])
        report, = reports
        checks = [(ZERO_CASES, check) for check in report.checks]
        checks += [(FOLDED_ZERO_CASES, check) for sub in folded
                   if sub is not report for check in sub.checks]
        for table, check in checks:
            if check.cases or check.name.startswith(RECORDS):
                continue
            specs, _ = table.get(check.name, (set(), None))
            if specs is None or set(argv) & specs:
                excepted.add(check.name)
            else:
                vacuous.append((DIGESTS.label(argv), check.name))
    assert vacuous == []
    # every exception is still needed
    assert excepted == set(ZERO_CASES) | set(FOLDED_ZERO_CASES)


def test_digests_tool_prints_the_pinned_digest():
    label = "example axb --h-order 4 --jet-degree 4"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "digests.py"),
         "--only", label], capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "54717f203e186fa1bec9b7813e68a19d  %s\n" % label
