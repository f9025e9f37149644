"""``tools/opcount.py`` counts the bytecodes of one CLI command the same
way on every run."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def opcount(*argv):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "opcount.py")] + list(argv),
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_two_runs_count_the_same_bytecodes():
    argv = ["--top", "5", "--inclusive", "deform.twistor_validate",
            "--", "drinfeld", os.path.join(ROOT, "specs", "axb.spec"),
            "--h-order", "1", "--jet-degree", "1", "--n-max", "1"]
    first, second = opcount(*argv), opcount(*argv)
    assert first == second
    assert first["exit"] == 0
    inclusive = first["inclusive"]["deform.twistor_validate"]
    assert 0 < inclusive < first["total"]
    counts = [n for _, n in first["self"]]
    assert len(counts) == 5 and counts == sorted(counts, reverse=True)
    assert sum(counts) <= first["total"]
