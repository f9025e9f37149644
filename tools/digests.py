"""Print the md5 of every reference report, under two hash seeds.

Usage: python tools/digests.py [--only LABEL ...]

Each command below runs as ``python -m qgroupoid.cli <argv> --json-only``
in a fresh process, with this checkout's ``src`` on ``PYTHONPATH``, once
under ``PYTHONHASHSEED=1`` and once under ``PYTHONHASHSEED=2``.  One line
``md5  label`` is printed per command, the md5 of its whole stdout; the
exit status is 1 if the two seeds disagree on any command.  Comparing two
checkouts is a diff of their outputs.

The spec texts are read where they live: ``specs/axb.spec``, the
benchmark's ``BRACKET_SPEC`` at weight a = 2 (``perfbench/run.py``), the
polynomial structure ``tests/test_reachability.POLYNOMIAL_SPEC`` and the
spec whose twistor fails validation, ``tests/test_cli.INVALID_TWISTOR_SPEC``.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = ("1", "2")
SPEC_COMMANDS = (
    ["validate"], ["twist"], ["dualize"], ["dualize", "--side", "right"],
    ["drinfeld", "--functor", "roundtrip"], ["drinfeld", "--functor", "prime"],
    ["drinfeld", "--functor", "vee"], ["semiclassical"],
)


def _on(spec, cmd, *extra):
    return [cmd[0], spec] + cmd[1:] + list(extra)


# argv of each command; a spec is named by its key in ``write_specs``
COMMANDS = [["example", "axb", "--h-order", str(n), "--jet-degree", str(n)]
            for n in (4, 6, 10)]
COMMANDS += [_on("axb.spec", cmd) for cmd in SPEC_COMMANDS]
COMMANDS += [_on("axb.spec", ["twist"], "--h-order", n) for n in ("6", "10")]
COMMANDS += [_on("axb.spec", cmd, "--h-order", "6", "--jet-degree", "6")
             for cmd in (["dualize"], ["dualize", "--side", "right"])]
COMMANDS += [_on("bracket-a2.spec", cmd) for cmd in SPEC_COMMANDS]
COMMANDS += [_on("polynomial.spec", cmd, "--h-order", str(n))
             for n in range(1, 5)
             for cmd in (["dualize"], ["dualize", "--side", "right"])]
COMMANDS += [_on("polynomial.spec", cmd) for cmd in
             (["drinfeld", "--functor", "prime"], ["semiclassical"])]
COMMANDS += [_on("invalid-twistor.spec", [cmd]) for cmd in
             ("twist", "dualize", "drinfeld", "semiclassical")]


def label(argv):
    return " ".join(argv)


def write_specs(directory):
    """{spec name: path} of the specs the commands name, the generated ones
    written into ``directory``."""
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from test_cli import INVALID_TWISTOR_SPEC, _bracket_spec_text
    from test_reachability import POLYNOMIAL_SPEC
    paths = {"axb.spec": os.path.join(ROOT, "specs", "axb.spec")}
    for name, text in (("bracket-a2.spec", _bracket_spec_text(2)),
                       ("polynomial.spec", POLYNOMIAL_SPEC),
                       ("invalid-twistor.spec", INVALID_TWISTOR_SPEC)):
        paths[name] = os.path.join(directory, name)
        with open(paths[name], "w") as fh:
            fh.write(text)
    return paths


def digest(argv, paths, seed):
    """md5 of the stdout of one run of ``argv`` under ``seed``."""
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgroupoid.cli"]
        + [paths.get(a, a) for a in argv] + ["--json-only"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=600)
    return hashlib.md5(proc.stdout).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="*",
                        help="labels of the commands to run")
    args = parser.parse_args(argv)
    chosen = [c for c in COMMANDS if not args.only or label(c) in args.only]
    if args.only and len(chosen) != len(args.only):
        parser.error("unknown label among %r" % (args.only,))
    agree = True
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        paths = write_specs(tmp)
        for command in chosen:
            got = {digest(command, paths, seed) for seed in SEEDS}
            if len(got) > 1:
                agree = False
                print("seeds disagree: %s" % label(command), file=sys.stderr)
            print("%s  %s" % (min(got), label(command)), flush=True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
