"""Print the md5 of every reference report, under two hash seeds.

Usage: python tools/digests.py [--values] [--only LABEL ...]

Each command below runs as ``python -m qgroupoid.cli <argv> --json-only``
in a fresh process, with this checkout's ``src`` on ``PYTHONPATH``, once
under ``PYTHONHASHSEED=1`` and once under ``PYTHONHASHSEED=2``.  One line
``md5  label`` is printed per command, the md5 of its whole stdout; the
exit status is 1 if the two seeds disagree on any command.  Comparing two
checkouts is a diff of their outputs.

A report's passing record carries only its name and status, so equal
report digests do not show that a value stayed the same.  ``--values``
prints, for each case of ``VALUE_CASES`` (a spec and a truncation order
N), one line ``md5  spec N part`` per public value family
(``value_parts``), the md5 of the family's canonical form
(``perfbench/values.canon``), windows included; a part that raises
prints its exception class in place of the md5.  Each case runs in a
fresh process under both seeds, as the commands do, and ``--only`` takes
case labels ``spec N``.

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


# (spec name, truncation order N) of each ``--values`` case
VALUE_CASES = [("axb.spec", 4), ("axb.spec", 6), ("bracket-a2.spec", 4)]
VALUE_CASES += [("polynomial.spec", n) for n in range(1, 5)]


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


def value_parts(path, n):
    """[(part, value)] for the spec file at ``path`` at truncation order n,
    each value a thunk: the public value families of the jet duals, per
    flavor at the spec's jet degree, and of the rescaling functors.  The
    functionals are the xi_i and the coordinate functionals."""
    from qgroupoid import DeformedEnvAlgebroid, load_spec_file
    from qgroupoid.deform import defelem_from_env
    from qgroupoid.drinfeld import (
        hprime_basis, hprime_member, semiclassical_cobracket, vee_build,
    )
    from qgroupoid.envelope import EnvElement
    from qgroupoid.jets import (
        LEFT, RIGHT, JetContext, coordinate_functional,
        jet_coproduct_functional, jet_product, jet_source_target,
        tensor_functional_from_pair, xi_functional,
    )
    from qgroupoid.scalars import monomials_upto, pbw_indices
    espec = load_spec_file(path)
    spec = espec.build_structure()
    dfa = DeformedEnvAlgebroid(spec, espec.build_twistor(spec, n),
                               validate=False)
    p, m, d = spec.nvars, spec.rank, espec.jet_degree
    n_max = min(espec.n_max, n)

    def dual_parts(ctx):
        funcs = [xi_functional(ctx, i) for i in range(m)] \
            + [coordinate_functional(ctx, j) for j in range(p)]
        pairs = [(lam, mu) for lam in funcs for mu in funcs]
        return [
            ("jet_product", lambda: [
                jet_product(ctx, lam, mu).table for lam, mu in pairs]),
            ("jet_source_target", lambda: [
                [e.table for e in jet_source_target(ctx, a)]
                for a in monomials_upto(p, 2)]),
            ("jet_coproduct_functional", lambda: [
                jet_coproduct_functional(ctx, lam) for lam in funcs]),
            ("tensor_functional_from_pair", lambda: [
                tensor_functional_from_pair(ctx, lam, mu)
                for lam, mu in pairs]),
            ("vee_relations", lambda: {
                key: rel.table for key, rel in vee_build(
                    ctx, degree=min(d, 3)).relations.items()}),
            ("hprime_basis", lambda: hprime_basis(ctx, min(d, 2), n_max))]

    parts = [(flavor + "/" + name, thunk) for flavor in (LEFT, RIGHT)
             for name, thunk in dual_parts(JetContext(dfa, flavor, d))]

    def members():
        # h^k x^gamma e^alpha over |gamma| <= 1, |alpha| <= 2, k <= |alpha|
        out = []
        for g in monomials_upto(p, 1):
            for alpha in pbw_indices(m, 2):
                u = defelem_from_env(
                    spec, EnvElement.monomial(p, m, alpha, g), n)
                out += [(g, alpha, k, hprime_member(dfa, u.shift(k), n_max))
                        for k in range(sum(alpha) + 1)]
        return out

    def cobracket():
        dual, _ = semiclassical_cobracket(dfa)
        return [dict(dual.bracket), dual.anchor]

    return parts + [("hprime_member", members),
                    ("semiclassical_cobracket", cobracket)]


def value_lines(path, name, n):
    """The ``--values`` lines of one case, in this process."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from values import digest as canon_md5
    for part, thunk in value_parts(path, n):
        try:
            got = canon_md5(thunk())
        except Exception as exc:
            got = type(exc).__name__
        print("%s  %s %d %s" % (got, name, n, part), flush=True)


def case_lines(name, n, paths, seed):
    """The ``--values`` lines of one case, run in a fresh process under
    ``seed``."""
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--case", paths[name],
         name, str(n)], env=env, stdout=subprocess.PIPE, timeout=600,
        check=True, universal_newlines=True)
    return proc.stdout.splitlines()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="*",
                        help="labels of the commands (or cases) to run")
    parser.add_argument("--values", action="store_true",
                        help="print value-family digests, not reports")
    parser.add_argument("--case", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        path, name, n = args.case
        value_lines(path, name, int(n))
        return 0
    if args.values:
        jobs = ["%s %d" % case for case in VALUE_CASES]
    else:
        jobs = [label(c) for c in COMMANDS]
    chosen = [j for j in jobs if not args.only or j in args.only]
    if args.only and len(chosen) != len(args.only):
        parser.error("unknown label among %r" % (args.only,))
    agree = True
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        paths = write_specs(tmp)

        def lines(job, seed):
            if args.values:
                name, n = job.split()
                return case_lines(name, int(n), paths, seed)
            command = COMMANDS[jobs.index(job)]
            return ["%s  %s" % (digest(command, paths, seed), job)]

        for job in chosen:
            got = [lines(job, seed) for seed in SEEDS]
            if got[0] != got[1]:
                agree = False
                print("seeds disagree: %s" % job, file=sys.stderr)
            for line in got[0]:
                print(line, flush=True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
