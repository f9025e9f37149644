"""Benchmark of the qgroupoid CLI: whole certified runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the engine is imported from
``src/`` and nothing is installed.  One parent process drives the real CLI
(``python3 -m qgroupoid.cli ... --json-only``) as child processes, one at
a time, on one CPU, and times each child with ``wait4`` rusage.

Times are reported in reference-speed seconds: each child's wall and CPU
time is scaled by the speed of its CPU while it ran, measured by a probe
thread on the same CPU (see SpeedProbe), so that runs taken while a
shared machine's CPU was fast and while it was slow compare.  The clock's own
reading is kept as ``raw_wall_s`` in the table and the results file.

A run of one workload

1. writes the workload's inputs, made from ``--seed``, under ``.perfbench/``;
2. with ``--trace 0``, times the set-up of each distinct invocation in its
   own child that stops after the build (``values.py setup``), several
   times, and takes the median;
3. runs whole passes over the workload's invocations for ``--seconds``
   (at least one pass) with ``PYTHONHASHSEED`` pinned, and reports the
   median pass;
4. with ``--trace 1``, runs one more pass under ``tracer.py`` and reports
   the per-layer counters, and the tracing overhead against step 3;
5. checks correctness, untimed: every report's md5 against
   ``reference.json``, one invocation again under a second hash seed, and
   the value fingerprint (``values.py fingerprint``) under both hash seeds.

Every child that fails counts, by kind, against the children attempted.
It prints a table, writes ``.perfbench/results/<workload>-trace<t>-seed<n>.json``
(and the spans to ``.perfbench/trace/``), and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The metric names and units are those of ``BENCHMARK.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import sys
import threading
import time
from collections import Counter, namedtuple
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

HASH_SEED = "1"          # pinned for every timed child
CHECK_HASH_SEED = "2"    # the correctness rerun must agree under this one
SETUP_REPEATS = 7
MEASURE_BUDGET_S = 100   # no timed pass starts that would end later than this
RUN_BUDGET_S = 170       # every child is killed by then; a run exits in 180 s
PROBE_EVERY_S = 0.05     # one speed-probe chunk per interval while a child runs
REF_CHUNK_S = 0.002      # CPU time of one probe chunk at the reference speed

Invocation = namedtuple("Invocation", "label argv setup timeout")
Fingerprint = namedtuple("Fingerprint", "label args")
Plan = namedtuple("Plan", "invocations fingerprints rerun")

# -- workloads -----------------------------------------------------------------

SPEC_COMMANDS = (
    ("validate",), ("twist",), ("dualize",), ("dualize", "--side", "right"),
    ("drinfeld", "--functor", "roundtrip"), ("drinfeld", "--functor", "prime"),
    ("drinfeld", "--functor", "vee"), ("semiclassical",),
)

# rho(e1) = x1 d1 + a x2 d2, rho(e2) = d1, rho(e3) = d2,
# [e1, e2] = -e2, [e1, e3] = -a e3, untwisted.  Each weight is checked to
# pass all eight subcommands.
BRACKET_WEIGHTS = (-1, 2, 3, 5)
BRACKET_SPEC = """\
# Generated by perfbench/run.py: a bracketed structure, weight a = {a}.
[base]
vars = x1 x2

[generators]
names = e1 e2 e3

[bracket]
c 1 2 2 = -1
c 1 3 3 = {neg_a}

[anchor]
w 1 1 = x1
w 1 2 = {a}*x2
w 2 1 = 1
w 3 2 = 1

[twistor]
form = none

[truncation]
h_order = 4
pbw_degree = 6
jet_degree = 4
n_max = 3

[samples]
max_degree = 2

[rng]
seed = 7
"""


# The N=6 workloads are the ROADMAP's fixed baseline commands; the seed only
# picks the bracket weight of cli-n4.
def plan_example_n6(seed, inputs):
    argv = ["example", "axb", "--h-order", "6", "--jet-degree", "6"]
    return Plan(
        [Invocation("example axb --h-order 6 --jet-degree 6", argv,
                    ("axb", "deformation", "--h-order", "6", "--jet-degree", "6"),
                    120)],
        [Fingerprint("axb n6", ["axb", "--h-order", "6", "--jet-degree", "6"])],
        0)


def plan_twist_n6(seed, inputs):
    return Plan(
        [Invocation("axb twist --h-order 6",
                    ["twist", "specs/axb.spec", "--h-order", "6"],
                    ("specs/axb.spec", "deformation", "--h-order", "6"), 120)],
        [Fingerprint("axb.spec n6", ["specs/axb.spec", "--h-order", "6",
                                     "--jet-degree", "4"])],
        0)


def plan_cli_n4(seed, inputs):
    a = random.Random(seed).choice(BRACKET_WEIGHTS)
    path = os.path.join(inputs, "bracket-a%d.spec" % a)
    with open(path, "w") as fh:
        fh.write(BRACKET_SPEC.format(a=a, neg_a=-a))
    specs = (("axb", "specs/axb.spec"), ("bracket(a=%d)" % a, path))
    invocations = []
    for label, spec in specs:
        for cmd in SPEC_COMMANDS:
            invocations.append(Invocation(
                "%s %s" % (label, " ".join(cmd)),
                [cmd[0], spec] + list(cmd[1:]),
                (spec, "structure" if cmd[0] == "validate" else "deformation"),
                60))
    fingerprints = [
        Fingerprint("%s n4" % label,
                    [spec, "--h-order", "4", "--jet-degree", "4"])
        for label, spec in specs]
    rerun = [inv.label for inv in invocations].index(
        "bracket(a=%d) dualize --side right" % a)
    return Plan(invocations, fingerprints, rerun)


WORKLOADS = {
    "example-n6": plan_example_n6,
    "twist-n6": plan_twist_n6,
    "cli-n4": plan_cli_n4,
}

# Which end-to-end metric each layer should move, and on which workload;
# printed beside the per-layer numbers of a traced run.
MOVES = {
    "deform.lift_mono": "wall_s/cpu_s on example-n6, not twist-n6",
    "deform.reduce_series": "wall_s on twist-n6, not example-n6",
    "deform.deformed_coproduct_leg": "wall_s on twist-n6, not example-n6",
    "deform.star_coeffs": "wall_s on twist-n6",
    "deform.decompose_mono": "wall_s on both N=6 workloads",
    "deform.basis_decompose": "wall_s on both N=6 workloads",
    "deform.twistor_invert": "setup_s/wall_s on cli-n4",
    "deform.twistor_validate": "setup_s/wall_s on cli-n4",
    "envelope.pbw_mul": "wall_s on all three; the bracket branch on cli-n4",
    "tensorspace.tensor_mul": "wall_s on example-n6 most",
    "series.hseries_mul": "wall_s on the N=6 workloads",
    "series.hseries_invert": "wall_s on the N=6 workloads",
    "kernel.poly_mul": "cpu_s everywhere",
    "kernel.poly_add": "cpu_s everywhere",
    "jets.jet_product_eval": "wall_s on example-n6 and cli-n4",
    "jets.jet_pair": "wall_s on example-n6 and cli-n4",
    "drinfeld.vee_build": "wall_s on cli-n4",
    "drinfeld.duality_roundtrip": "wall_s on cli-n4",
    "drinfeld.hprime_member": "wall_s on cli-n4",
    "properties.structure_property_suite": "wall_s on cli-n4",
    "specfile.load_spec_file": "setup_s on cli-n4",
    "qgroupoid.import": "setup_s on cli-n4",
}

# -- children --------------------------------------------------------------------

Child = namedtuple("Child", "exit wall cpu rss_kb timed_out stdout speed")


def probe_chunk():
    """Thread CPU time of a fixed unit of interpreter work.

    Rational arithmetic in a small dict, like the engine's inner loops but
    independent of the engine, so a change to the engine cannot move it.
    """
    t0 = time.thread_time()
    acc = {}
    for i in range(400):
        k = (i % 17, i % 13)
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 7 + 1, i % 5 + 1)
    return time.thread_time() - t0


class SpeedProbe:
    """Speed of this CPU while a child runs on it, relative to the reference.

    On a shared machine (2 vCPUs of a Xeon host) the CPU runs the same
    code up to 1.5x faster or slower from one minute to the next, and
    neither a loop timed before and after a child nor one on the other CPU
    follows it.  A probe thread on the same CPU as the child, taking a
    short chunk every PROBE_EVERY_S, does: child time divided by the mean
    chunk time is steady to about 1%.  The chunks take about 4% of the CPU
    from the child, on every run alike.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            self.samples.append(probe_chunk())
            if self._stop.wait(PROBE_EVERY_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def factor(self):
        """Multiply a time measured under the probe to get reference time."""
        return REF_CHUNK_S / statistics.mean(self.samples)


def child_env(hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def spawn(args, hash_seed, timeout, deadline):
    """Run ``python3 ARGS`` to its end and return its exit, times and stdout.

    The child is killed at ``timeout`` seconds or at ``deadline``
    (a ``perf_counter`` value), whichever comes first.  ``speed`` is the
    SpeedProbe factor over the child's life.
    """
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    limit = max(0.0, min(timeout, deadline - time.perf_counter()))
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + list(args),
                             child_env(hash_seed), file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(limit * 1000.0)
            wall = time.perf_counter() - t0
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        finally:
            _, status, usage = os.wait4(pid, 0)
            os.close(pidfd)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    if not timed_out and os.WIFEXITED(status):
        code = os.WEXITSTATUS(status)
    else:
        code = -1
        with open(err_path, "rb") as fh:
            sys.stderr.write(fh.read()[-2000:].decode(errors="replace"))
    return Child(code, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss, timed_out, stdout, probe.factor)


class Ledger:
    """Children attempted and failed, failures counted by kind."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()

    def record(self, label, kind):
        self.attempted += 1
        if kind is not None:
            self.failures[kind] += 1
            print("FAILED %s: %s" % (kind, label), file=sys.stderr)
        return kind is None

    @property
    def failed(self):
        return sum(self.failures.values())


def run_cli(inv, hash_seed, reference, ledger, deadline, stats_path=None):
    """One CLI invocation, checked against the reference digest."""
    if stats_path is None:
        args = ["-m", "qgroupoid.cli"]
    else:
        args = [os.path.join(HERE, "tracer.py"), stats_path]
    child = spawn(args + inv.argv + ["--json-only"], hash_seed,
                  inv.timeout, deadline)
    digest = hashlib.md5(child.stdout).hexdigest()
    passed, verdict = 0, None
    try:
        summary = json.loads(child.stdout.splitlines()[-1])
        passed, verdict = summary["counts"]["pass"], summary["verdict"]
    except (IndexError, KeyError, ValueError):
        pass
    if child.timed_out:
        kind = "timeout"
    elif child.exit in (1, 2, 3):
        kind = "exit%d" % child.exit
    elif child.exit != 0:
        kind = "exit_other"
    elif verdict != "pass":
        kind = "verdict"
    elif digest != reference["digests"].get(inv.label):
        kind = "digest"
    else:
        kind = None
    ok = ledger.record(inv.label, kind)
    return child, (passed if ok else 0), digest


def run_pass(invocations, reference, ledger, deadline, stats_dir=None):
    """All invocations once; returns the pass totals and per-child stats.

    ``wall_s`` and ``cpu_s`` are in reference-speed seconds, ``raw_*`` as
    the clock read them.
    """
    wall = cpu = raw_wall = raw_cpu = 0.0
    rss = passed = 0
    stats = []
    for i, inv in enumerate(invocations):
        path = None
        if stats_dir is not None:
            path = os.path.join(stats_dir, "invocation-%d.json" % i)
            if os.path.exists(path):
                os.remove(path)
        child, ok_checks, _ = run_cli(inv, HASH_SEED, reference, ledger,
                                      deadline, path)
        wall += child.wall * child.speed
        cpu += child.cpu * child.speed
        raw_wall += child.wall
        raw_cpu += child.cpu
        rss = max(rss, child.rss_kb)
        passed += ok_checks
        if path is not None and os.path.exists(path):
            with open(path) as fh:
                stats.append(dict(json.load(fh), speed=child.speed))
    return {"wall_s": wall, "cpu_s": cpu, "raw_wall_s": raw_wall,
            "raw_cpu_s": raw_cpu, "rss_kb": rss, "checks": passed}, stats


def measure_setup(invocations, ledger, deadline):
    """Sum over invocations of the median set-up time of their kind."""
    kinds = Counter(inv.setup for inv in invocations)
    samples = {kind: [] for kind in kinds}
    script = os.path.join(HERE, "values.py")
    for _ in range(SETUP_REPEATS):
        for kind in kinds:
            child = spawn([script, "setup"] + list(kind), HASH_SEED, 60,
                          deadline)
            bad = "timeout" if child.timed_out else (
                None if child.exit == 0 else "setup")
            if ledger.record("setup " + " ".join(kind), bad):
                samples[kind].append(child.wall * child.speed)
    return sum(n * median(samples[k]) for k, n in kinds.items())


def check_fingerprints(fingerprints, reference, ledger, deadline, trace):
    """Fingerprints under both hash seeds, against the reference."""
    script = os.path.join(HERE, "values.py")
    found, backend = {}, "unknown"
    for fp in fingerprints:
        for hash_seed in (HASH_SEED, CHECK_HASH_SEED):
            args = [script, "fingerprint"] + fp.args + (
                ["--trace"] if trace else [])
            child = spawn(args, hash_seed, 60, deadline)
            value = None
            if child.exit == 0:
                try:
                    out = json.loads(child.stdout)
                    value, backend = out["fingerprint"], out["backend"]
                except (KeyError, ValueError):
                    pass
            found.setdefault(fp.label, []).append(value)
            good = value is not None and \
                value == reference["fingerprints"].get(fp.label)
            ledger.record("fingerprint %s (PYTHONHASHSEED=%s)"
                          % (fp.label, hash_seed),
                          None if good else "fingerprint")
    return found, backend

# -- environment stamp -------------------------------------------------------------


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "none"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = os.path.join(ROOT, ".git", name)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return "unknown"


def source_digest():
    """md5 over the engine's source files, for checkouts without .git."""
    h = hashlib.md5()
    pkg = os.path.join(ROOT, "src", "qgroupoid")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()

# -- one workload -------------------------------------------------------------------


def median(values):
    """Median, or 0.0 when every sample failed (the failures are counted)."""
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace, spec):
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    inputs = os.path.join(WORK, "inputs")
    for d in (inputs, os.path.join(WORK, "results"),
              os.path.join(WORK, "trace"), os.path.join(WORK, "stats")):
        os.makedirs(d, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    plan = WORKLOADS[name](seed, inputs)
    ledger = Ledger()

    setup_s = None
    if not trace:
        setup_s = measure_setup(plan.invocations, ledger, deadline)

    passes = []
    t0 = time.perf_counter()
    while True:
        p, _ = run_pass(plan.invocations, reference, ledger, deadline)
        passes.append(p)
        now = time.perf_counter()
        if now - t0 >= seconds or \
                now + p["wall_s"] > start + MEASURE_BUDGET_S:
            break

    e2e = {
        "wall_s": median([p["wall_s"] for p in passes]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "setup_s": setup_s,
        "checks_per_s": median([p["checks"] / p["wall_s"] for p in passes]),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024.0,
        "raw_wall_s": median([p["raw_wall_s"] for p in passes]),
    }

    layers, missing = None, []
    if trace:
        stats_dir = os.path.join(WORK, "stats")
        traced, stats = run_pass(plan.invocations, reference, ledger,
                                 deadline, stats_dir)
        layers = per_layer(stats, traced["wall_s"] - e2e["wall_s"])
        missing = sorted({m for st in stats for m in st["missing"]})
        write_spans(name, seed, stats)

    # correctness: one invocation again under another hash seed, and the
    # value fingerprint under both
    inv = plan.invocations[plan.rerun]
    _, _, digest = run_cli(inv, CHECK_HASH_SEED, reference, ledger, deadline)
    fingerprints, backend = check_fingerprints(
        plan.fingerprints, reference, ledger, deadline, trace)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else e2e
    # a layer that no traced child reported (one was killed) reads 0; the
    # failure is counted in the ledger
    metrics = {m["name"]: {"value": source.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    stamp = {
        "python": platform.python_version(), "kernel_backend": backend,
        "nproc": os.cpu_count(), "cpu": min(os.sched_getaffinity(0)),
        "ref_chunk_s": REF_CHUNK_S, "commit": git_commit(),
        "source_md5": source_digest(), "seed": seed,
        "pythonhashseed": [HASH_SEED, CHECK_HASH_SEED],
        "run_seconds": seconds, "trace": trace,
    }
    record = {
        "workload": name, "stamp": stamp, "metrics": metrics,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": dict(ledger.failures),
        "fail_frac": ledger.failed / ledger.attempted,
        "passes": passes, "end_to_end": e2e, "layers": layers,
        "untraced_targets": missing,
        "fingerprints": fingerprints, "rerun_digest": digest,
    }
    path = os.path.join(WORK, "results", "%s-trace%d-seed%d.json"
                        % (name, trace, seed))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_table(record, spec, path)
    return record


def per_layer(stats, overhead):
    """Per-layer metrics summed over the invocations of the traced pass.

    Times are scaled to reference speed like the end-to-end ones.
    """
    totals = {}
    for st in stats:
        for layer, v in st["layers"].items():
            acc = totals.setdefault(layer, Counter())
            acc.update({"calls": v["calls"], "repeats": v["repeats"],
                        "total_s": v["total_s"] * st["speed"],
                        "self_s": v["self_s"] * st["speed"]})
    out = {}
    for layer, v in totals.items():
        out[layer + ".calls"] = v["calls"]
        out[layer + ".total_s"] = v["total_s"]
        out[layer + ".self_s"] = v["self_s"]
        out[layer + ".repeat_frac"] = \
            v["repeats"] / v["calls"] if v["calls"] else 0.0
    out["qgroupoid.import.total_s"] = sum(st["import_s"] * st["speed"]
                                          for st in stats)
    out["trace.overhead_s"] = overhead
    return out


def write_spans(name, seed, stats):
    """Spans of every traced invocation; the invocation index is the trace id."""
    spans = []
    for trace_id, st in enumerate(stats):
        for span in st["spans"]:
            spans.append(dict(span, trace=trace_id))
    path = os.path.join(WORK, "trace", "%s-seed%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump({"invocations": [st["argv"] for st in stats],
                   "spans": spans}, fh, indent=1)


def print_table(record, spec, path):
    stamp, layers = record["stamp"], record["layers"]
    print("perfbench %s  seed=%d  trace=%d  passes=%d  PYTHONHASHSEED=%s"
          % (record["workload"], stamp["seed"], stamp["trace"],
             len(record["passes"]), HASH_SEED))
    print("stamp: python=%s kernel_backend=%s nproc=%d commit=%s source_md5=%s"
          % (stamp["python"], stamp["kernel_backend"], stamp["nproc"],
             stamp["commit"][:12], stamp["source_md5"][:12]))
    e2e = record["end_to_end"]
    for m in spec["end_to_end"]:
        if e2e[m["name"]] is not None:
            print("  %-14s %12.4f %s" % (m["name"], e2e[m["name"]], m["unit"]))
    print("  %-14s %12.4f s     (wall_s as the clock read it)"
          % ("raw_wall_s", e2e["raw_wall_s"]))
    kinds = ("exit1", "exit2", "exit3", "exit_other", "timeout", "verdict",
             "digest", "fingerprint", "setup")
    print("  %-14s %12.4f    (%d of %d children; %s)"
          % ("fail_frac", record["fail_frac"], record["failed"],
             record["attempted"],
             " ".join("%s=%d" % (k, record["failures"].get(k, 0))
                      for k in kinds)))
    if layers is not None:
        print("  per layer (traced pass)           calls      total_s"
              "       self_s  repeat_frac   should move")
        for layer in sorted({k.rsplit(".", 1)[0] for k in layers
                             if k.endswith(".calls")}):
            print("  %-30s %9d %12.4f %12.4f %12.3f   %s"
                  % (layer, layers[layer + ".calls"],
                     layers[layer + ".total_s"], layers[layer + ".self_s"],
                     layers[layer + ".repeat_frac"], MOVES.get(layer, "")))
        print("  %-30s %22.4f   %s" % ("qgroupoid.import",
                                       layers["qgroupoid.import.total_s"],
                                       MOVES["qgroupoid.import"]))
        print("  %-30s %22.4f s (traced wall minus untraced wall)"
              % ("trace.overhead", layers["trace.overhead_s"]))
        for target in record["untraced_targets"]:
            print("  WARNING: %s not found; its layer reads 0" % target)
    print("results: %s" % os.path.relpath(path, ROOT))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = ("src/qgroupoid/cli.py", "specs/axb.spec", "BENCHMARK.json")
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a qgroupoid source checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # the parent and every child share one CPU, so SpeedProbe measures the
    # CPU the child runs on (children inherit the affinity)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, spec)
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
