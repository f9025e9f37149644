"""Count the bytecodes one qgroupoid CLI command executes.

    PYTHONPATH=src python3 tools/opcount.py [--top N] [--inclusive NAME]...
        -- <qgroupoid cli arguments...>

The command runs in this process under ``sys.settrace`` with opcode
events on, after the package is imported, so the count covers the
command alone.  Every executed bytecode is counted once, against the
function whose frame executes it ("self"), and against each function
named with ``--inclusive`` while a call of it is running (callees
included, a recursive call counted once).  A name is
``<module>.<qualified name>``, the module without its package, as in
``deform.twistor_validate`` or ``deform.DeformedEnvAlgebroid.lift_mono``.

The counts repeat exactly from run to run of one interpreter version,
where paired wall-clock runs of one command vary by several per cent, so
two versions of the engine compare by their counts.  Set iteration over
strings depends on the hash seed, so the tool runs under
``PYTHONHASHSEED=0`` unless the variable is set.  The command's own
report is discarded; the counts are printed as one JSON document:
``exit`` (the command's exit code), ``total``, ``inclusive``
({name: count}) and ``self`` (the ``--top`` largest, [name, count] pairs
in decreasing count).
"""

import argparse
import contextlib
import io
import json
import os
import sys
from collections import defaultdict


def count(argv, inclusive=()):
    """(exit code, total, {name: inclusive count}, {name: self count}) of
    the CLI command ``argv``."""
    from qgroupoid.cli import main

    names = {}            # code object -> "<module>.<qualname>"
    own = defaultdict(int)    # code object -> self count
    wanted = set(inclusive)
    depth = dict.fromkeys(wanted, 0)
    start = dict.fromkeys(wanted, 0)
    incl = dict.fromkeys(wanted, 0)
    total = 0

    def name_of(frame):
        code = frame.f_code
        name = names.get(code)
        if name is None:
            module = frame.f_globals.get("__name__", "?").rsplit(".", 1)[-1]
            # co_qualname is new in Python 3.11; 3.10 has the bare name
            qualname = getattr(code, "co_qualname", code.co_name)
            name = names[code] = "%s.%s" % (module, qualname)
        return name

    def trace(frame, event, arg):
        nonlocal total
        if event == "opcode":
            own[frame.f_code] += 1
            total += 1
        elif event == "call":
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            name = name_of(frame)
            if name in wanted:
                if not depth[name]:
                    start[name] = total
                depth[name] += 1
        elif event == "return":
            name = names.get(frame.f_code)
            if name in wanted:
                depth[name] -= 1
                if not depth[name]:
                    incl[name] += total - start[name]
        return trace

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.settrace(trace)
        try:
            code = main(argv)
        finally:
            sys.settrace(None)
    by_name = defaultdict(int)
    for c, n in own.items():
        by_name[names[c]] += n
    return code, total, incl, dict(by_name)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--top", type=int, default=20,
                    help="how many functions to list by self count")
    ap.add_argument("--inclusive", action="append", default=[],
                    metavar="NAME", help="a function to count inclusively")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the qgroupoid arguments, after --")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no command given")
    code, total, incl, own = count(command, args.inclusive)
    top = sorted(own.items(), key=lambda kv: (-kv[1], kv[0]))[:args.top]
    print(json.dumps({"command": command, "exit": code, "total": total,
                      "inclusive": incl, "self": top}, indent=1))
    return 0


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
