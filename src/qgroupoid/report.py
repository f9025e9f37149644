"""Machine-readable check reports.

A report is a list of named checks, each pass/fail/indeterminate with an
optional witness string.  Serialization is deterministic: checks sort by
name and the header carries the truncation parameters, so identical runs
produce byte-identical output.

Every check certifies an identity over a finite set of cases, and
``Report.check(name, cases, test)`` is the one place its status is
decided: ``test(case)`` returns a witness string for a case that breaks
the identity and None for one that holds; the cases are read lazily and in
order, and the first witness fails the check without evaluating the cases
after it; it passes when no case gives a witness.  A caller that builds
its witnesses while it builds data, or folds a sub-report, makes a check of
one case: the list, or the sub-report with ``Report.first_failure`` as its
test.  Each check keeps how many cases it read (``Check.cases``), so a
check that read none, and so passed without evaluating anything, can be
told from one that held on every case; the count is carried by
``Report.extend`` and never written to stdout or stderr.  Records that
read no case (an engine error, a table shown as metadata) go through
``Report.record``.
"""

import json

PASS, FAIL, INDETERMINATE = "pass", "fail", "indeterminate"


class Check:
    __slots__ = ("name", "status", "witness", "cases", "meta")

    def __init__(self, name, status, witness, cases, meta):
        self.name = name
        self.status = status
        self.witness = witness
        self.cases = cases
        self.meta = meta

    def as_record(self):
        rec = {"check": self.name, "status": self.status}
        if self.witness is not None:
            rec["witness"] = str(self.witness)
        if self.meta:
            rec["meta"] = self.meta
        return rec


class Report:
    def __init__(self, title, params=None):
        self.title = title
        self.params = dict(params) if params else {}
        self.checks = []

    def check(self, name, cases, test):
        """Fail with the first witness ``test`` returns on ``cases``, read
        in order; pass if there is none.  The check keeps the cases read."""
        read, witness = 0, None
        for case in cases:
            read += 1
            witness = test(case)
            if witness is not None:
                break
        status = PASS if witness is None else FAIL
        self.checks.append(Check(name, status, witness, read, None))
        return self.checks[-1]

    def record(self, name, status, witness, meta):
        """A record that reads no case: an engine error or a table."""
        self.checks.append(Check(name, status, witness, 0, meta))

    def extend(self, other, prefix=None):
        for c in other.checks:
            name = "%s/%s" % (prefix, c.name) if prefix else c.name
            self.checks.append(Check(name, c.status, c.witness, c.cases, c.meta))
        return self

    def ok(self):
        return all(c.status == PASS for c in self.checks)

    def verdict(self):
        counts = self.counts()
        return FAIL if counts[FAIL] else \
            INDETERMINATE if counts[INDETERMINATE] else PASS

    def first_failure(self):
        for c in self.checks:
            if c.status != PASS:
                return "%s: %s" % (c.name, c.witness or c.status)

    def counts(self):
        statuses = [c.status for c in self.checks]
        return {s: statuses.count(s) for s in (PASS, FAIL, INDETERMINATE)}

    def json_lines(self):
        header = {"report": self.title}
        if self.params:
            header["params"] = {k: self.params[k] for k in sorted(self.params)}
        lines = [json.dumps(header, sort_keys=True)]
        for c in sorted(self.checks, key=lambda c: c.name):
            lines.append(json.dumps(c.as_record(), sort_keys=True))
        summary = {"verdict": self.verdict(), "counts": self.counts()}
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines)

    def human_summary(self):
        counts = self.counts()
        out = ["[%s] %s  (pass %d / fail %d / indeterminate %d)"
               % (self.verdict(), self.title,
                  counts[PASS], counts[FAIL], counts[INDETERMINATE])]
        for c in sorted(self.checks, key=lambda c: c.name):
            if c.status != PASS:
                out.append("  %s: %s  %s" % (c.status, c.name, c.witness or ""))
        return "\n".join(out)
