"""Machine-readable check reports.

A report is a list of named checks, each pass/fail/indeterminate with an
optional witness string.  Serialization is deterministic: checks sort by
name and the header carries the truncation parameters, so identical runs
produce byte-identical output.

Most checks certify an identity over a finite set of cases and fail on
the first case that breaks it.  ``Report.check(name, witnesses)`` is the
one runner for them: ``witnesses`` yields a witness string for each
failing case (nothing for a passing one) and is read lazily, so the check
passes when it yields nothing and otherwise fails with the first witness,
without evaluating the cases after it.  Loops that also build data collect
their witnesses in a list and hand that over instead.
"""

import json

PASS, FAIL, INDETERMINATE = "pass", "fail", "indeterminate"


class Check:
    __slots__ = ("name", "status", "witness", "meta")

    def __init__(self, name, ok, witness=None, meta=None, status=None):
        self.name = name
        if status is not None:
            self.status = status
        else:
            self.status = PASS if ok else FAIL
        self.witness = None if ok and status is None else witness
        self.meta = dict(meta) if meta else {}

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

    def add(self, check):
        self.checks.append(check)
        return check

    def check(self, name, witnesses):
        """Pass if ``witnesses`` yields nothing, else fail with its first item."""
        witness = next(iter(witnesses), None)
        return self.add(Check(name, witness is None, witness))

    def extend(self, other, prefix=None):
        for c in other.checks:
            name = "%s/%s" % (prefix, c.name) if prefix else c.name
            self.checks.append(Check(name, True, c.witness, c.meta, status=c.status))
        return self

    def ok(self):
        return all(c.status == PASS for c in self.checks)

    def verdict(self):
        if any(c.status == INDETERMINATE for c in self.checks):
            return INDETERMINATE if self.ok_except_indeterminate() else FAIL
        return PASS if self.ok() else FAIL

    def ok_except_indeterminate(self):
        return all(c.status != FAIL for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if c.status != PASS:
                return "%s: %s" % (c.name, c.witness or c.status)
        return None

    def counts(self):
        out = {PASS: 0, FAIL: 0, INDETERMINATE: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

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
