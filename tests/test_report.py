import json

from qgroupoid.report import FAIL, INDETERMINATE, PASS, Report


def holds(case):
    return None


def itself(case):
    return case


def test_check_passes_on_no_witness():
    report = Report("r")
    check = report.check("empty", iter([1, 2]), holds)
    assert check.status == PASS
    assert check.as_record() == {"check": "empty", "status": "pass"}
    assert report.checks == [check]


def test_check_fails_with_the_first_witness():
    report = Report("r")
    check = report.check("two", ["first case", "second case"], itself)
    assert check.status == FAIL
    assert check.as_record() == {"check": "two", "status": "fail",
                                 "witness": "first case"}


def test_check_reads_its_witnesses_lazily():
    seen = []

    def cases():
        seen.append(1)
        yield "case 1"
        raise AssertionError("cases after the first witness were read")

    report = Report("r")
    assert report.check("lazy", cases(), itself).witness == "case 1"
    assert seen == [1]


def test_check_stops_at_the_first_failing_case_of_a_genexp():
    evaluated = []

    def test(n):
        evaluated.append(n)
        return "n=%d" % n if n >= 2 else None

    report = Report("r")
    report.check("genexp", (n for n in range(5)), test)
    assert report.checks[0].witness == "n=2"
    assert evaluated == [0, 1, 2]


def test_check_counts_the_cases_it_read():
    report = Report("r")
    passing = report.check("passing", range(4), holds)
    failing = report.check("failing", range(10),
                           lambda n: "n=%d" % n if n == 2 else None)
    empty = report.check("empty", (), itself)
    assert (passing.status, passing.cases) == (PASS, 4)
    assert (failing.status, failing.cases, failing.witness) == (FAIL, 3, "n=2")
    assert (empty.status, empty.cases, empty.witness) == (PASS, 0, None)


def test_an_empty_witness_fails_the_check():
    check = Report("r").check("blank", ["", "later"], itself)
    assert (check.status, check.witness, check.cases) == (FAIL, "", 1)
    assert check.as_record() == {"check": "blank", "status": "fail",
                                 "witness": ""}


def test_a_folded_sub_report_is_a_check_of_one_case():
    sub = Report("sub")
    sub.check("good", [1], holds)
    sub.check("bad", ["why"], itself)
    report = Report("r")
    check = report.check("sub-valid", [sub], Report.first_failure)
    assert (check.status, check.witness, check.cases) == (FAIL, "bad: why", 1)


def test_extend_keeps_names_statuses_witnesses_and_counts():
    sub = Report("sub")
    sub.check("a", range(3), holds)
    sub.check("b", ["x", "y"], itself)
    sub.check("c", (), holds)
    sub.record("t", PASS, None, {"table": "0"})
    report = Report("r").extend(sub, prefix="p").extend(sub)
    assert [(c.name, c.status, c.witness, c.cases, c.meta)
            for c in report.checks] == [
        ("p/a", PASS, None, 3, None), ("p/b", FAIL, "x", 1, None),
        ("p/c", PASS, None, 0, None), ("p/t", PASS, None, 0, {"table": "0"}),
        ("a", PASS, None, 3, None), ("b", FAIL, "x", 1, None),
        ("c", PASS, None, 0, None), ("t", PASS, None, 0, {"table": "0"})]


def test_case_counts_never_reach_the_output():
    report = Report("r", {"h_order": 2})
    report.check("a", range(7), holds)
    report.check("b", range(5), lambda n: "n=%d" % n if n else None)
    report.record("t", PASS, None, {"table": "0"})
    lines = [json.loads(line) for line in report.json_lines().splitlines()]
    assert lines == [
        {"report": "r", "params": {"h_order": 2}},
        {"check": "a", "status": "pass"},
        {"check": "b", "status": "fail", "witness": "n=1"},
        {"check": "t", "status": "pass", "meta": {"table": "0"}},
        {"verdict": FAIL, "counts": {PASS: 2, FAIL: 1, INDETERMINATE: 0}}]
    assert "7" not in report.json_lines() + report.human_summary()


def test_check_counts_and_verdict():
    report = Report("r")
    report.check("a", (), holds)
    assert report.verdict() == PASS
    report.check("b", ("bad",), itself)
    report.check("c", (w for w in ()), itself)
    assert report.counts() == {PASS: 2, FAIL: 1, INDETERMINATE: 0}
    assert report.verdict() == FAIL
    assert report.first_failure() == "b: bad"
    summary = json.loads(report.json_lines().splitlines()[-1])
    assert summary == {"verdict": FAIL,
                       "counts": {PASS: 2, FAIL: 1, INDETERMINATE: 0}}


def test_check_beside_an_indeterminate_check():
    report = Report("r")
    report.record("engine", INDETERMINATE, "too short", None)
    report.check("a", (), holds)
    assert report.verdict() == INDETERMINATE
    assert report.first_failure() == "engine: too short"
    report.check("b", ("bad",), itself)
    assert report.verdict() == FAIL
