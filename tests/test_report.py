import json

from qgroupoid.report import FAIL, INDETERMINATE, PASS, Check, Report


def test_check_passes_on_no_witness():
    report = Report("r")
    check = report.check("empty", iter(()))
    assert check.status == PASS
    assert check.as_record() == {"check": "empty", "status": "pass"}
    assert report.checks == [check]


def test_check_fails_with_the_first_witness():
    report = Report("r")
    check = report.check("two", ["first case", "second case"])
    assert check.status == FAIL
    assert check.as_record() == {"check": "two", "status": "fail",
                                 "witness": "first case"}


def test_check_reads_its_witnesses_lazily():
    seen = []

    def witnesses():
        seen.append(1)
        yield "case 1"
        raise AssertionError("cases after the first witness were evaluated")

    report = Report("r")
    assert report.check("lazy", witnesses()).witness == "case 1"
    assert seen == [1]


def test_check_stops_at_the_first_failing_case_of_a_genexp():
    evaluated = []

    def fails(n):
        evaluated.append(n)
        return n >= 2

    report = Report("r")
    report.check("genexp", ("n=%d" % n for n in range(5) if fails(n)))
    assert report.checks[0].witness == "n=2"
    assert evaluated == [0, 1, 2]


def test_check_counts_and_verdict():
    report = Report("r")
    report.check("a", ())
    assert report.verdict() == PASS
    report.check("b", ("bad",))
    report.check("c", (w for w in ()))
    assert report.counts() == {PASS: 2, FAIL: 1, INDETERMINATE: 0}
    assert report.verdict() == FAIL
    assert report.first_failure() == "b: bad"
    summary = json.loads(report.json_lines().splitlines()[-1])
    assert summary == {"verdict": FAIL,
                       "counts": {PASS: 2, FAIL: 1, INDETERMINATE: 0}}


def test_check_beside_an_indeterminate_check():
    report = Report("r")
    report.add(Check("engine", True, "too short", status=INDETERMINATE))
    report.check("a", ())
    assert report.verdict() == INDETERMINATE
    report.check("b", ("bad",))
    assert report.verdict() == FAIL
