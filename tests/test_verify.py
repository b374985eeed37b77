import pytest

from quiddity import cli, formulas, verify


def test_load_golden_shape():
    golden = verify.load_golden()
    assert golden["series_rows"]["Q"]["values"][:6] == [1, 1, 2, 5, 15, 49]
    assert set(golden["V_rows"]) == {str(k) for k in range(1, 13)}


def test_report_mechanics():
    report = verify.VerifyReport()
    report.check("a", 1, 1)
    report.check("b", 1, 2)
    report.check("c", "x", "x")
    assert not report.passed
    assert [r.name for r in report.failures] == ["b"]
    assert report.first_failure.name == "b"
    assert report.lines()[0] == "PASS a"
    assert report.lines()[1] == "FAIL b: expected 1, actual 2"
    assert verify.VerifyReport().passed
    assert verify.VerifyReport().first_failure is None


def test_golden_checks_pass():
    report = verify.golden_checks()
    assert report.passed, report.first_failure
    names = [r.name for r in report.results]
    assert names[0] == "golden:Q:formula"
    tables = {name.split(":")[1] for name in names}
    assert len(tables) >= 9


def test_identity_checks_pass():
    report = verify.identity_checks(order=16)
    assert report.passed, report.first_failure


def test_oracle_checks_pass_small():
    report = verify.oracle_checks(max_size=4)
    assert report.passed, report.first_failure
    names = [r.name for r in report.results]
    assert "oracle:counts:size-4" in names
    assert "oracle:listing:TS-size-1" in names


def test_run_verify_combines_groups():
    report = verify.run_verify(max_size=2, order=16)
    assert report.passed
    names = [r.name for r in report.results]
    assert any(name.startswith("golden:") for name in names)
    assert any(name.startswith("identity:") for name in names)
    assert any(name.startswith("oracle:") for name in names)


@pytest.fixture
def broken_coeff_Q(monkeypatch):
    real = formulas.coeff_Q

    def off_by_one(n):
        value = real(n)
        return value + 1 if n == 5 else value

    monkeypatch.setattr(formulas, "coeff_Q", off_by_one)


def test_fault_injection_is_named(broken_coeff_Q):
    report = verify.golden_checks()
    assert not report.passed
    first = report.first_failure
    assert first.name == "golden:Q:formula"
    assert first.expected[5] == 49
    assert first.actual[5] == 50
    # the series route solves Q from its functional equation, so it still agrees
    by_name = {r.name: r.passed for r in report.results}
    assert by_name["golden:Q:series"] and not by_name["golden:Q:formula"]


def test_fault_injection_through_cli(broken_coeff_Q, capsys):
    code = cli.main(["verify", "--max-size", "1", "--order", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("first failure: golden:Q:formula")
    assert "FAIL" in captured.out


def test_direct_vs_mitm_labels_and_values():
    report = verify.oracle_checks(max_size=5)
    (row,) = [r for r in report.results if r.name == "oracle:direct-vs-mitm:size-5"]
    assert list(row.expected) == ["Id", "S", "T", "T^-1", "TS", "ST", "TSTS", "STST",
                                  "Id:bound-2", "TSTS:first-4:bound-2",
                                  "[[2,3],[1,2]]"]
    assert row.expected == row.actual
    assert row.passed
