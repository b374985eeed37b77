import json
import os
import subprocess
import sys
import time
from pathlib import Path

from quiddity import census, cli, formulas, oracle
from quiddity.matrices import TARGETS

RECORDED = Path(__file__).parent / "data" / "cli_outputs.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv(capsys):
    code, out, err = run_cli(capsys, "table", "--family", "P", "--n-max", "5")
    assert code == 0
    assert out == "family,n,value\nP,0,1\nP,1,1\nP,2,2\nP,3,5\nP,4,15\nP,5,48\n"
    assert err == ""


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "Q", "--n-max", "4",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "Q"
    assert payload["values"]["4"] == "15"


def test_table_family_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "y", "--n-max", "12")
    assert code == 0
    values = [int(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert values == [0, 0, 0, 1, 5, 20, 78, 302, 1165, 4492, 17349, 67185]


def test_table_v_row_with_k(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "V", "--k", "9",
                           "--n-max", "12")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][0] == "V(9)"
    assert [int(r[2]) for r in rows[-4:]] == [1, 9, 54, 282]


def test_series_default_order(capsys):
    code, out, _ = run_cli(capsys, "series", "--family", "P")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14
    assert lines[1] == "P,0,1"
    assert lines[13] == "P,12,349490"


def test_series_w_coefficient(capsys):
    code, out, _ = run_cli(capsys, "series", "--family", "W", "--k", "2",
                           "--l", "3", "--order", "8")
    assert code == 0
    assert out.splitlines()[-1] == '"W(2,3)",8,114'


def test_series_k_l_validation(capsys):
    assert run_cli(capsys, "series", "--family", "U")[0] == 2
    assert run_cli(capsys, "series", "--family", "P", "--k", "2")[0] == 2
    assert run_cli(capsys, "series", "--family", "W", "--k", "2")[0] == 2


def test_table_and_series_print_the_same_rows(capsys):
    # both read the same series row through the same printer, for every family
    rows = {"U": ["--k", "2"], "V": ["--k", "5"], "W": ["--k", "2", "--l", "3"]}
    starts = {"D": 1, "E": 3, "F": 3, "u": 1, "v": 1, "w": 1, "x": 1, "y": 1}
    for family in census.FAMILIES:
        indices = rows.get(family, [])
        table = run_cli(capsys, "table", "--family", family, "--n-max", "24", *indices)
        series = run_cli(capsys, "series", "--family", family, "--order", "24", *indices)
        assert table == series, family
        assert table[0] == 0 and len(table[1].splitlines()) == 26 - starts.get(family, 0), family
        json_args = (*indices, "--format", "json")
        table = run_cli(capsys, "table", "--family", family, "--n-max", "24", *json_args)
        series = run_cli(capsys, "series", "--family", family, "--order", "24", *json_args)
        assert table == series, family
        assert table[0] == 0 and json.loads(table[1])["provenance"] == "series", family


def test_oracle_count_csv(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--target", "ST", "--size", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "target,size,bound,count,bound_touches,exhaustive_within_bound"
    assert lines[1] == "ST,4,4,0,0,True"


def test_oracle_list_csv(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--target", "TSTS", "--size", "3",
                           "--list")
    assert code == 0
    assert out == "a1,a2,a3\n2,1,2\n"


def test_oracle_list_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--target", "TSTS", "--size", "3",
                           "--list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target_name"] == "TSTS"
    assert payload["count"] == "1"
    assert payload["by_last"] == {"2": "1"}
    assert payload["exhaustive_within_bound"] is True
    assert payload["solutions"] == [[2, 1, 2]]


def test_oracle_matrix_literal_target(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--target", "[[0,-1],[1,1]]",
                           "--size", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target_name"] == "ST"
    assert payload["count"] == "0"


def test_oracle_word_target(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--target", "TST^-1S^-1",
                           "--size", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["exhaustive_within_bound"] is False
    # S^-1 is -S, so its equation is the named target S's
    code, out, _ = run_cli(capsys, "oracle", "--target", "S^-1", "--size", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target_name"] is None
    assert payload["exhaustive_within_bound"] is True


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "oracle", "--size", "4")[0] == 2
    assert run_cli(capsys, "table", "--family", "ZZ", "--n-max", "3")[0] == 2
    assert run_cli(capsys, "table", "--family", "P", "--n-max", "3",
                   "--format", "xml")[0] == 2


def test_value_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "oracle", "--target", "QQ", "--size", "3")
    assert code == 2
    assert err.startswith("error:")
    assert run_cli(capsys, "oracle", "--target", "Id", "--size", "0")[0] == 2
    assert run_cli(capsys, "table", "--family", "V", "--n-max", "5")[0] == 2
    assert run_cli(capsys, "verify", "--workers", "0")[0] == 2


def test_negative_series_order_keeps_its_message(capsys):
    # the CLI refuses it before the census, which would name the order instead
    code, out, err = run_cli(capsys, "series", "--family", "P", "--order", "-1")
    assert (code, out, err) == (2, "", "error: --order must be nonnegative\n")


def test_verify_order_below_3_exits_2(capsys):
    for order in ("0", "2"):
        code, out, err = run_cli(capsys, "verify", "--max-size", "0", "--order", order)
        assert code == 2
        assert out == ""
        assert err == "error: identity order must be at least 3\n"


def test_verify_max_size_zero_skips_the_oracle_and_negative_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-size", "-3", "--order", "8")
    assert (code, out, err) == (2, "", "error: max size must be nonnegative, got -3\n")
    code, out, err = run_cli(capsys, "verify", "--max-size", "0", "--order", "8")
    assert (code, err) == (0, "")
    checks = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert checks and not any(check.startswith("oracle:") for check in checks)


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "oracle", "--help")[0] == 0


def test_resource_exhaustion_exit_3(capsys):
    code, _, err = run_cli(capsys, "oracle", "--target", "Id", "--size", "26")
    assert code == 3
    assert "budget" in err


def test_census_orders_above_the_limit_exit_3(capsys):
    # the table, series and identity orders are each refused at once, with one line
    past = str(10 ** 20)
    for argv in (("table", "--family", "D", "--n-max", past),
                 ("table", "--family", "x", "--n-max", past),
                 ("series", "--family", "P", "--order", past),
                 ("verify", "--max-size", "0", "--order", past)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (3, ""), argv
        assert err == f"error: census order {past} is above the limit 1000\n", argv


def test_one_build_per_order(capsys):
    # every table to n = 24, every series of order 24, and each count and
    # histogram at size 26 read the one series build of order 24
    rows = {"U": ["--k", "2"], "V": ["--k", "5"], "W": ["--k", "2", "--l", "3"]}
    census._build.cache_clear()
    for family in census.FAMILIES:
        argv = ("table", "--family", family, "--n-max", "24", *rows.get(family, []))
        assert run_cli(capsys, *argv)[0] == 0, family
    for family in census.FAMILIES:
        argv = ("series", "--family", family, "--order", "24", *rows.get(family, []))
        assert run_cli(capsys, *argv)[0] == 0, family
    for name in TARGETS:
        census.count_solutions(name, 26)
    for name in ("Id", "S", "T"):
        census.by_last(name, 26)
    assert census._build.cache_info().misses == 1


def test_crash_exits_4(capsys, monkeypatch):
    # a failure that is neither a usage error nor a budget refusal, such as a
    # fork that fails or a pool pipe that breaks, is no verification mismatch:
    # exit 4, one line, no traceback
    for exc, line in ((OSError(12, "Cannot allocate memory"),
                       "error: OSError: [Errno 12] Cannot allocate memory\n"),
                      (BrokenPipeError(32, "Broken pipe"),
                       "error: BrokenPipeError: [Errno 32] Broken pipe\n")):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(oracle, "survey", failing)
        code, out, err = run_cli(capsys, "verify", "--max-size", "4")
        assert (code, out, err) == (4, "", line)


def _with_closed_stdout(monkeypatch, argv):
    """Exit code of one CLI call whose stdout is a pipe with its read end closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        return cli.main(argv)


def test_closed_stdout_is_found_by_the_write(capsys, monkeypatch):
    # every command prints through the one writer, whose own write meets the closed pipe
    for argv in (["table", "--family", "P", "--n-max", "5"],
                 ["table", "--family", "P", "--n-max", "5", "--format", "json"],
                 ["series", "--family", "W", "--k", "2", "--l", "3", "--order", "8"],
                 ["oracle", "--target", "TSTS", "--size", "6", "--list"],
                 ["verify", "--max-size", "0", "--order", "8"]):
        assert _with_closed_stdout(monkeypatch, argv) == 141, argv
        assert capsys.readouterr() == ("", ""), argv


def test_broken_pipe_in_a_computation_exits_4_with_stdout_closed(capsys, monkeypatch):
    # only the writer's own BrokenPipeError means a closed stdout: one raised
    # before any output, as by a broken pool pipe, is a crash
    def failing(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(oracle, "survey", failing)
    assert _with_closed_stdout(monkeypatch, ["verify", "--max-size", "4"]) == 4
    assert capsys.readouterr() == ("", "error: BrokenPipeError: [Errno 32] Broken pipe\n")


def test_verify_mismatch_exits_1_and_names_the_first_failure(capsys, monkeypatch):
    # the mismatch is reported on stderr even when stdout's reader has gone
    monkeypatch.setattr(formulas, "coeff_Q", lambda n: 0)
    code, out, err = run_cli(capsys, "verify", "--max-size", "0", "--order", "8")
    assert code == 1
    assert out.splitlines()[1].startswith("golden:Q:formula,FAIL,")
    assert err.startswith("first failure: golden:Q:formula: expected [1, 1, 2, 5, 15, ")
    assert _with_closed_stdout(monkeypatch, ["verify", "--max-size", "0", "--order", "8"]) == 1
    assert capsys.readouterr() == ("", err)


def test_closed_stdout_exits_141_silently():
    # a reader that stops early, as `| head -1` does, is no crash
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with subprocess.Popen([sys.executable, "-W", "error", "-m", "quiddity", "oracle",
                           "--target", "Id", "--size", "11", "--list"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"a1,a2,a3,a4,a5,a6,a7,a8,a9,a10,a11\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_oversized_box_is_refused_before_any_search(capsys):
    # far past the budget: no plan is made and no size is printed, so a box
    # too long for a Python list, or with a count too long to print, exits 3 at once
    for size in ("3000", str(10 ** 20)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", "--target", "Id", "--size", size)
        assert time.perf_counter() - start < 1.0, size
        assert (code, out) == (3, ""), size
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err
        assert "budget" in err


def test_bound_1_boxes_of_any_length():
    # at bound 1 a box holds one tuple, but each route keeps a list per
    # component: past the budget in length it exits 3 at once, and within
    # it the plan takes linear time (elem(1)^6 = Id, so the one tuple
    # (1, ..., 1) of length 100002 is a solution)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for size, code, out in ((str(10 ** 20), 3, ""),
                            ("100002", 0, "Id,100002,1,1,1,False\n")):
        result = subprocess.run(
            [sys.executable, "-m", "quiddity", "oracle", "--target", "Id", "--size", size,
             "--bound", "1"], env=env, capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout.partition("\n")[2]) == (code, out), result
        assert result.stderr.count("\n") == (code == 3), result.stderr


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "oracle", "--target", "Id", "--size", "8",
                    "--format", "json")
    second = run_cli(capsys, "oracle", "--target", "Id", "--size", "8",
                     "--format", "json")
    assert first == second
    with_workers = run_cli(capsys, "oracle", "--target", "Id", "--size", "8",
                           "--format", "json", "--workers", "2")
    assert with_workers == first


def test_verify_subcommand_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-size", "2", "--order", "16")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "check,status,expected,actual"
    assert len(lines) > 60
    assert all(",PASS," in line for line in lines[1:])


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-size", "1", "--order", "8",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])
    names = [check["name"] for check in payload["checks"]]
    golden_tables = {name.split(":")[1] for name in names
                     if name.startswith("golden:")}
    assert len(golden_tables) >= 9


def test_outputs_match_the_recording(capsys):
    """Every recorded call prints the same stdout and stderr and exits the same.

    The file holds table, series, oracle and verify calls, and a usage and
    a budget error, as recorded from `python -m quiddity`.  Editing it
    changes what the CLI promises to print; it is not a way to make this
    test pass.
    """
    cases = json.loads(RECORDED.read_text(encoding="utf-8"))["cases"]
    for case in cases:
        got = run_cli(capsys, *case["argv"])
        assert (case["argv"], *got) == (case["argv"], case["exit_code"],
                                        case["stdout"], case["stderr"])
