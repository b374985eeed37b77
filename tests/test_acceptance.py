"""Acceptance suite: one test per shipped guarantee.

Each criterion is a single test so the -v run shows one pass/fail line
per guarantee.  Every comparison is exact integer equality; there are
no tolerances anywhere.
"""

import random
import time

from quiddity import census, cli, verify
from quiddity.oracle import OracleQuery, count_component_at, solve, survey
from quiddity.series import TruncSeries


def test_criterion_1_golden_tables_reproduced_quickly():
    census._build.cache_clear()
    started = time.monotonic()
    report = verify.golden_checks()
    elapsed = time.monotonic() - started
    assert report.passed, report.first_failure
    assert elapsed < 10.0, f"golden reproduction took {elapsed:.1f}s"
    names = [r.name for r in report.results]
    for needed in ("golden:Ptilde:formula", "golden:Ptilde:series",
                   "golden:U2:series", "golden:U3:series",
                   "golden:V:row-12", "golden:V:column-sums",
                   "golden:D:formula", "golden:E:convolution",
                   "golden:W:row-12", "golden:W:column-sums",
                   "golden:W:spot-2-3-8", "golden:family-y:census"):
        assert needed in names, needed


def test_criterion_2_identity_suite():
    report = verify.identity_checks(order=32)
    assert report.passed, report.first_failure
    names = [r.name for r in report.results]
    for needed in ("identity:P-functional-equation",
                   "identity:Q-functional-equation",
                   "identity:V1-times-P", "identity:U1-times-P",
                   "identity:P-W11-P", "identity:V-column-sums",
                   "identity:U-column-sums", "identity:W-row-sums",
                   "identity:V-diagonal-ones", "identity:V-positivity",
                   "identity:V-vanishing", "identity:Q-formula"):
        assert needed in names, needed


def test_criterion_3_oracle_equivalence():
    report = verify.oracle_checks(max_size=12)
    assert report.passed, report.first_failure
    names = [r.name for r in report.results]
    assert "oracle:counts:size-12" in names
    assert "oracle:Id-by-last:size-12" in names
    assert "oracle:Id-first-last:size-12" in names
    assert "oracle:direct-vs-mitm:size-7" in names


def test_criterion_4_structural_properties():
    # 4a: series multiplication and inversion round-trip at order 64.
    rng = random.Random(2024)
    one = TruncSeries.one(64)
    for _ in range(100):
        a = TruncSeries([rng.choice((1, -1))]
                        + [rng.randint(-99, 99) for _ in range(64)])
        b = TruncSeries([rng.choice((1, -1))]
                        + [rng.randint(-99, 99) for _ in range(64)])
        assert a.mul(a.inverse()) == one
        assert a.inverse().inverse() == a
        assert a.mul(b).mul(b.inverse().mul(a.inverse())) == one

    # 4b: for the identity target the count with one component pinned
    # does not depend on the pinned position.
    for size in range(3, 10):
        for value in range(1, size):
            counts = {count_component_at("Id", size, pos, value)
                      for pos in range(1, size + 1)}
            assert len(counts) == 1, (size, value, counts)

    # 4c: identity solutions are closed under rotation and reversal,
    # and S solutions are closed under reversal.
    for size in range(3, 10):
        ids = set(solve(OracleQuery(target="Id", size=size,
                                    list_solutions=True)).solutions)
        for digits in ids:
            assert digits[::-1] in ids, digits
            for i in range(1, size):
                assert digits[i:] + digits[:i] in ids, (digits, i)
        s_set = set(solve(OracleQuery(target="S", size=size,
                                      list_solutions=True)).solutions)
        for digits in s_set:
            assert digits[::-1] in s_set, digits

    # 4d: worker count never changes any result.
    baseline = survey(9, workers=1)
    for workers in (2, 8):
        forked = survey(9, workers=workers)
        assert forked.counts == baseline.counts
        assert forked.bound_touches == baseline.bound_touches
        assert forked.by_last == baseline.by_last
        assert forked.by_first_last == baseline.by_first_last


def test_criterion_4_cli_byte_determinism(capsys):
    outputs = []
    for workers in ("1", "2", "8"):
        code = cli.main(["oracle", "--target", "Id", "--size", "9",
                         "--format", "json", "--workers", workers])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
