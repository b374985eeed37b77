import itertools
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from quiddity import census, cli, matrices, oracle
from quiddity.oracle import OracleQuery, ResourceBudgetError, solve, survey


def _listing(target, size, bound=None, method="auto", constraints=None):
    return solve(OracleQuery(target=target, size=size, bound=bound,
                             constraints=constraints, list_solutions=True,
                             method=method))


def _summary(res):
    # item lists, so the key order must agree too
    return (res.count, res.bound_touches, list(res.by_last.items()),
            list(res.by_first_last.items()), res.solutions)


def _both_routes(target, size, bound, pins):
    return [_summary(solve(OracleQuery(target=target, size=size, bound=bound, constraints=pins,
                                       list_solutions=True, method=method)))
            for method in ("direct", "mitm")]


def test_pinned_listings():
    assert _listing("Id", 3).solutions == ((1, 1, 1),)
    assert _listing("Id", 4).solutions == ((1, 2, 1, 2), (2, 1, 2, 1))
    assert _listing("TS", 1).solutions == ((1,),)
    assert _listing("TSTS", 2).solutions == ((1, 1),)
    assert _listing("TSTS", 3).solutions == ((2, 1, 2),)
    assert _listing("S", 4).solutions == ()


def test_auto_method_selection():
    assert solve(OracleQuery(target="Id", size=3)).method == "direct"
    assert solve(OracleQuery(target="Id", size=4)).method == "mitm"


def test_solutions_none_without_listing():
    assert solve(OracleQuery(target="Id", size=4)).solutions is None


def test_listing_agrees_between_methods():
    # named targets, a lowered bound, a first component pinned above the
    # bound, and a target outside the named eight
    cases = [(target, None, None) for target in ("Id", "TSTS", "T")]
    cases += [("Id", 3, None), ("Id", 3, {1: 4}), ("[[2,3],[1,2]]", None, None)]
    for target, bound, constraints in cases:
        direct = _listing(target, 6, bound, "direct", constraints).solutions
        mitm = _listing(target, 6, bound, "mitm", constraints).solutions
        assert direct == mitm, (target, bound, constraints)
        assert direct
        assert list(direct) == sorted(direct)


def test_counts_match_census():
    for size in range(1, 7):
        for name in matrices.TARGETS:
            got = solve(OracleQuery(target=name, size=size)).count
            assert got == census.count_solutions(name, size), (name, size)


def test_direct_and_mitm_agree_on_everything():
    # at size 3 the table is empty and the sweep a single digit
    for size in (3, 5):
        for name in matrices.TARGETS:
            a = _listing(name, size, method="direct")
            b = _listing(name, size, method="mitm")
            assert _summary(a) == _summary(b), (name, size)
            assert list(a.by_last) == sorted(a.by_last)
            assert list(a.by_first_last) == sorted(a.by_first_last)


def test_histograms_match_listing():
    res = _listing("Id", 6)
    by_last = {}
    by_first_last = {}
    for digits in res.solutions:
        by_last[digits[-1]] = by_last.get(digits[-1], 0) + 1
        key = (digits[0], digits[-1])
        by_first_last[key] = by_first_last.get(key, 0) + 1
    counted = solve(OracleQuery(target="Id", size=6))
    assert counted.by_last == by_last
    assert counted.by_first_last == by_first_last
    assert counted.count == len(res.solutions)


def _pinned_count(target, size, constraints):
    return solve(OracleQuery(target=target, size=size, constraints=constraints)).count


def test_by_last_matches_series():
    n = 4
    for k in range(1, n + 1):
        expected = census.series_V(k, n).coeff(n)
        assert _pinned_count("Id", n + 2, {n + 2: k}) == expected


def test_first_last_matches_series():
    n = 4
    for first in range(1, n + 1):
        for last in range(1, n + 2 - first):
            expected = census.series_row("W", n, first, last).coeff(n)
            assert _pinned_count("Id", n + 2, {1: first, n + 2: last}) == expected
    assert _pinned_count("TS", 1, {1: 1}) == 1
    assert _pinned_count("TS", 1, {1: 2}) == 0


def test_constraints_filter_like_listing():
    full = _listing("Id", 6).solutions
    want = sum(1 for digits in full if digits[2] == 2)
    assert oracle.count_component_at("Id", 6, 3, 2) == want
    res = solve(OracleQuery(target="Id", size=6, constraints={3: 2},
                            list_solutions=True))
    assert res.solutions == tuple(d for d in full if d[2] == 2)


def test_constraint_value_may_exceed_bound():
    assert oracle.count_component_at("Id", 4, 2, 9) == 0
    assert oracle.count_component_at("TS", 4, 1, 4) == \
        sum(1 for d in _listing("TS", 4, bound=6).solutions if d[0] == 4)


def test_constraint_validation():
    for bad in ({0: 1}, {5: 1}, {"a": 1}, {1: 0}, {1: True}, {True: 1}):
        with pytest.raises(ValueError):
            solve(OracleQuery(target="Id", size=4, constraints=bad))


def test_size_bound_method_validation():
    with pytest.raises(ValueError):
        solve(OracleQuery(target="Id", size=0))
    with pytest.raises(ValueError):
        solve(OracleQuery(target="Id", size=True))
    with pytest.raises(ValueError):
        solve(OracleQuery(target="Id", size=4, bound=0))
    with pytest.raises(ValueError):
        solve(OracleQuery(target="Id", size=4, bound=True))
    with pytest.raises(ValueError):
        solve(OracleQuery(target="Id", size=4, method="magic"))
    for size in (1, 2):
        with pytest.raises(ValueError, match="needs size >= 3"):
            solve(OracleQuery(target="Id", size=size, method="mitm"))


def test_exhaustiveness_flag():
    assert solve(OracleQuery(target="Id", size=5)).exhaustive_within_bound
    assert solve(OracleQuery(target="TS", size=1)).exhaustive_within_bound
    lowered = solve(OracleQuery(target="Id", size=5, bound=2))
    assert not lowered.exhaustive_within_bound
    arbitrary = solve(OracleQuery(target="TT", size=5))
    assert arbitrary.target_name is None
    assert not arbitrary.exhaustive_within_bound
    # m_n = +/-M is one equation for M and -M: a negated named target is
    # exhausted as well, though it keeps no name
    for spec in ("S^-1", "[[-1,0],[0,-1]]", matrices.Mat2(-1, -1, 0, -1)):
        negated = solve(OracleQuery(target=spec, size=5))
        assert negated.target_name is None
        assert negated.exhaustive_within_bound, spec
        assert not solve(OracleQuery(target=spec, size=5, bound=4)).exhaustive_within_bound
    sv = survey(5, targets=["[[-1,0],[0,-1]]", "S^-1", "TT"])
    assert sv.exhaustive_within_bound == {
        "[[-1,0],[0,-1]]": True, "[[0,1],[-1,0]]": True, "[[1,2],[0,1]]": False}
    assert not any(survey(5, bound=4, targets=["S^-1"]).exhaustive_within_bound.values())


def test_lowered_bound_counts_the_smaller_box():
    full = _listing("Id", 5).solutions
    lowered = solve(OracleQuery(target="Id", size=5, bound=2))
    assert lowered.count == sum(1 for d in full if max(d) <= 2)


def test_bound_touch_reporting():
    ts1 = solve(OracleQuery(target="TS", size=1))
    assert (ts1.count, ts1.bound_touches) == (1, 1)
    assert solve(OracleQuery(target="Id", size=5)).bound_touches == 0


def test_touches_in_outer_sweep_digits():
    # under a lowered bound a touch may sit in any digit: in a sweep of
    # three digits, also in one that is not the innermost
    for size in (7, 8):
        direct, mitm = _both_routes("Id", size, 3, {})
        assert direct == mitm, size
        assert 0 < mitm[1] < mitm[0], size


def test_word_literal_and_matrix_targets_agree():
    by_word = solve(OracleQuery(target="TT", size=5))
    by_literal = solve(OracleQuery(target="[[1,2],[0,1]]", size=5))
    by_matrix = solve(OracleQuery(target=matrices.Mat2(1, 2, 0, 1), size=5))
    assert by_word.count == by_literal.count == by_matrix.count
    named = solve(OracleQuery(target=matrices.TARGETS["TS"], size=4))
    assert named.target_name == "TS"
    assert named.exhaustive_within_bound


def test_budget_errors():
    with pytest.raises(ResourceBudgetError):
        solve(OracleQuery(target="Id", size=8, method="direct"))
    # at size 6 the plan keeps a table of 6^2 and a sweep of 6^2, for one
    # target and for the four probes of the eight
    assert solve(OracleQuery(target="Id", size=6, max_table_entries=36)).count == 15
    with pytest.raises(ResourceBudgetError):
        solve(OracleQuery(target="Id", size=6, max_table_entries=35))
    assert survey(6, max_table_entries=36).counts["Id"] == 15
    with pytest.raises(ResourceBudgetError):
        survey(6, max_table_entries=35)
    # a box that no split fits is refused before it is planned; a huge bound
    # passes that test, and the side it overfills is sized as a power of two
    with pytest.raises(ResourceBudgetError, match="too many free components"):
        solve(OracleQuery(target="Id", size=10 ** 20))
    with pytest.raises(ResourceBudgetError, match=r"middle table would enumerate at least 2\^"):
        solve(OracleQuery(target="Id", size=10, bound=10 ** 4000))


def test_box_refusal_spares_every_plan_in_budget():
    identity = [matrices.IDENTITY.entries()]
    refused = 0
    for size in range(2, 41):
        for bound in (2, 3, size):
            sides = {"direct": [oracle._projected(*oracle._box(size, bound, {}))]}
            if size >= 3:
                search = oracle._plan(size, bound, {}, identity)
                sides["mitm"] = [search.table_size, search.sweep_size]
            for budget in (1, 35, 36, 1000, oracle.DEFAULT_MAX_TABLE_ENTRIES):
                for method, projected in sides.items():
                    try:
                        oracle._check_box(size, bound, budget, method)
                    except ResourceBudgetError:
                        assert max(projected) > budget, (size, bound, budget, method)
                        refused += 1
    assert refused > 500


def test_counts_stable_when_bound_raised():
    for size in range(4, 8):
        at_size = survey(size)
        raised = survey(size, bound=size + 3)
        assert at_size.counts == raised.counts, size


def test_survey_default_targets_and_flags():
    sv = survey(5)
    assert list(sv.counts) == list(matrices.TARGETS)
    assert sv.bound == 5
    for name in matrices.TARGETS:
        assert sv.counts[name] == census.count_solutions(name, 5)
        assert sv.exhaustive_within_bound[name]
    assert sv.bound_touches["Id"] == 0


def test_survey_small_size_uses_direct_route():
    sv = survey(2)
    assert sv.counts["TSTS"] == 1
    assert sum(sv.counts.values()) == 1
    one = survey(1)
    assert one.counts["TS"] == 1
    assert one.bound_touches["TS"] == 1


def test_survey_custom_targets():
    sv = survey(5, targets=["Id", "[[1,2],[0,1]]"])
    assert list(sv.counts) == ["Id", "[[1,2],[0,1]]"]
    assert sv.exhaustive_within_bound == {"Id": True, "[[1,2],[0,1]]": False}
    assert sv.counts["Id"] == census.count_solutions("Id", 5)


def test_survey_rejects_bad_batches():
    with pytest.raises(ValueError):
        survey(5, targets=[])
    with pytest.raises(ValueError):
        survey(5, targets=["Id", "Id"])
    with pytest.raises(ValueError):
        survey(0)
    # one target instead of a batch: a string would be split into letters
    for single in ("ST", "Id", matrices.TARGETS["S"]):
        with pytest.raises(ValueError):
            survey(5, targets=single)
    # solve and survey share their size and bound checks, messages included
    for size, bound in ((5, 0), (5, True), (True, None)):
        with pytest.raises(ValueError) as by_solve:
            solve(OracleQuery(target="Id", size=size, bound=bound))
        with pytest.raises(ValueError) as by_survey:
            survey(size, bound=bound)
        assert str(by_survey.value) == str(by_solve.value), (size, bound)


def test_workers_validation():
    for workers in (0, True, "2"):
        with pytest.raises(ValueError) as by_solve:
            solve(OracleQuery(target="Id", size=5, workers=workers))
        with pytest.raises(ValueError) as by_survey:
            survey(5, workers=workers)
        assert str(by_survey.value) == str(by_solve.value), workers


def test_survey_matches_individual_solves():
    # every field, item lists included, for both routes and the default bound;
    # S^-1 is -S, labelled by its matrix, and [[2,3],[1,2]] is outside the eight
    targets = list(matrices.TARGETS) + ["S^-1", "[[2,3],[1,2]]"]
    for method in ("direct", "mitm"):
        sv = survey(6, targets=targets, method=method)
        assert len(sv.counts) == len(targets)
        for label, target in zip(sv.counts, targets):
            single = solve(OracleQuery(target=target, size=6, method=method))
            assert (sv.counts[label], sv.bound_touches[label],
                    list(sv.by_last[label].items()),
                    list(sv.by_first_last[label].items()),
                    sv.exhaustive_within_bound[label], sv.bound) == (
                single.count, single.bound_touches, list(single.by_last.items()),
                list(single.by_first_last.items()),
                single.exhaustive_within_bound, single.bound), (method, label)
    assert sv.counts["S"] == sv.counts["[[0,1],[-1,0]]"] > 0
    # the batch checks still come before the size check
    with pytest.raises(ValueError, match="survey targets must be distinct"):
        survey(0, targets=["Id", "Id"])


def test_workers_deterministic():
    serial = survey(7, workers=1)
    forked = survey(7, workers=2)
    assert serial.counts == forked.counts
    assert serial.bound_touches == forked.bound_touches
    assert serial.by_last == forked.by_last
    assert serial.by_first_last == forked.by_first_last
    for name in serial.counts:
        for hist in ("by_last", "by_first_last"):
            keys = list(getattr(serial, hist)[name])
            assert keys == sorted(keys), (name, hist)
            assert list(getattr(forked, hist)[name]) == keys, (name, hist)


def test_workers_fall_back_to_serial_without_fork(monkeypatch, capsys):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    serial = survey(7)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert survey(7, workers=2) == serial
    assert cli.main(["oracle", "--target", "Id", "--size", "8",
                     "--workers", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "Id,8,8,166,0,True"


def test_fork_pool_is_capped_at_the_cpu_count(monkeypatch):
    # a fake pool that records its size and maps in this process, so no
    # process is ever started
    sizes = []

    class FakePool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, values):
            return [fn(v) for v in values]

    class FakeContext:
        Pool = FakePool

    query = dict(target="Id", size=6, list_solutions=True, method="mitm")
    serial = solve(OracleQuery(**query))
    # the fake pool's initializer sets the worker global in this process
    monkeypatch.setattr(oracle, "_WORKER_CTX", None)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    # 6 first-digit partitions: 2000 workers get a pool of two
    assert solve(OracleQuery(workers=2000, **query)) == serial
    assert sizes == [2]
    # one CPU, or none reported, runs serially without a pool
    for cpus in (1, None):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        assert solve(OracleQuery(workers=2000, **query)) == serial
    assert sizes == [2]


def test_serial_runs_never_import_multiprocessing():
    # a fresh interpreter, since this one has imported it for the tests above
    code = ("import sys\n"
            "from quiddity import cli, oracle\n"
            "oracle.survey(6)\n"
            "assert 'multiprocessing' not in sys.modules, 'imported'\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_mitm_listings_are_re_verified(monkeypatch):
    real = oracle._join

    def corrupting(*args):
        tallies, listings = real(*args)
        if listings is not None:
            listings[0].append((2, 2, 2, 2, 2, 2))
        return tallies, listings

    monkeypatch.setattr(oracle, "_join", corrupting)
    with pytest.raises(RuntimeError) as err:
        solve(OracleQuery("Id", 6, list_solutions=True, method="mitm"))
    assert str(err.value) == "internal error: (2, 2, 2, 2, 2, 2) fails re-verification"


def test_iter_runs_odometer():
    # boxes of length 0 and 1, the innermost digit pinned, a pinned middle
    # digit, and a pinned digit above the bound; the empty box is one run
    # at a = 0 whose product is the identity.  Under a cap the walk keeps
    # exactly the tuples whose digits sum to at most the cap, in the same
    # order and at their indices in the whole box: caps below the smallest
    # sum, at it, in between, at the largest sum and above it
    boxes = [([], []), ([1], [4]), ([3], [3]), ([1, 1, 2], [3, 3, 2]),
             ([1, 2, 1], [3, 2, 3]), ([1, 1, 5, 1], [2, 2, 5, 2]),
             ([7, 1, 1], [7, 3, 3])]
    walks = 0
    for lows, highs in boxes:
        inner_lo = lows[-1] if lows else 0
        box = [()]
        for lo, hi in zip(lows, highs):
            box = [t + (a,) for t in box for a in range(lo, hi + 1)]
        for cap in (None, sum(lows) - 1, sum(lows), sum(lows) + 2, sum(highs), sum(highs) + 1):
            seen, indices = [], []
            for digits, index, (r, s, x, y) in oracle._iter_runs(lows, highs, cap):
                assert len(digits) == len(lows), (lows, highs)
                inner_hi = digits[-1] if lows else 0
                assert inner_lo <= inner_hi <= (highs[-1] if lows else 0), (lows, highs, cap)
                for a in range(inner_lo, inner_hi + 1):
                    found = (*digits[:-1], a) if lows else ()
                    expected = matrices.m_n(found) if found else matrices.IDENTITY
                    assert (a * r - x, a * s - y, r, s) == expected.entries(), (lows, highs, found)
                    seen.append(found)
                    indices.append(index + a - inner_lo)
            kept = [t for t in box if cap is None or sum(t) <= cap]
            assert seen == kept == sorted(seen), (lows, highs, cap)
            assert indices == [box.index(t) for t in kept], (lows, highs, cap)
            walks += 1
    assert walks == 6 * len(boxes)


def test_batched_direct_walk_matches_single_solves():
    # "Id" and -Id are equal up to sign and must both be credited;
    # [[2,3],[1,2]] lies outside the named eight
    targets = list(matrices.TARGETS) + ["[[-1,0],[0,-1]]", "[[2,3],[1,2]]"]
    for size in (5, 6):
        sv = survey(size, targets=targets, method="direct")
        assert list(sv.counts) == list(matrices.TARGETS) + ["[[-1,0],[0,-1]]",
                                                             "[[2,3],[1,2]]"]
        for label, target in zip(sv.counts, targets):
            single = solve(OracleQuery(target=target, size=size, method="direct"))
            assert (sv.counts[label], sv.bound_touches[label],
                    list(sv.by_last[label].items()),
                    list(sv.by_first_last[label].items())) == (
                single.count, single.bound_touches, list(single.by_last.items()),
                list(single.by_first_last.items())), (size, label)
        assert sv.counts["[[-1,0],[0,-1]]"] == sv.counts["Id"] > 0
        assert sv.counts["[[2,3],[1,2]]"] > 0


def test_survey_methods_agree_and_validate():
    direct = survey(5, method="direct")
    assert survey(5, method="mitm") == direct
    assert survey(5) == direct
    with pytest.raises(ValueError):
        survey(5, method="magic")
    for size in (1, 2):
        with pytest.raises(ValueError):
            survey(size, method="mitm")


def test_targets_outside_sl2z_are_refused():
    for mat in (matrices.Mat2(2, 0, 0, 1), matrices.Mat2(1, 1, 1, 3)):
        for method in ("direct", "mitm"):
            with pytest.raises(ValueError, match="determinant"):
                solve(OracleQuery(target=mat, size=6, method=method))
            with pytest.raises(ValueError, match="determinant"):
                solve(OracleQuery(target=mat, size=6, method=method, list_solutions=True))
        with pytest.raises(ValueError, match="determinant"):
            survey(6, targets=["Id", mat])
    # nor is a target that is neither a matrix nor a string
    with pytest.raises(ValueError, match="must be a Mat2 or a string"):
        solve(OracleQuery(target=(1, 0, 0, 1), size=6))
    with pytest.raises(ValueError, match="must be a Mat2 or a string"):
        survey(6, targets=["Id", 7])


def test_folded_mitm_matches_direct():
    # one end pinned, both ends pinned, ends pinned at or above a lowered
    # bound, and an end pin with an interior pin (at size 5, {2: 1, 5: 2}
    # is peeled and then balanced: see test_pinned_ends_are_folded)
    targets = list(matrices.TARGETS) + ["[[2,3],[1,2]]"]
    for size in range(3, 8):
        cases = [(None, {1: 2}), (None, {size: 3}), (None, {1: 1, size: 2}),
                 (2, {1: size - 1}), (2, {size: size}), (2, {1: 3, size: 4}),
                 (3, {1: 3}), (3, {size: 3}),
                 (None, {2: 1, size: 2}), (None, {1: 2, size - 1: 1})]
        for target in targets:
            for bound, pins in cases:
                direct, mitm = _both_routes(target, size, bound, pins)
                assert direct == mitm, (target, size, bound, pins)


def _capped(lows, highs, cap):
    # the tuples of the box whose digits sum to at most cap, counted one by one
    return sum(sum(digits) <= cap for digits in itertools.product(
        *(range(lo, hi + 1) for lo, hi in zip(lows, highs))))


def test_pinned_ends_are_folded(monkeypatch):
    # counts the tuples of each walk as the sum of its run widths; for a
    # named target each side walks only the tuples within its digit-sum cap,
    # 3*size + d_M less the lows of every component outside the side, where
    # d_M = -6 for Id and -4 for TSTS
    yielded = []
    real = oracle._iter_runs

    def counting(lows, highs, cap=None):
        yielded.append(0)
        for digits, index, product in real(lows, highs, cap):
            yielded[-1] += digits[-1] - lows[-1] + 1 if lows else 1
            yield digits, index, product

    monkeypatch.setattr(oracle, "_iter_runs", counting)
    # the table comes first, then the serial sweep, one walk of its box
    # table over a_3..a_5, a_6 implicit, sweep over a_7..a_10 (unfolded: a
    # table of 10^4 and a sweep of 10^4); the spare is 24 - 3 - 9 = 12
    assert oracle.count_component_at("Id", 10, 1, 3) == census.series_V(3, 8).coeff(8)
    assert yielded == [_capped([1] * 3, [10] * 3, 15), _capped([1] * 4, [10] * 4, 16)]
    assert yielded == [425, 1760]
    # table over a_3..a_5, a_6 implicit, sweep over a_7..a_9; the spare is
    # 24 - 2 - 3 - 8 = 11
    yielded.clear()
    assert _pinned_count("Id", 10, {1: 2, 10: 3}) == census.series_row("W", 8, 2, 3).coeff(8)
    assert yielded == [_capped([1] * 3, [10] * 3, 14)] * 2 == [352, 352]
    # peeling a_5 leaves a_1..a_4 with a_2 pinned; a table over nothing
    # would leave a sweep of 25 over a_3..a_4, over this budget, so the
    # plan keeps a table over a_2 alone, a_3 implicit and a sweep over a_4;
    # the spare is 9 - 6 = 3, so both sides are capped at 3 + 1 = 4
    want = sum(1 for d in _listing("Id", 5).solutions if (d[1], d[4]) == (1, 2))
    yielded.clear()
    assert solve(OracleQuery(target="Id", size=5, constraints={2: 1, 5: 2},
                             max_table_entries=5)).count == want == 1
    assert yielded == [1, _capped([1], [5], 4)] == [1, 4]
    # no end pinned, but the interior pins a_2, a_3 move the balanced split:
    # table over a_2..a_5, a_6 implicit, sweep over a_7..a_8 (split in the
    # middle: a table of 8 and a sweep of 8^3); the spare is 18 - 9 = 9
    yielded.clear()
    assert _pinned_count("Id", 8, {2: 1, 3: 2}) == 22
    assert yielded == [_capped([1, 2, 1, 1], [1, 2, 8, 8], 14), _capped([1] * 2, [8] * 2, 11)]
    assert yielded == [49, 49]
    # TSTS walks the same split within its own caps; the spare is 20 - 9 = 11
    pins = {2: 1, 3: 2}
    want = [solve(OracleQuery(target, 8, constraints=pins, method="direct")).count
            for target in ("TSTS", "[[2,3],[1,2]]")]
    yielded.clear()
    assert _pinned_count("TSTS", 8, pins) == want[0] == 32
    assert yielded == [_capped([1, 2, 1, 1], [1, 2, 8, 8], 16), _capped([1] * 2, [8] * 2, 13)]
    assert yielded == [58, 58]
    # a target outside the named eight walks the whole boxes of the same split
    yielded.clear()
    assert _pinned_count("[[2,3],[1,2]]", 8, pins) == want[1] == 21
    assert yielded == [8 ** 2, 8 ** 2]


def test_plan_never_enlarges_a_side():
    # every pin set at sizes 3..12, for one target: the sweep keeps a digit,
    # the sizes _plan returns are those of its boxes, and the planned table
    # and sweep never exceed the larger side of the unpeeled box split in
    # the middle without an implicit digit; the target is Id, so each side's
    # digit-sum cap and the lows outside the side add up to 3*size - 6
    bound = 3
    identity = [matrices.IDENTITY.entries()]
    for size in range(3, 13):
        middle = (size + 1) // 2
        for mask in range(1 << size):
            fixed = {pos: 2 for pos in range(1, size + 1) if mask >> (pos - 1) & 1}
            search = oracle._plan(size, bound, fixed, identity)
            head, tail, table, sweep = (search.head, search.tail,
                                        search.table_size, search.sweep_size)
            table_lows, sweep_lows = search.table_box[0], search.sweep_box[0]
            assert sweep_lows and len(head + table_lows + sweep_lows + tail) + 2 == size
            assert (table, sweep) == (oracle._projected(*search.table_box),
                                      oracle._projected(*search.sweep_box))
            assert len(search.groups) == 1
            ends = sum(head + tail) + search.first[0] + search.implicit[0]
            assert (search.table_cap + ends + sum(sweep_lows),
                    search.sweep_cap + ends + sum(table_lows)) == (3 * size - 6,) * 2
            lows0, highs0 = oracle._box(size, bound, fixed)
            largest = max(oracle._projected(lows0[1:middle], highs0[1:middle]),
                          oracle._projected(lows0[middle:], highs0[middle:]))
            assert max(table, sweep) <= largest, (size, fixed)
        search = oracle._plan(size, bound, {}, identity)
        h = size // 2 + 1
        assert (search.head, search.tail, search.first, search.implicit) == (
            (), (), (1, bound), (1, bound))
        assert (search.table_box, search.sweep_box) == (((1,) * (h - 2), (bound,) * (h - 2)),
                                                        ((1,) * (size - h), (bound,) * (size - h)))
        caps = (search.table_cap, search.sweep_cap)
        assert caps == (3 * size - 6 - (size - h + 2),) + (3 * size - 6 - h,)
        # a batch gets the largest d_M of its targets: -6 for -Id, alone or with
        # Id, and for Id with S, whose d_S = -9; -4 for TSTS and for -TSTS; a
        # target outside the named eight in the batch drops the caps
        tsts = matrices.TARGETS["TSTS"]
        for rows, excess in (([(-1, 0, 0, -1)], -6), (identity + [(-1, 0, 0, -1)], -6),
                             (identity + [(0, -1, 1, 0)], -6), ([tsts.entries()], -4),
                             ([(-tsts).entries()], -4), ([(2, 3, 1, 2)], None),
                             (identity + [tsts.entries(), (2, 3, 1, 2)], None)):
            planned = oracle._plan(size, bound, {}, rows)
            if excess is None:
                assert (planned.table_cap, planned.sweep_cap) == (None, None), (size, rows)
                continue
            ends = planned.first[0] + planned.implicit[0]
            assert (planned.table_cap + ends + sum(planned.sweep_box[0]),
                    planned.sweep_cap + ends + sum(planned.table_box[0])) == (
                        (3 * size + excess,) * 2), (size, rows)


def test_every_pin_set_matches_direct():
    # every pin set at sizes 3..7, all at 1 or all at 3, under bounds 2 and 3:
    # each peels, folds and splits its own way, and count, touches, both
    # histograms and listings of each target's own solve must equal the
    # direct route's, one walk for all targets; the other five named
    # targets, each under its own digit-sum caps, join in to size 6
    cases = 0
    for size in range(3, 8):
        targets = ["Id", "TSTS", "T^-1", "[[2,3],[1,2]]"]
        targets += ["S", "T", "TS", "ST", "STST"] if size <= 6 else []
        normalized = [oracle._normalize_target(target) for target in targets]
        for mask in range(1 << size):
            for value in (1, 3):
                pins = {pos: value for pos in range(1, size + 1) if mask >> (pos - 1) & 1}
                for bound in (2, 3):
                    direct = oracle._run(normalized, size, bound, pins, "direct", 1,
                                         oracle.DEFAULT_MAX_TABLE_ENTRIES, True)
                    for target, res in zip(targets, direct):
                        mitm = solve(OracleQuery(target=target, size=size, bound=bound,
                                                 constraints=pins, list_solutions=True,
                                                 method="mitm"))
                        assert _summary(mitm) == _summary(res), (target, size, bound, pins)
                        cases += 1
    assert cases == 3968 + 2400


def test_folded_solve_is_the_same_for_any_worker_count():
    # the last case pins both ends, the last one above the bound
    for bound, pins in ((None, {1: 3}), (None, {8: 2}), (3, {1: 2, 8: 4})):
        serial, forked = (solve(OracleQuery(target="Id", size=8, bound=bound,
                                            constraints=pins, list_solutions=True,
                                            workers=workers))
                          for workers in (1, 2))
        assert serial == forked, pins
        assert serial.count > 0, pins


def test_zero_bucket_matches_minus_z_prime():
    # pinning a_2 = a_3 = 1 puts Z' = elem(1)*elem(1) = [[0,-1],[1,-1]], whose
    # z'11 = 0, alone in the table; at size 5 a_4 is implicit and the sweep
    # is a_5, so a solution is found only by the probe w = (1, 0) matching
    # -Z', once per a_4
    identity = [matrices.IDENTITY.entries()]
    search = oracle._plan(5, 5, {2: 1, 3: 1}, identity)
    assert (search.table_box, search.sweep_box) == (((1, 1), (1, 1)), ((1,), (5,)))
    res = _listing("T^3S", 4, constraints={2: 1, 3: 1}, method="mitm")
    assert res.solutions == ((1, 1, 1, 3), (2, 1, 1, 2), (3, 1, 1, 1))
    assert res.by_first_last == {(1, 3): 1, (2, 2): 1, (3, 1): 1}
    # at size 4 the plan keeps a_4 in the sweep instead; at both sizes every
    # product of the box is a target, and each must find its own tuple
    for size, bound in ((4, None), (4, 2), (5, None), (5, 3)):
        box = [(a, 1, 1) + rest for a in range(1, (bound or size) + 1)
               for rest in itertools.product(range(1, (bound or size) + 1), repeat=size - 3)]
        targets = list(matrices.TARGETS) + ["[[2,3],[1,2]]"] + [matrices.m_n(t) for t in box]
        for target in targets:
            direct, mitm = _both_routes(target, size, bound, {2: 1, 3: 1})
            assert direct == mitm, (target, size, bound)
        for digits in box:
            assert digits in _listing(matrices.m_n(digits), size, bound, "mitm",
                                      {2: 1, 3: 1}).solutions


def test_pinned_implicit_digit():
    # peeling leaves a_1, a pinned a_2, the implicit digit, and a sweep over
    # a pinned a_3, so each probe bisects for a single z'21; the pin may sit
    # above the bound
    identity = [matrices.IDENTITY.entries()]
    for size, pins in ((4, {2: 2, 3: 1, 4: 3}), (4, {2: 6, 3: 1, 4: 2})):
        search = oracle._plan(size, 4, pins, identity)
        assert (search.tail, search.table_box, search.implicit, search.sweep_box) == (
            (pins[4],), ((), ()), (pins[2], pins[2]), ((1,), (1,)))
        solution = (2,) + tuple(pins[pos] for pos in range(2, size + 1))
        own = matrices.m_n(solution)
        for target in [own] + list(matrices.TARGETS) + ["[[2,3],[1,2]]"]:
            direct, mitm = _both_routes(target, size, 4, pins)
            assert direct == mitm, (target, size, pins)
        res = _listing(own, size, 4, "mitm", pins)
        assert solution in res.solutions
        assert res.bound_touches == (res.count if pins[2] >= 4 else 0)


def test_boxes_with_an_empty_table():
    # size 3, free or with one end pinned, is never peeled: a_1, a_2 implicit,
    # an empty table whose one product is the identity, and a sweep over a_3;
    # every product of the box is a target, and each must find its own tuple
    identity = [matrices.IDENTITY.entries()]
    for size, bound, pins in ((3, None, {}), (3, 2, {}), (3, None, {1: 2}), (3, None, {3: 1}),
                              (3, 2, {1: 3}), (3, 4, {3: 4})):
        search = oracle._plan(size, bound or size, pins, identity)
        assert (search.head, search.tail, search.table_box, len(search.sweep_box[0])) == (
            (), (), ((), ()), 1)
        box = list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(
            *oracle._box(size, bound or size, pins)))))
        targets = list(matrices.TARGETS) + ["S^-1", "[[2,3],[1,2]]"]
        for target in targets + [matrices.m_n(t) for t in box]:
            direct, mitm = _both_routes(target, size, bound, pins)
            assert direct == mitm, (target, size, bound, pins)
        for digits in box:
            assert digits in _listing(matrices.m_n(digits), size, bound, "mitm", pins).solutions


def test_probe_sign_is_chosen_on_the_second_entry():
    # a probe signed by its first entry, not its second, lost this solution
    res = _listing("Id", 7, method="mitm")
    assert (1, 2, 1, 1, 1, 1, 2) in res.solutions
    assert res.count == census.count_solutions("Id", 7) == 49


def test_survey_probes_once_per_target_column(monkeypatch):
    # up to sign the eight targets have four second columns, (0,1), (1,0),
    # (1,1) and (1,-1), so each suffix costs at most four table lookups, not
    # eight; the probe of (1,0) is the same for every suffix of a run, so a
    # run whose first lookup of it misses looks it up no more
    lookups = []

    class CountingTable(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    real = oracle._build_table

    def counting_build(*args):
        table, widths = real(*args)
        return CountingTable(table), widths

    monkeypatch.setattr(oracle, "_build_table", counting_build)
    rows = [mat.entries() for mat in matrices.TARGETS.values()]
    groups = oracle._plan(8, 8, {}, rows).groups
    assert sorted(len(members) for _, _, members in groups) == [1, 2, 2, 3]
    sv = survey(8)
    # the plan keeps a table over a_2..a_4 and a sweep over a_6..a_8, each
    # within its digit-sum cap, 3*8 - 4 less the five lows outside it: 350
    # suffixes in 61 runs, the 3 pairs (a_6, a_7) summing to 15 or more
    # leaving no room for a_8; the probe of (1,0) is in the table in 15 of
    # those runs, each of 8 suffixes, whose other 7 suffixes look it up too
    search = oracle._plan(8, 8, {}, rows)
    assert (search.table_cap, search.sweep_cap) == (3 * 8 - 4 - 5,) * 2 == (15, 15)
    assert _capped([1] * 3, [8] * 3, 15) == 350
    assert len(lookups) == 3 * 350 + (8 ** 2 - 3) + 15 * 7
    assert sv.counts == {name: census.count_solutions(name, 8) for name in matrices.TARGETS}


def test_table_memory_per_entry():
    # every bucket of this box holds one entry, the costliest case per
    # entry; the build's peak measured 109.9 B/entry on Python 3.10 to 3.13
    lows, highs = [7] * 5, [12] * 5
    tracemalloc.start()
    try:
        table = oracle._build_table(lows, highs, 12)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 6 ** 5 and all(type(bucket) is int for bucket in table.values())
    assert peak / 6 ** 5 <= 130


def test_direct_route_matches_naive_enumeration():
    # no pin or one pin, at 1 or above the bound; a direct route that
    # skipped runs by their first row, or dropped the negated second rows,
    # loses solutions here
    targets = list(matrices.TARGETS) + ["[[-1,0],[0,-1]]", "[[2,3],[1,2]]", "[[1,2],[0,1]]"]
    mats = [matrices.parse_target(t) for t in targets]
    solves = 0
    for size in range(1, 6):
        for bound in (2, 3, size + 1):
            pin_sets = [{}] + [{pos: value} for pos in range(1, size + 1)
                               for value in (1, bound + 1)]
            # the last two pinned together fix the innermost digit of the
            # shortened box the direct route walks
            pin_sets += [{size - 1: value, size: value} for value in (1, bound + 1)
                         if size > 1]
            for pins in pin_sets:
                lows, highs = oracle._box(size, bound, pins)
                box = [(t, matrices.m_n(t)) for t in itertools.product(
                    *(range(lo, hi + 1) for lo, hi in zip(lows, highs)))]
                for target, mat in zip(targets, mats):
                    found = [t for t, product in box if matrices.equal_up_to_sign(product, mat)]
                    res = solve(OracleQuery(target=target, size=size, bound=bound,
                                            constraints=pins, list_solutions=True,
                                            method="direct"))
                    assert res.solutions == tuple(found), (target, size, bound, pins)
                    assert res.count == len(found)
                    assert res.bound_touches == sum(max(t) >= bound for t in found)
                    assert res.by_first_last == Counter((t[0], t[-1]) for t in found)
                    assert res.by_last == Counter(t[-1] for t in found)
                    solves += 1
    assert solves == 1419


def test_direct_route_walks_the_shortened_box(monkeypatch):
    # the second row of the products over (..., b, a) is read off the run
    # of b, so the walk covers every component but the last: 7^6 tuples of
    # the shortened box at size 7, for the nine targets at once
    walked = []
    real = oracle._iter_runs

    def counting(lows, highs):
        width = highs[-1] - lows[-1] + 1 if lows else 1
        for run in real(lows, highs):
            walked.append(width)
            yield run

    monkeypatch.setattr(oracle, "_iter_runs", counting)
    targets = list(matrices.TARGETS) + ["[[2,3],[1,2]]"]
    direct = survey(7, targets=targets, method="direct")
    assert sum(walked) == 7 ** 6
    monkeypatch.undo()
    assert direct == survey(7, targets=targets, method="mitm")


def test_table_touched_bits_per_run():
    # only the innermost digit reaches the bound, then only an outer one,
    # then a pinned innermost digit above it; every code decodes to its
    # own digits, with the touched bit set exactly when one reaches it
    for lows, highs, bound in (([1, 1], [2, 3], 3), ([1, 1], [3, 2], 3),
                               ([1, 1, 1], [2, 3, 2], 3), ([1, 5], [2, 5], 3)):
        table = _decoded(*oracle._build_table(lows, highs, bound))
        box = list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))))
        codes = sorted(code for bucket in table.values() for _, _, code in bucket)
        assert [code >> 1 for code in codes] == list(range(len(box)))
        for key, bucket in table.items():
            for z21, second, code in bucket:
                digits = oracle._digits_at(code >> 1, lows, highs)
                assert digits == box[code >> 1]
                assert code & 1 == (max(digits) >= bound), (lows, highs, digits)
                a, b, c, d = matrices.m_n(digits).entries()
                if a < 0 or (a == 0 and c < 0):
                    a, b, c, d = -a, -b, -c, -d
                assert (key, z21, second) == ((a * a + c % a, c, b) if a else (0, c, d)), digits


def test_one_digit_sweep_is_the_same_for_any_worker_count():
    # at size 4 the sweep is a_4 alone, so every fork partition is one run
    # of width 1; both worker counts must agree with the direct route
    identity = [matrices.IDENTITY.entries()]
    assert oracle._plan(4, 4, {}, identity).sweep_box == ((1,), (4,))
    direct = survey(4, method="direct")
    for workers in (1, 2):
        assert survey(4, method="mitm", workers=workers) == direct
    for target in ("Id", "T", "[[2,3],[1,2]]"):
        serial, forked = (solve(OracleQuery(target=target, size=4, bound=5, list_solutions=True,
                                            method="mitm", workers=workers))
                          for workers in (1, 2))
        assert serial == forked
        assert _both_routes(target, 4, 5, {}) == [_summary(serial)] * 2


def _decoded(table, widths):
    # each bucket of _build_table as the tuple of its (z'21, z'12, code), unpacked
    # from the ints (z'21 << shift) + ((z'12 + limit) << cbits) + code; a bucket
    # is a bare int, or a sorted tuple of two or more ints
    cbits, shift, limit = widths
    decoded = {}
    for key, bucket in table.items():
        if type(bucket) is not int:
            assert type(bucket) is tuple and len(bucket) > 1 and list(bucket) == sorted(bucket)
        decoded[key] = tuple((entry >> shift, (entry % (1 << shift) >> cbits) - limit,
                              entry % (1 << cbits))
                             for entry in ((bucket,) if type(bucket) is int else bucket))
    return decoded


def _naive_table(lows, highs, bound):
    # every product over the box, one at a time: sign-normalized to z'11 > 0, or
    # z'11 = 0 and z'21 > 0, keyed by (z'11, z'21 mod z'11), buckets sorted
    table = {}
    box = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    for index, digits in enumerate(box):
        a, b, c, d = (matrices.m_n(digits) if digits else matrices.IDENTITY).entries()
        if a < 0 or (a == 0 and c < 0):
            a, b, c, d = -a, -b, -c, -d
        key, entry = (a * a + c % a, (c, b)) if a else (0, (c, d))
        code = 2 * index + (max(digits, default=0) >= bound)
        table.setdefault(key, []).append((*entry, code))
    return {key: tuple(sorted(bucket)) for key, bucket in table.items()}


# the empty box, pinned digits above the bound (innermost and outer), runs
# whose z'11 changes sign with z'11 = 0 entries among them, and a bound-2
# box of 2^14 entries whose buckets hold hundreds of them
_TABLE_BOXES = (([], [], 3), ([1, 5], [3, 5], 3), ([1, 5, 1], [3, 5, 2], 3),
                ([1] * 3, [3] * 3, 3), ([1] * 14, [2] * 14, 2))


def test_table_matches_naive_build():
    runs = [[a * r - x for a in range(1, 4)] for _, _, (r, _, x, _) in
            oracle._iter_runs([1] * 3, [3] * 3)]
    assert any(min(p) < 0 < max(p) for p in runs) and any(0 in p for p in runs)
    for lows, highs, bound in _TABLE_BOXES:
        table = _decoded(*oracle._build_table(lows, highs, bound))
        assert table == _naive_table(lows, highs, bound), (lows, highs)
    assert len(table) < 2 ** 14 and max(map(len, table.values())) >= 100


def test_filtered_table_is_the_full_table_on_its_keys():
    # no key, every other key of the full build (the zero key among them where
    # the box has one) with keys no entry has, and every key: each kept bucket
    # is the full build's own bare int or tuple, and no other key is stored
    for lows, highs, bound in _TABLE_BOXES:
        full, widths = oracle._build_table(lows, highs, bound)
        keys = sorted(full)
        absent = {max(keys) + 1, 2 ** 80} | (set(range(max(keys))) - set(keys))
        for keep in (set(), set(keys[::2]) | {oracle._ZERO_KEY} | absent, set(keys)):
            table = oracle._build_table(lows, highs, bound, keep)
            assert table == ({key: full[key] for key in keys if key in keep}, widths)
    assert oracle._ZERO_KEY in full and any(type(bucket) is tuple for bucket in full.values())


def test_filtered_mitm_matches_direct(monkeypatch):
    # searches whose table side is the larger, so the sweep's keys filter the
    # table: surveys of the eight names and of nine targets, at bound 2 and 3
    # and the default, and pinned batches, with both ends folded or the last
    # pinned above the bound; count, touches, both histograms and listings
    # equal the direct route's at one and two workers
    filtered = []
    real = oracle._build_table

    def recording(lows, highs, bound, keep=None, cap=None):
        filtered.append(keep is not None)
        return real(lows, highs, bound, keep, cap)

    monkeypatch.setattr(oracle, "_build_table", recording)
    names = list(matrices.TARGETS)
    nine = names + ["[[2,3],[1,2]]"]
    cases = [(names, 5, None, {}), (names, 7, None, {}), (nine, 7, None, {}),
             (nine, 7, 2, {}), (nine, 6, 3, {}), (nine, 9, 2, {}),
             (nine, 6, None, {2: 2}), (nine, 7, None, {2: 2, 3: 1}), (nine, 8, None, {4: 2}),
             (nine, 8, None, {1: 2, 8: 3}), (nine, 9, 3, {9: 4})]
    for targets, size, bound, pins in cases:
        normalized = [oracle._normalize_target(t) for t in targets]
        direct = oracle._run(normalized, size, bound, pins, "direct", 1,
                             oracle.DEFAULT_MAX_TABLE_ENTRIES, True)
        for workers in (1, 2):
            filtered.clear()
            mitm = oracle._run(normalized, size, bound, pins, "mitm", workers,
                               oracle.DEFAULT_MAX_TABLE_ENTRIES, True)
            assert filtered == [True], (size, bound, pins)
            assert list(map(_summary, mitm)) == list(map(_summary, direct)), (size, bound, pins)
        if not pins:
            assert survey(size, bound, workers=2, targets=targets) == survey(
                size, bound, targets=targets, method="direct")
    # size 9 at the default bound, against the join with its table unfiltered
    for targets in (names, nine):
        normalized = [oracle._normalize_target(t) for t in targets]
        filtered.clear()
        mitm = [oracle._run(normalized, 9, None, {}, "mitm", workers,
                            oracle.DEFAULT_MAX_TABLE_ENTRIES, True) for workers in (1, 2)]
        assert filtered == [True, True]
        monkeypatch.setattr(oracle, "_build_table", lambda *args: real(*args[:3]))
        full = oracle._run(normalized, 9, None, {}, "mitm", 1, oracle.DEFAULT_MAX_TABLE_ENTRIES, True)
        monkeypatch.setattr(oracle, "_build_table", recording)
        assert [list(map(_summary, run)) for run in mitm] == [list(map(_summary, full))] * 2
    assert [res.count for res in full[:8]] == [census.count_solutions(n, 9) for n in names]


def test_filter_stores_only_the_probed_entries(monkeypatch):
    # survey(9) keeps a table box of 9^4 = 6,561 tuples against a sweep box of
    # 9^3 suffixes with four probes each, both within their digit-sum caps,
    # 3*9 - 4 less the five lows outside the side; the filtered build stores
    # exactly the capped full build's entries under the sweep's keys, 276 of
    # its 2,556 under 36 keys
    built = []
    real = oracle._build_table

    def recording(lows, highs, bound, keep=None, cap=None):
        built.append((lows, highs, bound, keep, cap))
        return real(lows, highs, bound, keep, cap)

    monkeypatch.setattr(oracle, "_build_table", recording)
    assert survey(9).counts == {name: census.count_solutions(name, 9) for name in matrices.TARGETS}
    (lows, highs, bound, keep, cap), = built
    assert oracle._projected(lows, highs) == 9 ** 4 and cap == 3 * 9 - 4 - 5
    assert keep is not None and len(keep) <= 4 * _capped([1] * 3, [9] * 3, cap)
    table, full = real(lows, highs, bound, keep, cap)[0], real(lows, highs, bound, None, cap)[0]

    def entries(buckets):
        return sum(1 if type(bucket) is int else len(bucket) for bucket in buckets)

    assert entries(full.values()) == _capped(lows, highs, cap) == 2556
    assert table == {key: full[key] for key in keep if key in full}
    assert (entries(table.values()), len(table)) == (276, 36)


def test_packed_fields_fit_pinned_digits_of_any_size():
    # a table-box digit pinned far above the bound widens |Z'| and so the
    # fields of every packed entry; the widths come from the box, so the
    # fields must not overlap, for a digit below 2^64 and one above it
    identity = [matrices.IDENTITY.entries()]
    solves = 0
    for size in (5, 6, 7):
        for pos in (2, 3):
            for value in (10 ** 9, 2 ** 70 + 3):
                pins = {pos: value}
                table_lows = oracle._plan(size, 3, pins, identity).table_box[0]
                assert pos - 2 < len(table_lows) and table_lows[pos - 2] == value
                # the named targets, then two tuples of the box that must find themselves
                own = [digits[:pos - 1] + (value,) + digits[pos:]
                       for digits in ((1,) * size, (3, 2, 1, 3, 2, 1, 3)[:size])]
                for target in ["Id", "T", "S", "TSTS", "[[2,3],[1,2]]"] + own:
                    mat = matrices.m_n(target) if isinstance(target, tuple) else target
                    direct, mitm = _both_routes(mat, size, 3, pins)
                    assert direct == mitm, (target, size, pins)
                    assert not isinstance(target, tuple) or target in mitm[4]
                    solves += 2
    assert solves == 168


def test_stepped_probes_match_direct(monkeypatch):
    # _plan peels a pinned last component into the target, so this plan keeps
    # it in the sweep: each run of the sweep then starts at the pinned value,
    # inside or above the bound, and every probe steps from there; one target
    # per probe group, Id, S, T and T^-1, and one outside the named eight
    real_plan = oracle._plan

    def plan_keeping_pins(size, bound, fixed, rows):
        search = real_plan(size, bound, {}, rows)
        h = size - len(search.sweep_box[0])
        lows, highs = oracle._box(size, bound, fixed)
        sweep_box = (tuple(lows[h:]), tuple(highs[h:]))
        return search._replace(sweep_box=sweep_box, sweep_size=oracle._projected(*sweep_box))

    monkeypatch.setattr(oracle, "_plan", plan_keeping_pins)
    solutions = 0
    for size in range(4, 9):
        for bound in (2, 3, 4):
            for pins in [{}] + [{size: value} for value in range(1, bound + 3)]:
                for target in ("Id", "S", "T", "T^-1", "[[2,3],[1,2]]"):
                    direct, mitm = _both_routes(target, size, bound, pins)
                    assert mitm == direct, (target, size, bound, pins)
                    solutions += direct[0]
    assert solutions > 1000


def test_concurrent_solves_match_serial():
    # a serial run keeps no module state, so solves in threads that switch
    # as often as they can still count exactly as one at a time
    targets = ("Id", "TSTS", "S", "T")
    serial = [solve(OracleQuery(target, 9)).count for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            counts = list(pool.map(lambda target: solve(OracleQuery(target, 9)).count, targets))
    finally:
        sys.setswitchinterval(interval)
    assert counts == serial


def _product(block):
    # m_k over integers of any sign, which m_n refuses; the empty block is the identity
    product = matrices.IDENTITY
    for a in block:
        product = matrices.Mat2(a, -1, 1, 0) * product
    return product


def test_blocks_fold_each_named_target_into_id():
    # the two facts the caps of the named targets rest on: each block c
    # multiplies M, and -M, out to +/-Id, and a 0 merges its two neighbours,
    # elem(x)*elem(0)*elem(y) = -elem(x + y), for integers of any sign
    assert set(oracle._BLOCKS) == set(matrices.TARGETS)
    for name, block in oracle._BLOCKS.items():
        for mat in (matrices.TARGETS[name], -matrices.TARGETS[name]):
            assert matrices.equal_up_to_sign(_product(block) * mat, matrices.IDENTITY), name
            assert oracle._EXCESS[mat.entries()] == (
                3 * (len(block) - 2 * block.count(0)) - 6 - sum(block)), name
    assert len(oracle._EXCESS) == 16
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert _product((y, 0, x)) == -matrices.Mat2(x + y, -1, 1, 0), (x, y)


def test_id_solutions_obey_the_digit_sum_bound():
    # the lemma the caps rest on, checked on the unpruned direct route: every
    # +/-Id solution of size n sums to at most 3n - 6, and to a multiple of 3
    for size in range(3, 9):
        res = solve(OracleQuery(target="Id", size=size, list_solutions=True, method="direct",
                                max_table_entries=size ** size))
        assert res.count == census.count_solutions("Id", size) == len(res.solutions)
        sums = {sum(digits) for digits in res.solutions}
        assert max(sums) <= 3 * size - 6 and all(total % 3 == 0 for total in sums), size
    # each named target M's solutions sum to at most 3n + d_M, and exactly
    # that much wherever M has a solution of size n; one walk per size
    normalized = [oracle._normalize_target(name) for name in matrices.TARGETS]
    for size in range(3, 8):
        results = oracle._run(normalized, size, None, {}, "direct", 1, size ** size, True)
        for (mat, name), res in zip(normalized, results):
            assert res.count == census.count_solutions(name, size) == len(res.solutions)
            assert not res.solutions or (
                max(map(sum, res.solutions)) == 3 * size + oracle._EXCESS[mat.entries()]), (
                    name, size)
    # the bound is reached: the fan quiddity (n - 2, 1, 2, ..., 2, 1) of the
    # triangulation with one vertex in every triangle is a solution
    for size in range(3, 13):
        fan = (size - 2, 1) + (2,) * (size - 3) + (1,)
        assert len(fan) == size and sum(fan) == 3 * size - 6
        assert matrices.equal_up_to_sign(matrices.m_n(fan), matrices.IDENTITY), fan


def test_capped_id_searches_match_the_census():
    # Id searches walk only the tuples within their digit-sum caps; unpinned,
    # with a_1 = v, with a_n = v and with both ends pinned, their counts and
    # histograms must equal the census rows V(v) and W(first, last)
    for size in range(8, 13):
        n = size - 2
        ends = range(1, n + 1)

        def w_row(first, last):
            return census.series_row("W", n, first, last).coeff(n)

        res = solve(OracleQuery(target="Id", size=size))
        assert (res.count, res.by_last) == (census.count_solutions("Id", size),
                                            census.by_last("Id", size)), size
        assert res.by_first_last == {(f, l): w_row(f, l) for f in ends for l in ends
                                     if w_row(f, l)}, size
        for v in ends:
            v_row = census.series_V(v, n).coeff(n)
            first = solve(OracleQuery(target="Id", size=size, constraints={1: v}))
            assert first.count == v_row, (size, v)
            assert first.by_last == {l: w_row(v, l) for l in ends if w_row(v, l)}, (size, v)
            last = solve(OracleQuery(target="Id", size=size, constraints={size: v}))
            assert last.count == v_row, (size, v)
            assert last.by_first_last == {(f, v): w_row(f, v) for f in ends if w_row(f, v)}
            for pins in ({1: v, size: 1}, {1: 2, size: v}):
                both = solve(OracleQuery(target="Id", size=size, constraints=pins)).count
                assert both == w_row(pins[1], pins[size]), (size, pins)
    # at size 10 the capped listings are the uncapped ones, at one and two workers
    real = oracle._plan

    def uncapped(*args):
        return real(*args)._replace(table_cap=None, sweep_cap=None)

    capped = [_listing("Id", 10, constraints=pins).solutions for pins in (None, {1: 3}, {10: 2})]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_plan", uncapped)
        assert capped == [_listing("Id", 10, constraints=pins).solutions
                          for pins in (None, {1: 3}, {10: 2})]
    assert solve(OracleQuery(target="Id", size=10, list_solutions=True,
                             workers=2)).solutions == capped[0]
