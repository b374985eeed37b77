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
    # at sizes 2 and 3 the suffix after the middle is a single digit
    for size in (2, 3, 5):
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
            expected = census.series_W(first, last, n).coeff(n)
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
    with pytest.raises(ValueError):
        solve(OracleQuery(target="Id", size=1, method="mitm"))


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
    with pytest.raises(ResourceBudgetError):
        solve(OracleQuery(target="Id", size=6, max_table_entries=100))
    with pytest.raises(ResourceBudgetError):
        survey(6, max_table_entries=100)


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
    monkeypatch.setattr(oracle.multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(oracle.multiprocessing, "get_context", no_fork)
    assert survey(7, workers=2) == serial
    assert cli.main(["oracle", "--target", "Id", "--size", "8",
                     "--workers", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "Id,8,8,166,0,True"


def test_fork_pool_is_capped_at_the_cpu_count(monkeypatch):
    # a fake pool that records its size and maps in this process, so no
    # process is ever started
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

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
    monkeypatch.setattr(oracle.multiprocessing, "get_all_start_methods", lambda: ["fork"])
    monkeypatch.setattr(oracle.multiprocessing, "get_context", lambda method: FakeContext)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    # 6 first-digit partitions: 2000 workers get a pool of two
    assert solve(OracleQuery(workers=2000, **query)) == serial
    assert sizes == [2]
    # one CPU, or none reported, runs serially without a pool
    for cpus in (1, None):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        assert solve(OracleQuery(workers=2000, **query)) == serial
    assert sizes == [2]


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


def test_iter_products_odometer():
    # boxes of length 0 and 1, the innermost digit pinned, a pinned middle
    # digit, and a pinned digit above the bound
    boxes = [([], []), ([1], [4]), ([3], [3]), ([1, 1, 2], [3, 3, 2]),
             ([1, 2, 1], [3, 2, 3]), ([1, 1, 5, 1], [2, 2, 5, 2]),
             ([7, 1, 1], [7, 3, 3])]
    for lows, highs in boxes:
        seen = []
        for digits, product in oracle._iter_products(lows, highs):
            expected = matrices.m_n(digits) if digits else matrices.IDENTITY
            assert product == expected.entries(), (lows, highs, digits)
            seen.append(tuple(digits))
        box = [()]
        for lo, hi in zip(lows, highs):
            box = [t + (a,) for t in box for a in range(lo, hi + 1)]
        assert seen == box, (lows, highs)
        assert seen == sorted(seen)


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
    with pytest.raises(ValueError):
        survey(1, method="mitm")


def test_targets_outside_sl2z_are_refused():
    for mat in (matrices.Mat2(2, 0, 0, 1), matrices.Mat2(1, 1, 1, 3)):
        for method in ("direct", "mitm"):
            with pytest.raises(ValueError, match="determinant"):
                solve(OracleQuery(target=mat, size=6, method=method))
            with pytest.raises(ValueError, match="determinant"):
                solve(OracleQuery(target=mat, size=6, method=method, list_solutions=True))
        with pytest.raises(ValueError, match="determinant"):
            survey(6, targets=["Id", mat])


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
                results = [_summary(solve(OracleQuery(
                    target=target, size=size, bound=bound, constraints=pins,
                    list_solutions=True, method=method))) for method in ("direct", "mitm")]
                assert results[0] == results[1], (target, size, bound, pins)


def test_pinned_ends_are_folded(monkeypatch):
    yielded = []
    real = oracle._iter_products

    def counting(lows, highs):
        yielded.append(0)
        for step in real(lows, highs):
            yielded[-1] += 1
            yield step

    monkeypatch.setattr(oracle, "_iter_products", counting)
    # the table comes first, then one sweep per first suffix digit
    # table over a_3..a_6, sweep over a_7..a_10 (unfolded: a 10^5 sweep)
    assert oracle.count_component_at("Id", 10, 1, 3) == census.series_V(3, 8).coeff(8)
    assert (yielded[0], sum(yielded[1:])) == (10 ** 4, 10 ** 4)
    # table over a_3..a_5, sweep over a_6..a_9 (unfolded: 10^4 and 10^4)
    yielded.clear()
    assert _pinned_count("Id", 10, {1: 2, 10: 3}) == census.series_W(2, 3, 8).coeff(8)
    assert (yielded[0], sum(yielded[1:])) == (10 ** 3, 10 ** 4)
    # peeling a_5 leaves a_1..a_4 with a_2 pinned; splitting that box in
    # the middle would give a sweep of 25, over this budget, so the split
    # balances at a table over a_2..a_3 and a sweep over a_4, of 5 each
    want = sum(1 for d in _listing("Id", 5).solutions if (d[1], d[4]) == (1, 2))
    assert solve(OracleQuery(target="Id", size=5, constraints={2: 1, 5: 2},
                             max_table_entries=5)).count == want == 1
    # no end pinned, but the interior pins a_2, a_3 move the balanced split:
    # table over a_2..a_5, sweep over a_6..a_8 (split in the middle: 8 and 8^4)
    yielded.clear()
    assert _pinned_count("Id", 8, {2: 1, 3: 2}) == 22
    assert (yielded[0], sum(yielded[1:])) == (8 ** 2, 8 ** 3)


def test_plan_never_enlarges_a_side():
    # every pin set at sizes 2..12, against the unpeeled box split in the middle
    bound = 3
    for size in range(2, 13):
        middle = (size + 1) // 2
        for mask in range(1 << size):
            fixed = {pos: 2 for pos in range(1, size + 1) if mask >> (pos - 1) & 1}
            head, tail, lows, highs, h = oracle._plan(size, bound, fixed)
            assert len(lows) >= 2 and 1 <= h < len(lows)
            assert len(head) + len(lows) + len(tail) == size
            lows0, highs0 = oracle._box(size, bound, fixed)
            largest = max(oracle._projected(lows0[1:middle], highs0[1:middle]),
                          oracle._projected(lows0[middle:], highs0[middle:]))
            assert max(oracle._projected(lows[1:h], highs[1:h]),
                       oracle._projected(lows[h:], highs[h:])) <= largest, (size, fixed)
        assert oracle._plan(size, bound, {}) == ((), (), [1] * size, [bound] * size, middle)


def test_folded_solve_is_the_same_for_any_worker_count():
    # the last case pins both ends, the last one above the bound
    for bound, pins in ((None, {1: 3}), (None, {8: 2}), (3, {1: 2, 8: 4})):
        serial, forked = (solve(OracleQuery(target="Id", size=8, bound=bound,
                                            constraints=pins, list_solutions=True,
                                            workers=workers))
                          for workers in (1, 2))
        assert serial == forked, pins
        assert serial.count > 0, pins
