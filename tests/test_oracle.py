import pytest

from quiddity import census, cli, matrices, oracle
from quiddity.oracle import OracleQuery, ResourceBudgetError, solve, survey


def _listing(target, size, bound=None, method="auto", constraints=None):
    return solve(OracleQuery(target=target, size=size, bound=bound,
                             constraints=constraints, list_solutions=True,
                             method=method))


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
            # item lists, so the key order must agree too
            assert (a.count, a.bound_touches, a.solutions, list(a.by_last.items()),
                    list(a.by_first_last.items())) == (
                b.count, b.bound_touches, b.solutions, list(b.by_last.items()),
                list(b.by_first_last.items())), (name, size)
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


def test_by_last_matches_series():
    n = 4
    for k in range(1, n + 1):
        expected = census.series_V(k, n).coeff(n)
        assert oracle.count_by_last("Id", n + 2, k) == expected


def test_first_last_matches_series():
    n = 4
    for first in range(1, n + 1):
        for last in range(1, n + 2 - first):
            expected = census.series_W(first, last, n).coeff(n)
            assert oracle.count_first_last("Id", n + 2, first, last) == expected
    assert oracle.count_first_last("Id", 1, 1, 2) == 0
    assert oracle.count_first_last("TS", 1, 1, 1) == 1


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


def test_survey_matches_individual_solves():
    sv = survey(6)
    for name in matrices.TARGETS:
        single = solve(OracleQuery(target=name, size=6))
        assert sv.counts[name] == single.count
        assert sv.by_last[name] == single.by_last
        assert sv.by_first_last[name] == single.by_first_last


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
