import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from quiddity import census, cli, formulas, verify
from quiddity.matrices import TARGETS
from quiddity.series import TruncSeries


def test_series_rows_pinned():
    assert census.series_row("P", 7).coeffs == (1, 1, 2, 5, 15, 48, 160, 550)
    assert census.series_row("Q", 7).coeffs == (1, 1, 2, 5, 15, 49, 166, 577)
    assert census.series_V(1, 7).coeffs == (0, 1, 1, 2, 6, 19, 62, 209)
    assert census.series_row("W", 7, 1, 1).coeffs == (0, 1, 0, 0, 1, 3, 9, 29)


def test_series_constructions_agree():
    order = 10
    one = TruncSeries.one(order)
    assert census.series_row("Ptilde", order) == census.series_row("P", order).inverse()
    assert census.series_row("U", order, 1) == one.sub(census.series_row("Ptilde", order))
    assert census.series_row("U", order, 3) == census.series_row("U", order, 1).pow(3)
    assert census.series_V(2, order) == census.series_V(1, order).mul(
        census.series_row("U", order, 1)
    )
    # W(k, l) = W11 U1^(k+l-2) with W11 = V1 / P, so a route through V(k) and U(l-1)
    assert census.series_row("W", order, 2, 3) == census.series_row("Ptilde", order).mul(
        census.series_V(2, order)).mul(census.series_row("U", order, 2))


def test_series_k_validation():
    with pytest.raises(ValueError):
        census.series_row("U", 5, 0)
    with pytest.raises(ValueError):
        census.series_V(0, 5)
    with pytest.raises(ValueError):
        census.series_row("W", 5, 1, 0)
    # a named-target row is a series of the one build too, the row its table prints
    assert list(census.series_row("S", 5).coeffs) == _row("S", 5)
    with pytest.raises(ValueError, match="^unknown family 'Z'$"):
        census.series_row("Z", 5)


def _row(family, n_max):
    return list(census.census_table(family, n_max).entries.values())


def _cli_out(capsys, *argv):
    """The stdout of one CLI call that exits 0."""
    assert cli.main(list(argv)) == 0, argv
    return capsys.readouterr().out


def test_count_S_row():
    assert _row("S", 6) == [0, 0, 0, 1, 4, 14, 50]
    assert [census.count_solutions("S", n + 2) for n in range(1, 7)] == [0, 0, 1, 4, 14, 50]
    with pytest.raises(ValueError):
        census.census_table("S", -1)


def test_count_T_row():
    assert _row("T", 6) == [0, 1, 2, 5, 16, 53, 180]
    s, t = census.census_table("S", 9).entries, census.census_table("T", 9).entries
    for n in range(1, 9):
        assert t[n] == s[n - 1] + census.series_row("Q", n).coeff(n)


def test_count_family_small_values():
    assert _row("u", 6) == [0, 1, 3, 9, 30, 104]
    assert census.census_table("v", 1).entries == {1: 0}
    assert _row("x", 4) == [1, 2, 6, 19]
    assert census.census_table("y", 1).entries == {1: 0}
    s, v = census.census_table("S", 8).entries, census.census_table("v", 8).entries
    for n in range(2, 8):
        assert v[n] == census.series_row("Q", n).coeff(n - 1) + s[n]


def test_count_family_validation():
    with pytest.raises(ValueError):
        census.census_table("z", 4)
    with pytest.raises(ValueError):
        census.census_table("u", 0)


def test_named_target_table_is_one_build():
    for tag in ("S", "T", "u", "v", "w", "x", "y"):
        census._build.cache_clear()
        census.census_table(tag, 48)
        assert census._build.cache_info().misses == 1, tag


def _ladder_targets(build, x_last):
    """The named-target rows at n = 0..order as sums over the V and W(1, .)
    ladders, the reference for the products that _Build.row reads.  x's
    entry at the order is V1 one index past it, given as x_last."""
    order = build.u1.order
    q = build.row("Q").coeffs
    # one ladder row past the order, zero there, so that V1 and W11 exist at order 0
    v = {d: build.row("V", d).coeffs for d in range(1, order + 2)}
    w = {k: build.row("W", k).coeffs for k in range(1, order + 2)}
    span = range(order + 1)
    s = [sum((d - 1) * v[d][n - 1] for d in range(2, n)) for n in span]
    return {
        "Q": list(q),
        "S": s,
        "T": [s[n - 1] + q[n] if n else 0 for n in span],
        "u": [q[n] - v[1][n] for n in span],
        "v": [q[n - 1] + s[n] if n > 1 else 0 for n in span],
        "w": [q[n] - 2 * sum(w[k][n] for k in range(1, n + 1)) + w[1][n] for n in span],
        "x": [v[1][n + 1] for n in range(order)] + [x_last],
        "y": [sum((d - 2) * v[d][n - 1] for d in range(3, n)) for n in span],
    }


def test_target_products_match_the_ladder_sums():
    for order in (*range(13), 48, 100):
        build = census._Build(order)
        products = {tag: list(build.row(tag).coeffs)
                    for tag in ("Q", "S", "T", "u", "v", "w", "x", "y")}
        x_last = census._Build(order + 1).row("V", 1).coeff(order + 1)
        assert products == _ladder_targets(build, x_last), order


def test_named_target_rows_leave_the_ladders_ungrown():
    census._build.cache_clear()
    build = census._build(48)
    for family in ("P", "Q", "Ptilde"):
        build.row(family)
    assert "_targets" not in vars(build)
    assert "S" not in build._fixed
    assert build.row("S").coeff(48) == census.count_solutions("S", 50)
    assert census._build.cache_info().misses == 1
    assert (len(build._rows["V"]), len(build._rows["W"])) == (1, 1)


# row indices for the families that take them, more than one for each
_EDGE_INDICES = {"U": ({"k": 1}, {"k": 2}), "V": ({"k": 1}, {"k": 2}),
                 "W": ({"k": 1, "l": 1}, {"k": 1, "l": 2}, {"k": 2, "l": 1})}


def test_edge_orders_read_the_heads_of_longer_rows():
    for family in census.FAMILIES:
        for indices in _EDGE_INDICES.get(family, ({},)):
            full = census.census_table(family, 12, **indices)
            start = min(full.entries)
            for n_max in range(start, 5):
                table = census.census_table(family, n_max, **indices)
                head = {n: full.entries[n] for n in range(start, n_max + 1)}
                assert (table.family, table.entries) == (full.family, head), (family, n_max)
            row = census.series_row(family, 12, **indices)
            for order in (0, 1):
                expected = TruncSeries(row.coeffs[:order + 1])
                assert census.series_row(family, order, **indices) == expected, (family, order)
    rows = {"Id": "Q", "S": "S", "T": "T", "T^-1": "u", "TS": "v", "ST": "w", "TSTS": "x",
            "STST": "y"}
    for size in (3, 4):
        n = size - 2
        for name, family in rows.items():
            assert census.count_solutions(name, size) == census.census_table(family, 12).entries[n]
        v_column = {k: census.census_table("V", 12, k=k).entries[n] for k in range(1, n + 1)}
        assert census.by_last("Id", size) == v_column
        for name in ("Id", "S", "T"):
            hist = census.by_last(name, size)
            assert sum(hist.values()) == census.census_table(rows[name], 12).entries[n]


def test_orders_above_the_limit_are_refused():
    limit = census._MAX_ORDER
    start = time.perf_counter()
    for family in census.FAMILIES:
        indices = _EDGE_INDICES.get(family, ({},))[-1]
        with pytest.raises(census.OrderLimitError):
            census.census_table(family, limit + 1, **indices)
        with pytest.raises(census.OrderLimitError):
            census.series_row(family, limit + 1, **indices)
    for name in TARGETS:
        with pytest.raises(census.OrderLimitError):
            census.count_solutions(name, limit + 3)
    for name in ("Id", "S", "T"):
        with pytest.raises(census.OrderLimitError):
            census.by_last(name, limit + 3)
    with pytest.raises(census.OrderLimitError):
        verify.identity_checks(order=limit + 1)
    assert time.perf_counter() - start < 1
    # 103 is the largest order the tests, demos, verify defaults and benchmark read;
    # every row there counts solutions except Ptilde's, whose entries are negative
    for family in census.FAMILIES:
        indices = _EDGE_INDICES.get(family, ({},))[-1]
        value = census.census_table(family, 103, **indices).entries[103]
        assert (value < 0) == (family == "Ptilde"), family
        assert census.series_row(family, 103, **indices).order == 103, family
    assert [census.count_solutions(name, 105) > 0 for name in TARGETS] == [True] * 8


def test_negative_orders_are_refused_by_name():
    for read in (lambda: census.series_row("P", -1), lambda: census.series_V(1, -1),
                 lambda: census.series_row("U", -2, 1)):
        with pytest.raises(ValueError, match=r"^census order -[12] is negative$"):
            read()


def test_count_S_by_last():
    with pytest.raises(ValueError):
        census.by_last("S", 2)
    assert census.by_last("S", 4) == {}
    for size in range(5, 11):
        hist = census.by_last("S", size)
        assert list(hist) == list(range(1, size - 3))
        assert hist[size - 4] == 1
        assert sum(hist.values()) == census.count_solutions("S", size)


def test_count_T_by_last():
    with pytest.raises(ValueError):
        census.by_last("T", 2)
    for size in range(3, 11):
        hist = census.by_last("T", size)
        assert hist.get(1, 0) == census.count_solutions("S", size - 1)
        assert hist[size - 1] == 1
        assert max(hist) == size - 1
        assert sum(hist.values()) == census.count_solutions("T", size)


def test_by_last_Id_is_the_V_column():
    for size in range(3, 11):
        n = size - 2
        column = {k: census.series_V(k, n).coeff(n) for k in range(1, n + 1)}
        assert census.by_last("Id", size) == column
        assert sum(column.values()) == census.count_solutions("Id", size)


def test_by_last_validation():
    for name in ("T^-1", "TS", "ST", "TSTS", "STST", "X"):
        with pytest.raises(ValueError):
            census.by_last(name, 6)
    for name in ("Id", "S", "T"):
        for size in (-1, 0, 1, 2):
            with pytest.raises(ValueError):
                census.by_last(name, size)


def test_count_solutions_dispatch():
    assert census.count_solutions("TS", 1) == 1
    assert census.count_solutions("TSTS", 2) == 1
    for name in ("Id", "S", "T", "T^-1", "ST", "STST"):
        assert census.count_solutions(name, 1) == 0
        assert census.count_solutions(name, 2) == 0
    assert census.count_solutions("Id", 5) == 5
    assert census.count_solutions("S", 6) == 4
    assert census.count_solutions("T", 6) == 16
    assert census.count_solutions("T^-1", 6) == 9
    assert census.count_solutions("TS", 6) == 9
    assert census.count_solutions("TSTS", 6) == 19
    assert census.count_solutions("STST", 6) == 1


def test_count_solutions_validation():
    with pytest.raises(ValueError):
        census.count_solutions("X", 3)
    with pytest.raises(ValueError):
        census.count_solutions("Id", 0)


def test_census_table_dissection_rows():
    # P's table and the dissection tables D and E all read the series build
    table = census.census_table("P", 6)
    assert table.family == "P"
    assert table.entries == {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 48, 6: 160}
    table = census.census_table("D", 4)
    assert table.entries == {1: 1, 2: 2, 3: 5, 4: 15}
    assert census.census_table("E", 4).entries == {3: 0, 4: 6}


def test_census_table_series_families(capsys):
    table = census.census_table("V", 6, k=2)
    assert table.family == "V(2)"
    out = _cli_out(capsys, "table", "--family", "V", "--k", "2", "--n-max", "6", "--format", "json")
    assert json.loads(out)["provenance"] == "series"
    assert table.entries[2] == 1
    assert census.census_table("W", 8, k=2, l=3).entries[8] == 114
    assert census.census_table("S", 6).entries[6] == 50
    assert census.census_table("y", 6).entries == {1: 0, 2: 0, 3: 0, 4: 1, 5: 5, 6: 20}


def test_census_table_validation():
    with pytest.raises(ValueError):
        census.census_table("Z", 5)
    with pytest.raises(ValueError):
        census.census_table("U", 5)
    with pytest.raises(ValueError):
        census.census_table("W", 5, k=1)
    with pytest.raises(ValueError):
        census.census_table("P", 5, k=1)
    with pytest.raises(ValueError):
        census.census_table("V", 5, k=1, l=2)
    with pytest.raises(ValueError):
        census.census_table("V", 5, k=0)
    with pytest.raises(ValueError):
        census.census_table("E", 2)


def _reference_row_index_check(family, k, l):
    """The row-index checks as once written out with the family names."""
    needs_k = family in ("U", "V", "W")
    needs_l = family == "W"
    if needs_k and k is None:
        raise ValueError(f"family {family} needs k")
    if needs_l and l is None:
        raise ValueError(f"family {family} needs l")
    if not needs_k and k is not None:
        raise ValueError(f"family {family} does not take k")
    if not needs_l and l is not None:
        raise ValueError(f"family {family} does not take l")
    if needs_k and k < 1:
        raise ValueError("k must be at least 1")
    if needs_l and l < 1:
        raise ValueError("l must be at least 1")


def test_row_index_checks_keep_their_messages_and_precedence():
    # census-48 runs its tables in FAMILIES order, and the CLI offers these choices
    assert census.FAMILIES == ("P", "Q", "Ptilde", "D", "E", "F", "U", "V", "W",
                               "S", "T", "u", "v", "w", "x", "y")
    readers = [("table", census.census_table, census.CountTable),
               ("series", census.series_row, TruncSeries)]
    for family in census.FAMILIES:
        for k in (None, 0, 2):
            for l in (None, 0, 2):
                try:
                    _reference_row_index_check(family, k, l)
                    expected = None
                except ValueError as exc:
                    expected = str(exc)
                for name, read, kind in readers:
                    case = (name, family, k, l)
                    if expected is None:
                        assert isinstance(read(family, 4, k, l), kind), case
                    else:
                        with pytest.raises(ValueError) as raised:
                            read(family, 4, k, l)
                        assert str(raised.value) == expected, case


def test_count_table_csv(capsys):
    table = _cli_out(capsys, "table", "--family", "Q", "--n-max", "3")
    assert table == "family,n,value\nQ,0,1\nQ,1,1\nQ,2,2\nQ,3,5\n"
    quoted = _cli_out(capsys, "table", "--family", "W", "--k", "2", "--l", "3", "--n-max", "2")
    assert quoted.splitlines()[1] == '"W(2,3)",0,0'


def test_count_table_json(capsys):
    payload = json.loads(_cli_out(capsys, "table", "--family", "Q", "--n-max", "3",
                                  "--format", "json"))
    assert payload["family"] == "Q"
    assert payload["provenance"] == "series"
    assert payload["values"] == {"0": "1", "1": "1", "2": "2", "3": "5"}
    assert all(isinstance(v, str) for v in payload["values"].values())
    payload = json.loads(_cli_out(capsys, "table", "--family", "D", "--n-max", "3",
                                  "--format", "json"))
    assert payload["family"] == "D"
    assert payload["provenance"] == "series"
    assert payload["values"] == {"1": "1", "2": "2", "3": "5"}


def test_clear_caches_keeps_results():
    before = census.series_row("Q", 6)
    census._build.cache_clear()
    assert census.series_row("Q", 6) == before


def test_census_route_uses_no_closed_form(monkeypatch):
    def closed_form_called(*args):
        raise AssertionError("the census route called a closed form")

    for name in dir(formulas):
        if name.startswith("coeff_"):
            monkeypatch.setattr(formulas, name, closed_form_called)
    # builds made before the patch would hide a closed-form call
    census._build.cache_clear()
    assert census.series_row("P", 8).coeffs == (1, 1, 2, 5, 15, 48, 160, 550, 1937)
    assert census.series_row("Q", 8).coeffs == (1, 1, 2, 5, 15, 49, 166, 577, 2050)
    assert census.series_row("Ptilde", 8).coeffs == (
        1, -1, -1, -2, -6, -18, -57, -189, -648)
    assert census.series_row("U", 8, 2).coeffs == (0, 0, 1, 2, 5, 16, 52, 174, 600)
    assert census.series_V(3, 8).coeffs == (0, 0, 0, 1, 3, 9, 31, 109, 388)
    assert census.series_row("W", 8, 2, 3).coeffs == (0, 0, 0, 0, 1, 3, 9, 32, 114)
    assert _row("S", 8) == [0, 0, 0, 1, 4, 14, 50, 182, 670]
    assert _row("T", 8) == [0, 1, 2, 5, 16, 53, 180, 627, 2232]
    families = {
        "u": [0, 1, 3, 9, 30, 104, 368, 1324],
        "v": [0, 1, 3, 9, 29, 99, 348, 1247],
        "w": [0, 0, 1, 4, 14, 51, 188, 697],
        "x": [1, 2, 6, 19, 62, 209, 726, 2580],
        "y": [0, 0, 0, 1, 5, 20, 78, 302],
    }
    for tag, row in families.items():
        assert _row(tag, 8) == row, tag
    dissections = {
        "D": [1, 2, 5, 15, 49, 168, 595, 2160],
        "E": [0, 6, 28, 112, 450, 1830],
        "F": [10, 24, 70, 240, 882, 3360],
    }
    for family, row in dissections.items():
        assert list(census.census_table(family, 8).entries.values()) == row, family
    # the same histograms as the exhaustive survey(10)
    assert census.by_last("Id", 10) == {1: 726, 2: 627, 3: 388, 4: 194, 5: 80, 6: 27,
                                        7: 7, 8: 1}
    assert census.by_last("S", 10) == {1: 368, 2: 188, 3: 79, 4: 27, 5: 7, 6: 1}
    assert census.by_last("T", 10) == {1: 182, 2: 726, 3: 627, 4: 388, 5: 194, 6: 80,
                                       7: 27, 8: 7, 9: 1}
    by_size = {
        "Id": [0, 0, 1, 2, 5, 15, 49, 166, 577, 2050],
        "S": [0, 0, 0, 0, 1, 4, 14, 50, 182, 670],
        "T": [0, 0, 1, 2, 5, 16, 53, 180, 627, 2232],
        "T^-1": [0, 0, 0, 1, 3, 9, 30, 104, 368, 1324],
        "TS": [1, 0, 0, 1, 3, 9, 29, 99, 348, 1247],
        "ST": [0, 0, 0, 0, 1, 4, 14, 51, 188, 697],
        "TSTS": [0, 1, 1, 2, 6, 19, 62, 209, 726, 2580],
        "STST": [0, 0, 0, 0, 0, 1, 5, 20, 78, 302],
    }
    for name, row in by_size.items():
        assert [census.count_solutions(name, s) for s in range(1, 11)] == row, name


def test_concurrent_rows_are_grown_once():
    # four threads grow the V rows of one build at once, switching as often
    # as they can; each row must equal the one a build grows alone
    ks = (40, 47, 54, 61)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for order in (100, 103):
            build = census._Build(order)
            with ThreadPoolExecutor(4) as pool:
                rows = list(pool.map(lambda k: build.row("V", k), ks))
            alone = census._Build(order)
            assert rows == [alone.row("V", k) for k in ks], order
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_sides_are_made_once(monkeypatch):
    # four threads make the P side, a V row grown off it, the named targets
    # and the dissections of one fresh build at once
    reads = (("P",), ("V", 40), ("S",), ("D",))
    tops, real_solve = [], census._solve
    monkeypatch.setattr(census, "_solve",
                        lambda order, top: tops.append(top) or real_solve(order, top))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        build = census._Build(100)
        with ThreadPoolExecutor(4) as pool:
            rows = list(pool.map(lambda args: build.row(*args), reads))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(tops) == [3, 4]
    assert rows == [census._Build(100).row(*args) for args in reads]


def test_dissection_tables_solve_no_p_side(monkeypatch):
    solved, products = [], []
    real_solve = census._solve

    def solve_spy(order, top):
        solved.append((order, top))
        return real_solve(order, top)

    monkeypatch.setattr(census, "_solve", solve_spy)
    for name in ("mul", "inverse"):
        real = getattr(TruncSeries, name)
        monkeypatch.setattr(TruncSeries, name, lambda *args, name=name, real=real:
                            products.append(name) or real(*args))
    census._build.cache_clear()
    table = census.census_table("D", 300)
    assert solved == [(300, 4)]
    assert products == []
    assert [table.entries[n] for n in range(1, 8)] == [1, 2, 5, 15, 49, 168, 595]


def test_a_cold_row_is_reached_in_logarithmically_many_products(monkeypatch):
    in_order = census._Build(300)
    for k in range(1, 251):
        row = in_order.row("V", k)
    products = []
    real = TruncSeries.mul

    def spy(self, other):
        products.append(self.order)
        return real(self, other)

    monkeypatch.setattr(TruncSeries, "mul", spy)
    cold = census._Build(300)
    products.clear()  # a build makes nothing before its first read, so V1 and W11 count too
    assert cold.row("V", 250) == row
    assert len(products) <= 2 * math.ceil(math.log2(250)) + 2
