"""Verification harness: every count must agree across independent routes.

The routes are the closed-form coefficient formulas, the generating
series algebra, the exhaustive matrix-product oracle, and the frozen
reference tables shipped as package data.  A report is a flat ordered
list of named checks with expected and actual values, so the first
mismatch points directly at the family that went wrong.
"""

import json
from dataclasses import dataclass, field
from importlib import resources

from . import census, formulas, oracle
from .matrices import TARGETS
from .series import TruncSeries

IDENTITY_ORDER = 32
ORACLE_MAX_SIZE = 12


def load_golden():
    """Parse the frozen reference tables shipped with the package."""
    payload = resources.files("quiddity").joinpath("data/golden.json")
    return json.loads(payload.read_text("utf-8"))


@dataclass
class CheckResult:
    """Outcome of one named comparison."""

    name: str
    passed: bool
    expected: object
    actual: object


@dataclass
class VerifyReport:
    """Ordered collection of check results."""

    results: list = field(default_factory=list)

    def check(self, name, expected, actual):
        self.results.append(CheckResult(name, expected == actual, expected, actual))

    @property
    def passed(self):
        return all(result.passed for result in self.results)

    @property
    def first_failure(self):
        for result in self.results:
            if not result.passed:
                return result
        return None


def golden_checks():
    """Compare formula and series routes against the frozen tables.

    The Q row leads: it anchors everything else, so a broken Q formula
    is named by the very first failing check.  The series rows are read
    from one census build, of the order their rows end at, which the
    family rows read too.
    """
    report = VerifyReport()
    golden = load_golden()

    rows = golden["series_rows"]
    q_row = rows["Q"]["values"]
    end = len(q_row) - 1  # rows cover n = 0..end
    for label, formula in (("Q", formulas.coeff_Q), ("Ptilde", formulas.coeff_Ptilde)):
        row = rows[label]["values"]
        report.check(f"golden:{label}:formula", row, [formula(n) for n in range(end + 1)])
        report.check(f"golden:{label}:series", row,
                     list(census.series_row(label, end).coeffs))
    for label, k in (("U2", 2), ("U3", 3)):
        report.check(f"golden:{label}:series", rows[label]["values"],
                     list(census.series_row("U", end, k).coeffs))

    v_rows = golden["V_rows"]
    for key in sorted(v_rows, key=int):
        report.check(f"golden:V:row-{key}", v_rows[key],
                     list(census.series_row("V", end, int(key)).coeffs))
    column_sums = [sum(v_rows[str(k)][n] for k in range(1, n + 1))
                   for n in range(1, end + 1)]
    report.check("golden:V:column-sums", q_row[1:], column_sums)

    dissection = golden["dissection_rows"]
    start = dissection["D"]["start"]
    d_row = dissection["D"]["values"]
    e_row = dissection["E"]["values"]
    f_row = dissection["F"]["values"]
    span = range(start, start + len(d_row))
    report.check("golden:D:formula", d_row, [formulas.coeff_D(n) for n in span])
    report.check("golden:E:formula", e_row, [formulas.coeff_E(n) for n in span])
    report.check("golden:F:formula", f_row, [formulas.coeff_F(n) for n in span])

    def d_at(j):
        if start <= j < start + len(d_row):
            return d_row[j - start]
        return formulas.coeff_D(j)

    # independent re-derivations from the D row itself
    convolution = [(n + 2) * sum(d_at(k - 2) * d_at(n - k) for k in range(3, n))
                   for n in span]
    report.check("golden:E:convolution", e_row, convolution)
    report.check("golden:F:from-D", f_row, [2 * (n + 2) * d_at(n - 2) for n in span])

    w_rows = golden["W1k_rows"]
    for key in sorted(w_rows, key=int):
        report.check(f"golden:W:row-{key}", w_rows[key],
                     list(census.series_row("W", end, 1, int(key)).coeffs))
    w_sums = [sum(w_rows[str(k)][n] for k in range(1, n + 1))
              for n in range(1, end + 1)]
    report.check("golden:W:column-sums", v_rows["1"][1:], w_sums)
    for first, last, n, value in golden["W_spots"]:
        report.check(f"golden:W:spot-{first}-{last}-{n}", value,
                     census.series_row("W", end, first, last).coeff(n))

    families = golden["family_rows"]
    for tag in ("S", "T", "u", "v", "w", "x", "y"):
        row = families[tag]["values"]
        fam_span = range(families[tag]["start"], families[tag]["start"] + len(row))
        entries = census.census_table(tag, fam_span[-1]).entries
        report.check(f"golden:family-{tag}:census", row, [entries[n] for n in fam_span])

    small = golden["small_size_counts"]
    actual = {name: [census.count_solutions(name, 1), census.count_solutions(name, 2)]
              for name in small}
    report.check("golden:small-sizes:census", small, actual)
    return report


def identity_checks(order=IDENTITY_ORDER):
    """Exact series identities tying the families together."""
    if order < 3:
        raise ValueError("identity order must be at least 3")
    report = VerifyReport()
    # the census refuses an order above its limit before anything is allocated
    p = census.series_row("P", order)
    q = census.series_row("Q", order)
    p_inv = census.series_row("Ptilde", order)
    one = TruncSeries.one(order)
    p2 = p.mul(p)
    xp2 = p2.shift(1)

    # P = 1 + X P^2 / (1 - X^3 P^2), multiplied out to stay exact
    denom = one.sub(p2.shift(3))
    report.check("identity:P-functional-equation",
                 denom.add(xp2).coeffs, p.mul(denom).coeffs)
    # Q = 1 + X P^2 / (1 - X^3 P^3)
    denom = one.sub(p2.mul(p).shift(3))
    report.check("identity:Q-functional-equation",
                 denom.add(xp2).coeffs, q.mul(denom).coeffs)

    report.check("identity:inverse-roundtrip", one.coeffs, p.mul(p_inv).coeffs)

    v1 = census.series_row("V", order, 1)
    u1 = census.series_row("U", order, 1)
    w11 = census.series_row("W", order, 1, 1)
    q_minus_1 = q.sub(one)
    p_minus_1 = p.sub(one)
    report.check("identity:V1-times-P", q_minus_1.coeffs, v1.mul(p).coeffs)
    report.check("identity:U1-times-P", p_minus_1.coeffs, u1.mul(p).coeffs)
    report.check("identity:P-W11-P", q_minus_1.coeffs, p.mul(w11).mul(p).coeffs)

    ks = range(1, order + 1)
    v_rows = {k: census.series_row("V", order, k) for k in ks}
    v_total = sum(v_rows.values(), TruncSeries.zero(order))
    u_total = sum((census.series_row("U", order, k) for k in ks), TruncSeries.zero(order))
    w_total = sum((census.series_row("W", order, 1, k) for k in ks), TruncSeries.zero(order))
    report.check("identity:V-column-sums", q_minus_1.coeffs, v_total.coeffs)
    report.check("identity:U-column-sums", p_minus_1.coeffs, u_total.coeffs)
    report.check("identity:W-row-sums", v1.coeffs, w_total.coeffs)

    diag = [v_rows[n].coeff(n) for n in range(1, order + 1)]
    report.check("identity:V-diagonal-ones", [1] * order, diag)
    sub = [v_rows[n - 1].coeff(n) for n in range(2, order + 1)]
    report.check("identity:V-first-subdiagonal", [n - 1 for n in range(2, order + 1)], sub)
    sub2 = [v_rows[n - 2].coeff(n) for n in range(3, order + 1)]
    report.check("identity:V-second-subdiagonal",
                 [(n + 1) * (n - 2) // 2 for n in range(3, order + 1)], sub2)
    not_positive = [(k, n) for n in range(1, order + 1) for k in range(1, n + 1)
                    if v_rows[k].coeff(n) <= 0]
    report.check("identity:V-positivity", [], not_positive)
    not_zero = [(k, n) for n in range(0, order + 1) for k in range(n + 1, order + 1)
                if v_rows[k].coeff(n) != 0]
    report.check("identity:V-vanishing", [], not_zero)

    report.check("identity:Ptilde-formula", list(p_inv.coeffs),
                 [formulas.coeff_Ptilde(n) for n in range(order + 1)])
    report.check("identity:V1-formula", list(v1.coeffs[1:]),
                 [formulas.coeff_V1(n) for n in range(1, order + 1)])
    report.check("identity:W11-formula", list(w11.coeffs),
                 [formulas.coeff_W11(n) for n in range(order + 1)])
    report.check("identity:Q-formula", list(q.coeffs),
                 [formulas.coeff_Q(n) for n in range(order + 1)])
    for e in (1, 2, 3):
        report.check(f"identity:P-power-{e}", list(p.pow(e).coeffs),
                     [formulas.coeff_powP(e, n) for n in range(order + 1)])

    # W(k, l) = P^-1 V(k) U(l-1), with U(0) = 1: a route that never reads W(1, k+l-1)
    for k, l in ((2, 2), (3, 2), (2, 4), (5, 3)):
        u = census.series_row("U", order, l - 1) if l > 1 else one
        report.check(f"identity:W-shift-{k}-{l}",
                     list(p_inv.mul(census.series_row("V", order, k)).mul(u).coeffs),
                     list(census.series_row("W", order, k, l).coeffs))

    for family, formula in zip("DEF", (formulas.coeff_D, formulas.coeff_E, formulas.coeff_F)):
        entries = census.census_table(family, order).entries
        report.check(f"identity:{family}-formula", list(entries.values()),
                     [formula(n) for n in entries])
    return report


def oracle_checks(max_size=ORACLE_MAX_SIZE, workers=1):
    """Exhaustive counts against the census pipeline, all eight targets."""
    report = VerifyReport()
    names = list(TARGETS)
    for size in range(1, max_size + 1):
        sv = oracle.survey(size, bound=size, workers=workers)
        expected = {name: census.count_solutions(name, size) for name in names}
        report.check(f"oracle:counts:size-{size}", expected, dict(sv.counts))
        n = size - 2
        if n >= 1:
            report.check(f"oracle:Id-by-last:size-{size}",
                         census.by_last("Id", size), sv.by_last["Id"])
            exp_fl = {}
            for first in range(1, n + 1):
                for last in range(1, n + 2 - first):
                    value = census.series_row("W", n, first, last).coeff(n)
                    if value:
                        exp_fl[(first, last)] = value
            report.check(f"oracle:Id-first-last:size-{size}",
                         exp_fl, sv.by_first_last["Id"])
            if n >= 3:
                report.check(f"oracle:S-by-last:size-{size}",
                             census.by_last("S", size), sv.by_last["S"])
            report.check(f"oracle:T-by-last:size-{size}",
                         census.by_last("T", size), sv.by_last["T"])
        # identity-target components stay below size - 1, so the box never saturates
        report.check(f"oracle:Id-bound-untouched:size-{size}", 0,
                     sv.bound_touches["Id"])

    for size in range(4, min(7, max_size) + 1):
        # per route: the named targets and one outside them in one survey,
        # then a lowered bound and a first component pinned above the bound
        full_box = names + ["[[2,3],[1,2]]"]
        singles = {"Id:bound-2": {"target": "Id", "bound": 2},
                   f"TSTS:first-{size - 1}:bound-2": {
                       "target": "TSTS", "bound": 2, "constraints": {1: size - 1}}}
        labels = names + list(singles) + full_box[-1:]
        by_route = []
        for method in ("direct", "mitm"):
            sv = oracle.survey(size, targets=full_box, method=method)
            rows = {label: (sv.counts[key], sv.bound_touches[key],
                            sv.by_last[key], sv.by_first_last[key])
                    for label, key in zip(full_box, sv.counts)}
            for label, spec in singles.items():
                single = oracle.solve(oracle.OracleQuery(size=size, method=method, **spec))
                rows[label] = (single.count, single.bound_touches,
                               single.by_last, single.by_first_last)
            by_route.append({label: rows[label] for label in labels})
        report.check(f"oracle:direct-vs-mitm:size-{size}", *by_route)

    golden = load_golden()
    for name, by_size in golden["small_solutions"].items():
        for size_key, tuples in sorted(by_size.items(), key=lambda kv: int(kv[0])):
            size = int(size_key)
            if size > max_size:
                continue
            result = oracle.solve(oracle.OracleQuery(target=name, size=size,
                                                     list_solutions=True))
            report.check(f"oracle:listing:{name}-size-{size}",
                         tuple(tuple(t) for t in tuples), result.solutions)
    return report


def run_verify(max_size=ORACLE_MAX_SIZE, order=IDENTITY_ORDER, workers=1):
    """Run every check group in order and join their reports (max_size 0: no oracle group)."""
    if max_size < 0:
        raise ValueError(f"max size must be nonnegative, got {max_size}")
    report = VerifyReport(golden_checks().results + identity_checks(order=order).results)
    if max_size:
        report.results += oracle_checks(max_size=max_size, workers=workers).results
    return report
