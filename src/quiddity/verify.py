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

GOLDEN_ORDER = 16
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

    def line(self):
        if self.passed:
            return f"PASS {self.name}"
        return f"FAIL {self.name}: expected {self.expected!r}, actual {self.actual!r}"


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
    def failures(self):
        return [result for result in self.results if not result.passed]

    @property
    def first_failure(self):
        for result in self.results:
            if not result.passed:
                return result
        return None

    def lines(self):
        return [result.line() for result in self.results]


def golden_checks(report=None, order=GOLDEN_ORDER):
    """Compare formula and series routes against the frozen tables.

    The Q row leads: it anchors everything else, so a broken Q formula
    is named by the very first failing check.
    """
    report = report if report is not None else VerifyReport()
    golden = load_golden()

    rows = golden["series_rows"]
    q_row = rows["Q"]["values"]
    width = len(q_row)  # rows cover n = 0..width-1
    report.check("golden:Q:formula", q_row,
                 [formulas.coeff_Q(n) for n in range(width)])
    report.check("golden:Q:series", q_row,
                 list(census.series_Q(order).coeffs[:width]))

    pt_row = rows["Ptilde"]["values"]
    report.check("golden:Ptilde:formula", pt_row,
                 [formulas.coeff_Ptilde(n) for n in range(width)])
    report.check("golden:Ptilde:series", pt_row,
                 list(census.series_P_inverse(order).coeffs[:width]))

    for label, k in (("U2", 2), ("U3", 3)):
        report.check(f"golden:{label}:series", rows[label]["values"],
                     list(census.series_U(k, order).coeffs[:width]))

    v_rows = golden["V_rows"]
    for key in sorted(v_rows, key=int):
        report.check(f"golden:V:row-{key}", v_rows[key],
                     list(census.series_V(int(key), order).coeffs[:width]))
    column_sums = [sum(v_rows[str(k)][n] for k in range(1, n + 1))
                   for n in range(1, width)]
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
                     list(census.series_W(1, int(key), order).coeffs[:width]))
    w_sums = [sum(w_rows[str(k)][n] for k in range(1, n + 1))
              for n in range(1, width)]
    report.check("golden:W:column-sums", v_rows["1"][1:], w_sums)
    for first, last, n, value in golden["W_spots"]:
        report.check(f"golden:W:spot-{first}-{last}-{n}", value,
                     census.series_W(first, last, order).coeff(n))

    families = golden["family_rows"]
    family_fns = {"S": census.count_S, "T": census.count_T}
    for tag in ("S", "T", "u", "v", "w", "x", "y"):
        row = families[tag]["values"]
        fam_start = families[tag]["start"]
        fam_span = range(fam_start, fam_start + len(row))
        if tag in family_fns:
            actual = [family_fns[tag](n) for n in fam_span]
        else:
            actual = [census.count_family(tag, n) for n in fam_span]
        report.check(f"golden:family-{tag}:census", row, actual)

    small = golden["small_size_counts"]
    actual = {name: [census.count_solutions(name, 1), census.count_solutions(name, 2)]
              for name in small}
    report.check("golden:small-sizes:census", small, actual)
    return report


def identity_checks(report=None, order=IDENTITY_ORDER):
    """Exact series identities tying the families together."""
    if order < 3:
        raise ValueError("identity order must be at least 3")
    report = report if report is not None else VerifyReport()
    one = TruncSeries.one(order)
    p = census.series_P(order)
    q = census.series_Q(order)
    p_inv = census.series_P_inverse(order)
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

    v1 = census.series_V(1, order)
    u1 = census.series_U(1, order)
    w11 = census.series_W11(order)
    q_minus_1 = q.sub(one)
    p_minus_1 = p.sub(one)
    report.check("identity:V1-times-P", q_minus_1.coeffs, v1.mul(p).coeffs)
    report.check("identity:U1-times-P", p_minus_1.coeffs, u1.mul(p).coeffs)
    report.check("identity:P-W11-P", q_minus_1.coeffs, p.mul(w11).mul(p).coeffs)

    v_total = TruncSeries.zero(order)
    u_total = TruncSeries.zero(order)
    w_total = TruncSeries.zero(order)
    for k in range(1, order + 1):
        v_total = v_total.add(census.series_V(k, order))
        u_total = u_total.add(census.series_U(k, order))
        w_total = w_total.add(census.series_W(1, k, order))
    report.check("identity:V-column-sums", q_minus_1.coeffs, v_total.coeffs)
    report.check("identity:U-column-sums", p_minus_1.coeffs, u_total.coeffs)
    report.check("identity:W-row-sums", v1.coeffs, w_total.coeffs)

    diag = [census.series_V(n, order).coeff(n) for n in range(1, order + 1)]
    report.check("identity:V-diagonal-ones", [1] * order, diag)
    sub = [census.series_V(n - 1, order).coeff(n) for n in range(2, order + 1)]
    report.check("identity:V-first-subdiagonal", [n - 1 for n in range(2, order + 1)], sub)
    sub2 = [census.series_V(n - 2, order).coeff(n) for n in range(3, order + 1)]
    report.check("identity:V-second-subdiagonal",
                 [(n + 1) * (n - 2) // 2 for n in range(3, order + 1)], sub2)
    not_positive = [(k, n) for n in range(1, order + 1) for k in range(1, n + 1)
                    if census.series_V(k, order).coeff(n) <= 0]
    report.check("identity:V-positivity", [], not_positive)
    not_zero = [(k, n) for n in range(0, order + 1) for k in range(n + 1, order + 1)
                if census.series_V(k, order).coeff(n) != 0]
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

    for k, l in ((2, 2), (3, 2), (2, 4), (5, 3)):
        report.check(f"identity:W-shift-{k}-{l}",
                     list(census.series_W(1, k + l - 1, order).coeffs),
                     list(census.series_W(k, l, order).coeffs))
    return report


def oracle_checks(report=None, max_size=ORACLE_MAX_SIZE, workers=1):
    """Exhaustive counts against the census pipeline, all eight targets."""
    report = report if report is not None else VerifyReport()
    names = list(TARGETS)
    for size in range(1, max_size + 1):
        sv = oracle.survey(size, bound=size, workers=workers)
        expected = {name: census.count_solutions(name, size) for name in names}
        report.check(f"oracle:counts:size-{size}", expected, dict(sv.counts))
        n = size - 2
        if n >= 1:
            exp_last = {k: v for k in range(1, n + 1)
                        if (v := census.series_V(k, n).coeff(n))}
            report.check(f"oracle:Id-by-last:size-{size}", exp_last, sv.by_last["Id"])
            exp_fl = {}
            for first in range(1, n + 1):
                for last in range(1, n + 2 - first):
                    value = census.series_W(first, last, n).coeff(n)
                    if value:
                        exp_fl[(first, last)] = value
            report.check(f"oracle:Id-first-last:size-{size}",
                         exp_fl, sv.by_first_last["Id"])
            if n >= 3:
                exp_s = {d: v for d in range(1, n - 1)
                         if (v := census.count_S_by_last(n, d))}
                report.check(f"oracle:S-by-last:size-{size}", exp_s, sv.by_last["S"])
            exp_t = {d: v for d in range(1, n + 2)
                     if (v := census.count_T_by_last(n, d))}
            report.check(f"oracle:T-by-last:size-{size}", exp_t, sv.by_last["T"])
        # identity-target components stay below size - 1, so the box never saturates
        report.check(f"oracle:Id-bound-untouched:size-{size}", 0,
                     sv.bound_touches["Id"])

    for size in range(4, min(7, max_size) + 1):
        # the named targets and one outside them share one direct walk of
        # the full box; a lowered bound and a first component pinned above
        # the bound are solved directly on their own
        full_box = names + ["[[2,3],[1,2]]"]
        sv = oracle.survey(size, targets=full_box, method="direct")
        direct = {label: (sv.counts[key], sv.bound_touches[key],
                          sv.by_last[key], sv.by_first_last[key])
                  for label, key in zip(full_box, sv.counts)}
        cases = {name: {"target": name} for name in names}
        cases["Id:bound-2"] = {"target": "Id", "bound": 2}
        cases[f"TSTS:first-{size - 1}:bound-2"] = {
            "target": "TSTS", "bound": 2, "constraints": {1: size - 1}}
        cases["[[2,3],[1,2]]"] = {"target": "[[2,3],[1,2]]"}
        expected = {}
        actual = {}
        for label, spec in cases.items():
            if label not in direct:
                single = oracle.solve(oracle.OracleQuery(size=size, method="direct", **spec))
                direct[label] = (single.count, single.bound_touches,
                                 single.by_last, single.by_first_last)
            mitm = oracle.solve(oracle.OracleQuery(size=size, method="mitm", **spec))
            expected[label] = direct[label]
            actual[label] = (mitm.count, mitm.bound_touches,
                             mitm.by_last, mitm.by_first_last)
        report.check(f"oracle:direct-vs-mitm:size-{size}", expected, actual)

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


def run_verify(max_size=ORACLE_MAX_SIZE, order=IDENTITY_ORDER, workers=1,
               golden_order=GOLDEN_ORDER, with_oracle=True):
    """Run every check group in order; returns the combined report."""
    report = VerifyReport()
    golden_checks(report, order=golden_order)
    identity_checks(report, order=order)
    if with_oracle and max_size >= 1:
        oracle_checks(report, max_size=max_size, workers=workers)
    return report
