"""The counting pipeline: generating series for the solution families.

Families, all counting solution tuples of size n + 2 for their target
(the README's family table gives each one's first index, k and l):

    Q        identity target (whole count);
    V(k)     identity target, last component equal to k;
    U(k)     the powers (1 - 1/P)^k; summing U(1..n) at X^n rebuilds P_n,
             exactly as summing V(1..n) rebuilds Q_n;
    W(k,l)   identity target, first component k and last component l;
    S, T     targets S and T;
    u,v,w,x,y  targets T^-1, TS, ST, TSTS, STST;
    D, E, F  the 3-divisible dissections of an (n+2)-gon and two marked
             counts read off them.

Every row of one truncation order comes from one cached build: P, Q and D
solved from their functional equations when first needed, rows grown by
U1 = 1 - 1/P, and the named-target rows as products of the same build's
P, Q, U1, V1 and W11.  Each row is exact up to the build's order, so a
table to index n, a series of order n, and a count or last-component
histogram at size n + 2 all read the one build of order n.  One reader,
`series_row(family, order, k, l)`, reads any family's row as a series,
and `census_table` reads the same row as a table; both refuse a family
or row indices through the one `check_row_indices`.  An order above a
fixed limit is refused with OrderLimitError.  No closed form enters the
census: `formulas` is the route `verify` checks it by.
"""

import threading
from dataclasses import dataclass
from functools import lru_cache

from .series import TruncSeries

# Each family's first table index and the row indices it takes: "", "k" or "kl".
_FAMILY_TABLE = {
    "P": (0, ""), "Q": (0, ""), "Ptilde": (0, ""), "D": (1, ""), "E": (3, ""), "F": (3, ""),
    "U": (0, "k"), "V": (0, "k"), "W": (0, "kl"), "S": (0, ""), "T": (0, ""),
    "u": (1, ""), "v": (1, ""), "w": (1, ""), "x": (1, ""), "y": (1, ""),
}
FAMILIES = tuple(_FAMILY_TABLE)

# The largest order a census read builds or a table prints.  A build of
# order 1000 takes about 2 s, and one of twice the order more than ten
# times as long, so a larger order is refused rather than left to run.
_MAX_ORDER = 1000


class OrderLimitError(RuntimeError):
    """A census order above _MAX_ORDER, refused before anything is built."""


def _solve(order, top):
    """Coefficients 0..order of F, F^2, .., F^top, each from lower ones only,
    for F = 1 + X F^2 + X^3 (F^top - F^(top-1)): top = 3 gives P, and
    top = 4 the dissection series D (see `_Build`).
    """
    powers = [[] for _ in range(top)]
    f = powers[0]
    for n in range(order + 1):
        fn = powers[1][n - 1] if n else 1
        if n >= 3:
            fn += powers[-1][n - 3] - powers[-2][n - 3]
        f.append(fn)
        for lower, power in zip(powers, powers[1:]):
            power.append(sum(f[i] * lower[n - i] for i in range(n + 1)))
    return powers


class _Build:
    """Every series of one truncation order, each made once, under a lock
    that threads share, the first time `row` reads it.

    P, Q, 1/P, U1 = 1 - 1/P, V1 and W11, the P side, are solved together.
    Then U(j) = U1^j, V(j) = V1 U1^(j-1) and W(1, j) = W11 U1^(j-1) are made
    by one product after a built row j - 1, else as V1 U(j-1), W11 U(j-1)
    or U(j//2) U(j - j//2).  U1, V1 and W11 have no constant term, so row j
    starts at X^j and a row past the order is zero.

    The named-target rows S, T, u..y are products of P, Q, U1, V1 and W11,
    made together the first time one of them is read.  Since 1 - U1 = 1/P,
    the sums over the last component collapse: S and y, one size shorter,
    are sum_d (d-1) V(d) = (Q-1)(P-1) and sum_d (d-2) V(d) = V1 U1^2 P^2,
    and w's sum_k W(1,k) = W11 P = V1.  x(n) is V1 at n + 1, so
    x = (Q-1)/(X P); dividing Q's functional equation
    Q - 1 = X P^2 + X^3 P^3 (Q-1) by X P gives x = P + X^2 P^2 (Q-1).

    D, E and F are solved together, without the P side.  The root side of
    a dissection lies in a cell of 3m vertices whose other sides each
    carry a rooted dissection, so A = X D satisfies
    A = X + A^2/(1 - A^3): D = 1 + X D^2 + X^3 (D^4 - D^3), P's equation
    one power higher.  Then E_n = (n+2) [X^(n-2)] (D-1)^2 and
    F_n = 2 (n+2) D_(n-2).  So every row is exact up to the order: index
    n is read at order n.  An entry below its family's first index is not
    a count.
    """

    def __init__(self, order):
        self.order, self.u1 = order, None  # U1 is made with the rest of the P side
        self._fixed, self._rows = {}, {"U": {}, "V": {}, "W": {}}
        self._grow = threading.Lock()

    def row(self, family, k=None, l=None):
        """P, Q, Ptilde, D, E, F, U(k), V(k), W(k, l) or a named-target row S, T, u..y.

        W(k, l) is W(1, k + l - 1), so row("W", j) is W(1, j).
        """
        j = None if k is None else k + (l or 1) - 1
        if j is not None and j > self.order:
            return TruncSeries.zero(self.order)
        row = self._fixed.get(family) if j is None else self._rows[family].get(j)
        if row is None:
            with self._grow:
                dissection = family in ("D", "E", "F")
                if self.u1 is None and not dissection:
                    self._p_side()
                if j is not None:
                    return self._power(family, j)
                if family not in self._fixed:
                    self._fixed.update(self._dissections() if dissection else self._targets())
                row = self._fixed[family]
        return row

    def _p_side(self):
        """P, Q, Ptilde and the rows U1, V1 and W11; the caller holds the lock."""
        p, p2, p3 = _solve(self.order, 3)
        q = [1]  # Q - 1 = X P^2 + X^3 P^3 (Q - 1); its sum skips Q - 1's zero X^0 term
        for n in range(1, self.order + 1):
            q.append(p2[n - 1] + sum(p3[i] * q[n - 3 - i] for i in range(n - 3)))
        p, q = TruncSeries(p), TruncSeries(q)
        one, p_inverse = TruncSeries.one(self.order), p.inverse()
        self.u1 = one.sub(p_inverse)
        v1 = q.sub(one).mul(p_inverse)
        self._fixed.update(P=p, Q=q, Ptilde=p_inverse)
        self._rows = {"U": {1: self.u1}, "V": {1: v1}, "W": {1: p_inverse.mul(v1)}}

    def _power(self, family, j):
        """Row j of U, V or W, made from built rows; the caller holds the lock."""
        rows = self._rows[family]
        if j not in rows:
            if j - 1 in rows:
                rows[j] = rows[j - 1].mul(self.u1)
            elif family != "U":
                rows[j] = rows[1].mul(self._power("U", j - 1))
            else:
                rows[j] = self._power("U", j // 2).mul(self._power("U", j - j // 2))
        return rows[j]

    def _targets(self):
        one = TruncSeries.one(self.order)
        p, q, u1 = self._fixed["P"], self._fixed["Q"], self.u1
        q1, v1, w11 = q - one, self._rows["V"][1], self._rows["W"][1]
        s = (q1 * (p - one)).shift(1)
        return {"S": s, "T": s.shift(1) + q1, "u": q - v1, "v": q1.shift(1) + s,
                "w": q - v1 - v1 + w11, "x": p + (p * p * q1).shift(2),
                "y": (v1 * u1 * u1 * p * p).shift(1)}

    def _dissections(self):
        d, d2 = _solve(self.order, 4)[:2]
        # entry n of E and F is n + 2 times entry n - 2 of (D - 1)^2 = D^2 - 2D + 1 and of 2D
        e = [(n + 2) * (d2[n - 2] - 2 * d[n - 2] + (n == 2)) if n > 1 else 0
             for n in range(len(d))]
        f = [2 * (n + 2) * d[n - 2] if n > 1 else 0 for n in range(len(d))]
        return {"D": TruncSeries(d), "E": TruncSeries(e), "F": TruncSeries(f)}


@lru_cache(maxsize=None)
def _build(order):
    if order < 0:
        raise ValueError(f"census order {order} is negative")
    if order > _MAX_ORDER:
        raise OrderLimitError(f"census order {order} is above the limit {_MAX_ORDER}")
    return _Build(order)


def series_V(k, order):
    """Series of last-component-k counts: (Q - 1) * (1/P) * (1 - 1/P)^(k-1)."""
    return series_row("V", order, k)


def series_row(family, order, k=None, l=None):
    """The row of any family, with the row indices it takes, as a series of `order`."""
    check_row_indices(family, k, l)
    return _build(order).row(family, k, l)


def by_last(target_name, size):
    """Nonzero census counts of the Id, S or T solutions of one size, by last component."""
    if target_name not in ("Id", "S", "T"):
        raise ValueError(f"no last-component census for target {target_name!r}")
    if size < 3:
        raise ValueError("size must be at least 3")
    n = size - 2
    build = _build(n)
    if target_name == "Id":
        counts = {k: build.row("V", k).coeff(n) for k in range(1, n + 1)}
    elif target_name == "S":
        # an S solution ending in d is an Id solution one shorter ending in k > d
        counts = {d: sum(build.row("V", k).coeff(n - 1) for k in range(d + 1, n))
                  for d in range(1, n - 1)}
    else:
        # a T solution ending in 1 is an S solution one shorter with 1
        # appended; one ending in d >= 2 is an Id solution ending in d - 1
        counts = {1: build.row("S").coeff(n - 1)}
        counts.update((d, build.row("V", d - 1).coeff(n)) for d in range(2, n + 2))
    return {d: count for d, count in counts.items() if count}


# Each named target's census row, then its counts at sizes 1 and 2,
# solved by hand from the fixed entries of the products:
# m_1(a) = [[a,-1],[1,0]] and m_2(a,b) = [[ab-1,-b],[a,-1]].  The -1/1
# entries force the sign and every component, leaving one solution for
# TS at size 1 (m_1(1) is the TS matrix itself), one for TSTS at size 2
# ((1,1)), and nothing anywhere else.
_TARGET_ROWS = {
    "Id": ("Q", 0, 0), "S": ("S", 0, 0), "T": ("T", 0, 0), "T^-1": ("u", 0, 0),
    "TS": ("v", 1, 0), "ST": ("w", 0, 0), "TSTS": ("x", 0, 1), "STST": ("y", 0, 0),
}


def count_solutions(target_name, size):
    """Census count of solutions of the given size for a named target."""
    if target_name not in _TARGET_ROWS:
        raise ValueError(f"unknown target name {target_name!r}")
    if size < 1:
        raise ValueError("size must be at least 1")
    row, *small = _TARGET_ROWS[target_name]
    if size <= 2:
        return small[size - 1]
    n = size - 2
    return _build(n).row(row).coeff(n)


@dataclass
class CountTable:
    """One family row: index n -> value, read off the series build."""

    family: str
    entries: dict


def check_row_indices(family, k, l):
    """Require a known family and exactly the row indices it takes, each at least 1."""
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}")
    given = {"k": k, "l": l}
    takes = _FAMILY_TABLE[family][1]
    # no family takes l without k, so "needs" still comes before "does not take"
    for name, value in given.items():
        if name in takes and value is None:
            raise ValueError(f"family {family} needs {name}")
        if name not in takes and value is not None:
            raise ValueError(f"family {family} does not take {name}")
    for name in takes:
        if given[name] < 1:
            raise ValueError(f"{name} must be at least 1")


def census_table(family, n_max, k=None, l=None):
    """Build the CountTable of one family for all defined indices <= n_max."""
    check_row_indices(family, k, l)
    start = _FAMILY_TABLE[family][0]
    if n_max < start:
        raise ValueError(f"family {family} starts at n = {start}")
    row = _build(n_max).row(family, k, l).coeffs
    # the row's name in its table: S, V(2) or W(2,3)
    label = family if k is None else f"{family}({k})" if l is None else f"{family}({k},{l})"
    return CountTable(label, {n: row[n] for n in range(start, n_max + 1)})
