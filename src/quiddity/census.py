"""The counting pipeline: generating series for the solution families and
the count formulas derived from them.

Families, all counting solution tuples of size n + 2 for their target:

    Q        identity target (whole count);
    V(k)     identity target, last component equal to k;
    U(k)     the powers (1 - 1/P)^k; summing U(1..n) at X^n rebuilds P_n,
             exactly as summing V(1..n) rebuilds Q_n;
    W(k,l)   identity target, first component k and last component l;
    S, T     targets S and T;
    u,v,w,x,y  targets T^-1, TS, ST, TSTS, STST.

P, Q, Ptilde, D, E, F also exist as closed-form rows (see `formulas`);
the series built here provide the independent second route.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from functools import lru_cache

from . import formulas
from .series import TruncSeries


@lru_cache(maxsize=None)
def _series_P(order):
    return TruncSeries([formulas.coeff_P(n) for n in range(order + 1)])


@lru_cache(maxsize=None)
def _series_Q(order):
    return TruncSeries([formulas.coeff_Q(n) for n in range(order + 1)])


@lru_cache(maxsize=None)
def _series_P_inverse(order):
    return _series_P(order).inverse()


@lru_cache(maxsize=None)
def _series_U1(order):
    return TruncSeries.one(order).sub(_series_P_inverse(order))


@lru_cache(maxsize=None)
def _series_V1(order):
    q_minus_1 = _series_Q(order).sub(TruncSeries.one(order))
    return q_minus_1.mul(_series_P_inverse(order))


@lru_cache(maxsize=None)
def _series_W11(order):
    q_minus_1 = _series_Q(order).sub(TruncSeries.one(order))
    p_inv = _series_P_inverse(order)
    return p_inv.mul(q_minus_1).mul(p_inv)


@lru_cache(maxsize=None)
def _series_U(k, order):
    return _series_U1(order).pow(k)


@lru_cache(maxsize=None)
def _series_V(k, order):
    return _series_V1(order).mul(_series_U1(order).pow(k - 1))


@lru_cache(maxsize=None)
def _series_W(k, l, order):
    return _series_W11(order).mul(_series_U1(order).pow(k + l - 2))


def clear_caches():
    """Drop every memoized series (needed after monkeypatching formulas)."""
    for fn in (_series_P, _series_Q, _series_P_inverse, _series_U1,
               _series_V1, _series_W11, _series_U, _series_V, _series_W):
        fn.cache_clear()


def series_P(order):
    """P truncated at `order`, built from the closed form."""
    return _series_P(order)


def series_Q(order):
    """Q truncated at `order`, built from the closed form."""
    return _series_Q(order)


def series_P_inverse(order):
    """1/P truncated at `order`; the series route to the Ptilde row."""
    return _series_P_inverse(order)


def series_U(k, order):
    """(1 - 1/P)^k truncated at `order`."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _series_U(k, order)


def series_V(k, order):
    """Series of last-component-k counts: (Q - 1) * (1/P) * (1 - 1/P)^(k-1)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _series_V(k, order)


def series_W11(order):
    """Series of first-and-last-component-1 counts: (1/P) * (Q - 1) * (1/P)."""
    return _series_W11(order)


def series_W(k, l, order):
    """Series of (first, last) = (k, l) counts: W11 * (1 - 1/P)^(k+l-2)."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be at least 1")
    return _series_W(k, l, order)


def _v_coeff(k, n):
    if n < 0:
        return 0
    if k > n:
        return 0
    return _series_V(k, max(n, 1)).coeff(n)


def count_S(n):
    """Solutions of size n + 2 for target S."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n <= 2:
        return 0
    return sum((d - 1) * _v_coeff(d, n - 1) for d in range(2, n))


def count_T(n):
    """Solutions of size n + 2 for target T."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return 0
    return count_S(n - 1) + formulas.coeff_Q(n)


def count_family(tag, n):
    """Solutions of size n + 2 for targets T^-1, TS, ST, TSTS, STST (tags u,v,w,x,y)."""
    if n < 1:
        raise ValueError("index must be at least 1")
    if tag == "u":
        return formulas.coeff_Q(n) - _v_coeff(1, n)
    if tag == "v":
        if n == 1:
            return 0
        return formulas.coeff_Q(n - 1) + count_S(n)
    if tag == "w":
        w_sum = sum(_series_W(1, k, n).coeff(n) for k in range(1, n + 1))
        return formulas.coeff_Q(n) - 2 * w_sum + _series_W11(n).coeff(n)
    if tag == "x":
        return _v_coeff(1, n + 1)
    if tag == "y":
        return sum((d - 2) * _v_coeff(d, n - 1) for d in range(3, n))
    raise ValueError(f"unknown family tag {tag!r}")


def count_S_by_last(n, d):
    """Solutions of size n + 2 for target S whose last component is d."""
    if n < 3:
        raise ValueError("index must be at least 3")
    if d < 1 or d > n - 2:
        return 0
    return sum(_v_coeff(k, n - 1) for k in range(d + 1, n))


def count_T_by_last(n, d):
    """Solutions of size n + 2 for target T whose last component is d."""
    if n < 1:
        raise ValueError("index must be at least 1")
    if d < 1 or d > n + 1:
        return 0
    if d == 1:
        return count_S(n - 1) if n >= 1 else 0
    return _v_coeff(d - 1, n)


# Sizes 1 and 2 solved by hand from the fixed entries of the products:
# m_1(a) = [[a,-1],[1,0]] and m_2(a,b) = [[ab-1,-b],[a,-1]].  The -1/1
# entries force the sign and every component, leaving one solution for
# TS at size 1 (m_1(1) is the TS matrix itself), one for TSTS at size 2
# ((1,1)), and nothing anywhere else.
_SMALL_SIZE_COUNTS = {
    "Id": (0, 0), "S": (0, 0), "T": (0, 0), "T^-1": (0, 0),
    "TS": (1, 0), "ST": (0, 0), "TSTS": (0, 1), "STST": (0, 0),
}

_FAMILY_OF_TARGET = {
    "T^-1": "u", "TS": "v", "ST": "w", "TSTS": "x", "STST": "y",
}


def count_solutions(target_name, size):
    """Census count of solutions of the given size for a named target."""
    if target_name not in _SMALL_SIZE_COUNTS:
        raise ValueError(f"unknown target name {target_name!r}")
    if size < 1:
        raise ValueError("size must be at least 1")
    if size <= 2:
        return _SMALL_SIZE_COUNTS[target_name][size - 1]
    n = size - 2
    if target_name == "Id":
        return formulas.coeff_Q(n)
    if target_name == "S":
        return count_S(n)
    if target_name == "T":
        return count_T(n)
    return count_family(_FAMILY_OF_TARGET[target_name], n)


@dataclass
class CountTable:
    """One family row: index n -> value, with the route that produced it."""

    family: str
    entries: dict
    provenance: str
    notes: dict = field(default_factory=dict)

    def to_csv(self):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["family", "n", "value"])
        for n in sorted(self.entries):
            writer.writerow([self.family, n, self.entries[n]])
        return out.getvalue()

    def to_json(self):
        payload = {
            "family": self.family,
            "provenance": self.provenance,
            "values": {str(n): str(self.entries[n]) for n in sorted(self.entries)},
        }
        return json.dumps(payload, indent=2)


_FAMILY_START = {
    "P": 0, "Q": 0, "Ptilde": 0, "D": 1, "E": 3, "F": 3,
    "U": 0, "V": 0, "W": 0,
    "S": 0, "T": 0, "u": 1, "v": 1, "w": 1, "x": 1, "y": 1,
}

_FORMULA_FAMILIES = {
    "P": formulas.coeff_P,
    "Q": formulas.coeff_Q,
    "Ptilde": formulas.coeff_Ptilde,
    "D": formulas.coeff_D,
    "E": formulas.coeff_E,
    "F": formulas.coeff_F,
}

FAMILIES = tuple(_FAMILY_START)


def check_row_indices(family, k, l):
    """Require k exactly for U, V, W and l exactly for W, each at least 1."""
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


def census_table(family, n_max, k=None, l=None, order=None):
    """Build the CountTable of one family for all defined indices <= n_max."""
    if family not in _FAMILY_START:
        raise ValueError(f"unknown family {family!r}")
    check_row_indices(family, k, l)
    start = _FAMILY_START[family]
    if n_max < start:
        raise ValueError(f"family {family} starts at n = {start}")
    if order is None:
        order = n_max + 1
    if order < n_max + 1:
        raise ValueError("truncation order must be at least n_max + 1")

    if family in _FORMULA_FAMILIES:
        fn = _FORMULA_FAMILIES[family]
        entries = {n: fn(n) for n in range(start, n_max + 1)}
        return CountTable(family=family, entries=entries, provenance="formula")

    if family == "U":
        ts = series_U(k, order)
        return CountTable(f"U({k})", {n: ts.coeff(n) for n in range(n_max + 1)}, "series")
    if family == "V":
        ts = series_V(k, order)
        return CountTable(f"V({k})", {n: ts.coeff(n) for n in range(n_max + 1)}, "series")
    if family == "W":
        ts = series_W(k, l, order)
        return CountTable(f"W({k},{l})", {n: ts.coeff(n) for n in range(n_max + 1)}, "series")
    if family == "S":
        entries = {n: count_S(n) for n in range(n_max + 1)}
    elif family == "T":
        entries = {n: count_T(n) for n in range(n_max + 1)}
    else:
        entries = {n: count_family(family, n) for n in range(1, n_max + 1)}
    return CountTable(family=family, entries=entries, provenance="series")
