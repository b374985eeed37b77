"""Closed-form coefficient and count formulas, evaluated exactly.

Three closed forms are binomial sums: Ptilde's triple sum, one sum for
every power P^e (e >= 1), and D.  Each sums only the terms that can be
nonzero.  The factor C(m - 2i - 1, i) of every term (i = k and m = n in
P^e and D, i = l and m = r in Ptilde) is 0 once 3i > m - 1 >= 0, so i
stops at (m - 1) // 3, or at 0 for m = 0, where the factor is
C(-1, 0) = 1 and is written as 1; and Ptilde's C(j, k) is 0 once k > j.
Every other binomial has 0 <= k <= top and is `math.comb`'s.  Each hands
its (numerator, denominator) terms to one exact-sum kernel, which adds
them as exact rationals and requires an integer total; anything else
raises NonIntegralSumError, since a fractional total can only mean a
transcription or convention bug.  Per-term integrality is not assumed.

Q - 1, V1 and W11 are X P^e / (1 - X^3 P^3) for e = 2, 1 and 0, so each
is a ladder of P-power coefficients, term for term:
[X^n] X P^e / (1 - X^3 P^3) = sum over j >= 0 of [X^(n-1-3j)] P^(e+3j).

P^e, Ptilde and D, the forms that sum terms, are evaluated once per
process for each argument and then read from a cache, which the ladders,
E, F and `verify`'s golden and identity checks read again.  Code that
patches `_exact_sum` must first `cache_clear()` those three.  The census
reads none of these forms: they are the independent route `verify`
checks the census rows of P, Q, Ptilde, V1, W11, D, E and F by.

Series letters used across the package (defined by what they count, all
for tuples of size n + 2):

    Q_n  solutions of the identity-target equation ("quiddities");
    P_n  the subfamily used as the algebraic workhorse: Q's generating
         series Q(X) and P(X) are linked by Q - 1 = V_1 * P; its closed
         form is the e = 1 case of coeff_powP;
    Ptilde_n  coefficients of the reciprocal series 1 / P(X);
    V1_n  identity-target solutions whose last component is 1;
    W11_n identity-target solutions whose first and last components are 1;
    D_n  dissections of an (n+2)-gon into sub-polygons with vertex counts
         divisible by 3;
    E_n, F_n  the two marked-dissection counts derived from D_n.
"""

from fractions import Fraction
from functools import cache, wraps
from math import comb


class NonIntegralSumError(ArithmeticError):
    """A formula that must produce an integer summed to a fraction."""


def _exact_sum(label, terms):
    """Exact sum of num/den over the (num, den) int pairs; must be an integer."""
    total = Fraction(0)
    for num, den in terms:
        total += Fraction(num, den)
    if total.denominator != 1:
        raise NonIntegralSumError(f"{label} summed to the non-integer {total}")
    return int(total)


def _memo(fn):
    """`functools.cache` behind a plain function, which a tracer can still wrap."""
    cached = cache(fn)
    memo = wraps(fn)(lambda *args, **kwargs: cached(*args, **kwargs))
    memo.cache_clear = cached.cache_clear
    return memo


def _ladder(e, n):
    """[X^n] X P^e / (1 - X^3 P^3) through the memoized coeff_powP; 0 for n < 1."""
    return sum(coeff_powP(e + 3 * j, n - 1 - 3 * j) for j in range((n + 2) // 3))


def coeff_Q(n):
    """Number of identity-target solutions of size n + 2 (n >= 1); Q_0 = 1 is the formal seed."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return 1 if n == 0 else _ladder(2, n)


@_memo
def coeff_Ptilde(n):
    """n-th coefficient of 1/P, by the direct triple sum over j < n, k <= min(j, (n-j-1)//2)
    and l <= max(r - 1, 0)//3 with r = n - j - 2k - 1, where no binomial is 0."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return 1
    return -_exact_sum(f"Ptilde_{n}", (
        ((-1 if (j - k) % 2 else 1) * comb(j, k) * (2 * j + 2)
         * (comb(r - 2 * l - 1, l) if r else 1) * comb(2 * n - 4 * k - 4 * l - 1, r - 3 * l),
         n + j - 2 * k - l + 1)
        for j in range(n) for k in range(min(j, (n - j - 1) // 2) + 1)
        for r in (n - j - 2 * k - 1,) for l in range(max(r - 1, 0) // 3 + 1)))


def coeff_V1(n):
    """Identity-target solutions of size n + 2 with last component 1 (n >= 1)."""
    if n < 1:
        raise ValueError("index must be at least 1")
    return _ladder(1, n)


def coeff_W11(n):
    """Identity-target solutions of size n + 2 with first and last component 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return (n == 1) + _ladder(3, n - 3)


@_memo
def coeff_powP(e, n):
    """n-th coefficient of P(X)**e, by the closed form (no series product); e = 1 is P."""
    if e < 1:
        raise ValueError("exponent must be at least 1")
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _exact_sum(f"[X^{n}]P^{e}", (
        (e * (comb(n - 2 * k - 1, k) if n else 1) * comb(2 * n - 4 * k + e - 1, n - 3 * k),
         n - k + e)
        for k in range(max(n - 1, 0) // 3 + 1)))


@_memo
def coeff_D(n):
    """Number of 3-divisible dissections of a convex (n+2)-gon."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _exact_sum(f"D_{n}", (
        ((comb(n - 2 * k - 1, k) if n else 1) * comb(2 * n - 3 * k, n - 3 * k), n + 1)
        for k in range(max(n - 1, 0) // 3 + 1)))


def coeff_E(n):
    """Notched-dissection count: (n+2) * sum of D_{k-2} * D_{n-k}, k = 3..n-1."""
    if n < 3:
        raise ValueError("index must be at least 3")
    return (n + 2) * sum(coeff_D(k - 2) * coeff_D(n - k) for k in range(3, n))


def coeff_F(n):
    """Capped-dissection count: 2 * (n+2) * D_{n-2}."""
    if n < 3:
        raise ValueError("index must be at least 3")
    return 2 * (n + 2) * coeff_D(n - 2)
