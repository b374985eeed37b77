"""Truncated formal power series with exact integer coefficients.

A TruncSeries stores coefficients c_0..c_N for a fixed truncation order
N.  Binary operations insist that both operands share the same N: the
pipeline never mixes orders, so an order mismatch is a bug and raises
immediately instead of silently truncating.

Multiplication is the naive O(N^2) Cauchy product; it is the reference
implementation everything else must match bit for bit.
"""

from dataclasses import dataclass


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class NotInvertibleError(ValueError):
    """Inversion needs constant term 1 or -1 to stay in integer series."""


def _check_int(value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"coefficients must be plain integers, got {value!r}")
    return value


@dataclass(frozen=True, repr=False)
class TruncSeries:
    """Frozen truncated series, coefficients indexed 0..order; any assignment
    raises AttributeError, and equality and hash go by the coefficients."""

    # listed by hand, as for matrices.Mat2
    __slots__ = ("coeffs",)
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(_check_int(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __reduce__(self):  # as for matrices.Mat2
        return self.__class__, (self.coeffs,)

    @classmethod
    def one(cls, order):
        return cls((1,) + (0,) * order)

    @classmethod
    def zero(cls, order):
        return cls((0,) * (order + 1))

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, j):
        if j < 0 or j > self.order:
            raise IndexError(f"coefficient index {j} outside 0..{self.order}")
        return self.coeffs[j]

    def _check_order(self, other):
        if not isinstance(other, TruncSeries):
            raise TypeError(f"expected TruncSeries, got {other!r}")
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )

    def add(self, other):
        self._check_order(other)
        return TruncSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def sub(self, other):
        self._check_order(other)
        return TruncSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def mul(self, other):
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        out = [0] * n
        for i in range(n):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(n - i):
                out[i + j] += ai * b[j]
        return TruncSeries(out)

    def pow(self, e):
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = TruncSeries.one(self.order)
        for _ in range(e):
            result = result.mul(self)
        return result

    def inverse(self):
        """Multiplicative inverse, via b_n = -a_0^{-1} * sum a_k b_{n-k}."""
        a = self.coeffs
        a0 = a[0]
        if a0 not in (1, -1):
            raise NotInvertibleError(f"constant term must be 1 or -1, got {a0}")
        # a0 is its own inverse
        b = [a0]
        for n in range(1, len(a)):
            acc = 0
            for k in range(1, n + 1):
                ak = a[k]
                if ak:
                    acc += ak * b[n - k]
            b.append(-a0 * acc)
        return TruncSeries(b)

    def shift(self, j):
        """Multiply by X^j, dropping coefficients past the order."""
        if j < 0:
            raise IndexError(f"shift amount {j} is negative")
        n = len(self.coeffs)
        return TruncSeries(((0,) * min(j, n) + self.coeffs)[:n])

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __mul__(self, other):
        return self.mul(other)

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)!r})"
