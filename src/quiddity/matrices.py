"""Exact 2x2 integer matrix algebra over the modular group.

The basic building block is elem(a) = [[a, -1], [1, 0]].  A tuple of
positive integers (a_1, ..., a_n) is multiplied up as

    m_n(a_1, ..., a_n) = elem(a_n) * ... * elem(a_1),

i.e. the last tuple entry sits leftmost in the product.  Solution sets
of m_n(...) = +/-M are always understood up to that global sign, which
is what equal_up_to_sign implements.  Targets M can be named generators,
generator words such as "TST^-1", or explicit matrices "[[a,b],[c,d]]".
"""

import json
import re
from dataclasses import dataclass


class WordParseError(ValueError):
    """Raised when a generator word or target expression cannot be read."""


@dataclass(frozen=True, repr=False)
class Mat2:
    """Frozen 2x2 matrix of arbitrary-precision integers; any assignment
    raises AttributeError, and equality and hash go by the entries."""

    # not slots=True: assigning a non-field would raise TypeError (3.10-3.13)
    __slots__ = ("a", "b", "c", "d")
    a: int
    b: int
    c: int
    d: int

    def det(self):
        return self.a * self.d - self.b * self.c

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def __reduce__(self):  # pickle and copy rebuild it, not assign its frozen slots
        return self.__class__, self.entries()

    def inverse(self):
        if self.det() != 1:
            raise ValueError(f"matrix {self} has determinant {self.det()}, expected 1")
        return Mat2(self.d, -self.b, -self.c, self.a)


IDENTITY = Mat2(1, 0, 0, 1)
S = Mat2(0, -1, 1, 0)
T = Mat2(1, 1, 0, 1)

# The eight named targets the counting families are attached to.
TARGETS = {
    "Id": IDENTITY,
    "S": S,
    "T": T,
    "T^-1": Mat2(1, -1, 0, 1),
    "TS": T * S,
    "ST": S * T,
    "TSTS": T * S * T * S,
    "STST": S * T * S * T,
}


def elem(a):
    """The elementary factor [[a, -1], [1, 0]].

    a = 0 is allowed (it equals S) because reduction identities use it;
    solution tuples themselves are always made of positive entries.
    """
    if a < 0:
        raise ValueError(f"component must be nonnegative, got {a}")
    return Mat2(a, -1, 1, 0)


def m_n(components):
    """Product elem(a_n) * ... * elem(a_1) for components (a_1, ..., a_n)."""
    components = tuple(components)
    if not components:
        raise ValueError("m_n needs at least one component")
    p, q, r, s = 1, 0, 0, 1
    for a in components:
        if a < 0:
            raise ValueError(f"component must be nonnegative, got {a}")
        # left-multiply the running product by elem(a)
        p, q, r, s = a * p - r, a * q - s, p, q
    return Mat2(p, q, r, s)


def equal_up_to_sign(lhs, rhs):
    """True iff lhs == rhs or lhs == -rhs."""
    la, lb, lc, ld = lhs.entries()
    ra, rb, rc, rd = rhs.entries()
    if la == ra and lb == rb and lc == rc and ld == rd:
        return True
    return la == -ra and lb == -rb and lc == -rc and ld == -rd


_TOKEN = re.compile(r"\s*([ST])(?:\^(-?\d+))?\s*")
_S_INVERSE = Mat2(0, 1, -1, 0)  # equals S*S*S


def word_to_matrix(text):
    """Multiply out a generator word such as "TS", "T^3S" or "ST^-1S^-1".

    Letters are S and T, multiplied left to right as written.  T takes
    any integer exponent; S only +/-1 (S^-1 is exactly S*S*S, since S
    has order 4).
    """
    if not text:
        raise WordParseError("empty generator word")
    result = IDENTITY
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise WordParseError(f"cannot read generator word {text!r} at position {pos}")
        letter, raw_exponent = match.group(1), match.group(2)
        exponent = 1 if raw_exponent is None else int(raw_exponent)
        if letter == "T":
            factor = Mat2(1, exponent, 0, 1)
        elif exponent == 1:
            factor = S
        elif exponent == -1:
            factor = _S_INVERSE
        else:
            raise WordParseError(f"exponent of S must be 1 or -1, got {exponent}")
        result = result * factor
        pos = match.end()
    return result


def parse_target(text):
    """Read a target matrix: a named generator, a word, or "[[a,b],[c,d]]"."""
    text = text.strip()
    if text in TARGETS:
        return TARGETS[text]
    if text.startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WordParseError(f"cannot read matrix literal {text!r}: {exc}") from exc
        if (
            not isinstance(rows, list) or len(rows) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in rows)
            or any(not isinstance(x, int) or isinstance(x, bool) for row in rows for x in row)
        ):
            raise WordParseError(f"matrix literal must be [[a,b],[c,d]] with integers, got {text!r}")
        return check_target(Mat2(rows[0][0], rows[0][1], rows[1][0], rows[1][1]))
    return word_to_matrix(text)


def check_target(mat):
    """Return mat if it lies in SL(2,Z); raise ValueError otherwise."""
    if mat.det() != 1:
        raise ValueError(f"target {mat} has determinant {mat.det()}, expected 1")
    return mat
