"""Exhaustive matrix-product solver for m_n(a_1, ..., a_m) = +/-target.

This module is deliberately independent of the formula and series
pipeline: it multiplies elementary matrices out over candidate tuples
and counts what actually hits the target, so agreement with the census
numbers is a genuine two-route check.

The workhorse is one meet-in-the-middle join.  A tuple splits into its
first component, the middle a_2..a_h and the suffix a_(h+1)..a_m, and

    m_n(tuple) = Suf * Z * elem(a_1),   Z = m_n(middle), Suf = m_n(suffix).

elem(a) = a*E11 + S is affine in a, so Z * elem(a_1) has the columns
a_1*Z*e1 + Z*e2 and -Z*e1.  With R = Suf^-1 * target, the equation
m_n(tuple) = +/-target therefore needs Z*e1 = -/+R*e2, and then a_1 is
the unique integer with a_1*Z*e1 + Z*e2 = +/-R*e1 (unique and integral
because Z*e1, a column of a determinant-1 matrix, is primitive).

The last middle digit is solved the same way.  With Z = elem(a_h) * Z'
and Z' = m_n(a_2..a_(h-1)), Z*e1 = (a_h*z'11 - z'21, z'11), so a probe
w = (x, y), the signed R*e2 with y > 0, matches exactly the Z' with
z'11 = y and z'21 = a_h*y - x.  The table holds every Z',
sign-normalized to z'11 >= 0, as one int per entry, bucketed by
(z'11, z'21 mod z'11) in z'21 order, so a probe is one lookup and a
bisection over a_h's range.  A Z' with z'11 = 0 has z'21 = 1; it
matches w = (1, 0) for every a_h, as -Z'.  Targets that share their
second column up to sign share R*e2 up to sign, so each suffix costs
one probe per distinct column; the probe of column (1, 0) is the same
for every suffix of a run, so a run whose first lookup of it misses
looks it up no more.  A hit tests a_1's window of z'12 per
target, then solves a_h and a_1 in closed form: neither is enumerated.
The suffix's part of the bound test is taken once per hit, so each
solution costs two floor divisions and one tally increment.

Every route records what it finds in one tally per target,
{(first, last, touched): solutions}, where touched says whether a
component reaches the bound, next to the tuples themselves when a
listing was asked for.  solve and survey both run one _run, which
checks the run, takes a route, re-multiplies every mitm listing
through m_n and has _summary derive the count, the bound touches and
both histograms from each tally, so no route computes them itself.

_plan lays out and prices each search, once, in the record that
carries it to its result.  While more than three components remain,
pinned ones come off both ends as a head and a tail, folded into the
targets, since m_n(head + rest + tail) = m_n(tail) * m_n(rest) *
m_n(head); the join writes them back into its tallies and listings.
The split h of the rest balances the table against the probes of the
sweep, from running products of the component widths, so a plan takes
time linear in the length of the box, and it always leaves the sweep a
digit.

Where the table would still hold more entries than the sweep makes
probes, as at odd sizes in survey, the table is semi-joined to the
sweep: the sweep is walked once, by _join itself, to collect the keys
its probes look up, and the table stores only the entries under those
keys.  survey(11) then stores 1,828 of 161,051 entries, and survey(13)
12,682 of 4,826,809.  The budget still counts the full table box.

When every target is +/-Id, the join also prunes by a proven bound:
the components of a positive solution of m_n(a_1..a_n) = +/-Id sum to
at most 3n - 6, and to a multiple of 3.  By induction on n:

  - No solution has every a_i >= 2: the first column (p_k, p_(k-1)) of
    elem(a_k)...elem(a_1) then has p_k - p_(k-1) >= p_(k-1) - p_(k-2)
    >= ... >= 1, so its lower entry p_(n-1) >= n is not 0.  Sizes 1 and
    2 have no solution, and size 3 only (1, 1, 1), whose sum is 3.
  - A rotation of a solution is one, since the product is conjugated by
    elem(a_1), so a 1 may be moved away from the ends.  For n >= 4 one
    of three moves then gives a positive solution of size n - 1 or n - 3
    whose sum is 3 smaller: (b, 1, a) -> (b - 1, a - 1) when a, b >= 2,
    since elem(a)*elem(1)*elem(b) = elem(a - 1)*elem(b - 1); removing
    (1, 1, 1), since elem(1)^3 = -Id; and (x, 1, 1, y) -> (x + y - 1)
    when x, y >= 2, since elem(y)*elem(1)^2*elem(x) = -elem(x + y - 1).
    The smaller solution has size 3 or more, so its sum is at most
    3(n - 1) - 6 and a multiple of 3, and the claim follows.

The bound is reached by the fan quiddity (n - 2, 1, 2, ..., 2, 1).  So
_plan gives each side a digit-sum cap, 3n - 6 less the lows of every
component outside it, and _iter_runs walks only the tuples within it.
The budget checks, the split and the semi-join test still count full
boxes, and the direct route stays unpruned.

Every route walks its box with one odometer, _iter_runs, which yields
each run of the innermost digit once, with the odometer index of its
first tuple in the whole box; since elem(a + 1) = elem(a) + E11,
each step along a run adds the second row of the product to its first,
a fixed increment to each packed entry of _build_table and a fixed
vector to each probe of _join.  _sweep joins the suffix sweep in one
call, or by first digit in a fork pool capped at the CPU count whose
children alone hold the search in a module global, so a serial run
keeps no module state and may share the process with other threads.

The direct route, the reference the join is checked against, shares
only _iter_runs with the join (test_iter_runs_odometer and
test_direct_route_matches_naive_enumeration check both against m_n
over every tuple of the box); _solve_direct says which runs it skips.

Completeness depends on the search box: only components in 1..bound
are enumerated (constrained positions may sit above the bound).
bound_touches reports how many solutions have a component at or above
the bound; zero means every solution sits strictly inside the box,
the usual saturation sanity signal.
"""

import math
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from types import SimpleNamespace
from typing import NamedTuple

from .matrices import IDENTITY, Mat2, TARGETS, check_target, equal_up_to_sign, m_n, parse_target

DEFAULT_MAX_TABLE_ENTRIES = 8_000_000  # at about 110 B per table entry, a 0.9 GB table

_ZERO_KEY = 0  # the table key of every Z' with z'11 = 0; other keys are >= 1


class ResourceBudgetError(RuntimeError):
    """The requested search box exceeds the configured table budget."""


@dataclass
class OracleQuery:
    """One exhaustive-search request.

    target       named generator, word, matrix literal, or Mat2
    size         tuple length m
    bound        largest component searched (defaults to size)
    constraints  {position: value} with 1-based positions; pinned values
                 may exceed the bound
    method       "auto" (direct product up to size 3, then meet in the
                 middle), "direct", or "mitm" (size >= 3)
    """

    target: object
    size: int
    bound: int = None
    constraints: dict = None
    list_solutions: bool = False
    workers: int = 1
    max_table_entries: int = DEFAULT_MAX_TABLE_ENTRIES
    method: str = "auto"


@dataclass
class SolutionSet:
    """Result of one solve: the count plus component histograms.

    by_first_last maps the pair (first, last) -> count and by_last, its
    marginal, maps last component -> count, both with sorted keys;
    solutions is a lexicographically sorted tuple of component tuples
    when listing was requested, else None.

    exhaustive_within_bound is True when every solution of the equation
    provably has all free components within the bound, which holds for
    the eight named targets and their negatives (the equation is taken
    up to sign) whenever bound >= size; then the count is
    the complete solution count.  When it is False (arbitrary target,
    or a lowered bound) the count is only exhaustive inside the
    searched box and bound_touches is the saturation signal.
    """

    target: Mat2
    target_name: object
    size: int
    bound: int
    count: int
    bound_touches: int
    by_last: dict
    by_first_last: dict
    method: str
    exhaustive_within_bound: bool = False
    solutions: object = None


@dataclass
class SurveyResult:
    """Counts and histograms for a batch of targets at one size.

    All dicts are keyed by target label: the target's name, else the
    repr of its matrix.  exhaustive_within_bound has the same meaning as
    on SolutionSet, per target.
    """

    size: int
    bound: int
    counts: dict
    bound_touches: dict
    by_last: dict
    by_first_last: dict
    exhaustive_within_bound: dict


def _iter_runs(lows, highs, cap=None):
    """Yield (digits, index, (r, s, x, y)) per run of the innermost digit, in lexicographic order.

    (r, s, x, y) is the product over digits[:-1], so the run's products
    are m_n(digits[:-1] + [a]) = (a*r - x, a*s - y, r, s) for a in
    lows[-1]..digits[-1], and index is the odometer index of its first
    tuple in the whole box.  digits is one live list whose innermost
    entry is the run's last value: a caller that keeps it must copy it.
    A step rebuilds only the levels right of the digit that moved.  The
    empty box is one run, [] with elem(0)^-1 = (0, 1, -1, 0), whose one
    product is the identity at a = 0; only an empty table and the direct
    route at size 1 walk it, since every mitm plan keeps a sweep digit.

    With a cap, only the tuples whose digits sum to at most cap are
    walked.  A digit moves up only while the lows of the digits right of
    it still fit under the cap, so no subtree over the cap is entered,
    and each run ends at min(highs[-1], cap - sum(digits[:-1])).  The
    running sums are kept per level with the products, and index moves
    with the digit that moves, so a step costs a few additions more than
    without a cap.  A cap of None walks the whole box.
    """
    length = len(lows)
    if cap is None:
        cap = sum(highs)
    if sum(lows) > cap:
        return
    if length == 0:
        yield [], 0, (0, 1, -1, 0)
        return
    digits = list(lows)
    last, hi = length - 1, highs[-1]
    # room[j] is the largest sum of digits[:j + 1] that leaves the lows after it under the cap
    room = [cap - rest for rest in accumulate(reversed(lows[1:]), initial=0)][::-1]
    # strides[j] is the number of tuples of the box right of digit j
    strides = list(accumulate(reversed([high - low + 1 for low, high in zip(lows[1:], highs[1:])]),
                              mul, initial=1))[::-1]
    # mats[j] is the product over digits[:j], the identity at j = 0, and sums[j] their sum
    mats = [(1, 0, 0, 1)] * length
    sums = [0] * length
    i = index = 0
    while True:
        prev, total = mats[i], sums[i]
        for j in range(i, last):
            a = digits[j]
            p, q, r, s = prev
            prev = (a * p - r, a * q - s, p, q)
            mats[j + 1] = prev
            total += a
            sums[j + 1] = total
        end = cap - total
        digits[last] = end if end < hi else hi
        yield digits, index, prev
        i = last - 1
        while i >= 0 and (digits[i] >= highs[i] or sums[i + 1] >= room[i]):
            index -= (digits[i] - lows[i]) * strides[i]
            digits[i] = lows[i]
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        index += strides[i]


def _projected(lows, highs):
    return math.prod(hi - lo + 1 for lo, hi in zip(lows, highs))


def _check_budget(projected, budget, label):
    if projected > budget:
        # a huge bound can make a count too long to print in full
        shown = projected if projected.bit_length() <= 1024 else (
            f"at least 2^{projected.bit_length() - 1}")
        raise ResourceBudgetError(
            f"{label} would enumerate {shown} tuples, over the table budget "
            f"of {budget}; raise max_table_entries or constrain components"
        )


def _check_box(free, bound, budget, method):
    """Refuse a box that no split fits, before _plan or any per-digit list.

    Each free component multiplies the side it falls in by bound >= 2, so
    a side within the budget holds fewer than budget.bit_length() of them.
    The direct route has one side, the whole box; the join has two, the
    table and the sweep, which leave out a_1 and a_h.  At bound 1 every
    side is one tuple, but every route still keeps a list per component,
    so a box of more free components than the budget is refused.  A box
    that passes still meets _check_budget, which names the side and its
    exact size.
    """
    sides, need = (1, free) if method == "direct" else (2, free - 2)
    if (need > sides * (budget.bit_length() - 1)) if bound > 1 else free > budget:
        raise ResourceBudgetError(
            f"the search box has too many free components for the table budget "
            f"of {budget}; raise max_table_entries or constrain components"
        )


def _normalize_target(spec):
    """(matrix, name) of a target; name is None outside the eight named targets."""
    if isinstance(spec, Mat2):
        mat = check_target(spec)
    elif isinstance(spec, str):
        mat = parse_target(spec)
    else:
        raise ValueError(f"target must be a Mat2 or a string, got {spec!r}")
    # the eight named matrices are distinct, so a name, a word or a literal
    # for one of them all find it here
    name = next((key for key, value in TARGETS.items() if value == mat), None)
    return mat, name


def _exhaustive(mat, size, bound):
    """True when bound >= size and mat is one of the eight named targets up to sign."""
    return bound >= size and any(equal_up_to_sign(mat, named) for named in TARGETS.values())


def _normalize_constraints(constraints, size):
    fixed = {}
    for pos, value in (constraints or {}).items():
        if not isinstance(pos, int) or isinstance(pos, bool):
            raise ValueError(f"constraint positions must be integers, got {pos!r}")
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"constraint values must be integers, got {value!r}")
        if not 1 <= pos <= size:
            raise ValueError(f"constraint position {pos} outside 1..{size}")
        if value < 1:
            raise ValueError(f"components are positive, cannot pin {value}")
        fixed[pos] = value
    return fixed


def _box(size, bound, fixed):
    lows = [1] * size
    highs = [bound] * size
    for pos, value in fixed.items():
        lows[pos - 1] = highs[pos - 1] = value
    return lows, highs


def _summary(tally):
    """(count, bound_touches, by_last, by_first_last) of one target's tally.

    The histograms get sorted keys, so no traversal order leaks out.
    """
    count = touches = 0
    by_last, by_first_last = Counter(), Counter()
    for (first, last, touched), solutions in tally.items():
        count += solutions
        touches += solutions if touched else 0
        by_last[last] += solutions
        by_first_last[first, last] += solutions
    return count, touches, dict(sorted(by_last.items())), dict(sorted(by_first_last.items()))


def _build_table(lows, highs, bound, keep=None, cap=None):
    """(table, widths): the products Z' over the table box, bucketed for the probes of _join.

    Z' = (p, q, r, s), sign-normalized to p >= 0 (-Z' is never built), is
    keyed by (p, r mod p) as the one int p^2 + (r mod p); a Z' with p = 0
    has r = +/-1 and q = -r, and goes under _ZERO_KEY with z'22 for z'12.
    The entry is (z'21 << shift) + ((z'12 + limit) << cbits) + code, with
    widths (cbits, shift, limit) from the box: limit = prod(hi + 1) bounds
    every |entry| of Z', so the fields never overlap, and the ints sort by
    z'21.  code is twice the odometer index of the digits in the whole box,
    plus one when a digit reaches the bound.  Along a run q steps by s and
    code by 2, so the entries of Z' and of -Z' step by (s << cbits) + 2
    and 2 - (s << cbits), and the touched bits come from one of two
    per-box lists, picked once per run from the outer digits and cut at
    the run's last value.  A one-entry bucket is the bare int, stored by
    the one setdefault of a new key; a key's second entry makes a list,
    sorted into a tuple at the end.

    With a set keep, only the entries under its keys are stored (the
    semi-join of _solve_mitm): each kept bucket equals the full build's.
    With a cap, only the tuples whose digits sum to at most cap are built
    (_iter_runs).  Either way codes still count every tuple of the box,
    so _digits_at decodes them with the box alone.
    """
    cbits = _projected(lows, highs).bit_length() + 1
    limit = math.prod(hi + 1 for hi in highs)
    shift = cbits + limit.bit_length() + 1
    table = {}
    setdefault = table.setdefault
    grown = []
    lo, hi = (lows[-1], highs[-1]) if lows else (0, 0)
    # the touched bit along a run: 1 throughout when an outer digit reaches the bound
    ones, inner = [1] * (hi - lo + 1), [int(digit >= bound) for digit in range(lo, hi + 1)]
    for digits, index, (r, s, x, y) in _iter_runs(lows, highs, cap):
        bits = ones if max(digits[:-1], default=0) >= bound else inner
        if digits and digits[-1] < hi:
            bits = bits[:digits[-1] - lo + 1]
        code = 2 * index
        p, q = lo * r - x, lo * s - y
        # the entries of Z' and of -Z' without their touched bit
        pos = (r << shift) + ((q + limit) << cbits) + code
        neg = (-r << shift) + ((limit - q) << cbits) + code
        up, down = (s << cbits) + 2, 2 - (s << cbits)
        for bit in bits:
            if p > 0:
                key, entry = p * p + r % p, pos + bit
            elif p:
                key, entry = p * p - r % p, neg + bit
            else:
                # r = +/-1 and q = -r, so r*Z' has z'21 = 1 and z'22 = r*s
                key, entry = _ZERO_KEY, (pos if r > 0 else neg) + ((r * s + 1) << cbits) + bit
            p += r
            pos += up
            neg += down
            if keep is not None and key not in keep:
                continue
            bucket = setdefault(key, entry)
            if bucket is entry:  # a new key: codes differ, so no two entries are equal
                continue
            if bucket.__class__ is int:
                table[key] = [bucket, entry]
                grown.append(key)
            else:
                bucket.append(entry)
    for key in grown:
        table[key] = tuple(sorted(table[key]))
    return table, (cbits, shift, limit)


def _digits_at(index, lows, highs):
    """The digits at an odometer index of the whole box, as _iter_runs yields it, capped or not."""
    digits = []
    for lo, hi in zip(reversed(lows), reversed(highs)):
        index, offset = divmod(index, hi - lo + 1)
        digits.append(lo + offset)
    return tuple(reversed(digits))


class _Search(NamedTuple):
    """One mitm search: _plan lays it out and prices it, _solve_mitm adds
    the table, and _join writes the finished tallies and listings."""

    groups: list         # _plan's (b, d, members) probe groups
    targets: int         # number of targets, one tally each
    head: tuple          # pinned values peeled off before a_1
    first: tuple         # (lo, hi) of a_1
    table_box: tuple     # (lows, highs) of a_2..a_(h-1)
    implicit: tuple      # (lo, hi) of a_h
    sweep_box: tuple     # (lows, highs) of a_(h+1)..a_m, never empty
    tail: tuple          # pinned values peeled off after a_m
    bound: int
    table_size: int      # tuples in table_box
    sweep_size: int      # tuples in sweep_box
    table_cap: int       # the largest digit sum a table tuple of a solution can have,
    sweep_cap: int       # and a sweep tuple; None unless every target is +/-Id
    table: dict = None   # _build_table over table_box
    widths: tuple = (0, 0, 0)  # (cbits, shift, limit) of its packed entries
    want_list: bool = False


def _join(search, slows, shighs):
    """Sweep a suffix box against the table, solving a_h and a_1 per hit.

    Every suffix holds a digit, the box's last, and ends in the tail;
    only suffixes within the sweep cap are walked.  Each probe group
    steps its probe along every run of suffixes and signs it only on a
    hit (a group with d = 0 does not step, so its first miss ends its
    run), and a_1's window is tested before a_h is solved.  The bound
    test of suffix, head and tail is taken once per hit, so a solution
    costs two floor divisions and one tally increment.
    Returns (tallies, listings): per target, the tally {(first, last,
    touched): solutions}, first from the head if any, and the tuples
    head + solution + tail, their table digits decoded from code, or None.
    """
    tallies = [Counter() for _ in range(search.targets)]
    listings = [[] for _ in range(search.targets)] if search.want_list else None
    tget = search.table.get
    cbits, shift, limit = search.widths
    zmask, cmask = (1 << shift - cbits) - 1, (1 << cbits) - 1
    (first_lo, first_hi), (ah_lo, ah_hi) = search.first, search.implicit
    slo = slows[-1]
    bound, table_box, head, tail = search.bound, search.table_box, search.head, search.tail
    head_first = head[0] if head else 0  # components are positive: 0 is no head

    for digits, _, (r, s, u, v) in _iter_runs(slows, shighs, search.sweep_cap):
        # the run's suffixes are (last*r - u, last*s - v, r, s) for last in slo..top
        top = digits[-1]
        for b, d, members in search.groups:
            # w = R*e2 with R = Suf^-1 * target and Suf^-1 = [[s, -q], [-r, p]] is
            # (x, y) = (s*b + v*d - last*s*d, last*r*d - u*d - r*b) along the run;
            # it starts one step before slo, and each step adds (-s*d, r*d)
            dx, dy = -s * d, r * d
            x, y = s * b + v * d + (slo - 1) * dx, (slo - 1) * dy - u * d - r * b
            for last in range(slo, top + 1):
                x += dx
                y += dy
                # y^2 + |-x mod y| is the key of w signed so that y > 0, whatever y's sign
                bucket = tget(y * y + abs(-x % y) if y else _ZERO_KEY)
                if bucket is None:
                    if d:
                        continue
                    # d = 0 steps by (0, 0): no suffix of the run finds this probe
                    break
                # Z*e1 = (wx, wy) is needed, w signed so that wy > 0, or wy = 0 and wx > 0
                sign = 1 if y > 0 or (y == 0 and x > 0) else -1
                p, q, wx, wy = last * r - u, last * s - v, sign * x, sign * y
                bucket = (bucket,) if bucket.__class__ is int else bucket
                # the suffix, its last value and, with the head, its part of the bound test
                suffix = (*digits[:-1], last, *tail)
                end, smax = suffix[-1], max(head + suffix)
                if wy:
                    # Z = elem(a_h) * Z' has Z*e1 = (a_h*z'11 - z'21, z'11), so the matches
                    # have z'11 = wy and z'21 = a_h*wy - wx, a range of the bucket; then
                    # a_1*Z*e1 + Z*e2 = -sign*R*e1 has the second row a_1*wy + z'12 = r1,
                    # so a_1's range is a window of z'12, tested before a_h is unpacked
                    bucket = bucket[bisect_left(bucket, (ah_lo * wy - wx) << shift):
                                    bisect_left(bucket, (ah_hi * wy - wx + 1) << shift)]
                    for ti, ta, tc in members:
                        tally = tallies[ti]
                        # r1 and z = z'12 + limit, the packed field, both carry limit
                        r1 = sign * (r * ta - p * tc) + limit
                        low, high = r1 - first_hi * wy, r1 - first_lo * wy
                        for entry in bucket:
                            if low <= (z := entry >> cbits & zmask) <= high:
                                first, ah = (r1 - z) // wy, (wx + (entry >> shift)) // wy
                                tally[head_first or first, end,
                                      entry & 1 or max(first, ah, smax) >= bound] += 1
                                if listings is not None:
                                    listings[ti].append((*head, first, *_digits_at(
                                        (entry & cmask) >> 1, *table_box), ah, *suffix))
                else:
                    # w = (1, 0) and Z'*e1 = (0, 1): every a_h matches with Z = -elem(a_h)*Z',
                    # whose Z*e2 = (a_h + z'22, 1); the first row makes a_1 + a_h = r1 - z'22
                    for ti, ta, tc in members:
                        tally = tallies[ti]
                        r1 = sign * (q * tc - s * ta) + limit
                        for entry in bucket:
                            both = r1 - (entry >> cbits & zmask)
                            lo, hi = max(ah_lo, both - first_hi), min(ah_hi, both - first_lo)
                            for ah in range(lo, hi + 1):
                                first = both - ah
                                tally[head_first or first, end,
                                      entry & 1 or max(first, ah, smax) >= bound] += 1
                                if listings is not None:
                                    listings[ti].append((*head, first, *_digits_at(
                                        (entry & cmask) >> 1, *table_box), ah, *suffix))
    return tallies, listings


_WORKER_CTX = None  # the search, in each child of _sweep's fork pool only


def _init_worker(search):
    global _WORKER_CTX
    _WORKER_CTX = search


def _join_partition_task(value):
    """_join over the sweep with its first digit set to value, in a child of the pool."""
    slows, shighs = _WORKER_CTX.sweep_box
    return _join(_WORKER_CTX, (value, *slows[1:]), (value, *shighs[1:]))


def _sweep(search, workers):
    """Join the suffix sweep against the table; merged (tallies, listings).

    Serially the whole sweep box is one _join call.  Otherwise its
    independent first-digit partitions go to a fork pool of min(workers,
    partitions, os.cpu_count()) processes, whose initializer hands each
    child the search, inherited with its table, not pickled.  Without
    fork the run is serial.  The merge adds the partitions in ascending
    order and sorts the listings: results are the same for any workers.
    """
    slows, shighs = search.sweep_box
    values = range(slows[0], shighs[0] + 1)
    pool_size = min(workers, len(values), os.cpu_count() or 1)
    if pool_size > 1:
        import multiprocessing  # only here: no serial run pays for the import
    if pool_size > 1 and "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(pool_size, _init_worker, (search,)) as pool:
            parts = pool.map(_join_partition_task, values)
    else:
        parts = [_join(search, slows, shighs)]
    tallies, listings = parts[0]
    for part_tallies, part_listings in parts[1:]:
        for tally, part in zip(tallies, part_tallies):
            tally.update(part)
        for listed, part in zip(listings or (), part_listings or ()):
            listed.extend(part)
    for listed in listings or ():
        listed.sort()
    return tallies, listings


def _plan(size, bound, fixed, target_rows):
    """The _Search of one mitm search, laid out and priced, without a table.

    Pinned components come off both ends while more than three remain
    (size >= 3); head and tail hold their values, and each target folds
    to R = m_n(tail)^-1 * target * m_n(head)^-1.  groups lists
    (b, d, members), one probe per folded second column +/-(b, d), where
    members holds (index, a, c) for its targets, (a, c) their first
    column under the sign that makes it (b, d).

    The m components left keep a_1 and a_h for closed forms, a table over
    a_2..a_(h-1) and a sweep over a_(h+1)..a_m.  h in 2..m-1, so the sweep
    keeps a digit, makes the larger of table_size and sweep_size times the
    number of probes as small as possible, then the table: a free box of
    size m with one target takes h = m//2 + 1.

    When every target is +/-Id, each side gets a digit-sum cap: a solution
    sums to at most 3*size - 6 (module docstring), and every component
    outside the side is at least its low, so the side's digits sum to at
    most its own lows plus the spare 3*size - 6 - sum(lows of the box).
    """
    start, stop = 1, size
    while stop - start > 2 and start in fixed:
        start += 1
    while stop - start > 2 and stop in fixed:
        stop -= 1
    lows, highs = _box(size, bound, fixed)
    plus_minus_id = {IDENTITY.entries(), (-IDENTITY).entries()}
    spare = 3 * size - 6 - sum(lows) if set(target_rows) <= plus_minus_id else None
    head, tail = tuple(lows[:start - 1]), tuple(lows[stop:])
    lows, highs = tuple(lows[start - 1:stop]), tuple(highs[start - 1:stop])
    head_inv = m_n(head).inverse() if head else IDENTITY
    tail_inv = m_n(tail).inverse() if tail else IDENTITY
    by_column = {}
    for ti, row in enumerate(target_rows):
        a, b, c, d = (tail_inv * Mat2(*row) * head_inv).entries()
        if d < 0 or (d == 0 and b < 0):
            a, b, c, d = -a, -b, -c, -d
        by_column.setdefault((b, d), []).append((ti, a, c))
    groups = [(b, d, members) for (b, d), members in by_column.items()]
    # tables[k] is the size of a table over lows[1:k + 1], sweeps[k] of a sweep over lows[k:]
    widths = [hi - lo + 1 for lo, hi in zip(lows, highs)]
    tables = list(accumulate(widths[1:-1], mul, initial=1))
    sweeps = list(accumulate(reversed(widths), mul, initial=1))[::-1]

    def cost(h):
        return max(tables[h - 2], len(groups) * sweeps[h]), tables[h - 2]

    h = min(range(2, len(lows)), key=cost)
    caps = (None, None) if spare is None else (spare + sum(lows[1:h - 1]), spare + sum(lows[h:]))
    return _Search(groups, len(target_rows), head, (lows[0], highs[0]),
                   (lows[1:h - 1], highs[1:h - 1]), (lows[h - 1], highs[h - 1]),
                   (lows[h:], highs[h:]), tail, bound, tables[h - 2], sweeps[h], *caps)


def _solve_mitm(target_rows, size, bound, fixed, workers, budget, want_list):
    """Tally (and optionally list) solutions for a batch of targets: one table, one join.

    The join searches the box _plan leaves for m_n(rest) = +/-R with
    R = m_n(tail)^-1 * target * m_n(head)^-1 and returns finished results.
    Both budget checks and the semi-join test read _plan's side sizes.

    When the table would hold more entries than the sweep makes probes,
    the sweep is first walked once, serially and before any fork, by
    _join itself against a stand-in table whose get is the add of a key
    set; add returns None, so no hit path runs.  The table then stores
    only the entries under those keys, the only ones a probe can find (a
    semi-join, after Bernstein and Chiu, J. ACM 1981).  The set holds at
    most one key per probe, so fewer keys than the full table has entries.
    """
    search = _plan(size, bound, fixed, target_rows)
    _check_budget(search.table_size, budget, "the middle table")
    _check_budget(search.sweep_size, budget, "the suffix sweep")
    keep = None
    if search.table_size > len(search.groups) * search.sweep_size:
        # no table yet: only a hit reads the widths, and the key pass makes none
        keep = set()
        _join(search._replace(table=SimpleNamespace(get=keep.add)), *search.sweep_box)
    table, widths = _build_table(*search.table_box, bound, keep, search.table_cap)
    return _sweep(search._replace(table=table, widths=widths, want_list=want_list), workers)


def _solve_direct(target_rows, lows, highs, bound, want_list):
    """Plain full enumeration; the reference the join is checked against.

    One walk serves all targets: each product is looked up in a dict
    from the target entry rows and their negations to target indices, so
    targets equal up to sign are all credited.  The walk covers the box
    without its last digit a, stepping that box's last digit b inline;
    every product over (..., b, a) has the first row of the product over
    (..., b) as its second row, so a b whose row is no target's second
    row up to sign holds no solution and its run of a is skipped whole.
    Returns (tallies, listings) like _sweep, with the solutions in
    ascending order.
    """
    hits = {}
    for ti, entries in enumerate(target_rows):
        for key in {entries, tuple(-e for e in entries)}:
            hits.setdefault(key, []).append(ti)
    second_rows = {key[2:] for key in hits}
    tallies = [Counter() for _ in target_rows]
    listings = [[] for _ in target_rows] if want_list else None
    hget = hits.get
    lo, hi = lows[-1], highs[-1]
    # b is the innermost digit of the shortened box; in the empty one it is
    # the virtual 0 of _iter_runs, whose one product is the identity
    blo, bhi = (lows[-2], highs[-2]) if len(lows) > 1 else (0, 0)
    for digits, _, (r, s, x, y) in _iter_runs(lows[:-1], highs[:-1]):
        # the products over (..., b) are (b*r - x, b*s - y, r, s), and
        # (b*r - x, b*s - y) is the second row of every product over (..., b, a)
        p, q = blo * r - x, blo * s - y
        for b in range(blo, bhi + 1):
            if (p, q) in second_rows:
                prefix = (*digits[:-1], b) if digits else ()
                for a in range(lo, hi + 1):
                    matched = hget((a * p - r, a * q - s, p, q))
                    if matched is None:
                        continue
                    found = (*prefix, a)
                    key = (found[0], a, max(found) >= bound)
                    for ti in matched:
                        tallies[ti][key] += 1
                        if listings is not None:
                            listings[ti].append(found)
            p += r
            q += s
    return tallies, listings


def _check_run(size, bound, method, workers):
    """(bound, route) for a solve or survey; route is "direct" or "mitm".

    Raises ValueError for a size, bound or worker count that is not a
    positive integer, an unknown method, or mitm below size 3.
    """
    bound = size if bound is None else bound
    for label, value in (("size", size), ("bound", bound), ("workers", workers)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{label} must be a positive integer, got {value!r}")
    if method not in ("auto", "direct", "mitm"):
        raise ValueError(f"method must be auto, direct or mitm, got {method!r}")
    if method == "auto":
        method = "direct" if size <= 3 else "mitm"
    if method == "mitm" and size < 3:
        raise ValueError("the meet-in-the-middle route needs size >= 3")
    return bound, method


def _run(targets, size, bound, constraints, method, workers, budget, want_list):
    """One SolutionSet per normalized (matrix, name) target, from one walk of the box.

    Checks the run and the constraints, takes the direct or the mitm
    route under its budget, re-multiplies every mitm listing through m_n
    and summarizes each target's tally.
    """
    bound, method = _check_run(size, bound, method, workers)
    fixed = _normalize_constraints(constraints, size)
    _check_box(size - len(fixed), bound, budget, method)
    rows = [mat.entries() for mat, _ in targets]
    if method == "direct":
        lows, highs = _box(size, bound, fixed)
        _check_budget(_projected(lows, highs), budget, "direct enumeration")
        tallies, listings = _solve_direct(rows, lows, highs, bound, want_list)
    else:
        tallies, listings = _solve_mitm(rows, size, bound, fixed, workers, budget, want_list)
        for (mat, _), listed in zip(targets, listings or ()):
            for digits in listed:
                if not equal_up_to_sign(m_n(digits), mat):
                    raise RuntimeError(f"internal error: {digits} fails re-verification")
    return [
        SolutionSet(mat, name, size, bound, *_summary(tally), method,
                    _exhaustive(mat, size, bound), None if listed is None else tuple(listed))
        for (mat, name), tally, listed in zip(targets, tallies, listings or repeat(None))
    ]


def solve(query):
    """Solve one OracleQuery exhaustively; returns a SolutionSet."""
    return _run([_normalize_target(query.target)], query.size, query.bound,
                query.constraints, query.method, query.workers,
                query.max_table_entries, query.list_solutions)[0]


def survey(size, bound=None, workers=1, max_table_entries=DEFAULT_MAX_TABLE_ENTRIES,
           targets=None, method="auto"):
    """Count solutions for a whole batch of targets at one size.

    method takes the values of OracleQuery.method.  All targets share
    one walk of the box: a single middle table and suffix sweep, or a
    single direct enumeration, so surveying the eight named targets
    costs little more than one.
    """
    if isinstance(targets, (str, Mat2)):
        raise ValueError(f"survey targets must be a collection of targets, got {targets!r}")
    specs = list(TARGETS if targets is None else targets)
    if not specs:
        raise ValueError("survey needs at least one target")
    normalized = [_normalize_target(spec) for spec in specs]
    labels = [name if name is not None else repr(mat) for mat, name in normalized]
    if len(set(labels)) != len(labels):
        raise ValueError("survey targets must be distinct")
    results = _run(normalized, size, bound, {}, method, workers, max_table_entries, False)
    columns = ({label: getattr(res, field) for label, res in zip(labels, results)}
               for field in ("count", "bound_touches", "by_last", "by_first_last",
                             "exhaustive_within_bound"))
    return SurveyResult(size, results[0].bound, *columns)


def count_component_at(target, size, position, value):
    """Number of solutions with the given component pinned at a position."""
    return solve(OracleQuery(target=target, size=size, constraints={position: value})).count
