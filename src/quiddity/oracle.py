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

The table holds every middle product with its sign normalized so that
the first column is canonical (first nonzero entry positive), keyed by
that column.  Each suffix then costs one probe per target, and each
hit solves a_1 in closed form.  The first component is never
enumerated.

Every route records what it finds in one tally per target,
{(first, last, touched): solutions}, where touched says whether a
component reaches the bound, next to the tuples themselves when a
listing was asked for.  solve and survey both run one _run, which
checks the run, takes a route, re-multiplies every mitm listing
through m_n and has _summary derive the count, the bound touches and
both histograms from each tally, so no route computes them itself.

_plan lays out each search.  Pinned components come off both ends as
a head and a tail, folded into the targets with one matrix product,
since m_n(head + rest + tail) = m_n(tail) * m_n(rest) * m_n(head); the
tally keys and listings get them back afterwards.  The split h of the
rest is then chosen where table and sweep balance.

Both the middle table and the suffix sweep walk their boxes with one
odometer, _iter_products.  Since elem(a + 1) = elem(a) + E11, stepping
its innermost digit is a single row addition on the running product.
_sweep partitions the suffix sweep by its first digit, runs the
partitions in a fork pool capped at the CPU count, and merges them.

The direct route, the reference the join is checked against, shares
no search code with the join: it enumerates every tuple of the box once
and looks each product up among all targets and their negations.

Completeness depends on the search box: only components in 1..bound
are enumerated (constrained positions may sit above the bound).
bound_touches reports how many solutions have a component at or above
the bound; zero means every solution sits strictly inside the box,
the usual saturation sanity signal.
"""

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass

from .matrices import IDENTITY, Mat2, TARGETS, check_target, equal_up_to_sign, m_n, parse_target

DEFAULT_MAX_TABLE_ENTRIES = 8_000_000

_IDENT = (1, 0, 0, 1)


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
                 middle), "direct", or "mitm"
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


def _iter_products(lows, highs):
    """Yield (digits, product) over a digit box in ascending lexicographic order.

    digits is one live list, updated in place between steps: a caller
    that keeps it must copy it.  The product is m_n(digits) as an entry
    4-tuple.  elem(a + 1) = elem(a) + E11, so stepping the innermost
    digit adds the second row of the product to its first,
    (p, q, r, s) -> (p + r, q + s, r, s); any other odometer step
    rebuilds only the levels to the right of the digit that moved.
    """
    length = len(lows)
    if length == 0:
        yield [], _IDENT
        return
    digits = list(lows)
    last = length - 1
    last_lo, last_hi = lows[last], highs[last]
    # mats[j] is the product over digits[:j + 1]; the innermost level is
    # kept in local variables instead
    mats = [None] * last
    i = 0
    while True:
        prev = mats[i - 1] if i > 0 else _IDENT
        for j in range(i, last):
            a = digits[j]
            p, q, r, s = prev
            prev = (a * p - r, a * q - s, p, q)
            mats[j] = prev
        # elem(a) * prev has first row a*(r, s) - (x, y) and second row (r, s)
        r, s, x, y = prev
        p, q = last_lo * r - x, last_lo * s - y
        for a in range(last_lo, last_hi + 1):
            digits[last] = a
            yield digits, (p, q, r, s)
            p += r
            q += s
        i = last - 1
        while i >= 0 and digits[i] >= highs[i]:
            digits[i] = lows[i]
            i -= 1
        if i < 0:
            return
        digits[i] += 1


def _projected(lows, highs):
    total = 1
    for lo, hi in zip(lows, highs):
        total *= hi - lo + 1
    return total


def _check_budget(projected, budget, label):
    if projected > budget:
        raise ResourceBudgetError(
            f"{label} would enumerate {projected} tuples, over the table budget "
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
    by_last = {}
    by_first_last = {}
    for (first, last, touched), solutions in tally.items():
        count += solutions
        touches += solutions if touched else 0
        by_last[last] = by_last.get(last, 0) + solutions
        by_first_last[first, last] = by_first_last.get((first, last), 0) + solutions
    return count, touches, dict(sorted(by_last.items())), dict(sorted(by_first_last.items()))


def _build_table(lows, highs):
    """Map canonical Z*e1 -> [(z2, middle tuple), ...] over the middle box.

    Z is sign-normalized so that its first column has a positive first
    nonzero entry.  Within a bucket the second column is fixed by z2,
    its entry in the row of that first nonzero entry (det Z = 1).
    """
    table = {}
    for digits, (a, b, c, d) in _iter_products(lows, highs):
        if a < 0 or (a == 0 and c < 0):
            a, b, c, d = -a, -b, -c, -d
        table.setdefault((a, c), []).append((b if a else d, tuple(digits)))
    return table


def _join(table, target_rows, slows, shighs, bound, first_lo, first_hi, want_list):
    """Sweep the suffix box against the middle table, solving a_1 per hit.

    Returns (tallies, listings): per target, the tally
    {(first, last, touched): solutions} and the solution tuples, or
    listings None.
    """
    tallies = [Counter() for _ in target_rows]
    listings = [[] for _ in target_rows] if want_list else None
    tget = table.get
    indexed_rows = list(enumerate(target_rows))
    for digits, (p, q, r, s) in _iter_products(slows, shighs):
        for ti, (ta, tb, tc, td) in indexed_rows:
            # R = Suf^-1 * target with Suf^-1 = [[s, -q], [-r, p]]; probe R*e2
            x = s * tb - q * td
            y = p * td - r * tb
            sign = 1
            if x < 0 or (x == 0 and y < 0):
                x, y, sign = -x, -y, -1
            bucket = tget((x, y))
            if bucket is None:
                continue
            # the match has Z*e1 = sign*R*e2, so a_1*Z*e1 + Z*e2 = -sign*R*e1,
            # read off in the row of the key's first nonzero entry
            if x:
                z1, r1 = x, sign * (q * tc - s * ta)
            else:
                z1, r1 = y, sign * (r * ta - p * tc)
            for z2, mid in bucket:
                first = (r1 - z2) // z1
                if first < first_lo or first > first_hi:
                    continue
                touched = (max(digits) >= bound or first >= bound
                           or max(mid, default=0) >= bound)
                tallies[ti][first, digits[-1], touched] += 1
                if listings is not None:
                    listings[ti].append((first,) + mid + tuple(digits))
    return tallies, listings


_WORKER_CTX = None


def _join_partition_task(first_value):
    table, target_rows, slows, shighs, bound, first_lo, first_hi, want_list = _WORKER_CTX
    slows = list(slows)
    shighs = list(shighs)
    slows[0] = shighs[0] = first_value
    return _join(table, target_rows, slows, shighs, bound, first_lo, first_hi, want_list)


def _sweep(ctx, workers):
    """Join the suffix sweep one first-digit partition at a time; merged (tallies, listings).

    Partitions are independent, so they go to a fork pool of
    min(workers, partitions, os.cpu_count()) processes (children inherit
    the context, including the middle table, without pickling it).  A
    pool of one, or a platform without fork, runs them serially.  The
    merge adds the partitions in ascending order and sorts the listings,
    which keeps results identical for any worker count.
    """
    global _WORKER_CTX
    slows, shighs = ctx[2], ctx[3]
    values = range(slows[0], shighs[0] + 1)
    pool_size = min(workers, len(values), os.cpu_count() or 1)
    _WORKER_CTX = ctx
    try:
        if pool_size > 1 and "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(pool_size) as pool:
                parts = pool.map(_join_partition_task, values)
        else:
            parts = [_join_partition_task(v) for v in values]
    finally:
        _WORKER_CTX = None
    tallies, listings = parts[0]
    for part_tallies, part_listings in parts[1:]:
        for tally, part in zip(tallies, part_tallies):
            tally.update(part)
        if listings is not None:
            for listed, part in zip(listings, part_listings):
                listed.extend(part)
    for listed in listings or ():
        listed.sort()
    return tallies, listings


def _plan(size, bound, fixed):
    """(head, tail, lows, highs, h): the pinned ends peeled off, the rest split.

    Pinned components come off both ends while more than two remain;
    head and tail hold their values, lows and highs the box left.  The
    box keeps its first component for the closed form, a middle table
    over lows[1:h] and a suffix sweep over lows[h:].  h makes the larger
    of the two as small as possible, then the table, so peeling never
    enlarges the larger side, and a free box splits in the middle.
    """
    start, stop = 1, size
    while stop - start > 1 and start in fixed:
        start += 1
    while stop - start > 1 and stop in fixed:
        stop -= 1
    lows, highs = _box(size, bound, fixed)
    head, tail = tuple(lows[:start - 1]), tuple(lows[stop:])
    lows, highs = lows[start - 1:stop], highs[start - 1:stop]

    def sides(h):
        table = _projected(lows[1:h], highs[1:h])
        return max(table, _projected(lows[h:], highs[h:])), table

    return head, tail, lows, highs, min(range(1, len(lows)), key=sides)


def _solve_mitm(target_rows, size, bound, fixed, workers, budget, want_list):
    """Tally (and optionally list) solutions for a batch of targets: one table, one join.

    The join searches the box _plan leaves for m_n(rest) = +/-R with
    R = m_n(tail)^-1 * target * m_n(head)^-1; tally keys and listings
    then get the pinned head and tail back.
    """
    head, tail, lows, highs, h = _plan(size, bound, fixed)
    _check_budget(_projected(lows[1:h], highs[1:h]), budget, "the middle table")
    _check_budget(_projected(lows[h:], highs[h:]), budget, "the suffix sweep")
    head_inv = m_n(head).inverse() if head else IDENTITY
    tail_inv = m_n(tail).inverse() if tail else IDENTITY
    rows = [(tail_inv * Mat2(*row) * head_inv).entries() for row in target_rows]
    table = _build_table(lows[1:h], highs[1:h])
    ctx = (table, rows, tuple(lows[h:]), tuple(highs[h:]), bound,
           lows[0], highs[0], want_list)
    tallies, listings = _sweep(ctx, workers)
    pinned_touch = max(head + tail, default=0) >= bound
    for ti, inner in enumerate(tallies):
        tallies[ti] = Counter()
        for (first, last, touched), solutions in inner.items():
            key = (head[0] if head else first, tail[-1] if tail else last)
            tallies[ti][key + (touched or pinned_touch,)] += solutions
    if listings is not None:
        listings = [[head + t + tail for t in listed] for listed in listings]
    return tallies, listings


def _solve_direct(target_rows, lows, highs, bound, want_list):
    """Plain full enumeration; the reference the join is checked against.

    One walk over every tuple of the box serves all targets: each
    product is looked up in a dict from the target entry rows and their
    negations to target indices, so targets equal up to sign are all
    credited.  Returns (tallies, listings) like _sweep, with the
    solutions in ascending order.
    """
    hits = {}
    for ti, entries in enumerate(target_rows):
        for key in {entries, tuple(-e for e in entries)}:
            hits.setdefault(key, []).append(ti)
    tallies = [Counter() for _ in target_rows]
    listings = [[] for _ in target_rows] if want_list else None
    hget = hits.get
    for digits, mat in _iter_products(lows, highs):
        matched = hget(mat)
        if matched is None:
            continue
        key = (digits[0], digits[-1], max(digits) >= bound)
        for ti in matched:
            tallies[ti][key] += 1
            if listings is not None:
                listings[ti].append(tuple(digits))
    return tallies, listings


def _check_run(size, bound, method, workers):
    """(bound, route) for a solve or survey; route is "direct" or "mitm".

    Raises ValueError for a size, bound or worker count that is not a
    positive integer, an unknown method, or a route the size cannot take.
    """
    bound = size if bound is None else bound
    for label, value in (("size", size), ("bound", bound), ("workers", workers)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{label} must be a positive integer, got {value!r}")
    if method not in ("auto", "direct", "mitm"):
        raise ValueError(f"method must be auto, direct or mitm, got {method!r}")
    if method == "auto":
        method = "direct" if size <= 3 else "mitm"
    if method == "mitm" and size < 2:
        raise ValueError("the meet-in-the-middle route needs size >= 2")
    return bound, method


def _run(targets, size, bound, constraints, method, workers, budget, want_list):
    """One SolutionSet per normalized (matrix, name) target, from one walk of the box.

    Checks the run and the constraints, takes the direct or the mitm
    route under its budget, re-multiplies every mitm listing through m_n
    and summarizes each target's tally.
    """
    bound, method = _check_run(size, bound, method, workers)
    fixed = _normalize_constraints(constraints, size)
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
        for (mat, name), tally, listed in zip(targets, tallies, listings or [None] * len(targets))
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
