"""Exhaustive matrix-product solver for m_n(a_1, ..., a_m) = +/-target.

This module is deliberately independent of the formula and series
pipeline: it multiplies elementary matrices out over candidate tuples
and counts what actually hits the target, so agreement with the census
numbers is a genuine two-route check.

The workhorse is one meet-in-the-middle join.  With h = (m+1)//2 a
tuple splits into its first component, the middle a_2..a_h and the
suffix a_(h+1)..a_m, and

    m_n(tuple) = Suf * Z * elem(a_1),   Z = m_n(middle), Suf = m_n(suffix).

elem(a) = a*E11 + S is affine in a, so Z * elem(a_1) has the columns
a_1*Z*e1 + Z*e2 and -Z*e1.  With R = Suf^-1 * target, the equation
m_n(tuple) = +/-target therefore needs Z*e1 = -/+R*e2, and then a_1 is
the unique integer with a_1*Z*e1 + Z*e2 = +/-R*e1 (unique and integral
because Z*e1, a column of a determinant-1 matrix, is primitive).

The table holds every middle product with its sign normalized so that
the first column is canonical (first nonzero entry positive), keyed by
that column.  Each suffix then costs one probe per target, and each
hit solves a_1 in closed form, so the count, the bound touches, both
histograms and, when asked for, the tuples themselves come out of the
same join.  The first component is never enumerated: a pinned first
component, even one above the bound, is a range of one value.

Completeness depends on the search box: only components in 1..bound
are enumerated (constrained positions may sit above the bound).
bound_touches reports how many solutions have a component at or above
the bound; zero means every solution sits strictly inside the box,
the usual saturation sanity signal.
"""

import multiprocessing
from dataclasses import dataclass

from .matrices import Mat2, TARGETS, equal_up_to_sign, m_n, parse_target

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

    by_last maps last component -> count; by_first_last maps the pair
    (first, last) -> count, both with sorted keys; solutions is a
    lexicographically sorted tuple of component tuples when listing was
    requested, else None.

    exhaustive_within_bound is True when every solution of the equation
    provably has all free components within the bound, which holds for
    the eight named targets whenever bound >= size; then the count is
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

    All dicts are keyed by target label; exhaustive_within_bound has
    the same meaning as on SolutionSet, per target.
    """

    size: int
    bound: int
    counts: dict
    bound_touches: dict
    by_last: dict
    by_first_last: dict
    exhaustive_within_bound: dict


def _iter_products(lows, highs, bound):
    """Yield (digits, product, touched) over a digit box in ascending order.

    The product is m_n(digits) as an entry 4-tuple, maintained
    incrementally: an odometer step only rebuilds the levels to the
    right of the digit that moved.  touched flags max(digits) >= bound.
    """
    length = len(lows)
    if length == 0:
        yield (), _IDENT, False
        return
    digits = list(lows)
    mats = [None] * length
    prev = _IDENT
    for i in range(length):
        a = digits[i]
        p, q, r, s = prev
        prev = (a * p - r, a * q - s, p, q)
        mats[i] = prev
    while True:
        yield tuple(digits), mats[-1], max(digits) >= bound
        i = length - 1
        while i >= 0 and digits[i] >= highs[i]:
            digits[i] = lows[i]
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        prev = mats[i - 1] if i > 0 else _IDENT
        for j in range(i, length):
            a = digits[j]
            p, q, r, s = prev
            prev = (a * p - r, a * q - s, p, q)
            mats[j] = prev


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
    if isinstance(spec, Mat2):
        mat = spec
    elif isinstance(spec, str):
        mat = parse_target(spec)
    else:
        raise ValueError(f"target must be a Mat2 or a string, got {spec!r}")
    name = None
    if isinstance(spec, str) and spec.strip() in TARGETS:
        name = spec.strip()
    else:
        for key, value in TARGETS.items():
            if value == mat:
                name = key
                break
    return mat, name


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


def _sorted_histograms(by_last, by_first_last):
    """Histograms with sorted keys, so no traversal order leaks out."""
    return dict(sorted(by_last.items())), dict(sorted(by_first_last.items()))


def _build_table(lows, highs, bound):
    """Map canonical Z*e1 -> [(z2, middle tuple), ...] over the middle box.

    Z is sign-normalized so that its first column has a positive first
    nonzero entry.  Within a bucket the second column is fixed by z2,
    its entry in the row of that first nonzero entry (det Z = 1).
    """
    table = {}
    for digits, (a, b, c, d), _touched in _iter_products(lows, highs, bound):
        if a < 0 or (a == 0 and c < 0):
            a, b, c, d = -a, -b, -c, -d
        table.setdefault((a, c), []).append((b if a else d, digits))
    return table


def _join(table, target_rows, slows, shighs, bound, first_lo, first_hi, want_list):
    """Sweep the suffix box against the middle table, solving a_1 per hit.

    Returns per-target lists: counts, bound touches, by_last and
    by_first_last (unsorted), and the solution tuples (or None).
    """
    n_targets = len(target_rows)
    counts = [0] * n_targets
    touches = [0] * n_targets
    by_last = [{} for _ in range(n_targets)]
    by_first_last = [{} for _ in range(n_targets)]
    solutions = [[] for _ in range(n_targets)] if want_list else None
    tget = table.get
    indexed_rows = list(enumerate(target_rows))
    for digits, (p, q, r, s), stouched in _iter_products(slows, shighs, bound):
        last = digits[-1]
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
                counts[ti] += 1
                touches[ti] += stouched or first >= bound or max(mid, default=0) >= bound
                row = by_last[ti]
                row[last] = row.get(last, 0) + 1
                pair = (first, last)
                fl = by_first_last[ti]
                fl[pair] = fl.get(pair, 0) + 1
                if solutions is not None:
                    solutions[ti].append((first,) + mid + digits)
    return counts, touches, by_last, by_first_last, solutions


_WORKER_CTX = None


def _join_partition_task(first_value):
    table, target_rows, slows, shighs, bound, first_lo, first_hi, want_list = _WORKER_CTX
    slows = list(slows)
    shighs = list(shighs)
    slows[0] = shighs[0] = first_value
    return _join(table, target_rows, slows, shighs, bound, first_lo, first_hi, want_list)


def _run_partitioned(lo, hi, workers, ctx):
    """Join the suffix partitions lo..hi of the first digit, in ascending order.

    Partitions are independent, so with workers > 1 they go to a fork
    pool (children inherit the context, including the middle table,
    without pickling it); merge order stays ascending either way, which
    keeps results identical for any worker count.  Where the platform
    has no fork the partitions run serially.
    """
    global _WORKER_CTX
    values = list(range(lo, hi + 1))
    _WORKER_CTX = ctx
    try:
        if (workers <= 1 or len(values) == 1
                or "fork" not in multiprocessing.get_all_start_methods()):
            return [_join_partition_task(v) for v in values]
        pool_size = min(workers, len(values))
        with multiprocessing.get_context("fork").Pool(pool_size) as pool:
            return pool.map(_join_partition_task, values)
    finally:
        _WORKER_CTX = None


def _merge_joins(parts, n_targets):
    counts = [0] * n_targets
    touches = [0] * n_targets
    by_last = [{} for _ in range(n_targets)]
    by_first_last = [{} for _ in range(n_targets)]
    solutions = [[] for _ in range(n_targets)] if parts[0][4] is not None else None
    for part_counts, part_touches, part_last, part_fl, part_solutions in parts:
        for ti in range(n_targets):
            counts[ti] += part_counts[ti]
            touches[ti] += part_touches[ti]
            for merged, part in ((by_last[ti], part_last[ti]), (by_first_last[ti], part_fl[ti])):
                for key, value in part.items():
                    merged[key] = merged.get(key, 0) + value
            if solutions is not None:
                solutions[ti].extend(part_solutions[ti])
    histograms = [_sorted_histograms(last, fl) for last, fl in zip(by_last, by_first_last)]
    if solutions is not None:
        for listed in solutions:
            listed.sort()
    return counts, touches, histograms, solutions


def _solve_mitm(target_rows, size, bound, fixed, workers, budget, want_list):
    """Count (and optionally list) solutions for a batch of targets: one table, one join."""
    lows, highs = _box(size, bound, fixed)
    h = (size + 1) // 2
    _check_budget(_projected(lows[1:h], highs[1:h]), budget, "the middle table")
    _check_budget(_projected(lows[h:], highs[h:]), budget, "the suffix sweep")
    table = _build_table(lows[1:h], highs[1:h], bound)
    ctx = (table, target_rows, tuple(lows[h:]), tuple(highs[h:]), bound,
           lows[0], highs[0], want_list)
    parts = _run_partitioned(lows[h], highs[h], workers, ctx)
    return _merge_joins(parts, len(target_rows))


def _solve_direct(entries, size, bound, fixed, want_list):
    """Plain full enumeration; the reference the join is checked against."""
    negated = tuple(-e for e in entries)
    lows, highs = _box(size, bound, fixed)
    count = 0
    touches = 0
    by_last = {}
    by_first_last = {}
    solutions = [] if want_list else None
    for digits, mat, touched in _iter_products(lows, highs, bound):
        if mat == entries or mat == negated:
            count += 1
            touches += touched
            last = digits[-1]
            by_last[last] = by_last.get(last, 0) + 1
            pair = (digits[0], last)
            by_first_last[pair] = by_first_last.get(pair, 0) + 1
            if solutions is not None:
                solutions.append(digits)
    return count, touches, _sorted_histograms(by_last, by_first_last), solutions


def solve(query):
    """Solve one OracleQuery exhaustively; returns a SolutionSet."""
    mat, name = _normalize_target(query.target)
    size = query.size
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError(f"size must be a positive integer, got {size!r}")
    bound = size if query.bound is None else query.bound
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        raise ValueError(f"bound must be a positive integer, got {bound!r}")
    fixed = _normalize_constraints(query.constraints, size)
    method = query.method
    if method not in ("auto", "direct", "mitm"):
        raise ValueError(f"method must be auto, direct or mitm, got {method!r}")
    if method == "auto":
        method = "direct" if size <= 3 else "mitm"
    if method == "mitm" and size < 2:
        raise ValueError("the meet-in-the-middle route needs size >= 2")
    budget = query.max_table_entries
    entries = mat.entries()

    if method == "direct":
        lows, highs = _box(size, bound, fixed)
        _check_budget(_projected(lows, highs), budget, "direct enumeration")
        count, touches, (by_last, by_first_last), listed = _solve_direct(
            entries, size, bound, fixed, query.list_solutions)
    else:
        counts, touch_list, histograms, listings = _solve_mitm(
            [entries], size, bound, fixed, query.workers, budget, query.list_solutions)
        count, touches = counts[0], touch_list[0]
        by_last, by_first_last = histograms[0]
        listed = listings[0] if listings is not None else None
        for digits in listed or ():
            if not equal_up_to_sign(m_n(digits), mat):
                raise RuntimeError(f"internal error: {digits} fails re-verification")

    return SolutionSet(
        target=mat,
        target_name=name,
        size=size,
        bound=bound,
        count=count,
        bound_touches=touches,
        by_last=by_last,
        by_first_last=by_first_last,
        method=method,
        exhaustive_within_bound=name is not None and bound >= size,
        solutions=tuple(listed) if query.list_solutions else None,
    )


def survey(size, bound=None, workers=1, max_table_entries=DEFAULT_MAX_TABLE_ENTRIES,
           targets=None):
    """Count solutions for a whole batch of targets at one size.

    All targets share a single middle table and a single suffix sweep,
    so surveying the eight named targets costs little more than one.
    """
    if targets is None:
        specs = list(TARGETS)
    else:
        specs = list(targets)
    if not specs:
        raise ValueError("survey needs at least one target")
    labels = []
    entry_rows = []
    named = []
    for spec in specs:
        mat, name = _normalize_target(spec)
        labels.append(name if name is not None else repr(mat))
        entry_rows.append(mat.entries())
        named.append(name is not None)
    if len(set(labels)) != len(labels):
        raise ValueError("survey targets must be distinct")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError(f"size must be a positive integer, got {size!r}")
    bound = size if bound is None else bound
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        raise ValueError(f"bound must be a positive integer, got {bound!r}")

    if size <= 3:
        lows, highs = _box(size, bound, {})
        _check_budget(_projected(lows, highs), max_table_entries, "direct enumeration")
        counts, touches, histograms = [], [], []
        for entries in entry_rows:
            cnt, tch, hists, _ = _solve_direct(entries, size, bound, {}, False)
            counts.append(cnt)
            touches.append(tch)
            histograms.append(hists)
    else:
        counts, touches, histograms, _ = _solve_mitm(
            entry_rows, size, bound, {}, workers, max_table_entries, False)

    return SurveyResult(
        size=size,
        bound=bound,
        counts=dict(zip(labels, counts)),
        bound_touches=dict(zip(labels, touches)),
        by_last={label: hists[0] for label, hists in zip(labels, histograms)},
        by_first_last={label: hists[1] for label, hists in zip(labels, histograms)},
        exhaustive_within_bound={
            label: is_named and bound >= size
            for label, is_named in zip(labels, named)
        },
    )


def count_by_last(target, size, last, bound=None, workers=1,
                  max_table_entries=DEFAULT_MAX_TABLE_ENTRIES):
    """Number of solutions whose last component equals `last`."""
    query = OracleQuery(target=target, size=size, bound=bound,
                        constraints={size: last}, workers=workers,
                        max_table_entries=max_table_entries)
    return solve(query).count


def count_component_at(target, size, position, value, bound=None, workers=1,
                       max_table_entries=DEFAULT_MAX_TABLE_ENTRIES):
    """Number of solutions with the given component pinned at a position."""
    query = OracleQuery(target=target, size=size, bound=bound,
                        constraints={position: value}, workers=workers,
                        max_table_entries=max_table_entries)
    return solve(query).count


def count_first_last(target, size, first, last, bound=None, workers=1,
                     max_table_entries=DEFAULT_MAX_TABLE_ENTRIES):
    """Number of solutions with both the first and last component pinned."""
    if size == 1 and first != last:
        return 0
    constraints = {1: first, size: last}
    query = OracleQuery(target=target, size=size, bound=bound,
                        constraints=constraints, workers=workers,
                        max_table_entries=max_table_entries)
    return solve(query).count
