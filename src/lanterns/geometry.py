"""Exact geometry of real line arrangements.

The whole pipeline runs on arrangements of affine lines y = m*x + c with
rational coefficients, pairwise distinct slopes (no two lines parallel) and
no vertical lines.  Lines carry labels 1..n assigned by strictly decreasing
slope, so far to the right of every intersection the top-to-bottom reading
of the lines is exactly 1, 2, ..., n.

Everything here is exact: coefficients are `fractions.Fraction`, equality
tests are decidable, and identical input produces bit-identical output.  No
float is ever consulted, and the kernels run on integers over the common
denominator of all coefficients.

One right-to-left sweep (`_sweep`, Bentley & Ottmann) derives an
arrangement's combinatorics: it keeps the top-to-bottom order of the lines
and a heap of the crossings of adjacent pairs, and each event reverses the
run of adjacent lines through one point.  It yields the points in order of
strictly decreasing x, each as the set of lines through it, and the block
each one reverses (the allowable sequence of Goodman & Pollack), which is
therefore right by construction: nothing is ranked afterwards and no
fiber order is checked against heights.  Two
distinct points sharing an x-coordinate violate the genericity the sweep
needs; that raises `NonGenericX` instead of being silently perturbed, and
`shear_to_generic` performs the repair explicitly when the caller asks.
It groups the points only then (`_group_points`), tests each candidate
shear by projecting them, and sweeps the one it picks.

The sweep is a pure function of the immutable `Arrangement`, so it runs
once per arrangement object and is kept in its `__dict__` as `_sweep`,
outside equality, hashing and repr; `shear_to_generic` leaves its sweep on
the arrangement it returns.  `fiber_blocks`, `order_profiles`,
`line_multiplicities` and `monodromy`'s right side read it, and no
`Fraction` is built for them.  `intersections` builds its
`IntersectionPoint`s from those sets on its first call and keeps them as
`_points`, and `NonGenericX` builds only the two points that clash.
`monodromy` keeps `_replay` (the relation's right side, a lazy
`framed.TwistReplay` of the blocks) and `_twists` (once asked for) too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from typing import Collection, Iterable, Sequence

Rational = Fraction
# Accepted spellings of an exact rational input value.  Floats are rejected
# on purpose: they smuggle binary rounding into an exact pipeline.
RationalLike = Fraction | int | str
# A sweep's result: the lines through each point, and the block it reverses.
Swept = tuple[tuple[frozenset[int], ...], tuple[tuple[int, int], ...]]


class DuplicateSlope(ValueError):
    """Two input lines are parallel, which no arrangement here may be."""

    def __init__(self, first: int, second: int, slope: Fraction):
        self.first = first
        self.second = second
        self.slope = slope
        super().__init__(
            f"input lines {first} and {second} share slope {slope}; "
            "arrangements must have pairwise distinct slopes"
        )


class NonGenericX(ValueError):
    """Two distinct intersection points share an x-coordinate.

    Carries the two offending points as (x, y, line ids) triples.  The
    caller may apply `shear_to_generic` and retry.
    """

    def __init__(self, first, second):
        self.first = first
        self.second = second
        super().__init__(
            f"intersection points {first[2]} at (x={first[0]}, y={first[1]}) and "
            f"{second[2]} at (x={second[0]}, y={second[1]}) share an x-coordinate; "
            "apply shear_to_generic to restore x-genericity"
        )


class InvariantViolation(RuntimeError):
    """An internal exactness invariant failed.

    This signals a bug in the library, never bad user input; computation
    must abort rather than continue on a broken combinatorial state.
    """


def as_rational(value: RationalLike) -> Fraction:
    """Convert an exact input (Fraction, int, or 'p/q' string) to Fraction."""
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: coefficients must be exact rationals "
            "(Fraction, int, or 'p/q' string)"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class Line:
    """An affine line y = slope*x + intercept, labeled by its arrangement id."""

    id: int
    slope: Fraction
    intercept: Fraction
    name: str | None = field(default=None, compare=False)

    def y_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    @property
    def display_name(self) -> str:
        return self.name if self.name is not None else f"L{self.id}"


@dataclass(frozen=True)
class Arrangement:
    """Lines labeled 1..n by strictly decreasing slope.

    `source_order[k]` records which input line (0-based) became line k+1;
    it is diagnostic only and ignored by equality.
    """

    lines: tuple[Line, ...]
    source_order: tuple[int, ...] = field(default=(), compare=False)

    @property
    def n(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class IntersectionPoint:
    """An exact intersection point with its incident lines and x-rank.

    `lines` is the sorted tuple of ids of all lines through the point (a
    triple concurrence is one point with three lines, not three points).
    Rank 1 is the point of largest x; ranks strictly decrease in x.
    """

    x: Fraction
    y: Fraction
    lines: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class OrderProfile:
    """Top-to-bottom (decreasing y) reading of the lines over one interval.

    Profile 0 lives to the right of every intersection, profile j between
    the projections of points of rank j and j+1; consecutive profiles
    differ by reversing the contiguous block of lines through one point.
    """

    index: int
    order: tuple[int, ...]


def validate_arrangement(
    coefficients: Iterable[Sequence[RationalLike | str | None]],
) -> Arrangement:
    """Build an Arrangement from (slope, intercept[, name]) entries.

    Lines are relabeled 1..n by strictly decreasing slope; the original
    input positions are kept in `source_order` for diagnostics.  Raises
    `DuplicateSlope` when two entries are parallel.
    """
    raw: list[tuple[Fraction, Fraction, str | None]] = []
    for entry in coefficients:
        if len(entry) not in (2, 3):
            raise ValueError(f"expected (slope, intercept[, name]), got {entry!r}")
        slope = as_rational(entry[0])
        intercept = as_rational(entry[1])
        name = entry[2] if len(entry) == 3 else None
        if name is not None and not isinstance(name, str):
            raise TypeError(f"line name must be a string, got {name!r}")
        raw.append((slope, intercept, name))
    if not raw:
        raise ValueError("an arrangement needs at least one line")

    by_slope: dict[Fraction, int] = {}
    for pos, (slope, _, _) in enumerate(raw):
        if slope in by_slope:
            raise DuplicateSlope(by_slope[slope] + 1, pos + 1, slope)
        by_slope[slope] = pos

    order = sorted(range(len(raw)), key=lambda pos: raw[pos][0], reverse=True)
    lines = tuple(
        Line(rank + 1, raw[pos][0], raw[pos][1], raw[pos][2])
        for rank, pos in enumerate(order)
    )
    return Arrangement(lines, tuple(order))


def _integer_coefficients(arr: Arrangement) -> tuple[int, list[tuple[int, int]]]:
    """D, the common denominator of all coefficients, and each line's (D*slope, D*intercept)."""
    scale = lcm(*(v.denominator for line in arr.lines for v in (line.slope, line.intercept)))
    return scale, [
        (
            line.slope.numerator * (scale // line.slope.denominator),
            line.intercept.numerator * (scale // line.intercept.denominator),
        )
        for line in arr.lines
    ]


def _group_points(arr: Arrangement) -> tuple[int, dict[tuple[int, int, int], set[int]]]:
    """Group the pairwise intersections by exact integer keys.

    With D the common denominator and M, C the integer coefficients
    D*slope, D*intercept, lines a and b meet at x = (C_b - C_a)/(M_a - M_b)
    = p/q in lowest terms with q > 0, and D*q*y = M_a*p + C_a*q there.  The
    key (p, q, M_a*p + C_a*q) therefore names the point exactly, with no
    `Fraction` arithmetic per pair.  Returns D and the line ids on each key;
    the point is (p/q, key[2]/(D*q)).  Only `shear_to_generic` groups, and
    only an arrangement whose sweep raised `NonGenericX`.
    """
    scale, coefficients = _integer_coefficients(arr)
    groups: dict[tuple[int, int, int], set[int]] = {}
    for (a, (ma, ca)), (b, (mb, cb)) in combinations(enumerate(coefficients, start=1), 2):
        p, q = cb - ca, ma - mb
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        p //= g
        q //= g
        members = groups.setdefault((p, q, ma * p + ca * q), set())
        members.add(a)
        members.add(b)
    return scale, groups


def _sweep(arr: Arrangement, k: int | None = None) -> Swept:
    """The points and blocks of one right-to-left sweep (Bentley & Ottmann, 1979).

    Returns (points, blocks) in sweep order: each point is the frozenset
    of lines through it, each block the 1-based positions [lo, hi] it
    reverses.  With k, the sweep is that of the shear by t = 2^-k
    (`_shear_lines`), keyed from `arr`'s own lines, whose common
    denominator stays small.

    The order starts as 1..n.  A heap holds each adjacent pair whose upper
    line u is steeper (u < v), keyed on where they cross.  With M, C and
    D as in `_group_points`, and A = 1 for each line (no shear) or
    A = D*2^k - M, the value (C_u*A_v - C_v*A_u)/(M_u - M_v) is -x at the
    crossing (x, y), or -(D/t)*(x - t*y) for the shear: it falls as the
    crossing moves right in the swept plane.  The key is floor(2^B times
    that value), B = 2 * bit_length(M_1 - M_n).  Denominators are at most
    M_1 - M_n, so distinct values differ by more than 2^-B and never share
    a key: equal keys are equal x.  The key stays inside the sweep.

    Each step pops every entry at the smallest key; a pair pushed twice
    (adjacent again after a line passed between them) is popped twice and
    counted once.  The upper positions chain into runs, and one run is one
    point: just right of it, its lines are near its height and no other
    line is, so they are contiguous and each adjacent pair among them
    crosses there.  The run is reversed, and the two pairs at its new
    boundary are pushed; pairs inside it never cross again.  Two runs at
    one key are two points at one x: `NonGenericX` names the two with the
    smallest top lines, in that order (the order `_group_points` meets
    them in).  A popped pair is always adjacent: a line between them just
    right of their crossing is squeezed through it, so it is one of the
    point's lines; it meets each of the two there only, so it has lain
    between them since the far right, and the pair was never pushed.
    Every block is an increasing run made decreasing, so no pair crosses
    twice, and a final order n..1 means every pair crossed once: the
    blocks are an allowable sequence (Goodman & Pollack, 1984) by
    construction, and any other final order raises `InvariantViolation`.
    """
    n = arr.n
    scale, coefficients = _integer_coefficients(arr)
    lines = [(m, c, 1 if k is None else (scale << k) - m) for m, c in coefficients]
    bits = 2 * (lines[0][0] - lines[-1][0]).bit_length()

    def crossing(u: int, v: int) -> tuple[int, int, int]:
        mu, cu, au = lines[u - 1]
        mv, cv, av = lines[v - 1]
        return ((cu * av - cv * au) << bits) // (mu - mv), u, v

    order = list(range(1, n + 1))
    where = list(range(-1, n))  # where[line id] = its 0-based position in `order`
    heap = [crossing(u, u + 1) for u in range(1, n)]
    heapify(heap)
    points, blocks = [], []
    while heap:
        key, u, _ = heappop(heap)
        tops = {where[u]}
        while heap and heap[0][0] == key:
            tops.add(where[heappop(heap)[1]])
        lo, hi = min(tops), max(tops) + 1
        if hi - lo != len(tops):
            runs: list[list[int]] = []
            for p in sorted(tops):
                if p - 1 in tops:
                    runs[-1].append(order[p + 1])
                else:
                    runs.append(order[p : p + 2])
            first, second = sorted(runs)[:2]
            raise NonGenericX(
                _located(scale, coefficients, first), _located(scale, coefficients, second)
            )
        run = order[lo : hi + 1]
        points.append(frozenset(run))
        run.reverse()
        order[lo : hi + 1] = run
        for p, line_id in enumerate(run, lo):
            where[line_id] = p
        blocks.append((lo + 1, hi + 1))
        if lo and order[lo - 1] < run[0]:
            heappush(heap, crossing(order[lo - 1], run[0]))
        if hi + 1 < n and run[-1] < order[hi + 1]:
            heappush(heap, crossing(run[-1], order[hi + 1]))
    if order != list(range(n, 0, -1)):
        raise InvariantViolation(f"the sweep ends in order {tuple(order)}, not n..1")
    return tuple(points), tuple(blocks)


def _swept(arr: Arrangement) -> Swept:
    """`_sweep(arr)`, computed once per arrangement object and kept on it."""
    swept = arr.__dict__.get("_sweep")
    if swept is None:
        if arr.n < 2:
            raise ValueError("intersections need at least two lines")
        swept = arr.__dict__["_sweep"] = _sweep(arr)
    return swept


def _located(
    scale: int, coefficients: list[tuple[int, int]], lines: Collection[int]
) -> tuple[Fraction, Fraction, tuple[int, ...]]:
    """(x, y, sorted line ids) of the point the lines meet at.

    With a and b the smallest and largest line id, x = (C_b - C_a)/(M_a - M_b)
    and D*y = M_a*x + C_a = (M_a*C_b - M_b*C_a)/(M_a - M_b).
    """
    (ma, ca), (mb, cb) = coefficients[min(lines) - 1], coefficients[max(lines) - 1]
    q = ma - mb
    return Fraction(cb - ca, q), Fraction(ma * cb - mb * ca, scale * q), tuple(sorted(lines))


def intersections(arr: Arrangement) -> tuple[IntersectionPoint, ...]:
    """All intersection points, ranked by decreasing x: the sweep's points, in sweep order.

    Built from each point's lines on the first call and kept on the
    arrangement object.  Raises `NonGenericX` when two distinct points
    share an x-coordinate.
    """
    points = arr.__dict__.get("_points")
    if points is None:
        swept = _swept(arr)[0]
        scale, coefficients = _integer_coefficients(arr)
        points = arr.__dict__["_points"] = tuple(
            IntersectionPoint(*_located(scale, coefficients, lines), rank)
            for rank, lines in enumerate(swept, start=1)
        )
    return points


def line_multiplicities(arr: Arrangement) -> dict[int, int]:
    """Number of intersection points on each line, keyed by line id."""
    mu = {line.id: 0 for line in arr.lines}
    for lines in _swept(arr)[0]:
        for line_id in lines:
            mu[line_id] += 1
    return mu


def fiber_blocks(arr: Arrangement) -> tuple[tuple[int, int], ...]:
    """The 1-based position block each intersection point reverses, in rank order.

    Block j is where the lines through the rank-j point sit in the fiber
    order O_{j-1}; the blocks are the arrangement's allowable sequence,
    produced by the sweep (`_sweep`) that finds the points, once per
    arrangement object, with no `IntersectionPoint` built.
    """
    return _swept(arr)[1]


def order_profiles(arr: Arrangement) -> tuple[OrderProfile, ...]:
    """The fiber orders O_0 .. O_s over the intervals between projections.

    O_0 is the identity order (1, ..., n), and O_j arises from O_{j-1} by
    reversing block j of `fiber_blocks`, the contiguous block of lines
    through the rank-j point.  O_j is the order the sweep that found the
    blocks held between its events j and j + 1, so it is the order of the
    lines' heights over that interval by construction.
    """
    if arr.n == 1:
        return (OrderProfile(0, (1,)),)
    orders = [tuple(range(1, arr.n + 1))]
    for lo, hi in fiber_blocks(arr):
        prev = orders[-1]
        orders.append(prev[: lo - 1] + prev[lo - 1 : hi][::-1] + prev[hi:])
    return tuple(OrderProfile(j, order) for j, order in enumerate(orders))


def _admissible_shear(arr: Arrangement, t: Fraction) -> bool:
    """Whether the shear by t > 0 is admissible, in closed form (proof at `_shear_lines`)."""
    return not t * arr.lines[-1].slope <= 1 <= t * arr.lines[0].slope


def _shear_lines(arr: Arrangement, t: Fraction) -> Arrangement:
    """Apply (x, y) -> (x - t*y, y) for an admissible t > 0.

    A line y = m*x + c maps to slope m/(1 - m*t), intercept c/(1 - m*t).
    The shear is admissible when no line turns vertical and the slope order
    (hence the labeling) is kept.  With m_1 the largest and m_n the smallest
    slope, that holds exactly when not (t*m_n <= 1 <= t*m_1), which
    `_admissible_shear` decides without building a line.  Proof: the map
    f(m) = m/(1 - m*t) has derivative 1/(1 - m*t)^2 > 0, so it increases on
    each side of 1/t, and f(m) + 1/t = 1/(t*(1 - m*t)), so it sends every
    slope above 1/t below -1/t and every slope below 1/t above -1/t.  When
    all slopes lie on one side of 1/t, f keeps their strict order.
    Otherwise a slope equals 1/t and its line turns vertical, or
    m_n < 1/t < m_1 and f(m_1) < -1/t < f(m_n) reverses the extreme pair.
    """
    transformed = []
    for line in arr.lines:
        denom = 1 - line.slope * t
        transformed.append(Line(line.id, line.slope / denom, line.intercept / denom, line.name))
    return Arrangement(tuple(transformed), arr.source_order)


def _generic_after_shear(scale: int, keys: Sequence[tuple[int, int, int]], k: int) -> bool:
    """Whether the shear by t = 2^-k leaves the grouped points at pairwise distinct x.

    A point with key (p, q, h) sits at x = p/q, y = h/(D*q) (`_group_points`),
    so the shear sends it to u = x - t*y = (p*D*2^k - h)/(D*q*2^k).  The u
    are compared as the lowest-terms fractions (p*D*2^k - h)/q, which
    differ exactly when the u do; no line is built and nothing is grouped.
    """
    seen = set()
    for p, q, h in keys:
        numerator = (p * scale << k) - h
        g = gcd(numerator, q)
        seen.add((numerator // g, q // g))
    return len(seen) == len(keys)


def shear_to_generic(arr: Arrangement) -> tuple[Arrangement, Fraction]:
    """Shear (x, y) -> (x - t*y, y) until intersection x's are distinct.

    Tries t = 0 first, then 1/2, 1/4, 1/8, ...; the first admissible t
    (`_admissible_shear`) under which the points' x's are distinct wins.
    t = 0 is the arrangement's own sweep, kept on it; only when that
    raises `NonGenericX` are the points grouped (`_group_points`).  A
    shear is an affine bijection of the plane, so it keeps the
    concurrency combinatorics, and each candidate is tested by projecting
    the grouped points (`_generic_after_shear`), not by shearing and
    regrouping the lines.  The winner is swept from the input's integer
    lines under t (`_sweep(arr, k)`), which raises if two points still
    share a u, and its points must carry the input's concurrency
    partition; that sweep is kept on the arrangement returned, so no
    arrangement is grouped or swept twice.

    The search is finite.  Every t >= 1/m_1 (m_1 the largest slope) at or
    below an inadmissible t is inadmissible too, so the first inadmissible
    t jumps to the largest 2^-k < 1/m_1, below which every t is
    admissible.  Two distinct points share an x after the shear by one t
    at most, (x1 - x2)/(y1 - y2), so at most one admissible t per pair of
    points fails.
    """
    try:
        if arr.n > 1:
            _swept(arr)
        return arr, Fraction(0)
    except NonGenericX:
        pass
    scale, groups = _group_points(arr)
    keys = list(groups)
    steep = arr.lines[0].slope
    k = 1
    for _ in range(len(keys) * (len(keys) - 1) // 2 + 1):
        if not _admissible_shear(arr, Fraction(1, 1 << k)):
            k = (steep.numerator // steep.denominator).bit_length()
        if _generic_after_shear(scale, keys, k):
            break
        k += 1
    else:
        raise InvariantViolation("no admissible shear found; this cannot happen")
    t = Fraction(1, 1 << k)
    try:
        swept = _sweep(arr, k)
    except NonGenericX:
        raise InvariantViolation(f"shear by t={t} left two points at one x") from None
    if set(swept[0]) != {frozenset(members) for members in groups.values()}:
        raise InvariantViolation(f"shear by t={t} changed the concurrency combinatorics")
    candidate = _shear_lines(arr, t)
    candidate.__dict__["_sweep"] = swept
    return candidate, t
