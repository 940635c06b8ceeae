"""Exact geometry of real line arrangements.

The whole pipeline runs on arrangements of affine lines y = m*x + c with
rational coefficients, pairwise distinct slopes (no two lines parallel) and
no vertical lines.  Lines carry labels 1..n assigned by strictly decreasing
slope, so far to the right of every intersection the top-to-bottom reading
of the lines is exactly 1, 2, ..., n.

Everything here is exact: coefficients are `fractions.Fraction`, equality
tests are decidable, and identical input produces bit-identical output.  No
float is ever consulted.  The kernels run on integers: points are grouped
by integer keys over the common denominator of all coefficients, ranked on
the integer floor(2^B * x), B twice the bit length of the largest
denominator of a point's x (a key no two distinct x's share), and every
fiber order is checked against integer heights at integer sample pairs
(p, q) standing for x = p/q, each adjacent pair of lines at the two ends
of the run of orders in which it is adjacent (`_checked_blocks`).

Intersection points are ranked by strictly decreasing x-coordinate.  Two
distinct points sharing an x-coordinate violate the genericity the ranking
needs; that raises `NonGenericX` instead of being silently perturbed, and
`shear_to_generic` performs the repair explicitly when the caller asks.
It tests each candidate shear by projecting the grouped points, and only
the shear it picks builds and groups lines.

The ranked points and the block each one reverses (the arrangement's
allowable sequence) are a pure function of the immutable `Arrangement`,
so they are derived and checked once per arrangement object and kept in
its `__dict__`, outside equality, hashing and repr.  The ranking keeps
integer entries (p, q, h, members), the point (p/q, h/(D*q)) and the set
of lines through it (`_ranked`): the genericity and pair-count checks,
`fiber_blocks` (with its contiguity and height checks) and
`line_multiplicities` read those, and no `Fraction` is built for them.
`intersections` builds its `IntersectionPoint`s from the entries on its
first call, and `NonGenericX` builds only the two points that clash.
The kept results are `_groups` (the grouping, dropped once the points
are ranked), `_ranked`, `_points` (once asked for), `_blocks`, and
`monodromy`'s `_replay` (the relation's right side, a lazy
`framed.TwistReplay` of the blocks) and `_twists` (once asked for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import gt, itemgetter
from typing import Iterable, Sequence

Rational = Fraction
# Accepted spellings of an exact rational input value.  Floats are rejected
# on purpose: they smuggle binary rounding into an exact pipeline.
RationalLike = Fraction | int | str


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
    the point is (p/q, key[2]/(D*q)).
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


def _grouping(arr: Arrangement) -> tuple[int, dict[tuple[int, int, int], set[int]]]:
    """`_group_points(arr)`, computed once per arrangement object and kept on it."""
    grouped = arr.__dict__.get("_groups")
    if grouped is None:
        grouped = arr.__dict__["_groups"] = _group_points(arr)
    return grouped


def _ranked(arr: Arrangement) -> tuple[int, tuple[tuple[int, int, int, set[int]], ...]]:
    """D and the grouped points ranked by decreasing x, as entries (p, q, h, members).

    Computed once per arrangement object and kept on it (the grouping it
    was read from is then dropped).  Raises `NonGenericX` when two
    distinct points share an x-coordinate.
    """
    ranked = arr.__dict__.get("_ranked")
    if ranked is None:
        if arr.n < 2:
            raise ValueError("intersections need at least two lines")
        ranked = arr.__dict__["_ranked"] = _ranked_entries(arr, *_grouping(arr))
        arr.__dict__.pop("_groups", None)
    return ranked


def intersections(arr: Arrangement) -> tuple[IntersectionPoint, ...]:
    """All intersection points, grouped exactly and ranked by decreasing x.

    Points are ranked on an integer key that is strictly monotone in x (see
    `_ranked_entries`), and no float is consulted.  The points are built
    from the kept ranked entries on the first call and kept on the
    arrangement object.  Raises `NonGenericX` when two distinct points
    share an x-coordinate.
    """
    points = arr.__dict__.get("_points")
    if points is None:
        scale, entries = _ranked(arr)
        points = arr.__dict__["_points"] = tuple(
            IntersectionPoint(*_located(scale, entry), rank)
            for rank, entry in enumerate(entries, start=1)
        )
    return points


def _ranked_entries(
    arr: Arrangement, scale: int, groups: dict[tuple[int, int, int], set[int]]
) -> tuple[int, tuple[tuple[int, int, int, set[int]], ...]]:
    """The grouped points ranked by decreasing x = p/q, checked for genericity and pair count.

    One sort on the key floor(2^B * p/q), B = 2 * bit_length(max q).  The
    key is monotone in x, and injective on distinct x's: p1/q1 != p2/q2
    differ by at least 1/(q1*q2) >= 1/max(q)^2 > 2^-B, so their keys
    differ.  Equal keys therefore mean equal x, and two distinct points
    with equal keys are adjacent after the sort.
    """
    bits = 2 * max(q for _, q, _ in groups).bit_length()
    located = sorted(
        (((p << bits) // q, p, q, h, members) for (p, q, h), members in groups.items()),
        key=itemgetter(0),
        reverse=True,
    )
    for first, second in zip(located, located[1:]):
        if first[0] == second[0]:
            raise NonGenericX(_located(scale, first[1:]), _located(scale, second[1:]))
    pair_count = sum(len(entry[4]) * (len(entry[4]) - 1) // 2 for entry in located)
    if pair_count != arr.n * (arr.n - 1) // 2:
        raise InvariantViolation(
            f"pair count {pair_count} != C({arr.n},2); intersection grouping is broken"
        )
    return scale, tuple(entry[1:] for entry in located)


def _located(scale: int, entry: tuple) -> tuple[Fraction, Fraction, tuple[int, ...]]:
    """(x, y, sorted line ids) of a ranked entry (p, q, h, members)."""
    p, q, h, members = entry
    return Fraction(p, q), Fraction(h, scale * q), tuple(sorted(members))


def line_multiplicities(arr: Arrangement) -> dict[int, int]:
    """Number of intersection points on each line, keyed by line id."""
    mu = {line.id: 0 for line in arr.lines}
    for *_, members in _ranked(arr)[1]:
        for line_id in members:
            mu[line_id] += 1
    return mu


def _check_heights(
    j: int,
    order: list[int],
    coefficients: list[tuple[int, int]],
    p: int,
    q: int,
    spans: Sequence[tuple[int, int]],
) -> None:
    """At the sample x = p/q (q > 0) heights must strictly decrease along each span of profile j.

    Each span (start, stop) is a slice of positions of the order; within
    it, sorting the lines by height at x must give the order with no two
    heights equal, which takes one evaluation per position and no sort.
    `coefficients` holds each line's integers (D*slope, D*intercept), D the
    common denominator of all coefficients, in the order's line order, so
    the integers D*q*y = (D*slope)*p + (D*intercept)*q order the heights
    exactly; they are compared with a C-level `map`.
    """
    for start, stop in spans:
        heights = [m * p + c * q for m, c in coefficients[start:stop]]
        if not all(map(gt, heights, heights[1:])):
            k = start + next(k for k in range(len(heights) - 1) if heights[k] <= heights[k + 1])
            raise InvariantViolation(
                f"profile {j} is {tuple(order)}, but at x={Fraction(p, q)} line {order[k]} is "
                f"not above line {order[k + 1]}"
            )


def _checked_blocks(
    arr: Arrangement, entries: Sequence[tuple[int, int, int, set[int]]]
) -> tuple[tuple[int, int], ...]:
    """The position block B_j = [lo, hi] reversed at each point, checked against the geometry.

    `entries` are the ranked points (p, q, h, members), x = p/q in lowest
    terms and strictly decreasing (`_ranked`).  O_0 is the identity order
    (1, ..., n), and O_j arises from O_{j-1} by reversing the block of
    lines through the rank-j point, which must be contiguous; a line ->
    position array finds the block, so the block holds exactly the point's
    lines.  Each O_j is checked at a sample x_j' inside its interval: x_1 +
    1 right of every point, the midpoint (ad + cb)/(2bd) of consecutive x's
    a/b and c/d, and x_s - 1 left of them, all as integer pairs, strictly
    decreasing in j.

    The check is on adjacent pairs, each at the two ends of its run.  O_j
    is right at x_j' when every pair of lines adjacent in O_j is in its
    order there.  A pair adjacent in O_j1 .. O_j2 (with the same line above)
    is checked at x_j1' and x_j2' only: two lines cross once, so the x
    where one lies above the other form a half-line, and a half-line that
    holds x_j1' and x_j2' holds every sample between them.  A pair stops
    being adjacent only when a block touches it, so a run starts at O_0 or
    at the pairs in and beside block j (born at step j, checked at x_j'),
    and ends at O_s or at the pairs in and beside block j + 1 (dying at
    step j + 1, checked at x_j' too).  O_0 and O_s are scanned in full; at
    every other sample one `_check_heights` call covers both slices of
    positions, as one slice when they meet.  So the check passes and fails
    on exactly the inputs a full scan of every O_j does, at
    O(n + sum of block sizes) height evaluations instead of O(n * points).
    A violation aborts because it can only mean broken arithmetic, never
    bad input.
    """
    n = arr.n
    _, coefficients = _integer_coefficients(arr)
    order = list(range(1, n + 1))
    where = list(range(-1, n))  # where[line id] = its 0-based position in `order`
    a, b = entries[0][:2]  # a/b is the x of the point before, x_1 at first
    everything = ((0, n),)
    _check_heights(0, order, coefficients, a + b, b, everything)
    born_start = born_stop = 0  # the slice of positions in and beside the previous block
    blocks = []
    for j, (c, d, _, members) in enumerate(entries, start=1):
        positions = [where[line_id] for line_id in members]
        lo, hi = min(positions), max(positions)
        start, stop = lo - 1 if lo else 0, hi + 2  # in and beside this block
        if j > 1:  # O_{j-1} at its sample: the pairs born at step j - 1 and dying at step j
            if start <= born_stop and born_start <= stop:  # the slices meet: check their union
                spans = ((start if start < born_start else born_start,
                          stop if stop > born_stop else born_stop),)
            else:
                spans = ((born_start, born_stop), (start, stop))
            _check_heights(j - 1, order, coefficients, a * d + c * b, 2 * b * d, spans)
        if hi - lo + 1 != len(positions):
            raise InvariantViolation(
                f"lines {tuple(sorted(members))} not contiguous in profile {j - 1}: "
                f"{tuple(order)}"
            )
        order[lo : hi + 1] = order[lo : hi + 1][::-1]
        coefficients[lo : hi + 1] = coefficients[lo : hi + 1][::-1]
        for k in range(lo, hi + 1):
            where[order[k]] = k
        blocks.append((lo + 1, hi + 1))
        born_start, born_stop = start, stop
        a, b = c, d
    _check_heights(len(entries), order, coefficients, a - b, b, everything)
    return tuple(blocks)


def fiber_blocks(arr: Arrangement) -> tuple[tuple[int, int], ...]:
    """The checked 1-based position block each intersection point reverses, in rank order.

    Block j is where the lines through the rank-j point sit in the fiber
    order O_{j-1}; it is the arrangement's allowable sequence.  Read off
    the ranked integer entries (no `IntersectionPoint` is built), computed
    once per arrangement object and kept on it.  Every fiber order is
    checked against the exact heights: each pair of lines adjacent over a
    run of orders is checked at the first and last samples of its run,
    which is enough because the x where one line of a pair lies above the
    other form a half-line (`_checked_blocks`).
    """
    blocks = arr.__dict__.get("_blocks")
    if blocks is None:
        blocks = arr.__dict__["_blocks"] = _checked_blocks(arr, _ranked(arr)[1])
    return blocks


def order_profiles(arr: Arrangement) -> tuple[OrderProfile, ...]:
    """The fiber orders O_0 .. O_s over the intervals between projections.

    The orders are derived from the combinatorics: O_0 is the identity
    order (1, ..., n), and O_j arises from O_{j-1} by reversing the block of
    lines through the rank-j point, which must be contiguous.  Each O_j is
    checked against the geometry: at a sample x inside its interval the
    heights strictly decrease along O_j.  That is checked pair by pair: a
    pair of lines adjacent in O_j1 .. O_j2 is compared at the samples of
    O_j1 and O_j2 only, since two lines cross once, so the x where one lies
    above the other form a half-line, which holds every sample between two
    it holds.  A violation aborts because it can only mean broken
    arithmetic, never bad input.

    The orders replay the arrangement's checked blocks (`fiber_blocks`),
    which are derived and checked once per arrangement object.
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
    A shear is an affine bijection of the plane, so it keeps the
    concurrency combinatorics, and each candidate is tested by projecting
    the input's grouped points (`_generic_after_shear`), not by shearing
    and regrouping the lines: only the winner is sheared and grouped, and
    its genericity and concurrency partition are then checked, so every
    shear groups twice.  The grouping stays on the arrangement returned,
    so `intersections` does not group it again; an arrangement whose
    points were already ranked is generic as it is.

    The search is finite.  Every t >= 1/m_1 (m_1 the largest slope) at or
    below an inadmissible t is inadmissible too, so the first inadmissible
    t jumps to the largest 2^-k < 1/m_1, below which every t is
    admissible.  Two distinct points share an x after the shear by one t
    at most, (x1 - x2)/(y1 - y2), so at most one admissible t per pair of
    points fails.
    """
    if "_ranked" in arr.__dict__:
        return arr, Fraction(0)
    scale, groups = _grouping(arr)
    if len({(p, q) for p, q, _ in groups}) == len(groups):
        return arr, Fraction(0)

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
    candidate = _shear_lines(arr, t)
    _, sheared = _grouping(candidate)
    if len({(p, q) for p, q, _ in sheared}) != len(sheared):
        raise InvariantViolation(f"shear by t={t} left two points at one x")
    if {frozenset(members) for members in sheared.values()} != {
        frozenset(members) for members in groups.values()
    }:
        raise InvariantViolation(f"shear by t={t} changed the concurrency combinatorics")
    return candidate, t
