"""Named arrangement families, pair orderings, and structure checkers.

Families:

* random: seeded slopes and intercepts, optionally routing a third line
  through the meet of two others.
* pencil: all lines through one point; the relation degenerates to the
  outer twist equalling one interior twist around everything.
* wajnryb: a fully generic arrangement realizing the lexicographic pair
  order: line i of a pencil translated right by (n-i)!/(n-1)! (line n
  stays), a closed form proved in `realize_wajnryb`.
* daisy: lines 2..n concurrent, line 1 crossing them to the right of the
  center, rightmost crossing with line 2.
* doubled daisy: lines 2..n-1 concurrent, line 1 crossing everything to
  the right of the center, line n crossing the middle lines to its left.

A PairOrdering lists the C(n,2) unordered pairs in decreasing order of the
x-coordinate of the intersection realizing them (rank order).  An ordering
is admissible when the points of line i against lines j < k keep (i,j)
before (i,k); `realize_ordering` searches for an arrangement realizing an
admissible ordering exactly, deciding the homogeneous strict inequalities
on the intercepts for a handful of slope vectors by an integer simplex
whose every answer comes with a checked point or Gordan certificate, and
reports `Unrealized` with its best partial match when the bounded search
runs out.  Admissible does not imply realizable: for any slopes, the
x-coordinate of points(i,k) is a convex combination of those of (i,j) and
(j,k) whenever i < j < k, so e.g. [(1,2), (2,3), (1,3)] on three lines is
admissible but never realizable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

from .geometry import (
    Arrangement,
    InvariantViolation,
    intersections,
    validate_arrangement,
)
from .monodromy import verified_relation
from .relation import Relation, VerificationReport


class MalformedOrdering(ValueError):
    """A pair ordering misses or repeats a pair (or uses bad pairs)."""


@dataclass(frozen=True)
class PairOrdering:
    """The C(n,2) line pairs listed by decreasing intersection x (rank order)."""

    n: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Unrealized:
    """Outcome of an exhausted realization search: honest, with a witness.

    `candidate` realizes the longest target prefix the search could reach
    (when any); `first_mismatch` is the 0-based position where the
    candidate's rank order first departs from the target.
    """

    ordering: PairOrdering
    candidate: Arrangement | None
    realized: PairOrdering | None
    first_mismatch: int | None
    message: str


def validate_ordering(ordering: PairOrdering) -> bool:
    """Admissibility: (i,j) must come before (i,k) whenever j < k.

    Raises MalformedOrdering when n < 2 or the sequence is not a
    permutation of all pairs (i, j) with 1 <= i < j <= n.
    """
    n = ordering.n
    if n < 2:
        raise MalformedOrdering(f"a pair ordering needs n >= 2 lines, got n = {n}")
    expected = {(i, j) for i, j in combinations(range(1, n + 1), 2)}
    seen = set(ordering.pairs)
    if len(ordering.pairs) != len(expected) or seen != expected:
        missing = sorted(expected - seen)
        extra = sorted(set(ordering.pairs) - expected) or sorted(
            p for p in set(ordering.pairs) if ordering.pairs.count(p) > 1
        )
        raise MalformedOrdering(
            f"not a permutation of all pairs: missing {missing}, bad/duplicated {extra}"
        )
    position = {pair: k for k, pair in enumerate(ordering.pairs)}
    for i in range(1, n + 1):
        ranks = [position[(i, j)] for j in range(i + 1, n + 1)]
        if any(a >= b for a, b in zip(ranks, ranks[1:])):
            return False
    return True


def extract_pair_ordering(arr: Arrangement) -> PairOrdering:
    """Rank-ordered pair list of a simple (double points only) arrangement."""
    points = intersections(arr)
    pairs = []
    for point in points:
        if len(point.lines) != 2:
            raise ValueError(
                f"point of rank {point.rank} lies on {len(point.lines)} lines; "
                "pair orderings only make sense for simple arrangements"
            )
        pairs.append((point.lines[0], point.lines[1]))
    return PairOrdering(arr.n, tuple(pairs))


# ---------------------------------------------------------------------------
# constructors


# Slopes are drawn as a/b with |a| <= 24 and 1 <= b <= 5: 169 distinct values.
RANDOM_SLOPES = 169


def random_arrangement(
    rng: random.Random, n: int, allow_concurrent: bool = True
) -> Arrangement:
    """Seeded random arrangement; occasionally routes three lines through
    one point to exercise the multiple-point path.

    Its slopes take one of `RANDOM_SLOPES` values, so n above that raises
    `ValueError` (the draw could never find n distinct slopes).
    """
    if n > RANDOM_SLOPES:
        raise ValueError(
            f"random_arrangement draws from {RANDOM_SLOPES} distinct slopes, so n <= "
            f"{RANDOM_SLOPES}; got n = {n}"
        )
    slopes: set[Fraction] = set()
    while len(slopes) < n:
        slopes.add(Fraction(rng.randint(-24, 24), rng.randint(1, 5)))
    entries = [
        [slope, Fraction(rng.randint(-12, 12), rng.randint(1, 4))]
        for slope in sorted(slopes, reverse=True)
    ]
    if allow_concurrent and n >= 3 and rng.random() < 0.4:
        i, j, k = rng.sample(range(n), 3)
        (mi, ci), (mj, cj) = entries[i], entries[j]
        x = (cj - ci) / (mi - mj)
        y = mi * x + ci
        entries[k][1] = y - entries[k][0] * x
    return validate_arrangement([tuple(e) for e in entries])


def make_pencil(n: int) -> Arrangement:
    """n lines through the origin with slopes n, n-1, ..., 1."""
    if n < 2:
        raise ValueError(f"a pencil needs n >= 2 lines, got {n}")
    return validate_arrangement([(n + 1 - i, 0) for i in range(1, n + 1)])


def make_daisy(n: int) -> Arrangement:
    """Lines 2..n through the origin, line 1 crossing them to the right.

    Slopes n, n-1, ..., 1 and intercept -1 on line 1 put the crossing with
    line j at x = 1/(j-1), so the rightmost crossing is with line 2 and the
    crossings march monotonically toward the center.
    """
    if n < 3:
        raise ValueError(f"a daisy needs n >= 3 lines, got {n}")
    coefficients = [(n, -1)] + [(n + 1 - i, 0) for i in range(2, n + 1)]
    return validate_arrangement(coefficients)


def make_doubled_daisy(n: int) -> Arrangement:
    """Middle lines 2..n-1 concurrent, line 1 crossing right, line n left.

    With slopes n, n-1, ..., 1, intercept -1 on line 1 and -1/2 on line n:
    line 1 meets line j at x = 1/(j-1) > 0 and line n at x = 1/(2(n-1)),
    still right of the center; line n meets line j at x = -1/(2(n-j)) < 0,
    nearest crossing with line 2.  All 2n-2 points have distinct x.
    """
    if n < 5:
        raise ValueError(f"a doubled daisy needs n >= 5 lines, got {n}")
    coefficients: list[tuple[Fraction, Fraction]] = [(Fraction(n), Fraction(-1))]
    coefficients += [(Fraction(n + 1 - i), Fraction(0)) for i in range(2, n)]
    coefficients += [(Fraction(1), Fraction(-1, 2))]
    return validate_arrangement(coefficients)


def realize_wajnryb(n: int) -> Arrangement:
    """Generic arrangement whose pair order is lexicographic, in closed form.

    Line i of the pencil y = m_i*x, m_i = n+1-i, is shifted right by
    o_i = (n-i)!/(n-1)! for i < n (o_1 = 1), and line n stays put (o_n = 0):
    y = m_i*(x - o_i), intercept -(n+1-i)!/(n-1)! for i < n and 0 for line n.
    Lines i < j meet at x_ij = (m_i*o_i - m_j*o_j)/d with d = j-i = m_i-m_j.

    Proof that the rank order is (1,2), ..., (1,n), (2,3), ..., (n-1,n):

    * Within row i (j < n): d(d+1)(x_ij - x_i,j+1)
      = m_i*o_i - (d+1)*m_j*o_j + d*m_{j+1}*o_{j+1} >= m_i*o_i - (d+1)*m_j*o_j > 0.
      Every ratio o_{k+1}/o_k = 1/(n-k) before line n is at most 1/2, so
      (d+1)*o_j <= 2^d*o_j <= o_i, and m_j < m_i.
    * Between rows (i <= n-2): x_i,n = m_i*o_i/(n-i) > o_i = m_{i+1}*o_{i+1}
      >= x_{i+1,i+2}.

    So the C(n,2) crossings have strictly decreasing x in lexicographic
    order; in particular they are distinct double points.
    """
    if n < 3:
        raise ValueError(f"the lexicographic family needs n >= 3 lines, got {n}")
    shifted = [(n + 1 - i, -Fraction(factorial(n + 1 - i), factorial(n - 1))) for i in range(1, n)]
    return validate_arrangement(shifted + [(1, 0)])


# ---------------------------------------------------------------------------
# exact feasibility search for pair orderings


def _pivot(tab: list[list[int]], r: int, s: int, d: int) -> int:
    """Exchange the basic variable of row r with the column s, fraction-free.

    Entries are integers over the common denominator d > 0 (Bareiss's
    integer pivoting): every entry is a minor of the starting tableau, so the
    division by the old denominator is exact.  Returns the new denominator,
    the pivot, made positive by negating the whole tableau when needed.
    """
    pivot = tab[r]
    p = pivot[s]
    for i, row in enumerate(tab):
        f = row[s]
        if f:
            if i != r:
                new = [(p * x - f * y) // d for x, y in zip(row, pivot)]
                new[s] = -f
                tab[i] = new
        elif p != d:
            tab[i] = [p * x // d for x in row]
    pivot[s] = d
    if p < 0:
        tab[:] = [[-x for x in row] for row in tab]
        p = -p
    return p


def _strict_solution(rows: list[tuple[int, ...]], nvars: int) -> tuple[bool, list[int]]:
    """Decide the strict homogeneous system a_i . c > 0 over free integers c.

    Returns (True, c), c a primitive integer point meeting every row
    strictly, or (False, y), y a Gordan certificate: y >= 0, y != 0 and
    sum(y_i a_i) = 0.  Both are checked exactly before they are returned, so
    a wrong answer raises InvariantViolation; `realize_ordering` states the
    LP and why the certificate is one.

    Simplex on a compact tableau, row k reading d*x_k = rhs - sum(entry *
    nonbasic), row 0 being the objective eps.  The origin is a basic
    feasible solution, so there is no Phase I.  The free c_k are pivoted
    into the basis first, on rows whose right side is 0 so no value moves,
    and their rows then sit out every ratio test, so they never leave.
    Bland's rule (smallest variable index enters and, among tied ratios,
    leaves) keeps the degenerate pivots from cycling.
    """
    m, r = nvars, len(rows)
    # Variables: c_k is k, eps is m, the slack of row i is m + 1 + i and the
    # slack of eps <= 1 is m + 1 + r.  Column 0 holds the right-hand side.
    cols = [-1] + list(range(m + 1))
    basis = [-1] + list(range(m + 1, m + r + 2))
    tab = [[0] * (m + 1) + [-1]]
    tab += [[0] + [-a for a in row] + [1] for row in rows]
    tab.append([1] + [0] * m + [1])
    d = 1
    for k in range(1, m + 1):
        # Any nonzero pivot keeps the values; the smallest keeps the integers small.
        candidates = [(abs(tab[i][k]), i) for i in range(1, r + 1) if basis[i] > m and tab[i][k]]
        if candidates:
            i = min(candidates)[1]
            d = _pivot(tab, i, k, d)
            basis[i], cols[k] = cols[k], basis[i]
    while True:
        objective = tab[0]
        entering = [(cols[j], j) for j in range(1, m + 2) if objective[j] < 0]
        if not entering:
            break
        s = min(entering)[1]
        leave = None
        for i in range(1, r + 2):
            a = tab[i][s]
            if a > 0 and basis[i] >= m:
                if leave is None:
                    leave = i
                    continue
                # Compare the ratios tab[i][0]/a and tab[leave][0]/tab[leave][s].
                delta = tab[i][0] * tab[leave][s] - tab[leave][0] * a
                if delta < 0 or (delta == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InvariantViolation("simplex: unbounded, but eps <= 1 bounds the objective")
        d = _pivot(tab, leave, s, d)
        basis[leave], cols[s] = cols[s], basis[leave]

    if tab[0][0] > 0:  # the optimum eps is positive
        point = [0] * m
        for i in range(1, r + 2):
            if basis[i] < m:
                point[basis[i]] = tab[i][0]
        g = gcd(*point)
        if g > 1:
            point = [v // g for v in point]
        if any(sum(a * v for a, v in zip(row, point)) <= 0 for row in rows):
            raise InvariantViolation(f"simplex point {point} misses a strict row")
        return True, point
    y = [0] * r
    for j in range(1, m + 2):
        if m < cols[j] <= m + r:
            y[cols[j] - m - 1] = tab[0][j]
    combination = [sum(yi * row[k] for yi, row in zip(y, rows)) for k in range(m)]
    if min(y, default=0) < 0 or not any(y) or any(combination):
        raise InvariantViolation(f"simplex certificate {y} is not a Gordan certificate")
    return False, y


def _pair_forms(
    slopes: list[Fraction], pairs: list[tuple[int, int]]
) -> dict[tuple[int, int], list[int]]:
    """Intersection x of each pair as a linear form in c_2..c_n (c_1 = 0).

    Lines i < j cross at x = (c_j - c_i)/(m_i - m_j).  Every form is scaled by
    one positive K, the lcm of the slope gaps' numerators, which makes it
    integer and keeps every comparison between crossings.
    """
    n = len(slopes)
    gaps = {(i, j): slopes[i - 1] - slopes[j - 1] for i, j in pairs}
    scale = lcm(*(gap.numerator for gap in gaps.values()))
    forms = {}
    for (i, j), gap in gaps.items():
        weight = scale // gap.numerator * gap.denominator  # K/(m_i - m_j), exact
        coeffs = [0] * (n - 1)
        coeffs[j - 2] = weight
        if i >= 2:
            coeffs[i - 2] = -weight
        forms[(i, j)] = coeffs
    return forms


def _chain_inequalities(
    forms: dict[tuple[int, int], list[int]],
    chain: list[tuple[int, int]],
    below: list[tuple[int, int]],
) -> list[tuple[int, ...]]:
    """Rows of x(u) > x(v) for consecutive chain pairs, then of x(last) > x(q) below.

    Each row is divided by the gcd of its entries, a positive factor, so it
    states the same strict inequality with smaller integers.
    """
    rows = []
    for u, v in list(zip(chain, chain[1:])) + [(chain[-1], q) for q in below]:
        row = [a - b for a, b in zip(forms[u], forms[v])]
        k = gcd(*row)
        rows.append(tuple(a // k for a in row) if k > 1 else tuple(row))
    return rows


def _slope_candidates(n: int) -> list[list[Fraction]]:
    return [
        [Fraction(n + 1 - i) for i in range(1, n + 1)],
        [Fraction(2) ** (n - i) for i in range(1, n + 1)],
        [Fraction((n + 1 - i) ** 2) for i in range(1, n + 1)],
        [Fraction(1, i) for i in range(1, n + 1)],
    ]


def _arrangement_from_intercepts(
    slopes: list[Fraction], values: list[int]
) -> Arrangement:
    intercepts = [Fraction(0)] + list(values)
    return validate_arrangement(list(zip(slopes, intercepts)))


def realize_ordering(ordering: PairOrdering) -> Arrangement | Unrealized:
    """Search for an arrangement realizing an admissible pair order exactly.

    For each candidate slope vector (line 1's intercept fixed at 0) the
    realized order is a conjunction of strict homogeneous inequalities
    a_i . c > 0 over the free intercepts c = (c_2, ..., c_n): the crossing
    x of lines i < j is (c_j - c_i)/(m_i - m_j), and each row says one
    crossing lies right of the next.  Each row is scaled to its primitive
    integer multiple, a positive multiple, so it states the same
    inequality.  The first feasible system yields the arrangement (whose
    relation is then verified).  On exhaustion the result is Unrealized
    carrying the longest realizable target prefix found.

    The system is decided by the linear program: maximize eps subject to
    a_i . c - eps >= 0 and eps <= 1.  The origin (c = 0, eps = 0) is
    feasible and eps is bounded, so the optimum eps* exists.  If eps* > 0
    the optimal c meets every row strictly.  If eps* = 0 the dual optimum
    gives y >= 0 with sum(y_i a_i) = 0 and sum(y_i) >= 1 (the entries of
    the final objective row under the row slacks): a strict point c would
    give 0 = sum(y_i (a_i . c)) > 0, so none exists (Gordan's theorem).
    `_strict_solution` checks the point, or the certificate, exactly.

    Scaling keeps the order: every crossing x is linear in c, so the point
    lambda*c (lambda > 0) puts every crossing at lambda times its x, and
    the rank order is the same; the intercepts returned are therefore the
    primitive integer point on the solved ray.
    """
    if not validate_ordering(ordering):
        raise ValueError(
            "ordering violates the admissibility condition; rejected before search"
        )
    n = ordering.n
    target = list(ordering.pairs)
    best: tuple[int, Arrangement | None] = (0, None)
    for slopes in _slope_candidates(n):
        forms = _pair_forms(slopes, target)
        feasible, values = _strict_solution(_chain_inequalities(forms, target, []), n - 1)
        if feasible:
            arr = _arrangement_from_intercepts(slopes, values)
            realized = extract_pair_ordering(arr).pairs
            if realized != ordering.pairs:
                # The inequalities pin the full order, so only a solver bug gets here.
                k = next(k for k, (a, b) in enumerate(zip(realized, target)) if a != b)
                raise InvariantViolation(
                    f"slopes {[str(m) for m in slopes]}: the solved point realizes "
                    f"{realized[k]} at position {k}, where the target has {target[k]}"
                )
            if not verified_relation(arr).report.verified:
                raise RuntimeError("realized arrangement failed verification")
            return arr

        # Longest prefix of the target this slope vector can realize: the
        # prefix chain plus "everything else is strictly smaller".
        lo, hi = 1, len(target) - 1
        best_here = 0
        point = None
        while lo <= hi:
            mid = (lo + hi) // 2
            rows = _chain_inequalities(forms, target[:mid], target[mid:])
            feasible, candidate_point = _strict_solution(rows, n - 1)
            if feasible:
                best_here, point = mid, candidate_point
                lo = mid + 1
            else:
                hi = mid - 1
        if best_here > best[0] and point is not None:
            best = (best_here, _arrangement_from_intercepts(slopes, point))

    prefix, candidate = best
    realized = None
    if candidate is not None:
        try:
            realized = extract_pair_ordering(candidate)
        except ValueError:
            realized = None
    return Unrealized(
        ordering=ordering,
        candidate=candidate,
        realized=realized,
        first_mismatch=prefix if candidate is not None else 0,
        message=(
            f"no slope candidate admits intercepts realizing the full order; "
            f"longest realizable target prefix: {prefix} of {len(target)} pairs"
        ),
    )


# ---------------------------------------------------------------------------
# structure checks


@dataclass(frozen=True)
class FamilyCheck:
    """Verification plus structural comparison for a named family."""

    name: str
    n: int
    relation: Relation
    lhs_ok: bool
    rhs_ok: bool
    problems: tuple[str, ...]

    @property
    def verification(self) -> VerificationReport:
        return self.relation.report

    @property
    def ok(self) -> bool:
        return self.verification.verified and self.lhs_ok and self.rhs_ok


@dataclass(frozen=True)
class DoubledDaisyCheck(FamilyCheck):
    """Doubled daisy check, with the displayed single-power form.

    The displayed form carries each middle boundary twist once, absorbing
    the second power into the central factor: replacing the center twist
    alpha_q by (d_2 ... d_{n-1})^{-1} alpha_q turns the relation into

        d0 d1^{n-2} d2 ... d_{n-1} dn^{n-2} = (products of pair twists and
        the absorbed center factor).

    `display_ok` is the relation's own verification, because the display
    form holds exactly when the relation does.  Write A for the absorbed
    product (d_2 ... d_{n-1})^{-1}.  A is a product of inner boundary
    twists, so its braid is empty: it commutes with every factor, and
    absorbing it into the center factor multiplies the whole right side by
    A, as it does the left side.  Multiplying by A keeps both sides' braid
    words and adds the same vector -(e_2 + ... + e_{n-1}) to both framings.
    Braid parts are then equal iff they were, and framings are equal iff
    they were.
    """

    @property
    def display_ok(self) -> bool:
        return self.verification.verified


def _structure_check(
    name: str,
    arr: Arrangement,
    expected_rank_sets: list[frozenset[int]],
    expected_lhs: tuple[tuple[int, int], ...],
) -> tuple[Relation, bool, bool, tuple[str, ...]]:
    relation = verified_relation(arr, name=name)
    problems: list[str] = []

    lhs_ok = relation.lhs == expected_lhs
    if not lhs_ok:
        problems.append(
            f"boundary exponents {list(relation.lhs)} != expected {list(expected_lhs)}"
        )

    rank_sets = [d.enclosed for d in reversed(relation.rhs)]  # rank order
    rhs_ok = rank_sets == expected_rank_sets
    if not rhs_ok:
        for k, (got, want) in enumerate(zip(rank_sets, expected_rank_sets), start=1):
            if got != want:
                problems.append(
                    f"rank-{k} factor encloses {sorted(got)}, expected {sorted(want)}"
                )
                break
        if len(rank_sets) != len(expected_rank_sets):
            problems.append(
                f"{len(rank_sets)} interior factors, expected {len(expected_rank_sets)}"
            )
    if not relation.report.verified:
        problems.append("relation failed verification")
    return relation, lhs_ok, rhs_ok, tuple(problems)


def check_daisy_arrangement(arr: Arrangement) -> FamilyCheck:
    """Check any arrangement against the daisy pattern for its n."""
    n = arr.n
    expected_sets = [frozenset((1, k)) for k in range(2, n + 1)]
    expected_sets.append(frozenset(range(2, n + 1)))
    expected_lhs = ((0, 1), (1, n - 2)) + tuple((k, 1) for k in range(2, n + 1))
    return FamilyCheck("daisy", n, *_structure_check("daisy", arr, expected_sets, expected_lhs))


def check_daisy(n: int) -> FamilyCheck:
    """Build the daisy on n lines and check relation plus structure."""
    return check_daisy_arrangement(make_daisy(n))


def check_doubled_daisy(n: int) -> DoubledDaisyCheck:
    """Build the doubled daisy and check relation, structure, display form."""
    arr = make_doubled_daisy(n)
    expected_sets = [frozenset((1, k)) for k in range(2, n + 1)]
    expected_sets.append(frozenset(range(2, n)))
    expected_sets += [frozenset((k, n)) for k in range(2, n)]
    expected_lhs = (
        ((0, 1), (1, n - 2))
        + tuple((k, 2) for k in range(2, n))
        + ((n, n - 2),)
    )
    relation, lhs_ok, rhs_ok, problems = _structure_check(
        "doubled-daisy", arr, expected_sets, expected_lhs
    )
    return DoubledDaisyCheck("doubled-daisy", n, relation, lhs_ok, rhs_ok, problems)
