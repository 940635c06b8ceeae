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
on the intercepts by Fourier-Motzkin for a handful of slope vectors, and
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
from math import factorial

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

    Raises MalformedOrdering when the sequence is not a permutation of all
    pairs (i, j) with 1 <= i < j <= n.
    """
    n = ordering.n
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

_Ineq = tuple[Fraction, ...]  # coefficients of a strict sum(coeff*c) > 0


def _fm_feasible_point(ineqs: list[_Ineq], nvars: int) -> list[Fraction] | None:
    """A point satisfying all strict homogeneous inequalities, or None (Fourier-Motzkin).

    Every row reads sum(coeff*c) > 0 with no constant: eliminating a
    variable adds positive multiples of two rows, so the rows stay
    homogeneous.  A row left after the last elimination has only zero
    coefficients and reads 0 > 0, so the system is feasible exactly when
    no row survives; the bounds met during back-substitution are sums of
    coefficients times the values already fixed.
    """
    stages: list[tuple[int, list[_Ineq]]] = []
    current = ineqs
    for v in range(nvars - 1, -1, -1):
        stages.append((v, current))
        pos = [q for q in current if q[v] > 0]
        neg = [q for q in current if q[v] < 0]
        new = [q for q in current if q[v] == 0]
        for p in pos:
            for q in neg:
                ap, aq = p[v], q[v]
                new.append(tuple(p[k] * (-aq) + q[k] * ap for k in range(nvars)))
        current = new
    if current:
        return None
    values = [Fraction(0)] * nvars
    for v, stage in reversed(stages):
        lower: Fraction | None = None
        upper: Fraction | None = None
        for coeffs in stage:
            a = coeffs[v]
            if a == 0:
                continue
            bound = -sum(coeffs[k] * values[k] for k in range(v)) / a
            if a > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None and upper is not None:
            values[v] = (lower + upper) / 2
        elif lower is not None:
            values[v] = lower + 1
        elif upper is not None:
            values[v] = upper - 1
    return values


def _pair_forms(
    slopes: list[Fraction], pairs: list[tuple[int, int]]
) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """Intersection x of each pair as a linear form in c_2..c_n (c_1 = 0)."""
    n = len(slopes)
    forms = {}
    for i, j in pairs:
        coeffs = [Fraction(0)] * (n - 1)
        weight = 1 / (slopes[i - 1] - slopes[j - 1])
        coeffs[j - 2] += weight
        if i >= 2:
            coeffs[i - 2] -= weight
        forms[(i, j)] = tuple(coeffs)
    return forms


def _chain_inequalities(
    forms: dict[tuple[int, int], tuple[Fraction, ...]],
    chain: list[tuple[int, int]],
    below: list[tuple[int, int]],
) -> list[_Ineq]:
    ineqs = [tuple(a - b for a, b in zip(forms[u], forms[v])) for u, v in zip(chain, chain[1:])]
    ineqs += [tuple(a - b for a, b in zip(forms[chain[-1]], forms[q])) for q in below]
    return ineqs


def _slope_candidates(n: int) -> list[list[Fraction]]:
    return [
        [Fraction(n + 1 - i) for i in range(1, n + 1)],
        [Fraction(2) ** (n - i) for i in range(1, n + 1)],
        [Fraction((n + 1 - i) ** 2) for i in range(1, n + 1)],
        [Fraction(1, i) for i in range(1, n + 1)],
    ]


def _arrangement_from_intercepts(
    slopes: list[Fraction], values: list[Fraction]
) -> Arrangement:
    intercepts = [Fraction(0)] + list(values)
    return validate_arrangement(list(zip(slopes, intercepts)))


def realize_ordering(ordering: PairOrdering) -> Arrangement | Unrealized:
    """Search for an arrangement realizing an admissible pair order exactly.

    For each candidate slope vector the realized order is a conjunction of
    strict linear inequalities over the intercepts, decided exactly; the
    first feasible system yields the arrangement (whose relation is then
    verified).  On exhaustion the result is Unrealized carrying the longest
    realizable target prefix found.
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
        ineqs = _chain_inequalities(forms, target, [])
        values = _fm_feasible_point(ineqs, n - 1)
        if values is not None:
            arr = _arrangement_from_intercepts(slopes, values)
            realized = extract_pair_ordering(arr).pairs
            if realized != ordering.pairs:
                # The inequalities pin the full order, so only a solver bug gets here.
                k = next(k for k, (a, b) in enumerate(zip(realized, target)) if a != b)
                raise InvariantViolation(
                    f"slopes {[str(m) for m in slopes]}: the Fourier-Motzkin point realizes "
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
            ineqs = _chain_inequalities(forms, target[:mid], target[mid:])
            candidate_point = _fm_feasible_point(ineqs, n - 1)
            if candidate_point is not None:
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
