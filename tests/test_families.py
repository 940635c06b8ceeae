"""Families, pair orderings, and the structure checkers."""

import hashlib
import random
from fractions import Fraction
from math import factorial

import pytest

import lanterns as L
import lanterns.families as families


def test_validate_ordering_examples():
    assert L.validate_ordering(L.PairOrdering(3, ((1, 2), (1, 3), (2, 3))))
    assert not L.validate_ordering(L.PairOrdering(3, ((1, 3), (1, 2), (2, 3))))
    assert L.validate_ordering(
        L.PairOrdering(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    )


def test_validate_ordering_malformed():
    with pytest.raises(L.MalformedOrdering):
        L.validate_ordering(L.PairOrdering(3, ((1, 2), (1, 2), (2, 3))))
    with pytest.raises(L.MalformedOrdering):
        L.validate_ordering(L.PairOrdering(3, ((1, 2), (1, 3))))


def test_realize_wajnryb_family():
    for n in (3, 4, 5, 6):
        arr = L.realize_wajnryb(n)
        ordering = L.extract_pair_ordering(arr)
        lex = tuple(
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        )
        assert ordering.pairs == lex
        assert L.validate_ordering(ordering)
        relation = L.lantern_relation(arr)
        assert relation.lhs == ((0, 1),) + tuple((k, n - 2) for k in range(1, n + 1))
        assert L.verify_relation(relation).verified


def test_realize_wajnryb_is_the_closed_form():
    for n in range(3, 41):
        arr = L.realize_wajnryb(n)
        assert [line.slope for line in arr.lines] == list(range(n, 0, -1))
        expected = [-Fraction(factorial(n + 1 - i), factorial(n - 1)) for i in range(1, n)]
        assert [line.intercept for line in arr.lines] == expected + [0]
        lex = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        assert L.extract_pair_ordering(arr).pairs == lex


def test_realize_wajnryb_range():
    with pytest.raises(ValueError):
        L.realize_wajnryb(2)


def test_realize_ordering_lex_round_trip():
    ordering = L.PairOrdering(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    arr = L.realize_ordering(ordering)
    assert isinstance(arr, L.Arrangement)
    assert L.extract_pair_ordering(arr).pairs == ordering.pairs
    assert L.extract_pair_ordering(arr).pairs == L.extract_pair_ordering(
        L.realize_wajnryb(4)
    ).pairs


def test_realize_ordering_lantern():
    arr = L.realize_ordering(L.PairOrdering(3, ((1, 2), (1, 3), (2, 3))))
    assert isinstance(arr, L.Arrangement)
    relation = L.lantern_relation(arr)
    # rank order (1,2) > (1,3) > (2,3), so the temporal display reads back
    # from the leftmost point
    assert L.export_relation(relation, "text") == "d0 d1 d2 d3 = a23 a13 a12\n"
    assert L.verify_relation(relation).verified


def test_realize_ordering_nonlex_feasible():
    # admissible and realizable: line 4 crosses everything left of the
    # triangle of lines 1..3
    ordering = L.PairOrdering(4, ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)))
    arr = L.realize_ordering(ordering)
    assert isinstance(arr, L.Arrangement)
    assert L.extract_pair_ordering(arr).pairs == ordering.pairs


def test_realize_ordering_rejects_invalid():
    with pytest.raises(ValueError):
        L.realize_ordering(L.PairOrdering(3, ((1, 3), (1, 2), (2, 3))))


def test_realize_ordering_honest_unrealized():
    # Admissible, but x(1,3) always lies strictly between x(1,2) and
    # x(2,3), so no real arrangement puts (1,3) after both.
    ordering = L.PairOrdering(3, ((1, 2), (2, 3), (1, 3)))
    assert L.validate_ordering(ordering)
    result = L.realize_ordering(ordering)
    assert isinstance(result, L.Unrealized)
    assert result.candidate is not None
    assert result.realized is not None
    assert result.realized.pairs[0] == ordering.pairs[0]
    assert result.first_mismatch == 1
    assert "prefix" in result.message


def _lex(n):
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _column(n):
    return tuple(sorted(_lex(n), key=lambda p: (p[1], p[0])))


def test_realize_ordering_outputs_are_pinned():
    arr = L.realize_ordering(L.PairOrdering(4, _column(4)))
    coefficients = [(line.slope, line.intercept) for line in arr.lines]
    assert coefficients == [(4, 0), (3, 0), (2, -1), (1, -4)]

    bad = ((1, 2), (2, 3), (1, 3)) + tuple(p for p in _lex(4) if p[1] > 3)
    result = L.realize_ordering(L.PairOrdering(4, bad))
    assert isinstance(result, L.Unrealized)
    assert result.first_mismatch == 1
    candidate = [(line.slope, line.intercept) for line in result.candidate.lines]
    assert candidate == [(4, 0), (3, 0), (2, -1), (1, -2)]
    assert result.realized is None  # lines 2, 3 and 4 meet at x = -1


def test_realize_ordering_refuses_a_point_that_misses_the_target(monkeypatch):
    lex = L.realize_ordering(L.PairOrdering(4, _lex(4)))
    lex_point = [line.intercept for line in lex.lines[1:]]
    solve = families._fm_feasible_point
    calls = []

    def first_call_returns_the_lex_point(ineqs, nvars):
        calls.append(nvars)
        return list(lex_point) if len(calls) == 1 else solve(ineqs, nvars)

    monkeypatch.setattr(families, "_fm_feasible_point", first_call_returns_the_lex_point)
    with pytest.raises(L.InvariantViolation, match=r"slopes \['4', '3', '2', '1'\].*position 2"):
        L.realize_ordering(L.PairOrdering(4, _column(4)))
    assert len(calls) == 1


def test_make_daisy_combinatorics():
    arr = L.make_daisy(4)
    points = L.intersections(arr)
    assert [set(p.lines) for p in points] == [{1, 2}, {1, 3}, {1, 4}, {2, 3, 4}]
    mu = L.line_multiplicities(arr)
    assert mu == {1: 3, 2: 2, 3: 2, 4: 2}

    arr6 = L.make_daisy(6)
    points6 = L.intersections(arr6)
    assert len(points6) == 6
    assert [set(p.lines) for p in points6[:5]] == [{1, k} for k in range(2, 7)]
    assert set(points6[5].lines) == {2, 3, 4, 5, 6}


def test_daisy_is_lantern_at_three():
    check = L.check_daisy(3)
    assert check.ok
    # same boundary powers as the classical lantern; the crossings of the
    # three-petal daisy rank (1,2) first, so its display runs the other way
    assert L.export_relation(check.relation, "text") == "d0 d1 d2 d3 = a23 a13 a12\n"
    assert check.relation.lhs == ((0, 1), (1, 1), (2, 1), (3, 1))


def test_check_daisy_range():
    for n in range(3, 9):
        check = L.check_daisy(n)
        assert check.ok, check.problems
        assert check.relation.lhs == ((0, 1), (1, n - 2)) + tuple(
            (k, 1) for k in range(2, n + 1)
        )
        rank_sets = [d.enclosed for d in reversed(check.relation.rhs)]
        assert rank_sets == [frozenset({1, k}) for k in range(2, n + 1)] + [
            frozenset(range(2, n + 1))
        ]


def test_daisy_negative_control_reordered_crossings():
    # Mirror the daisy: crossings now sit left of the center, so the rank
    # order departs from the daisy pattern while the relation still holds.
    n = 5
    coefficients = [(n, 1)] + [(n + 1 - i, 0) for i in range(2, n + 1)]
    arr = L.validate_arrangement(coefficients)
    check = L.check_daisy_arrangement(arr)
    assert check.verification.verified
    assert not check.rhs_ok
    assert not check.ok
    assert any("rank-1 factor" in p for p in check.problems)


def test_make_daisy_range():
    with pytest.raises(ValueError):
        L.make_daisy(2)


def test_doubled_daisy_combinatorics():
    arr = L.make_doubled_daisy(5)
    points = L.intersections(arr)
    assert len(points) == 2 * 5 - 2
    sets = [set(p.lines) for p in points]
    assert sets == [
        {1, 2}, {1, 3}, {1, 4}, {1, 5},
        {2, 3, 4},
        {2, 5}, {3, 5}, {4, 5},
    ]
    mu = L.line_multiplicities(arr)
    assert mu == {1: 4, 2: 3, 3: 3, 4: 3, 5: 4}


def test_check_doubled_daisy():
    for n in (5, 6):
        check = L.check_doubled_daisy(n)
        assert check.ok, check.problems
        assert check.display_ok
        assert check.relation.lhs == (
            ((0, 1), (1, n - 2))
            + tuple((k, 2) for k in range(2, n))
            + ((n, n - 2),)
        )
        assert len(check.relation.rhs) == 2 * n - 2


def test_doubled_daisy_range():
    with pytest.raises(ValueError):
        L.make_doubled_daisy(4)


def test_pencil_range():
    with pytest.raises(ValueError):
        L.make_pencil(1)


def test_doubled_daisy_display_is_the_relation_verification(monkeypatch):
    calls = []
    reference = L.artin_image

    def counting(word):
        calls.append(word)
        return reference(word)

    monkeypatch.setattr("lanterns.braids.artin_image", counting)
    monkeypatch.setattr("lanterns.relation.artin_image", counting)
    for n in (5, 6, 8):
        calls.clear()
        check = L.check_doubled_daisy(n)
        assert len(calls) == 1  # the right side only: the left is in closed form
        assert check.display_ok and check.ok, check.problems

        # Absorb one middle boundary twist per line and recheck the identity.
        absorbed = L.compose_all(
            (L.inner_boundary_twist(n, k) for k in range(2, n)), n=n
        ).inverse()
        lhs = L.compose(check.relation.lhs_element, absorbed)
        rhs = L.compose(check.relation.rhs_element, absorbed)
        assert lhs.framing == (n - 1,) + (2,) * (n - 2) + (n - 1,)
        assert L.elements_equal(lhs, rhs)


def _digest(arr):
    return hashlib.sha256(L.arrangement_to_json(arr).encode()).hexdigest()


def test_random_arrangement_outputs_are_pinned():
    """Seeds pin the scale criteria, so these draws must not change by a byte."""
    wide = families.random_arrangement(random.Random(99), 120, allow_concurrent=False)
    assert _digest(wide) == "91d80f128c3a98ffa13419cb80f8e59a92f61d4ae764a1cb0147fc0a3189256c"
    concurrent = families.random_arrangement(random.Random(5), 30)
    assert _digest(concurrent) == "c52db20c38445709b0b10cd56fe9d5269905e9ef9a653d516271fa1ee5c01f8b"
    sheared, _ = L.shear_to_generic(concurrent)
    assert max(len(point.lines) for point in L.intersections(sheared)) == 3


def test_random_arrangement_refuses_more_lines_than_slopes():
    slopes = {Fraction(a, b) for a in range(-24, 25) for b in range(1, 6)}
    assert families.RANDOM_SLOPES == len(slopes) == 169
    assert families.random_arrangement(random.Random(1), 169).n == 169
    for n in (170, 1000):
        with pytest.raises(ValueError, match="169"):
            families.random_arrangement(random.Random(1), n)
