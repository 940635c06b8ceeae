"""Exact-geometry behavior: validation, intersections, profiles, shear."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lanterns as L
from conftest import NON_GENERIC_LINES, WORKED_LINES, random_arrangement


def test_validate_sorts_by_decreasing_slope():
    arr = L.validate_arrangement([(1, 1), (2, 0), (-1, 4)])
    assert [line.slope for line in arr.lines] == [2, 1, -1]
    assert [line.id for line in arr.lines] == [1, 2, 3]
    assert arr.source_order == (1, 0, 2)


def test_validate_single_line_is_fine():
    arr = L.validate_arrangement([(1, 0)])
    assert arr.n == 1
    assert arr.lines[0].id == 1


def test_validate_rejects_parallel_lines():
    with pytest.raises(L.DuplicateSlope) as err:
        L.validate_arrangement([(1, 0), (1, 5)])
    assert err.value.first == 1 and err.value.second == 2
    assert err.value.slope == 1


def test_validate_rejects_floats():
    with pytest.raises(TypeError):
        L.validate_arrangement([(0.5, 0), (1, 1)])


@pytest.mark.parametrize(
    "entries, error",
    [
        ([(1,)], ValueError),
        ([(1, 0, "a", "b")], ValueError),
        ([(1, 0, 7)], TypeError),
        ([], ValueError),
    ],
    ids=["one-field", "four-fields", "name-not-a-string", "no-lines"],
)
def test_validate_rejects_malformed_entries(entries, error):
    with pytest.raises(error):
        L.validate_arrangement(entries)


def test_validate_accepts_strings_and_fractions():
    arr = L.validate_arrangement([("1/2", "3"), (Fraction(-2, 3), 0)])
    assert arr.lines[0].slope == Fraction(1, 2)
    assert arr.lines[1].slope == Fraction(-2, 3)


def test_worked_intersections(worked):
    points = L.intersections(worked)
    assert [(p.x, p.lines, p.rank) for p in points] == [
        (Fraction(3, 2), (2, 3), 1),
        (Fraction(4, 3), (1, 3), 2),
        (Fraction(1), (1, 2), 3),
    ]
    assert L.line_multiplicities(worked) == {1: 2, 2: 2, 3: 2}


def test_pencil_is_one_point():
    arr = L.validate_arrangement([(2, 0), (1, 0), (-1, 0)])
    points = L.intersections(arr)
    assert len(points) == 1
    assert points[0].lines == (1, 2, 3)
    assert (points[0].x, points[0].y) == (0, 0)


def test_non_generic_x_detected():
    arr = L.validate_arrangement(NON_GENERIC_LINES)
    with pytest.raises(L.NonGenericX) as err:
        L.intersections(arr)
    # both offending points sit at the same x with different line sets
    assert err.value.first[0] == err.value.second[0]
    assert err.value.first[2] != err.value.second[2]


def test_rank_keys_separate_x_below_two_to_the_minus_64():
    q = 2**65 + 1
    x0, x1 = Fraction(1, q), Fraction(1, q + 1)  # 0 < x0 - x1 < 2^-130

    def lines(x):
        # lines 1, 4 meet at (x0, 0); lines 2, 3 meet at (x, 1)
        return [(4, -4 * x0), (3, 1 - 3 * x), (2, 1 - 2 * x), (1, -x0)]

    ranked = L.intersections(L.validate_arrangement(lines(x1)))
    assert [(p.lines, p.x) for p in ranked[2:4]] == [((1, 4), x0), ((2, 3), x1)]

    with pytest.raises(L.NonGenericX) as err:
        L.intersections(L.validate_arrangement(lines(x0)))
    named = {err.value.first, err.value.second}
    assert named == {(x0, 0, (1, 4)), (x0, 1, (2, 3))}


def test_worked_order_profiles(worked):
    profiles = L.order_profiles(worked)
    assert [p.order for p in profiles] == [(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1)]


def test_pencil_profile_reverses_everything():
    arr = L.validate_arrangement([(2, 0), (1, 0), (-1, 0)])
    profiles = L.order_profiles(arr)
    assert [p.order for p in profiles] == [(1, 2, 3), (3, 2, 1)]


def test_two_line_profiles():
    arr = L.validate_arrangement([(1, 0), (-1, 0)])
    profiles = L.order_profiles(arr)
    assert [p.order for p in profiles] == [(1, 2), (2, 1)]


def test_order_profiles_with_swapped_ranks_fail_the_geometry_check():
    arr, _ = L.shear_to_generic(random_arrangement(random.Random(5), 6, allow_concurrent=False))
    entries = list(L.geometry._ranked(arr)[1])
    assert L.geometry._checked_blocks(arr, entries) == L.geometry.fiber_blocks(arr)
    for j in range(len(entries) - 1):
        swapped = list(entries)
        swapped[j], swapped[j + 1] = entries[j + 1], entries[j]
        with pytest.raises(L.InvariantViolation):
            L.geometry._checked_blocks(arr, swapped)


def _full_scan_blocks(arr, entries):
    """The blocks, each fiber order's heights compared in full at its sample, in `Fraction`s."""
    order = list(range(1, arr.n + 1))
    xs = [Fraction(p, q) for p, q, _, _ in entries]
    samples = [xs[0] + 1] + [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [xs[-1] - 1]

    def check(x):
        heights = [arr.lines[line - 1].y_at(x) for line in order]
        if any(a <= b for a, b in zip(heights, heights[1:])):
            raise L.InvariantViolation(f"{order} is not the order at x={x}")

    check(samples[0])
    blocks = []
    for (*_, members), sample in zip(entries, samples[1:]):
        positions = sorted(order.index(line) for line in members)
        lo, hi = positions[0], positions[-1]
        if hi - lo + 1 != len(positions):
            raise L.InvariantViolation(f"{sorted(members)} not contiguous in {order}")
        order[lo : hi + 1] = reversed(order[lo : hi + 1])
        blocks.append((lo + 1, hi + 1))
        check(sample)
    return tuple(blocks)


def _outcome(checked_blocks, arr, entries):
    try:
        return checked_blocks(arr, entries)
    except L.InvariantViolation:
        return "refused"


def _moved_past_a_neighbour(entries, j, left):
    """Entry j with its x moved just past its left (smaller x) or right neighbour's."""
    xs = [Fraction(p, q) for p, q, _, _ in entries]
    step = 1 if left else -1
    beyond = j + 2 * step
    x = (xs[j + step] + xs[beyond]) / 2 if 0 <= beyond < len(xs) else xs[j + step] - step
    return entries[:j] + [(x.numerator, x.denominator, *entries[j][2:])] + entries[j + 1 :]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.integers(2, 9),
    st.integers(0, 10**9),
    st.sampled_from(["ranked", "adjacent swap", "x moved"]),
    st.integers(0, 10**6),
)
def test_adjacency_checks_fail_exactly_where_a_full_scan_does(n, seed, corruption, pick):
    arr, _ = L.shear_to_generic(random_arrangement(random.Random(seed), n))
    entries = list(L.geometry._ranked(arr)[1])
    s = len(entries)
    if corruption == "adjacent swap" and s > 1:
        j = pick % (s - 1)
        entries[j], entries[j + 1] = entries[j + 1], entries[j]
    elif corruption == "x moved" and s > 1:
        j = pick % s
        left = j == 0 or (j < s - 1 and pick % 2 == 0)
        entries = _moved_past_a_neighbour(entries, j, left)
    outcome = _outcome(L.geometry._checked_blocks, arr, entries)
    assert outcome == _outcome(_full_scan_blocks, arr, entries)
    if corruption == "ranked" or s == 1:
        assert outcome == L.geometry.fiber_blocks(arr)


def test_shear_identity_on_generic(worked):
    sheared, t = L.shear_to_generic(worked)
    assert t == 0
    assert sheared == worked


def test_shear_identity_on_pencil():
    arr = L.make_pencil(5)
    sheared, t = L.shear_to_generic(arr)
    assert t == 0 and sheared == arr


def _pair_point_sets(arr):
    """Independent grouping oracle: solve all pairs, group by coordinates."""
    groups = {}
    for a, b in combinations(arr.lines, 2):
        x = (b.intercept - a.intercept) / (a.slope - b.slope)
        groups.setdefault((x, a.slope * x + a.intercept), set()).update((a.id, b.id))
    return sorted(frozenset(g) for g in groups.values())


def test_shear_repairs_non_generic():
    arr = L.validate_arrangement(NON_GENERIC_LINES)
    sheared, t = L.shear_to_generic(arr)
    assert t != 0
    points = L.intersections(sheared)  # no exception anymore
    assert len({p.x for p in points}) == len(points)
    # same concurrency combinatorics, same slope order
    assert _pair_point_sets(arr) == _pair_point_sets(sheared)
    assert [line.id for line in sheared.lines] == [line.id for line in arr.lines]


def test_shear_groups_each_candidate_once(monkeypatch):
    calls = []
    reference = L.geometry._group_points

    def counting(arr):
        calls.append(arr)
        return reference(arr)

    monkeypatch.setattr("lanterns.geometry._group_points", counting)
    arr = L.validate_arrangement(NON_GENERIC_LINES)
    sheared, t = L.shear_to_generic(arr)
    # t = 1/2 turns line 1 vertical, so only the input and t = 1/4 are grouped.
    assert len(calls) == 2
    assert t == Fraction(1, 4)
    assert sheared == L.validate_arrangement(
        [(4, -4), (Fraction(4, 3), 0), (Fraction(-4, 5), 0), (Fraction(-4, 3), Fraction(4, 3))]
    )


def _trial_shear(arr, t):
    """Reference: build every sheared line, then refuse a vertical line or a changed slope order."""
    transformed = []
    for line in arr.lines:
        denom = 1 - line.slope * t
        if denom == 0:
            return None
        transformed.append(L.Line(line.id, line.slope / denom, line.intercept / denom, line.name))
    slopes = [line.slope for line in transformed]
    if any(a <= b for a, b in zip(slopes, slopes[1:])):
        return None
    return L.Arrangement(tuple(transformed), arr.source_order)


def test_shear_admissibility_closed_form_matches_the_trial_construction():
    rng = random.Random(21)
    halvings = [Fraction(1, 2**k) for k in range(1, 11)]
    pairs = admissible = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        # slopes near the reciprocals 2 .. 1024 of the t's, some exactly on one
        pool = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7))) for _ in range(n)]
        pool += [Fraction(2**rng.randint(1, 10)) for _ in range(rng.randint(0, 2))]
        pool += [
            Fraction(rng.randint(2, 2048), rng.choice((1, 3))) for _ in range(rng.randint(0, 3))
        ]
        slopes = list(dict.fromkeys(pool))
        arr = L.validate_arrangement([(m, rng.randint(-9, 9)) for m in slopes])
        for t in halvings:
            expected = _trial_shear(arr, t)
            assert L.geometry._admissible_shear(arr, t) == (expected is not None), (slopes, t)
            if expected is not None:
                sheared = L.geometry._shear_lines(arr, t)
                assert sheared == expected and sheared.source_order == expected.source_order
                admissible += 1
            pairs += 1
    assert 0 < admissible < pairs


def test_shear_with_every_slope_above_one_over_t():
    arr = L.validate_arrangement([(7, 0), (5, 2), (4, 0), (3, 2)])
    with pytest.raises(L.NonGenericX):
        L.intersections(arr)
    # every slope exceeds 1/t = 2, so the shear keeps the slope order
    assert L.geometry._admissible_shear(arr, Fraction(1, 2))
    sheared, t = L.shear_to_generic(arr)
    assert t == Fraction(1, 2)
    assert sheared == _trial_shear(arr, t)
    assert L.verified_relation(sheared).report.verified


def _reference_shear(arr):
    """The halving search without projection: shear and regroup the lines for every candidate t."""
    _, groups = L.geometry._group_points(arr)
    if len({(p, q) for p, q, _ in groups}) == len(groups):
        return arr, Fraction(0)
    partition = {frozenset(members) for members in groups.values()}
    t = Fraction(1, 2)
    for _ in range(256):
        if L.geometry._admissible_shear(arr, t):
            candidate = L.geometry._shear_lines(arr, t)
            _, groups = L.geometry._group_points(candidate)
            if len({(p, q) for p, q, _ in groups}) == len(groups):
                assert {frozenset(members) for members in groups.values()} == partition
                return candidate, t
        t /= 2
    raise AssertionError("no admissible shear found")


def _non_generic_entries(rng, n):
    """Random lines with two points forced onto one vertical, sometimes a third line through one."""
    slopes = set()
    while len(slopes) < n:
        slopes.add(Fraction(rng.randint(-30, 30), rng.randint(1, 4)))
    entries = [[m, Fraction(rng.randint(-9, 9), rng.randint(1, 3))] for m in slopes]
    a, b, c, d, e = rng.sample(range(n), 5) if n >= 5 else rng.sample(range(n), 4) + [None]
    x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    y, z = rng.sample(range(-9, 10), 2)
    for line, height in ((a, y), (b, y), (c, z), (d, z)) + (((e, y),) if rng.random() < 0.5 else ()):
        if line is not None:
            entries[line][1] = height - entries[line][0] * x
    return entries


def test_projected_shear_search_matches_the_regrouping_reference():
    rng = random.Random(42)
    sheared = triple = 0
    while sheared < 300:
        arr = L.validate_arrangement(_non_generic_entries(rng, rng.randint(4, 12)))
        expected, t = _reference_shear(arr)
        assert L.shear_to_generic(arr) == (expected, t)
        sheared += t != 0
        triple += any(len(p.lines) > 2 for p in L.intersections(expected))
    assert triple > 50


def test_a_shear_after_seven_tries_groups_twice(monkeypatch):
    calls = []
    reference = L.geometry._group_points

    def counting(arr):
        calls.append(arr)
        return reference(arr)

    monkeypatch.setattr("lanterns.geometry._group_points", counting)
    arr = random_arrangement(random.Random(1), 18, allow_concurrent=False)
    sheared, t = L.shear_to_generic(arr)
    assert t == Fraction(1, 128) and calls == [arr, sheared]


def test_shear_search_passes_the_slopes_that_forbid_every_large_t():
    # Lines 1, 2 meet at (0, 0) and lines 3, 4 at (0, 1).  Every t >= 2^-300
    # is inadmissible, which the search jumps over in one step.
    arr = L.validate_arrangement([(2**300, 0), (0, 0), (1, 1), (-1, 1)])
    sheared, t = L.shear_to_generic(arr)
    assert t == Fraction(1, 2**301)
    assert not L.geometry._admissible_shear(arr, 2 * t)
    assert sheared == L.geometry._shear_lines(arr, t)
    assert L.verified_relation(sheared).report.verified


def test_pair_count_conservation_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 7)
        arr, _ = L.shear_to_generic(random_arrangement(rng, n))
        points = L.intersections(arr)
        total = sum(len(p.lines) * (len(p.lines) - 1) // 2 for p in points)
        assert total == n * (n - 1) // 2


def test_block_reversal_property_random():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 7)
        arr, _ = L.shear_to_generic(random_arrangement(rng, n))
        points = L.intersections(arr)
        profiles = L.order_profiles(arr)
        for point, before, after in zip(points, profiles, profiles[1:]):
            positions = sorted(before.order.index(i) for i in point.lines)
            lo, hi = positions[0], positions[-1]
            assert positions == list(range(lo, hi + 1))
            expected = (
                before.order[:lo]
                + tuple(reversed(before.order[lo : hi + 1]))
                + before.order[hi + 1 :]
            )
            assert after.order == expected
            # outside the block the profiles agree
            assert before.order[:lo] == after.order[:lo]
            assert before.order[hi + 1 :] == after.order[hi + 1 :]


def test_shear_soundness_random():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 6)
        arr = random_arrangement(rng, n)
        sheared, _ = L.shear_to_generic(arr)
        points = L.intersections(sheared)
        assert len({p.x for p in points}) == len(points)
        assert _pair_point_sets(arr) == _pair_point_sets(sheared)


def test_determinism():
    first = L.validate_arrangement(WORKED_LINES)
    second = L.validate_arrangement(WORKED_LINES)
    assert first == second
    assert L.intersections(first) == L.intersections(second)
    assert L.order_profiles(first) == L.order_profiles(second)


def _reference_groups(arr):
    """The per-pair `Fraction` grouping the integer kernel replaced."""
    groups = {}
    for a, b in combinations(arr.lines, 2):
        x = (b.intercept - a.intercept) / (a.slope - b.slope)
        groups.setdefault((x, a.y_at(x)), set()).update((a.id, b.id))
    return groups


def test_integer_grouping_matches_the_fraction_reference():
    rng = random.Random(12)
    forced = huge = 0
    for trial in range(80):
        n = rng.randint(2, 9)
        bound = 10**30 if trial % 2 else 12
        slopes = set()
        while len(slopes) < n:
            slopes.add(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))
        entries = [[m, Fraction(rng.randint(-bound, bound), rng.randint(1, bound))] for m in slopes]
        for _ in range(rng.randint(0, n // 2) if n >= 3 else 0):
            # route line k through the meeting point of lines i and j
            i, j, k = rng.sample(range(n), 3)
            (mi, ci), (mj, cj) = entries[i], entries[j]
            x = (cj - ci) / (mi - mj)
            entries[k][1] = mi * x + ci - entries[k][0] * x
        arr = L.validate_arrangement([tuple(e) for e in entries])
        reference = _reference_groups(arr)
        scale, groups = L.geometry._group_points(arr)
        for p, q, _ in groups:
            assert q > 0 and gcd(p, q) == 1
        located = {
            (Fraction(p, q), Fraction(h, scale * q)): members
            for (p, q, h), members in groups.items()
        }
        assert located == reference
        forced += any(len(members) >= 3 for members in reference.values())
        huge += max(abs(line.slope.numerator) for line in arr.lines) > 10**20
        xs = [x for x, _ in reference]
        if len(set(xs)) < len(xs):
            with pytest.raises(L.NonGenericX):
                L.intersections(arr)
            continue
        ordered = sorted(reference.items(), key=lambda item: item[0][0], reverse=True)
        assert [(p.x, p.y, set(p.lines)) for p in L.intersections(arr)] == [
            (x, y, members) for (x, y), members in ordered
        ]
    assert forced >= 20 and huge >= 30


def _count_derivations(monkeypatch):
    """Count `_group_points` calls and height-checked samples from here on."""
    counts = {"groupings": 0, "samples": 0}
    group_points = L.geometry._group_points
    check_heights = L.geometry._check_heights

    def grouping(arr):
        counts["groupings"] += 1
        return group_points(arr)

    def heights(*args):
        counts["samples"] += 1
        return check_heights(*args)

    monkeypatch.setattr("lanterns.geometry._group_points", grouping)
    monkeypatch.setattr("lanterns.geometry._check_heights", heights)
    return counts


def _stages(arr):
    relation = L.verified_relation(arr)
    return (
        relation,
        L.total_monodromy(arr),
        L.order_profiles(arr),
        L.intersections(arr),
        L.shear_to_generic(arr),
    )


def test_each_arrangement_is_derived_once(monkeypatch):
    rng = random.Random(13)
    for n in (2, 3, 5, 8):
        generic, _ = L.shear_to_generic(random_arrangement(rng, n))
        lines = [(line.slope, line.intercept) for line in generic.lines]
        arr = L.validate_arrangement(lines)
        counts = _count_derivations(monkeypatch)
        first = _stages(arr)
        points = L.intersections(arr)
        assert counts == {"groupings": 1, "samples": len(points) + 1}
        assert _stages(arr) == first
        assert counts == {"groupings": 1, "samples": len(points) + 1}
        monkeypatch.undo()
        # the kept results are those of a fresh, equal arrangement
        fresh = L.validate_arrangement(lines)
        assert fresh == arr
        relation, total, profiles, fresh_points, sheared = _stages(fresh)
        assert relation == first[0] and relation.report == first[0].report
        assert L.elements_equal(total, first[1]) and total.braid.letters == first[1].braid.letters
        assert (profiles, fresh_points) == first[2:4]
        assert sheared[0] is fresh and first[4][0] is arr


def test_shear_hands_its_grouping_to_the_result(monkeypatch):
    counts = _count_derivations(monkeypatch)
    sheared, t = L.shear_to_generic(L.validate_arrangement(NON_GENERIC_LINES))
    assert t != 0 and counts["groupings"] == 2
    relation = L.verified_relation(sheared)
    assert relation.report.verified
    assert counts["groupings"] == 2


def test_failing_explicit_points_leave_the_kept_results_alone():
    lines = [(line.slope, line.intercept) for line in
             random_arrangement(random.Random(5), 6, allow_concurrent=False).lines]
    arr, _ = L.shear_to_generic(L.validate_arrangement(lines))
    entries = L.geometry._ranked(arr)[1]
    swapped = [entries[1], entries[0], *entries[2:]]
    with pytest.raises(L.InvariantViolation):
        L.geometry._checked_blocks(arr, swapped)
    reference, _ = L.shear_to_generic(L.validate_arrangement(lines))
    expected = [(t.point, t.descriptor) for t in L.braid_monodromy(reference).twists]
    assert [(t.point, t.descriptor) for t in L.braid_monodromy(arr).twists] == expected
    assert L.order_profiles(arr) == L.order_profiles(reference)
    # a failing call after the derivation does not disturb what was kept
    with pytest.raises(L.InvariantViolation):
        L.geometry._checked_blocks(arr, swapped)
    assert [(t.point, t.descriptor) for t in L.braid_monodromy(arr).twists] == expected
    assert L.verified_relation(arr).report.verified


def _fraction_ranked(arr):
    groups = _reference_groups(arr)
    return [
        (x, y, tuple(sorted(members)))
        for (x, y), members in sorted(groups.items(), key=lambda item: item[0][0], reverse=True)
    ]


@pytest.mark.parametrize("offset", [Fraction(1, 10**30), Fraction(-1, 10**30)])
def test_x_closer_than_the_rank_key_resolution_is_ranked_exactly(offset):
    # lines 1, 4 meet at x1 and lines 2, 3 at x2, less than 2^-64 apart, so
    # floor(2^64 * x) ties and only the exact comparison can order them
    x1, x2 = Fraction(1, 3), Fraction(1, 3) + offset
    assert (x1.numerator << 64) // x1.denominator == (x2.numerator << 64) // x2.denominator
    arr = L.validate_arrangement([(3, -3 * x1), (2, 5 - 2 * x2), (-2, 5 + 2 * x2), (-3, 3 * x1)])
    points = L.intersections(arr)
    assert [(p.x, p.y, p.lines) for p in points] == _fraction_ranked(arr)
    assert {x1, x2} <= {p.x for p in points}
    assert L.verified_relation(arr).report.verified


def test_huge_intercepts_are_ranked_without_floats():
    big = 10**400
    arr = L.validate_arrangement(
        [(3, big + 7), (1, -2 * big), (Fraction(-1, 2), 5 * big + 1), (-4, Fraction(big, 3))]
    )
    points = L.intersections(arr)
    with pytest.raises(OverflowError):
        float(points[0].x)
    assert [(p.x, p.y, p.lines) for p in points] == _fraction_ranked(arr)
    assert L.order_profiles(arr)[-1].order == (4, 3, 2, 1)
    assert L.verified_relation(arr).report.verified
