"""Acceptance suite: one test per criterion, one printed line per pass.

Every claim checked here is an exact algebraic identity, so the tolerance
is zero everywhere; the only numeric budgets are wall-clock, export-size and
memory ones.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lanterns as L
from lanterns.braids import BraidWord, half_twist_block
from lanterns.framed import FramedElement, TwistDescriptor, compose_all, conjugated_twist
from conftest import WORKED_LINES, random_arrangement, random_braid

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEED = 2026
CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    arrangements = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(2, 8)
        arr, _ = L.shear_to_generic(random_arrangement(rng, n))
        arrangements.append(arr)
    return arrangements


def test_criterion_1_classical_lantern():
    start = time.perf_counter()
    arr = L.validate_arrangement(WORKED_LINES)
    relation = L.lantern_relation(arr)
    report = L.verify_relation(relation)
    elapsed = time.perf_counter() - start
    assert L.export_relation(relation, "text") == "d0 d1 d2 d3 = a12 a13 a23\n"
    assert report.verified
    assert elapsed < 0.1
    print(f"criterion 1 PASS: classical lantern verified exactly in {elapsed:.4f}s")


def test_criterion_2_random_suite(corpus):
    start = time.perf_counter()
    for arr in corpus:
        relation = L.lantern_relation(arr)
        report = L.verify_relation(relation)
        assert report.verified
        mu = L.line_multiplicities(arr)
        expected = tuple(mu[line.id] for line in arr.lines)
        assert relation.lhs_element.framing == expected
        assert relation.rhs_element.framing == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    sizes = sorted({arr.n for arr in corpus})
    print(
        f"criterion 2 PASS: {len(corpus)} seeded arrangements (n in {sizes}) "
        f"verified exactly in {elapsed:.2f}s"
    )


def test_criterion_3_total_monodromy(corpus):
    checked = 0
    for arr in corpus:
        total = L.total_monodromy(arr)
        assert total.framing == (0,) * arr.n
        assert L.braids_equal(total.braid, L.full_twist_block(arr.n, 1, arr.n))
        checked += 1
    for n in range(2, 9):
        total = L.total_monodromy(L.make_pencil(n))
        assert total.framing == (0,) * n
        assert L.braids_equal(total.braid, L.full_twist_block(n, 1, n))
        checked += 1
    print(
        f"criterion 3 PASS: total monodromy = (full twist, zero framing) on "
        f"{checked} arrangements"
    )


def test_criterion_4_lexicographic_family():
    for n in (3, 4, 5):
        arr = L.realize_wajnryb(n)
        relation = L.lantern_relation(arr)
        assert L.verify_relation(relation).verified
        assert relation.lhs == ((0, 1),) + tuple((k, n - 2) for k in range(1, n + 1))
        ordering = L.extract_pair_ordering(arr)
        lex = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        assert ordering.pairs == lex
        assert L.validate_ordering(ordering)
    print("criterion 4 PASS: lexicographic realizations for n = 3, 4, 5")


def test_criterion_5_daisy():
    for n in range(3, 9):
        check = L.check_daisy(n)
        assert check.ok, (n, check.problems)
        assert check.relation.lhs == ((0, 1), (1, n - 2)) + tuple(
            (k, 1) for k in range(2, n + 1)
        )
        rank_sets = [d.enclosed for d in reversed(check.relation.rhs)]
        assert rank_sets == [frozenset({1, k}) for k in range(2, n + 1)] + [
            frozenset(range(2, n + 1))
        ]
    print("criterion 5 PASS: daisy checks for n = 3..8")


def test_criterion_6_doubled_daisy():
    for n in (5, 6):
        check = L.check_doubled_daisy(n)
        assert check.ok, (n, check.problems)
        assert check.display_ok
        rank_sets = [d.enclosed for d in reversed(check.relation.rhs)]
        expected = [frozenset({1, k}) for k in range(2, n + 1)]
        expected.append(frozenset(range(2, n)))
        expected += [frozenset({k, n}) for k in range(2, n)]
        assert rank_sets == expected
    print("criterion 6 PASS: doubled daisy checks for n = 5, 6")


def test_criterion_7_braid_engine_soundness():
    start = time.perf_counter()
    for n in range(2, 9):
        for i in range(1, n - 1):
            assert L.braids_equal(
                BraidWord(n, (i, i + 1, i)), BraidWord(n, (i + 1, i, i + 1))
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                assert L.braids_equal(BraidWord(n, (i, j)), BraidWord(n, (j, i)))

    rng = random.Random(41)
    for _ in range(1000):
        n = rng.randint(2, 6)
        word = random_braid(rng, n, rng.randint(0, 40))
        assert L.boundary_word_image(word) == tuple(range(1, n + 1))
        delta_sq = L.full_twist_block(n, 1, n)
        assert L.braids_equal(word * delta_sq, delta_sq * word)

    for _ in range(1000):
        n = rng.randint(2, 6)
        u = random_braid(rng, n, rng.randint(0, 14))
        v = random_braid(rng, n, rng.randint(0, 14))
        oracle = L.artin_image(u) == L.artin_image(v)
        assert L.braids_equal(u, v) == oracle
        if L.exponent_sum(u) != L.exponent_sum(v) or L.permutation(u) != L.permutation(v):
            assert not oracle
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 7 PASS: braid relations, centrality, boundary word, and "
        f"fast-path agreement on 1000-word samples in {elapsed:.2f}s"
    )


def test_criterion_8_convention_negative_controls():
    arr = L.validate_arrangement(WORKED_LINES)
    relation = L.lantern_relation(arr)
    assert L.verify_relation(relation).verified

    # (a) flip the detour half-twist sign
    data = L.braid_monodromy(arr)
    beta = BraidWord(3)
    flipped = []
    for twist in data.twists:
        descriptor = TwistDescriptor(
            beta, twist.descriptor.block, twist.descriptor.enclosed
        )
        flipped.append(conjugated_twist(descriptor))
        a, b = twist.descriptor.block
        beta = beta * half_twist_block(3, a, b).inverse()
    rhs_flipped = compose_all(list(reversed(flipped)), n=3)
    assert not L.elements_equal(relation.lhs_element, rhs_flipped)

    # (b) reverse the temporal composition order of the right side
    rhs_reversed = compose_all(
        [conjugated_twist(d) for d in reversed(relation.rhs)], n=3
    )
    assert not L.elements_equal(relation.lhs_element, rhs_reversed)

    # (c) zero framing for interior twists
    rhs_zero = compose_all(
        [FramedElement(conjugated_twist(d).braid, (0, 0, 0)) for d in relation.rhs],
        n=3,
    )
    assert not L.elements_equal(relation.lhs_element, rhs_zero)
    print("criterion 8 PASS: all three convention flips break the lantern")


def test_criterion_9_scale():
    rng = random.Random(99)
    arr, _ = L.shear_to_generic(random_arrangement(rng, 10, allow_concurrent=False))
    points = L.intersections(arr)
    assert len(points) == 45
    start = time.perf_counter()
    relation = L.lantern_relation(arr)
    report = L.verify_relation(relation)
    total = L.total_monodromy(arr)
    elapsed = time.perf_counter() - start
    assert report.verified
    assert total.framing == (0,) * 10
    assert elapsed < 5.0
    print(f"criterion 9 PASS: n = 10 (45 points) pipeline in {elapsed:.2f}s")


def test_criterion_10_scale_n30():
    rng = random.Random(99)
    arr, _ = L.shear_to_generic(random_arrangement(rng, 30, allow_concurrent=False))
    points = L.intersections(arr)
    assert len(points) == 431  # C(30, 2) = 435 pairs; seed 99 has accidental triple points
    start = time.perf_counter()
    relation = L.lantern_relation(arr)
    report = L.verify_relation(relation)
    total = L.total_monodromy(arr)
    elapsed = time.perf_counter() - start
    assert report.verified
    assert total.framing == (0,) * 30
    assert L.braids_equal(total.braid, L.full_twist_block(30, 1, 30))
    assert elapsed < 10.0
    print(f"criterion 10 PASS: n = 30 ({len(points)} points) pipeline in {elapsed:.2f}s")


def test_criterion_11_scale_n40():
    rng = random.Random(99)
    arr, _ = L.shear_to_generic(random_arrangement(rng, 40, allow_concurrent=False))
    points = L.intersections(arr)
    assert len(points) == 760  # C(40, 2) = 780 pairs; seed 99 has accidental triple points
    start = time.perf_counter()
    relation = L.lantern_relation(arr)
    report = L.verify_relation(relation)
    total = L.total_monodromy(arr)
    elapsed = time.perf_counter() - start
    assert report.verified
    assert total.framing == (0,) * 40
    assert L.braids_equal(total.braid, L.full_twist_block(40, 1, 40))
    assert elapsed < 10.0
    print(f"criterion 11 PASS: n = 40 ({len(points)} points) pipeline in {elapsed:.2f}s")


def test_criterion_12_scale_n60():
    rng = random.Random(99)
    arr, _ = L.shear_to_generic(random_arrangement(rng, 60, allow_concurrent=False))
    points = L.intersections(arr)
    assert len(points) == 1690  # C(60, 2) = 1770 pairs; seed 99 has accidental triple points
    start = time.perf_counter()
    relation = L.verified_relation(arr)
    total = L.total_monodromy(arr)
    parsed = L.parse_relation(L.export_relation(relation, "json"))
    elapsed = time.perf_counter() - start
    assert relation.report.verified
    assert total.framing == (0,) * 60
    assert L.braids_equal(total.braid, L.full_twist_block(60, 1, 60))
    assert parsed == relation
    assert elapsed < 10.0
    print(f"criterion 12 PASS: n = 60 ({len(points)} points), with round trip, in {elapsed:.2f}s")


CRITERION_13_CHILD = """
import json, random, time
import lanterns as L
from lanterns.families import random_arrangement

start = time.perf_counter()
arr, _ = L.shear_to_generic(random_arrangement(random.Random(99), 120, allow_concurrent=False))
relation = L.verified_relation(arr)
total = L.total_monodromy(arr, relation=relation)
text = L.export_relation(relation, "json")
parsed = L.parse_relation(text)
print(json.dumps({
    "points": len(relation.rhs),
    "verified": relation.report.verified,
    # the verified relation proves its right side is the full twist; the
    # total monodromy is that word with zero framing
    "total_ok": total.framing == (0,) * 120 and total.braid == relation.rhs_element.braid,
    "round_trip": parsed == relation,
    "export_bytes": len(text.encode()),
    "elapsed_s": time.perf_counter() - start,
}))
"""


def test_criterion_13_scale_n120_in_bounded_memory():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CRITERION_13_CHILD],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # kB on Linux
    assert result["points"] == 6784  # C(120, 2) = 7140 pairs; seed 99 has accidental triple points
    assert result["verified"] and result["total_ok"] and result["round_trip"]
    assert result["export_bytes"] < 2_000_000
    assert peak_mb < 60
    assert elapsed < 6.0
    print(
        f"criterion 13 PASS: n = 120 (6784 points), shear, verify, total monodromy and "
        f"round trip in {elapsed:.2f}s, export {result['export_bytes'] / 1e6:.2f} MB, "
        f"peak RSS {peak_mb:.0f} MB"
    )


CRITERION_14_CHILD = """
import json, random, resource, time
start = time.perf_counter()
import lanterns as L

# tools/stage_sweep.py's draw for n >= 170, where random_arrangement stops
n = 200
rng = random.Random(0)
slopes = rng.sample(range(-20 * n, 20 * n + 1), n)
arr = L.validate_arrangement([(m, rng.randint(-10**6, 10**6)) for m in slopes])
arr, t = L.shear_to_generic(arr)
relation = L.verified_relation(arr)
total = L.total_monodromy(arr, relation=relation)
text = L.export_relation(relation, "json")
parsed = L.parse_relation(text)
print(json.dumps({
    "points": len(relation.rhs),
    "shear_t": str(t),
    "verified": relation.report.verified,
    "total_ok": total.framing == (0,) * n and total.braid == relation.rhs_element.braid,
    "round_trip": parsed == relation and parsed.report == relation.report,
    "export_bytes": len(text.encode()),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # kB on Linux
}))
"""


def test_criterion_14_scale_n200_in_one_child():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CRITERION_14_CHILD],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["points"] == 19900 and result["shear_t"] == "1/4096"
    assert result["verified"] and result["total_ok"] and result["round_trip"]
    assert result["export_bytes"] < 335_000
    assert result["peak_rss_mb"] < 75
    assert elapsed < 2.0
    print(
        f"criterion 14 PASS: n = 200 (19900 points), shear, verify, total monodromy and "
        f"round trip in {elapsed:.2f}s, export {result['export_bytes'] / 1e6:.2f} MB, "
        f"peak RSS {result['peak_rss_mb']:.0f} MB"
    )


def test_criterion_15_orderings_round_trip_to_n9():
    targets = []
    for n in (7, 8, 9):
        lex = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        column = tuple(sorted(lex, key=lambda p: (p[1], p[0])))
        targets += [L.PairOrdering(n, lex), L.PairOrdering(n, column)]
    times = []
    for _ in range(3):  # the best of three, so one scheduler stall is not a failure
        start = time.perf_counter()
        realized = [L.realize_ordering(ordering) for ordering in targets]
        times.append(time.perf_counter() - start)
        for ordering, arr in zip(targets, realized):
            assert isinstance(arr, L.Arrangement)
            assert L.extract_pair_ordering(arr) == ordering
    elapsed = min(times)
    assert elapsed < 0.045
    print(f"criterion 15 PASS: lex and column orderings for n = 7, 8, 9 round-trip in {elapsed * 1000:.0f} ms")
