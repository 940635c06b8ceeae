"""Monodromy pipeline: conjugators, the relation, verification, controls."""

import random

import pytest

import lanterns as L
from lanterns.braids import BraidWord, half_twist_block
from lanterns.framed import FramedElement, TwistDescriptor, compose_all, conjugated_twist
from conftest import random_arrangement


def test_worked_monodromy_data(worked):
    data = L.braid_monodromy(worked)
    conjugators = [t.descriptor.conjugator.letters for t in data.twists]
    blocks = [t.descriptor.block for t in data.twists]
    enclosed = [set(t.descriptor.enclosed) for t in data.twists]
    assert conjugators == [(), (2,), (2, 1)]
    assert blocks == [(2, 3), (1, 2), (2, 3)]
    assert enclosed == [{2, 3}, {1, 3}, {1, 2}]


def test_pencil_monodromy():
    arr = L.make_pencil(4)
    data = L.braid_monodromy(arr)
    assert len(data.twists) == 1
    twist = data.twists[0]
    assert twist.descriptor.conjugator.letters == ()
    assert twist.descriptor.block == (1, 4)
    assert twist.descriptor.enclosed == frozenset({1, 2, 3, 4})


def test_two_line_monodromy():
    arr = L.validate_arrangement([(1, 0), (-1, 0)])
    data = L.braid_monodromy(arr)
    assert data.twists[0].descriptor.conjugator.letters == ()
    assert data.twists[0].descriptor.block == (1, 2)


def test_classical_lantern(worked):
    relation = L.lantern_relation(worked)
    assert L.export_relation(relation, "text") == "d0 d1 d2 d3 = a12 a13 a23\n"
    report = L.verify_relation(relation)
    assert report.braid_ok and report.framing_ok and report.verified
    assert report.witness is None


def test_pencil_relation_degenerates():
    for n in (2, 3, 6):
        relation = L.lantern_relation(L.make_pencil(n))
        assert relation.lhs == ((0, 1),) + tuple((k, 0) for k in range(1, n + 1))
        assert len(relation.rhs) == 1
        assert L.verify_relation(relation).verified


def test_wajnryb_lhs_powers():
    relation = L.lantern_relation(L.realize_wajnryb(4))
    assert relation.lhs == ((0, 1), (1, 2), (2, 2), (3, 2), (4, 2))
    assert len(relation.rhs) == 6
    assert L.verify_relation(relation).verified


def test_swapped_factors_fail_with_witness(worked):
    relation = L.lantern_relation(worked)
    swapped = list(relation.rhs)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    bad = L.Relation(name="lantern-swapped", n=3, lhs=relation.lhs, rhs=tuple(swapped))
    report = L.verify_relation(bad)
    assert not report.braid_ok
    assert report.framing_ok  # framings are order-blind
    assert not report.verified
    assert report.witness is not None
    assert report.witness.lhs_image != report.witness.rhs_image


def test_total_monodromy_pencils_and_small():
    for n in range(2, 7):
        total = L.total_monodromy(L.make_pencil(n))
        assert total.framing == (0,) * n
        assert L.braids_equal(total.braid, L.full_twist_block(n, 1, n))
    arr = L.validate_arrangement([(1, 0), (-1, 0)])
    total = L.total_monodromy(arr)
    assert total.braid.letters == (1, 1) and total.framing == (0, 0)


def test_total_monodromy_invariance_random():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 6)
        arr, _ = L.shear_to_generic(random_arrangement(rng, n))
        total = L.total_monodromy(arr)
        assert total.framing == (0,) * n
        assert L.braids_equal(total.braid, L.full_twist_block(n, 1, n))


def test_relation_suite_random():
    rng = random.Random(32)
    for _ in range(30):
        n = rng.randint(2, 7)
        arr, _ = L.shear_to_generic(random_arrangement(rng, n))
        relation = L.lantern_relation(arr)
        report = L.verify_relation(relation)
        assert report.verified
        mu = L.line_multiplicities(arr)
        expected = tuple(mu[line.id] for line in arr.lines)
        assert relation.lhs_element.framing == expected
        assert relation.rhs_element.framing == expected
        assert L.is_pure(relation.rhs_element.braid)


def _flipped_sign_rhs(arr):
    """Rebuild the interior product with negative detour half twists."""
    data = L.braid_monodromy(arr)
    n = arr.n
    beta = BraidWord(n)
    twists = []
    for twist in data.twists:
        descriptor = TwistDescriptor(beta, twist.descriptor.block, twist.descriptor.enclosed)
        twists.append(conjugated_twist(descriptor))
        a, b = twist.descriptor.block
        beta = beta * half_twist_block(n, a, b).inverse()
    return compose_all(list(reversed(twists)), n=n)


def test_convention_negative_controls(worked):
    relation = L.lantern_relation(worked)

    # flipping the detour half-twist sign breaks the braid identity
    assert not L.elements_equal(relation.lhs_element, _flipped_sign_rhs(worked))

    # reversing the temporal composition order breaks it too
    reversed_rhs = compose_all(
        [conjugated_twist(d) for d in reversed(relation.rhs)], n=3
    )
    assert not L.elements_equal(relation.lhs_element, reversed_rhs)

    # zero framing on interior twists breaks the framing bookkeeping
    zero_framed = compose_all(
        [FramedElement(conjugated_twist(d).braid, (0,) * 3) for d in relation.rhs],
        n=3,
    )
    assert not L.elements_equal(relation.lhs_element, zero_framed)


def test_verified_relation_attaches_report(worked):
    relation = L.verified_relation(worked)
    assert relation.report is not None and relation.report.verified


def test_verified_relation_keeps_the_derived_sides(worked, monkeypatch):
    relation = L.verified_relation(worked)
    calls = []
    monkeypatch.setattr("lanterns.relation.twist_product", lambda *args: calls.append(args))
    assert relation.rhs_element.framing == (2, 2, 2)
    assert relation.lhs_element.framing == (2, 2, 2)
    assert calls == []


def _telescoped(arr):
    """[D_1 ... D_s][D_s ... D_1], D_j the half twist of the rank-j block."""
    blocks = [
        half_twist_block(arr.n, *t.descriptor.block).letters
        for t in L.braid_monodromy(arr).twists
    ]
    return tuple(x for d in blocks for x in d) + tuple(x for d in reversed(blocks) for x in d)


def test_rhs_word_is_the_telescoped_full_twist():
    rng = random.Random(33)
    arrangements = [
        L.shear_to_generic(random_arrangement(rng, rng.randint(3, 8)))[0] for _ in range(40)
    ]
    assert sum(len(p.lines) == 3 for a in arrangements for p in L.intersections(a)) >= 10
    arrangements += [L.make_pencil(n) for n in (2, 3, 6)]
    arrangements += [L.make_daisy(n) for n in (3, 5, 7)]
    arrangements += [L.make_doubled_daisy(n) for n in (5, 6)]
    for arr in arrangements:
        relation = L.lantern_relation(arr)
        assert relation.rhs_element.braid.letters == _telescoped(arr)
        assert len(relation.rhs_element.braid) == arr.n * (arr.n - 1)
        assert L.verify_relation(relation).verified


def test_total_monodromy_reuses_a_given_relation(monkeypatch):
    rng = random.Random(34)
    arrangements = [
        L.shear_to_generic(random_arrangement(rng, rng.randint(2, 7)))[0] for _ in range(20)
    ]
    arrangements += [L.make_pencil(4), L.make_daisy(5), L.make_doubled_daisy(6)]
    pairs = [(arr, L.verified_relation(arr), L.total_monodromy(arr)) for arr in arrangements]

    def no_second_monodromy(arr):
        raise AssertionError("braid_monodromy ran again")

    monkeypatch.setattr("lanterns.monodromy.braid_monodromy", no_second_monodromy)
    for arr, relation, total in pairs:
        assert L.total_monodromy(arr, relation) == total
        assert L.total_monodromy(arr, relation=relation) == total
    with pytest.raises(ValueError):
        L.total_monodromy(L.make_pencil(3), pairs[-1][1])


def test_total_monodromy_reuses_the_kept_monodromy(monkeypatch):
    """After `verified_relation`, `total_monodromy` builds no word; a fresh arrangement builds it once.

    The word is spelled from the blocks, one `half_twist_letters` call per
    block, and never by `twist_product`.
    """
    rng = random.Random(35)
    arrangements = [
        L.shear_to_generic(random_arrangement(rng, rng.randint(3, 7)))[0] for _ in range(10)
    ]
    arrangements += [L.make_daisy(5), L.make_doubled_daisy(6)]
    relations = [L.verified_relation(arr) for arr in arrangements]
    calls = []

    def counting(module, name):
        function = getattr(module, name)

        def count(*args):
            calls.append(name)
            return function(*args)

        monkeypatch.setattr(module, name, count)

    counting(L.relation, "twist_product")
    counting(L.framed, "twist_product")
    counting(L.framed, "half_twist_letters")
    for arr, relation in zip(arrangements, relations):
        total = L.total_monodromy(arr)
        assert total.framing == (0,) * arr.n
        assert total.braid is relation.rhs_element.braid
    assert calls == []
    for arr, relation in zip(arrangements, relations):
        assert L.braid_monodromy(arr).twists[0].descriptor is relation.rhs[-1]
    calls.clear()
    fresh = L.validate_arrangement([(2, 0), (1, 1), (-1, 4)])
    assert L.total_monodromy(fresh).framing == (0, 0, 0)
    assert calls == ["half_twist_letters"] * 3


def test_replayed_descriptors_check_like_spelled_ones():
    """The monodromy's descriptors, built unchecked over prefixes of one shared word.

    Rebuilt by `TwistDescriptor` over the prefix conjugator, each accepts
    its block, and refuses a shifted one with the message a spelled copy
    of the conjugator gives; the two conjugators have one permutation.
    """
    arr, _ = L.shear_to_generic(random_arrangement(random.Random(99), 12, allow_concurrent=False))
    n = arr.n
    for twist in L.braid_monodromy(arr).twists[1:-1:5]:
        d = twist.descriptor
        assert TwistDescriptor(d.conjugator, d.block, d.enclosed) == d
        a, b = d.block
        shifted = (a + 1, b + 1) if b < n else (a - 1, b - 1)
        refusals = []
        for conjugator in (d.conjugator, BraidWord(n, d.conjugator.letters)):
            with pytest.raises(L.InconsistentDescriptor) as refused:
                TwistDescriptor(conjugator, shifted, d.enclosed)
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        assert L.permutation(d.conjugator) == L.permutation(BraidWord(n, d.conjugator.letters))
