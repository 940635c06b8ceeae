"""Framed model: constructors, composition, descriptor consistency."""

import random

import pytest

import lanterns as L
from lanterns.braids import BraidWord
from lanterns.framed import FramedElement, TwistDescriptor
from conftest import random_braid


def test_inner_twist_examples():
    t = L.inner_boundary_twist(3, 2)
    assert t.braid.letters == () and t.framing == (0, 1, 0)
    product = L.compose_all([L.inner_boundary_twist(3, k) for k in (1, 2, 3)])
    assert product.framing == (1, 1, 1) and product.braid.letters == ()
    assert L.inner_boundary_twist(3, 2).inverse().framing == (0, -1, 0)


def test_outer_twist_examples():
    n2 = L.outer_boundary_twist(2)
    assert n2.braid.letters == (1, 1) and n2.framing == (1, 1)
    n3 = L.outer_boundary_twist(3)
    assert L.braids_equal(n3.braid, L.full_twist_block(3, 1, 3))
    assert n3.framing == (1, 1, 1)
    assert L.to_braid(n3).letters != ()


def test_compose_examples():
    d1 = L.inner_boundary_twist(3, 1)
    assert L.compose(d1, d1).framing == (2, 0, 0)
    inner = L.compose_all([L.inner_boundary_twist(3, k) for k in (1, 2, 3)])
    total = L.compose(L.outer_boundary_twist(3), inner)
    assert total.framing == (2, 2, 2)
    assert L.braids_equal(total.braid, L.full_twist_block(3, 1, 3))


def test_not_pure_rejected():
    with pytest.raises(L.NotPure):
        FramedElement(BraidWord(3, (1,)), (0, 0, 0))


def test_conjugated_twist_examples():
    plain = L.conjugated_twist(
        TwistDescriptor(BraidWord(3), (2, 3), frozenset({2, 3}))
    )
    assert plain.braid.letters == (2, 2)
    assert plain.framing == (0, 1, 1)

    moved = L.conjugated_twist(
        TwistDescriptor(BraidWord(3, (2,)), (1, 2), frozenset({1, 3}))
    )
    assert moved.braid.letters == (2, 1, 1, -2)
    assert moved.framing == (1, 0, 1)

    everything = L.conjugated_twist(
        TwistDescriptor(BraidWord(4), (1, 4), frozenset({1, 2, 3, 4}))
    )
    assert L.elements_equal(everything, L.outer_boundary_twist(4))


def test_inconsistent_descriptor_rejected():
    with pytest.raises(L.InconsistentDescriptor):
        TwistDescriptor(BraidWord(3), (1, 2), frozenset({1, 3}))
    with pytest.raises(L.InconsistentDescriptor):
        TwistDescriptor(BraidWord(3), (1, 2), frozenset({1, 2, 3}))


@pytest.mark.parametrize(
    "block, enclosed",
    [
        ((1, 2), {True, 2}),  # used to be labeled 'aTrue2' and exported unparseable
        ((True, 2), {1, 2}),
        ((1.0, 2), {1, 2}),
        ((1, 2), {1.0, 2}),
        ((1, 2), {1, "2"}),
    ],
)
def test_descriptor_line_ids_and_block_ends_are_plain_ints(block, enclosed):
    with pytest.raises(L.InconsistentDescriptor):
        TwistDescriptor(BraidWord(3), block, frozenset(enclosed))


def test_elements_equal_examples():
    assert not L.elements_equal(
        L.inner_boundary_twist(3, 1), L.inner_boundary_twist(3, 2)
    )
    # conjugating by a word commuting with the block twist changes nothing
    base = L.conjugated_twist(
        TwistDescriptor(BraidWord(3, (2,)), (1, 2), frozenset({1, 3}))
    )
    stabilized = L.conjugated_twist(
        TwistDescriptor(BraidWord(3, (2, 1)), (1, 2), frozenset({1, 3}))
    )
    assert L.elements_equal(base, stabilized)


def test_group_axioms_random():
    rng = random.Random(21)
    n = 4

    def random_element():
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                factors.append(L.inner_boundary_twist(n, rng.randint(1, n)))
            elif kind == 1:
                factors.append(L.outer_boundary_twist(n))
            else:
                conj = random_braid(rng, n, rng.randint(0, 4))
                perm = L.permutation(conj)
                a = rng.randint(1, n - 1)
                b = rng.randint(a + 1, n)
                enclosed = frozenset(
                    line for line in range(1, n + 1) if a <= perm[line - 1] <= b
                )
                factors.append(
                    L.conjugated_twist(TwistDescriptor(conj, (a, b), enclosed))
                )
            if rng.random() < 0.3:
                factors[-1] = factors[-1].inverse()
        return L.compose_all(factors, n=n)

    for _ in range(15):
        a, b, c = random_element(), random_element(), random_element()
        assert L.elements_equal(L.compose(L.compose(a, b), c), L.compose(a, L.compose(b, c)))
        assert L.elements_equal(L.compose(a, a.inverse()), L.identity_element(n))


def test_framing_additivity_random():
    rng = random.Random(22)
    n = 5
    for _ in range(20):
        expected = [0] * n
        factors = []
        for _ in range(rng.randint(1, 6)):
            sign = rng.choice((1, -1))
            if rng.random() < 0.5:
                line = rng.randint(1, n)
                factor = L.inner_boundary_twist(n, line)
                touched = {line}
            else:
                a = rng.randint(1, n - 1)
                b = rng.randint(a + 1, n)
                factor = L.conjugated_twist(
                    TwistDescriptor(BraidWord(n), (a, b), frozenset(range(a, b + 1)))
                )
                touched = set(range(a, b + 1))
            if sign < 0:
                factor = factor.inverse()
            for line in touched:
                expected[line - 1] += sign
            factors.append(factor)
        assert L.compose_all(factors, n=n).framing == tuple(expected)


def test_purity_closure():
    rng = random.Random(23)
    n = 4
    element = L.identity_element(n)
    for _ in range(10):
        element = L.compose(element, L.outer_boundary_twist(n))
        assert L.is_pure(element.braid)


def test_pants_subgroup_is_free_abelian_rank_three():
    d0 = L.outer_boundary_twist(2)
    d1 = L.inner_boundary_twist(2, 1)
    d2 = L.inner_boundary_twist(2, 2)
    for a in (d0, d1, d2):
        for b in (d0, d1, d2):
            assert L.elements_equal(L.compose(a, b), L.compose(b, a))
    for a, b, c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (2, -1, -1), (-1, 2, 2)]:
        word = L.compose_all([d0**a, d1**b, d2**c])
        if (a, b, c) != (0, 0, 0):
            assert not L.elements_equal(word, L.identity_element(2))


def test_twist_label_shapes():
    assert L.twist_label({2, 3}) == "a23"
    assert L.twist_label({1, 12}) == "a(1,12)"
    assert L.twist_label({2, 3, 4}) == "a(2,3,4)"
    assert L.boundary_label(0) == "d0"


def test_compose_all_is_a_group_identity():
    rng = random.Random(24)
    n = 5
    reduced = 0
    for _ in range(20):
        factors = []
        for _ in range(rng.randint(1, 4)):
            conj = random_braid(rng, n, rng.randint(0, 6))
            perm = L.permutation(conj)
            a = rng.randint(1, n - 1)
            b = rng.randint(a + 1, n)
            enclosed = frozenset(line for line in range(1, n + 1) if a <= perm[line - 1] <= b)
            twist = L.conjugated_twist(TwistDescriptor(conj, (a, b), enclosed))
            factors += [twist, twist.inverse()] if rng.random() < 0.5 else [twist]
        rng.shuffle(factors)
        product = L.compose_all(factors)
        raw = BraidWord(n, tuple(x for f in factors for x in f.braid.letters))
        assert len(product.braid) <= len(raw)
        reduced += len(product.braid) < len(raw)
        assert L.braids_equal(product.braid, raw)
        assert product.framing == tuple(sum(f.framing[k] for f in factors) for k in range(n))
    assert reduced > 0  # the sample really exercises cancellation


def test_compose_cancels_inverse_and_checks_strand_counts():
    twist = L.conjugated_twist(TwistDescriptor(BraidWord(3, (2,)), (1, 2), frozenset({1, 3})))
    assert twist.braid.letters == (2, 1, 1, -2)
    product = L.compose(twist, twist.inverse())
    assert product.braid.letters == () and product.framing == (0, 0, 0)
    with pytest.raises(L.StrandCountMismatch):
        L.compose(twist, L.inner_boundary_twist(4, 1))
    with pytest.raises(L.StrandCountMismatch):
        L.compose_all([L.outer_boundary_twist(3), L.outer_boundary_twist(4)])


def _descriptor_chain(rng, n, count):
    """Seeded descriptors whose conjugators extend, truncate or replace the previous one."""
    conjugator = random_braid(rng, n, rng.randint(0, 10))
    descriptors = []
    for _ in range(count):
        step = rng.random()
        if step < 0.4:
            conjugator = conjugator * random_braid(rng, n, rng.randint(0, 6))
        elif step < 0.7:
            conjugator = BraidWord(n, conjugator.letters[: rng.randint(0, len(conjugator))])
        else:
            conjugator = random_braid(rng, n, rng.randint(0, 10))
        perm = L.permutation(conjugator)
        a = rng.randint(1, n)
        b = rng.randint(a, n)
        enclosed = frozenset(line for line in range(1, n + 1) if a <= perm[line - 1] <= b)
        descriptors.append(TwistDescriptor(conjugator, (a, b), enclosed))
    return descriptors


def test_twist_product_is_the_composed_conjugated_twists():
    rng = random.Random(31)
    shortened = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        descriptors = _descriptor_chain(rng, n, rng.randint(0, 8))
        product = L.twist_product(descriptors, n)
        assert product == L.compose_all((L.conjugated_twist(d) for d in descriptors), n=n)
        raw = sum(len(L.conjugated_twist(d).braid) for d in descriptors)
        shortened += len(product.braid) < raw
    assert shortened > 100  # shared prefixes really cancel
    assert L.twist_product([], 4) == L.identity_element(4) == L.compose_all([], n=4)
    telescoped = L.lantern_relation(L.make_daisy(6)).rhs
    assert L.twist_product(telescoped, 6) == L.compose_all(
        (L.conjugated_twist(d) for d in telescoped), n=6
    )


def test_twist_product_checks_strand_counts():
    descriptor = TwistDescriptor(BraidWord(3, (2,)), (1, 2), frozenset({1, 3}))
    with pytest.raises(L.StrandCountMismatch):
        L.twist_product([descriptor], 4)
    other = TwistDescriptor(BraidWord(4), (1, 2), frozenset({1, 2}))
    with pytest.raises(L.StrandCountMismatch):
        L.twist_product([descriptor, other], 3)


def test_compose_all_streams_its_factors():
    seen = []

    def factors():
        for k in (1, 2, 3, 1):
            seen.append(k)
            yield L.inner_boundary_twist(3, k)
        seen.append("mismatch")
        yield L.inner_boundary_twist(4, 1)
        seen.append("never reached")

    with pytest.raises(L.StrandCountMismatch):
        L.compose_all(factors())
    assert seen == [1, 2, 3, 1, "mismatch"]
    assert L.compose_all(L.inner_boundary_twist(3, k) for k in (1, 2, 3, 1)).framing == (2, 1, 1)


def test_label_is_derived_once_and_kept_out_of_equality_and_repr(monkeypatch):
    calls = []
    reference = L.framed.twist_label

    def counting(enclosed):
        calls.append(enclosed)
        return reference(enclosed)

    monkeypatch.setattr("lanterns.framed.twist_label", counting)
    descriptor = TwistDescriptor(BraidWord(3), (1, 2), frozenset({1, 2}))
    assert descriptor.label == descriptor.label == "a12"
    assert len(calls) == 1
    fresh = TwistDescriptor(BraidWord(3), (1, 2), frozenset({1, 2}))
    assert descriptor == fresh and hash(descriptor) == hash(fresh)
    assert repr(descriptor) == repr(fresh) and "label" not in repr(descriptor)
