"""Braid engine: the Artin oracle, twist words, invariants, fast paths."""

import random
import sys
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from itertools import accumulate, chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lanterns as L
from lanterns.braids import BraidWord, _known, inverse_letters, reduced_product
from conftest import random_arrangement, random_braid


def test_artin_generator_convention():
    # sigma_1 on two strands: x1 -> x1 x2 x1^{-1}, x2 -> x1
    assert L.artin_image(BraidWord(2, (1,))) == ((1, 2, -1), (1,))


def test_artin_identity():
    assert L.artin_image(BraidWord(4)) == ((1,), (2,), (3,), (4,))


def test_artin_inverse_composes_to_identity():
    word = BraidWord(3, (1, -2, 1, 2))
    assert L.artin_image(word * word.inverse()) == ((1,), (2,), (3,))


def test_braid_relation_images_match():
    u = BraidWord(3, (1, 2, 1))
    v = BraidWord(3, (2, 1, 2))
    assert L.artin_image(u) == L.artin_image(v)


def test_braids_equal_examples():
    assert L.braids_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert not L.braids_equal(BraidWord(2, (1,)), BraidWord(2, (-1,)))
    delta_sq = L.full_twist_block(3, 1, 3)
    assert L.braids_equal(delta_sq, BraidWord(3, (1, 2) * 3))


def test_braids_equal_strand_mismatch():
    with pytest.raises(L.StrandCountMismatch):
        L.braids_equal(BraidWord(2), BraidWord(3))


def test_half_twist_words():
    assert L.half_twist_block(3, 2, 3).letters == (2,)
    assert L.half_twist_block(4, 1, 3).letters == (1, 2, 1)
    assert L.half_twist_block(5, 2, 2).letters == ()


def test_half_twist_reverses_block():
    assert L.permutation(L.half_twist_block(4, 1, 3)) == (3, 2, 1, 4)
    assert L.permutation(L.half_twist_block(6, 2, 5)) == (1, 5, 4, 3, 2, 6)


def test_full_twist_is_pure():
    for n, a, b in [(3, 1, 3), (5, 2, 4), (6, 1, 6)]:
        assert L.is_pure(L.full_twist_block(n, a, b))


def test_block_range_errors():
    with pytest.raises(ValueError):
        L.half_twist_block(3, 0, 2)
    with pytest.raises(ValueError):
        L.half_twist_block(3, 2, 4)


def test_permutation_exponent_purity_examples():
    assert L.permutation(BraidWord(3, (1,))) == (2, 1, 3)
    assert L.is_pure(L.full_twist_block(3, 1, 3))
    for n in range(2, 7):
        word = L.full_twist_block(n, 1, n)
        assert L.exponent_sum(word) == n * (n - 1)


def test_letters_out_of_range_rejected():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(1, (1,))
    with pytest.raises(ValueError, match="strand count"):
        BraidWord(0)


def test_braid_relations_all_small_n():
    for n in range(2, 9):
        for i in range(1, n - 1):
            assert L.braids_equal(
                BraidWord(n, (i, i + 1, i)), BraidWord(n, (i + 1, i, i + 1))
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                assert L.braids_equal(BraidWord(n, (i, j)), BraidWord(n, (j, i)))


def test_boundary_word_preserved_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 6)
        word = random_braid(rng, n, rng.randint(0, 40))
        assert L.boundary_word_image(word) == tuple(range(1, n + 1))


def test_full_twist_central_random():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 6)
        word = random_braid(rng, n, rng.randint(0, 25))
        delta_sq = L.full_twist_block(n, 1, n)
        assert L.braids_equal(word * delta_sq, delta_sq * word)


def test_fast_paths_never_overrule_oracle():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 5)
        u = random_braid(rng, n, rng.randint(0, 14))
        v = random_braid(rng, n, rng.randint(0, 14))
        oracle = L.artin_image(u) == L.artin_image(v)
        assert L.braids_equal(u, v) == oracle
        if L.exponent_sum(u) != L.exponent_sum(v) or L.permutation(u) != L.permutation(v):
            assert not oracle


def test_free_reduce_idempotent_and_nonincreasing():
    rng = random.Random(14)
    for _ in range(200):
        stream = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 30))]
        reduced = L.free_reduce(stream)
        assert L.free_reduce(reduced) == reduced
        assert len(reduced) <= len(stream)
        # no cancelling pair survives
        assert all(a != -b for a, b in zip(reduced, reduced[1:]))


def test_word_algebra():
    u = BraidWord(4, (1, 2))
    v = BraidWord(4, (3,))
    assert (u * v).letters == (1, 2, 3)
    assert u.inverse().letters == (-2, -1)
    assert (u**2).letters == (1, 2, 1, 2)
    assert (u**-1).letters == (-2, -1)
    assert len(u) == 2


def _reference_act_letter(images, letter):
    """One letter's automorphism applied to every image, reducing as it goes."""
    i = abs(letter)
    if letter > 0:
        table = {i: (i, i + 1, -i), -i: (i, -(i + 1), -i), i + 1: (i,), -(i + 1): (-i,)}
    else:
        table = {
            i: (i + 1,),
            -i: (-(i + 1),),
            i + 1: (-(i + 1), i, i + 1),
            -(i + 1): (-(i + 1), -i, i + 1),
        }
    new_images = []
    for word in images:
        out = []
        for x in word:
            for y in table.get(x, (x,)):
                if out and out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
        new_images.append(out)
    return new_images


def _reference_artin_image(word):
    """The action read left to right: every letter rewrites all n images."""
    images = [[j] for j in range(1, word.n + 1)]
    for letter in word.letters:
        images = _reference_act_letter(images, letter)
    return tuple(tuple(image) for image in images)


def test_artin_image_matches_left_to_right_reference():
    # The reference costs grow with the image lengths, which grow fast with
    # the word length; 40 letters still reach images past 1,000 letters.
    rng = random.Random(15)
    cases = set()
    long_images = 0
    for _ in range(2000):
        n = rng.randint(1, 8)
        length = 0 if n == 1 else rng.randint(0, 40)
        word = random_braid(rng, n, length)
        images = L.artin_image(word)
        assert images == _reference_artin_image(word)
        cases.update((n, letter) for letter in word.letters)
        long_images += max(map(len, images)) > 1000
    assert cases == {(n, s * i) for n in range(2, 9) for i in range(1, n) for s in (1, -1)}
    assert long_images >= 50


def _reference_right_to_left(word):
    """The action on whole images, each product reduced at its junctions, no conjugate pairs."""
    images = [(j,) for j in range(1, word.n + 1)]
    for letter in reversed(word.letters):
        i = abs(letter) - 1
        left, right = images[i], images[i + 1]
        if letter > 0:
            images[i] = reduced_product(left, right, inverse_letters(left))
            images[i + 1] = left
        else:
            images[i] = right
            images[i + 1] = reduced_product(inverse_letters(right), left, right)
    return tuple(images)


def test_artin_image_matches_the_whole_image_kernel_on_monodromy_words():
    rng = random.Random(41)
    for n in range(2, 41):
        arr, _ = L.shear_to_generic(random_arrangement(rng, n))
        word = L.lantern_relation(arr).rhs_element.braid
        assert L.artin_image(word) == _reference_right_to_left(word), n


_letters = st.integers(1, 7).flatmap(
    lambda m: st.lists(st.integers(-m, m).filter(bool), max_size=60).map(lambda ls: (m + 1, ls))
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_letters)
def test_artin_image_matches_the_whole_image_kernel(case):
    n, letters = case
    word = BraidWord(n, letters)
    images = L.artin_image(word)
    assert images == _reference_right_to_left(word)
    assert L.artin_image(word * word.inverse()) == tuple((j,) for j in range(1, n + 1))


@pytest.mark.parametrize(
    "n, letters, expected",
    [
        # sigma_1^-2: its last letter, evaluated first, leaves x_2^-1 x_1 x_2
        # in slot 2; the other conjugates x_2 through its inverse, so
        # v = (-2,), x = -1, w = (), and v x v^-1 w ends in x_2, which goes
        (2, (-1, -1), ((-2, 1, 2), (-2, -1, 2, 1, 2))),
        # at sigma_1, v = (-2, 1, 2), x = x_3 and w = v x_3^-1 x_2^-1 x_1^-1:
        # v is a prefix of w, the junction cancels x_3 and two letters of v,
        # and the x_2^-1 left over goes
        (3, (1, -1, 2, -1), ((2,), (-2, 1, 2, 3, -2, -1, 2), (-2, 1, 2))),
    ],
    ids=["spelled", "prefix"],
)
def test_artin_image_strips_every_trailing_generator_letter(n, letters, expected):
    word = BraidWord(n, letters)
    assert L.artin_image(word) == expected == _reference_right_to_left(word)


def test_full_twist_image_is_conjugation_by_the_boundary_word():
    # the full twist acts as conjugation by x_1 ... x_n
    for n in range(2, 31):
        images = L.artin_image(L.full_twist_block(n, 1, n))
        boundary = tuple(range(1, n + 1))
        inverse = tuple(-x for x in reversed(boundary))
        for j in range(1, n + 1):
            assert images[j - 1] == L.free_reduce(boundary + (j,) + inverse)


def _reference_permutation(n, letters):
    """The per-letter loop: swap the strands at each letter's two positions."""
    at = list(range(1, n + 1))
    for letter in letters:
        i = abs(letter)
        at[i - 1], at[i] = at[i], at[i - 1]
    result = [0] * n
    for position, strand in enumerate(at, start=1):
        result[strand - 1] = position
    return tuple(result)


def test_composed_permutations_match_the_letter_loop():
    rng = random.Random(16)
    for _ in range(2000):
        n = rng.randint(1, 9)
        u, v, w = (random_braid(rng, n, 0 if n == 1 else rng.randint(0, 20)) for _ in range(3))
        for word in (u * v, u * v * w, (u * v).inverse(), u.inverse() * w, w**-2):
            assert L.permutation(word) == _reference_permutation(n, word.letters)
        a = rng.randint(1, n)
        b = rng.randint(a, n)
        for twist in (L.half_twist_block(n, a, b), L.full_twist_block(n, a, b)):
            assert L.permutation(twist) == _reference_permutation(n, twist.letters)
            product = u * twist
            assert L.permutation(product) == _reference_permutation(n, product.letters)


@pytest.mark.parametrize("middle_first", [True, False], ids=["middle-first", "last-first"])
def test_orders_of_prefixes_of_one_long_word_match_the_letter_loop(middle_first):
    """Strand orders of prefixes of one 20,000-letter tuple, and of words built on them.

    The prefixes share the tuple, as a replay's conjugators do.  Each
    replays its own letters once and caches the order, whichever prefix
    is read first, and no read recurses.
    """
    rng = random.Random(17)
    n = 7
    tails = [random_braid(rng, n, rng.randint(1, 3)).letters for _ in range(10_000)]
    spelled = tuple(chain.from_iterable(tails))
    links = [_known(n, spelled, end) for end in accumulate(map(len, tails))]
    last, middle = links[-1], links[len(links) // 2]
    assert last.letters is spelled and middle.letters == spelled[: len(middle)]
    words = [middle, last] if middle_first else [last, middle]
    words += [last.inverse(), middle * L.half_twist_block(n, 2, 6) * L.full_twist_block(n, 1, 4)]
    # prefixes read after a longer one, and pure words on them
    words += [links[len(links) // 4], links[-2], links[0], middle * middle.inverse()]
    words += [links[-2] * links[-2].inverse(), links[len(links) // 4] * L.full_twist_block(n, 1, n)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        for word in words:
            reference = _reference_permutation(n, word.letters)
            assert L.permutation(word) == reference
            assert L.is_pure(word) == (reference == tuple(range(1, n + 1)))
    finally:
        sys.setrecursionlimit(limit)
    assert L.is_pure(middle * middle.inverse()) and not L.is_pure(last)


def _reference_rejects(n, letter):
    """The per-letter validator the builtin checks replaced."""
    return not isinstance(letter, int) or letter == 0 or abs(letter) > n - 1


class _Index(IntEnum):
    ONE = 1
    TWO = 2
    FIVE = 5


def test_validator_rejects_exactly_the_reference_letters():
    candidates = [*range(-7, 8), 10**30, -(10**30), _Index.ONE, _Index.TWO, _Index.FIVE]
    candidates += [1.0, -2.0, 0.5, Fraction(1), Decimal(2), 1j, "1", None, (1,), [2]]
    for n in range(1, 7):
        for letter in candidates:
            words = [(letter,)] if n == 1 else [(letter,), (1, letter), (letter, -1)]
            for word in words:
                rejected = any(_reference_rejects(n, x) for x in word)
                try:
                    BraidWord(n, word)
                except ValueError:
                    assert rejected, (n, word)
                else:
                    assert not rejected, (n, word)


def test_bool_letters_rejected():
    for word in ((True,), (1, True), (False,), (2, -1, True)):
        with pytest.raises(ValueError):
            BraidWord(3, word)
