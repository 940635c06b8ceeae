"""Braid words and a decidable word problem via the Artin action.

A braid on n strands is a word in the generators sigma_1 .. sigma_{n-1},
stored as a tuple of signed indices: +i is sigma_i, -i its inverse.  Words
read temporally left to right: in u * v the word u happens first.  No
normal form is ever imposed on words; equality is semantic.

Equality is decided through the faithful Artin action on the free group
F_n = <x_1, ..., x_n>.  The pinned generator convention is

    sigma_i :  x_i |-> x_i x_{i+1} x_i^{-1},   x_{i+1} |-> x_i,

with all other generators fixed, and for a word u * v the automorphism of
u applies first.  Two words are equal in the braid group exactly when they
act identically on x_1 .. x_n.  The action is evaluated from the last
letter back, so each letter rewrites only the two images it touches; every
image is kept freely reduced, which makes image equality word equality in
the free group.

Every word carries its strand permutation, computed once: a product u * v
composes the permutations of u and v in O(n), an inverse inverts its
word's, and the block twists know theirs in closed form, so only a word
spelled letter by letter pays a pass over its letters.  Letters are
validated where they enter a word, with builtins (`min`, `max`, `in` and
the set of their types) rather than a per-letter loop; products and
inverses of checked words, and block twists, are valid by construction and
are not re-checked.

The convention makes sigma_i the counterclockwise (positive) half twist of
two adjacent strands; it is pinned operationally by the relation tests
downstream (the classical lantern verifies, and flipping the sign breaks
it), not by prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import neg
from typing import Iterable

# A freely reduced word in the free group: signed generator labels, +j for
# x_j and -j for its inverse.
FreeWord = tuple[int, ...]

# A permutation of strand positions: entry k-1 is the final position of the
# strand that starts at position k (positions are 1-based, top to bottom).
Permutation = tuple[int, ...]


class StrandCountMismatch(ValueError):
    """Two braid words on different strand counts were combined."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_n, read temporally left to right."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        n, letters = self.n, self.letters
        if n < 1:
            raise ValueError(f"strand count must be >= 1, got {n}")
        if not letters:
            return
        types = set(map(type, letters))
        if (
            bool in types
            or not all(issubclass(t, int) for t in types)
            or 0 in letters
            or min(letters) <= -n
            or max(letters) >= n
        ):
            bad = next(
                x
                for x in letters
                if type(x) is bool or not isinstance(x, int) or not 0 < abs(x) < n
            )
            raise ValueError(
                f"letter {bad!r} is not a generator index in 1..{n - 1} or its negative"
            )

    @cached_property
    def _permutation(self) -> Permutation:
        at = list(range(1, self.n + 1))
        for letter in self.letters:
            i = abs(letter)
            at[i - 1], at[i] = at[i], at[i - 1]
        result = [0] * self.n
        for position, strand in enumerate(at, start=1):
            result[strand - 1] = position
        return tuple(result)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.n != other.n:
            raise StrandCountMismatch(f"{self.n} strands vs {other.n} strands")
        then = (0,) + other._permutation  # 1-based lookup
        perm = tuple(map(then.__getitem__, self._permutation))
        return _known(self.n, self.letters + other.letters, perm)

    def inverse(self) -> BraidWord:
        perm = [0] * self.n
        for strand, position in enumerate(self._permutation, start=1):
            perm[position - 1] = strand
        return _known(self.n, inverse_letters(self.letters), tuple(perm))

    def __pow__(self, exponent: int) -> BraidWord:
        base = self if exponent >= 0 else self.inverse()
        return BraidWord(self.n, base.letters * abs(exponent))

    def __len__(self) -> int:
        return len(self.letters)


def _known(n: int, letters: tuple[int, ...], perm: Permutation) -> BraidWord:
    """A word whose letters are valid by construction and whose permutation is known.

    Products and inverses of checked words, and the twists of a checked
    block, qualify: their letters are not checked a second time.
    """
    word = object.__new__(BraidWord)
    word.__dict__.update(n=n, letters=letters, _permutation=perm)
    return word


def generator(n: int, i: int) -> BraidWord:
    """The single generator sigma_i in B_n."""
    return BraidWord(n, (i,))


def reduce_onto(out: list[int], letters: Iterable[int]) -> list[int]:
    """Push `letters` onto the freely reduced stack `out`, cancelling adjacent inverse pairs."""
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


def free_reduce(letters: Iterable[int]) -> FreeWord:
    """Freely reduce a stream of signed letters: adjacent inverse pairs cancel.

    Used on free-group words and, as a braid-group identity, on braid words.
    """
    return tuple(reduce_onto([], letters))


def inverse_letters(word: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse word: letters reversed and negated."""
    return tuple(map(neg, reversed(word)))


def _product(*words: FreeWord) -> FreeWord:
    """Product of freely reduced words, reduced by cancelling at the junctions."""
    out = words[0]
    for word in words[1:]:
        k = 0
        limit = min(len(out), len(word))
        while k < limit and out[-1 - k] == -word[k]:
            k += 1
        out = out[: len(out) - k] + word[k:]
    return out


def artin_image(word: BraidWord) -> tuple[FreeWord, ...]:
    """Images of x_1 .. x_n under the automorphism of `word`.

    For u * v the automorphism of u applies first, so a word s_1 ... s_m
    acts as G = S_m o ... o S_1.  It is evaluated from the last letter
    back: with G_k = G_{k+1} o S_k, a letter sigma_i^{+-1} rewrites only the
    images g_i and g_{i+1}:

        sigma_i:       g_i <- g_i g_{i+1} g_i^{-1},   g_{i+1} <- g_i
        sigma_i^{-1}:  g_i <- g_{i+1},   g_{i+1} <- g_{i+1}^{-1} g_i g_{i+1}

    Each product cancels at its junctions, so every image stays freely
    reduced; reduced words are a normal form, so the images are those of
    any other evaluation order.  This is a total function and the
    equality oracle's entire substance: words are equal in B_n iff their
    images coincide.
    """
    images: list[FreeWord] = [(j,) for j in range(1, word.n + 1)]
    for letter in reversed(word.letters):
        i = abs(letter) - 1
        left, right = images[i], images[i + 1]
        if letter > 0:
            images[i] = _product(left, right, inverse_letters(left))
            images[i + 1] = left
        else:
            images[i] = right
            images[i + 1] = _product(inverse_letters(right), left, right)
    return tuple(images)


def permutation(word: BraidWord) -> Permutation:
    """Start-position to end-position permutation of the strands."""
    return word._permutation


def exponent_sum(word: BraidWord) -> int:
    """Sum of letter signs; an invariant of the braid group element."""
    return sum(1 if letter > 0 else -1 for letter in word.letters)


def is_pure(word: BraidWord) -> bool:
    """Whether the word's permutation is the identity."""
    return permutation(word) == tuple(range(1, word.n + 1))


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    """Decide u = v in B_n.

    Cheap invariants (exponent sum, permutation) may answer "unequal";
    only the Artin oracle ever answers "equal".
    """
    if u.n != v.n:
        raise StrandCountMismatch(f"{u.n} strands vs {v.n} strands")
    if exponent_sum(u) != exponent_sum(v):
        return False
    if permutation(u) != permutation(v):
        return False
    return artin_image(u) == artin_image(v)


def half_twist_block(n: int, a: int, b: int) -> BraidWord:
    """The positive half twist of the contiguous strand block a..b.

    Word (sigma_a)(sigma_{a+1} sigma_a)...(sigma_{b-1} ... sigma_a); its
    permutation reverses the block and fixes everything else.  A singleton
    block gives the empty word.
    """
    if not 1 <= a <= b <= n:
        raise ValueError(f"block [{a}, {b}] outside 1..{n}")
    letters: list[int] = []
    for top in range(a, b):
        letters.extend(range(top, a - 1, -1))
    perm = tuple(range(1, a)) + tuple(range(b, a - 1, -1)) + tuple(range(b + 1, n + 1))
    return _known(n, tuple(letters), perm)


def full_twist_block(n: int, a: int, b: int) -> BraidWord:
    """The full twist of the block a..b: the half twist squared, pure."""
    half = half_twist_block(n, a, b)
    return _known(n, half.letters * 2, tuple(range(1, n + 1)))


def boundary_word_image(word: BraidWord) -> FreeWord:
    """Image of the product x_1 x_2 ... x_n, which every braid fixes."""
    images = artin_image(word)
    stream = [letter for image in images for letter in image]
    return free_reduce(stream)
