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

The convention makes sigma_i the counterclockwise (positive) half twist of
two adjacent strands; it is pinned operationally by the relation tests
downstream (the classical lantern verifies, and flipping the sign breaks
it), not by prose.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        if self.n < 1:
            raise ValueError(f"strand count must be >= 1, got {self.n}")
        for letter in self.letters:
            if not isinstance(letter, int) or letter == 0 or abs(letter) > self.n - 1:
                raise ValueError(
                    f"letter {letter!r} outside the generator range 1..{self.n - 1}"
                )

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.n != other.n:
            raise StrandCountMismatch(f"{self.n} strands vs {other.n} strands")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple(-letter for letter in reversed(self.letters)))

    def __pow__(self, exponent: int) -> BraidWord:
        base = self if exponent >= 0 else self.inverse()
        return BraidWord(self.n, base.letters * abs(exponent))

    def __len__(self) -> int:
        return len(self.letters)


def generator(n: int, i: int) -> BraidWord:
    """The single generator sigma_i in B_n."""
    return BraidWord(n, (i,))


def free_reduce(letters: Iterable[int]) -> FreeWord:
    """Freely reduce a stream of signed letters: adjacent inverse pairs cancel.

    Used on free-group words and, as a braid-group identity, on braid words.
    """
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


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


def _inverse(word: FreeWord) -> FreeWord:
    return tuple(-x for x in reversed(word))


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
            images[i] = _product(left, right, _inverse(left))
            images[i + 1] = left
        else:
            images[i] = right
            images[i + 1] = _product(_inverse(right), left, right)
    return tuple(images)


def permutation(word: BraidWord) -> Permutation:
    """Start-position to end-position permutation of the strands."""
    at = list(range(1, word.n + 1))
    for letter in word.letters:
        i = abs(letter)
        at[i - 1], at[i] = at[i], at[i - 1]
    result = [0] * word.n
    for position, strand in enumerate(at, start=1):
        result[strand - 1] = position
    return tuple(result)


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
    return BraidWord(n, tuple(letters))


def full_twist_block(n: int, a: int, b: int) -> BraidWord:
    """The full twist of the block a..b: the half twist squared, pure."""
    half = half_twist_block(n, a, b)
    return BraidWord(n, half.letters * 2)


def boundary_word_image(word: BraidWord) -> FreeWord:
    """Image of the product x_1 x_2 ... x_n, which every braid fixes."""
    images = artin_image(word)
    stream = [letter for image in images for letter in image]
    return free_reduce(stream)
