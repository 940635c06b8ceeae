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
letter back, so each letter rewrites only the two images it touches.
Every image is a conjugate w x_k w^{-1} of a generator (Artin), kept as
the pair (w, k) with w freely reduced and not ending in x_k^{+-1}: a
normal form, so image equality is pair equality, and a letter costs one
common-prefix scan on two conjugators (`artin_image`).

A word is its letters: a strand count, a tuple and a length.  The word
spells the first `length` letters of the tuple, so the conjugators of a
relation read off a wiring diagram, beta_k = H_1 ... H_(k-1), are
prefixes of one shared tuple H_1 ... H_s and cost no letters of their
own (`framed.TwistReplay.descriptors`).  A product concatenates its
factors' letters.  A word's strand order (the strand at each position
once the word has acted) has one derivation: replay the letters from the
identity, once, and cache it on the word (`_strand_order`).  Letters are
validated where they enter a word, by `BraidWord(...)` and by the
relation parser (every entry's letters in one call) through one helper,
with builtins (`min`, `max`, `in` and the set of their types) rather than
a per-letter loop; products and inverses of checked words, and block
twists, are valid by construction and are not re-checked.

The convention makes sigma_i the counterclockwise (positive) half twist of
two adjacent strands; it is pinned operationally by the relation tests
downstream (the classical lantern verifies, and flipping the sign breaks
it), not by prose.
"""

from __future__ import annotations

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


class BraidWord:
    """A word in the braid group B_n, read temporally left to right.

    The word spells the first `len(word)` letters of its letter tuple:
    all of them for a word built by `BraidWord(n, letters)`, a prefix for
    a conjugator of a replay, whose conjugators share one tuple.  Equality
    compares letters (a shared tuple is not read), hashing reads the last
    letter alone, and words are immutable.
    """

    __slots__ = ("n", "_source", "_length", "_order")

    def __new__(cls, n: int, letters: Iterable[int] = ()):
        if n < 1:
            raise ValueError(f"strand count must be >= 1, got {n}")
        return _known(n, _checked_letters(n, letters))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"BraidWord is immutable: cannot set {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a spelled word: the slots refuse setattr
        return BraidWord, (self.n, self.letters)

    def __repr__(self) -> str:
        return f"BraidWord(n={self.n!r}, letters={self.letters!r})"

    @property
    def letters(self) -> tuple[int, ...]:
        """The word's letters: its tuple, or the prefix of a shared one."""
        source = self._source
        return source if self._length == len(source) else source[: self._length]

    @property
    def _strand_order(self) -> tuple[int, ...]:
        """Entry p-1 is the strand at position p once the word has acted; replayed once, cached."""
        order = self._order
        if order is None:
            at = list(range(1, self.n + 1))
            for letter in self.letters:
                i = abs(letter)
                at[i - 1], at[i] = at[i], at[i - 1]
            order = tuple(at)
            _set(self, "_order", order)
        return order

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.n != other.n:
            raise StrandCountMismatch(f"{self.n} strands vs {other.n} strands")
        if not other._length:
            return self
        if not self._length:
            return other
        return _known(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return _known(self.n, inverse_letters(self.letters))

    def __pow__(self, exponent: int) -> BraidWord:
        base = self if exponent >= 0 else self.inverse()
        return BraidWord(self.n, base.letters * abs(exponent))

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BraidWord):
            return NotImplemented
        return (
            self.n == other.n
            and self._length == other._length
            and (self._source is other._source or self.letters == other.letters)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._length, self._source[self._length - 1] if self._length else 0))


_set = object.__setattr__


def _checked_letters(n: int, letters: Iterable[int]) -> tuple[int, ...]:
    """`letters` as a tuple, each an int generator index in 1..n-1 or its negative."""
    letters = tuple(letters)
    if letters:
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
    return letters


def _known(n: int, letters: tuple[int, ...], length: int | None = None) -> BraidWord:
    """The word of the first `length` of `letters` (all of them by default), valid already.

    Inverses of checked words, the twists of a checked block and letters
    that passed `_checked_letters` qualify: they are not checked a second
    time.  Its strand order is replayed when first read.
    """
    word = object.__new__(BraidWord)
    _set(word, "n", n)
    _set(word, "_source", letters)
    _set(word, "_length", len(letters) if length is None else length)
    _set(word, "_order", None)
    return word


def _common_prefix(u: BraidWord, v: BraidWord) -> int:
    """How many leading letters u and v share; prefixes of one tuple are not read."""
    k = min(u._length, v._length)
    a, b = u._source, v._source
    if a is b or a[:k] == b[:k]:
        return k
    return next(i for i in range(k) if a[i] != b[i])


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


def reduced_product(*words: FreeWord) -> FreeWord:
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

    Every image is a conjugate of a generator, so it is kept as a pair
    (w, k) standing for w x_k w^{-1}, with w freely reduced and not ending
    in x_k^{+-1}; then w x_k w^{-1} is freely reduced as spelled.  A letter
    moves one pair unchanged and conjugates the other, (w, a) say, through
    the moved image g = v x_b^{+-1} v^{-1}: the new conjugator is the free
    reduction of g w with its trailing x_a^{+-1} letters dropped.  With P
    the longest common prefix of v = P r and w = P s, g w is
    P r x_b^{+-1} r^{-1} s, which is reduced when r is non-empty (r and s
    start differently, and r does not end in x_b^{+-1}); when r is empty
    only the junction of P x_b^{+-1} and s cancels, and it is cancelled in
    place.  So a letter costs one common-prefix scan on two conjugators and
    a few tuple slices, done inside the loop: no product of whole images
    and no helper call per letter.

    The images are spelled from the pairs at the end.  Reduced words are a
    normal form, so they are those of any other evaluation order, and two
    words' pairs agree exactly when their images do.  This is a total
    function and the equality oracle's entire substance: words are equal
    in B_n iff their images coincide.
    """
    conjugators: list[FreeWord] = [()] * word.n
    generators = list(range(1, word.n + 1))
    for letter in reversed(word.letters):
        # The image g = v x v^-1 at slot `through` moves to slot `inner`, and
        # the image w x_k w^-1 there is conjugated through g (sigma_i) or
        # through g^-1 (sigma_i^-1, x negated) into slot `through`.
        if letter > 0:
            through, inner = letter - 1, letter
            x = generators[through]
        else:
            through, inner = -letter, -letter - 1
            x = -generators[through]
        v = conjugators[through]
        w = conjugators[inner]
        k = generators[inner]
        lv, lw = len(v), len(w)
        p = lv if lv < lw else lw
        if v[:p] != w[:p]:  # binary search for the common prefix, on C-level slices
            lo = 0
            while p - lo > 1:
                mid = (lo + p) // 2
                if v[lo:mid] == w[lo:mid]:
                    lo = mid
                else:
                    p = mid
            p = lo
        if p < lv:  # reduced as spelled
            c = v + (x,) + tuple(map(neg, v[p:][::-1])) + w[p:]
        elif p < lw and w[p] == -x:  # v is a prefix of w, and the junction cancels in place
            j = p + 1
            while p and j < lw and v[p - 1] == -w[j]:
                p -= 1
                j += 1
            c = v[:p] + w[j:]
        else:
            c = v + (x,) + w[p:]
        end = len(c)
        while end and (c[end - 1] == k or c[end - 1] == -k):
            end -= 1
        conjugators[through] = c[:end]
        conjugators[inner] = v
        generators[inner], generators[through] = abs(x), k
    return tuple(w + (k,) + inverse_letters(w) for w, k in zip(conjugators, generators))


def permutation(word: BraidWord) -> Permutation:
    """Start-position to end-position permutation of the strands: the inverse of its order."""
    perm = [0] * word.n
    for position, strand in enumerate(word._strand_order, start=1):
        perm[strand - 1] = position
    return tuple(perm)


def exponent_sum(word: BraidWord) -> int:
    """Sum of letter signs; an invariant of the braid group element."""
    return sum(1 if letter > 0 else -1 for letter in word.letters)


def is_pure(word: BraidWord) -> bool:
    """Whether the word leaves every strand at its starting position."""
    return word._strand_order == tuple(range(1, word.n + 1))


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    """Decide u = v in B_n.

    Cheap invariants (exponent sum, strand order) may answer "unequal";
    only the Artin oracle ever answers "equal".
    """
    if u.n != v.n:
        raise StrandCountMismatch(f"{u.n} strands vs {v.n} strands")
    if exponent_sum(u) != exponent_sum(v):
        return False
    if u._strand_order != v._strand_order:
        return False
    return artin_image(u) == artin_image(v)


def half_twist_letters(a: int, b: int) -> tuple[int, ...]:
    """Letters of the positive half twist of the strand block a..b.

    (sigma_a)(sigma_{a+1} sigma_a)...(sigma_{b-1} ... sigma_a), empty for a
    singleton block.  The block is not checked: callers pass a checked one.
    """
    letters: list[int] = []
    for top in range(a, b):
        letters.extend(range(top, a - 1, -1))
    return tuple(letters)


def _check_block(n: int, a: int, b: int) -> None:
    if not 1 <= a <= b <= n:
        raise ValueError(f"block [{a}, {b}] outside 1..{n}")


def half_twist_block(n: int, a: int, b: int) -> BraidWord:
    """The positive half twist of the contiguous strand block a..b.

    Its word is `half_twist_letters(a, b)`; it reverses the block and
    fixes everything else.  A singleton block gives the empty word.
    """
    _check_block(n, a, b)
    return _known(n, half_twist_letters(a, b))


def full_twist_block(n: int, a: int, b: int) -> BraidWord:
    """The full twist of the block a..b: the half twist squared, pure."""
    _check_block(n, a, b)
    return _known(n, half_twist_letters(a, b) * 2)


def boundary_word_image(word: BraidWord) -> FreeWord:
    """Image of the product x_1 x_2 ... x_n, which every braid fixes."""
    images = artin_image(word)
    stream = [letter for image in images for letter in image]
    return free_reduce(stream)
