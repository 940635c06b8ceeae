"""Framed pure-braid model of the mapping class group of a holed sphere.

A genus-zero surface with boundary components d_0 (outer) and d_1 .. d_n
(one per line) has just enough mapping class group for the relations this
library emits.  The model element is a pair

    (pure braid word on n strands, integer framing vector indexed by line),

equality being semantic braid equality together with exact framing
equality.  Only pure braids are ever composed, so line labels stay glued to
strand positions and framings add componentwise; the model is an honest
direct product rather than a permutation-twisted one.  Non-pure braids
appear solely inside twist descriptors as conjugators.

Products are freely reduced as they are built: `compose_all` cancels every
adjacent sigma_i sigma_i^{-1} pair across factor boundaries, which is a
group identity, so a telescoping product is stored in its cancelled form.
`twist_product` builds the product of many conjugated twists without
spelling out their conjugators: a conjugator is a prefix chain (the
conjugator it extends plus a tail, see `braids.BraidWord`), and where
consecutive conjugators share a chain link only the tails beyond it are
emitted.  Reduction only shortens words; equality is still decided by the
Artin oracle alone.

A relation read off a wiring diagram (an arrangement's sweep, or a
schema-4 document) holds its twists as a `TwistReplay`: the checked
blocks and the lines each one encloses.  Its product is spelled from the
blocks alone, [H_1 ... H_s][H_s ... H_1], and its descriptors are built,
and each checked by `TwistDescriptor`, only when a caller reads them.

Dehn twist constructors:

* `inner_boundary_twist(n, L)` - twist about a curve parallel to d_L:
  empty braid, framing e_L.
* `outer_boundary_twist(n)` - twist about a curve parallel to d_0: the
  full twist on all strands, framing (1, ..., 1).  The all-ones framing is
  forced by consistency: the twist about a curve enclosing every line must
  agree with the outer boundary twist (a pencil collapses the two).
* `conjugated_twist(descriptor)` - twist about an interior curve enclosing
  a set E of lines, transported by a conjugator braid: the braid part is
  conjugator * block-full-twist * conjugator^{-1} (temporal), the framing
  the indicator vector of E.  Assigning interior twists framing 0 instead
  is provably inconsistent and is kept around only as a negative control
  in the test suite.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import add
from typing import Iterable

from .braids import (
    BraidWord,
    StrandCountMismatch,
    _known,
    _link,
    braids_equal,
    divergent_tails,
    full_twist_block,
    half_twist_letters,
    inverse_letters,
    is_pure,
    permutation,
    reduce_onto,
)


class NotPure(ValueError):
    """A framed element was built on a non-pure braid, which the model forbids."""


class InconsistentDescriptor(ValueError):
    """A twist descriptor's conjugator does not carry its enclosed lines onto its block."""


def twist_label(enclosed: Iterable[int]) -> str:
    """Display label for the twist about a curve enclosing these lines."""
    ids = sorted(enclosed)
    if len(ids) == 2 and ids[1] <= 9:
        return f"a{ids[0]}{ids[1]}"
    return "a(" + ",".join(str(i) for i in ids) + ")"


def boundary_label(line_id: int) -> str:
    """Display label for a boundary twist; line_id 0 is the outer boundary."""
    return f"d{line_id}"


@dataclass(frozen=True)
class TwistDescriptor:
    """A conjugated interior Dehn twist, described algebraically.

    The curve is the block-enclosing circle on positions a..b pulled back
    through `conjugator`; `enclosed` is the set of line ids the curve
    separates from the rest, and `label` is read off it once, when the
    descriptor is built, and kept out of equality, hashing and repr.
    Consistency (positions a..b of the conjugator's strand order hold
    exactly the enclosed ids; for the monodromy's beta_k that order is the
    fiber order O_{k-1}) is enforced here, keeping the algebra and the
    curve's line set in lockstep.  The monodromy and the relation parser
    build each conjugator as a link extending the one checked before it,
    so each check replays only that link's tail and moves the chain's one
    order on to its conjugator; a descriptor built later over an older
    link replays that link's order from the nearest prefix that still
    knows one, with the same outcome and message.
    """

    conjugator: BraidWord
    block: tuple[int, int]
    enclosed: frozenset[int]
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.conjugator.n
        a, b = self.block
        if type(a) is not int or type(b) is not int or not 1 <= a <= b <= n:
            raise InconsistentDescriptor(f"block [{a!r}, {b!r}] is not a block of 1..{n}")
        enclosed = frozenset(self.enclosed)
        object.__setattr__(self, "enclosed", enclosed)
        for line_id in enclosed:  # exact type: a bool is an int equal to 0 or 1
            if type(line_id) is not int or not 1 <= line_id <= n:
                raise InconsistentDescriptor(f"enclosed {line_id!r} is not a line id in 1..{n}")
        if len(enclosed) != b - a + 1:
            raise InconsistentDescriptor(
                f"block [{a}, {b}] holds {b - a + 1} strands but encloses "
                f"{len(enclosed)} lines"
            )
        order = self.conjugator._strand_order
        if enclosed != set(order[a - 1 : b]):
            positions = [p for p, line_id in enumerate(order, start=1) if line_id in enclosed]
            raise InconsistentDescriptor(
                f"conjugator sends lines {sorted(enclosed)} to positions "
                f"{positions}, not onto [{a}, {b}]"
            )
        object.__setattr__(self, "label", twist_label(enclosed))


@dataclass(frozen=True)
class FramedElement:
    """A mapping class: pure braid word plus per-line boundary framing."""

    braid: BraidWord
    framing: tuple[int, ...]

    def __post_init__(self):
        if len(self.framing) != self.braid.n:
            raise ValueError(
                f"framing length {len(self.framing)} != strand count {self.braid.n}"
            )
        if not is_pure(self.braid):
            raise NotPure(
                "framed elements must carry pure braids; got permutation "
                f"{permutation(self.braid)}"
            )

    @property
    def n(self) -> int:
        return self.braid.n

    def __mul__(self, other: FramedElement) -> FramedElement:
        return compose(self, other)

    def inverse(self) -> FramedElement:
        return FramedElement(self.braid.inverse(), tuple(-f for f in self.framing))

    def __pow__(self, exponent: int) -> FramedElement:
        braid = self.braid**exponent
        return FramedElement(braid, tuple(f * exponent for f in self.framing))


def identity_element(n: int) -> FramedElement:
    return FramedElement(BraidWord(n), (0,) * n)


def compose(a: FramedElement, b: FramedElement) -> FramedElement:
    """Temporal product: a happens first, then b; framings add."""
    return compose_all((a, b))


def compose_all(factors: Iterable[FramedElement], n: int | None = None) -> FramedElement:
    """Temporal product of a sequence; the first factor acts first.

    One streaming pass: each factor's strand count is checked, its framing
    added and its letters pushed onto one stack that pops on
    sigma_i sigma_i^{-1} as it arrives, so no factor is held after its turn
    and the product comes out freely reduced.  Free reduction is a group
    identity, and the result is built once, so its letters and purity are
    checked once per product.  Componentwise framing addition is valid
    exactly because every factor is pure, so line labels are
    position-stable across the composition.
    """
    letters: list[int] = []
    framing = None
    for factor in factors:
        if n is None:
            n = factor.n
        elif factor.n != n:
            raise StrandCountMismatch(f"{n} strands vs {factor.n} strands")
        framing = factor.framing if framing is None else tuple(map(add, framing, factor.framing))
        reduce_onto(letters, factor.braid.letters)
    if n is None:
        raise ValueError("empty product needs an explicit strand count")
    return FramedElement(BraidWord(n, tuple(letters)), framing or (0,) * n)


def twist_product(descriptors: Iterable[TwistDescriptor], n: int) -> FramedElement:
    """Temporal product of the descriptors' conjugated twists, built as one word.

    The product c_1 F_1 c_1^{-1} c_2 F_2 c_2^{-1} ... (F_k the full twist
    of block k) is emitted with each junction c_k^{-1} c_{k+1} spelled as
    the inverse of c_k's tails times c_{k+1}'s tails beyond their nearest
    shared chain link (`divergent_tails`): the shared prefix and its
    inverse cancel freely, so they are never read.  The stream is freely
    reduced once, and the free reduction of a word is unique, so the
    result is letter for letter `compose_all` of the `conjugated_twist`s,
    however the conjugators were built.  Each descriptor checked its
    consistency when it was built; the product is checked for purity here.
    """
    letters: list[int] = []
    framing = [0] * n
    previous = BraidWord(n)
    for descriptor in descriptors:
        conjugator = descriptor.conjugator
        if conjugator.n != n:
            raise StrandCountMismatch(f"{n} strands vs {conjugator.n} strands")
        back, forth = divergent_tails(previous, conjugator)
        for tail in back:
            reduce_onto(letters, inverse_letters(tail))
        for tail in reversed(forth):
            reduce_onto(letters, tail)
        reduce_onto(letters, half_twist_letters(*descriptor.block) * 2)
        for line_id in descriptor.enclosed:
            framing[line_id - 1] += 1
        previous = conjugator
    reduce_onto(letters, inverse_letters(previous.letters))
    return FramedElement(BraidWord(n, tuple(letters)), tuple(framing))


class TwistReplay(Sequence):
    """The conjugated twists of a wiring diagram, in temporal order, built on first read.

    `blocks` lists the diagram's position blocks in sweep order from the
    basepoint, and `enclosed[k]` the lines at block k in the order before
    it; the caller has checked both (`geometry.fiber_blocks` against the
    geometry, `relation._sweep` for a document).  Entry i of the sequence
    is the twist of block s - i (s blocks, the leftmost point acting
    first), with conjugator beta_k = H_1 ... H_(k-1), H_j the half twist of
    block j.  The descriptors are built along one conjugator chain on the
    first index or iteration, each checked by `TwistDescriptor`, and kept.

    Two replays are equal when their strand counts and blocks are (the
    enclosed lines follow from the blocks); a replay equals the tuple of
    the descriptors it stands for and hashes like it, so a relation holding
    either compares, hashes and prints alike.
    """

    __slots__ = ("n", "blocks", "enclosed", "_descriptors", "_element")

    def __init__(
        self, n: int, blocks: Iterable[tuple[int, int]], enclosed: Iterable[Iterable[int]]
    ):
        self.n = n
        self.blocks = tuple(blocks)
        self.enclosed = tuple(enclosed)
        self._descriptors = None
        self._element = None

    def descriptors(self) -> tuple[TwistDescriptor, ...]:
        """The twists in temporal order, built and checked once."""
        built = self._descriptors
        if built is None:
            beta = BraidWord(self.n)
            sweep = []
            for k, (block, lines) in enumerate(zip(self.blocks, self.enclosed)):
                if k:
                    beta = _link(beta, half_twist_letters(*self.blocks[k - 1]))
                sweep.append(TwistDescriptor(beta, block, frozenset(lines)))
            built = self._descriptors = tuple(reversed(sweep))
        return built

    def product(self) -> FramedElement:
        """`twist_product` of the descriptors, spelled from the blocks: [H_1 ... H_s][H_s ... H_1].

        With beta_k = H_1 ... H_(k-1) the temporal product of the twists
        beta_k H_k^2 beta_k^-1, leftmost (k = s) first, is spelled

            beta_s H_s^2 beta_s^-1  beta_(s-1) H_(s-1)^2 beta_(s-1)^-1 ... ,

        and each junction beta_(k+1)^-1 beta_k = H_k^-1 beta_k^-1 beta_k
        cancels freely to H_k^-1, which cancels one H_k of the H_k^2 after
        it.  What is left is [H_1 ... H_s][H_s ... H_1], a positive word, so
        freely reduced; the free reduction of a word is unique, so this is
        letter for letter `twist_product`'s result.  Each line's framing
        counts the blocks that enclose it.  The word is checked for purity
        by `FramedElement`, and kept.
        """
        element = self._element
        if element is None:
            halves = [half_twist_letters(a, b) for a, b in self.blocks]
            letters = tuple(chain.from_iterable(chain(halves, reversed(halves))))
            framing = [0] * self.n
            for lines in self.enclosed:
                for line_id in lines:
                    framing[line_id - 1] += 1
            element = self._element = FramedElement(_known(self.n, letters), tuple(framing))
        return element

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, index):
        return self.descriptors()[index]

    def __iter__(self):
        return iter(self.descriptors())

    def __reversed__(self):
        return reversed(self.descriptors())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TwistReplay):
            return self.n == other.n and self.blocks == other.blocks
        if isinstance(other, tuple):
            return self.descriptors() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.descriptors())

    def __repr__(self) -> str:
        return repr(self.descriptors())


def inner_boundary_twist(n: int, line_id: int) -> FramedElement:
    """Dehn twist about a curve parallel to the boundary of line `line_id`."""
    if not 1 <= line_id <= n:
        raise ValueError(f"line id {line_id} outside 1..{n}")
    framing = tuple(1 if k == line_id else 0 for k in range(1, n + 1))
    return FramedElement(BraidWord(n), framing)


def outer_boundary_twist(n: int) -> FramedElement:
    """Dehn twist about a curve parallel to the outer boundary d_0."""
    return FramedElement(full_twist_block(n, 1, n), (1,) * n)


def conjugated_twist(descriptor: TwistDescriptor) -> FramedElement:
    """Dehn twist about the interior curve a descriptor pins down.

    The braid is conjugator * block full twist * conjugator^{-1}, a link
    of the conjugator's chain, so the purity check replays the full twist
    and the inverse from the conjugator's order.
    """
    conjugator = descriptor.conjugator
    n = conjugator.n
    braid = conjugator * full_twist_block(n, *descriptor.block) * conjugator.inverse()
    framing = tuple(1 if k in descriptor.enclosed else 0 for k in range(1, n + 1))
    return FramedElement(braid, framing)


def elements_equal(a: FramedElement, b: FramedElement) -> bool:
    """Exact model equality: braid parts equal and framings identical."""
    if a.n != b.n:
        raise StrandCountMismatch(f"{a.n} strands vs {b.n} strands")
    return a.framing == b.framing and braids_equal(a.braid, b.braid)


def to_braid(a: FramedElement) -> BraidWord:
    """Forget the framing, killing exactly the inner boundary twists."""
    return a.braid
