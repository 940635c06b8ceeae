"""Braid monodromy of a real line arrangement and the relation it carries.

Transporting the fiber of the vertical projection from a basepoint right of
everything to a small circle around the rank-k intersection point, along a
path that detours through the upper half plane around every earlier-ranked
projection, braids the fiber points.  Combinatorially the transport is

    beta_k = half_twist(B_1) * half_twist(B_2) * ... * half_twist(B_{k-1}),

one positive block half twist per detour, taken in temporal order (the
detour nearest the basepoint happens first); B_j is the contiguous block of
positions occupied in the fiber order O_{j-1} by the lines through the
rank-j point.  The detour sign is positive because moving the fiber across
a projection through the upper half plane rotates the local cluster
counterclockwise by half a turn; the sign is pinned operationally by the
negative-control tests (flipping it kills the classical lantern).

The loop around the rank-k point then acts as the conjugated full twist

    alpha_k = beta_k * full_twist(B_k) * beta_k^{-1}        (temporal),

an interior Dehn twist whose curve encloses exactly the lines through the
point.  Composing the loops so that the twist at the LEFTMOST point (rank
s, smallest x) acts first telescopes the product to

    alpha_s * ... * alpha_1
      = (D_1 ... D_{s-1}) D_s^2 (D_{s-1} ... D_1)          D_j = half_twist(B_j)
      = [D_1 ... D_s] [D_s ... D_1] = full twist on all strands,

because each product in brackets is a positive word in which every pair of
strands crosses exactly once, i.e. a half twist of the whole fiber.  That
is the braid part of the arrangement's relation; framings do the boundary
bookkeeping on top of it.

The first equality is free cancellation (beta_{k+1}^{-1} beta_k =
D_k^{-1}), so the right-hand word is spelled straight from the blocks as
[D_1 ... D_s][D_s ... D_1], with n(n-1) letters: letter for letter what
`twist_product` makes of the descriptors, since the free reduction of a
word is unique (proof at `framed.TwistReplay.product`).  No conjugator
is spelled for it.  The second equality, with the full twist on the left
side, is still decided by the Artin oracle in `verify_relation` (which
lives in `relation`, so a parsed report can be re-checked there, and is
re-exported here).

`total_monodromy` is the relation's right side with each loop's inner
twists divided out (from a relation the caller passes, or one read off
the arrangement).  Inner twists carry the empty braid, so they leave the
right side's word unchanged and only subtract, from each line's framing,
the number of points on it: mu_L, the line's left exponent plus one.

`lantern_relation` reads the factor lists off the combinatorics: the
exponents mu_L - 1, and the right side as a `framed.TwistReplay` of the
checked blocks and the lines through each point.  It calls neither
`braid_monodromy` nor `twist_product`; the replay spells its word from
the blocks when the relation is verified, and builds its descriptors
(each checked by `TwistDescriptor`) only when a caller reads `rhs`.  The
left side is never spelled there (it is central, see
`relation.verify_relation`).

The replay is derived once per arrangement object and kept in its
`__dict__`, as `geometry` keeps the ranked points and checked blocks, so
`verified_relation` and a later `total_monodromy` on the same arrangement
share one word; `braid_monodromy` pairs the same descriptors with the
points, and keeps its twists there too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .braids import StrandCountMismatch
from .framed import FramedElement, TwistDescriptor, TwistReplay, conjugated_twist
from .geometry import (
    Arrangement,
    IntersectionPoint,
    _ranked,
    fiber_blocks,
    intersections,
    line_multiplicities,
)
from .relation import Relation, verify_relation


@dataclass(frozen=True)
class PointTwist:
    """Monodromy data attached to one intersection point."""

    point: IntersectionPoint
    descriptor: TwistDescriptor

    @cached_property
    def element(self) -> FramedElement:
        """The conjugated twist the descriptor pins down."""
        return conjugated_twist(self.descriptor)


@dataclass(frozen=True)
class MonodromyData:
    """Per-point conjugators, blocks, enclosed sets and twists, rank order."""

    twists: tuple[PointTwist, ...]


def _right_side(arr: Arrangement) -> TwistReplay:
    """The arrangement's twists: its checked blocks and the lines through each point.

    `fiber_blocks` checked each point's lines against the fiber order
    before it (they fill the point's block), so they are the lines the
    block encloses.  Built once per arrangement object and kept on it; it
    holds no reference to the arrangement, so keeping it makes no cycle.
    """
    replay = arr.__dict__.get("_replay")
    if replay is None:
        blocks = fiber_blocks(arr)
        members = [entry[3] for entry in _ranked(arr)[1]]
        replay = arr.__dict__["_replay"] = TwistReplay(arr.n, blocks, members)
    return replay


def braid_monodromy(arr: Arrangement) -> MonodromyData:
    """Conjugator, block, and twist for every intersection point.

    Requires x-generic input; propagates NonGenericX otherwise.  The points
    and their blocks are the arrangement's `intersections` and
    `fiber_blocks`, derived and checked against the geometry once per
    arrangement object (the lines through each point are contiguous in the
    fiber order, and every order matches the heights).  The descriptors
    are those of the arrangement's right side (`lantern_relation(arr).rhs`,
    the same objects): point k's conjugator is beta_k, one link of a prefix
    chain that holds beta_(k-1) rather than its letters, so the
    descriptors share O(n^2) letters in all, and each descriptor's
    consistency (beta_k's strand order, the fiber order O_{k-1}, holds the
    enclosed lines on the block) is checked once, when it is built.

    The twists are a pure function of the immutable arrangement, so they
    are built once per arrangement object and kept in its `__dict__` next
    to its points and blocks.
    """
    twists = arr.__dict__.get("_twists")
    if twists is None:
        descriptors = reversed(_right_side(arr))  # rank order
        twists = arr.__dict__["_twists"] = tuple(map(PointTwist, intersections(arr), descriptors))
    return MonodromyData(twists)


def lantern_relation(arr: Arrangement, name: str = "lantern") -> Relation:
    """The generalized lantern relation the arrangement carries.

    Left side: outer twist times inner twists to the power mu_L - 1 (all
    commuting).  Right side: the conjugated interior twists in temporal
    order, leftmost intersection point acting first, as the arrangement's
    kept `TwistReplay`: every relation read off the arrangement shares its
    word, spelled from the blocks on first use, and its descriptors, built
    only when a caller reads them.  The left side is never spelled here
    (it is central, see `relation.verify_relation`).
    """
    mu = line_multiplicities(arr)
    return Relation(
        name=name,
        n=arr.n,
        lhs=((0, 1),) + tuple((line.id, mu[line.id] - 1) for line in arr.lines),
        rhs=_right_side(arr),
    )


def verified_relation(arr: Arrangement, name: str = "lantern") -> Relation:
    """Convenience: the relation with its verification report attached."""
    relation = lantern_relation(arr, name)
    return relation.with_report(verify_relation(relation))


def total_monodromy(arr: Arrangement, relation: Relation | None = None) -> FramedElement:
    """Monodromy of the big circle around all intersection projections.

    The loop around the rank-k point acts as (product of inner twists of
    the incident lines)^{-1} * alpha_k; the loops compose in temporal
    order, leftmost point first.  For every valid generic arrangement this
    equals the full twist with zero framing, which is deformation
    invariance made computational: sliding all lines into a pencil cannot
    change what happens at infinity.

    The product is the relation's right side R times each line's inner
    twist to -mu_L, where mu_L - 1 is the line's left exponent.  Inner
    twists carry the empty braid, so they commute with every factor and
    only subtract framing; and R's word is freely reduced (a replay
    spells a positive word, see `framed.TwistReplay.product`, and
    `twist_product` reduces as it builds), so pushing it onto an empty
    stack cancels nothing.  The result is therefore R's braid itself with
    mu_L taken off each line's framing: letter for letter the `compose_all` of R and the
    inner twists, with no word built.

    `relation` is the arrangement's `lantern_relation`, read off it when
    not given (its right side is kept on the arrangement, so a pipeline
    that verified the relation builds no word here).  A relation on another
    strand count raises `StrandCountMismatch`, a `ValueError`.
    """
    if relation is None:
        relation = lantern_relation(arr)
    elif relation.n != arr.n:
        raise StrandCountMismatch(f"relation on {relation.n} strands, arrangement of {arr.n} lines")
    rhs = relation.rhs_element
    framing = list(rhs.framing)
    for boundary_id, exponent in relation.lhs:
        if boundary_id:
            framing[boundary_id - 1] -= exponent + 1
    return FramedElement(rhs.braid, tuple(framing))
