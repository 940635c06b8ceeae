"""Dehn twist relations: the data type, verification reports, exporters.

A Relation equates a product of boundary twists (left side) with an
ordered product of conjugated interior twists (right side).  Factor lists
are stored in temporal order: the first entry acts first, and the exported
text reads left to right in that same order, so

    d0 d1 d2 d3 = a12 a13 a23

says the twist about the curve enclosing lines 1 and 2 acts first on the
right.  Left-side factors commute, so their order is cosmetic.

The factor lists are the whole relation: both sides' words are derived
from them, never stored, so no stored word can disagree with the factors.
Labels are derived too, from each twist's enclosed lines; a document whose
stored label disagrees is refused.

Verification evaluates one word.  The left side is a product of boundary
twists, whose braid is a power of the full twist: that is central in B_n
and acts on the free group as conjugation by the boundary word, so
`verify_relation` writes the left images down in closed form
(`full_twist_images`) and runs the Artin oracle over the right side alone,
which still decides.  The relation derives the left side's exponent e and
framings once, from `lhs`, whose boundary ids it checks when it is built;
verification and `lhs_element` both read them.  No verification path
builds `lhs_element`; it stays a derived property for callers.

Exports: `text` (ASCII, one line), `latex` (display math), `json`
(lossless; `parse_relation` inverts it exactly).  A stored report is
compared, not parsed: the parser verifies the relation from its factors
and the stored report must hold the same entries, compared as JSON text.

Schema `lantern-relation/4` stores the block sequence.  A relation read
off an arrangement is fixed by its sweep (Goodman & Pollack's allowable
sequence) and its left side: point k's conjugator is H_1 ... H_(k-1),
H_j the half twist of block j, and its enclosed lines are the lines at
block k in the order before point k.  The document holds `n`, `lhs`
(boundary ids 0..n once each, in order, with their exponents) and
`blocks`, in sweep order from the basepoint; the rhs is their reverse.
The parser replays the blocks once (`_sweep`): the order starts 1..n,
each block's lines, read top to bottom before it acts, must be
increasing (or a pair crosses twice), and the final order must be n..1
(or a pair never crossed).  That check takes O(n + sum of block sizes)
time and O(n) memory and yields each block's enclosed lines.  The rhs is
then a `framed.TwistReplay` of the blocks: its word is spelled from the
blocks when the relation is verified, [H_1 ... H_s][H_s ... H_1], which
is letter for letter the free reduction `twist_product` makes of the
descriptors (proof at `framed.TwistReplay.product`); `FramedElement`
checks its purity and the Artin oracle, in every `verify_relation` call,
decides the relation.  The descriptors are built only when a caller
reads `rhs`, their conjugators prefixes of one word H_1 ... H_s; text and
LaTeX exports read the labels off the replay's enclosed sets and build
none.  The writer uses schema 4 exactly when the lhs has that form and
the rhs is a replay: a `TwistReplay`, whose blocks it writes as they
are, or a tuple of descriptors whose schema-3 entries replay their
blocks (the parser's rule below, decided on the letters); so export,
parse and export give the same bytes.

Any other relation (a hand-built one: reordered factors, a left side in
another order) is written in schema `lantern-relation/3`
(`relation_to_v3_dict`), which stores each conjugator by reference.  An
rhs entry whose conjugator extends the next entry's carries
`"extends": i + 1`, and its `"conjugator"` lists only the tail beyond
that entry's conjugator; the writer does so exactly where the next
conjugator is a non-empty prefix longer than the tail, a rule on the
letters alone.  Schema 2, which spells every conjugator in full, still
parses; schema 1, which also stored both side words, is refused.

A schema-2 or schema-3 document that a replay writes parses straight to
that `TwistReplay` (`_replayed_entries`): its lhs lists 0..n in order,
its blocks pass `_sweep`, and each entry's conjugator is H_1 ... H_(k-1),
stored in full or as `"extends"` with the half twist H_(k-1) as its
tail.  That is decided on the stored values in O(document), spelling no
conjugator.  Any other document is read entry by entry (`_descriptors`):
`"extends"` must be i + 1, any other value is refused, naming the entry,
and each conjugator is spelled and its descriptor checked.  Spelling is
quadratic in a long `"extends"` chain, so a document whose conjugators
would spell more than `MAX_SPELLED_LETTERS` letters in all is refused,
counted from the tail lengths before anything is spelled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Any, Callable, Iterable

from .braids import (
    FreeWord,
    _checked_letters,
    _common_prefix,
    _known,
    artin_image,
    full_twist_block,
    half_twist_letters,
    reduced_product,
)
from .framed import (
    FramedElement,
    TwistDescriptor,
    TwistReplay,
    boundary_label,
    twist_label,
    twist_product,
)

JSON_SCHEMA = "lantern-relation/4"
JSON_SCHEMA_V3 = "lantern-relation/3"
JSON_SCHEMA_V2 = "lantern-relation/2"

# The most letters a relation document may make the parser spell: all the
# conjugators of a schema-2 or schema-3 document read entry by entry, or one
# left-side image of a document with a report.  A document with a twist or a
# report builds strand orders and images of n entries, so its n is bounded too.
MAX_SPELLED_LETTERS = 10**6


class UnknownFormat(ValueError):
    """An export format other than text, latex, or json was requested."""


@dataclass(frozen=True)
class Witness:
    """First free-group generator whose images separate the two sides."""

    generator: int
    lhs_image: FreeWord
    rhs_image: FreeWord


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a relation in the framed model."""

    braid_ok: bool
    framing_ok: bool
    witness: Witness | None = None

    @property
    def verified(self) -> bool:
        return self.braid_ok and self.framing_ok


@dataclass(frozen=True)
class Relation:
    """A named twist relation, given by its two factor lists.

    `lhs` lists (boundary id, exponent) pairs, boundary id 0 being the
    outer boundary; `rhs` lists twist descriptors in temporal order (first
    acts first), as a tuple or, for a relation read off a wiring diagram,
    as a `TwistReplay` that builds them on first read; `report` is
    attached once verification ran.  A boundary id outside 0..n raises
    `ValueError` naming `lhs[i]` when the relation is built, and so does
    a twist on another strand count, naming `rhs[i]`; a replay is checked
    by its strand count, without building it.  The left side's exponent
    and framings and the assembled framed elements `lhs_element` and
    `rhs_element` are derived from the factor lists on first access;
    verification reads only `rhs_element` (the left side is in closed
    form, see `verify_relation`).
    """

    name: str
    n: int
    lhs: tuple[tuple[int, int], ...]
    rhs: tuple[TwistDescriptor, ...] | TwistReplay
    report: VerificationReport | None = None

    def __post_init__(self):
        for i, (boundary_id, _) in enumerate(self.lhs):
            if not 0 <= boundary_id <= self.n:
                raise ValueError(f"lhs[{i}] names boundary {boundary_id}, outside 0..{self.n}")
        if isinstance(self.rhs, TwistReplay):  # every twist is on the replay's strand count
            strands = (self.rhs.n,) if self.rhs.blocks else ()
        else:
            strands = (d.conjugator.n for d in self.rhs)
        for i, m in enumerate(strands):
            if m != self.n:
                raise ValueError(f"rhs[{i}] is a twist on {m} strands, not {self.n}")

    @cached_property
    def _lhs_framing(self) -> tuple[int, tuple[int, ...]]:
        """e, the sum of d0's exponents, and each line's left framing: e plus its own exponents.

        Derived once, from `lhs`; `verify_relation` and `lhs_element` read it.
        """
        e = 0
        own = [0] * self.n
        for boundary_id, exponent in self.lhs:
            if boundary_id:
                own[boundary_id - 1] += exponent
            else:
                e += exponent
        return e, tuple(e + k for k in own)

    @cached_property
    def lhs_element(self) -> FramedElement:
        """The left side: Delta^(2e) with the framings of `_lhs_framing`.

        Letter for letter this is `compose_all` of the boundary twists
        (`outer_boundary_twist` for id 0, else `inner_boundary_twist`), each
        to its exponent:

        * every d0 factor is a power of the positive full-twist word L or of L^-1;
        * L L^-1 cancels completely under free reduction, so the d0 factors
          reduce to L^e (to (L^-1)^|e| when e < 0), in which nothing cancels;
        * inner twists carry the empty braid and add only framing.
        """
        e, framing = self._lhs_framing
        return FramedElement(full_twist_block(self.n, 1, self.n) ** e, framing)

    @cached_property
    def rhs_element(self) -> FramedElement:
        """The conjugated interior twists, composed in temporal order.

        A replay spells its product from its blocks (`TwistReplay.product`)
        and keeps it, without building a descriptor; a tuple of descriptors
        is composed by `twist_product`.
        """
        if isinstance(self.rhs, TwistReplay):
            return self.rhs.product()
        return twist_product(self.rhs, self.n)

    def with_report(self, report: VerificationReport) -> Relation:
        """This relation with `report` attached; sides already derived carry over."""
        attached = replace(self, report=report)
        for name in ("_lhs_framing", "lhs_element", "rhs_element"):
            if name in self.__dict__:
                attached.__dict__[name] = self.__dict__[name]
        return attached


def full_twist_images(n: int, e: int) -> tuple[FreeWord, ...]:
    """Artin images of x_1 .. x_n under the e-th power of the full twist on n strands.

    x_j goes to c^e x_j c^-e with c = x_1 ... x_n, spelled as P x_j P^-1
    for the positive word P = (1 .. n)^e, or (-n .. -1)^|e| when e < 0,
    and reduced at its two junctions: O(n^2 |e|) letters, no braid built.
    The proof is in `verify_relation`.
    """
    up, down = tuple(range(1, n + 1)), tuple(range(-n, 0))
    power, inverse = (up * e, down * e) if e >= 0 else (down * -e, up * -e)
    return tuple(reduced_product(power, (j,), inverse) for j in range(1, n + 1))


def verify_relation(relation: Relation) -> VerificationReport:
    """Decide the relation exactly; failure is a report, not an exception.

    The framing check amounts to "the framing at every line equals mu_L on
    both sides"; the braid check is the nontrivial identity between the
    full twist and the product of conjugated block twists.  On braid
    failure the report carries the first free-group generator whose images
    differ, with both image words.

    The right side is evaluated letter by letter by the Artin oracle; the
    left side is in closed form, from the e and framings the relation
    derives once from `lhs`:

    * Framings.  Every factor is pure, so framings add componentwise: each
      d0 adds 1 to every line and each d_L adds 1 to line L alone.  Line
      L's framing is e, the sum of d0's exponents, plus L's own exponents.
    * Braid.  Inner twists carry the empty braid, so the braid is
      Delta^(2e).  Let delta = sigma_1 ... sigma_{n-1}.  Under the pinned
      convention (`braids`, the automorphism of the first letter applies
      first) delta sends x_1 to (x_1 ... x_{n-1}) x_n (x_1 ... x_{n-1})^-1
      = c x_n c^-1 and x_{j+1} to x_j, and it fixes c = x_1 ... x_n.  An
      automorphism fixing c commutes with conjugation by c, so delta^n
      takes x_j down to x_1 in j - 1 steps, to c x_n c^-1 in one more and
      to c x_j c^-1 in the last n - j: delta^n acts as conjugation by c,
      c on the left.  Delta^2 = delta^n in B_n (Garside; Kassel & Turaev,
      *Braid Groups*, ch. 1), the generator of the centre for n >= 3, so
      Delta^(2e) acts as conjugation by c^e.  The reduced spelling is
      unique, so these are the images `artin_image` computes from the
      word, letter for letter; `full_twist_images` was checked against it
      for n = 1..40 and e = -2..2, and a test keeps that check.

    * Normal form.  `artin_image` keeps each right image as a pair (w, k),
      w freely reduced and not ending in x_k^{+-1}, and spells it
      w x_k w^-1, which is then freely reduced; the closed-form images are
      reduced too.  A group element has one reduced spelling, so comparing
      the spelled images decides equality, and two pairs are equal exactly
      when their images are.

    Witnesses and reports are therefore those of evaluating both words.
    """
    e, lhs_framing = relation._lhs_framing
    rhs = relation.rhs_element
    framing_ok = lhs_framing == rhs.framing
    lhs_images = full_twist_images(relation.n, e)
    rhs_images = artin_image(rhs.braid)
    braid_ok = lhs_images == rhs_images
    witness = None
    if not braid_ok:
        for j, (left, right) in enumerate(zip(lhs_images, rhs_images), start=1):
            if left != right:
                witness = Witness(j, left, right)
                break
    return VerificationReport(braid_ok, framing_ok, witness)


def _lhs_text(relation: Relation, name: Callable[[int], str], power: str) -> str:
    """The left side's nonzero powers, each `name(boundary id)` then `power` of its exponent."""
    parts = []
    for boundary_id, exponent in relation.lhs:
        if exponent == 0:
            continue
        term = name(boundary_id)
        parts.append(term if exponent == 1 else term + power.format(exponent))
    return " ".join(parts) or "1"


def _enclosed_in_time(relation: Relation) -> Iterable[Iterable[int]]:
    """The lines each rhs twist encloses, in temporal order; a replay builds no descriptor."""
    if isinstance(relation.rhs, TwistReplay):
        return reversed(relation.rhs.enclosed)
    return (d.enclosed for d in relation.rhs)


def format_text(relation: Relation) -> str:
    lhs = _lhs_text(relation, boundary_label, "^{}")
    rhs = " ".join(map(twist_label, _enclosed_in_time(relation))) or "1"
    return f"{lhs} = {rhs}"


def _latex_alpha(enclosed: Iterable[int]) -> str:
    ids = sorted(enclosed)
    if len(ids) == 2:
        return rf"\alpha_{{{ids[0]},{ids[1]}}}"
    return rf"\alpha_{{\{{{','.join(str(i) for i in ids)}\}}}}"


def format_latex(relation: Relation) -> str:
    lhs = _lhs_text(relation, lambda boundary_id: rf"\partial_{{{boundary_id}}}", "^{{{}}}")
    rhs = " ".join(map(_latex_alpha, _enclosed_in_time(relation))) or "1"
    return f"{lhs} = {rhs}"


def _int(value: Any, field: str) -> int:
    """A JSON integer; bools, floats and strings are refused, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _ints(values: Any, field: str) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{field} must be a JSON list")
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{field} must hold JSON integers only")
    return values


def _pair(values: Any, field: str) -> tuple[int, int]:
    pair = _ints(values, field)
    if len(pair) != 2:
        raise ValueError(f"{field} must be two JSON integers, got {len(pair)}")
    return pair


def _report_dict(report: VerificationReport) -> dict[str, Any]:
    witness = None
    if report.witness is not None:
        witness = {
            "generator": report.witness.generator,
            "lhs_image": list(report.witness.lhs_image),
            "rhs_image": list(report.witness.rhs_image),
        }
    return {
        "braid_ok": report.braid_ok,
        "framing_ok": report.framing_ok,
        "verified": report.verified,
        "witness": witness,
    }


def _entry_dict(rhs: tuple[TwistDescriptor, ...], index: int) -> dict[str, Any]:
    """Entry `index`; it extends the next entry when that one's conjugator is a prefix of its own.

    The prefix must be non-empty and longer than the tail t beyond it.
    That is decided on the letters; prefixes of one shared tuple are not
    compared.
    """
    d = rhs[index]
    conjugator = d.conjugator
    entry: dict[str, Any] = {"label": d.label}
    prefix = rhs[index + 1].conjugator if index + 1 < len(rhs) else None
    k = 0 if prefix is None else len(prefix)
    extends = 0 < k and 2 * k > len(conjugator) and _common_prefix(conjugator, prefix) == k
    if extends:
        entry["extends"] = index + 1
    # sliced from the tuple a replay's conjugators share, not from a copy of the prefix
    entry["conjugator"] = list(conjugator._source[k if extends else 0 : len(conjugator)])
    entry["block"] = [d.block[0], d.block[1]]
    entry["enclosed"] = sorted(d.enclosed)
    return entry


def _v3_dict(relation: Relation, entries: list[dict[str, Any]]) -> dict[str, Any]:
    """The schema-3 document with these rhs entries (`_entry_dict` of each)."""
    return {
        "schema": JSON_SCHEMA_V3,
        "name": relation.name,
        "n": relation.n,
        "text": format_text(relation),
        "lhs": [[boundary_id, exponent] for boundary_id, exponent in relation.lhs],
        "rhs": entries,
        "report": None if relation.report is None else _report_dict(relation.report),
    }


def relation_to_v3_dict(relation: Relation) -> dict[str, Any]:
    """The schema-3 document: every rhs entry, its conjugator stored by reference."""
    rhs = relation.rhs
    return _v3_dict(relation, [_entry_dict(rhs, index) for index in range(len(rhs))])


def _sweep(blocks: list[tuple[int, int]], n: int) -> list[frozenset[int]]:
    """Each block's enclosed lines, replaying the blocks as a wiring diagram.

    The order starts 1..n.  Block [a, b] needs 1 <= a < b <= n, and its
    lines at positions a..b, read top to bottom, must be increasing, since
    a pair that crossed reads decreasing and may not cross again; the
    block then reverses them.  The final order must be n..1, or some pair
    never crossed.  A block that breaks a rule raises `ValueError` naming
    `blocks[i]`.  O(n + sum of block sizes) time, O(n) memory.
    """
    at = list(range(1, n + 1))
    enclosed = []
    for i, (a, b) in enumerate(blocks):
        if not 1 <= a < b <= n:
            raise ValueError(f"blocks[{i}] is [{a}, {b}], not a block of two or more in 1..{n}")
        lines = at[a - 1 : b]
        if sorted(lines) != lines:
            up, down = next((x, y) for x, y in zip(lines, lines[1:]) if x > y)
            raise ValueError(f"blocks[{i}] crosses lines {down} and {up} a second time")
        lines.reverse()
        at[a - 1 : b] = lines
        enclosed.append(frozenset(lines))
    if at != list(range(n, 0, -1)):
        p = next(p for p in range(n - 1) if at[p] < at[p + 1])
        raise ValueError(f"blocks leave lines {at[p]} and {at[p + 1]} uncrossed")
    return enclosed


def _in_order(lhs: tuple[tuple[int, int], ...], n: int) -> bool:
    """Whether the lhs lists boundary ids 0..n once each, in order."""
    return len(lhs) == n + 1 and all(boundary_id == i for i, (boundary_id, _) in enumerate(lhs))


def relation_to_dict(relation: Relation) -> dict[str, Any]:
    """The schema-4 document when the relation replays its blocks, else schema 3's.

    The lhs must list boundary ids 0..n once each, in order.  A
    `TwistReplay` gives its blocks as they are; a tuple replays its blocks
    exactly when its schema-3 entries do (`_replayed_entries`), a rule on
    the letters alone, and those entries are written when it does not.
    """
    rhs = relation.rhs
    if not _in_order(relation.lhs, relation.n):
        return relation_to_v3_dict(relation)
    if not isinstance(rhs, TwistReplay):
        entries = [_entry_dict(rhs, index) for index in range(len(rhs))]
        rhs = _replayed_entries(entries, relation.n)
        if rhs is None:
            return _v3_dict(relation, entries)
    return {
        "schema": JSON_SCHEMA,
        "name": relation.name,
        "n": relation.n,
        "lhs": [[boundary_id, exponent] for boundary_id, exponent in relation.lhs],
        "blocks": [[a, b] for a, b in rhs.blocks],
        "report": None if relation.report is None else _report_dict(relation.report),
    }


def format_json(relation: Relation) -> str:
    # Compact on purpose: with an indent the stdlib encodes in pure Python.
    return json.dumps(relation_to_dict(relation)) + "\n"


def export_relation(relation: Relation, fmt: str) -> str:
    """Render a relation as `text`, `latex`, or `json`."""
    if fmt == "text":
        return format_text(relation) + "\n"
    if fmt == "latex":
        return format_latex(relation) + "\n"
    if fmt == "json":
        return format_json(relation)
    raise UnknownFormat(f"unknown relation format {fmt!r} (expected text, latex, or json)")


def _descriptors(entries: list[dict[str, Any]], n: int) -> list[TwistDescriptor]:
    """The rhs descriptors, read from the last entry back; every letter validated.

    One reader serves schemas 2 and 3.  An entry with `"extends": i + 1`
    gets the following entry's conjugator extended by its tail; that is
    the only link between entries, so any other entry (every v2 entry) is
    spelled as stored, and any other `"extends"` value is refused.  Before
    anything is spelled, the letters the conjugators would spell are
    counted from the stored tail lengths, and a document over
    `MAX_SPELLED_LETTERS` is refused.  The count stops at an entry that is
    no object, has no sized tail or extends another than the next: reading
    back, the reader refuses that entry before it spells any in front of
    it.  Each entry is then checked once: its letters with every other
    entry's in one bulk check, its consistency by `TwistDescriptor`, and
    its label against its enclosed lines.  Only a document that fails the
    bulk check has its letters checked entry by entry, so it is refused at
    the entry, and with the message, that reading it entry by entry gives.
    """
    total = spelled = 0
    for index in reversed(range(len(entries))):
        entry = entries[index]
        if type(entry) is not dict or type(entry.get("conjugator")) not in (list, str, dict):
            break
        extends = "extends" in entry
        if extends and not (type(entry["extends"]) is int and entry["extends"] == index + 1):
            break
        spelled = len(entry["conjugator"]) + (spelled if extends else 0)
        total += spelled
    if total > MAX_SPELLED_LETTERS:
        raise ValueError(
            f"the rhs conjugators would spell {total} letters, more than the "
            f"{MAX_SPELLED_LETTERS} a schema-2 or schema-3 document may spell"
        )
    try:
        tails = [entry["conjugator"] for entry in entries]
        checked = set(map(type, tails)) <= {list}
        if checked:
            _checked_letters(n, chain.from_iterable(tails))
    except (KeyError, TypeError, ValueError):
        checked = False
    descriptors: list[TwistDescriptor] = []
    following = None  # the conjugator of entry index + 1
    for index in reversed(range(len(entries))):
        entry = entries[index]
        letters = entry["conjugator"]
        if "extends" in entry:
            j = _int(entry["extends"], f"rhs[{index}].extends")
            if j != index + 1 or j == len(entries):
                raise ValueError(
                    f"rhs[{index}] extends entry {j}, but may extend only the next entry "
                    f"of the {len(entries)}"
                )
        letters = tuple(letters) if checked else _checked_letters(n, letters)
        following = _known(n, following.letters + letters if "extends" in entry else letters)
        enclosed = frozenset(_ints(entry["enclosed"], "enclosed"))
        descriptor = TwistDescriptor(following, _pair(entry["block"], "block"), enclosed)
        if entry["label"] != descriptor.label:
            raise ValueError(
                f"rhs[{index}] is labeled {entry['label']!r}, but its enclosed lines "
                f"{sorted(enclosed)} make it {descriptor.label!r}"
            )
        descriptors.append(descriptor)
    return descriptors[::-1]


def _replayed_entries(entries: Any, n: int) -> TwistReplay | None:
    """A schema-2 or schema-3 rhs as the `TwistReplay` that writes it; None if none does.

    Read from the last entry back (sweep order), the blocks must pass
    `_sweep`, and each entry's enclosed lines and label must be those
    `_sweep` finds.  Entry i's conjugator must be beta_k = H_1 ... H_(k-1),
    k = s - i: empty for the last entry, and for any other either
    `"extends": i + 1` with the half twist H_(k-1) of the next entry's
    block as its tail, or spelled in full.  Each value is read strictly
    (`_int`, `_ints`, `_pair`) and compared with the blocks' half twists or
    a prefix of W = H_1 ... H_s, so this takes O(document) and spells no
    conjugator.  Any other document, malformed ones included, gives None:
    `_descriptors` then reads it, and refuses it where it always did.
    """
    try:
        sweep = entries[::-1]
        blocks = [_pair(entry["block"], "block") for entry in sweep]
        enclosed = _sweep(blocks, n)
        halves = [half_twist_letters(a, b) for a, b in blocks]
        word = tuple(chain.from_iterable(halves))
        offset = 0
        for k, entry in enumerate(sweep):
            tail = _ints(entry["conjugator"], "conjugator")
            if "extends" in entry:
                j = _int(entry["extends"], "extends")
                spelled = 0 < k == len(sweep) - j and tail == halves[k - 1]
            else:
                spelled = len(tail) == offset and tail == word[:offset]
            lines = frozenset(_ints(entry["enclosed"], "enclosed"))
            if not spelled or lines != enclosed[k] or entry["label"] != twist_label(lines):
                return None
            offset += len(halves[k])
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    return TwistReplay(n, blocks, enclosed)


def _replay(data: dict[str, Any], n: int) -> tuple[tuple[tuple[int, int], ...], TwistReplay]:
    """A schema-4 document's lhs and rhs: the blocks, checked by `_sweep`, as a replay.

    The lhs is checked first, so nothing of size n is allocated before
    the lhs lists boundaries 0..n.  The blocks' JSON types are checked in
    bulk, with builtins over all of them at once; only a document that
    fails that check is read block by block (`_pair`), so it is refused at
    the block, and with the message, that reading it block by block gives.
    The blocks are then checked by `_sweep`, which finds the lines each
    one encloses.  No braid and no descriptor is built here (see
    `TwistReplay`).
    """
    lhs = tuple(_pair(pair, f"lhs[{i}]") for i, pair in enumerate(data["lhs"]))
    for i, (boundary_id, _) in enumerate(lhs):
        if boundary_id != i:
            raise ValueError(
                f"lhs[{i}] names boundary {boundary_id}, not {i}: "
                f"{JSON_SCHEMA} lists boundaries 0..{n} once each, in order"
            )
    if len(lhs) != n + 1:
        raise ValueError(f"lhs lists {len(lhs)} boundaries, not the {n + 1} of 0..{n}")
    raw = data["blocks"]
    if (
        type(raw) is list
        and set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and set(map(type, chain.from_iterable(raw))) <= {int}
    ):
        blocks = list(map(tuple, raw))
    else:  # refused at the block, and with the message, that reading block by block gives
        blocks = [_pair(block, f"blocks[{i}]") for i, block in enumerate(raw)]
    return lhs, TwistReplay(n, blocks, _sweep(blocks, n))


def relation_from_dict(data: dict[str, Any]) -> Relation:
    """Inverse of `relation_to_dict`; raises `ValueError` on any bad document.

    A stored report is not parsed: the relation is verified from its
    factors, and the stored report must hold the entries `_report_dict`
    writes for the result, compared as JSON text (so `1` is not `true`).
    Sizes that verifying would spell are refused before anything of that
    size is built, by `MAX_SPELLED_LETTERS`: a schema-2 or schema-3
    document with a twist or a report has at most that many strands (a
    schema-4 one lists them all in its lhs), and a stored report is
    checked only when each left image, 2n|e| + 1 letters for the outer
    exponent e, spells at most that many.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a relation document is a JSON object, not {type(data).__name__}")
    schema = data.get("schema")
    if schema not in (JSON_SCHEMA, JSON_SCHEMA_V3, JSON_SCHEMA_V2):
        raise ValueError(f"unsupported relation schema {schema!r}")
    try:
        name, n = data["name"], _int(data["n"], "n")
        if type(name) is not str:
            raise ValueError(f"name must be a JSON string, got {name!r}")
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        if schema == JSON_SCHEMA:
            lhs, rhs = _replay(data, n)
        else:
            if n > MAX_SPELLED_LETTERS and (data["rhs"] or data.get("report") is not None):
                raise ValueError(
                    f"n is {n}, but a document with a twist or a report builds strand "
                    f"orders and images of n entries, and may have at most {MAX_SPELLED_LETTERS}"
                )
            lhs = tuple(_pair(pair, f"lhs[{i}]") for i, pair in enumerate(data["lhs"]))
            rhs = _replayed_entries(data["rhs"], n) if _in_order(lhs, n) else None
            if rhs is None:
                rhs = tuple(_descriptors(data["rhs"], n))
        relation = Relation(name=name, n=n, lhs=lhs, rhs=rhs)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {schema} document: {exc!r}") from exc
    stored = data.get("report")
    if stored is None:
        return relation
    spelled = 2 * n * abs(relation._lhs_framing[0]) + 1
    if spelled > MAX_SPELLED_LETTERS:
        raise ValueError(
            f"the left side's images would spell {spelled} letters each, more than the "
            f"{MAX_SPELLED_LETTERS} a document with a report may spell"
        )
    report = verify_relation(relation)
    expected = _report_dict(report)
    kept = None
    if isinstance(stored, dict):
        kept = {key: stored[key] for key in expected if key in stored}
    if json.dumps(kept, sort_keys=True) != json.dumps(expected, sort_keys=True):
        raise ValueError("stored report does not match the relation's factors")
    return relation.with_report(report)


def parse_relation(text: str) -> Relation:
    """Inverse of the json export; round-trips losslessly.  Raises `ValueError` on bad text."""
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("relation document is nested too deeply to parse") from exc
    return relation_from_dict(data)
