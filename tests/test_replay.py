"""Relations read off a wiring diagram hold their twists as a lazy replay of the blocks."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lanterns as L
from lanterns.braids import BraidWord, half_twist_block
from lanterns.framed import TwistDescriptor, TwistReplay
from lanterns.geometry import IntersectionPoint, fiber_blocks
from conftest import NON_GENERIC_LINES, WORKED_LINES, random_arrangement


def _eager_chain(n, blocks, enclosed):
    """The right side as the eager monodromy built it: a checked descriptor per block, conjugators multiplied out."""
    beta = BraidWord(n)
    built = []
    for block, lines in zip(blocks, enclosed):
        built.append(TwistDescriptor(beta, block, frozenset(lines)))
        beta = beta * half_twist_block(n, *block)
    return tuple(reversed(built))


def _eager_rhs(arr):
    return _eager_chain(arr.n, fiber_blocks(arr), [p.lines for p in L.intersections(arr)])


def _lines(arr):
    return [(line.slope, line.intercept) for line in arr.lines]


def _guarded_inputs():
    """Line lists of generic, sheared and triple-point arrangements, and of the four families."""
    rng = random.Random(25)
    generic = [_lines(random_arrangement(rng, n, allow_concurrent=False)) for n in (2, 5, 9, 12)]
    sheared, triple = [NON_GENERIC_LINES], []
    while len(sheared) < 4 or len(triple) < 4:
        arr = random_arrangement(rng, rng.randint(4, 9))
        if L.shear_to_generic(arr)[1] != 0:
            sheared.append(_lines(arr))
        elif any(len(p.lines) >= 3 for p in L.intersections(arr)) and len(triple) < 4:
            triple.append(_lines(arr))
    families = [L.make_pencil(5), L.make_daisy(6), L.make_doubled_daisy(6), L.realize_wajnryb(5)]
    return generic + sheared[:4] + triple + [_lines(arr) for arr in families]


class _Counts:
    """Counts the objects and calls the verify path must not make, from `install` on."""

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(["descriptors", "points", "twist_product"], 0)
        self.monkeypatch = monkeypatch

    def _count(self, key, owner, name):
        function = getattr(owner, name)

        def counting(*args, **kwargs):
            self.counts[key] += 1
            return function(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, counting)

    def _count_replayed(self):
        """Count each descriptor a replay builds: they skip `TwistDescriptor.__post_init__`."""
        function = TwistReplay.descriptors

        def counting(replay):
            fresh = replay._descriptors is None
            built = function(replay)
            self.counts["descriptors"] += len(built) if fresh else 0
            return built

        self.monkeypatch.setattr(TwistReplay, "descriptors", counting)

    def install(self):
        self._count("descriptors", TwistDescriptor, "__post_init__")
        self._count_replayed()
        self._count("points", IntersectionPoint, "__init__")
        for module in (L.framed, L.relation):
            self._count("twist_product", module, "twist_product")
        return self.counts


@pytest.mark.parametrize("lines", _guarded_inputs())
def test_verify_export_parse_and_total_build_no_descriptor_and_no_point(lines, monkeypatch):
    # every export (JSON, text and LaTeX) reads the blocks and enclosed sets alone
    reference, _ = L.shear_to_generic(L.validate_arrangement(lines))
    eager = _eager_rhs(reference)
    eager_product = L.twist_product(eager, reference.n)

    counts = _Counts(monkeypatch).install()
    arr, _ = L.shear_to_generic(L.validate_arrangement(lines))
    relation = L.verified_relation(arr)
    text = L.export_relation(relation, "json")
    parsed = L.parse_relation(text)
    total = L.total_monodromy(arr)
    shown = [L.export_relation(r, fmt) for r in (relation, parsed) for fmt in ("text", "latex")]
    assert parsed == relation and parsed.report == relation.report and relation.report.verified
    assert counts == {"descriptors": 0, "points": 0, "twist_product": 0}

    # the eager chain's results, letter for letter
    assert relation.rhs_element == parsed.rhs_element == eager_product
    assert relation.rhs_element.braid.letters == eager_product.braid.letters
    assert total.braid.letters == eager_product.braid.letters and total.framing == (0,) * arr.n
    eager_relation = L.Relation("lantern", arr.n, relation.lhs, eager, relation.report)
    assert text == L.export_relation(eager_relation, "json")
    assert shown == [L.export_relation(eager_relation, fmt) for fmt in ("text", "latex")] * 2

    # reading the right side or the points builds each object once
    s = len(relation.rhs)
    assert relation.rhs == eager and list(relation.rhs) == list(eager)
    assert counts["descriptors"] == s
    assert [d.label for d in relation.rhs] == [d.label for d in eager]
    assert L.braid_monodromy(arr).twists[-1].descriptor is relation.rhs[0]
    assert counts["descriptors"] == s
    assert parsed.rhs == eager and counts["descriptors"] == 2 * s
    points = L.intersections(arr)
    assert L.intersections(arr) is points and counts["points"] == s
    assert [p.lines for p in points] == [p.lines for p in L.intersections(reference)]
    assert counts["twist_product"] == 0


@pytest.mark.parametrize("lines", _guarded_inputs())
def test_replayed_descriptors_equal_checked_ones_over_spelled_conjugators(lines):
    """A replay's descriptors skip the consistency check; these make it.

    Each conjugator H_1 ... H_(k-1) is spelled into its own tuple from the
    checked blocks, and `TwistDescriptor` checks that its strand order
    holds the lines through point k on block k.
    """
    arr, _ = L.shear_to_generic(L.validate_arrangement(lines))
    relation = L.verified_relation(arr)
    blocks, n = fiber_blocks(arr), arr.n
    checked, spelled = [], []
    for block, point in zip(blocks, L.intersections(arr)):
        checked.append(TwistDescriptor(BraidWord(n, spelled), block, frozenset(point.lines)))
        spelled += L.half_twist_block(n, *block).letters
    assert isinstance(relation.rhs, TwistReplay) and relation.rhs.blocks == tuple(blocks)
    assert relation.rhs == tuple(checked[::-1])
    assert [d.label for d in relation.rhs] == [d.label for d in checked[::-1]]
    for replayed, made in zip(relation.rhs, checked[::-1]):
        assert replayed.conjugator._strand_order == made.conjugator._strand_order


def _v2_dict(relation):
    """The schema-2 document: the schema-3 one with every conjugator spelled in full."""
    data = L.relation_to_v3_dict(relation)
    for entry, d in zip(data["rhs"], relation.rhs):
        entry.pop("extends", None)
        entry["conjugator"] = list(d.conjugator.letters)
    return dict(data, schema="lantern-relation/2")


@pytest.mark.parametrize("schema", [2, 3])
def test_replay_shaped_v2_and_v3_documents_parse_to_a_replay(schema, monkeypatch):
    """The schema-2 and schema-3 exports of a seeded n = 30 relation read back as its replay.

    Detection reads the stored values once and builds no descriptor; the
    relation parsed is the verified one, and re-exports to the same bytes.
    """
    arr, _ = L.shear_to_generic(random_arrangement(random.Random(99), 30, allow_concurrent=False))
    relation = L.verified_relation(arr)
    data = _v2_dict(relation) if schema == 2 else L.relation_to_v3_dict(relation)
    text = json.dumps(data)
    assert ('"extends"' in text) == (schema == 3)

    counts = _Counts(monkeypatch).install()
    parsed = L.parse_relation(text)
    assert isinstance(parsed.rhs, TwistReplay) and parsed.report == relation.report
    assert parsed == relation and parsed.rhs.blocks == relation.rhs.blocks
    assert L.export_relation(parsed, "json") == L.export_relation(relation, "json")
    assert counts == {"descriptors": 0, "points": 0, "twist_product": 0}
    assert json.dumps(L.relation_to_v3_dict(parsed)) == json.dumps(L.relation_to_v3_dict(relation))


def test_a_replay_compares_hashes_and_replaces_like_its_descriptors(worked):
    relation = L.verified_relation(worked)
    assert isinstance(relation.rhs, TwistReplay)
    respelled = replace(relation, rhs=tuple(relation.rhs))
    assert respelled == relation and relation == respelled
    assert hash(respelled) == hash(relation)
    assert repr(respelled) == repr(relation)
    renamed = replace(relation, name="renamed")
    assert renamed.rhs is relation.rhs and renamed != relation
    assert replace(renamed, name="lantern") == relation
    other = L.verified_relation(L.validate_arrangement(WORKED_LINES))
    assert other.rhs is not relation.rhs and other.rhs == relation.rhs
    assert relation.rhs != L.lantern_relation(L.make_daisy(3)).rhs
    assert L.export_relation(respelled, "json") == L.export_relation(relation, "json")


def test_a_twist_on_another_strand_count_is_refused():
    pencil3 = L.lantern_relation(L.make_pencil(3))
    daisy4 = L.lantern_relation(L.make_daisy(4))
    with pytest.raises(ValueError, match=r"rhs\[0\] is a twist on 4 strands, not 3"):
        L.Relation("mixed", 3, pencil3.lhs, daisy4.rhs)
    assert daisy4.rhs._descriptors is None  # the check did not build the replay
    with pytest.raises(ValueError, match=r"rhs\[0\] is a twist on 4 strands, not 3"):
        L.Relation("mixed", 3, pencil3.lhs, tuple(daisy4.rhs))
    mixed = (pencil3.rhs[0], daisy4.rhs[1])
    with pytest.raises(ValueError, match=r"rhs\[1\] is a twist on 4 strands, not 3"):
        L.Relation("mixed", 3, pencil3.lhs, mixed)


def test_every_pipeline_and_family_relation_still_builds():
    rng = random.Random(26)
    arrangements = [L.shear_to_generic(random_arrangement(rng, n))[0] for n in range(2, 10)]
    arrangements += [L.make_pencil(4), L.make_daisy(5), L.make_doubled_daisy(6)]
    arrangements += [L.realize_wajnryb(5)]
    checks = [L.check_daisy(5), L.check_doubled_daisy(6)]
    relations = [L.lantern_relation(arr) for arr in arrangements]
    relations += [check.relation for check in checks]
    for relation in relations:
        for rhs in (relation.rhs, tuple(relation.rhs)):
            rebuilt = L.Relation(relation.name, relation.n, relation.lhs, rhs, relation.report)
            assert rebuilt == relation
        assert L.verify_relation(relation).verified
    assert all(check.ok for check in checks)


def _wiring_diagram(rng, n):
    """Reverse a random increasing run of two or more lines until the order is n..1.

    Returns the blocks and the lines each one reverses.
    """
    order = list(range(1, n + 1))
    blocks, enclosed = [], []
    while order != sorted(order, reverse=True):
        runs = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if all(order[k] < order[k + 1] for k in range(a, b))
        ]
        a, b = rng.choice(runs)
        enclosed.append(order[a : b + 1])
        order[a : b + 1] = reversed(order[a : b + 1])
        blocks.append((a + 1, b + 1))
    return blocks, enclosed


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.integers(2, 9), st.integers(0, 10**9))
def test_random_wiring_diagrams_verify_and_spell_the_eager_word(n, seed):
    blocks, enclosed = _wiring_diagram(random.Random(seed), n)
    eager = _eager_chain(n, blocks, enclosed)
    mu = [sum(line in lines for lines in enclosed) for line in range(1, n + 1)]
    document = {
        "schema": "lantern-relation/4",
        "name": "diagram",
        "n": n,
        "lhs": [[0, 1]] + [[line, mu[line - 1] - 1] for line in range(1, n + 1)],
        "blocks": [list(block) for block in blocks],
        "report": None,
    }
    text = json.dumps(document) + "\n"
    relation = L.parse_relation(text)
    assert L.export_relation(relation, "json") == text

    report = L.verify_relation(relation)
    assert report.verified
    product = L.twist_product(eager, n)
    assert relation.rhs_element.braid.letters == product.braid.letters
    assert relation.rhs_element.framing == product.framing == tuple(mu)

    assert relation.rhs == eager and tuple(relation.rhs) == eager
    assert [d.label for d in relation.rhs] == [d.label for d in eager]
    verified = relation.with_report(report)
    exported = L.export_relation(verified, "json")
    assert L.export_relation(L.parse_relation(exported), "json") == exported
