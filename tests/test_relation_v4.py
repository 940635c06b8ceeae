"""Schema 4: a relation read off an arrangement is stored as its block sequence."""

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lanterns as L
from lanterns.geometry import fiber_blocks
from conftest import WORKED_LINES, random_arrangement

DATA = Path(__file__).parent / "data"


def _seed7_n8():
    """Seeded n = 8 with a triple point; it needs the shear t = 1/16."""
    arr, t = L.shear_to_generic(random_arrangement(random.Random(7), 8))
    assert t == L.Rational(1, 16) and any(len(p.lines) == 3 for p in L.intersections(arr))
    return arr


# Schema-3 exports of the pipeline's relations, written before schema 4 existed.
V3_FIXTURES = {
    "v3_worked_lantern.json": lambda: L.validate_arrangement(WORKED_LINES),
    "v3_daisy5.json": lambda: L.make_daisy(5),
    "v3_doubled_daisy6.json": lambda: L.make_doubled_daisy(6),
    "v3_seed7_n8_sheared.json": _seed7_n8,
}


def _v3_text(relation):
    return json.dumps(L.relation_to_v3_dict(relation)) + "\n"


@pytest.mark.parametrize("name", sorted(V3_FIXTURES))
def test_v3_fixture_parses_to_the_pipeline_relation(name):
    text = (DATA / name).read_text()
    assert json.loads(text)["schema"] == "lantern-relation/3"
    parsed = L.parse_relation(text)
    relation = L.verified_relation(V3_FIXTURES[name]())
    assert parsed == relation and parsed.report.verified
    assert _v3_text(parsed) == text
    export = L.export_relation(parsed, "json")
    assert json.loads(export)["schema"] == "lantern-relation/4"
    assert export == L.export_relation(relation, "json")
    assert L.parse_relation(export) == relation


def test_hand_built_relations_keep_their_v3_bytes():
    """Relations that no sweep replays are written as schema 3, byte for byte as before.

    The fixture holds reordered factors, a dropped factor, a left side
    listed from d_n down and a reversed right side, with and without
    reports, exported before schema 4 existed.
    """
    lines = (DATA / "v3_hand_built.jsonl").read_text().splitlines(keepends=True)
    assert len(lines) == 4
    for line in lines:
        relation = L.parse_relation(line)
        assert L.export_relation(relation, "json") == line
        assert json.loads(line)["schema"] == "lantern-relation/3"


def test_v4_document_holds_the_blocks_in_sweep_order():
    arr = _seed7_n8()
    relation = L.verified_relation(arr)
    text = L.export_relation(relation, "json")
    data = json.loads(text)
    assert list(data) == ["schema", "name", "n", "lhs", "blocks", "report"]
    assert data["blocks"] == [list(block) for block in fiber_blocks(arr)]
    assert data["blocks"] == [list(d.block) for d in reversed(relation.rhs)]
    assert data["lhs"] == [[b, e] for b, e in relation.lhs]
    parsed = L.parse_relation(text)
    assert parsed == relation and L.export_relation(parsed, "json") == text
    assert len(text) < len(_v3_text(relation)) / 3


def test_a_truncated_sweep_falls_back_to_v3():
    """Every conjugator replays the blocks before it, but one pair never crosses."""
    relation = L.lantern_relation(L.make_daisy(5))
    truncated = L.Relation("truncated", 5, relation.lhs, relation.rhs[1:])
    data = L.relation_to_dict(truncated)
    assert data == L.relation_to_v3_dict(truncated)
    assert L.parse_relation(json.dumps(data)) == truncated


def _v4(relation=None):
    data = json.loads(L.export_relation(relation or L.verified_relation(L.make_daisy(5)), "json"))
    assert data["schema"] == "lantern-relation/4"
    return data


def _refused(document, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        L.parse_relation(json.dumps(document))
    assert time.perf_counter() - start < 1.0


def test_hostile_strand_count_is_refused_at_the_lhs():
    n = 10**12
    document = {"schema": "lantern-relation/4", "name": "huge", "n": n, "report": None}
    _refused({**document, "lhs": [[0, 1], [n, 2]], "blocks": []}, r"lhs\[1\] names boundary")
    _refused({**document, "lhs": [[0, 1], [1, 2]], "blocks": []}, r"lhs lists 2 boundaries")
    _refused({**document, "lhs": [[0, 1]], "blocks": [[1, n]]}, r"lhs lists 1 boundaries")


def test_a_hostile_v3_strand_count_exports_quickly():
    """n = 10**12 with no factors is no sweep; the writer decides that without an n-sized list."""
    n = 10**12
    relation = L.Relation("huge", n, ((0, 1), (n, 2)), ())
    start = time.perf_counter()
    data = L.relation_to_dict(relation)
    assert time.perf_counter() - start < 1.0
    assert data == L.relation_to_v3_dict(relation)


@pytest.mark.parametrize(
    "block, message",
    [
        ([0, 2], "not a block"),
        ([4, 6], "not a block"),
        ([3, 3], "not a block"),
        ([3, 2], "not a block"),
        ([1], "two JSON integers"),
        ([1, 2, 3], "two JSON integers"),
        ([True, 2], "JSON integers only"),
        ([1.0, 2], "JSON integers only"),
        ("12", "JSON list"),
        (12, "JSON list"),
        ({"1": 2}, "JSON list"),
    ],
)
def test_malformed_blocks_are_refused_by_index(block, message):
    data = _v4()
    data["blocks"][2] = block
    _refused(data, rf"blocks\[2\].*{message}")


@pytest.mark.parametrize(
    "edits, message",
    [
        ({0: []}, "blocks[0] must be two JSON integers, got 0"),
        ({4: [2, False]}, "blocks[4] must hold JSON integers only"),
        ({4: [[1], 2]}, "blocks[4] must hold JSON integers only"),
        ({2: None}, "blocks[2] must be a JSON list"),
        ({5: {"a": 1}}, "blocks[5] must be a JSON list"),
        ({0: [0, 1]}, "blocks[0] is [0, 1], not a block of two or more in 1..5"),
        ({2: [1], 3: "x"}, "blocks[2] must be two JSON integers, got 1"),  # the first is named
    ],
)
def test_the_bulk_block_check_refuses_with_the_block_by_block_message(edits, message):
    data = _v4()
    assert len(data["blocks"]) == 5
    for i, block in edits.items():
        data["blocks"][i : i + 1] = [block]
    with pytest.raises(ValueError) as err:
        L.parse_relation(json.dumps(data))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "blocks, message",
    [
        ("12", "blocks[0] must be a JSON list"),
        ({"1": 2}, "blocks[0] must be a JSON list"),
        (12, "malformed lantern-relation/4 document: TypeError(\"'int' object is not iterable\")"),
        (None, "malformed lantern-relation/4 document: TypeError(\"'NoneType' object is not "
               "iterable\")"),
    ],
)
def test_blocks_that_are_not_a_list_are_refused_as_before(blocks, message):
    data = _v4()
    data["blocks"] = blocks
    with pytest.raises(ValueError) as err:
        L.parse_relation(json.dumps(data))
    assert str(err.value) == message


def test_a_block_that_crosses_a_pair_twice_is_refused():
    data = _v4(L.verified_relation(L.validate_arrangement(WORKED_LINES)))
    assert data["blocks"] == [[2, 3], [1, 2], [2, 3]]
    data["blocks"].insert(1, [2, 3])
    _refused(data, r"blocks\[1\] crosses lines 2 and 3 a second time")


def test_a_pair_left_uncrossed_is_refused():
    data = _v4()
    data["blocks"].pop()
    _refused(data, r"blocks leave lines \d and \d uncrossed")
    data["blocks"] = []
    _refused(data, r"blocks leave lines 1 and 2 uncrossed")


@pytest.mark.parametrize("key", ["lhs", "blocks"])
def test_a_v4_document_needs_its_lists(key):
    data = _v4()
    del data[key]
    _refused(data, "malformed lantern-relation/4 document")


def test_v4_lhs_lists_every_boundary_in_order():
    data = _v4()
    data["lhs"][1], data["lhs"][2] = data["lhs"][2], data["lhs"][1]
    _refused(data, r"lhs\[1\] names boundary 2, not 1")
    data = _v4()
    data["lhs"].append([6, 1])
    _refused(data, r"lhs lists 7 boundaries, not the 6 of 0\.\.5")


def _arrangements():
    """Seeded random arrangements, n = 2..9, some with a forced triple point, some sheared."""
    return st.builds(
        lambda seed, n, concurrent: L.shear_to_generic(
            random_arrangement(random.Random(seed), n, allow_concurrent=concurrent)
        )[0],
        st.integers(0, 10**6),
        st.integers(2, 9),
        st.booleans(),
    )


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_arrangements())
@example(_seed7_n8())
def test_v4_export_round_trips_byte_for_byte(arr):
    relation = L.verified_relation(arr)
    text = L.export_relation(relation, "json")
    assert json.loads(text)["schema"] == "lantern-relation/4"
    parsed = L.parse_relation(text)
    assert parsed == relation and parsed.report.verified
    assert L.export_relation(parsed, "json") == text


def _edit(blocks, kind, i, j, shift):
    """`blocks` with one edit; i and j index blocks, `shift` moves one endpoint."""
    blocks = [list(block) for block in blocks]
    if kind == "shift":
        blocks[i][j % 2] += shift
    elif kind == "swap":
        blocks[i], blocks[j] = blocks[j], blocks[i]
    elif kind == "drop":
        del blocks[i]
    else:
        blocks.insert(j, list(blocks[i]))
    return blocks


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    _arrangements(),
    st.sampled_from(["shift", "swap", "drop", "duplicate"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from([-1, 1]),
)
def test_an_edited_block_sequence_is_refused_or_reported_truly(arr, kind, i, j, shift):
    data = json.loads(L.export_relation(L.verified_relation(arr), "json"))
    count = len(data["blocks"])
    data["blocks"] = _edit(data["blocks"], kind, i % count, j % count, shift)
    try:
        parsed = L.parse_relation(json.dumps(data))
    except ValueError:
        return
    assert parsed.report == L.verify_relation(parsed)
