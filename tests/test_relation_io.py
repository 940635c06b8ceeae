"""Relation exporters: text, latex, lossless json round trip."""

import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import lanterns as L
from lanterns.braids import BraidWord, artin_image
from lanterns.geometry import fiber_blocks
from lanterns.relation import full_twist_images
from conftest import random_arrangement, random_braid


def test_text_exports(worked):
    relation = L.lantern_relation(worked)
    assert L.export_relation(relation, "text") == "d0 d1 d2 d3 = a12 a13 a23\n"
    pencil = L.lantern_relation(L.make_pencil(3))
    assert L.export_relation(pencil, "text") == "d0 = a(1,2,3)\n"


def test_latex_export_daisy():
    relation = L.check_daisy(4).relation
    assert L.export_relation(relation, "latex") == (
        "\\partial_{0} \\partial_{1}^{2} \\partial_{2} \\partial_{3} \\partial_{4}"
        " = \\alpha_{\\{2,3,4\\}} \\alpha_{1,4} \\alpha_{1,3} \\alpha_{1,2}\n"
    )


def test_json_round_trip(worked):
    relation = L.verified_relation(worked)
    text = L.export_relation(relation, "json")
    parsed = L.parse_relation(text)
    assert parsed == relation
    # and the round trip is stable byte for byte
    assert L.export_relation(parsed, "json") == text


def test_json_round_trip_without_report():
    relation = L.lantern_relation(L.make_daisy(4))
    assert L.parse_relation(L.export_relation(relation, "json")) == relation


def test_json_round_trip_failed_report(worked):
    relation = L.lantern_relation(worked)
    swapped = list(relation.rhs)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    bad = L.Relation("bad", 3, relation.lhs, tuple(swapped))
    from dataclasses import replace

    bad = replace(bad, report=L.verify_relation(bad))
    assert bad.report.witness is not None
    assert L.parse_relation(L.export_relation(bad, "json")) == bad


def test_v2_export_stores_no_words(worked):
    relation = L.verified_relation(worked)
    data = json.loads(L.export_relation(relation, "json"))
    assert data["schema"] == "lantern-relation/4"
    for document in (data, L.relation_to_v3_dict(relation)):
        assert "lhs_element" not in document and "rhs_element" not in document
        assert "lhs" not in document["report"] and "rhs" not in document["report"]


def test_swapped_factor_json_does_not_verify(worked):
    data = L.relation_to_v3_dict(L.verified_relation(worked))
    data["rhs"][0], data["rhs"][1] = data["rhs"][1], data["rhs"][0]
    data["report"] = None
    parsed = L.parse_relation(json.dumps(data))
    assert L.export_relation(parsed, "text") == "d0 d1 d2 d3 = a13 a12 a23\n"
    report = L.verify_relation(parsed)
    assert not report.verified
    assert report.witness is not None


def test_swapped_factor_json_with_kept_report_is_rejected(worked):
    data = L.relation_to_v3_dict(L.verified_relation(worked))
    data["rhs"][0], data["rhs"][1] = data["rhs"][1], data["rhs"][0]
    assert data["report"]["verified"]
    with pytest.raises(ValueError, match="stored report"):
        L.parse_relation(json.dumps(data))


def test_flipped_verified_flag_is_rejected(worked):
    # the stored report is compared entry by entry, "verified" included
    data = json.loads(L.export_relation(L.verified_relation(worked), "json"))
    data["report"]["verified"] = False
    with pytest.raises(ValueError, match="stored report"):
        L.parse_relation(json.dumps(data))


def test_failed_report_with_reordered_witness_keys_parses(worked):
    relation = L.lantern_relation(worked)
    bad = L.Relation("bad", 3, relation.lhs, (relation.rhs[1], relation.rhs[0], relation.rhs[2]))
    data = json.loads(L.export_relation(bad.with_report(L.verify_relation(bad)), "json"))
    data["report"]["witness"] = dict(reversed(data["report"]["witness"].items()))
    parsed = L.parse_relation(json.dumps(data))
    assert parsed.report == L.verify_relation(bad) and not parsed.report.verified
    del data["report"]["witness"]
    with pytest.raises(ValueError, match="stored report"):
        L.parse_relation(json.dumps(data))


def test_name_must_be_a_json_string(worked):
    data = json.loads(L.export_relation(L.verified_relation(worked), "json"))
    data["name"] = 5
    with pytest.raises(ValueError, match="name"):
        L.parse_relation(json.dumps(data))


@pytest.mark.parametrize("boundary_id", [7, 4, -1])
def test_lhs_boundary_ids_must_name_d0_to_dn(worked, boundary_id):
    data = json.loads(L.export_relation(L.lantern_relation(worked), "json"))
    data["lhs"][1] = [boundary_id, 1]
    with pytest.raises(ValueError, match=r"lhs\[1\]"):
        L.parse_relation(json.dumps(data))
    data["lhs"] = [[boundary_id, 1]]
    with pytest.raises(ValueError, match=r"lhs\[0\]"):
        L.parse_relation(json.dumps(data))


@pytest.mark.parametrize(
    "document",
    [
        {"schema": "lantern-relation/2", "n": 3},
        {
            "schema": "lantern-relation/2",
            "name": "lantern",
            "n": 3,
            "lhs": [[0, 1]],
            "rhs": [{"label": "a12", "conjugator": 5, "block": [1, 2], "enclosed": [1, 2]}],
            "report": None,
        },
        [],
    ],
    ids=["missing-rhs", "conjugator-not-a-list", "top-level-list"],
)
def test_malformed_relation_json_raises_value_error(document):
    with pytest.raises(ValueError):
        L.parse_relation(json.dumps(document))


def test_label_must_match_enclosed(worked):
    data = L.relation_to_v3_dict(L.lantern_relation(worked))
    assert [entry["label"] for entry in data["rhs"]] == ["a12", "a13", "a23"]
    relabeled = json.loads(json.dumps(data))
    relabeled["rhs"][0]["label"] = "a13"
    with pytest.raises(ValueError, match="label"):
        L.parse_relation(json.dumps(relabeled))
    # Swapped factors under unswapped labels: the labels would print the
    # classical lantern while the factors say otherwise.
    swapped = json.loads(json.dumps(data))
    first, second = swapped["rhs"][0], swapped["rhs"][1]
    for key in ("conjugator", "block", "enclosed"):
        first[key], second[key] = second[key], first[key]
    with pytest.raises(ValueError, match="label"):
        L.parse_relation(json.dumps(swapped))


def test_deeply_nested_relation_document_raises_value_error():
    depth = 100_000
    with pytest.raises(ValueError, match="nested"):
        L.parse_relation("[" * depth + "]" * depth)


def test_unknown_format(worked):
    relation = L.lantern_relation(worked)
    with pytest.raises(L.UnknownFormat):
        L.export_relation(relation, "yaml")


def test_bad_schema_rejected(worked):
    """Schema 1, which also stored both side words, is refused like an unknown schema.

    Its stored right word is never evaluated: an Artin check of
    `[1, -2] * 18` would grow images exponentially in the word length.
    """
    relation = L.verified_relation(worked)
    v1 = L.relation_to_dict(relation)
    v1["schema"] = "lantern-relation/1"
    v1["lhs_element"] = {
        "braid": list(relation.lhs_element.braid.letters),
        "framing": list(relation.lhs_element.framing),
    }
    v1["rhs_element"] = {"braid": [1, -2] * 18, "framing": list(relation.rhs_element.framing)}
    for document in ({"schema": "something-else/9"}, v1):
        with pytest.raises(ValueError, match="unsupported relation schema"):
            L.parse_relation(json.dumps(document))


def test_export_determinism(worked):
    relation = L.verified_relation(worked)
    assert L.export_relation(relation, "json") == L.export_relation(relation, "json")
    assert L.export_relation(relation, "latex") == L.export_relation(relation, "latex")


def _assign(data, path, value):
    *keys, last = path
    for key in keys:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("rhs", 0, "conjugator", 1), True),
        (("lhs", 1, 1), True),
        (("lhs", 1, 0), True),
        (("n",), 3.7),
        (("n",), "3"),
        (("n",), 0),
        (("n",), -3),
        (("rhs", 1, "block", 0), True),
        (("rhs", 1, "block"), [1, 2, 3]),
        (("rhs", 0, "enclosed", 0), True),
        (("report", "braid_ok"), 1),
    ],
    ids=[
        "conjugator-letter-true",
        "lhs-exponent-true",
        "lhs-boundary-true",
        "n-float",
        "n-string",
        "n-zero",
        "n-negative",
        "block-true",
        "block-of-three",
        "enclosed-true",
        "report-flag-int",
    ],
)
def test_relation_json_integers_are_strict(worked, path, value):
    data = L.relation_to_v3_dict(L.verified_relation(worked))
    assert L.parse_relation(json.dumps(data)).report.verified
    _assign(data, path, value)
    with pytest.raises(ValueError):
        L.parse_relation(json.dumps(data))


def test_json_export_is_compact_and_round_trips():
    relation = L.verified_relation(L.make_doubled_daisy(6))
    text = L.export_relation(relation, "json")
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert L.export_relation(L.parse_relation(text), "json") == text


WORKED_V2_JSON = (
    '{"schema": "lantern-relation/2", "name": "lantern", "n": 3, '
    '"text": "d0 d1 d2 d3 = a12 a13 a23", "lhs": [[0, 1], [1, 1], [2, 1], [3, 1]], '
    '"rhs": [{"label": "a12", "conjugator": [2, 1], "block": [2, 3], "enclosed": [1, 2]}, '
    '{"label": "a13", "conjugator": [2], "block": [1, 2], "enclosed": [1, 3]}, '
    '{"label": "a23", "conjugator": [], "block": [2, 3], "enclosed": [2, 3]}], '
    '"report": {"braid_ok": true, "framing_ok": true, "verified": true, "witness": null}}\n'
)


def _v3_text(relation):
    """The schema-3 export, which the writer falls back to, as the json export writes it."""
    return json.dumps(L.relation_to_v3_dict(relation)) + "\n"


def test_worked_v3_export_is_the_v2_bytes_but_for_the_schema(worked):
    # No conjugator of the classical lantern extends one longer than its tail.
    relation = L.verified_relation(worked)
    text = _v3_text(relation)
    assert text == WORKED_V2_JSON.replace("lantern-relation/2", "lantern-relation/3")
    assert L.parse_relation(WORKED_V2_JSON) == L.parse_relation(text)
    assert L.parse_relation(L.export_relation(relation, "json")) == L.parse_relation(text)


def _spelled(relation, schema):
    """`relation` as a document of `schema` that spells every conjugator in full."""
    data = L.relation_to_v3_dict(relation)
    data["schema"] = schema
    for entry, descriptor in zip(data["rhs"], relation.rhs):
        entry.pop("extends", None)
        entry["conjugator"] = list(descriptor.conjugator.letters)
    return data


def test_v3_stores_tails_and_round_trips_byte_for_byte():
    rng = random.Random(35)
    relations = [L.verified_relation(L.make_doubled_daisy(6))]
    relations += [
        L.verified_relation(L.shear_to_generic(random_arrangement(rng, rng.randint(4, 9)))[0])
        for _ in range(12)
    ]
    for relation in relations:
        text = _v3_text(relation)
        data = json.loads(text)
        assert any("extends" in entry for entry in data["rhs"])
        for index, entry in enumerate(data["rhs"]):
            letters = relation.rhs[index].conjugator.letters
            if "extends" in entry:
                assert entry["extends"] == index + 1
                following = relation.rhs[index + 1].conjugator.letters
                assert letters == following + tuple(entry["conjugator"])
                assert len(following) > len(entry["conjugator"])
            else:
                assert entry["conjugator"] == list(letters)
        parsed = L.parse_relation(text)
        assert parsed == relation and parsed.report.verified
        assert _v3_text(parsed) == text
        assert L.export_relation(parsed, "json") == L.export_relation(relation, "json")
        # the same relation spelled in full, as schema 2 wrote it, parses to it too
        v2 = L.parse_relation(json.dumps(_spelled(relation, "lantern-relation/2")))
        assert v2 == relation
        assert _v3_text(v2) == text
        assert L.export_relation(v2, "json") == L.export_relation(relation, "json")


def test_v3_writer_decides_on_letters_not_on_construction():
    relation = L.lantern_relation(L.make_doubled_daisy(6))
    respelled = L.Relation(
        relation.name,
        relation.n,
        relation.lhs,
        tuple(
            L.TwistDescriptor(BraidWord(d.conjugator.n, d.conjugator.letters), d.block, d.enclosed)
            for d in relation.rhs
        ),
    )
    assert respelled == relation
    assert L.export_relation(respelled, "json") == L.export_relation(relation, "json")
    assert _v3_text(respelled) == _v3_text(relation)


@pytest.mark.parametrize(
    "path, value",
    [
        (("rhs", 0, "extends"), 0),
        (("rhs", 1, "extends"), 0),
        (("rhs", 0, "extends"), 11),
        (("rhs", 0, "extends"), 2),
        (("rhs", 0, "extends"), True),
        (("rhs", 0, "extends"), 1.0),
        (("rhs", 0, "extends"), "1"),
        (("rhs", 9, "extends"), 10),
        (("rhs", 0, "conjugator", 0), True),
    ],
    ids=[
        "self",
        "earlier",
        "past-the-end",
        "past-the-next-entry",
        "true",
        "float",
        "string",
        "on-the-last-entry",
        "tail-letter-true",
    ],
)
def test_v3_references_are_checked(path, value):
    data = L.relation_to_v3_dict(L.verified_relation(L.make_doubled_daisy(6)))
    assert len(data["rhs"]) == 10 and data["rhs"][0]["extends"] == 1
    assert data["rhs"][1]["extends"] == 2 and "extends" not in data["rhs"][9]
    _assign(data, path, value)
    with pytest.raises(ValueError):
        L.parse_relation(json.dumps(data))


def test_v3_reference_to_a_wrong_conjugator_fails_the_descriptor_check():
    data = L.relation_to_v3_dict(L.lantern_relation(L.make_doubled_daisy(6)))
    first = data["rhs"][0]
    assert first["extends"] == 1 and first["conjugator"] == [2]
    first["conjugator"] = [1]
    with pytest.raises(L.InconsistentDescriptor):
        L.parse_relation(json.dumps(data))


def test_entries_extending_one_entry_parse_in_linear_time():
    """A document whose entries all extend one entry is refused at once.

    2,000 one-letter entries extend one entry of 20,000 letters.  Only the
    next entry may be extended, so the parser stops at the first entry that
    extends another; when every such branch was built and replayed from the
    chain's root, the parse took 40 million letter steps (3.5 s).
    """
    n, rng = 5, random.Random(38)
    root = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(20_000)]
    order = BraidWord(n, root)._strand_order
    entries = []
    for _ in range(2000):
        t = rng.randint(1, n - 1)
        first = order[1] if t == 1 else order[0]  # the strand at position 1 after sigma_t
        entries.append({"extends": 2000, "conjugator": [t], "block": [1, 1], "enclosed": [first]})
    entries.append({"conjugator": root, "block": [1, 1], "enclosed": [order[0]]})
    for entry in entries:
        entry["label"] = L.twist_label(entry["enclosed"])
    document = {
        "schema": "lantern-relation/3",
        "name": "branches",
        "n": n,
        "lhs": [[0, 1]],
        "rhs": entries,
        "report": None,
    }
    text = json.dumps(document)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"rhs\[1998\] extends entry 2000"):
        L.parse_relation(text)
    assert time.perf_counter() - start < 0.5


SPELLING_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import lanterns as L
text = sys.stdin.read()
start = time.perf_counter()
try:
    L.parse_relation(text)
    message = None
except ValueError as exc:
    message = str(exc)
print(json.dumps({"message": message, "elapsed_s": time.perf_counter() - start}))
"""


def _parse_in_child(text):
    """`parse_relation(text)` in a child capped at 1 GB: its `ValueError` message and time."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", SPELLING_CHILD],
        input=text,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _one_letter_chain(s):
    """A valid n = 2 schema-3 document: entry i extends entry i + 1 by sigma_1, s entries."""
    entries = []
    for i in range(s):
        line = 1 + (s - 1 - i) % 2  # the strand at position 1 after sigma_1^(s - 1 - i)
        entry = {"label": L.twist_label([line])}
        if i < s - 1:
            entry["extends"] = i + 1
        entry["conjugator"] = [1] if i < s - 1 else []
        entry["block"], entry["enclosed"] = [1, 1], [line]
        entries.append(entry)
    document = {"schema": "lantern-relation/3", "name": "chain", "n": 2, "lhs": [[0, 1]]}
    return json.dumps(dict(document, rhs=entries, report=None))


def test_a_long_extends_chain_is_refused_by_its_letter_count():
    """A 1.07 MB document whose conjugators would spell 72 million letters.

    12,000 one-letter tails, each extending the next entry: spelled entry
    by entry they cost quadratic time and memory (6 s and 586 MB when a
    parser spelled them).  The count comes from the tail lengths, so the
    document is refused before any is spelled, in a child capped at 1 GB
    of address space.
    """
    text = _one_letter_chain(12_000)
    assert len(text) > 1_000_000
    result = _parse_in_child(text)
    spelled = 12_000 * 11_999 // 2
    assert result["message"] is not None and f"spell {spelled} letters" in result["message"]
    assert result["elapsed_s"] < 1.0, result
    # a short chain is under the bound and parses, spelled entry by entry
    short = L.parse_relation(_one_letter_chain(1000))
    assert type(short.rhs) is tuple and len(short.rhs[0].conjugator) == 999


def _replay_shaped_v3():
    """A seeded relation's schema-3 document, which parses to a `TwistReplay`."""
    arr, _ = L.shear_to_generic(random_arrangement(random.Random(39), 7, allow_concurrent=False))
    data = L.relation_to_v3_dict(L.verified_relation(arr))
    assert isinstance(L.parse_relation(json.dumps(data)).rhs, L.framed.TwistReplay)
    return data


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
@pytest.mark.parametrize("where", ["block", "enclosed", "tail", "spelled", "extends"])
def test_a_replay_shaped_v3_document_reads_its_integers_strictly(where, value):
    """Swapping a stored 1 for `true` or `1.0` is refused, also where replay detection compares.

    The values are equal under `==`, so a replay-shaped document would
    read as the same relation if the detection compared them loosely.
    """
    data = _replay_shaped_v3()
    entries = data["rhs"]
    extending = [e for e in entries if "extends" in e and 1 in e["conjugator"]]
    spelled = [e for e in entries if "extends" not in e and 1 in e["conjugator"]]
    if where == "block":
        entry = next(e for e in entries if 1 in e["block"])
        entry["block"][entry["block"].index(1)] = value
    elif where == "enclosed":
        entry = next(e for e in entries if 1 in e["enclosed"])
        entry["enclosed"][entry["enclosed"].index(1)] = value
    elif where == "extends":
        entry = next(e for e in entries if e.get("extends") == 1)
        entry["extends"] = value
    else:
        entry = (extending if where == "tail" else spelled)[0]
        entry["conjugator"][entry["conjugator"].index(1)] = value
    with pytest.raises(ValueError):
        L.parse_relation(json.dumps(data))


def test_relations_and_monodromy_stay_in_their_memory_budgets():
    """Memory guard, seed 99 at n = 60 (1690 points), measured with tracemalloc.

    What `verified_relation` leaves on the arrangement, and the relation
    parsed back from its export, hold about 0.05 and 0.52 MB on Python
    3.11: a replay keeps its blocks and enclosed sets, not descriptors.
    The monodromy's descriptors then hold about 1.6 MB: their conjugators
    are prefixes of one shared word, where a conjugator spelled in full
    each would hold about 12 MB of letters.
    """

    def traced(build):
        """What `build` returns, and the bytes it left allocated."""
        gc.collect()
        tracemalloc.start()
        try:
            result = build()
            gc.collect()
            return result, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    arr, _ = L.shear_to_generic(random_arrangement(random.Random(99), 60, allow_concurrent=False))
    fiber_blocks(arr)  # the points and blocks are geometry: derived before the count
    relation, kept = traced(lambda: L.verified_relation(arr))
    text = L.export_relation(relation, "json")
    parsed, size = traced(lambda: L.parse_relation(text))
    assert relation.report.verified and parsed.report.verified
    assert kept < 1.6e6 and size < 1.75e6, (kept, size)
    _, monodromy = traced(lambda: L.braid_monodromy(arr))
    assert monodromy < 2.5e6, monodromy


def test_swapped_v3_entries_never_verify():
    """Swapping two adjacent entries gives ValueError or an unverified relation.

    Only pairs whose curves share a line are swapped: twists about disjoint
    sets of lines commute, so swapping those gives a true relation.
    """
    rng = random.Random(36)
    relations = [L.verified_relation(L.make_doubled_daisy(6)), L.verified_relation(L.make_daisy(5))]
    relations += [
        L.verified_relation(L.shear_to_generic(random_arrangement(rng, rng.randint(3, 8)))[0])
        for _ in range(12)
    ]
    outcomes = {"refused": 0, "unverified": 0}
    for relation in relations:
        data = L.relation_to_v3_dict(relation)
        for i in range(len(data["rhs"]) - 1):
            if not set(data["rhs"][i]["enclosed"]) & set(data["rhs"][i + 1]["enclosed"]):
                continue
            swapped = json.loads(json.dumps(data))
            swapped["rhs"][i], swapped["rhs"][i + 1] = swapped["rhs"][i + 1], swapped["rhs"][i]
            with pytest.raises(ValueError):
                L.parse_relation(json.dumps(swapped))  # the stored report says "yes"
            swapped["report"] = None
            try:
                parsed = L.parse_relation(json.dumps(swapped))
            except ValueError:
                outcomes["refused"] += 1
            else:
                assert not L.verify_relation(parsed).verified
                outcomes["unverified"] += 1
    assert outcomes["refused"] >= 20 and outcomes["unverified"] >= 5, outcomes


def test_v3_stored_letters_are_quadratic_at_n30():
    arr, _ = L.shear_to_generic(random_arrangement(random.Random(99), 30, allow_concurrent=False))
    data = L.relation_to_v3_dict(L.lantern_relation(arr))
    assert len(data["rhs"]) == 431
    stored = sum(len(entry["conjugator"]) for entry in data["rhs"])
    assert stored <= 30 * 29 // 2 * 29


def test_long_products_compare_and_spell_without_recursion():
    """Two 6,784-factor products, built separately, compare, hash and spell as one word.

    A product concatenates letters, so neither reading recurses, and a
    one-letter change at the end is told apart.
    """
    n, links = 5, 6784
    rng = random.Random(37)
    tails = [random_braid(rng, n, rng.randint(1, 3)) for _ in range(links)]
    first, second = BraidWord(n), BraidWord(n)
    for tail in tails:
        first = first * tail
        second = second * BraidWord(n, tail.letters)
    spelled = tuple(x for tail in tails for x in tail.letters)
    assert first is not second and len(first) == len(spelled)
    assert first == second and hash(first) == hash(second)
    assert first == BraidWord(n, spelled) == second
    assert first.letters == spelled and second.letters == spelled
    assert first != second * BraidWord(n, (1,)) and first != BraidWord(n, spelled[:-1] + (-spelled[-1],))


def test_left_images_are_the_closed_form():
    for n in range(1, 41):
        for e in range(-2, 3):
            word = L.compose_all([L.outer_boundary_twist(n) ** e]).braid
            assert full_twist_images(n, e) == artin_image(word), (n, e)


@pytest.mark.parametrize(
    "lhs",
    [
        ((0, 1), (0, 1)),
        ((0, 2), (3, 1), (0, -3), (1, 4)),
        ((1, -1), (0, -1), (2, 2), (0, 1), (0, 1)),
        ((4, 3), (4, -3)),
    ],
)
def test_several_outer_factors_sum_into_one_power(lhs):
    relation = L.Relation("sums", 4, lhs, ())
    e = sum(exponent for boundary_id, exponent in lhs if boundary_id == 0)
    assert full_twist_images(4, e) == artin_image(relation.lhs_element.braid)
    framing = tuple(e + sum(k for b, k in lhs if b == line) for line in range(1, 5))
    assert relation.lhs_element.framing == framing


def _two_evaluation_report(relation):
    """The report of running the Artin oracle over both sides' words."""
    lhs, rhs = relation.lhs_element, relation.rhs_element
    left, right = artin_image(lhs.braid), artin_image(rhs.braid)
    witness = next(
        (L.Witness(j, a, b) for j, (a, b) in enumerate(zip(left, right), start=1) if a != b),
        None,
    )
    return L.VerificationReport(left == right, lhs.framing == rhs.framing, witness)


def _variants(relation):
    """The relation, and copies with swapped, flipped-exponent and dropped factors."""
    rhs, lhs = relation.rhs, relation.lhs
    yield relation
    for i in range(len(rhs) - 1):
        swapped = rhs[:i] + (rhs[i + 1], rhs[i]) + rhs[i + 2 :]
        yield L.Relation("swapped", relation.n, lhs, swapped)
    for i, (boundary_id, exponent) in enumerate(lhs):
        flipped = lhs[:i] + ((boundary_id, -exponent if exponent else 1),) + lhs[i + 1 :]
        yield L.Relation("flipped", relation.n, flipped, rhs)
    for i in range(len(rhs)):
        yield L.Relation("dropped", relation.n, lhs, rhs[:i] + rhs[i + 1 :])
    yield L.Relation("several d0", relation.n, ((0, 2), (0, -1)) + lhs[1:], rhs)


def test_one_evaluation_reports_equal_two():
    rng = random.Random(38)
    arrangements = [L.validate_arrangement([(2, 0), (1, 1), (-1, 4)]), L.make_pencil(4)]
    arrangements += [L.make_daisy(5), L.make_doubled_daisy(6)]
    arrangements += [
        L.shear_to_generic(random_arrangement(rng, rng.randint(2, 6)))[0] for _ in range(6)
    ]
    outcomes = set()
    for arr in arrangements:
        for relation in _variants(L.lantern_relation(arr)):
            report = L.verify_relation(relation)
            assert report == _two_evaluation_report(relation), relation
            export = L.export_relation(relation.with_report(report), "json")
            assert export == L.export_relation(
                relation.with_report(_two_evaluation_report(relation)), "json"
            )
            outcomes.add((report.braid_ok, report.framing_ok))
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}


def test_convention_flips_fail_against_the_closed_form(worked):
    """Criterion 8's three flipped right sides differ from the closed-form left side."""
    relation = L.lantern_relation(worked)
    left = ((2, 2, 2), full_twist_images(3, 1))
    beta, flipped = BraidWord(3), []
    for twist in L.braid_monodromy(worked).twists:
        flipped.append(L.TwistDescriptor(beta, twist.descriptor.block, twist.descriptor.enclosed))
        beta = beta * L.half_twist_block(3, *twist.descriptor.block).inverse()
    sign = L.Relation("sign", 3, relation.lhs, tuple(reversed(flipped)))
    order = L.Relation("order", 3, relation.lhs, tuple(reversed(relation.rhs)))
    for bad in (sign, order):
        assert not L.verify_relation(bad).braid_ok
    zero = L.compose_all(
        [L.FramedElement(L.conjugated_twist(d).braid, (0, 0, 0)) for d in relation.rhs], n=3
    )
    assert (zero.framing, artin_image(zero.braid)) != left
    assert L.verify_relation(relation).verified


def test_verification_leaves_the_left_word_unbuilt(worked):
    relation = L.verified_relation(worked)
    assert "lhs_element" not in relation.__dict__
    parsed = L.parse_relation(L.export_relation(relation, "json"))
    assert "lhs_element" not in parsed.__dict__
    assert relation.lhs_element.framing == (2, 2, 2)  # still derived on request


@pytest.mark.parametrize("lhs", [((-1, 1),), ((0, 1), (4, 1)), ((0, 1), (-3, 2))])
def test_relation_lhs_ids_outside_0_to_n_raise(worked, lhs):
    rhs = L.lantern_relation(worked).rhs
    with pytest.raises(ValueError, match=r"lhs\[\d\] names boundary -?\d, outside 0\.\.3"):
        L.Relation("bad ids", 3, lhs, rhs)


def _composed_lhs(n, lhs):
    """The left side as the product of its boundary twists, each to its exponent."""
    twists = (
        (L.inner_boundary_twist(n, b) if b else L.outer_boundary_twist(n)) ** e for b, e in lhs
    )
    return L.compose_all(twists, n=n)


def test_lhs_element_is_the_composed_boundary_twists_letter_for_letter():
    rng = random.Random(41)
    for n in range(1, 9):
        cases = [(), ((0, 2), (0, -3), (1, 1)), ((0, -1), (0, 1), (n, -2)), ((0, 1), (0, 1))]
        for _ in range(10):
            ids = (rng.randint(0, n) * rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
            cases.append(tuple((b, rng.randint(-3, 3)) for b in ids))
        for lhs in cases:
            element = L.Relation("left", n, lhs, ()).lhs_element
            expected = _composed_lhs(n, lhs)
            assert element.braid.letters == expected.braid.letters, (n, lhs)
            assert element.framing == expected.framing, (n, lhs)


def test_hostile_strand_count_without_a_report_parses_quickly():
    n = 10**12
    document = {
        "schema": "lantern-relation/3",
        "name": "huge",
        "n": n,
        "lhs": [[0, 1], [n, 2]],
        "rhs": [],
        "report": None,
    }
    start = time.perf_counter()
    relation = L.parse_relation(json.dumps(document))
    assert time.perf_counter() - start < 1.0
    assert relation.n == n and relation.lhs == ((0, 1), (n, 2))


@pytest.mark.parametrize(
    "field, size",
    [("exponent", 10**30), ("exponent", 10**12), ("n", 10**30), ("n", 10**9)],
    ids=["exponent-1e30", "exponent-1e12", "n-1e30", "n-1e9"],
)
def test_hostile_sizes_end_in_a_value_error_naming_the_count(worked, field, size):
    """A stored report whose outer exponent e makes each left image spell 2n|e| + 1
    letters, or rhs twists on n strands, past `MAX_SPELLED_LETTERS`: refused before
    anything of that size is allocated, in a child capped at 1 GB."""
    data = L.relation_to_v3_dict(L.verified_relation(worked))
    if field == "exponent":
        data["lhs"] = [[0, size]]
        count = 2 * 3 * size + 1
    else:
        data["n"], data["report"] = size, None
        count = size
    result = _parse_in_child(json.dumps(data))
    assert result["message"] is not None and str(count) in result["message"], result
    assert result["elapsed_s"] < 1.0, result


def test_hostile_outer_exponent_is_refused_quickly(worked):
    data = L.relation_to_v3_dict(L.verified_relation(worked))
    data["lhs"] = [[0, 100_000]]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="stored report"):
        L.parse_relation(json.dumps(data))
    assert time.perf_counter() - start < 1.0
    data["report"] = None
    start = time.perf_counter()
    report = L.verify_relation(L.parse_relation(json.dumps(data)))
    assert time.perf_counter() - start < 1.0
    assert not report.verified and not report.braid_ok and not report.framing_ok
    assert report.witness.generator == 1 and len(report.witness.lhs_image) == 600_001
