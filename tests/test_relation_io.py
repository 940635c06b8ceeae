"""Relation exporters: text, latex, lossless json round trip."""

import json

import pytest

import lanterns as L


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
    data = json.loads(L.export_relation(L.verified_relation(worked), "json"))
    assert data["schema"] == "lantern-relation/2"
    assert "lhs_element" not in data and "rhs_element" not in data
    assert "lhs" not in data["report"] and "rhs" not in data["report"]


def test_swapped_factor_json_does_not_verify(worked):
    data = json.loads(L.export_relation(L.verified_relation(worked), "json"))
    data["rhs"][0], data["rhs"][1] = data["rhs"][1], data["rhs"][0]
    data["report"] = None
    parsed = L.parse_relation(json.dumps(data))
    assert L.export_relation(parsed, "text") == "d0 d1 d2 d3 = a13 a12 a23\n"
    report = L.verify_relation(parsed)
    assert not report.verified
    assert report.witness is not None


def test_swapped_factor_json_with_kept_report_is_rejected(worked):
    data = json.loads(L.export_relation(L.verified_relation(worked), "json"))
    data["rhs"][0], data["rhs"][1] = data["rhs"][1], data["rhs"][0]
    assert data["report"]["verified"]
    with pytest.raises(ValueError, match="stored report"):
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
    data = json.loads(L.export_relation(L.lantern_relation(worked), "json"))
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


def _v1_dict(relation, rhs_letters):
    """`relation` as a lantern-relation/1 document, right side spelled `rhs_letters`."""
    data = L.relation_to_dict(relation)
    data["schema"] = "lantern-relation/1"
    lhs = {
        "braid": list(relation.lhs_element.braid.letters),
        "framing": list(relation.lhs_element.framing),
    }
    rhs = {"braid": list(rhs_letters), "framing": list(relation.rhs_element.framing)}
    data["lhs_element"], data["rhs_element"] = lhs, rhs
    data["report"].update(lhs=lhs, rhs=rhs)
    return data


def test_v1_unreduced_export_still_parses():
    relation = L.verified_relation(L.make_daisy(5))
    unreduced = [x for d in relation.rhs for x in L.conjugated_twist(d).braid.letters]
    assert len(unreduced) > len(relation.rhs_element.braid)
    parsed = L.parse_relation(json.dumps(_v1_dict(relation, unreduced)))
    assert parsed == relation
    assert parsed.report.verified


def test_v1_stored_word_must_match_factors(worked):
    relation = L.verified_relation(worked)
    swapped = _v1_dict(relation, relation.rhs_element.braid.letters)
    swapped["rhs"][0], swapped["rhs"][1] = swapped["rhs"][1], swapped["rhs"][0]
    with pytest.raises(ValueError, match="not the product of its factors"):
        L.parse_relation(json.dumps(swapped))

    # the report's copy of a side is checked too
    stale_copy = _v1_dict(relation, relation.rhs_element.braid.letters)
    stale_copy["report"]["rhs"] = {"braid": [], "framing": [2, 2, 2]}
    with pytest.raises(ValueError, match="not the product of its factors"):
        L.parse_relation(json.dumps(stale_copy))


def test_unknown_format(worked):
    relation = L.lantern_relation(worked)
    with pytest.raises(L.UnknownFormat):
        L.export_relation(relation, "yaml")


def test_bad_schema_rejected():
    with pytest.raises(ValueError):
        L.parse_relation('{"schema": "something-else/9"}')


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
        (("rhs", 1, "block", 0), True),
        (("rhs", 0, "enclosed", 0), True),
        (("report", "braid_ok"), 1),
    ],
    ids=[
        "conjugator-letter-true",
        "lhs-exponent-true",
        "lhs-boundary-true",
        "n-float",
        "n-string",
        "block-true",
        "enclosed-true",
        "report-flag-int",
    ],
)
def test_relation_json_integers_are_strict(worked, path, value):
    data = json.loads(L.export_relation(L.verified_relation(worked), "json"))
    assert L.parse_relation(json.dumps(data)).report.verified
    _assign(data, path, value)
    with pytest.raises(ValueError):
        L.parse_relation(json.dumps(data))


def test_json_export_is_compact_and_round_trips():
    relation = L.verified_relation(L.make_doubled_daisy(6))
    text = L.export_relation(relation, "json")
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert L.export_relation(L.parse_relation(text), "json") == text
