"""Arrangement file parsing and writing."""

import json
import sys
from fractions import Fraction

import pytest

import lanterns as L
from lanterns.files import ArrangementFileError, parse_arrangement_json, parse_rational


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("+7/3") == Fraction(7, 3)
    with pytest.raises(ArrangementFileError):
        parse_rational("0.5")
    with pytest.raises(ArrangementFileError):
        parse_rational("1/0")


def test_parse_text():
    text = "# three lines\n2 0\n1 1\n\n-1 4  # the shallow one\n"
    arr = L.parse_arrangement(text)
    assert arr.n == 3
    assert [line.slope for line in arr.lines] == [2, 1, -1]


def test_parse_text_errors_carry_line():
    with pytest.raises(ArrangementFileError) as err:
        L.parse_arrangement("2 0\n1\n")
    assert err.value.line == 2
    with pytest.raises(ArrangementFileError) as err:
        L.parse_arrangement("2 0\n1 0.25\n")
    assert err.value.line == 2


def test_parse_json():
    text = (
        '{"lines": [{"slope": "2", "intercept": "0"},'
        ' {"slope": "1", "intercept": "1", "name": "middle"},'
        ' {"slope": "-1", "intercept": "4"}]}'
    )
    arr = L.parse_arrangement(text)
    assert arr.n == 3
    assert arr.lines[1].name == "middle"
    assert arr.lines[1].display_name == "middle"


def test_parse_json_rejects_numbers():
    with pytest.raises(ArrangementFileError):
        L.parse_arrangement('{"lines": [{"slope": 2, "intercept": "0"}]}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('["lines"]', "must be an object"),
        ('{"line": []}', 'with a "lines" key'),
        ('{"lines": [{"slope": "1", "intercept": "0", "name": 7}]}', r"lines\[0\]\.name"),
    ],
    ids=["top-level-list", "no-lines-key", "name-not-a-string"],
)
def test_malformed_json_arrangements_rejected(text, message):
    with pytest.raises(ArrangementFileError, match=message):
        parse_arrangement_json(text)


def test_parse_json_syntax_error_carries_position():
    with pytest.raises(ArrangementFileError) as err:
        L.parse_arrangement('{"lines": [}')
    assert err.value.line is not None and err.value.column is not None


def test_round_trip(tmp_path, worked):
    path = tmp_path / "worked.json"
    L.save_arrangement(worked, path)
    again = L.load_arrangement(path)
    assert again == worked


def test_round_trip_preserves_names(tmp_path):
    arr = L.validate_arrangement([(2, 0, "steep"), (1, 1), (-1, 4)])
    path = tmp_path / "named.json"
    L.save_arrangement(arr, path)
    again = L.load_arrangement(path)
    assert again.lines[0].name == "steep"
    assert again.lines[1].name is None


def test_empty_inputs_rejected():
    with pytest.raises(ArrangementFileError):
        L.parse_arrangement("# nothing here\n")
    with pytest.raises(ArrangementFileError):
        L.parse_arrangement('{"lines": []}')


def _past_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-string digit limit")
    return "7" * (limit + 1)


def test_digit_limit_text_carries_line():
    with pytest.raises(ArrangementFileError) as err:
        L.parse_arrangement(f"2 0\n1 {_past_digit_limit()}\n-1 4\n")
    assert err.value.line == 2
    assert "(line 2)" in str(err.value)


def test_digit_limit_json_carries_field():
    big = _past_digit_limit()
    document = {"lines": [{"slope": "2", "intercept": "0"}, {"slope": big, "intercept": "1"}]}
    with pytest.raises(ArrangementFileError, match=r"lines\[1\]\.slope"):
        L.parse_arrangement(json.dumps(document))
    document["lines"][1] = {"slope": "1", "intercept": big}
    with pytest.raises(ArrangementFileError, match=r"lines\[1\]\.intercept"):
        L.parse_arrangement(json.dumps(document))
