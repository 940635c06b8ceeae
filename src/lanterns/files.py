"""Arrangement files: exact JSON and plain-text readers and writers.

JSON form:

    {"lines": [{"slope": "1/2", "intercept": "-3", "name": "L1"}, ...]}

Rationals travel as strings "p/q" or integer strings, never as JSON
numbers: JSON numbers are floats and exactness is non-negotiable.  The
text form carries one "slope intercept" pair per line, with blank lines
and `#` comments ignored.  Parse errors carry the offending line (and
column for JSON syntax errors).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .geometry import Arrangement, validate_arrangement

# ASCII digits only: `\d` also matches other scripts' digits, which
# `Fraction` would read as numbers.
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


class ArrangementFileError(ValueError):
    """A file failed to parse; carries position information when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


def parse_rational(token: str, line: int | None = None) -> Fraction:
    token = token.strip()
    if not _RATIONAL_RE.match(token):
        raise ArrangementFileError(
            f"bad rational {token!r}: expected an integer or 'p/q'", line
        )
    try:
        return Fraction(token)
    except ValueError as err:  # past the interpreter's int-string digit limit
        raise ArrangementFileError(f"bad rational: {err}", line) from err


def parse_arrangement_text(text: str) -> Arrangement:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        tokens = content.split()
        if len(tokens) != 2:
            raise ArrangementFileError(
                f"expected 'slope intercept', got {content!r}", lineno
            )
        entries.append(
            (parse_rational(tokens[0], lineno), parse_rational(tokens[1], lineno))
        )
    if not entries:
        raise ArrangementFileError("no lines found in arrangement file")
    return validate_arrangement(entries)


def parse_arrangement_json(text: str) -> Arrangement:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ArrangementFileError(
            f"invalid JSON: {err.msg}", err.lineno, err.colno
        ) from err
    except RecursionError as err:
        raise ArrangementFileError("invalid JSON: nested too deeply to parse") from err
    if not isinstance(data, dict) or "lines" not in data:
        raise ArrangementFileError('arrangement JSON must be an object with a "lines" key')
    if not isinstance(data["lines"], list) or not data["lines"]:
        raise ArrangementFileError('"lines" must be a nonempty list')
    entries = []
    for index, item in enumerate(data["lines"]):
        if not isinstance(item, dict) or "slope" not in item or "intercept" not in item:
            raise ArrangementFileError(
                f'lines[{index}] must be an object with "slope" and "intercept"'
            )
        entry = []
        for key in ("slope", "intercept"):
            if not isinstance(item[key], str):
                raise ArrangementFileError(
                    f"lines[{index}].{key} must be a string rational "
                    "(JSON numbers are floats; exactness is required)"
                )
            try:
                entry.append(parse_rational(item[key]))
            except ArrangementFileError as err:
                raise ArrangementFileError(f"lines[{index}].{key}: {err}") from err
        name = item.get("name")
        if name is not None and not isinstance(name, str):
            raise ArrangementFileError(f"lines[{index}].name must be a string")
        entries.append((*entry, name))
    return validate_arrangement(entries)


def parse_arrangement(text: str) -> Arrangement:
    """Dispatch on content: a leading '{' means JSON, anything else text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_arrangement_json(text)
    return parse_arrangement_text(text)


def load_arrangement(path: str | Path) -> Arrangement:
    return parse_arrangement(Path(path).read_text())


def arrangement_to_json(arr: Arrangement) -> str:
    lines = []
    for line in arr.lines:
        entry = {"slope": str(line.slope), "intercept": str(line.intercept)}
        if line.name is not None:
            entry["name"] = line.name
        lines.append(entry)
    return json.dumps({"lines": lines}, indent=2) + "\n"


def save_arrangement(arr: Arrangement, path: str | Path) -> None:
    Path(path).write_text(arrangement_to_json(arr))
