"""CLI contract: exit codes, output purity, determinism."""

import json
import re

import pytest

import lanterns as L
from lanterns.cli import main
from conftest import NON_GENERIC_LINES, WORKED_LINES


def _write(tmp_path, name, lines):
    path = tmp_path / name
    L.save_arrangement(L.validate_arrangement(lines), path)
    return str(path)


def test_verify_lantern(tmp_path, capsys):
    path = _write(tmp_path, "lantern.json", WORKED_LINES)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "d0 d1 d2 d3 = a12 a13 a23" in out
    assert "verified" in out


def test_verify_duplicate_slopes_exits_2(tmp_path, capsys):
    path = tmp_path / "parallel.txt"
    path.write_text("1 0\n1 5\n")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "slope" in err


def test_verify_non_generic_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, "collide.json", NON_GENERIC_LINES)
    assert main(["verify", path]) == 3
    err = capsys.readouterr().err
    assert "--shear" in err
    assert main(["verify", path, "--shear"]) == 0
    captured = capsys.readouterr()
    assert "applied shear" in captured.err
    assert "verified" in captured.out


def test_verify_shears_past_a_steep_slope(tmp_path, capsys):
    # every t >= 2^-300 turns a slope order around; the shear is t = 2^-301
    path = _write(tmp_path, "steep.json", [(2**300, 0), (0, 0), (1, 1), (-1, 1)])
    assert main(["verify", path, "--shear", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True and payload["shear_t"] == f"1/{2**301}"


def test_verify_json_stdout_is_pure(tmp_path, capsys):
    path = _write(tmp_path, "collide.json", NON_GENERIC_LINES)
    assert main(["verify", path, "--shear", "--json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # the whole stdout is one document
    assert payload["verified"] is True
    assert payload["relation"]["schema"] == "lantern-relation/4"
    assert payload["shear_t"] is not None
    assert "applied shear" in captured.err


@pytest.mark.parametrize("command", ["verify", "relation", "plot"])
def test_every_shear_option_has_its_help_line(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    help_line = r"^ +--shear +normalize non-generic x-coordinates$"
    assert re.search(help_line, capsys.readouterr().out, re.MULTILINE)


def test_verify_missing_file_exits_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("digit", ["\u0661", "\uff11"], ids=["arabic-indic", "fullwidth"])
def test_non_ascii_digits_exit_2(tmp_path, capsys, digit):
    text, document = tmp_path / "digits.txt", tmp_path / "digits.json"
    text.write_text(f"{digit} 2\n3 4\n", encoding="utf-8")
    lines = [{"slope": digit, "intercept": "2"}, {"slope": "3", "intercept": "4"}]
    document.write_text(json.dumps({"lines": lines}, ensure_ascii=False), encoding="utf-8")
    for path, where in ((text, "line 1"), (document, "lines[0].slope")):
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad rational" in err and where in err and str(path) in err


def test_verify_single_line_file_exits_2(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1 0\n")
    assert main(["verify", str(path)]) == 2
    capsys.readouterr()


def test_make_families(tmp_path, capsys):
    out = tmp_path / "daisy6.json"
    assert main(["make", "daisy", "6", "-o", str(out)]) == 0
    arr = L.load_arrangement(out)
    points = L.intersections(arr)
    assert [set(p.lines) for p in points[:5]] == [{1, k} for k in range(2, 7)]
    assert set(points[5].lines) == {2, 3, 4, 5, 6}
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_make_pencil_stdout(capsys):
    assert main(["make", "pencil", "4"]) == 0
    out = capsys.readouterr().out
    arr = L.parse_arrangement(out)
    assert len(L.intersections(arr)) == 1


def test_make_range_errors(capsys):
    assert main(["make", "doubled-daisy", "4"]) == 2
    assert main(["make", "daisy", "2"]) == 2
    capsys.readouterr()


def test_make_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["make", "wajnryb", "5", "-o", str(a)]) == 0
    assert main(["make", "wajnryb", "5", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_relation_formats(tmp_path, capsys):
    path = _write(tmp_path, "lantern.json", WORKED_LINES)
    assert main(["relation", path]) == 0
    assert capsys.readouterr().out == "d0 d1 d2 d3 = a12 a13 a23\n"
    assert main(["relation", path, "--format", "latex"]) == 0
    assert "\\partial_{0}" in capsys.readouterr().out
    assert main(["relation", path, "--format", "json"]) == 0
    parsed = L.parse_relation(capsys.readouterr().out)
    assert parsed.report is not None and parsed.report.verified


def test_relation_rejects_unknown_format(tmp_path, capsys):
    path = _write(tmp_path, "lantern.json", WORKED_LINES)
    with pytest.raises(SystemExit):
        main(["relation", path, "--format", "yaml"])
    capsys.readouterr()


def test_plot(tmp_path, capsys):
    path = _write(tmp_path, "lantern.json", WORKED_LINES)
    out = tmp_path / "lantern.svg"
    assert main(["plot", path, "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<line ") == 3
    for label in ("p1 {2,3}", "p2 {1,3}", "p3 {1,2}"):
        assert label in svg
    # determinism, byte for byte
    out2 = tmp_path / "again.svg"
    assert main(["plot", path, "-o", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_plot_huge_coordinates_exits_2(tmp_path, capsys):
    # A 4000-digit intercept is exact input within the digit limit, but its
    # intersection points lie beyond the float range the picture needs.
    path = tmp_path / "huge.txt"
    path.write_text("2 0\n1 " + "9" * 4000 + "\n-1 4\n")
    assert main(["plot", str(path), "-o", str(tmp_path / "huge.svg")]) == 2
    assert str(path) in capsys.readouterr().err
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()


def test_plot_non_generic_needs_shear(tmp_path, capsys):
    path = _write(tmp_path, "collide.json", NON_GENERIC_LINES)
    out = tmp_path / "c.svg"
    assert main(["plot", path, "-o", str(out)]) == 3
    assert main(["plot", path, "-o", str(out), "--shear"]) == 0
    capsys.readouterr()


def test_batch(tmp_path, capsys):
    _write(tmp_path, "a.json", WORKED_LINES)
    _write(tmp_path, "b.json", [(3, 0), (1, 1), (-2, 4)])
    assert main(["verify", str(tmp_path), "--batch"]) == 0
    out = capsys.readouterr().out
    assert out.count("verified") >= 2

    (tmp_path / "broken.txt").write_text("1 0\n1 5\n")
    assert main(["verify", str(tmp_path), "--batch"]) == 2
    capsys.readouterr()

    assert main(["verify", str(tmp_path), "--batch", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 2
    assert len(payload["results"]) == 3

    # No file to verify: still one JSON document, through the one error path.
    empty = tmp_path / "empty"
    empty.mkdir()
    for directory in (empty, tmp_path / "a.json"):
        assert main(["verify", str(directory), "--batch", "--json"]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["results"] == [] and payload["exit_code"] == 2 and payload["error"]
        assert captured.err.startswith(f"{directory}: ")
        assert main(["verify", str(directory), "--batch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"{directory}: ")


def test_selftest(capsys):
    assert main(["selftest", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "selftest: ok" in out


def test_library_invariant_is_not_invalid_input(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "lantern.json", WORKED_LINES)

    def broken(arr, name="lantern"):
        raise L.NotPure("simulated invariant break")

    monkeypatch.setattr("lanterns.cli.verified_relation", broken)
    assert main(["verify", path]) == 1
    assert "library bug" in capsys.readouterr().err
    assert main(["verify", path, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["exit_code"] == 1
    assert main(["relation", path]) == 1
    assert "library bug" in capsys.readouterr().err


def test_verify_deeply_nested_file_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"lines": ' + "[" * depth + "]" * depth + "}")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "nested" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["make", "daisy", "5", "-o"],
        ["relation", "{input}", "-o"],
        ["plot", "{input}", "-o"],
    ],
    ids=["make", "relation", "plot"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    source = _write(tmp_path, "lantern.json", WORKED_LINES)
    target = tmp_path / "missing" / "out"
    argv = [source if a == "{input}" else a for a in argv] + [str(target)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(target) in err
    assert not target.parent.exists()
