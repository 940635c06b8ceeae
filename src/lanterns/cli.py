"""Command-line interface.

Exit codes, everywhere: 0 success, 1 relation failed to verify or a
library invariant broke (for valid input either means a library bug, not a
property of the input), 2 invalid input (parse errors, parallel lines,
out-of-range n, unknown format, a file that cannot be read or written,
coordinates too large to plot),
3 intersection points sharing an x-coordinate when --shear was not given.
Every command fails through the one handler in `main`; `verify` also uses
it per file, so a batch goes on past a bad file, and for a batch directory
that cannot be listed or holds no arrangement file.

With --json the only bytes on stdout are one JSON document; all
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .braids import (
    BraidWord,
    StrandCountMismatch,
    braids_equal,
    boundary_word_image,
    free_reduce,
)
from .families import (
    make_daisy,
    make_doubled_daisy,
    make_pencil,
    random_arrangement,
    realize_wajnryb,
)
from .files import arrangement_to_json, load_arrangement, save_arrangement
from .framed import (
    FramedElement,
    InconsistentDescriptor,
    NotPure,
    elements_equal,
    outer_boundary_twist,
)
from .geometry import (
    Arrangement,
    InvariantViolation,
    NonGenericX,
    shear_to_generic,
)
from .monodromy import total_monodromy, verified_relation
from .relation import Relation, export_relation, format_text, relation_to_dict
from .svgplot import render_arrangement_svg

EXIT_OK = 0
EXIT_RELATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_NON_GENERIC = 3

# Raised only when the library breaks its own invariants, never by bad input.
LIBRARY_BUGS = (NotPure, InconsistentDescriptor, StrandCountMismatch, InvariantViolation)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _failure_code(path: str, err: Exception) -> int:
    """Report why `path` failed on stderr and return the exit code."""
    if isinstance(err, LIBRARY_BUGS):
        _info(f"{path}: library bug: {type(err).__name__}: {err}")
        return EXIT_RELATION_FAILED
    _info(f"{path}: {err}")
    if isinstance(err, NonGenericX):
        _info("hint: rerun with --shear to normalize the arrangement")
        return EXIT_NON_GENERIC
    return EXIT_INVALID_INPUT


def _load(path: str, shear: bool) -> tuple[Arrangement, Fraction]:
    """Read an arrangement file; apply the genericity shear when asked.

    Without the shear, NonGenericX escapes from the stage that needs it."""
    arr = load_arrangement(path)
    if not shear:
        return arr, Fraction(0)
    sheared, t = shear_to_generic(arr)
    if t != 0:
        _info(f"applied shear (x, y) -> (x - t*y, y) with t = {t}")
    return sheared, t


def _verify_payload(path: str, shear: bool) -> tuple[int, dict, Relation]:
    arr, t = _load(path, shear)
    relation = verified_relation(arr)
    code = EXIT_OK if relation.report.verified else EXIT_RELATION_FAILED
    payload = {
        "file": path,
        "verified": relation.report.verified,
        "exit_code": code,
        "shear_t": str(t) if t != 0 else None,
        "relation": relation_to_dict(relation),
    }
    return code, payload, relation


def _print_verify_human(payload: dict, relation: Relation) -> None:
    print(f"{payload['file']}: {format_text(relation)}")
    report = relation.report
    print(f"  braid part: {'equal' if report.braid_ok else 'DIFFERENT'}")
    print(f"  framings:   {'equal' if report.framing_ok else 'DIFFERENT'}")
    if payload["shear_t"]:
        print(f"  shear t:    {payload['shear_t']}")
    if payload["verified"]:
        print("  verified")
    else:
        print("  NOT VERIFIED - for valid input this indicates a library bug;")
        print("  the witness below separates the two sides in the free group")
        if report.witness:
            print(f"  witness generator: x_{report.witness.generator}")


def cmd_verify(args: argparse.Namespace) -> int:
    worst = EXIT_OK
    results = []  # (payload, the relation or None)
    paths, failed = [args.path], {}
    if args.batch:
        try:
            files = Path(args.path).iterdir()
            paths = sorted(str(p) for p in files if p.suffix in (".json", ".txt"))
            if not paths:
                raise ValueError("no .json or .txt arrangement files")
        except (ValueError, OSError) as err:  # no file to verify: no results, one error
            paths, failed = [], {"error": str(err)}
            worst = _failure_code(args.path, err)
    for path in paths:
        relation = None
        try:
            code, payload, relation = _verify_payload(path, args.shear)
        except (*LIBRARY_BUGS, ValueError, OSError) as err:
            code = _failure_code(path, err)
            payload = {"file": path, "verified": False, "exit_code": code, "error": str(err)}
        worst = max(worst, code)
        results.append((payload, relation))

    if args.json:
        # compact: an indent makes json encode in pure Python
        payloads = [payload for payload, _ in results]
        batch = {"results": payloads, "exit_code": worst, **failed}
        print(json.dumps(batch if args.batch else payloads[0]))
    else:
        for payload, relation in results:
            if relation is not None:
                _print_verify_human(payload, relation)
            else:
                print(f"{payload['file']}: ERROR (exit {payload['exit_code']})")
    return worst


# Each maker raises ValueError below its family's minimum n.
_FAMILIES = {
    "pencil": make_pencil,
    "wajnryb": realize_wajnryb,
    "daisy": make_daisy,
    "doubled-daisy": make_doubled_daisy,
}


def cmd_make(args: argparse.Namespace) -> int:
    arr = _FAMILIES[args.kind](args.n)
    if args.output:
        save_arrangement(arr, args.output)
    else:
        sys.stdout.write(arrangement_to_json(arr))
    return EXIT_OK


def cmd_relation(args: argparse.Namespace) -> int:
    arr, _ = _load(args.path, args.shear)
    relation = verified_relation(arr)
    text = export_relation(relation, args.format)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if relation.report.verified else EXIT_RELATION_FAILED


def cmd_plot(args: argparse.Namespace) -> int:
    arr, _ = _load(args.path, args.shear)
    Path(args.output).write_text(render_arrangement_svg(arr))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = 0

    def suite(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures += 1

    ok = True
    for n in range(2, 7):
        for i in range(1, n - 1):
            u = BraidWord(n, (i, i + 1, i))
            v = BraidWord(n, (i + 1, i, i + 1))
            ok = ok and braids_equal(u, v)
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                ok = ok and braids_equal(BraidWord(n, (i, j)), BraidWord(n, (j, i)))
    suite("braid relations hold under the free-group oracle", ok)

    ok = True
    for _ in range(40):
        n = rng.randint(2, 6)
        word = BraidWord(
            n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(30))
        )
        ok = ok and boundary_word_image(word) == tuple(range(1, n + 1))
    suite("random words fix the boundary word x_1...x_n", ok)

    ok = True
    for _ in range(20):
        n = rng.randint(2, 6)
        arr, _ = shear_to_generic(random_arrangement(rng, n, allow_concurrent=False))
        relation = verified_relation(arr)
        ok = ok and relation.report.verified
        total = total_monodromy(arr, relation)
        full_twist_unframed = FramedElement(outer_boundary_twist(n).braid, (0,) * n)
        ok = ok and elements_equal(total, full_twist_unframed)
    suite("random arrangements verify and have full-twist total monodromy", ok)

    ok = free_reduce((1, -1, 2, 3, -3, -2, 5)) == (5,)
    suite("free reduction collapses cancelling pairs", ok)

    print("selftest:", "ok" if failures == 0 else f"{failures} failures")
    return EXIT_OK if failures == 0 else EXIT_RELATION_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lanterns",
        description=(
            "Compile real line arrangements into generalized lantern relations "
            "on Dehn twists and verify them exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shear = argparse.ArgumentParser(add_help=False)
    shear.add_argument("--shear", action="store_true", help="normalize non-generic x-coordinates")

    p_verify = sub.add_parser(
        "verify", parents=[shear], help="verify the relation an arrangement carries"
    )
    p_verify.add_argument("path", help="arrangement file, or a directory with --batch")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output on stdout")
    p_verify.add_argument("--batch", action="store_true", help="verify every .json/.txt file in a directory")
    p_verify.set_defaults(func=cmd_verify)

    p_make = sub.add_parser("make", help="write a named arrangement family")
    p_make.add_argument("kind", choices=sorted(_FAMILIES))
    p_make.add_argument("n", type=int)
    p_make.add_argument("-o", "--output", default=None)
    p_make.set_defaults(func=cmd_make)

    p_rel = sub.add_parser(
        "relation", parents=[shear], help="emit the relation in text, latex, or json"
    )
    p_rel.add_argument("path")
    p_rel.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_rel.add_argument("-o", "--output", default=None)
    p_rel.set_defaults(func=cmd_relation)

    p_plot = sub.add_parser("plot", parents=[shear], help="draw the arrangement as a static SVG")
    p_plot.add_argument("path")
    p_plot.add_argument("-o", "--output", required=True)
    p_plot.set_defaults(func=cmd_plot)

    p_self = sub.add_parser("selftest", help="run seeded randomized property checks")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (*LIBRARY_BUGS, ValueError, OSError) as err:
        return _failure_code(getattr(args, "path", args.command), err)


if __name__ == "__main__":
    raise SystemExit(main())
