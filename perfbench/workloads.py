"""Seeded inputs and the fixed operation list of each benchmark workload.

A workload builder takes the seed and a scratch directory, generates its
inputs, writes them as files, and returns the operations of one pass.  An
operation has three parts:

* `run` is timed: it makes the calls into lanterns that a user of the
  library (or, for `cli`, of the command line) would make.
* `check` is not timed: it decides whether the outputs are correct, feeds
  every exported byte to the pass digest and adds the pass's size counters.
* `probe` runs only in traced passes, after `check`: it calls the inner
  public stages that `run` did not call itself, on the same input, so every
  layer gets a span.  Probe time is excluded from the op timings.

Every check here is exact.  The line multiplicities mu_L and the point count
are recomputed independently of lanterns from the pairwise intersections.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import lanterns as L
from lanterns import cli as lanterns_cli
from lanterns.braids import half_twist_block

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Sizes the ROADMAP Baseline table records for `scale` at seed 99:
# n -> (intersection points, letters of the right-hand braid word).
BASELINE_SEED = 99
BASELINE_SIZES = {10: (45, 2070), 14: (91, 8372), 18: (151, 23376)}

SCALE_SIZES = (10, 12, 14, 16, 18)
CORPUS_SIZES = (2, 3, 4, 5, 6)
CORPUS_PER_SIZE = 80


class Mismatch(Exception):
    """An output failed its correctness check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Tally:
    """What one pass exported, and its size counters; compared across passes."""

    sizes: Counter = field(default_factory=Counter)
    digest: Any = field(default_factory=hashlib.sha256)
    bytes: int = 0

    def output(self, data: str) -> None:
        raw = data.encode()
        self.bytes += len(raw)
        self.digest.update(raw)

    def add(self, name: str, value: int = 1) -> None:
        self.sizes[name] += value


@dataclass
class Outcome:
    """What an op's timed part produced, for its check and probes."""

    arr: Any = None
    rel: Any = None
    js: str | None = None
    back: Any = None
    shear_t: Fraction = Fraction(0)
    extra: Any = None


@dataclass
class Op:
    label: str
    run: Callable[[Any], Outcome]
    check: Callable[[Outcome, Tally], None]
    probe: Callable[[Any, Outcome, set], None] | None = None
    sample: bool = True


# ---------------------------------------------------------------------------
# input generation


def random_entries(rng: random.Random, n: int) -> list:
    """The random arrangement of tests/conftest.py, as [slope, intercept] pairs.

    A copy, so that the benchmark's inputs do not move when the tests'
    generator does.  With `allow_concurrent=False` the conftest generator
    makes exactly these rng calls.
    """
    slopes: set[Fraction] = set()
    while len(slopes) < n:
        slopes.add(Fraction(rng.randint(-24, 24), rng.randint(1, 5)))
    return [
        [slope, Fraction(rng.randint(-12, 12), rng.randint(1, 4))]
        for slope in sorted(slopes, reverse=True)
    ]


def force_triple_point(rng: random.Random, entries: list) -> list:
    """The conftest rule: route a third line through the meet of two others."""
    i, j, k = rng.sample(range(len(entries)), 3)
    (mi, ci), (mj, cj) = entries[i], entries[j]
    x = (cj - ci) / (mi - mj)
    entries[k][1] = mi * x + ci - entries[k][0] * x
    return entries


def _points(entries) -> dict[tuple[Fraction, Fraction], set[int]]:
    groups: dict[tuple[Fraction, Fraction], set[int]] = {}
    for (a, (ma, ca)), (b, (mb, cb)) in combinations(enumerate(entries), 2):
        x = (cb - ca) / (ma - mb)
        groups.setdefault((x, ma * x + ca), set()).update((a, b))
    return groups


def non_generic_entries(rng: random.Random, n: int) -> list:
    """A random arrangement (n >= 4) with two distinct points on one vertical."""
    while True:
        entries = random_entries(rng, n)
        i, j, k, l = sorted(rng.sample(range(n), 4))
        (mi, ci), (mj, cj) = entries[i], entries[j]
        x = (cj - ci) / (mi - mj)
        entries[l][1] = entries[k][1] + x * (entries[k][0] - entries[l][0])
        xs = [x for x, _ in _points(entries)]
        if len(xs) != len(set(xs)):
            return entries


def combinatorics(arr) -> tuple[int, tuple[int, ...]]:
    """(number of intersection points, mu_L per line), computed independently."""
    groups = _points([(line.slope, line.intercept) for line in arr.lines])
    mu = [0] * arr.n
    for members in groups.values():
        for index in members:
            mu[index] += 1
    return len(groups), tuple(mu)


def text_file(entries) -> str:
    return "".join(f"{slope} {intercept}\n" for slope, intercept in entries)


def json_file(entries) -> str:
    return L.arrangement_to_json(L.validate_arrangement([tuple(e) for e in entries]))


# ---------------------------------------------------------------------------
# shared op parts


def round_trip(tr, rel) -> tuple[str, Any]:
    with tr.span("relation.export"):
        js = L.export_relation(rel, "json")
    with tr.span("relation.parse"):
        back = L.parse_relation(js)
    return js, back


def check_relation(out: Outcome, tally: Tally) -> None:
    """verified, framing = mu_L on both sides, JSON round trip equal."""
    expect(out.back == out.rel, f"{out.rel.name}: JSON round trip differs")
    tally.output(out.js)
    check_verified(out.rel, out.arr, out.js, out.shear_t != 0, tally)


def check_verified(rel, arr, js: str, sheared: bool, tally: Tally) -> None:
    """verified and framing = mu_L on both sides; adds the relation's sizes to the pass."""
    expect(rel.report is not None and rel.report.verified, f"{rel.name}: not verified")
    points, mu = combinatorics(arr)
    expect(rel.lhs_element.framing == mu, f"{rel.name}: lhs framing != mu_L {mu}")
    expect(rel.rhs_element.framing == mu, f"{rel.name}: rhs framing != mu_L {mu}")
    data = json.loads(js)
    stored = [data.get("lhs_element"), data.get("rhs_element")]
    if data.get("report"):
        stored += [data["report"].get("lhs"), data["report"].get("rhs")]
    tally.add("geometry.points", points)
    tally.add("geometry.sheared", int(sheared))
    tally.add("braids.rhs_letters", len(rel.rhs_element.braid))
    tally.add(
        "braids.letter_steps",
        (len(rel.lhs_element.braid) + len(rel.rhs_element.braid)) * rel.n,
    )
    tally.add("framed.factors", len(rel.rhs))
    tally.add("relation.stored_letters", sum(len(e["braid"]) for e in stored if e))


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def probe_stages(tr, arr, rel, done: set, argv: list[str] | None = None) -> None:
    """Time, on `arr`, every inner stage the op did not call itself."""

    def stage(name, fn, *args):
        if name in done:
            return None
        with tr.span(name, probe=True):
            return fn(*args)

    stage("files.parse", L.parse_arrangement, L.arrangement_to_json(arr))
    stage("geometry.shear", L.shear_to_generic, arr)
    stage("geometry.intersections", L.intersections, arr)
    stage("geometry.order_profiles", L.order_profiles, arr)
    if rel is not None:
        data = stage("monodromy.braid_monodromy", L.braid_monodromy, arr)
        stage("framed.compose_all", L.compose_all, [t.element for t in reversed(data.twists)], arr.n)
        images = stage("braids.artin_image", L.artin_image, rel.rhs_element.braid)
        tr.peak("braids.image_letters_max", max(len(image) for image in images))
        stage("monodromy.lantern_relation", L.lantern_relation, arr)
        stage("monodromy.verify_relation", L.verify_relation, rel)
        stage("monodromy.total_monodromy", L.total_monodromy, arr)
        js = stage("relation.export", L.export_relation, rel, "json")
        if js is not None:
            stage("relation.parse", L.parse_relation, js)
    if not any(name.startswith("families.") for name in done):
        try:
            with tr.span("families.extract_pair_ordering", probe=True):
                L.validate_ordering(L.extract_pair_ordering(arr))
        except ValueError:
            pass  # not a simple arrangement: it has no pair ordering
    if argv is not None:
        with tr.span("cli.main", probe=True), _quiet():
            lanterns_cli.main(argv)


def convention_flips() -> list[Op]:
    """Acceptance criterion 8: each flipped convention must break the lantern.

    The worked three-line arrangement with detour sign flipped, composition
    order reversed, or interior framings zeroed.  A flip that verifies is a
    failed op.
    """
    arr = L.validate_arrangement([(2, 0), (1, 1), (-1, 4)])
    rel = L.lantern_relation(arr)

    def sign(tr):
        data = L.braid_monodromy(arr)
        beta = L.BraidWord(3)
        flipped = []
        for twist in data.twists:
            descriptor = L.TwistDescriptor(beta, twist.descriptor.block, twist.descriptor.enclosed)
            flipped.append(L.conjugated_twist(descriptor))
            a, b = twist.descriptor.block
            beta = beta * half_twist_block(3, a, b).inverse()
        return Outcome(extra=L.elements_equal(rel.lhs_element, L.compose_all(flipped[::-1], n=3)))

    def order(tr):
        rhs = L.compose_all([L.conjugated_twist(d) for d in reversed(rel.rhs)], n=3)
        return Outcome(extra=L.elements_equal(rel.lhs_element, rhs))

    def framing(tr):
        rhs = L.compose_all(
            [L.FramedElement(L.conjugated_twist(d).braid, (0, 0, 0)) for d in rel.rhs], n=3
        )
        return Outcome(extra=L.elements_equal(rel.lhs_element, rhs))

    def must_fail(out: Outcome, tally: Tally) -> None:
        expect(out.extra is False, "a flipped convention verified")

    return [
        Op(f"flip {name}", run, must_fail, sample=False)
        for name, run in (("sign", sign), ("order", order), ("framing", framing))
    ]


# ---------------------------------------------------------------------------
# workloads


def build_scale(seed: int, workdir: Path) -> list[Op]:
    """Seeded random generic arrangements, n = 10..18: the Artin check dominates."""
    ops = []
    for n in SCALE_SIZES:
        text = text_file(random_entries(random.Random(seed), n))
        path = workdir / f"scale{n}.txt"
        path.write_text(text)
        ops.append(_scale_op(n, text, str(path.relative_to(ROOT)), seed))
    return ops + convention_flips()


def _scale_op(n: int, text: str, path: str, seed: int) -> Op:
    def run(tr):
        with tr.span("files.parse"):
            arr = L.parse_arrangement(text)
        with tr.span("geometry.shear"):
            arr, t = L.shear_to_generic(arr)
        with tr.span("monodromy.verified_relation"):
            rel = L.verified_relation(arr)
        with tr.span("monodromy.total_monodromy"):
            total = L.total_monodromy(arr)
        js, back = round_trip(tr, rel)
        return Outcome(arr, rel, js, back, t, extra=total)

    def check(out: Outcome, tally: Tally) -> None:
        check_relation(out, tally)
        tally.add("files.input_bytes", len(text))
        total = out.extra
        # The verified relation already proves rhs = full twist; a total
        # monodromy spelled with the same letters needs no second oracle call.
        same_word = total.braid.letters == out.rel.rhs_element.braid.letters
        expect(
            total.framing == (0,) * n
            and (same_word or L.braids_equal(total.braid, L.full_twist_block(n, 1, n))),
            f"scale n={n}: total monodromy is not the unframed full twist",
        )
        points, _ = combinatorics(out.arr)
        tally.add(f"n{n}.points", points)
        tally.add(f"n{n}.rhs_letters", len(out.rel.rhs_element.braid))
        if seed == BASELINE_SEED and n in BASELINE_SIZES:
            expect(
                points == BASELINE_SIZES[n][0],
                f"scale n={n} seed {seed}: {points} points, baseline has {BASELINE_SIZES[n][0]}",
            )

    def probe(tr, out: Outcome, done: set) -> None:
        probe_stages(tr, out.arr, out.rel, done, ["verify", "--json", "--shear", path])

    return Op(f"scale n={n}", run, check, probe)


def build_corpus(seed: int, workdir: Path) -> list[Op]:
    """400 small seeded arrangements, 80 for each n = 2..6, as JSON or text files.

    The mix is fixed, not drawn, so that sizes barely move with the seed:
    for n >= 4 one in ten has two points on one vertical (it needs a shear),
    for n >= 3 two in five more get a forced triple point, the rest are
    generic; every other file is JSON.
    """
    rng = random.Random(seed)
    ops = []
    for n in CORPUS_SIZES:
        for index in range(CORPUS_PER_SIZE):
            if n >= 4 and index % 10 == 0:
                entries = non_generic_entries(rng, n)
            elif n >= 3 and index % 5 in (1, 2):
                entries = force_triple_point(rng, random_entries(rng, n))
            else:
                entries = random_entries(rng, n)
            name = f"n{n}_{index:02d}"
            if index % 2 == 0:
                path, text = workdir / f"{name}.json", json_file(entries)
            else:
                path, text = workdir / f"{name}.txt", text_file(entries)
            path.write_text(text)
            ops.append(_corpus_op(name, text, str(path.relative_to(ROOT))))
    return ops + convention_flips()


def _corpus_op(name: str, text: str, path: str) -> Op:
    def run(tr):
        with tr.span("files.parse"):
            arr = L.parse_arrangement(text)
        with tr.span("geometry.shear"):
            arr, t = L.shear_to_generic(arr)
        with tr.span("monodromy.lantern_relation"):
            rel = L.lantern_relation(arr)
        with tr.span("monodromy.verify_relation"):
            rel = replace(rel, report=L.verify_relation(rel))
        js, back = round_trip(tr, rel)
        return Outcome(arr, rel, js, back, t)

    def check(out: Outcome, tally: Tally) -> None:
        check_relation(out, tally)
        tally.add("files.input_bytes", len(text))

    def probe(tr, out: Outcome, done: set) -> None:
        probe_stages(tr, out.arr, out.rel, done, ["verify", "--json", "--shear", path])

    return Op(f"corpus {name}", run, check, probe)


# Families: these sizes make one pass about 3 s on a 2-vCPU virtual machine.
PENCIL_SIZES = range(2, 13)
DAISY_SIZES = range(3, 15)
DOUBLED_DAISY_SIZES = (5, 6, 8, 10, 12, 14, 16)
WAJNRYB_SIZES = range(6, 19)
WAJNRYB_VERIFY_MAX = 8
ORDERING_SIZES = (3, 4, 5, 6)
# At n = 6 only about one random arrangement in 570 has an admissible
# ordering, so set-up time would swing with the seed; seeded orderings stop
# at n = 5.
SEEDED_ORDERING_SIZES = (3, 4, 5)
SEEDED_ORDERINGS_PER_N = 3


def _lex(n: int) -> tuple:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def seeded_ordering(rng: random.Random, n: int) -> tuple:
    """The pair ordering of a random simple arrangement, redrawn until admissible.

    Read off the exact crossing x-coordinates; `random_entries` lists the
    lines by decreasing slope, so list position k is line k + 1.
    """
    while True:
        entries = random_entries(rng, n)
        x = {
            (a + 1, b + 1): (cb - ca) / (ma - mb)
            for (a, (ma, ca)), (b, (mb, cb)) in combinations(enumerate(entries), 2)
        }
        if len(set(x.values())) < len(x):
            continue  # a triple point, or two points on one vertical line
        if all(x[(i, j)] > x[(i, j + 1)] for i, j in x if j < n):
            return tuple(sorted(x, key=x.get, reverse=True))


def build_families(seed: int, workdir: Path) -> list[Op]:
    """Named families, offset halving, and the Fourier-Motzkin ordering search."""
    rng = random.Random(seed)
    ops = []
    written = []
    for n in PENCIL_SIZES:
        ops.append(_family_op("pencil", n, L.make_pencil(n)))
    for n in DAISY_SIZES:
        ops.append(_family_op("daisy", n, L.make_daisy(n)))
    for n in DOUBLED_DAISY_SIZES:
        ops.append(_family_op("doubled-daisy", n, L.make_doubled_daisy(n)))
    for n in WAJNRYB_SIZES:
        ops.append(_wajnryb_op(n))
    for n in ORDERING_SIZES:
        lex = _lex(n)
        orderings = [("lex", lex, True), ("column", tuple(sorted(lex, key=lambda p: (p[1], p[0]))), None)]
        if n in SEEDED_ORDERING_SIZES:
            orderings += [("seeded", seeded_ordering(rng, n), None) for _ in range(SEEDED_ORDERINGS_PER_N)]
        # (1,3) must lie between (1,2) and (2,3) in x, so this is never realizable.
        bad = ((1, 2), (2, 3), (1, 3)) + tuple(p for p in lex if p[1] > 3)
        orderings.append(("unrealizable", bad, False))
        ops += [_ordering_op(kind, n, pairs, realizable) for kind, pairs, realizable in orderings]
        written += [[kind, n, pairs] for kind, pairs, _ in orderings]
    (workdir / "orderings.json").write_text(json.dumps(written))
    return ops + convention_flips()


def _family_op(kind: str, n: int, arr) -> Op:
    def run(tr):
        if kind == "pencil":
            with tr.span("families.make"):
                made = L.make_pencil(n)
            with tr.span("monodromy.verified_relation"):
                rel = L.verified_relation(made)
            ok = len(rel.rhs) == 1 and rel.rhs[0].enclosed == frozenset(range(1, n + 1))
        else:
            check_fn = L.check_daisy if kind == "daisy" else L.check_doubled_daisy
            with tr.span("families.check"):
                result = check_fn(n)
            rel = result.relation
            ok = result.ok and getattr(result, "display_ok", True)
        js, back = round_trip(tr, rel)
        return Outcome(arr, rel, js, back, extra=ok)

    def check(out: Outcome, tally: Tally) -> None:
        expect(out.extra, f"{kind} {n}: structure check failed")
        check_relation(out, tally)

    def probe(tr, out: Outcome, done: set) -> None:
        probe_stages(tr, out.arr, out.rel, done, ["make", kind, str(n)])

    return Op(f"{kind} {n}", run, check, probe)


def _wajnryb_op(n: int) -> Op:
    def run(tr):
        with tr.span("families.realize_wajnryb"):
            arr = L.realize_wajnryb(n)
        if n > WAJNRYB_VERIFY_MAX:
            return Outcome(arr)
        with tr.span("monodromy.verified_relation"):
            rel = L.verified_relation(arr)
        js, back = round_trip(tr, rel)
        return Outcome(arr, rel, js, back)

    def check(out: Outcome, tally: Tally) -> None:
        expect(L.extract_pair_ordering(out.arr).pairs == _lex(n), f"wajnryb {n}: not lexicographic")
        if out.rel is None:
            tally.output(L.arrangement_to_json(out.arr))
        else:
            check_relation(out, tally)

    def probe(tr, out: Outcome, done: set) -> None:
        probe_stages(tr, out.arr, out.rel, done, ["make", "wajnryb", str(n)])

    return Op(f"wajnryb {n}", run, check, probe)


def _ordering_op(kind: str, n: int, pairs: tuple, realizable: bool | None) -> Op:
    ordering = L.PairOrdering(n, pairs)

    def run(tr):
        with tr.span("families.realize_ordering"):
            result = L.realize_ordering(ordering)
        return Outcome(result if isinstance(result, L.Arrangement) else None, extra=result)

    def check(out: Outcome, tally: Tally) -> None:
        tally.add("families.realize.attempts")
        if out.arr is None:
            expect(realizable is not True, f"{kind} ordering n={n}: unexpectedly unrealized")
            expect(out.extra.ordering == ordering, f"{kind} ordering n={n}: wrong ordering in report")
            tally.output(f"unrealized {n} {pairs} prefix {out.extra.first_mismatch}\n")
            return
        expect(realizable is not False, f"{kind} ordering n={n}: realized an impossible ordering")
        expect(L.extract_pair_ordering(out.arr).pairs == pairs, f"{kind} ordering n={n}: wrong order")
        tally.add("families.realize.ok")
        tally.output(L.arrangement_to_json(out.arr))

    def probe(tr, out: Outcome, done: set) -> None:
        if out.arr is not None:
            probe_stages(tr, out.arr, None, done)

    return Op(f"{kind} ordering n={n}", run, check, probe)


# The command line: every op is one `python -m lanterns.cli` process.
CLI_SMALL_SIZES = (3, 4, 5, 6)
CLI_BATCH_SIZES = (3, 4, 5, 6, 4)


def build_cli(seed: int, workdir: Path) -> list[Op]:
    """Sequential CLI processes: start-up, argparse and JSON output dominate."""
    rng = random.Random(seed)
    inputs: dict[str, str] = {}  # relative path, as passed on the command line -> content

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text)
        key = str(path.relative_to(ROOT))
        inputs[key] = text
        return key

    small = []
    for n in CLI_SMALL_SIZES:
        entries = random_entries(rng, n)
        if n % 2 == 0:
            small.append(write(f"small{n}.json", json_file(entries)))
        else:
            small.append(write(f"small{n}.txt", text_file(entries)))
    daisy = write("daisy8.json", L.arrangement_to_json(L.make_daisy(8)))
    collide = write("collide.txt", text_file(non_generic_entries(rng, 5)))
    malformed = write("malformed.txt", "1/2 3\n1 0.5\n")
    (workdir / "batch").mkdir()
    for index, n in enumerate(CLI_BATCH_SIZES):
        write(f"batch/b{index}.txt", text_file(random_entries(rng, n)))
    batch = str((workdir / "batch").relative_to(ROOT))
    latex = L.export_relation(L.verified_relation(L.make_daisy(8)), "latex")

    ops = [_cli_op(["verify", "--json", "--shear", path], 0, inputs) for path in small]
    ops += [
        _cli_op(["verify", "--json", daisy], 0, inputs),
        _cli_op(["verify", "--json", "--shear", collide], 0, inputs),
        _cli_op(["verify", "--json", collide], 3, inputs),
        _cli_op(["verify", "--json", malformed], 2, inputs),
        _cli_op(["relation", daisy, "--format", "latex"], 0, inputs, expected=latex),
        _cli_op(["relation", small[0], "--format", "json", "--shear"], 0, inputs),
        _cli_op(["make", "daisy", "6"], 0, inputs),
        _cli_op(["make", "wajnryb", "6"], 0, inputs),
        _cli_op(["verify", "--batch", "--json", "--shear", batch], 0, inputs),
    ]
    return ops + convention_flips()


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _check_payload(payload: dict, text: str, tally: Tally) -> None:
    """A `verify --json` payload: verified, framing = mu_L, relation parses back."""
    expect(payload["verified"] is True and payload["exit_code"] == 0, f"{payload['file']}: not verified")
    js = json.dumps(payload["relation"])
    check_verified(L.parse_relation(js), L.parse_arrangement(text), js, payload["shear_t"] is not None, tally)


def _made(kind: str, n: int):
    return L.make_daisy(n) if kind == "daisy" else L.realize_wajnryb(n)


def _cli_op(argv: list[str], code: int, inputs: dict[str, str], expected: str | None = None) -> Op:
    command = " ".join(argv)
    if argv[0] == "make":
        path = None
    elif "--batch" in argv:
        path = next(key for key in inputs if key.startswith(argv[-1] + "/"))
    else:
        path = next(a for a in argv if a in inputs)

    def run(tr):
        with tr.span("cli.process"):
            proc = subprocess.run(
                [sys.executable, "-m", "lanterns.cli", *argv],
                cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=120,
            )
        return Outcome(extra=proc)

    def check(out: Outcome, tally: Tally) -> None:
        proc = out.extra
        expect(proc.returncode == code, f"{command}: exit {proc.returncode}, expected {code}")
        tally.output(proc.stdout)
        if path is not None:
            tally.add("files.input_bytes", len(inputs[path]))
        if expected is not None:
            expect(proc.stdout == expected, f"{command}: output differs from the library's")
            return
        doc = json.loads(proc.stdout)  # raises unless stdout is exactly one JSON document
        if argv[0] == "make":
            made = _made(argv[1], int(argv[2]))
            expect(L.parse_arrangement(proc.stdout) == made, f"{command}: wrong arrangement")
        elif argv[0] == "relation":
            check_verified(L.parse_relation(proc.stdout), L.parse_arrangement(inputs[path]),
                           proc.stdout, "--shear" in argv, tally)
        elif "--batch" in argv:
            expect(doc["exit_code"] == 0 and len(doc["results"]) == len(CLI_BATCH_SIZES), f"{command}: wrong results")
            for payload in doc["results"]:
                _check_payload(payload, inputs[payload["file"]], tally)
        elif code == 0:
            _check_payload(doc, inputs[doc["file"]], tally)
        else:
            expect(doc["exit_code"] == code and doc["verified"] is False, f"{command}: wrong payload")

    def probe(tr, out: Outcome, done: set) -> None:
        if path is None:
            with tr.span("families.make", probe=True):
                arr = _made(argv[1], int(argv[2]))
        else:
            try:
                with tr.span("files.parse", probe=True):
                    arr = L.parse_arrangement(inputs[path])
            except L.ArrangementFileError:
                arr = None  # the malformed file: parsing is all the command does
            else:
                with tr.span("geometry.shear", probe=True):
                    arr, _ = L.shear_to_generic(arr)
        if arr is not None:
            rel = L.verified_relation(arr)
            probe_stages(tr, arr, rel, done | {"files.parse", "geometry.shear"})
        with tr.span("cli.main", probe=True), _quiet():
            lanterns_cli.main(argv)

    return Op(f"cli {command}", run, check, probe)


WORKLOADS = {
    "scale": build_scale,
    "corpus": build_corpus,
    "families": build_families,
    "cli": build_cli,
}
