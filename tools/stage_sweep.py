"""Stage times of the verify pipeline at growing n, one child process per size.

    python3 tools/stage_sweep.py --label NAME [--max-n N]

Run from the root of a checkout; the package is imported from `src/`.  For
each size a fresh interpreter builds the arrangement, then times, on that
one arrangement object and in this order: geometry, `verified_relation`,
the JSON export and `parse_relation` of that export.  Geometry is one
stage, `geometry_s`: `shear_to_generic` then `geometry.fiber_blocks` on
the arrangement it returns.  The shear sweeps that arrangement and keeps
the sweep on it, so the blocks cost nothing more there and timing them
apart would read 0.  It checks that the parsed relation equals the
verified one and that the report says verified, and reports its peak
RSS and the export's size.  Each size runs in 3 such children,
one after another; a stage's time and the peak RSS are the median of the
3 readings, reported with their spread (largest minus smallest), and the
export must come out the same size every time.  The children run one at
a time, so each has the machine to itself; a child is capped at 2 GB of
address space, and the package's bytecode is compiled before the first
child starts.  The results go to `BENCH_<label>.json` in the current
directory, and a table to stdout.  The exit code is 0 only when every
size ran and verified.

Sizes n = 30, 60, 120 and 160 use the seed-99 generator,
`lanterns.families.random_arrangement(Random(99), n, allow_concurrent=False)`.
That generator stops at n = 169, so n = 200 and 300 use the n >= 170 draw:
`rng = Random(0)`, slopes `rng.sample(range(-20n, 20n + 1), n)`, then an
intercept `rng.randint(-10**6, 10**6)` per line.  Each reading is one
`perf_counter` interval.  Standard library only; not part of the tests.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (30, 60, 120, 160, 200, 300)
SEED99_MAX = 169
MEMORY_CAP = 2 << 30
CHILD_TIMEOUT_S = 110
READINGS = 3
STAGES = ("geometry_s", "verified_relation_s", "export_s", "parse_s")


def _arrangement(n: int):
    import random

    import lanterns as L

    if n <= SEED99_MAX:
        return L.families.random_arrangement(random.Random(99), n, allow_concurrent=False)
    rng = random.Random(0)
    slopes = rng.sample(range(-20 * n, 20 * n + 1), n)
    return L.validate_arrangement([(m, rng.randint(-10**6, 10**6)) for m in slopes])


def child(n: int) -> dict:
    """Run every stage on one size and return its record."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    import lanterns as L
    from lanterns.geometry import fiber_blocks

    record: dict = {"n": n, "generator": "seed 99" if n <= SEED99_MAX else "n >= 170 draw"}
    arr = _arrangement(n)
    stages = []

    def stage(name, function, *args):
        start = time.perf_counter()
        result = function(*args)
        stages.append((name, round(time.perf_counter() - start, 4)))
        return result

    def geometry(arr):
        arr, t = L.shear_to_generic(arr)
        return arr, t, fiber_blocks(arr)

    arr, t, blocks = stage("geometry_s", geometry, arr)
    relation = stage("verified_relation_s", L.verified_relation, arr)
    text = stage("export_s", L.export_relation, relation, "json")
    parsed = stage("parse_s", L.parse_relation, text)
    record.update(stages)
    record["points"] = len(blocks)
    record["shear_t"] = str(t) if t else None
    record["export_bytes"] = len(text.encode())
    record["verified"] = relation.report.verified and parsed == relation
    record["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return record


def run_child(n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(n)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:]
        return {"n": n, "error": last or [f"exit {proc.returncode}"]}
    return json.loads(proc.stdout)


def run_size(n: int) -> dict:
    """The median of `READINGS` children's records, with each time's spread."""
    readings = [run_child(n) for _ in range(READINGS)]
    failed = next((r for r in readings if "error" in r), None)
    if failed is not None:
        return failed
    record = dict(readings[0], readings=READINGS)
    spread = {}
    for key in (*STAGES, "peak_rss_mb"):
        values = [r[key] for r in readings]
        record[key] = statistics.median(values)
        spread[key] = round(max(values) - min(values), 4)
    record["spread"] = spread
    sizes = {r["export_bytes"] for r in readings}
    record["verified"] = len(sizes) == 1 and all(r["verified"] is True for r in readings)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--max-n", type=int, default=max(SIZES), help="skip the sizes above this n")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0
    if not args.label:
        parser.error("--label is required")

    # Warm the bytecode, as perfbench does, so no child compiles the package
    # at import: a compiling child reads about 1-1.5 MB more peak RSS.
    compileall.compile_dir(ROOT / "src" / "lanterns", quiet=1)
    started = time.perf_counter()
    records = []
    for n in (n for n in SIZES if n <= args.max_n):
        try:
            records.append(run_size(n))
        except subprocess.TimeoutExpired:
            records.append({"n": n, "error": [f"timed out after {CHILD_TIMEOUT_S} s"]})
    result = {
        "label": args.label,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "wall_s": round(time.perf_counter() - started, 2),
        "sizes": records,
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"median of {READINGS} readings, +- their spread")
    print("n", "points", *STAGES, "export_bytes", "peak_rss_mb", sep="\t")
    for r in records:
        if "error" in r:
            print(r["n"], "FAILED", *r["error"], sep="\t")
        else:
            times = (f"{r[c]:.3f}+-{r['spread'][c]:.3f}" for c in STAGES)
            print(r["n"], r["points"], *times, r["export_bytes"], r["peak_rss_mb"], sep="\t")
    print(f"wrote {path} in {result['wall_s']} s")
    ok = all(r.get("verified") is True for r in records)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
