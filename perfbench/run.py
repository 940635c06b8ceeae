"""Benchmark of the lanterns package, one workload per run.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 27 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
run sets up its inputs from the seed (several times, reporting the median),
then repeats passes over the workload's fixed op list for about `--seconds`
seconds, checks every output, and prints a readable report followed by one
JSON line: `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0`
the metrics are the end-to-end ones, measured with tracing off.  With
`--trace 1` untraced and traced passes alternate, and the metrics are the
per-layer ones, taken from the traced passes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 7
IMPORT_PROBES = 5
# The workloads finish well within a minute; a run still going after this
# long is stopped without a result (a broken oracle can blow up the
# free-group images without bound).
RUN_LIMIT_S = 170

LAYER_TIMES = (
    "files.parse", "geometry.shear", "geometry.intersections", "geometry.order_profiles",
    "braids.artin_image", "framed.compose_all", "monodromy.braid_monodromy",
    "monodromy.lantern_relation", "monodromy.verify_relation", "monodromy.total_monodromy",
    "relation.export", "relation.parse",
)
LAYER_COUNTS = (
    "files.input_bytes", "geometry.points", "geometry.sheared", "braids.rhs_letters",
    "braids.letter_steps", "framed.factors", "relation.stored_letters",
    "families.realize.attempts", "families.realize.ok",
)
# Printed in the report only: these stages run on some workloads and not on
# others, so as metrics they would read zero there.
REPORT_ONLY_TIMES = (
    "families.make", "families.check", "families.realize_wajnryb", "families.realize_ordering",
    "families.extract_pair_ordering", "monodromy.verified_relation", "cli.process", "cli.main",
)


@dataclass
class Pass:
    traced: bool
    wall_ns: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    tally: object = None


def run_pass(ops, tr, traced: bool, tally) -> Pass:
    result = Pass(traced, tally=tally)
    for op in ops:
        result.attempted += 1
        first_span = len(tr.spans) if traced else 0
        if traced:
            tr.op += 1
        start = perf_counter_ns()
        try:
            with tr.span("op"):
                out = op.run(tr)
        except Exception as err:  # an op that raises is a failed op; the run goes on
            result.failures.append(f"{op.label}: {type(err).__name__}: {err}")
            continue
        finally:
            elapsed = perf_counter_ns() - start
            result.wall_ns += elapsed
        if op.sample:
            result.latencies_ns.append(elapsed)
        try:
            op.check(out, tally)
            if traced and op.probe is not None:
                op.probe(tr, out, tr.names_since(first_span))
        except Exception as err:
            result.failures.append(f"{op.label}: {type(err).__name__}: {err}")
    return result


def median_subprocess_ns(code: str, repeats: int) -> float:
    """Median of a duration a fresh interpreter measures and prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(int(proc.stdout))
    return statistics.median(samples)


def import_code(module: str) -> str:
    return (
        "import time; t = time.perf_counter_ns(); "
        f"import {module}; print(time.perf_counter_ns() - t)"
    )


def setup(workloads, name: str, seed: int):
    """Median import time plus median input generation and file writing."""
    import_ns = median_subprocess_ns(import_code("lanterns"), SETUP_REPEATS)
    workdir = STATE / "work" / name
    build_ns = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = perf_counter_ns()
        workdir.mkdir(parents=True)
        ops = workloads.WORKLOADS[name](seed, workdir)
        build_ns.append(perf_counter_ns() - start)
    return import_ns / 1e9, statistics.median(build_ns) / 1e9, ops


def source_digest() -> str:
    digest = hashlib.sha256()
    for directory in (SRC / "lanterns", Path(__file__).parent):
        for path in sorted(directory.glob("*.py")):
            digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def determinism_failures(passes: list[Pass], name: str, seed: int) -> list[str]:
    """Every pass must export the same bytes and sizes, and so must every run
    of the same program on the same workload and seed."""
    first = passes[0].tally
    record = {"digest": first.digest.hexdigest(), "sizes": dict(sorted(first.sizes.items()))}
    failures = [
        f"pass {k}: output or sizes differ from pass 0"
        for k, p in enumerate(passes)
        if (p.tally.digest.hexdigest(), p.tally.sizes) != (record["digest"], first.sizes)
    ]
    path = STATE / "digests" / f"{name}-{seed}-{source_digest()}.json"
    if path.exists():
        if json.loads(path.read_text()) != record:
            failures.append(f"output or sizes differ from an earlier run ({path.name})")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))
    return failures


def quantile_ms(samples_ns: list[int], q: int) -> float:
    return statistics.quantiles(samples_ns, n=100, method="inclusive")[q - 1] / 1e6


def end_to_end(name: str, setup_s: float, passes: list[Pass]) -> dict:
    latencies = [x for p in passes for x in p.latencies_ns]
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_ns for p in passes) / 1e9, "s"),
        "latency_ms.p50": (quantile_ms(latencies, 50), "ms"),
        "latency_ms.p90": (quantile_ms(latencies, 90), "ms"),
        "export_kb": (passes[0].tally.bytes / 1000, "kB"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(tr, traced: list[Pass], untraced: list[Pass]) -> tuple[dict, dict]:
    """(metrics, report-only figures), per traced pass."""
    count = len(traced)
    seconds = tr.seconds_by_name()
    sizes = traced[0].tally.sizes
    metrics = {f"{name}_s": (seconds[name] / count, "s") for name in LAYER_TIMES}
    metrics.update({name: (sizes[name], "count") for name in LAYER_COUNTS})
    metrics["braids.image_letters_max"] = (tr.peaks.get("braids.image_letters_max", 0), "count")
    metrics["families.busy_s"] = (
        sum(v for k, v in seconds.items() if k.startswith("families.")) / count, "s"
    )
    metrics["cli.import_ms"] = (median_subprocess_ns(import_code("lanterns.cli"), IMPORT_PROBES) / 1e6, "ms")
    metrics["cli.main_ms.p50"] = (statistics.median(tr.durations("cli.main")) * 1000, "ms")
    traced_wall = statistics.median(p.wall_ns for p in traced)
    untraced_wall = statistics.median(p.wall_ns for p in untraced)
    metrics["trace.slowdown"] = (traced_wall / untraced_wall, "ratio")
    report = {f"{name}_s": (seconds[name] / count, "s") for name in REPORT_ONLY_TIMES if seconds[name]}
    attempts = sizes["families.realize.attempts"]
    if attempts:
        report["families.realize.ok_ratio"] = (sizes["families.realize.ok"] / attempts, f"of {attempts}")
    report["trace.overhead_s"] = ((traced_wall - untraced_wall) / 1e9, "s")
    return metrics, report


def _overtime(signum, frame):
    raise SystemExit(f"perfbench: run exceeded {RUN_LIMIT_S} s; stopped without a result")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scale", "corpus", "families", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lanterns" / "__init__.py").is_file():
        print(f"perfbench: no lanterns package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(RUN_LIMIT_S)
    os.chdir(ROOT)
    # Warm the bytecode so no timed import, here or in a CLI process, compiles.
    compileall.compile_dir(SRC / "lanterns", quiet=1)
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import NullTracer, Tracer

    if Path(workloads.L.__file__).resolve().parent != SRC / "lanterns":
        print(f"perfbench: imported lanterns from {workloads.L.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import_s, build_s, ops = setup(workloads, args.workload, args.seed)
    setup_s = import_s + build_s
    tracer, null = Tracer(), NullTracer()
    budget_ns = args.seconds * 1e9
    passes: list[Pass] = []
    durations: dict[bool, list[int]] = {False: [], True: []}
    started = perf_counter_ns()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        gc.collect()
        start = perf_counter_ns()
        passes.append(run_pass(ops, tracer if traced else null, traced, workloads.Tally()))
        durations[traced].append(perf_counter_ns() - start)
        # Stop when another pass would overshoot the budget by more than
        # stopping now falls short of it.
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        next_ns = statistics.median(durations[next_traced] or durations[traced])
        if len(passes) >= 1 + args.trace and perf_counter_ns() - started + next_ns / 2 >= budget_ns:
            break

    traced_passes = [p for p in passes if p.traced]
    untraced_passes = [p for p in passes if not p.traced]
    failures = [f for p in passes for f in p.failures]
    failures += determinism_failures(passes, args.workload, args.seed)
    attempted = sum(p.attempted for p in passes)
    failed = len(failures)

    print(f"perfbench {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(traced_passes)} traced), {len(ops)} ops per pass")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  fail_ratio  {failed}/{attempted}")
    if args.trace:
        metrics, report = per_layer(tracer, traced_passes, untraced_passes)
        tracer.write(STATE / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics, report = end_to_end(args.workload, setup_s, untraced_passes), {}
        samples = sum(len(p.latencies_ns) for p in untraced_passes)
        print(f"  latency samples {samples} ({len(untraced_passes)} passes)")
        print(f"  setup: import {import_s:.4f} s, inputs {build_s:.4f} s (medians of {SETUP_REPEATS})")
        if args.workload == "scale":
            report = scale_report(untraced_passes, args.seed, workloads)
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def scale_report(passes: list[Pass], seed: int, workloads) -> dict:
    """Sizes and median op time of each n, against the ROADMAP Baseline at seed 99.

    Only the point count is a correctness check.  The letter count of the
    right-hand word is a property of how the word is spelled, which a faster
    construction may change, so a difference is reported, not failed.
    """
    report = {}
    sizes = passes[0].tally.sizes
    for index, n in enumerate(workloads.SCALE_SIZES):
        times = [p.latencies_ns[index] for p in passes if len(p.latencies_ns) == len(workloads.SCALE_SIZES)]
        report[f"scale.n{n}.op_s"] = (statistics.median(times) / 1e9, "s")
        report[f"scale.n{n}.points"] = (sizes[f"n{n}.points"], "count")
        report[f"scale.n{n}.rhs_letters"] = (sizes[f"n{n}.rhs_letters"], "count")
        if seed == workloads.BASELINE_SEED and n in workloads.BASELINE_SIZES:
            letters = workloads.BASELINE_SIZES[n][1]
            if sizes[f"n{n}.rhs_letters"] != letters:
                print(f"  note: n={n} rhs word has {sizes[f'n{n}.rhs_letters']} letters, Baseline {letters}")
    return report


if __name__ == "__main__":
    raise SystemExit(main())
