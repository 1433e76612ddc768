#!/usr/bin/env python3
"""hypermat benchmark: one workload per process, from a seed.

    python3 perfbench/run.py --workload campaign|eval|gamma \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the workload's passes are timed with tracing off and the last
line of output is a JSON object with the end-to-end metrics. With
``--trace 1`` untraced and traced passes of the same inputs alternate, and
the JSON carries the per-layer metrics and the tracing overhead. Lines
before the last one name every metric with its unit, the correctness
figures, and the Python and numpy versions and CPU count. The process exits
with 1 when an output is wrong and 2 when the package cannot be found.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: the workloads are a
# single closed-loop client and the matrices are at most 16 x 16.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REFERENCE_PROBE_S, SteadyClock, probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Imports of hypermat timed in fresh interpreters for ``setup_s``, and the
#: host probes taken on each side of one.
SETUP_REPEATS = 11
SETUP_PROBES = 10

_clock = time.perf_counter


@dataclass
class Outcome:
    """What a run reports: metrics, printed notes and gate failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)

    def note(self, name: str, value, unit: str, detail: str = "") -> None:
        self.notes.append(f"{name} {value} {unit}" + (f"  ({detail})" if detail else ""))


def tail_percentile(samples: list[float], percent: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[percent - 1]


def setup_seconds() -> tuple[float, float]:
    """Scaled and raw median time to import hypermat in a fresh interpreter.

    Importing builds the catalog. Each import is scaled like every other
    timing, by the median of host probes taken right before and after it.
    """
    code = "import time; t = time.perf_counter(); import hypermat; print(time.perf_counter() - t)"
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    command = [sys.executable, "-c", code]
    subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probes = [probe() for _ in range(SETUP_PROBES)]
        child = subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True,
                               text=True, timeout=60)
        probes += [probe() for _ in range(SETUP_PROBES)]
        raw.append(float(child.stdout))
        scaled.append(raw[-1] * REFERENCE_PROBE_S / statistics.median(probes))
    return statistics.median(scaled), statistics.median(raw)


def another_pass(done: int, least: int, start: float, seconds: float) -> bool:
    """True while fewer than ``least`` passes ran or one more fits in ``seconds``."""
    if done < least:
        return True
    return (_clock() - start) * (done + 1) / done <= seconds


def run_timed(workload, seconds: float, out: Outcome) -> None:
    """Fresh-input passes until ``seconds`` are used and enough ops were timed."""
    clock = SteadyClock()
    passes = []
    start = _clock()
    while another_pass(len(passes), workload.min_passes, start, seconds):
        passes.append(workload.run_pass(len(passes), out, clock))
    workload.finish(out)
    walls = [sum(map(clock.scaled, parts)) for parts, _ in passes]
    raw_walls = [sum(part[0] for part in parts) for parts, _ in passes]
    samples = [clock.scaled(op) for _, ops in passes for op in ops]
    out.pass_seconds = walls
    out.op_seconds = samples
    percent = workload.tail_percent
    out.metrics["pass_s"] = (statistics.median(walls), "s")
    out.metrics["op_p50_ms"] = (1e3 * statistics.median(samples), "ms")
    out.metrics["op_tail_ms"] = (1e3 * tail_percentile(samples, percent), "ms")
    names = workload.metric_names
    out.note(names[0], round(out.metrics["pass_s"][0], 4), "s",
             f"pass_s, median of {len(walls)} passes; raw wall {statistics.median(raw_walls):.4f} s")
    out.note(names[1], round(out.metrics["op_p50_ms"][0], 3), "ms",
             f"op_p50_ms, median of {len(samples)} samples")
    out.note(names[2], round(out.metrics["op_tail_ms"][0], 3), "ms",
             f"op_tail_ms, p{percent} of {len(samples)} samples")
    out.note("host_speed", round(clock.speed(), 4), "x",
             f"reference probe time over the median of {len(clock.probes)} probes")


def run_traced(workload, seconds: float, out: Outcome) -> list:
    """Alternate untraced and traced passes over the first pass's inputs."""
    from tracer import Tracer

    clock = SteadyClock()
    untraced: list[list] = []
    traced: list[list] = []
    tracers: list[Tracer] = []
    start = _clock()
    while another_pass(len(traced), 1, start, seconds):
        untraced.append(workload.trace_pass(out, clock))
        tracer = Tracer()
        with tracer:
            traced.append(workload.trace_pass(out, clock, tracer))
        tracers.append(tracer)
    workload.finish(out)
    untraced_s = statistics.median(sum(map(clock.scaled, parts)) for parts in untraced)
    traced_s = statistics.median(sum(map(clock.scaled, parts)) for parts in traced)
    counts = tracers[0].counts()
    if any(t.counts() != counts for t in tracers[1:]):
        out.problems.append("traced passes over the same inputs gave different counts")
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics["series.degrees.max"] = (counts["series.degrees.max"], "degree")
    metrics["documents.bytes"] = (counts["documents.bytes"], "B")
    for name, value in tracers[0].ratios().items():
        metrics[name] = (value, "degree" if name == "series.degrees.mean" else "ratio")
    self_times = [t.self_times() for t in tracers]
    for name in self_times[0]:
        metrics[name] = (statistics.median(times[name] for times in self_times), "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out.metrics.update(metrics)
    out.note("trace.pairs", len(traced), "count", "untraced/traced pass pairs over the same inputs")
    out.note("trace.untraced_pass_s", round(untraced_s, 4), "s")
    out.note("trace.traced_pass_s", round(traced_s, 4), "s")
    return tracers


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def write_record(args, env: dict, out: Outcome, tracers: list) -> None:
    """Keep the run's figures, and in a traced run its spans, under .perfbench/."""
    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": env, "metrics": out.metrics, "notes": out.notes,
              "problems": out.problems, "pass_seconds": out.pass_seconds,
              "op_seconds": out.op_seconds}
    if tracers:
        record["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracers[0].spans]
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "eval", "gamma"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypermat" / "__init__.py").is_file():
        print(f"hypermat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    out = Outcome()
    tracers = []
    if args.trace:
        tracers = run_traced(workload, args.seconds, out)
    else:
        run_timed(workload, args.seconds, out)
        setup, setup_raw = setup_seconds()
        out.metrics["setup_s"] = (setup, "s")
        out.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        out.note("setup_s", round(out.metrics["setup_s"][0], 4), "s",
                 f"median of {SETUP_REPEATS} fresh-interpreter imports; raw {setup_raw:.4f} s")
        out.note("peak_rss_mb", round(out.metrics["peak_rss_mb"][0], 1), "MB")
    for line in out.notes:
        print(line)
    for problem in out.problems:
        print(f"FAILED CHECK: {problem}")
    write_record(args, env, out, tracers)
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not out.problems else 1


if __name__ == "__main__":
    sys.exit(main())
