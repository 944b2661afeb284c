"""cgolab benchmark: runs one workload through ``cgolab.cli.main``.

    python3 perfbench/run.py --workload recover --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src``.  The workload's operations run in this process, first in one
untimed warm-up pass, then in timed passes until ``--seconds`` have elapsed.
Every output of the timed passes is checked against the plain-numpy oracles.

--trace 0 reports the end-to-end metrics: ``wall_s`` (median seconds per
pass), ``setup_s`` (median time from starting a fresh interpreter until
``cgolab.cli`` is imported and the configs are validated) and
``peak_rss_mb``.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of ``tracing.py`` (medians over traced passes) with
``cli.io_s`` and ``trace.overhead_frac``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation fails when the CLI exits non-zero
or an output misses its oracle; ``correct`` is false when any output missed
its oracle.  The lines before it repeat the metrics with ``fail_frac``,
``oracle_err`` (largest relative deviation from the oracles), the failure
messages, and the numpy version and processor count.
"""

from __future__ import annotations

import argparse
import os
import sys

# one BLAS/OpenMP thread, so a small machine is not oversubscribed; must precede numpy
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Operation  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_PROBES = 3

# a fresh interpreter: import the CLI and validate the configs as it would
SETUP_PROBE = """
import sys, time
started = float(sys.argv[1])
import cgolab.cli
from cgolab.config import config_from_file
for path in sys.argv[2:]:
    config_from_file(path)
print(repr(time.time() - started))
"""


@dataclass
class Tally:
    """Outcomes of the measured operations, checked once they have all run."""

    outcomes: list = field(default_factory=list)  # (index, op, exit code, message, report)
    failed: int = 0
    misses: int = 0
    oracle_err: float = 0.0
    worst: str = ""  # the check with the largest error
    failures: dict = field(default_factory=dict)  # message -> count

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    def record(self, index: int, op: Operation, code: int, message: str, report: dict | None):
        self.outcomes.append((index, op, code, message, report))

    def check(self):
        """Count failures; each distinct output is checked against its oracle once."""
        verdicts = {}
        for index, op, code, message, report in self.outcomes:
            if code != 0 or report is None:
                self._fail(f"{op.subcommand}[{index}] exit {code}: {message}")
                continue
            key = (index, json.dumps(report["result"], sort_keys=True))
            if key not in verdicts:
                verdicts[key] = self._misses(index, op, report)
            if verdicts[key]:
                self.misses += 1
                self._fail("; ".join(verdicts[key]))

    def _misses(self, index, op, report) -> list[str]:
        missed = []
        for label, err, tol in op.check(report["config"], report["result"]):
            if err >= self.oracle_err:
                self.oracle_err, self.worst = err, f"{op.subcommand}[{index}] {label}"
            if not err <= tol:
                missed.append(f"{op.subcommand}[{index}] {label}: error {err:.3e} > {tol:.0e}")
        return missed

    def _fail(self, message: str):
        self.failed += 1
        self.failures[message] = self.failures.get(message, 0) + 1


class Runner:
    """Runs operations through the CLI with outputs under a scratch directory."""

    def __init__(self, scratch: Path, ops: list[Operation]):
        import cgolab.cli  # here: main() puts src on sys.path first

        self.main = cgolab.cli.main
        self.ops = ops
        self.paths = []
        for i, op in enumerate(ops):
            self.paths.append(scratch / f"op{i}.json")
            self.paths[-1].write_text(json.dumps(op.config))

    def call(self, op: Operation, path: Path):
        """(exit code, stderr, report or None, seconds in main)."""
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main([op.subcommand, "--config", str(path)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - started
        report = None
        if code == 0:
            for line in out.getvalue().splitlines():
                if line.endswith("report.json"):
                    report = json.loads(Path(line).read_text())
        message = err.getvalue().strip().splitlines()
        return code, message[-1] if message else "", report, seconds

    def warm(self) -> list[int]:
        """Exit codes of an untimed pass that fills numpy's and the CLI's lazy state."""
        return [self.call(op, path)[0] for op, path in zip(self.ops, self.paths)]

    def run_pass(self, tally: Tally) -> tuple[float, float]:
        """Seconds in the CLI for one pass, and the part of it outside the
        subcommands' own timing (reading configs, writing outputs)."""
        total = io_s = 0.0
        for index, (op, path) in enumerate(zip(self.ops, self.paths)):
            code, message, report, seconds = self.call(op, path)
            total += seconds
            if report is not None:
                io_s += seconds - report["wall_time_s"]
            tally.record(index, op, code, message, report)
        return total, io_s


def measure_setup(paths: list[Path]) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        started = repr(time.time())
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, started, *map(str, paths)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip()))
    return times


def run(args) -> tuple[dict, Tally, list[str]]:
    ops = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    notes = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        scratch = Path(scratch)
        os.environ["CGOLAB_OUT"] = str(scratch / "out")
        runner = Runner(scratch, ops)
        metrics = {}
        if not args.trace:
            setup = measure_setup(runner.paths)
            metrics["setup_s"] = (statistics.median(setup), "s")
            notes.append(f"setup_s over {len(setup)} interpreters: " + " ".join(f"{t:.3f}" for t in setup))
        started = time.perf_counter()
        codes = runner.warm()
        notes.append(f"warm-up seconds: {time.perf_counter() - started:.3f}, exit codes {codes}")

        plain, traced, io_times, layers = [], [], [], []
        tracer = tracing.Tracer()
        deadline = time.perf_counter() + args.seconds
        while not plain or (args.trace and not traced) or time.perf_counter() < deadline:
            if args.trace and len(traced) < len(plain):
                tracer.reset()
                tracer.install()
                try:
                    seconds, io_s = runner.run_pass(tally)
                finally:
                    tracer.uninstall()
                traced.append(seconds)
                io_times.append(io_s)
                layers.append(tracer.summary())
            else:
                plain.append(runner.run_pass(tally)[0])

    if args.trace:
        for name, unit in tracing.metric_units().items():
            metrics[name] = (statistics.median(layer[name] for layer in layers), unit)
        metrics["cli.io_s"] = (statistics.median(io_times), "s")
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        notes.append("traced pass seconds: " + " ".join(f"{t:.3f}" for t in traced))
    else:
        metrics["wall_s"] = (statistics.median(plain), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    tally.check()
    notes.insert(0, "pass seconds: " + " ".join(f"{t:.3f}" for t in plain))
    return metrics, tally, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "cgolab" / "cli.py").is_file():
        print(f"no cgolab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    metrics, tally, notes = run(args)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"numpy={np.__version__} python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  {'fail_frac':32s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(f"  {'oracle_err':32s} {tally.oracle_err:.3e} (largest relative deviation: {tally.worst})")
    for message, count in tally.failures.items():
        print(f"  failed x{count}: {message}")
    print(json.dumps({
        "correct": tally.misses == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
