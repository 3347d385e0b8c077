"""The nccanon benchmark: time to verdict on three workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload all-n40 --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``all-n40``: ``nccanon --task all --max-degree 40 --format structured``.
* ``rees-3var-n80``: the three-variable Rees report up to weight 80.
* ``sections-dense``: seeded library calls, nc gluing ops and cone
  restriction ops, generated before timing starts.

Every sample runs in a fresh single-threaded interpreter started by this
script (``worker.py``).  A CLI workload runs one ``nccanon.cli.main(argv)``
per interpreter, as a user of the CLI would, for as many interpreters as fit
in ``--seconds``; ``sections-dense`` runs batches of ops in one interpreter
for ``--seconds``, as a library user would.  Nine more interpreters only
set up, so that ``setup_s`` is a median of several fresh starts.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` traced and untraced interpreters
alternate and the metrics are the per-layer ones.  Every output is checked:
the CLI reports against a golden hash, the library ops against answers the
benchmark computes itself.  Times are scaled to a fixed reference speed of
the machine, sampled while each call or batch runs (README.md, "Noise").
Lines before the last describe the environment and each metric with its
unit, sample count and value as measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
# Reported times are scaled to a machine that runs the worker's reference
# loop in this many seconds (see README.md, "Noise").
REFERENCE_S = 0.001
# a run must end within 180 s; stop starting samples well before that
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not take a measurement."""


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _spec(workload: str, seed: int, batches: int | None) -> dict:
    if workload == workloads.DENSE:
        return {"kind": "dense", "seed": seed, "batch_ops": workloads.BATCH_OPS,
                "batches": batches}
    return {"kind": "cli", "argv": workloads.CLI_WORKLOADS[workload]["argv"]}


def _spawn(spec: dict, mode: str, trace: int, seconds: float, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--spec", json.dumps(spec), "--mode", mode, "--trace", str(trace),
        "--seconds", str(seconds), "--spawned-ns", str(_now_ns()),
    ]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
        raise BenchError(f"worker exceeded the time limit: {exc}") from exc
    if done.returncode != 0:
        raise BenchError(f"worker failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile (the maximum below 100 samples)."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def _check_cli(workload: str, result: dict) -> str | None:
    want = workloads.CLI_WORKLOADS[workload]
    if result["exit_code"] != 0:
        return f"exit code {result['exit_code']}"
    if result["checks"] != want["checks"]:
        return f"{result['checks']} checks, want {want['checks']}"
    if result["digest"] != want["golden_sha256"]:
        return f"report sha256 {result['digest']} differs from the golden report"
    return None


class Run:
    """One benchmark run: the samples it took and what their checks found."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.setup_s: list[tuple[float, float]] = []  # (as measured, probe sample)
        self.reference_s: list[float] = []
        self.rss_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sample(self, mode: str, trace: int = 0, batches: int | None = None) -> dict:
        spec = _spec(self.workload, self.seed, batches)
        result = _spawn(spec, mode, trace, self.seconds, self.deadline)
        self.setup_s.append((result["setup_s"], result["setup_reference_s"]))
        self.rss_mb.append(result["peak_rss_mb"])
        if mode == "run":
            self.reference_s.extend(result["reference_s"])
            self._verify(result)
        return result

    def _verify(self, result: dict) -> None:
        if self.workload == workloads.DENSE:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            if result["failed"]:
                self.problems.append(
                    f"{result['failed']} ops failed; first: {result['first_failure']}")
        else:
            self.attempted += 1
            problem = _check_cli(self.workload, result)
            if problem:
                self.failed += 1
                self.problems.append(problem)

    def samples_for(self, trace_pair: bool) -> list[tuple[dict, dict | None]]:
        """Run worker samples until --seconds have been measured.

        Without tracing: CLI workloads start one interpreter per verdict;
        sections-dense runs its batches in one interpreter.  With tracing:
        traced and untraced interpreters alternate (one batch each for
        sections-dense), at least one pair.
        """
        for _ in range(SETUP_PROBES):
            self.sample("setup")
        dense = self.workload == workloads.DENSE
        start = time.monotonic()
        out = []
        while True:
            if trace_pair:
                batches = 1 if dense else None
                traced = self.sample("run", trace=1, batches=batches)
                plain = self.sample("run", trace=0, batches=batches)
                out.append((plain, traced))
            else:
                out.append((self.sample("run"), None))
            # an untraced sections-dense interpreter loops over batches itself
            if (dense and not trace_pair) or time.monotonic() - start >= self.seconds:
                return out


def _scaled(result: dict) -> tuple[list[float], list[float]]:
    """A worker's verdicts and op times, scaled to the reference speed."""
    scales = [REFERENCE_S / r for r in result["reference_s"]]
    verdicts = [v * k for v, k in zip(result["verdicts"], scales)]
    if "op_s" not in result:  # a CLI call is one op of its workload
        return verdicts, verdicts
    return verdicts, [o * k for ops, k in zip(result["op_s"], scales) for o in ops]


def _end_to_end(run: Run, pairs: list) -> dict[str, tuple[float, str, int, float]]:
    """Metric -> (value at the reference speed, unit, samples, value as measured)."""
    results = [plain for plain, _ in pairs]
    wall = [v for r in results for v in r["verdicts"]]
    wall_ops = [o for r in results for ops in r.get("op_s", [r["verdicts"]]) for o in ops]
    verdicts = [v for r in results for v in _scaled(r)[0]]
    ops = [o for r in results for o in _scaled(r)[1]]
    return {
        "setup_s": (statistics.median(s * REFERENCE_S / r for s, r in run.setup_s), "s",
                    len(run.setup_s), statistics.median(s for s, _ in run.setup_s)),
        "verdict_s": (statistics.median(verdicts), "s", len(verdicts),
                      statistics.median(wall)),
        "op_p50_ms": (statistics.median(ops) * 1000, "ms", len(ops),
                      statistics.median(wall_ops) * 1000),
        "op_p99_ms": (_p99(ops) * 1000, "ms", len(ops), _p99(wall_ops) * 1000),
        "peak_rss_mb": (max(run.rss_mb), "MB", len(run.rss_mb), max(run.rss_mb)),
    }


def _per_layer(run: Run, pairs: list) -> dict[str, tuple[float, str, int, float]]:
    """Metric -> (value, unit, samples, value as measured); times at the
    reference speed of the traced interpreter that measured them."""
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    if any(r["digest"] != plain[0]["digest"] for r in plain + traced):
        run.problems.append("traced and untraced outputs differ")
    first = traced[0]["layers"]
    out = {}
    for name, value in first.items():
        values = [t["layers"][name] for t in traced]
        if name.endswith("_s"):
            scaled = [v * REFERENCE_S / statistics.mean(t["reference_s"])
                      for v, t in zip(values, traced)]
            out[name] = (statistics.median(scaled), "s", len(values),
                         statistics.median(values))
            continue
        if any(v != value for v in values):
            run.problems.append(f"{name} differs between traced runs: {values}")
        unit = "ratio" if name.endswith("_ratio") else "count"
        out[name] = (value, unit, len(values), value)
    for name in workloads.USES[run.workload]:
        if not first[name]:
            run.problems.append(f"{name} is 0, but {run.workload} uses it")

    def overhead(verdicts_of):
        return (statistics.median(v for t in traced for v in verdicts_of(t))
                - statistics.median(v for p in plain for v in verdicts_of(p)))

    out["trace_overhead_s"] = (overhead(lambda r: _scaled(r)[0]), "s", len(traced),
                               overhead(lambda r: r["verdicts"]))
    return out


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one nccanon benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nccanon" / "__init__.py").is_file():
        print(f"bench: no nccanon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(_environment()))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        pairs = run.samples_for(trace_pair=bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = (_per_layer if args.trace else _end_to_end)(run, pairs)
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"reference loop: mean {statistics.mean(run.reference_s)!r} s over "
          f"{len(run.reference_s)} timed parts; times are scaled to {REFERENCE_S} s")
    for name, (value, unit, n, wall) in metrics.items():
        print(f"{name} = {value!r} {unit} (n={n}; as measured: {wall!r})")
    print(f"failed_share = {run.failed / run.attempted!r} ratio "
          f"({run.failed} of {run.attempted})")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
