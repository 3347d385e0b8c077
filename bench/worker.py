"""One measured process: set up nccanon, run one workload spec, report JSON.

``run.py`` starts this script in a fresh interpreter for every sample, so each
sample pays what a user of the CLI pays: interpreter start, ``import
nccanon`` and the hand-over of its inputs.  The parent passes the monotonic
clock reading taken just before it spawned the process (``--spawned-ns``);
the worker reads the same system-wide clock once its inputs are ready, and
the difference is one ``setup_s`` sample.

Specs (``--spec``, JSON):

* ``{"kind": "cli", "argv": [...]}``: one ``nccanon.cli.main(argv)`` call with
  stdout captured; reports the wall time, exit code and sha256 of the report.
* ``{"kind": "dense", "seed": S, "batch_ops": N, "batches": B}``: the
  sections-dense library ops, ``B`` batches (or as many as fit in
  ``--seconds`` when ``B`` is null), each op timed, each checked after its
  batch against answers computed from the plain inputs; reports the wall
  time of every batch and op, and a sha256 of the outcomes.

``--mode setup`` stops once the inputs are ready; ``--trace 1`` wraps the
layers for the timed part only (see ``tracing.py``).  During every timed
part a ``SpeedProbe`` samples a fixed reference loop; ``reference_s`` holds
the mean sample of each CLI call or batch, and ``op_s`` one list per batch.
The result is the one line this script prints.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import resource
import signal
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
_SUMMARY = re.compile(r"(\d+) failures / (\d+) checks")


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _reference_work() -> None:
    # Fraction sums into a dict keyed by exponent tuples: the operations
    # nccanon spends its time on, in code that no change to nccanon touches
    terms: dict[tuple[int, ...], Fraction] = {}
    half = Fraction(1, 2)
    for i in range(250):
        key = tuple(e + i % 3 for e in (1, 2, i % 5))
        terms[key] = terms.get(key, Fraction(0)) + half * (i % 7)


class SpeedProbe:
    """Samples how fast the machine runs while a measurement is taken.

    The machine the benchmark was written on changes speed by up to 1.8x
    from one second to the next, for reasons outside the program.  While the
    probe is entered, a SIGALRM handler times a fixed loop of about 1 ms every
    0.2 s of wall time, so the samples cover the measurement evenly; the
    parent divides the measurement by the mean sample.  ``spent`` counts the
    seconds spent in the handler, which timed code subtracts from itself.
    """

    PERIOD_S = 0.2

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        _reference_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_since(self, mark: int) -> float:
        """Mean sample from index ``mark`` on; a measurement shorter than the
        period gets one sample taken right after it."""
        if len(self.samples) == mark:
            self.sample()
        window = self.samples[mark:]
        return sum(window) / len(window)


def _setup_result(spawned_ns: int, generate_s: float = 0.0) -> dict:
    """One setup_s sample, less ``generate_s``, and the machine's speed right
    after it (set-up runs before any probe can be installed)."""
    setup_s = (_now_ns() - spawned_ns) / 1e9 - generate_s
    probe = SpeedProbe()
    for _ in range(3):
        probe.sample()
    return {"setup_s": setup_s, "setup_reference_s": probe.mean_since(0)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


# -- sections-dense ----------------------------------------------------------


def _hand_over(batch: list[dict]) -> list[tuple]:
    """Build the library objects the timed ops start from."""
    from nccanon.conecalc import ConeElement
    from nccanon.exactalg import LaurentPolynomial

    def cone(parts):
        return ConeElement(*(LaurentPolynomial(("u", "v"), p) for p in parts))

    built = []
    for op in batch:
        if op["kind"] == "nc":
            built.append(("nc", op["m"], LaurentPolynomial(("x", "y"), op["f"])))
        else:
            built.append(("cone", op["m"], cone(op["g"]), cone(op["h"])))
    return built


def _run_ops(built: list[tuple], probe: SpeedProbe) -> tuple[float, list[float], list]:
    """Time every op and the batch, less the probe's time; return
    (batch_s, op_s list, outcomes)."""
    # module attributes are looked up on every call so a traced run sees the
    # wrapped functions
    from nccanon import conecalc, logres

    clock = time.perf_counter
    op_s = []
    outcomes = []
    start, spent_at_start = clock(), probe.spent
    for op in built:
        t0, spent = clock(), probe.spent
        if op[0] == "nc":
            section = logres.PluriSection(logres.NC_PAIR, op[1], op[2])
            partners = logres.partner_sections(section)
            if partners is None:
                outcome = "reject"
            else:
                outcome = "glue" if logres.glues(section, *partners) else "no-glue"
        else:
            section = conecalc.ConeSection(2 * op[1], op[2] * op[3])
            outcome = (
                conecalc.restrict_cone(section),
                conecalc.restrict_cone_log_frame(section),
            )
        op_s.append(clock() - t0 - (probe.spent - spent))
        outcomes.append(outcome)
    return clock() - start - (probe.spent - spent_at_start), op_s, outcomes


def _check_op(op: dict, outcome) -> str | None:
    """None if the outcome is right, else a one-line description."""
    if op["kind"] == "nc":
        want = "glue" if workloads.expected_glue(op) else "reject"
        return None if outcome == want else f"nc m={op['m']}: {outcome}, want {want}"
    chart, log = outcome
    want_h = {(e,): c for e, c in workloads.expected_cone_h(op).items()}
    want_pole = workloads.expected_pole(op)
    if chart != log:
        return f"cone m={op['m']}: routes differ: {chart} vs {log}"
    if chart.weight != 2 * op["m"] or chart.h.terms() != want_h:
        return f"cone m={op['m']}: restriction {chart}, want h terms {want_h}"
    if chart.pole_order != want_pole:
        return f"cone m={op['m']}: pole {chart.pole_order}, want {want_pole}"
    return None


def _outcome_text(outcome) -> str:
    return outcome if isinstance(outcome, str) else f"{outcome[0]}|{outcome[1]}"


def _dense(spec: dict, args, spawned_ns: int) -> dict:
    # the plain inputs are the benchmark's own work, so their generation is
    # left out of setup_s; building the library objects from them is not
    start = time.perf_counter()
    batch = workloads.dense_batch(spec["seed"], 0, spec["batch_ops"])
    generate_s = time.perf_counter() - start
    built = _hand_over(batch)
    result = _setup_result(spawned_ns, generate_s)
    if args.mode == "setup":
        return result
    tracer = _tracer() if args.trace else None
    probe = SpeedProbe()
    reference_s = []
    deadline = time.perf_counter() + args.seconds
    batch_s, op_s, attempted, failures = [], [], 0, []
    digest = hashlib.sha256()
    index = 0
    while True:
        if index:
            batch = workloads.dense_batch(spec["seed"], index, spec["batch_ops"])
            built = _hand_over(batch)
        if tracer:
            tracer.install()
        mark = len(probe.samples)
        try:
            with probe:
                seconds, times, outcomes = _run_ops(built, probe)
        finally:
            if tracer:
                tracer.restore()
        reference_s.append(probe.mean_since(mark))
        batch_s.append(seconds)
        op_s.append(times)
        for op, outcome in zip(batch, outcomes):
            attempted += 1
            problem = _check_op(op, outcome)
            if problem:
                failures.append(problem)
            digest.update(_outcome_text(outcome).encode() + b"\n")
        index += 1
        if spec["batches"] is not None:
            if index >= spec["batches"]:
                break
        elif time.perf_counter() >= deadline:
            break
    result.update(
        verdicts=batch_s,
        op_s=op_s,
        reference_s=reference_s,
        attempted=attempted,
        failed=len(failures),
        first_failure=failures[0] if failures else None,
        digest=digest.hexdigest(),
    )
    if tracer:
        result["layers"] = tracer.metrics()
    return result


# -- CLI workloads -----------------------------------------------------------


def _cli(spec: dict, args, spawned_ns: int) -> dict:
    import nccanon.cli

    argv = list(spec["argv"])
    result = _setup_result(spawned_ns)
    if args.mode == "setup":
        return result
    tracer = _tracer() if args.trace else None
    probe = SpeedProbe()
    out = io.StringIO()
    if tracer:
        tracer.install()
    try:
        with redirect_stdout(out), probe:
            start = time.perf_counter()
            code = nccanon.cli.main(argv)
            verdict_s = time.perf_counter() - start - probe.spent
    finally:
        if tracer:
            tracer.restore()
    text = out.getvalue()
    lines = text.splitlines()
    summary = _SUMMARY.search(lines[-1]) if lines else None
    result.update(
        verdicts=[verdict_s],
        reference_s=[probe.mean_since(0)],
        exit_code=code,
        digest=hashlib.sha256(text.encode()).hexdigest(),
        checks=int(summary.group(2)) if summary else None,
    )
    if tracer:
        result["layers"] = tracer.metrics()
    return result


def _tracer():
    from tracing import Tracer

    return Tracer()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, type=json.loads)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    run = _cli if args.spec["kind"] == "cli" else _dense
    result = run(args.spec, args, args.spawned_ns)
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
