"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_dense_generator_is_seeded():
    assert workloads.dense_batch(7, 0, 200) == workloads.dense_batch(7, 0, 200)
    assert workloads.dense_batch(7, 0, 200) != workloads.dense_batch(8, 0, 200)
    assert workloads.dense_batch(7, 0, 200) != workloads.dense_batch(7, 1, 200)


def test_dense_batch_mix():
    batch = workloads.dense_batch(3, 0, 600)
    nc = [op for op in batch if op["kind"] == "nc"]
    cone = [op for op in batch if op["kind"] == "cone"]
    assert (len(nc), len(cone)) == (400, 200)
    assert sum(workloads.expected_glue(op) for op in nc) == 200
    for op in batch:
        assert 1 <= op["m"] <= 12
        coeffs = list(op["f"].values()) if op["kind"] == "nc" else [
            c for element in (op["g"], op["h"]) for part in element for c in part.values()]
        assert all(c != 0 and abs(c.numerator) <= 9 and c.denominator <= 9 for c in coeffs)
    for op in cone:
        assert sum(len(part) for part in op["g"]) == workloads.CONE_TERMS


def test_expected_pole_by_hand():
    # g = h = u + v: c0 of the product is u^2 + 2uv + v^2; v-degree 0 leaves u^2
    element = ({(1, 0): Fraction(1), (0, 1): Fraction(1)}, {})
    op = {"kind": "cone", "m": 5, "g": element, "h": element}
    assert workloads.expected_cone_h(op) == {-3: 1}
    assert workloads.expected_pole(op) == 3
    # every c0 term carries v: no surviving term, no pole
    only_v = ({(0, 1): Fraction(2)}, {(0, 0): Fraction(1)})
    assert workloads.expected_pole({"kind": "cone", "m": 4, "g": only_v, "h": only_v}) == 0


def test_checker_catches_wrong_outcomes():
    batch = workloads.dense_batch(5, 0, 40)
    outcomes = worker._run_ops(worker._hand_over(batch), worker.SpeedProbe())[2]
    assert all(worker._check_op(op, out) is None for op, out in zip(batch, outcomes))
    nc = next(i for i, op in enumerate(batch) if op["kind"] == "nc")
    flipped = "reject" if outcomes[nc] == "glue" else "glue"
    assert worker._check_op(batch[nc], flipped) is not None
    cone = next(i for i, op in enumerate(batch)
                if op["kind"] == "cone" and workloads.expected_cone_h(op))
    chart, log = outcomes[cone]
    wrong = type(chart)(chart.curve_var, chart.weight, chart.h * 2)
    assert worker._check_op(batch[cone], (wrong, wrong)) is not None
    assert worker._check_op(batch[cone], (chart, wrong)) is not None


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_on_synthetic_span_tree():
    clock = _FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(4)

    def inner_same_layer():
        clock.advance(1)
        c()

    def middle():
        clock.advance(2)
        b_same()
        clock.advance(1)

    def root():
        clock.advance(1)
        b()
        clock.advance(3)
        c()

    c = tracer.wrap("C", "C.leaf", leaf)
    b_same = tracer.wrap("B", "B.inner", inner_same_layer)
    b = tracer.wrap("B", "B.middle", middle)
    a = tracer.wrap("A", "A.root", root)
    a()
    # A: 1 + 3 of its own; B: 2 + 1 + 1 (the same-layer call is not a span);
    # C: two spans of 4
    assert tracer.self_s == {"A": 4.0, "B": 4.0, "C": 8.0}
    assert tracer.count("C.leaf") == 2 and tracer.count("B.inner") == 1


def test_install_rebinds_every_site_and_restores():
    import nccanon
    from nccanon import cli, conecalc, exactalg, logres, monideal

    originals = {
        (cli, "partner_sections"): logres.partner_sections,
        (cli, "gluing_ideal"): logres.gluing_ideal,
        (cli, "rees_report"): monideal.rees_report,
        (cli, "restrict_cone"): conecalc.restrict_cone,
        (conecalc, "restrict"): logres.restrict,
        (monideal, "divides"): exactalg.divides,
        (nccanon, "partner_sections"): logres.partner_sections,
        (logres, "partner_sections"): logres.partner_sections,
    }
    mul = vars(exactalg.LaurentPolynomial)["__mul__"]
    monomial = vars(exactalg.LaurentPolynomial)["monomial"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, name), fn in originals.items():
            assert getattr(module, name) is not fn, f"{module.__name__}.{name}"
            assert getattr(module, name).__wrapped__ is not None
        assert vars(exactalg.LaurentPolynomial)["__rmul__"] is not mul
        x = exactalg.LaurentPolynomial.variable(("x",), "x")
        assert 3 * x == x * 3
    finally:
        tracer.restore()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert vars(exactalg.LaurentPolynomial)["__mul__"] is mul
    assert vars(exactalg.LaurentPolynomial)["__rmul__"] is mul
    assert vars(exactalg.LaurentPolynomial)["monomial"] is monomial
    assert tracer.count("exactalg.LaurentPolynomial.__mul__") == 2


def _traced_worker(spec: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", json.dumps(spec),
           "--trace", "1", "--spawned-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _exact(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def test_counters_repeat_across_traced_runs():
    specs = [
        {"kind": "cli", "argv": ["--task", "all", "--max-degree", "5", "--format", "structured"]},
        {"kind": "dense", "seed": 11, "batch_ops": 40, "batches": 1},
    ]
    for spec in specs:
        first, second = _traced_worker(spec), _traced_worker(spec)
        assert _exact(first["layers"]) == _exact(second["layers"])
        assert first["layers"]["exactalg.construct.calls"] > 0


def test_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert per_layer == set(tracing.Tracer().metrics()) | {"trace_overhead_s"}
    for names in workloads.USES.values():
        assert set(names) <= per_layer
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_speed_probe_samples_while_entered():
    probe = worker.SpeedProbe()
    with probe:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    taken = len(probe.samples)
    assert taken >= 2
    assert probe.spent == sum(probe.samples)
    time.sleep(2 * worker.SpeedProbe.PERIOD_S)
    assert len(probe.samples) == taken  # the timer stopped on exit
    assert probe.mean_since(taken) > 0 and len(probe.samples) == taken + 1
