"""Acceptance gate: one test per numbered criterion.

Each criterion runs inside a timing guard with its stated ceiling and
prints one `criterion NN ...: PASS/FAIL` line (visible with pytest -s).
Expected values are fixed constants verified by hand, exact objects frozen
from the statement being checked, or outputs of independent brute-force
oracles computed inline.
"""

import hashlib
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product as cartesian
from pathlib import Path
from random import Random

from nccanon.cli import Scenario, main, parse_family, run
from nccanon.conecalc import (
    ConeElement,
    ConeSection,
    glued_pole_bound,
    mult_along_c2,
    pole_bound_s2,
    restrict_cone,
    restrict_cone_log_frame,
)
from nccanon.exactalg import LaurentPolynomial
from nccanon.geomcheck import (
    ECCurve,
    INFINITY,
    ec_add,
    genus2_pencil_lattice,
    linear_equiv,
    nc_pullback_degree,
    points_with_x_in,
)
from nccanon.logres import BranchRestriction, gluing_ideal
from nccanon.monideal import (
    MonomialIdeal,
    brute_force_new_generators,
    minimalize,
    rees_report,
)


@contextmanager
def criterion(number: int, label: str, ceiling_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < ceiling_seconds, (
        f"criterion {number} took {elapsed:.3f}s (ceiling {ceiling_seconds}s)"
    )
    print(f"criterion {number:02d} {label}: PASS ({elapsed:.3f}s)")


def test_criterion_01_gluing_ideal():
    with criterion(1, "gluing ideal", 1.0):
        family = parse_family("x*y, x^m, y^m")
        for m in range(1, 21):
            assert gluing_ideal(m) == family.instantiate(m)


def test_criterion_02_infinite_generation_witness():
    with criterion(2, "infinite generation witness", 5.0):
        family = parse_family("x*y, x^m, y^m")
        report = rees_report(family, 20)
        assert report.witness_flag
        assert report.row(1) == {(1, 0), (0, 1)}
        assert report.row(2) == frozenset()
        for m in range(3, 21):
            assert report.row(m) == {(1, 1)}
        for m in range(1, 21):
            visible = frozenset(g for g in report.row(m) if sum(g) <= 6)
            assert visible == brute_force_new_generators(family, m, degree_bound=6)


def test_criterion_03_negative_controls():
    with criterion(3, "negative controls", 1.0):
        principal = rees_report(parse_family("x^m"), 20)
        assert not principal.witness_flag
        assert principal.row(1) == {(1,)}
        for m in range(2, 21):
            assert principal.row(m) == frozenset()
        powers = rees_report(parse_family("x^m*y^m"), 20)
        assert not powers.witness_flag
        assert powers.row(1) == {(1, 1)}
        for m in range(2, 21):
            assert powers.row(m) == frozenset()
        # The constant family (x*y) is a standing witness, not a control:
        # J_m = (x^2*y^2) for m >= 2, and x*y is not in it.  The oracle
        # cross-check is test_monideal.test_rees_report_constant_family_truth.
        constant = rees_report(parse_family("x*y"), 20)
        assert constant.witness_flag
        for m in range(1, 21):
            assert constant.row(m) == {(1, 1)}


def test_criterion_04_cone_restriction():
    with criterion(4, "cone restriction", 1.0):
        for m in range(1, 7):
            section = ConeSection(2 * m, ConeElement.one())
            expected = BranchRestriction(
                "u", 2 * m, LaurentPolynomial.monomial(("u",), {"u": -m})
            )
            via_chart = restrict_cone(section)
            via_log_frame = restrict_cone_log_frame(section)
            assert via_chart == expected
            assert via_log_frame == expected
        assert mult_along_c2(ConeElement.monomial(0, 1)) == 2
        assert mult_along_c2(ConeElement.monomial(0, 0, 1)) == 1


def test_criterion_05_pole_containment():
    with criterion(5, "pole containment", 5.0):
        for m in range(1, 11):
            assert pole_bound_s2(m) == m
            assert glued_pole_bound(m) == 0


def test_criterion_06_divisor_instance():
    with criterion(6, "divisor class instance", 5.0):
        curve = ECCurve(-1, 0)
        p1, p2 = curve.point(0, 0), curve.point(1, 0)
        q1, q2 = curve.point(-1, 0), INFINITY
        assert len({p1, p2, q1, q2}) == 4
        assert linear_equiv(curve, p1, p2, q1, q2)
        rng = Random(97)
        triples = 0
        for probe, xs in (
            (curve, [-1, 0, 1, 2, 3]),
            (ECCurve(0, 1), [-1, 0, 1, 2]),
            (ECCurve(0, -2), [3]),
        ):
            pool = [INFINITY] + points_with_x_in(probe, xs)
            for a in list(pool):
                for b in list(pool):
                    s = ec_add(probe, a, b)
                    if s not in pool:
                        pool.append(s)
            for _ in range(40):
                a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
                lhs = ec_add(probe, ec_add(probe, a, b), c)
                rhs = ec_add(probe, a, ec_add(probe, b, c))
                assert lhs == rhs
                triples += 1
        assert triples >= 100


def test_criterion_07_blowup_bookkeeping():
    with criterion(7, "blow-up bookkeeping", 1.0):
        lattice = genus2_pencil_lattice()
        boundary = ("Fp", "Fq", "Ep1", "Ep2", "Eq1", "Eq2")
        for name in ("Eq1", "Eq2", "Ep1", "Ep2"):
            assert nc_pullback_degree(lattice, boundary, name) == -1


def test_criterion_08_product_quotient_counts():
    with criterion(8, "product quotient counts", 1.0):
        report, code = run(Scenario(task="example2-checks", max_degree=5))
        assert code == 0
        by_name = {r.name: r for r in report.records}
        assert by_name["example2/branch-points-C"].computed == "6"
        assert by_name["example2/branch-points-E"].computed == "4"
        assert by_name["example2/nodes-total"].computed == "24"
        assert by_name["example2/nodes-on-Dp"].computed == "6"
        assert by_name["example2/nodes-on-Dq"].computed == "6"
        assert by_name["example2/sigma-moves-nodes"].computed == "True"
        assert by_name["example2/p1xp1-map-basepoint-free"].computed == "True"
        assert by_name["example2/pullback-bidegree"].computed == "(2, 2)"
        assert by_name["example2/pullback-ample"].computed == "True"
        for m in range(1, 6):
            assert by_name[f"example2/h0(omega_P1^{2*m})"].computed == "0"
        flag = by_name["example2/a1-count-discrepancy"]
        assert flag.verdict == "recorded"
        assert "24" in flag.computed and "12" in flag.computed


def _box(nvars: int, bound: int):
    for exps in cartesian(range(bound + 1), repeat=nvars):
        if sum(exps) <= bound:
            yield exps


def test_criterion_09_oracle_equivalence():
    with criterion(9, "brute-force oracle equivalence", 10.0):
        rng = Random(101)
        bound = 6
        for _ in range(500):
            nvars = rng.choice((2, 3))
            names = ("x", "y", "z")[:nvars]
            raw_left = [
                tuple(rng.randrange(6) for _ in range(nvars))
                for _ in range(1 + rng.randrange(4))
            ]
            raw_right = [
                tuple(rng.randrange(6) for _ in range(nvars))
                for _ in range(1 + rng.randrange(4))
            ]
            left = MonomialIdeal(names, raw_left)
            right = MonomialIdeal(names, raw_right)

            def enumerated(gens):
                return {
                    mono
                    for mono in _box(nvars, bound)
                    if any(all(a <= b for a, b in zip(g, mono)) for g in gens)
                }

            left_set = enumerated(raw_left)
            # membership agrees with enumeration
            for mono in _box(nvars, bound):
                assert left.member(mono) == (mono in left_set)
            # minimalize: an antichain generating the same enumerated set
            mins = minimalize(raw_left)
            assert enumerated(mins) == left_set
            for g in mins:
                assert not any(
                    h != g and all(a <= b for a, b in zip(h, g)) for h in mins
                )
            # product agrees with divisor-splitting enumeration
            right_set = enumerated(raw_right)
            prod = left * right
            for mono in _box(nvars, bound):
                splits = False
                for d in cartesian(*(range(e + 1) for e in mono)):
                    rest = tuple(a - b for a, b in zip(mono, d))
                    if d in left_set and rest in right_set:
                        splits = True
                        break
                assert prod.member(mono) == splits


def test_criterion_10_determinism(capsys):
    with criterion(10, "report determinism", 30.0):
        args = ["--task", "all", "--max-degree", "20", "--format", "structured"]
        code_first = main(args)
        first = capsys.readouterr().out
        code_second = main(args)
        second = capsys.readouterr().out
        assert code_first == 0 and code_second == 0
        assert first.encode("utf-8") == second.encode("utf-8")


# sha256 of the all-n20 golden report of tests/test_cli.py
ALL_N20_SHA = "35bae79742317ba8720d4892af3a96d12b7ccc556f9440d96484998290ccb992"


def test_criterion_10_determinism_across_interpreters():
    # two fresh interpreters under different string hash seeds, so that no
    # set or dict order that follows a hash can reach the report
    with criterion(10, "report determinism across interpreters", 60.0):
        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = ["--task", "all", "--max-degree", "20", "--format", "structured"]
        shas = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            done = subprocess.run([sys.executable, "-m", "nccanon", *argv], env=env,
                                  capture_output=True, check=False)
            assert done.returncode == 0, done.stderr
            shas.append(hashlib.sha256(done.stdout).hexdigest())
        assert shas == [ALL_N20_SHA, ALL_N20_SHA]
