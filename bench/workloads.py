"""Workload definitions: CLI argument lists, golden outputs and the seeded
generator and checker for the ``sections-dense`` library workload.

Nothing here imports nccanon.  Inputs are produced as plain data (integers
and ``Fraction`` coefficients) and expected answers are computed from that
plain data by code that shares nothing with the library, so a wrong verdict
from the library cannot also be a wrong expectation.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

# The CLI workloads.  ``golden_sha256`` is the sha256 of the structured report
# produced by the parent commit of the benchmark; it pins the behaviour of that
# commit, including the ``poles/m=13..40/glued`` rows of all-n40 that pass
# vacuously (the fixed degree cutoff of ``glued_pole_bound`` leaves nothing to
# intersect above m = 12).  The benchmark checks that the output did not
# change; it does not vouch for those rows.
CLI_WORKLOADS = {
    "all-n40": {
        "argv": ["--task", "all", "--max-degree", "40", "--format", "structured"],
        "checks": 353,
        "golden_sha256": "63425347d9d8b76fac7eae73c069b1bd8719f79b0a270c8d410a61f306b44ed4",
    },
    "rees-3var-n80": {
        "argv": [
            "--task", "rees-report",
            "--family", "x*y, y*z, x*z, x^m, y^m, z^m",
            "--max-degree", "80",
            "--format", "structured",
        ],
        "checks": 82,
        "golden_sha256": "31b6295fd03e32cd748c81cd8b94bb4d9f8ff6a986866223c62f220bd14c95b6",
    },
}

DENSE = "sections-dense"
WORKLOADS = (*CLI_WORKLOADS, DENSE)

# sections-dense sizing: one timed batch is BATCH_OPS operations, two thirds
# of them nc gluing ops (half of those glue) and one third cone restriction
# ops.  A cone op takes about 15 times as long as an nc op, so with an even
# split the median op would sit in the gap between the two latency clusters
# and read whichever op happened to be the slowest nc or the fastest cone op;
# with two thirds nc ops it lies inside the nc cluster, and the 99th
# percentile inside the cone cluster.
BATCH_OPS = 1200
M_RANGE = (1, 12)
CONE_TERMS = 8
CONE_EXP_MAX = 5
NC_TERMS = (3, 6)


def _rational(rng: Random) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n != 0])
    return Fraction(num, rng.randint(1, 9))


def _in_gluing_ideal(m: int, a: int, b: int) -> bool:
    # (x*y, x^m, y^m), written out from the statement of the paper
    return (a >= 1 and b >= 1) or a >= m or b >= m


def _nc_op(rng: Random, member: bool) -> dict:
    m = rng.randint(*M_RANGE)
    terms: dict[tuple[int, int], Fraction] = {}
    want = rng.randint(*NC_TERMS)
    while len(terms) < want:
        a, b = rng.randint(0, m + 2), rng.randint(0, m + 2)
        if _in_gluing_ideal(m, a, b):
            terms.setdefault((a, b), _rational(rng))
    if not member:
        low = rng.randint(0, m - 1)
        bad = (0, low) if rng.random() < 0.5 else (low, 0)
        terms[bad] = _rational(rng)
    return {"kind": "nc", "m": m, "f": terms}


def _cone_element(rng: Random) -> tuple[dict, dict]:
    """An element c0 + c1*w with CONE_TERMS terms, as two {(a, b): coeff} maps."""
    slots = [(part, a, b) for part in (0, 1)
             for a in range(CONE_EXP_MAX + 1) for b in range(CONE_EXP_MAX + 1)]
    parts: tuple[dict, dict] = ({}, {})
    for part, a, b in rng.sample(slots, CONE_TERMS):
        parts[part][(a, b)] = _rational(rng)
    return parts


def _cone_op(rng: Random) -> dict:
    m = rng.randint(*M_RANGE)
    return {"kind": "cone", "m": m, "g": _cone_element(rng), "h": _cone_element(rng)}


def dense_batch(seed: int, index: int, n_ops: int = BATCH_OPS) -> list[dict]:
    """Batch ``index`` of the sections-dense inputs for ``seed``, as plain data.

    Two thirds of the ops are nc gluing ops, half of which lie in the gluing
    ideal; the rest are cone ops.  The same (seed, index) always gives the
    same batch.
    """
    rng = Random(seed * 1_000_003 + index)
    n_nc = n_ops * 2 // 3
    ops = [_nc_op(rng, member=i < n_nc // 2) for i in range(n_nc)]
    ops += [_cone_op(rng) for _ in range(n_ops - n_nc)]
    rng.shuffle(ops)
    return ops


def expected_glue(op: dict) -> bool:
    """Whether the nc coefficient lies in the gluing ideal (x*y, x^m, y^m)."""
    return all(_in_gluing_ideal(op["m"], a, b) for a, b in op["f"])


def expected_cone_h(op: dict) -> dict[int, Fraction]:
    """The restriction h(u) of ConeSection(2m, g*h), as {u-exponent: coeff}.

    On the curve (v = w = 0) only the c0 terms of v-degree 0 survive, each
    u^a giving u^(a-m).  c0 of the product is g0*h0 + u*v*g1*h1, and the
    second summand has positive v-degree, so only g0*h0 contributes.
    """
    m = op["m"]
    out: dict[int, Fraction] = {}
    for (a1, b1), c1 in op["g"][0].items():
        for (a2, b2), c2 in op["h"][0].items():
            if b1 + b2 == 0:
                out[a1 + a2 - m] = out.get(a1 + a2 - m, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def expected_pole(op: dict) -> int:
    """max(0, m - least u-degree of c0 terms with v-degree 0), or 0 if none."""
    h = expected_cone_h(op)
    return max(0, -min(h)) if h else 0


# Per-layer metrics that must be nonzero in a traced run of each workload: the
# layers the workload exercises.  A zero here means a wrapper missed its
# binding site, so the traced run is marked incorrect.
_EXACTALG = ("exactalg.self_s", "exactalg.construct.calls", "exactalg.mul.calls",
             "exactalg.restrict_var.calls", "exactalg.substitute_monomials.calls")
_MONIDEAL = ("exactalg.divides.calls", "monideal.self_s", "monideal.rees_report_s",
             "monideal.oracle_s", "monideal.minimalize.calls",
             "monideal.minimalize.kept_ratio", "monideal.member.calls")
_LOGRES = ("logres.self_s", "logres.partner_sections.calls",
           "logres.partner_sections.hit_ratio", "logres.glues.calls")
_GLUING_IDEAL = ("logres.gluing_ideal_s", "logres.gluing_ideal.calls",
                 "logres.gluing_ideal.repeat_ratio")
_CONECALC = ("conecalc.self_s", "conecalc.restrict_cone.calls",
             "conecalc.restrict_cone_log_frame.calls", "conecalc.to_chart.calls")
_POLE_BOUNDS = ("conecalc.pole_bound_s2_s", "conecalc.glued_pole_bound_s")
_CLI = ("cli.self_s", "cli.render_s")

USES = {
    "all-n40": (_EXACTALG + _MONIDEAL + _LOGRES + _GLUING_IDEAL + _CONECALC
                + _POLE_BOUNDS + _CLI + ("geomcheck.self_s",)),
    "rees-3var-n80": _MONIDEAL + _CLI,
    DENSE: _EXACTALG + _LOGRES + _CONECALC,
}
