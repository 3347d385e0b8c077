"""The integer restriction maps against the polynomial route they replace.

``gluing_ideal`` intersects the ``Gluing.ideal`` of each leg of ``SIGMA``
(its nc map near, its half-plane map far), ``glued_pole_bound`` reads the
``CONE_MAP`` image of the power ``CONE_GLUING.rise`` (the smooth branch
far, at twice the weight), and ``pole_bound_s2`` the image of the
coefficient 1, on integers.  The oracles
below scan the full boxes the way those functions once did, on the
polynomial route: they build a ``LaurentPolynomial`` section for every
monomial and run the full restriction on it.  The tests compare the maps
with them result by result and monomial by monomial, and compare
``Gluing.rise`` and ``Gluing.ideal`` with a scan of ``MonomialMap.image`` on
both sides.
``obstructions``, which decides a whole staircase of non-members in one
section, is compared with ``partner_sections`` on each of its monomials.
"""

from functools import lru_cache
from itertools import product

import pytest

from nccanon.cli import _suite_glue_check
from nccanon.conecalc import (
    CONE_GLUING,
    CONE_MAP,
    ConeElement,
    ConeSection,
    glued_pole_bound,
    pole_bound_s2,
    restrict_cone,
    restrict_cone_log_frame,
)
from nccanon.exactalg import (
    LaurentPolynomial,
    NegativeExponentAtRestriction,
    VariableMismatch,
)
from nccanon.logres import (
    HALF_PLANE_U,
    HALF_PLANE_V,
    NC_PAIR,
    SIGMA,
    SMOOTH_PAIR,
    BranchRestriction,
    Gluing,
    MonomialMap,
    PluriSection,
    UnknownBranch,
    gluing_ideal,
    obstructions,
    partner_sections,
    restrict,
)
from nccanon.monideal import MonomialIdeal

UV = ("u", "v")
XY = ("x", "y")
PLANE_CHARTS = (NC_PAIR, SMOOTH_PAIR, HALF_PLANE_U, HALF_PLANE_V)


# -- polynomial oracles -------------------------------------------------------


def nc_monomial(m: int, a: int, b: int) -> PluriSection:
    return PluriSection(NC_PAIR, m, LaurentPolynomial.monomial(XY, {"x": a, "y": b}))


def oracle_gluing_ideal(m: int) -> MonomialIdeal:
    hits = []
    for a in range(m + 1):
        for b in range(m + 1):
            if partner_sections(nc_monomial(m, a, b)) is not None:
                hits.append((a, b))
    return MonomialIdeal(XY, hits)


def oracle_pole_bound_s2(m: int) -> int:
    if m == 0:
        return 0
    best = 0
    for a in range(m + 1):
        for b in range(m + 1):
            for c in (0, 1):
                section = ConeSection(2 * m, ConeElement.monomial(a, b, c))
                best = max(best, restrict_cone(section).pole_order)
    return best


def oracle_glued_common_exponents(m: int, degree_cutoff: int) -> set[int]:
    smooth_exps: set[int] = set()
    for a in range(degree_cutoff + 1):
        for b in range(degree_cutoff + 1 - a):
            coeff = LaurentPolynomial.monomial(XY, {"x": a, "y": b})
            r = restrict(PluriSection(SMOOTH_PAIR, 2 * m, coeff), "y")
            for exps in r.h.terms():
                smooth_exps.add(exps[0])
    cone_exps: set[int] = set()
    for a in range(degree_cutoff + 1):
        for b in range(degree_cutoff + 1 - a):
            for c in (0, 1):
                if a + b + c > degree_cutoff:
                    continue
                r = restrict_cone(ConeSection(2 * m, ConeElement.monomial(a, b, c)))
                for exps in r.h.terms():
                    cone_exps.add(exps[0])
    return smooth_exps & cone_exps


# -- whole results --------------------------------------------------------------


def test_gluing_ideal_matches_polynomial_oracle():
    for m in range(1, 11):
        assert gluing_ideal(m) == oracle_gluing_ideal(m)


def test_pole_bound_s2_matches_polynomial_oracle():
    for m in range(0, 11):
        assert pole_bound_s2(m) == oracle_pole_bound_s2(m)


def test_glued_pole_bound_matches_polynomial_oracle():
    for m in range(1, 11):
        common = oracle_glued_common_exponents(m, 2 * m)
        assert common
        assert glued_pole_bound(m) == max(max(0, -e) for e in common)


def test_glued_pole_bound_above_old_cutoff():
    # a fixed degree cutoff of 12 once left nothing to intersect from
    # m = 13 on; glued_pole_bound reads no cutoff, and the oracle's box of
    # degree 2m still reaches every common exponent 0..m
    for m in range(13, 21):
        common = oracle_glued_common_exponents(m, 2 * m)
        assert common == set(range(0, m + 1))
        assert glued_pole_bound(m) == max(max(0, -e) for e in common) == 0


# -- monomial by monomial: the plane charts ---------------------------------------


def kernel_restriction(curve_var: str, weight: int, image) -> BranchRestriction:
    if image is None:
        h = LaurentPolynomial.zero((curve_var,))
    else:
        sign, e = image
        h = LaurentPolynomial.monomial((curve_var,), {curve_var: e}, sign)
    return BranchRestriction(curve_var, weight, h)


def test_monomial_map_matches_restrict_on_every_chart():
    # exponents in [-2, 3]^2 cover zero restrictions, poles in the branch
    # parameter and the raising case of a pole transverse to the branch
    raised = zeros = 0
    for model in PLANE_CHARTS:
        for rule in model.branches:
            kernel = MonomialMap.of(model.variables, rule)
            for weight in range(0, 5):
                for e0 in range(-2, 4):
                    for e1 in range(-2, 4):
                        exps = (e0, e1)
                        coeff = LaurentPolynomial(model.variables, {exps: 1})
                        section = PluriSection(model, weight, coeff, meromorphic=True)
                        try:
                            expected = restrict(section, rule.zero_var)
                        except NegativeExponentAtRestriction:
                            raised += 1
                            with pytest.raises(NegativeExponentAtRestriction):
                                kernel.image(exps, weight)
                            continue
                        image = kernel.image(exps, weight)
                        zeros += image is None
                        assert kernel_restriction(rule.param_var, weight, image) == expected
    assert raised and zeros


def test_monomial_map_unknown_branch():
    with pytest.raises(UnknownBranch):
        NC_PAIR.branch("u1")
    # a branch of another chart names no variable of the nc pair
    with pytest.raises(ValueError):
        MonomialMap.of(NC_PAIR.variables, HALF_PLANE_U.branch("u1"))


def test_gluing_box_monomial_by_monomial():
    for m in range(1, 11):
        members = gluing_ideal(m)
        for a in range(m + 1):
            for b in range(m + 1):
                section = nc_monomial(m, a, b)
                images = []
                for leg in SIGMA:
                    image = MonomialMap.of(XY, leg.nc).image((a, b), m)
                    expected = restrict(section, leg.nc.zero_var)
                    assert kernel_restriction(leg.nc.param_var, m, image) == expected
                    images.append(image)
                holomorphic = all(i is None or i[1] >= 0 for i in images)
                assert holomorphic == (partner_sections(section) is not None)
                assert holomorphic == members.member((a, b))


def test_obstructions_match_partner_sections_on_every_staircase():
    verdicts = {r.name: r.verdict for r in _suite_glue_check(40)}
    for m in range(1, 41):
        staircase = gluing_ideal(m).staircase()
        rejected = frozenset(
            exps for exps in staircase if partner_sections(nc_monomial(m, *exps)) is None
        )
        coeff = LaurentPolynomial(XY, {exps: i for i, exps in enumerate(staircase, 1)})
        assert obstructions(PluriSection(NC_PAIR, m, coeff)) == rejected
        expected = "pass" if rejected == frozenset(staircase) else "fail"
        assert verdicts[f"glue/m={m}/non-members-rejected"] == expected


def test_glued_smooth_side_monomial_by_monomial():
    kernel = MonomialMap.of(XY, SMOOTH_PAIR.branch("y"))
    for m in range(1, 11):
        for a in range(2 * m + 1):
            for b in range(2 * m + 1 - a):
                coeff = LaurentPolynomial.monomial(XY, {"x": a, "y": b})
                expected = restrict(PluriSection(SMOOTH_PAIR, 2 * m, coeff), "y")
                image = kernel.image((a, b), 2 * m)
                assert kernel_restriction("x", 2 * m, image) == expected


# -- monomial by monomial: the cone ------------------------------------------------


def cone_restriction(m: int, a: int, b: int, c: int) -> BranchRestriction:
    """``CONE_MAP`` on u^a*v^b*w^c at half weight m, after w^2 -> u*v."""
    k, r = divmod(c, 2)
    return kernel_restriction("u", 2 * m, CONE_MAP.image((a + k, b + k, r), m))


def test_cone_map_on_scanned_boxes():
    for m in range(1, 11):
        # the pole_bound_s2 box, then the glued_pole_bound triangle
        boxes = [
            (a, b, c) for a in range(m + 1) for b in range(m + 1) for c in (0, 1)
        ]
        boxes += [
            (a, b, c)
            for a in range(2 * m + 1)
            for b in range(2 * m + 1 - a)
            for c in (0, 1)
            if a + b + c <= 2 * m
        ]
        for a, b, c in boxes:
            expected = restrict_cone(ConeSection(2 * m, ConeElement.monomial(a, b, c)))
            assert cone_restriction(m, a, b, c) == expected


def test_cone_map_reduces_w_powers():
    for m in range(1, 5):
        for a in range(4):
            for b in range(3):
                for c in range(6):
                    expected = restrict_cone(
                        ConeSection(2 * m, ConeElement.monomial(a, b, c))
                    )
                    assert cone_restriction(m, a, b, c) == expected


def test_cone_map_meromorphic_coefficients():
    # a pole on either polynomial route is a pole of CONE_MAP, and all
    # three raise the same error
    raised = 0
    for m in range(1, 4):
        for a in range(-2, 3):
            for b in range(-2, 3):
                mono = LaurentPolynomial.monomial(UV, {"u": a, "v": b})
                zero = LaurentPolynomial.zero(UV)
                for c, element in ((0, ConeElement(mono)), (1, ConeElement(zero, mono))):
                    section = ConeSection(2 * m, element)
                    try:
                        expected = restrict_cone(section)
                    except NegativeExponentAtRestriction:
                        raised += 1
                        with pytest.raises(NegativeExponentAtRestriction):
                            restrict_cone_log_frame(section)
                        with pytest.raises(NegativeExponentAtRestriction):
                            cone_restriction(m, a, b, c)
                        continue
                    assert restrict_cone_log_frame(section) == expected
                    assert cone_restriction(m, a, b, c) == expected
    assert raised


# -- what the gluings read off the images of their maps ------------------------------


def every_map():
    """(variables, map) for every plane branch and for the cone."""
    planes = [
        (model.variables, MonomialMap.of(model.variables, rule))
        for model in PLANE_CHARTS
        for rule in model.branches
    ]
    return planes + [(("u", "v", "w"), CONE_MAP)]


# the near weights m, and the far weight's multiples of m, of the scans
NEAR_WEIGHTS = range(6)
FAR_PER_NEAR = range(1, 4)

# the reach scan reads the monomials in [0, BOX)^size
BOX = 22

# every map of ``every_map`` lowers by 0 or 1, and between those no multiple
# far_per_near >= 1 changes a rise; a near map lowering by 3 tells all three
# multiples apart, with rises up to 3*5
STEEP_MAP = (XY, MonomialMap((0, 1), (1, 0), 3, 1))


def gluing_weights():
    """((variables, gluing), m) for the ``Gluing`` of every near map of
    ``every_map`` and ``STEEP_MAP`` against every far map of ``every_map``
    at every ``far_per_near`` in ``FAR_PER_NEAR``, and every m in
    ``NEAR_WEIGHTS``; the variables are the near map's."""
    nears, fars = every_map() + [STEEP_MAP], every_map()
    gluings = [
        (variables, Gluing(near, far, k))
        for (variables, near), (_, far), k in product(nears, fars, FAR_PER_NEAR)
    ]
    return product(gluings, NEAR_WEIGHTS)


@lru_cache(maxsize=None)
def reach(kernel: MonomialMap, weight: int) -> frozenset[int]:
    """The t-exponents of the nonzero images of the monomials in [0, BOX)^size.

    At weight up to 15 they include every exponent up to 6 that the map
    reaches, and no monomial in [0, 6]^size has an image above t^6.
    """
    box = product(range(BOX), repeat=len(kernel.normal))
    images = (kernel.image(exps, weight) for exps in box)
    return frozenset(i[1] for i in images if i is not None)


def test_rise_and_reach_match_a_scan_of_image():
    for _, kernel in every_map():
        for weight in range(16):
            # each map reaches exactly the powers from its lowest one upward
            low = -kernel.lowering * weight
            assert reach(kernel, weight) == set(range(low, low + BOX)), (kernel, weight)
    rises = {}
    for (_, gluing), m in gluing_weights():
        rises.setdefault((gluing.near, gluing.far, m), set()).add(gluing.rise(m))
        # the least power of t whose image the far side also reaches
        near, far_reach = gluing.near, reach(gluing.far, gluing.far_per_near * m)
        powers = [
            k for k in range(BOX)
            if near.image(tuple(k * a for a in near.along), m)[1] in far_reach
        ]
        assert gluing.rise(m) == powers[0], (gluing, m)
    # some pair of maps at some weight reads a different rise at each multiple
    assert max(map(len, rises.values())) == len(FAR_PER_NEAR)
    for m in range(201):
        assert CONE_GLUING.rise(m) == m
        cone_ideal = CONE_GLUING.ideal(("u", "v", "w"), m)
        assert cone_ideal == MonomialIdeal(("u", "v", "w"), [(0, 1, 0), (0, 0, 1), (m, 0, 0)])


def test_monomial_map_ideal_matches_its_image():
    # near monomials through t^(rise + 1), and at least [0, 6]^size, decide
    # membership: a wrong rise errs at the lesser of the true and the read power
    for (variables, gluing), m in gluing_weights():
        ideal = gluing.ideal(variables, m)
        assert ideal.variables == variables
        reached = reach(gluing.far, gluing.far_per_near * m)
        for exps in product(range(max(7, gluing.rise(m) + 2)), repeat=len(variables)):
            image = gluing.near.image(exps, m)
            reaches = image is None or image[1] in reached
            assert ideal.member(exps) == reaches, (gluing, m, exps)


def test_monomial_map_refuses_what_rise_and_ideal_cannot_read():
    for normal, along in (
        ((-1, 0), (0, 1)),  # a negative normal weight
        ((1, 0), (1, 0)),  # along is not where normal vanishes
        ((0, 0), (1, 0)),  # normal vanishes twice
        ((0, 0), (1, 1)),  # along is not a unit vector
        ((1, 2), (0, 0)),  # normal never vanishes
        ((1, 0, 0), (0, 1)),  # lengths differ
    ):
        with pytest.raises(ValueError):
            MonomialMap(normal, along, 1, 1)
    with pytest.raises(VariableMismatch):
        CONE_MAP.image((1, 0), 1)
