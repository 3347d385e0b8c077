"""The integer monomial kernel against the polynomial route it replaces.

``gluing_ideal`` intersects the branch ideals of the glued nc branches, and
``pole_bound_s2`` and ``glued_pole_bound`` scan only the u^a line with
``restrict_monomial`` and the cone helper ``_restrict_cone_monomial``, on
integers.  The oracles below scan the full boxes the way those functions
once did, on the polynomial route: they build a ``LaurentPolynomial``
section for every monomial and run the full restriction on it.  The tests
compare the kernel with them result by result and monomial by monomial.
"""

from itertools import product

import pytest

from nccanon.conecalc import (
    ConeElement,
    ConeSection,
    IllegalPole,
    _restrict_cone_monomial,
    glued_pole_bound,
    pole_bound_s2,
    restrict_cone,
)
from nccanon.exactalg import LaurentPolynomial, NegativeExponentAtRestriction
from nccanon.logres import (
    HALF_PLANE_U,
    HALF_PLANE_V,
    NC_PAIR,
    SIGMA,
    SMOOTH_PAIR,
    BranchRestriction,
    PluriSection,
    UnknownBranch,
    branch_ideal,
    gluing_ideal,
    partner_sections,
    restrict,
    restrict_monomial,
)
from nccanon.monideal import MonomialIdeal

UV = ("u", "v")
XY = ("x", "y")


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
        for cutoff in (m, 12, 2 * m):
            common = oracle_glued_common_exponents(m, cutoff)
            assert common
            expected = max(max(0, -e) for e in common)
            assert glued_pole_bound(m, degree_cutoff=cutoff) == expected
        assert glued_pole_bound(m) == glued_pole_bound(m, degree_cutoff=2 * m)


def test_glued_pole_bound_above_old_cutoff():
    # a fixed cutoff of 12 left nothing to intersect from m = 13 on; the
    # cutoff derived from m keeps the intersection inhabited
    for m in range(13, 21):
        common = oracle_glued_common_exponents(m, 2 * m)
        assert common == set(range(0, m + 1))
        assert glued_pole_bound(m) == max(max(0, -e) for e in common) == 0


def test_glued_pole_bound_empty_intersection_raises():
    for m, cutoff in ((13, 12), (5, 4), (1, 0)):
        assert oracle_glued_common_exponents(m, cutoff) == set()
        with pytest.raises(ValueError, match=f"m={m} "):
            glued_pole_bound(m, degree_cutoff=cutoff)


# -- monomial by monomial: the plane charts ---------------------------------------


def kernel_restriction(curve_var: str, weight: int, image) -> BranchRestriction:
    if image is None:
        h = LaurentPolynomial.zero((curve_var,))
    else:
        sign, e = image
        h = LaurentPolynomial.monomial((curve_var,), {curve_var: e}, sign)
    return BranchRestriction(curve_var, weight, h)


def test_restrict_monomial_matches_restrict_on_every_chart():
    # exponents in [-2, 3]^2 cover zero restrictions, poles in the branch
    # parameter and the raising case of a pole transverse to the branch
    raised = zeros = 0
    for model in (NC_PAIR, SMOOTH_PAIR, HALF_PLANE_U, HALF_PLANE_V):
        for rule in model.branches:
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
                                restrict_monomial(model, rule.zero_var, weight, exps)
                            continue
                        image = restrict_monomial(model, rule.zero_var, weight, exps)
                        zeros += image is None
                        assert kernel_restriction(rule.param_var, weight, image) == expected
    assert raised and zeros


def test_branch_ideal_matches_restrict_monomial():
    for model in (NC_PAIR, SMOOTH_PAIR, HALF_PLANE_U, HALF_PLANE_V):
        for rule in model.branches:
            for weight in range(0, 5):
                ideal = branch_ideal(model, rule.zero_var, weight)
                assert ideal.variables == model.variables
                # generators have exponents at most 4, so [0, 5]^2 decides
                # membership of every monomial
                for exps in product(range(6), repeat=2):
                    image = restrict_monomial(model, rule.zero_var, weight, exps)
                    holomorphic = image is None or image[1] >= 0
                    assert ideal.member(exps) == holomorphic, (model.name, exps)
    with pytest.raises(UnknownBranch):
        branch_ideal(NC_PAIR, "u1", 1)


def test_restrict_monomial_unknown_branch():
    with pytest.raises(UnknownBranch):
        restrict_monomial(NC_PAIR, "u1", 1, (0, 0))


def test_gluing_box_monomial_by_monomial():
    for m in range(1, 11):
        members = gluing_ideal(m)
        for a in range(m + 1):
            for b in range(m + 1):
                section = nc_monomial(m, a, b)
                images = []
                for leg in SIGMA:
                    image = restrict_monomial(NC_PAIR, leg.nc.zero_var, m, (a, b))
                    expected = restrict(section, leg.nc.zero_var)
                    assert kernel_restriction(leg.nc.param_var, m, image) == expected
                    images.append(image)
                holomorphic = all(i is None or i[1] >= 0 for i in images)
                assert holomorphic == (partner_sections(section) is not None)
                assert holomorphic == members.member((a, b))


def test_glued_smooth_side_monomial_by_monomial():
    for m in range(1, 11):
        for a in range(2 * m + 1):
            for b in range(2 * m + 1 - a):
                coeff = LaurentPolynomial.monomial(XY, {"x": a, "y": b})
                expected = restrict(PluriSection(SMOOTH_PAIR, 2 * m, coeff), "y")
                image = restrict_monomial(SMOOTH_PAIR, "y", 2 * m, (a, b))
                assert kernel_restriction("x", 2 * m, image) == expected


# -- monomial by monomial: the cone ------------------------------------------------


def cone_kernel_restriction(m: int, e) -> BranchRestriction:
    return kernel_restriction("u", 2 * m, None if e is None else (1, e))


def test_cone_helper_on_scanned_boxes():
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
            assert cone_kernel_restriction(m, _restrict_cone_monomial(m, a, b, c)) == expected


def test_cone_helper_reduces_w_powers():
    for m in range(1, 5):
        for a in range(4):
            for b in range(3):
                for c in range(6):
                    expected = restrict_cone(
                        ConeSection(2 * m, ConeElement.monomial(a, b, c))
                    )
                    image = _restrict_cone_monomial(m, a, b, c)
                    assert cone_kernel_restriction(m, image) == expected


def test_cone_helper_meromorphic_coefficients():
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
                    except IllegalPole:
                        raised += 1
                        with pytest.raises(IllegalPole):
                            _restrict_cone_monomial(m, a, b, c)
                        continue
                    image = _restrict_cone_monomial(m, a, b, c)
                    assert cone_kernel_restriction(m, image) == expected
    assert raised
