"""Cone chart tests: double-cover substitution, restriction, pole bounds."""

from fractions import Fraction
from operator import add, mul, sub
from random import Random

import pytest

from nccanon.conecalc import (
    _LOG_FRAME,
    ChartElement,
    ConeElement,
    ConeSection,
    glued_pole_bound,
    mult_along_c2,
    pole_bound_s2,
    restrict_cone,
    restrict_cone_log_frame,
    to_chart,
)
from nccanon.exactalg import (
    _COLUMN_TERMS,
    LaurentPolynomial,
    NegativeExponentAtRestriction,
    parse_polynomial,
)
from nccanon.logres import BranchRestriction

UV = ("u", "v")
ST = ("s", "t")


def uvpoly(src: str) -> LaurentPolynomial:
    return parse_polynomial(src, UV)


def stpoly(src: str) -> LaurentPolynomial:
    return parse_polynomial(src, ST)


def upoly(src: str) -> LaurentPolynomial:
    return parse_polynomial(src, ("u",))


def random_cone_element(rng: Random, allow_zero=True) -> ConeElement:
    def part():
        terms = {}
        for _ in range(rng.randrange(3)):
            terms[(rng.randrange(3), rng.randrange(3))] = rng.randrange(-3, 4)
        return LaurentPolynomial(UV, terms)

    e = ConeElement(part(), part())
    if not allow_zero and e.is_zero:
        return ConeElement.one()
    return e


# -- chart substitution -----------------------------------------------------


def test_to_chart_examples():
    assert to_chart(ConeElement(uvpoly("u"))).poly == stpoly("s^2")
    # w^2 - u*v is zero in normal form
    w_squared = ConeElement.monomial(0, 0, 2)
    assert w_squared == ConeElement(uvpoly("u*v"))
    assert to_chart(w_squared - ConeElement(uvpoly("u*v"))).poly.is_zero
    u_plus_w = ConeElement(uvpoly("u")) + ConeElement.monomial(0, 0, 1)
    assert to_chart(u_plus_w).poly == stpoly("s^2 + s*t")


def test_to_chart_is_ring_morphism():
    rng = Random(43)
    for _ in range(120):
        e1, e2 = random_cone_element(rng), random_cone_element(rng)
        assert to_chart(e1 * e2).poly == to_chart(e1).poly * to_chart(e2).poly
        assert to_chart(e1 + e2).poly == to_chart(e1).poly + to_chart(e2).poly


def test_to_chart_injective_on_normal_forms():
    rng = Random(47)
    for _ in range(120):
        e1, e2 = random_cone_element(rng), random_cone_element(rng)
        if to_chart(e1).poly == to_chart(e2).poly:
            assert e1 == e2


def test_chart_element_invariance():
    with pytest.raises(ValueError):
        ChartElement(stpoly("s"))
    ChartElement(stpoly("s*t + s^2"))
    # the error names the first odd term, negative exponents included
    with pytest.raises(ValueError, match=r"exponents \(-1, 2\) is not"):
        ChartElement(stpoly("s^2 + s^-1*t^2 + t^-3"))
    ChartElement(stpoly("s^-1*t^-1 + s^-4 + 1"))


# -- multiplicity along the curve ------------------------------------------


def test_multiplicity_examples():
    assert mult_along_c2(ConeElement(uvpoly("v"))) == 2
    assert mult_along_c2(ConeElement.monomial(0, 0, 1)) == 1
    assert mult_along_c2(ConeElement(uvpoly("u"))) == 0
    with pytest.raises(ValueError):
        mult_along_c2(ConeElement.zero())


def test_multiplicity_additive():
    rng = Random(53)
    for _ in range(100):
        e1 = random_cone_element(rng, allow_zero=False)
        e2 = random_cone_element(rng, allow_zero=False)
        prod = e1 * e2
        if prod.is_zero:
            continue
        assert mult_along_c2(prod) == mult_along_c2(e1) + mult_along_c2(e2)


# -- restriction to the curve -------------------------------------------------


def test_restrict_examples():
    r = restrict_cone(ConeSection(2, ConeElement.one()))
    assert r == BranchRestriction("u", 2, upoly("u^-1"))
    assert r.pole_order == 1
    r2 = restrict_cone(ConeSection(4, ConeElement(uvpoly("u^2"))))
    assert r2 == BranchRestriction("u", 4, upoly("1"))
    assert r2.pole_order == 0
    r3 = restrict_cone(ConeSection(2, ConeElement.monomial(0, 0, 1)))
    assert r3.h.is_zero


def test_two_routes_agree():
    rng = Random(59)
    for m in range(1, 7):
        section = ConeSection(2 * m, ConeElement.one())
        assert restrict_cone(section) == restrict_cone_log_frame(section)
        assert restrict_cone(section) == BranchRestriction(
            "u", 2 * m, LaurentPolynomial.monomial(("u",), {"u": -m})
        )
    for _ in range(120):
        m = rng.randrange(1, 5)
        section = ConeSection(2 * m, random_cone_element(rng))
        assert restrict_cone(section) == restrict_cone_log_frame(section)


def test_restriction_pole_formula():
    for m in range(1, 7):
        for k in range(0, 7):
            section = ConeSection(2 * m, ConeElement.monomial(k, 0))
            assert restrict_cone(section).pole_order == max(0, m - k)


def test_illegal_pole():
    v_inverse = LaurentPolynomial.monomial(UV, {"v": -1})
    # a pole in the c0 part, and one in the c1 part only: v^-1*w
    for meromorphic in (
        ConeElement(v_inverse),
        ConeElement(LaurentPolynomial.zero(UV), v_inverse),
    ):
        with pytest.raises(NegativeExponentAtRestriction):
            restrict_cone(ConeSection(2, meromorphic))
        with pytest.raises(NegativeExponentAtRestriction):
            restrict_cone_log_frame(ConeSection(2, meromorphic))


def _restriction_or_raise(route, section):
    try:
        return route(section)
    except NegativeExponentAtRestriction:
        return "raises"


def test_two_routes_agree_on_many_term_products():
    # parts above exactalg's column constant, so both routes substitute and
    # shift on the column path; a v^-k term in one factor may leave a pole
    rng = Random(71)
    raised = 0
    for _ in range(60):
        def part(low):
            terms = {}
            for _ in range(rng.randint(6, 14)):
                terms[(rng.randint(0, 5), rng.randint(low, 5))] = rng.choice([1, -2, 3])
            return LaurentPolynomial(UV, terms)

        low = rng.choice([0, 0, -2])
        g = ConeElement(part(low), part(0))
        h = ConeElement(part(0), part(low))
        product = g * h
        assert min(len(product.c0.support()), len(product.c1.support())) > _COLUMN_TERMS
        section = ConeSection(2 * rng.randint(1, 6), product)
        chart = _restriction_or_raise(restrict_cone, section)
        assert chart == _restriction_or_raise(restrict_cone_log_frame, section)
        raised += chart == "raises"
    assert 10 < raised < 50, raised


# -- both routes against plain data -------------------------------------------------
#
# The expected restriction is worked out on {(a, b): Fraction} dicts with no
# exactalg: c0 + c1*w restricts to the curve iff no term of c0 or c1 carries
# v^-k (its chart image has t^(2b) or t^(2b+1), b < 0), and then to
# c0(u, 0)*u^-m; u^a*v^b*w^r goes to s^(2a+r)*t^(2b+r) in the chart.


def plain_mul(f, g, lift=0):
    out = {}
    for (a1, b1), x in f.items():
        for (a2, b2), y in g.items():
            key = (a1 + a2 + lift, b1 + b2 + lift)
            out[key] = out.get(key, 0) + x * y
    return out


def plain_add(f, g):
    out = dict(f)
    for key, c in g.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def plain_cone_product(g, h):
    """(c0, c1) of (g0 + g1*w)(h0 + h1*w) with w^2 = u*v."""
    c0 = plain_add(plain_mul(g[0], h[0]), plain_mul(g[1], h[1], lift=1))
    c1 = plain_add(plain_mul(g[0], h[1]), plain_mul(g[1], h[0]))
    return c0, c1


def plain_restriction(c0, c1, m):
    """({u-exponent: coeff} of c0(u, 0)*u^-m, its pole order), or None if
    some term has a pole along the curve."""
    if any(b < 0 for part in (c0, c1) for _, b in part):
        return None
    h = {a - m: c for (a, b), c in c0.items() if b == 0}
    return h, max(0, -min(h, default=0))


def test_both_routes_match_plain_data_on_many_term_products():
    rng = Random(101)
    outcomes = {"raised": 0, "pole": 0, "no pole": 0}
    for _ in range(100):
        def part(low):
            terms = {}
            for _ in range(rng.randint(4, 12)):
                exps = (rng.randint(0, 5), rng.randint(low, 5))
                terms[exps] = Fraction(rng.choice([-5, -2, 1, 3]), rng.choice([1, 2, 3, 7]))
            return terms

        low = rng.choice([0, 0, -2])
        g, h = (part(low), part(0)), (part(0), part(low))
        c0, c1 = plain_cone_product(g, h)
        cone = lambda pair: ConeElement(*(LaurentPolynomial(UV, p) for p in pair))
        product = cone(g) * cone(h)
        chart = {(2 * a, 2 * b): c for (a, b), c in c0.items()}
        chart.update({(2 * a + 1, 2 * b + 1): c for (a, b), c in c1.items()})
        assert to_chart(product).poly.terms() == chart
        m = rng.randint(1, 12)
        section = ConeSection(2 * m, product)
        want = plain_restriction(c0, c1, m)
        for route in (restrict_cone, restrict_cone_log_frame):
            got = _restriction_or_raise(route, section)
            if want is None:
                assert got == "raises"
                continue
            assert (got.curve_var, got.weight) == ("u", 2 * m)
            assert got.h.terms() == {(e,): c for e, c in want[0].items()}
            assert got.pole_order == want[1]
        # the c1 part of the log-frame route only checks for a pole
        try:
            kept = product.c1.restrict_substituted(_LOG_FRAME, "w", (-m, 1))
        except NegativeExponentAtRestriction:
            assert want is None
        else:
            assert kept.is_zero
        outcomes["raised" if want is None else "pole" if want[1] else "no pole"] += 1
    assert min(outcomes.values()) > 10, outcomes


def test_weight_must_be_even():
    with pytest.raises(ValueError):
        ConeSection(3, ConeElement.one())
    with pytest.raises(ValueError):
        ConeSection(-2, ConeElement.one())


# -- pole bounds ----------------------------------------------------------------


def test_pole_bound_s2():
    assert pole_bound_s2(0) == 0
    assert pole_bound_s2(1) == 1
    assert pole_bound_s2(4) == 4
    for m in range(1, 8):
        assert pole_bound_s2(m) == m


def test_glued_pole_bound():
    for m in range(1, 11):
        assert glued_pole_bound(m) == 0
        assert glued_pole_bound(m) <= pole_bound_s2(m)
    with pytest.raises(ValueError):
        glued_pole_bound(0)


def test_pole_bounds_read_the_weight_as_an_int():
    # a float weight is refused, not rounded or carried through; a bool
    # counts as its int
    for bound in (pole_bound_s2, glued_pole_bound):
        for bad in (2.5, 2.0):
            with pytest.raises(TypeError):
                bound(bad)
        assert bound(True) == bound(1)


def test_cone_section_reads_its_weight_as_an_int():
    # 2.0 would pass here and fail only in ``restrict_cone``, on the
    # non-integer shift (-1.0,); a bool weight is stored as its int
    with pytest.raises(TypeError):
        ConeSection(2.0, ConeElement.one())
    assert type(ConeSection(False, ConeElement.one()).weight) is int
    with pytest.raises(ValueError):
        ConeSection(True, ConeElement.one())


def test_cone_values_refuse_operands_of_another_type():
    one = ConeElement.one()
    for bad in (2, 1, None, uvpoly("u")):
        for op in (add, sub, mul):
            with pytest.raises(TypeError, match="^unsupported operand"):
                op(one, bad)
    with pytest.raises(TypeError, match="^c0 None is not a LaurentPolynomial$"):
        ConeElement(None)
    with pytest.raises(TypeError, match="^c1 'x' is not a LaurentPolynomial$"):
        ConeElement(uvpoly("u"), "x")
    with pytest.raises(TypeError, match="^coefficient 'x' is not a ConeElement$"):
        ConeSection(2, "x")
    with pytest.raises(TypeError, match="^coefficient .* is not a ConeElement$"):
        ConeSection(2, uvpoly("u"))


def test_cone_element_arithmetic():
    w = ConeElement.monomial(0, 0, 1)
    assert w * w == ConeElement(uvpoly("u*v"))
    e = ConeElement(uvpoly("u + v"), uvpoly("1"))
    assert e - e == ConeElement.zero()
    assert str(ConeElement.monomial(1, 0, 1)) == "(u)*w"
