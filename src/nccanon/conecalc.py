"""Pluricanonical sections on the quadric cone u*v = w^2.

Ring elements on the cone are kept in the normal form c0(u,v) + c1(u,v)*w,
reducing every w^2 to u*v.  The cone is uniformized by the degree-2 chart
(s,t) -> (u,v,w) = (s^2, t^2, s*t); images of cone elements are exactly the
(s,t) -> (-s,-t)-invariant polynomials, i.e. those with every term of even
total degree.  Routing all computations through this chart turns each step
into a polynomial substitution with a checkable invariance, which is how
the sign conventions stay coherent.

The marked curve is (v = w = 0), the image of (t = 0); note that v itself
cuts the curve doubly while w cuts it once.  A section of even weight 2m is

    coeff * ((du^dw)/u)^{2m} * v^{-m},

and restricting it to the curve goes through the chart: the generator pulls
back to 2^{2m} * (ds^dt)^{2m} * t^{-2m} = 2^{2m} * ((ds^dt)/t)^{2m}, whose
residue along (t=0) is 2^{2m} (ds)^{2m}; rewriting on the curve coordinate
u = s^2 (du = 2s ds) gives u^{-m} (du)^{2m}.  With coefficient 1 the
restriction therefore carries a pole of order exactly m.  An independent
route through local coordinates (u, w) on the cone (v = w^2/u) must agree,
and both are implemented.

Finally, gluing a smooth chart to the cone along the curve caps the pole:
a cone coefficient survives only if the smooth side, which reaches only
pole-free restrictions, reaches its restriction, so the lowest surviving
power u^m restricts without a pole, for every m.
"""

from __future__ import annotations

from functools import reduce
from itertools import starmap
from operator import add, index, or_

from .exactalg import LaurentPolynomial, MonomialSubstitution, _Frozen, _store
from .logres import SMOOTH_PAIR, BranchRestriction, Gluing, MonomialMap

# re-exported: the benchmark tracer's self-test (bench/test_bench.py) checks
# that a wrapped ``logres.restrict`` is rebound at this import site as well
from .logres import restrict  # noqa: F401

_UV = ("u", "v")
_ST = ("s", "t")

# the chart maps of ``to_chart`` and of ``restrict_cone_log_frame``
_TO_CHART = MonomialSubstitution(_UV, _ST, {"u": {"s": 2}, "v": {"t": 2}})
_LOG_FRAME = MonomialSubstitution(_UV, ("u", "w"), {"u": {"u": 1}, "v": {"u": -1, "w": 2}})

# the factor u*v of g1*h1 in a product's w^0 part (w^2 = u*v)
_UV_FACTOR = LaurentPolynomial.monomial(_UV, {"u": 1, "v": 1})


class ConeElement(_Frozen):
    """c0 + c1*w in the coordinate ring of the cone, w^2 reduced to u*v."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: LaurentPolynomial,
                 c1: LaurentPolynomial = LaurentPolynomial.zero(_UV)) -> None:
        if not isinstance(c0, LaurentPolynomial):
            raise TypeError(f"c0 {c0!r} is not a LaurentPolynomial")
        if not isinstance(c1, LaurentPolynomial):
            raise TypeError(f"c1 {c1!r} is not a LaurentPolynomial")
        if c0.variables != _UV or c1.variables != _UV:
            raise ValueError("cone elements live over the variables (u, v)")
        _store(self, "c0", c0)
        _store(self, "c1", c1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ConeElement":
        return cls(LaurentPolynomial.zero(_UV))

    @classmethod
    def one(cls) -> "ConeElement":
        return cls(LaurentPolynomial.constant(_UV, 1))

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 0) -> "ConeElement":
        """u^a * v^b * w^c, reduced to normal form."""
        if min(a, b, c) < 0:
            raise ValueError("cone monomials have nonnegative exponents")
        k, r = divmod(c, 2)
        body = LaurentPolynomial.monomial(_UV, {"u": a + k, "v": b + k})
        if r == 0:
            return cls(body)
        return cls(LaurentPolynomial.zero(_UV), body)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.c0.is_zero and self.c1.is_zero

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ConeElement") -> "ConeElement":
        if not isinstance(other, ConeElement):
            return NotImplemented
        return ConeElement(self.c0 + other.c0, self.c1 + other.c1)

    def __neg__(self) -> "ConeElement":
        return ConeElement(-self.c0, -self.c1)

    def __sub__(self, other: "ConeElement") -> "ConeElement":
        if not isinstance(other, ConeElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "ConeElement") -> "ConeElement":
        """(g0 + g1*w)(h0 + h1*w) = g0*h0 + u*v*g1*h1 + (g0*h1 + g1*h0)*w.

        Each part is one ``LaurentPolynomial.sum_of_products``, so neither
        the four products nor their sums are built on the way.
        """
        if not isinstance(other, ConeElement):
            return NotImplemented
        g0, g1, h0, h1 = self.c0, self.c1, other.c0, other.c1
        c0 = LaurentPolynomial.sum_of_products(((g0, h0), (_UV_FACTOR * g1, h1)))
        c1 = LaurentPolynomial.sum_of_products(((g0, h1), (g1, h0)))
        return ConeElement(c0, c1)

    def __str__(self) -> str:
        if self.c1.is_zero:
            return str(self.c0)
        if self.c0.is_zero:
            return f"({self.c1})*w"
        return f"{self.c0} + ({self.c1})*w"

    def __repr__(self) -> str:
        return f"ConeElement({self!s})"


class ChartElement(_Frozen):
    """Image of a cone element in the double-cover chart (s,t)."""

    __slots__ = ("poly",)

    def __init__(self, poly: LaurentPolynomial) -> None:
        if poly.variables != _ST:
            raise ValueError("chart elements live over the variables (s, t)")
        # every term's degree s + t is even iff their bitwise or is
        support = poly.support()
        if reduce(or_, starmap(add, support), 0) & 1:
            odd = next(exps for exps in support if sum(exps) % 2)
            raise ValueError(f"term with exponents {odd} is not (-1,-1)-invariant")
        _store(self, "poly", poly)


def to_chart(element: ConeElement) -> ChartElement:
    """Substitute u = s^2, v = t^2, w = s*t.

    The image c0(s^2, t^2) + c1(s^2, t^2)*s*t is one
    ``LaurentPolynomial.sum_substituted`` pass over both parts, the c1 part
    shifted by s*t; no part's image is built on its own.
    """
    parts = ((element.c0, None), (element.c1, (1, 1)))
    return ChartElement(LaurentPolynomial.sum_substituted(_TO_CHART, parts))


def mult_along_c2(element: ConeElement) -> int:
    """Order of vanishing along the curve (v = w = 0), computed in the chart."""
    if element.is_zero:
        raise ValueError("the zero element has no vanishing order")
    chart = to_chart(element).poly
    low = chart.low_degree_in("t")
    assert low is not None
    return low


class ConeSection(_Frozen):
    """coeff * ((du^dw)/u)^weight * v^(-weight/2); the weight is even."""

    __slots__ = ("weight", "coeff")

    def __init__(self, weight: int, coeff: ConeElement) -> None:
        weight = index(weight)
        if weight < 0 or weight % 2 != 0:
            raise ValueError("cone sections carry even nonnegative weight")
        if not isinstance(coeff, ConeElement):
            raise TypeError(f"coefficient {coeff!r} is not a ConeElement")
        _store(self, "weight", weight)
        _store(self, "coeff", coeff)

    @property
    def half_weight(self) -> int:
        return self.weight // 2


def _even_substitute(poly_s: LaurentPolynomial, target: str, shift: int) -> LaurentPolynomial:
    # rewrite s^(2k) -> target^(k + shift); all exponents must be even
    out = {}
    for exps, c in poly_s.terms().items():
        (e,) = exps
        if e % 2 != 0:
            raise ValueError(f"odd exponent {e} cannot descend to the curve")
        out[(e // 2 + shift,)] = c
    return LaurentPolynomial((target,), out)


def restrict_cone(section: ConeSection) -> BranchRestriction:
    """Restrict a cone section to the curve, through the double-cover chart.

    The generator contributes ((ds^dt)/t)^{2m} after pullback (the powers
    of 2 cancel against du = 2s ds), so the coefficient relative to the log
    frame is the chart image itself; it must be holomorphic across (t=0),
    else ``NegativeExponentAtRestriction`` is raised.  Its restriction
    descends from s^2 to u, and the pole u^-m comes in as the shift of that
    descent, not as a pass of its own.
    """
    m = section.half_weight
    along = to_chart(section.coeff).poly.restrict_var("t")
    # residue sign of ((ds^dt)/t)^{2m} is (-1)^{2m}: always +1 at even weight
    h = _even_substitute(along, "u", -m)
    return BranchRestriction("u", section.weight, h)


def restrict_cone_log_frame(section: ConeSection) -> BranchRestriction:
    """Independent route: local coordinates (u, w) on the cone, v = w^2/u.

    Rewriting the generator over the log frame ((du^dw)/w)^{2m} multiplies
    the coefficient by w^{2m} u^{-2m} v^{-m} = u^{-m}; the residue along
    (w=0) of that frame is (-du)^{2m}.  The c0 image shifted by u^-m and
    the c1 image shifted by u^-m*w under ``_LOG_FRAME`` (u -> u,
    v -> u^-1*w^2) are restricted each on its own by
    ``LaurentPolynomial.restrict_substituted``, which builds only the terms
    that w = 0 keeps, each already shifted, and the two restrictions summed.
    """
    m = section.half_weight
    # w = 0 on each part before the sum: every w-exponent of the c0 image is
    # even (v -> u^-1*w^2) and every one of the shifted c1 image odd, so no
    # term of one cancels a term of the other, the terms of the sum are those
    # of the two parts, and restricting the parts raises exactly when
    # restricting the sum does.  The kernel raises exactly where the composed
    # path does; the c1 part keeps no term, so it only checks for a pole.
    part0 = section.coeff.c0.restrict_substituted(_LOG_FRAME, "w", (-m, 0))
    part1 = section.coeff.c1.restrict_substituted(_LOG_FRAME, "w", (-m, 1))
    along = part0 + part1
    # the residue sign of (-du)^{2m} is +1: the weight is even
    return BranchRestriction("u", section.weight, along)


# the numbers come from the chart, which sends u^a v^b w^r (normal form,
# r in {0, 1}) to s^(2a+r) t^(2b+r): normal (0, 2, 1) along (t=0); of the
# t-exponent 0 terms only u^a = s^(2a) is left, lowered by the half weight m
CONE_MAP = MonomialMap((0, 2, 1), 1, 1)

# the cone curve at half weight m, glued by u = x to the smooth branch (y=0) at 2m
CONE_GLUING = Gluing(
    CONE_MAP, MonomialMap.of(SMOOTH_PAIR.variables, SMOOTH_PAIR.branch("y")), 2)


def pole_bound_s2(m: int) -> int:
    """Largest pole order the cone side can produce at weight 2m: the pole
    of the ``CONE_MAP`` image of the coefficient 1 at half weight m."""
    m = index(m)
    if m < 0:
        raise ValueError("m must be >= 0")
    return max(0, -CONE_MAP.image((0, 0, 0), m)[1])


def glued_pole_bound(m: int) -> int:
    """Largest pole of a restriction achievable on both sides of ``CONE_GLUING``:
    that of u^``rise``, the least power whose image the smooth side reaches."""
    m = index(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    rise, cone = CONE_GLUING.rise(m), CONE_GLUING.near
    return max(0, -cone.image(tuple(rise * a for a in cone.along), m)[1])
