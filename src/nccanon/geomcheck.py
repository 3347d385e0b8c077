"""Desk-scale global checks: curves, lattices, and binary forms.

Three independent toolkits live here, all over exact rationals.

Elliptic curves y^2 = x^3 + a*x + b carry the chord-tangent group law;
linear equivalence of two degree-2 point pairs is decided by comparing
group sums (the degree-0 classes agree iff the sums do).

An intersection lattice is a free Z-module with named basis classes, a
symmetric pairing, and a distinguished canonical class K.  Blowing up a
point extends the basis by an exceptional class E with E.E = -1 orthogonal
to pulled-back classes, replaces the listed curve classes by their strict
transforms D - mult*E, and moves K to K + E.  Fiber relations such as
F.F = 0 and K.F from adjunction are supplied as inputs: only the
bookkeeping is mechanized, not the existence of the surface.

Binary forms f(x,y) stand in for double covers z^2 = f: the branch points
are the projective roots of f, counted once f is squarefree.  One test
decides every root question: two forms share a projective root iff the gcd
of their dehomogenizations is not constant or both vanish at infinity.  It
decides squarefreeness, since by Euler's relation x*f_x + y*f_y = d*f a
repeated root of f is a shared root of its partials; "the involution moves
every node off itself"; and base-point-freeness of a pair of forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping, Sequence

from .exactalg import LaurentPolynomial, _Frozen, _store


class NotSquarefree(Exception):
    """The branch form has a repeated projective root."""


# ---------------------------------------------------------------------------
# elliptic curves
# ---------------------------------------------------------------------------


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class ECCurve(_Frozen):
    """Nonsingular Weierstrass curve y^2 = x^3 + a*x + b over the rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int, b: Fraction | int) -> None:
        a, b = Fraction(a), Fraction(b)
        if 4 * a**3 + 27 * b**2 == 0:
            raise ValueError("curve is singular: 4a^3 + 27b^2 = 0")
        _store(self, "a", a)
        _store(self, "b", b)

    def contains(self, x: Fraction, y: Fraction) -> bool:
        return y * y == x**3 + self.a * x + self.b

    def point(self, x: Fraction | int, y: Fraction | int) -> "ECPoint":
        x, y = Fraction(x), Fraction(y)
        if not self.contains(x, y):
            raise ValueError(f"({x}, {y}) is not on y^2 = x^3 + {self.a}x + {self.b}")
        return ECPoint(x, y)

    def __str__(self) -> str:
        return f"y^2 = x^3 + ({self.a})*x + ({self.b})"


class ECPoint(_Frozen):
    """An affine point or the point at infinity (x = y = None)."""

    __slots__ = ("x", "y")

    def __init__(self, x: Fraction | None, y: Fraction | None) -> None:
        if (x is None) != (y is None):
            raise ValueError(f"a point has both coordinates or neither, got ({x}, {y})")
        _store(self, "x", x)
        _store(self, "y", y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        return "inf" if self.is_infinity else f"({self.x}, {self.y})"


INFINITY = ECPoint(None, None)


def ec_add(curve: ECCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-tangent group sum; infinity is the identity.

    The sum is infinity when q = -p, doubling a point with y = 0 included.
    Otherwise the slope is (y2 - y1)/(x2 - x1), or (3x^2 + a)/(2y) when
    p = q, and the sum is (s^2 - x1 - x2, s*(x1 - x3) - y1) (Silverman, The
    Arithmetic of Elliptic Curves, III.2).  Each rational is read once as
    its integer ratio, every step is integer arithmetic on numerator and
    denominator, and only the two coordinates of the sum become Fractions.
    """
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    (x1, d1), (y1, e1) = p.x.as_integer_ratio(), p.y.as_integer_ratio()
    (x2, d2), (y2, e2) = q.x.as_integer_ratio(), q.y.as_integer_ratio()
    if x1 * d2 == x2 * d1:
        if y1 * e2 != y2 * e1 or not y1:
            return INFINITY
        a, c = curve.a.as_integer_ratio()
        top, bottom = (3 * x1 * x1 * c + a * d1 * d1) * e1, 2 * y1 * d1 * d1 * c
    else:
        top, bottom = (y2 * e1 - y1 * e2) * d1 * d2, (x2 * d1 - x1 * d2) * e1 * e2
    # the slope is top/bottom; y3 reads x3 in lowest terms
    square = bottom * bottom
    x3 = Fraction(top * top * d1 * d2 - square * (x1 * d2 + x2 * d1), square * d1 * d2)
    n3, m3 = x3.as_integer_ratio()
    y3 = Fraction(
        top * (x1 * m3 - n3 * d1) * e1 - y1 * bottom * d1 * m3, bottom * d1 * m3 * e1
    )
    return ECPoint(x3, y3)


def linear_equiv(
    curve: ECCurve, p1: ECPoint, p2: ECPoint, q1: ECPoint, q2: ECPoint
) -> bool:
    """Whether p1 + p2 and q1 + q2 are linearly equivalent divisors."""
    return ec_add(curve, p1, p2) == ec_add(curve, q1, q2)


def points_with_x_in(curve: ECCurve, xs: Iterable[Fraction | int]) -> list[ECPoint]:
    """All affine rational points over the given x-coordinates."""
    found = []
    for x in xs:
        x = Fraction(x)
        y = rational_sqrt(x**3 + curve.a * x + curve.b)
        if y is None:
            continue
        found.append(ECPoint(x, y))
        if y != 0:
            found.append(ECPoint(x, -y))
    return found


# ---------------------------------------------------------------------------
# intersection lattices and blow-ups
# ---------------------------------------------------------------------------


class IntersectionLattice:
    """Named divisor classes with a symmetric integer pairing and a class K."""

    def __init__(
        self,
        basis: Sequence[str],
        pairing: Sequence[Sequence[int]],
        classes: Mapping[str, Sequence[int]] | None = None,
    ) -> None:
        self.basis = tuple(basis)
        n = len(self.basis)
        self.matrix = tuple(tuple(int(x) for x in row) for row in pairing)
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("pairing matrix must be square over the basis")
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValueError("pairing matrix must be symmetric")
        if classes is None:
            classes = {
                name: tuple(1 if k == i else 0 for k in range(n))
                for i, name in enumerate(self.basis)
            }
        self.classes = {
            name: tuple(int(c) for c in vec) for name, vec in classes.items()
        }
        for name, vec in self.classes.items():
            if len(vec) != n:
                raise ValueError(f"class {name!r} has wrong length")
        if "K" not in self.classes:
            raise ValueError("canonical class 'K' is not defined")

    def pair(self, left: str | Sequence[int], right: str | Sequence[int]) -> int:
        lv = self.classes[left] if isinstance(left, str) else tuple(left)
        rv = self.classes[right] if isinstance(right, str) else tuple(right)
        return sum(
            lv[i] * self.matrix[i][j] * rv[j]
            for i in range(len(self.basis))
            for j in range(len(self.basis))
        )

    def blowup(
        self, center_incidences: Mapping[str, int], exceptional: str
    ) -> "IntersectionLattice":
        """Blow up a point lying on the listed classes with given multiplicities.

        Listed classes become strict transforms D - mult*E; the canonical
        class becomes K + E; everything else is pulled back unchanged.
        """
        if exceptional in self.basis or exceptional in self.classes:
            raise ValueError(f"name {exceptional!r} is already in use")
        for name, mult in center_incidences.items():
            if name not in self.classes:
                raise ValueError(f"unknown class {name!r}")
            if name == "K":
                raise ValueError("the canonical class is not a blow-up center datum")
            if mult < 0:
                raise ValueError("multiplicities must be >= 0")
        n = len(self.basis)
        new_basis = self.basis + (exceptional,)
        new_matrix = [
            [self.matrix[i][j] for j in range(n)] + [0] for i in range(n)
        ]
        new_matrix.append([0] * n + [-1])
        new_classes: dict[str, tuple[int, ...]] = {}
        for name, vec in self.classes.items():
            ext = vec + (0,)
            if name == "K":
                ext = vec + (1,)
            elif name in center_incidences:
                ext = vec + (-center_incidences[name],)
            new_classes[name] = ext
        new_classes[exceptional] = (0,) * n + (1,)
        return IntersectionLattice(new_basis, new_matrix, new_classes)


def nc_pullback_degree(
    lattice: IntersectionLattice, boundary: Iterable[str], target: str
) -> int:
    """(K + sum of boundary classes) . target"""
    vec = list(lattice.classes["K"])
    for name in boundary:
        vec = [a + b for a, b in zip(vec, lattice.classes[name])]
    return lattice.pair(vec, target)


def genus2_fibration_lattice() -> IntersectionLattice:
    """K and the two fibers Fp, Fq of a fibration with K.F = 2, F.F = 0.

    K.K is not used by any degree computed here and is set to 0.
    """
    return IntersectionLattice(
        ("K", "Fp", "Fq"),
        (
            (0, 2, 2),
            (2, 0, 0),
            (2, 0, 0),
        ),
    )


def genus2_pencil_lattice() -> IntersectionLattice:
    """The fibration lattice with four points of the two fibers blown up.

    The four exceptional classes Eq1, Eq2 (centers on Fp) and Ep1, Ep2
    (centers on Fq) are appended in that order.
    """
    lattice = genus2_fibration_lattice().blowup({"Fp": 1}, "Eq1")
    lattice = lattice.blowup({"Fp": 1}, "Eq2")
    lattice = lattice.blowup({"Fq": 1}, "Ep1")
    lattice = lattice.blowup({"Fq": 1}, "Ep2")
    return lattice


# ---------------------------------------------------------------------------
# binary forms and double covers
# ---------------------------------------------------------------------------


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_rem(
    num: tuple[Fraction, ...], den: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    rem = list(num)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        factor = rem[k + len(den) - 1] / lead
        for i, d in enumerate(den):
            rem[k + i] -= factor * d
    return _trim(rem)


def poly_gcd(
    p: Sequence[Fraction | int], q: Sequence[Fraction | int]
) -> tuple[Fraction, ...]:
    """Monic gcd of two univariate polynomials over the rationals.

    Coefficient sequences are low-to-high; the zero polynomial is ().
    """
    a = _trim([Fraction(c) for c in p])
    b = _trim([Fraction(c) for c in q])
    while b:
        a, b = b, _poly_rem(a, b)
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)


class WeightedHyperellipticCurve(_Frozen):
    """Double cover z^2 = f(x,y) of the projective line, f of even degree.

    ``coeffs[i]`` is the coefficient of x^(d-i) * y^i.  The genus is
    (deg f - 2)/2 once f is squarefree.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int]) -> None:
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) < 3 or (len(coeffs) - 1) % 2 != 0:
            raise ValueError("branch form must have even degree >= 2")
        if all(c == 0 for c in coeffs):
            raise ValueError("branch form must be nonzero")
        _store(self, "coeffs", coeffs)

    @classmethod
    def from_branch_poly(cls, poly: LaurentPolynomial) -> "WeightedHyperellipticCurve":
        """Build from a homogeneous polynomial in two variables."""
        if len(poly.variables) != 2:
            raise ValueError("branch form needs exactly two variables")
        terms = poly.terms()
        if not terms:
            raise ValueError("branch form must be nonzero")
        degrees = {sum(e) for e in terms}
        if len(degrees) != 1:
            raise ValueError("branch form must be homogeneous")
        d = degrees.pop()
        coeffs = [Fraction(0)] * (d + 1)
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError("branch form must be a polynomial")
            coeffs[j] = c
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def genus(self) -> int:
        return (self.degree - 2) // 2

    def is_squarefree(self) -> bool:
        """Whether f has no repeated projective root.

        By Euler's relation x*f_x + y*f_y = d*f (d >= 2), f has a repeated
        root iff its partials share one; a partial that vanishes
        identically leaves f a pure power c*x^d or c*y^d.
        """
        d = self.degree
        f_x = tuple((d - i) * c for i, c in enumerate(self.coeffs[:-1]))
        f_y = tuple(i * c for i, c in enumerate(self.coeffs) if i)
        return any(f_x) and any(f_y) and not binary_forms_share_root(f_x, f_y)


def fixed_points(curve: WeightedHyperellipticCurve) -> int:
    """Number of fixed points of the cover involution = distinct roots of f."""
    if not curve.is_squarefree():
        raise NotSquarefree(f"branch form {curve.coeffs} has a repeated root")
    return curve.degree


def node_count(
    curve_c: WeightedHyperellipticCurve, curve_e: WeightedHyperellipticCurve
) -> int:
    """A1 points of the diagonal involution quotient of the product."""
    return fixed_points(curve_c) * fixed_points(curve_e)


def binary_forms_share_root(
    f: Sequence[Fraction | int], g: Sequence[Fraction | int]
) -> bool:
    """Whether two binary forms (coefficient lists, x-degree descending)
    have a common projective root."""
    if not any(f) or not any(g):
        raise ValueError("forms must be nonzero")
    # f(t, 1) and g(t, 1) low-to-high; (1:0) is a common root iff both
    # leading x-coefficients vanish
    return len(poly_gcd(f[::-1], g[::-1])) > 1 or f[0] == g[0] == 0


def sigma_node_disjoint(curve: WeightedHyperellipticCurve) -> bool:
    """Whether the swap (x:y) -> (y:x) moves every root of f off the roots.

    Decided exactly by the shared-root test on f and the swapped form.
    Raises NotSquarefree, through ``fixed_points``, if f has a repeated root.
    """
    fixed_points(curve)
    return not binary_forms_share_root(curve.coeffs, curve.coeffs[::-1])


# ---------------------------------------------------------------------------
# ampleness on a product and sections on the line
# ---------------------------------------------------------------------------


def product_ample(bidegree: tuple[int, int]) -> bool:
    """Ampleness of a class on a product of two curves, by factor degrees."""
    d1, d2 = bidegree
    return d1 > 0 and d2 > 0


def h0_p1(d: int) -> int:
    """Dimension of the space of degree-d forms on the projective line."""
    return max(d + 1, 0)


def product_canonical_bidegree(genus_first: int, genus_second: int) -> tuple[int, int]:
    """Bidegree of the canonical class twisted by the two glued fibers.

    On a product of curves of the given genera with the two glued
    horizontal fibers added, the restriction to the factors has degrees
    (2g1 - 2, 2g2 - 2 + 2) = (2g1 - 2, 2g2).
    """
    return (2 * genus_first - 2, 2 * genus_second)
