"""Curve, lattice, and binary-form tests."""

from fractions import Fraction
from random import Random

import pytest

from nccanon.exactalg import parse_polynomial
from nccanon.geomcheck import (
    ECCurve,
    ECPoint,
    INFINITY,
    IntersectionLattice,
    NotSquarefree,
    WeightedHyperellipticCurve,
    binary_forms_share_root,
    ec_add,
    fixed_points,
    genus2_pencil_lattice,
    h0_p1,
    linear_equiv,
    nc_pullback_degree,
    node_count,
    points_with_x_in,
    poly_gcd,
    product_ample,
    product_canonical_bidegree,
    rational_sqrt,
    sigma_node_disjoint,
)

TORSION_CURVE = ECCurve(-1, 0)


def branch_curve(src: str) -> WeightedHyperellipticCurve:
    return WeightedHyperellipticCurve.from_branch_poly(
        parse_polynomial(src, ("x", "y"))
    )


# -- elliptic curves -----------------------------------------------------------


def test_ec_point_refuses_one_missing_coordinate():
    # only the point at infinity has no coordinates, and it has neither
    for x, y in ((Fraction(1), None), (None, Fraction(0))):
        with pytest.raises(ValueError, match="both coordinates or neither"):
            ECPoint(x, y)
    assert ECPoint(None, None) == INFINITY


def test_ec_add_examples():
    p, q = TORSION_CURVE.point(0, 0), TORSION_CURVE.point(1, 0)
    assert ec_add(TORSION_CURVE, p, q) == TORSION_CURVE.point(-1, 0)
    assert ec_add(TORSION_CURVE, p, INFINITY) == p
    assert ec_add(TORSION_CURVE, p, p) == INFINITY


def test_ec_point_validation():
    with pytest.raises(ValueError):
        TORSION_CURVE.point(2, 2)
    with pytest.raises(ValueError):
        ECCurve(0, 0)


def test_group_properties():
    rng = Random(61)
    pools = []
    for curve, xs in (
        (TORSION_CURVE, [-1, 0, 1]),
        (ECCurve(0, 1), [-1, 0, 2]),
        (ECCurve(0, -2), [3]),
    ):
        pool = [INFINITY] + points_with_x_in(curve, xs)
        for p in list(pool):
            for q in list(pool):
                s = ec_add(curve, p, q)
                if s not in pool:
                    pool.append(s)
        pools.append((curve, pool))
    triples = 0
    for curve, pool in pools:
        for _ in range(40):
            p, q, r = (pool[rng.randrange(len(pool))] for _ in range(3))
            assert ec_add(curve, ec_add(curve, p, q), r) == ec_add(
                curve, p, ec_add(curve, q, r)
            )
            assert ec_add(curve, p, q) == ec_add(curve, q, p)
            inverse = p if p == INFINITY else ECPoint(p.x, -p.y)
            assert ec_add(curve, p, inverse) == INFINITY
            triples += 1
    assert triples >= 100


def test_ec_add_tangent():
    curve = ECCurve(0, -2)
    p = curve.point(3, 5)
    assert ec_add(curve, p, p).x == Fraction(129, 100)


def oracle_ec_add(curve, p, q):
    """The textbook chord-tangent law, every step a Fraction operation."""
    if p == INFINITY:
        return q
    if q == INFINITY:
        return p
    if p.x == q.x and p.y == -q.y:
        return INFINITY
    if p == q:
        slope = (3 * p.x * p.x + curve.a) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    return ECPoint(x3, slope * (p.x - x3) - p.y)


def ec_add_kind(p, q):
    if INFINITY in (p, q):
        return "identity"
    if p.x == q.x:
        if p.y == q.y:
            return "2-torsion-double" if p.y == 0 else "tangent"
        return "inverse"
    return "chord"


def test_ec_add_matches_fraction_oracle():
    # the pools of cli._associativity_sample, closed under one round of sums
    pools = []
    for curve, xs in (
        (ECCurve(-1, 0), [-1, 0, 1, 2, 3]),
        (ECCurve(0, 1), [-1, 0, 1, 2]),
        (ECCurve(0, -2), [3]),
        (TORSION_CURVE, [-1, 0, 1]),
    ):
        pool = [INFINITY] + points_with_x_in(curve, xs)
        for p in list(pool):
            for q in list(pool):
                s = oracle_ec_add(curve, p, q)
                if s not in pool:
                    pool.append(s)
        pools.append((curve, pool))
    # on y^2 = x^3 - 2, the multiples of (3, 5) up to 6*(3, 5) and their
    # negatives, whose coordinates run to many digits
    curve = ECCurve(0, -2)
    multiples = [curve.point(3, 5)]
    while len(multiples) < 6:
        multiples.append(oracle_ec_add(curve, multiples[-1], multiples[0]))
    assert len(str(multiples[-1].y.numerator)) > 30
    pools.append((curve, [INFINITY, *multiples, *(ECPoint(p.x, -p.y) for p in multiples)]))
    kinds = {}
    for curve, pool in pools:
        for p in pool:
            for q in pool:
                got, want = ec_add(curve, p, q), oracle_ec_add(curve, p, q)
                assert got == want, (curve, p, q)
                if got != INFINITY:
                    assert type(got.x) is type(got.y) is Fraction
                    assert curve.contains(got.x, got.y)
                kind = ec_add_kind(p, q)
                kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"identity", "inverse", "2-torsion-double", "tangent", "chord"}
    assert min(kinds.values()) >= 3, kinds


def test_linear_equiv_examples():
    p1, p2 = TORSION_CURVE.point(0, 0), TORSION_CURVE.point(1, 0)
    q1, q2 = TORSION_CURVE.point(-1, 0), INFINITY
    assert linear_equiv(TORSION_CURVE, p1, p2, q1, q2)
    assert linear_equiv(TORSION_CURVE, p1, p2, p1, p2)
    assert not linear_equiv(TORSION_CURVE, p1, p2, p1, INFINITY)


def test_linear_equiv_is_equivalence():
    pts = [INFINITY] + points_with_x_in(TORSION_CURVE, [-1, 0, 1])
    pairs = [(a, b) for a in pts for b in pts]
    for a, b in pairs:
        assert linear_equiv(TORSION_CURVE, a, b, a, b)
    rng = Random(67)
    for _ in range(80):
        (a, b), (c, d), (e, f) = (pairs[rng.randrange(len(pairs))] for _ in range(3))
        if linear_equiv(TORSION_CURVE, a, b, c, d):
            assert linear_equiv(TORSION_CURVE, c, d, a, b)
            if linear_equiv(TORSION_CURVE, c, d, e, f):
                assert linear_equiv(TORSION_CURVE, a, b, e, f)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


# -- intersection lattices ------------------------------------------------------


def base_lattice() -> IntersectionLattice:
    return IntersectionLattice(
        ("K", "Fp", "Fq"),
        ((0, 2, 2), (2, 0, 0), (2, 0, 0)),
    )


def test_blowup_bookkeeping():
    lattice = base_lattice().blowup({"Fp": 1}, "E")
    assert lattice.pair("E", "E") == -1
    # strict transform meets the exceptional curve once
    assert lattice.pair("Fp", "E") == 1
    # K' . E = (K + E) . E = -1
    assert lattice.pair("K", "E") == -1
    assert lattice.pair("Fq", "E") == 0


def test_blowup_point_off_listed_curves():
    before = base_lattice()
    after = before.blowup({}, "E")
    # classes not through the center are untouched (K moves to K + E)
    for a in ("Fp", "Fq"):
        for b in ("Fp", "Fq"):
            assert after.pair(a, b) == before.pair(a, b)
    assert after.pair("E", "E") == -1
    assert after.pair("Fp", "E") == 0
    assert after.pair("K", "E") == -1
    assert after.pair("K", "Fp") == before.pair("K", "Fp")


def test_blowup_preserves_pullback_pairing():
    before = base_lattice()
    after = before.blowup({"Fp": 1}, "E1").blowup({"Fq": 1}, "E2")
    n = len(after.basis)
    for i, a in enumerate(before.basis):
        for j, b in enumerate(before.basis):
            va = tuple(1 if k == i else 0 for k in range(n))
            vb = tuple(1 if k == j else 0 for k in range(n))
            assert after.pair(va, vb) == before.pair(a, b)


def test_blowup_name_collision_and_validation():
    lattice = base_lattice()
    with pytest.raises(ValueError):
        lattice.blowup({"Fp": 1}, "K")
    with pytest.raises(ValueError):
        lattice.blowup({"K": 1}, "E")
    with pytest.raises(ValueError):
        lattice.blowup({"nope": 1}, "E")
    with pytest.raises(ValueError):
        lattice.blowup({"Fp": -1}, "E")


def test_boundary_degrees():
    lattice = genus2_pencil_lattice()
    boundary = ("Fp", "Fq", "Ep1", "Ep2", "Eq1", "Eq2")
    for name in ("Eq1", "Eq2", "Ep1", "Ep2"):
        assert nc_pullback_degree(lattice, boundary, name) == -1
    # on the strict transforms the boundary-twisted degree stays nonnegative
    assert nc_pullback_degree(lattice, boundary, "Fp") == 4
    assert nc_pullback_degree(lattice, boundary, "Fq") == 4
    # before blowing up: (K + Fp + Fq) . Fp = K.Fp = 2
    assert nc_pullback_degree(base_lattice(), ("Fp", "Fq"), "Fp") == 2


# -- binary forms ------------------------------------------------------------------


def test_fixed_points_examples():
    assert fixed_points(branch_curve("x^6 + 2*y^6")) == 6
    assert fixed_points(branch_curve("x^3*y + x*y^3")) == 4
    with pytest.raises(NotSquarefree):
        fixed_points(branch_curve("x^2*y^4"))


def test_genus_from_degree():
    assert branch_curve("x^6 + 2*y^6").genus == 2
    assert branch_curve("x^3*y + x*y^3").genus == 1


def test_node_count():
    c = branch_curve("x^6 + 2*y^6")
    e = branch_curve("x^3*y + x*y^3")
    assert node_count(c, e) == 24
    assert fixed_points(c) == 6
    assert node_count(e, e) == 16


def test_sigma_node_disjoint():
    assert sigma_node_disjoint(branch_curve("x^6 + 2*y^6"))
    assert not sigma_node_disjoint(branch_curve("x*y"))
    with pytest.raises(NotSquarefree):
        sigma_node_disjoint(branch_curve("x^2*y^4"))


def test_binary_forms_share_root():
    # x*y and x^2 + y^2 have no common projective root
    assert not binary_forms_share_root((0, 1, 0), (1, 0, 1))
    assert binary_forms_share_root((0, 1, 0), (0, 0, 1))
    # both vanishing at (1:0)
    assert binary_forms_share_root((0, 1), (0, 2))


def test_poly_gcd():
    # (t-1)(t+1) and (t-1): gcd is monic t-1
    assert poly_gcd((-1, 0, 1), (-1, 1)) == (Fraction(-1), Fraction(1))
    assert poly_gcd((1,), (0, 1)) == (Fraction(1),)
    assert poly_gcd((), (0, 2)) == (Fraction(0), Fraction(1))
    assert poly_gcd((), ()) == ()


def test_integer_coefficients_divide_exactly():
    # LaurentPolynomial stores integral coefficients as int; the divisions
    # downstream of it must still be exact, never float
    curve = branch_curve("x^6 + 2*y^6")
    assert [type(c) for c in curve.coeffs] == [Fraction] * 7
    assert curve.coeffs == (1, 0, 0, 0, 0, 0, 2)
    gcd = poly_gcd((1, 0, -1), (-1, 1))
    assert gcd == (-1, 1)
    assert [type(c) for c in gcd] == [Fraction, Fraction]


def test_squarefree_edge_cases():
    # odd-degree forms are rejected at construction
    with pytest.raises(ValueError):
        branch_curve("x^3 + y^3")
    with pytest.raises(ValueError):
        WeightedHyperellipticCurve((0, 0, 0))
    # y^2 * (...) has a double root at (1:0)
    assert not branch_curve("x^2*y^2 + y^4").is_squarefree()
    assert branch_curve("x^4 + y^4").is_squarefree()


def squarefree_by_dehomogenizing(coeffs) -> bool:
    """f has no root (1:0) of multiplicity > 1, and f(t, 1) is coprime
    to its derivative."""
    at_infinity = next(i for i, c in enumerate(coeffs) if c)
    p = tuple(reversed(coeffs))
    derivative = tuple(i * c for i, c in enumerate(p))[1:]
    return at_infinity <= 1 and len(poly_gcd(p, derivative)) <= 1


def form_product(f, g):
    """The product of two binary forms, coefficients x-degree descending."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_squarefree_matches_dehomogenizing_oracle():
    rng = Random(61)
    # planted squared linear factors (a*x + b*y)^2, y^2 among them
    squares = [(1, 0), (0, 1), (1, 1), (2, -3)]
    forms = [[1] + [0] * d for d in (2, 4, 6, 8)]
    forms += [[0] * d + [Fraction(-1, 2)] for d in (2, 4, 6, 8)]
    forms += [form_product((a * a, 2 * a * b, b * b), [1, 0, 1]) for a, b in squares]
    while len(forms) < 600:
        d = rng.choice((2, 4, 6, 8))
        if rng.random() < 0.4:
            a, b = rng.choice(squares + [(rng.randrange(-3, 4), rng.randrange(1, 4))])
            rest = [rng.randrange(-3, 4) for _ in range(d - 1)]
            form = form_product((a * a, 2 * a * b, b * b), rest)
        else:
            form = [rng.randrange(-3, 4) for _ in range(d + 1)]
        if any(form):
            forms.append(form)
    verdicts = set()
    for form in forms:
        expected = squarefree_by_dehomogenizing(form)
        assert WeightedHyperellipticCurve(form).is_squarefree() is expected, form
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_ample_and_h0():
    assert product_canonical_bidegree(2, 1) == (2, 2)
    assert product_ample((2, 2))
    assert not product_ample((0, 5))
    assert not product_ample((2, 0))
    assert h0_p1(-4) == 0
    assert h0_p1(0) == 1
    assert h0_p1(3) == 4
    for m in range(1, 6):
        assert h0_p1(-4 * m) == 0
