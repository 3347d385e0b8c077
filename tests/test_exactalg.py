"""Arithmetic-layer tests: exact ring operations, restriction, parsing."""

import copy
import pickle
import re
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add
from random import Random

import pytest

from nccanon import exactalg
from nccanon.cli import CheckRecord, Report, Scenario
from nccanon.conecalc import (ChartElement, ConeElement, ConeSection, _even_substitute,
                              to_chart)
from nccanon.exactalg import (
    LaurentPolynomial,
    MonomialSubstitution,
    NegativeExponentAtRestriction,
    ParseError,
    UnknownVariable,
    VariableMismatch,
    divides,
    parse_polynomial,
)
from nccanon.geomcheck import ECCurve, ECPoint, WeightedHyperellipticCurve
from nccanon.logres import (
    HALF_PLANE_U,
    NC_PAIR,
    BranchMatch,
    BranchRestriction,
    BranchRule,
    ChartModel,
    EmbeddingAssignment,
    Gluing,
    MonomialMap,
    PlaneEmbedding,
    PluriSection,
)
from nccanon.monideal import (
    AffineExponent,
    GradedMonomialFamily,
    MonomialIdeal,
    ReesGenerationReport,
    parse_family,
    rees_report,
)

XY = ("x", "y")
BOTH_TO_S = {"x": {"s": 1}, "y": {"s": 1}}


def poly(src: str, variables=XY) -> LaurentPolynomial:
    return parse_polynomial(src, variables)


def random_poly(rng: Random, variables=XY, max_terms=4) -> LaurentPolynomial:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(-2, 4) for _ in variables)
        terms[exps] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return LaurentPolynomial(variables, terms)


# -- pinned operation examples ------------------------------------------------


def test_add_examples():
    assert poly("x + y") + poly("x - y") == poly("2*x")
    p = poly("3*x^2*y - 1/2*y")
    assert p + LaurentPolynomial.zero(XY) == p
    assert poly("x^-1") + poly("-x^-1") == LaurentPolynomial.zero(XY)


def test_mul_examples():
    assert poly("x + y") * poly("x - y") == poly("x^2 - y^2")
    assert poly("x^-1") * poly("x") == poly("1")
    assert poly("x*y") * poly("x*y") == poly("x^2*y^2")


def test_restrict_examples():
    assert poly("x^2*y + x*y^3").restrict_var("x") == LaurentPolynomial.zero(("y",))
    assert poly("x^2 + y").restrict_var("x") == poly("y", ("y",))
    with pytest.raises(NegativeExponentAtRestriction):
        poly("x^-1*y").restrict_var("x")


def test_divides_examples():
    assert divides((1, 1), (2, 3))
    assert not divides((2, 0), (1, 1))
    assert divides((0, 0), (5, 7))
    with pytest.raises(ValueError):
        divides((-1, 0), (1, 1))
    with pytest.raises(VariableMismatch):
        divides((1,), (1, 1))


# -- ring axioms on randomized inputs ----------------------------------------


def test_ring_axioms():
    rng = Random(7)
    for _ in range(200):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_restrict_is_ring_morphism():
    rng = Random(11)
    checked = 0
    for _ in range(300):
        p, q = random_poly(rng), random_poly(rng)
        try:
            lhs = (p * q).restrict_var("x")
            rhs = p.restrict_var("x") * q.restrict_var("x")
        except NegativeExponentAtRestriction:
            continue
        assert lhs == rhs
        checked += 1
    assert checked > 50


def test_parse_print_round_trip():
    rng = Random(17)
    for _ in range(200):
        p = random_poly(rng)
        assert parse_polynomial(str(p), XY) == p


# -- printing ----------------------------------------------------------------


def test_printer_format():
    assert str(poly("y^2 - x^2")) == "-x^2 + y^2"
    assert str(poly("x + x")) == "2*x"
    assert str(poly("1/2*x*y + 3")) == "1/2*x*y + 3"
    assert str(LaurentPolynomial.monomial(XY, {"y": -1})) == "y^-1"
    assert str(LaurentPolynomial.zero(XY)) == "0"
    # graded lex: higher degree first, then lexicographically larger exponents
    assert str(poly("y^2 + x*y + 1 + x^2 + y + x")) == "x^2 + x*y + y^2 + x + y + 1"


def test_parse_errors():
    with pytest.raises(ParseError):
        poly("x +")
    with pytest.raises(ParseError):
        poly("x^")
    with pytest.raises(ParseError):
        poly("x $ y")
    with pytest.raises(UnknownVariable):
        poly("x + z")
    with pytest.raises(ParseError):
        poly("x^1/2")


# -- chart plumbing ----------------------------------------------------------


def test_substitute_monomials():
    uv = ("u", "v")
    p = poly("u + v", uv)
    to_chart = MonomialSubstitution(uv, ("s", "t"), {"u": {"s": 2}, "v": {"t": 2}})
    image = p.substitute_monomials(to_chart)
    assert image == poly("s^2 + t^2", ("s", "t"))
    q = poly("v", uv)
    laurent = q.substitute_monomials(MonomialSubstitution(uv, ("u", "w"), UW_IMAGES))
    assert laurent == LaurentPolynomial.monomial(("u", "w"), {"u": -1, "w": 2})
    # a renaming is an injective substitution
    h = poly("v1^2 + 1", ("v1",))
    to_y = MonomialSubstitution(("v1",), ("y",), {"v1": {"y": 1}})
    assert h.substitute_monomials(to_y) == poly("y^2 + 1", ("y",))
    with pytest.raises(ValueError):
        MonomialSubstitution(uv, ("u", "w"), {"u": {"u": 0.5}, "v": {}})
    # an image for a name that is not a source variable is a mistake
    with pytest.raises(UnknownVariable, match="'z'"):
        MonomialSubstitution(uv, ("u", "w"), {"u": {"u": 1}, "v": {}, "z": {"w": 1}})


def test_monomial_substitution_checks_its_images_once():
    # each error the per-call image check raised, with its message
    uv, uw = ("u", "v"), ("u", "w")
    bad = [
        (uw, {"u": {"u": 1}, "v": {"w": 1}, "z": {}}, UnknownVariable,
         "'z' not among ('u', 'v')"),
        (uw, {"u": {"u": 1}}, UnknownVariable, "no image given for 'v'"),
        (uw, {"u": {"u": 1}, "v": {"z": 1}}, UnknownVariable, "'z' not among ('u', 'w')"),
        (uw, {"u": {"u": 1}, "v": {"w": 0.5}}, ValueError,
         "non-integer exponent 0.5 in image of 'v'"),
        (("u", "u"), {"u": {"u": 1}, "v": {"u": 1}}, ValueError,
         "duplicate variable names in ('u', 'u')"),
    ]
    for target, images, error, message in bad:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            MonomialSubstitution(uv, target, images)
    # the nonzero entries by source variable and by target variable
    log_frame = MonomialSubstitution(uv, uw, UW_IMAGES)
    assert log_frame.rows == (((0, 1),), ((0, -1), (1, 2)))
    assert log_frame.columns == (((0, 1), (1, -1)), ((1, 2),))
    assert log_frame == MonomialSubstitution(list(uv), iter(uw), UW_IMAGES)
    with pytest.raises(AttributeError):
        log_frame.rows = ()


def test_substitute_monomials_is_ring_morphism():
    rng = Random(19)
    images = {"x": {"s": 2}, "y": {"s": -1, "t": 1}}
    to_st = MonomialSubstitution(XY, ("s", "t"), images)
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        sub = lambda f: f.substitute_monomials(to_st)
        assert sub(p * q) == sub(p) * sub(q)
        assert sub(p + q) == sub(p) + sub(q)


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        poly("x") + poly("u1", ("u1", "v1"))


# -- validating constructor ----------------------------------------------------


def test_inexact_coefficients_rejected():
    with pytest.raises(TypeError):
        LaurentPolynomial(("x",), {(1,): 0.1})
    with pytest.raises(TypeError):
        LaurentPolynomial(("x",), {(1,): "1/3"})
    with pytest.raises(TypeError):
        LaurentPolynomial.constant(XY, 0.5)
    with pytest.raises(TypeError):
        LaurentPolynomial.monomial(XY, {"x": 1}, "2")
    exact = LaurentPolynomial(("x",), {(1,): Fraction(1, 3), (0,): 2})
    assert exact == poly("1/3*x + 2", ("x",))
    assert LaurentPolynomial.constant(XY, Fraction(1, 2)) == poly("1/2")


def test_coefficient_checks_exponent_length():
    p = poly("3*x*y + 1")
    assert p.coefficient((1, 1)) == 3
    missing = p.coefficient((2, 0))
    assert missing == 0 and type(missing) is int
    with pytest.raises(VariableMismatch):
        p.coefficient((1,))
    with pytest.raises(VariableMismatch):
        p.coefficient((1, 0, 0))
    # exponents are checked as the constructor checks them
    assert p.coefficient((True, True)) == 3
    for bad in ((1.0, 1), (0.5, 0), (1, "1")):
        with pytest.raises(ValueError, match="non-integer exponent"):
            p.coefficient(bad)


def test_duplicate_variable_guards():
    # renaming x to y over (x, y) repeats the target name y
    with pytest.raises(ValueError):
        MonomialSubstitution(XY, ("y", "y"), {"x": {"y": 1}, "y": {"y": 1}})
    with pytest.raises(ValueError):
        MonomialSubstitution(XY, ("s", "s"), {"x": {"s": 1}, "y": {}})
    with pytest.raises(ValueError):
        MonomialSubstitution(("x", "x"), ("s",), {"x": {"s": 1}})


def _value_builders() -> dict:
    """A builder of a fresh instance for each value class of the package."""
    uv, st = ("u", "v"), ("s", "t")
    return {
        LaurentPolynomial: lambda: poly("x - 1/2*y^-1"),
        MonomialSubstitution: lambda: MonomialSubstitution(XY, ("s",), BOTH_TO_S),
        MonomialIdeal: lambda: MonomialIdeal(XY, [(1, 1), (2, 0), (1, 2)]),
        AffineExponent: lambda: AffineExponent(2, -1),
        GradedMonomialFamily: lambda: parse_family("x*y, x^m, y^(2*m-1)"),
        ReesGenerationReport: lambda: rees_report(parse_family("x*y, x^m, y^m"), 4),
        BranchRule: lambda: BranchRule("x", "y", 1, True),
        ChartModel: lambda: ChartModel("c", XY, (BranchRule("y", "x", -1, False),)),
        PluriSection: lambda: PluriSection(NC_PAIR, 2, poly("x*y")),
        BranchRestriction: lambda: BranchRestriction("y", 2, poly("y^-2", ("y",))),
        MonomialMap: lambda: MonomialMap((0, 1), (1, 0), 1, -1),
        Gluing: lambda: Gluing(
            MonomialMap((0, 1), (1, 0), 1, -1), MonomialMap((1, 0), (0, 1), 0, 1), 2
        ),
        BranchMatch: lambda: BranchMatch(
            NC_PAIR.branch("x"), HALF_PLANE_U, HALF_PLANE_U.branch("u1")
        ),
        PlaneEmbedding: lambda: PlaneEmbedding((1, 2), (1, -1)),
        EmbeddingAssignment: lambda: EmbeddingAssignment(
            tuple(PlaneEmbedding((i, 3), (1, 1)) for i in range(3))
        ),
        ConeElement: lambda: ConeElement(poly("u*v", uv), poly("2", uv)),
        ChartElement: lambda: ChartElement(poly("s*t - t^-2", st)),
        ConeSection: lambda: ConeSection(4, ConeElement.one()),
        ECCurve: lambda: ECCurve(-1, 0),
        ECPoint: lambda: ECPoint(Fraction(1), Fraction(0)),
        WeightedHyperellipticCurve: lambda: WeightedHyperellipticCurve((1, 0, 2)),
        CheckRecord: lambda: CheckRecord("a", "1", "1", "pass"),
        Report: lambda: Report([CheckRecord("a", "1", "1", "pass")]),
        Scenario: lambda: Scenario("all", 4),
    }


def test_values_are_frozen_and_hash_by_value():
    builders = _value_builders()
    # every class on the shared frozen base is covered
    assert set(builders) == set(exactalg._Frozen.__subclasses__())
    values = {cls: build() for cls, build in builders.items()}
    for cls, build in builders.items():
        value, twin = values[cls], build()
        assert type(value) is cls
        # a field, and a name that is no field
        for name in (*cls.__slots__, "foo"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == twin and value is not twin
        assert not value != twin
        assert hash(value) == hash(twin)
        # rebuilt past the guard, not refused by it
        for copied in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(copied) is cls and copied == value
        # == holds within one class only
        for other in values.values():
            assert (value == other) is (other is value)
    # the same field values in two classes, and one field apart in one
    assert AffineExponent(1, 0) != ECPoint(1, 0)
    assert AffineExponent(1, 0) != AffineExponent(1, 1)
    assert BranchRestriction("y", 2, poly("y", ("y",))) != BranchRestriction(
        "y", 3, poly("y", ("y",))
    )
    assert repr(BranchRule("x", "y", 1, True)) == (
        "BranchRule(zero_var='x', param_var='y', residue_sign=1, log_pole=True)"
    )
    assert repr(PlaneEmbedding((1, 2), (1, -1))) == "PlaneEmbedding(axes=(1, 2), signs=(1, -1))"


def test_value_constructors_take_keywords_and_defaults():
    uv = ("u", "v")
    pole = poly("x^-1*y")
    section = PluriSection(model=NC_PAIR, weight=1, coeff=pole, meromorphic=True)
    assert section.meromorphic is True and section.coeff == pole
    with pytest.raises(ValueError, match="pass meromorphic=True"):
        PluriSection(NC_PAIR, 1, pole)
    c0 = poly("u + v", uv)
    assert ConeElement(c0) == ConeElement(c0=c0, c1=LaurentPolynomial.zero(uv))
    assert ConeElement(c0).c1 == LaurentPolynomial.zero(uv)
    assert Scenario("all") == Scenario(task="all", max_degree=10, family=None)
    assert MonomialSubstitution(source=XY, target=("s",), images=BOTH_TO_S) == (
        MonomialSubstitution(XY, ("s",), BOTH_TO_S)
    )
    # a report starts empty, and keeps its records as a tuple of its own
    assert Report() == Report([]) and Report().records == ()
    records = [CheckRecord("a", "1", "1", "pass")]
    report = Report(records)
    records.append(CheckRecord("b", "1", "2", "fail"))
    assert report.records == (CheckRecord("a", "1", "1", "pass"),) and report.passed
    missing_or_extra = (
        lambda: BranchRestriction("y", 2),
        lambda: AffineExponent(1, 2, 3),
        lambda: AffineExponent(1, 2, scale=3),
        lambda: ConeElement(),
        lambda: PluriSection(NC_PAIR, 1, pole, True, 0),
        lambda: Scenario(),
        lambda: Scenario("all", task="all"),
        lambda: MonomialSubstitution(XY, ("s",)),
        lambda: ECPoint(1),
        lambda: CheckRecord("a", "1", "1"),
        lambda: Report((), ()),
    )
    for call in missing_or_extra:
        with pytest.raises(TypeError):
            call()


# -- canonical coefficient form -----------------------------------------------


def test_constructor_stores_integral_coefficients_as_int():
    p = LaurentPolynomial(
        XY, {(1, 0): Fraction(4, 2), (0, 1): True, (0, 0): Fraction(1, 3)}
    )
    assert_reduced(p)
    assert p.terms() == {(1, 0): 2, (0, 1): 1, (0, 0): Fraction(1, 3)}
    # two keys that name the same exponent vector are summed
    half = Fraction(1, 2)
    halves = LaurentPolynomial(("x",), {(1,): half, range(1, 2): half})
    assert_reduced(halves)
    assert halves.terms() == {(1,): 1}
    # a sum that cancels the term which needed the denominator 3
    thirds = {(1,): Fraction(1, 3), range(1, 2): Fraction(-1, 3), (2,): Fraction(1, 2)}
    assert_reduced(LaurentPolynomial(("x",), thirds))
    # bool exponents, like bool coefficients, become plain ints
    flags = LaurentPolynomial(XY, {(True, False): True})
    assert_normalised(flags)
    assert flags.terms() == {(1, 0): 1}


def test_integral_results_of_fractions_are_stored_as_int():
    half = poly("3/2*x + 1/2*y")
    results = {
        "scalar": (half * Fraction(2, 3), {(1, 0): 1, (0, 1): Fraction(1, 3)}),
        "mul": (
            half * poly("2/3*x + 2*y"),
            {(2, 0): 1, (1, 1): Fraction(10, 3), (0, 2): 1},
        ),
        "shifted-restriction": (
            lift(half).restrict_var("w", (0, 1), Fraction(2, 3)),
            {(1, 1): 1, (0, 2): Fraction(1, 3)},
        ),
        "add": (half + poly("1/2*x + 1/2*y"), {(1, 0): 2, (0, 1): 1}),
        "substitute": (
            half.substitute_monomials(MonomialSubstitution(XY, ("s",), BOTH_TO_S)),
            {(1,): 2},
        ),
    }
    for name, (got, terms) in results.items():
        assert_normalised(got)
        assert got.terms() == terms, name


def test_coefficient_form_is_invisible():
    as_fraction = LaurentPolynomial(XY, {(1, 0): Fraction(3), (0, -1): Fraction(-1)})
    as_int = LaurentPolynomial(XY, {(1, 0): 3, (0, -1): -1})
    assert as_fraction == as_int == poly("3*x - y^-1")
    assert hash(as_fraction) == hash(as_int)
    assert str(as_fraction) == str(as_int) == "3*x - y^-1"


# -- one common denominator ----------------------------------------------------


def test_common_denominator_examples():
    # restriction drops y/3, which set the denominator 6, and keeps 6
    half_x = poly("1/2*x", ("x",))
    kept = poly("1/2*x + 1/3*y").restrict_var("y")
    assert_normalised(kept)
    assert kept._den == 6
    assert kept.terms() == {(1,): Fraction(1, 2)}
    assert kept.coefficient((1,)) == Fraction(1, 2)
    assert type(kept.coefficient((1,))) is Fraction
    assert str(kept) == "1/2*x"
    assert kept == half_x and half_x == kept and hash(kept) == hash(half_x)
    # an int scalar that shares a factor with the denominator
    sixth = poly("1/6*x")
    for got, want in ((sixth * 3, "1/2*x"), (3 * sixth, "1/2*x"), (sixth * -6, "-x")):
        assert_reduced(got)
        assert got == poly(want) and str(got) == want
    assert (sixth * 6).terms() == {(1, 0): 1}
    # a Fraction shift coefficient, through a restriction and a one-term product
    third = poly("1/3*x + 2/3*y")
    for shifted in (lift(third).restrict_var("w", (1, 0), Fraction(3, 2)),
                    third * poly("3/2*x")):
        assert_reduced(shifted)
        assert shifted.terms() == {(2, 0): Fraction(1, 2), (1, 1): 1}
    # substitution collisions: summed numerators, reduced against 6
    both_to_s = MonomialSubstitution(XY, ("s",), BOTH_TO_S)
    collided = poly("1/6*x + 1/3*y + 1/2*y^2").substitute_monomials(both_to_s)
    assert_reduced(collided)
    assert collided.terms() == {(1,): Fraction(1, 2), (2,): Fraction(1, 2)}
    cancelled = poly("1/6*x - 1/6*y + 2*x^2").substitute_monomials(both_to_s)
    assert_reduced(cancelled)
    assert cancelled.terms() == {(2,): 2}
    # a collision-free substitution keeps the denominator, reduced or not
    moved = kept.substitute_monomials(MonomialSubstitution(("x",), ("s",), {"x": {"s": 2}}))
    assert moved._den == 6 and moved.terms() == {(2,): Fraction(1, 2)}
    renamed = kept.substitute_monomials(MonomialSubstitution(("x",), ("s",), {"x": {"s": 1}}))
    assert renamed._den == 6 and renamed.terms() == {(1,): Fraction(1, 2)}


def test_equal_values_hash_alike_across_construction_routes():
    target = poly("1/2*x^2 - 3*y + 5/6")
    xyz = XY + ("z",)
    routes = {
        "constructor": LaurentPolynomial(
            XY, {(2, 0): Fraction(1, 2), (0, 1): Fraction(-6, 2), (0, 0): Fraction(5, 6)}
        ),
        "sum": poly("1/4*x^2 + 1/3") + poly("1/4*x^2 - 3*y + 1/2"),
        "difference": poly("x^2 - 3*y") - poly("1/2*x^2 - 5/6"),
        "product": poly("3*x^2 - 18*y + 5") * poly("1/6 + 1/6*x") - poly(
            "1/2*x^3 - 3*x*y + 5/6*x"
        ),
        "scalar": poly("3/4*x^2 - 9/2*y + 5/4") * Fraction(2, 3),
        "restriction": LaurentPolynomial(
            xyz,
            {(2, 0, 0): Fraction(1, 2), (0, 1, 0): -3, (0, 0, 0): Fraction(5, 6),
             (0, 0, 1): Fraction(1, 7)},
        ).restrict_var("z"),
        "shifted-restriction": lift(poly("1/2*x^3 - 3*x*y + 5/6*x")).restrict_var(
            "w", (-1, 0)
        ),
        "substitution": poly("1/2*u - 3*v + 5/6", ("u", "v")).substitute_monomials(
            MonomialSubstitution(("u", "v"), XY, {"u": {"x": 2}, "v": {"y": 1}})
        ),
        "renaming": poly("1/2*a^2 - 3*y + 5/6", ("a", "y")).substitute_monomials(
            MonomialSubstitution(("a", "y"), XY, {"a": {"x": 1}, "y": {"y": 1}})
        ),
    }
    for name, p in routes.items():
        assert_normalised(p)
        assert p == target and target == p, name
        assert hash(p) == hash(target), name
        assert str(p) == str(target) and p.terms() == target.terms(), name
    assert routes["restriction"]._den != target._den
    assert len({target, *routes.values()}) == 1
    assert poly("1/2*x^2 - 3*y + 5/7") != target
    assert poly("1/2*x^2 - 3*y") != target


def test_constants_hash_like_the_numbers_they_equal():
    three = LaurentPolynomial.constant(XY, 3)
    assert three == 3 and hash(three) == hash(3) and len({three, 3}) == 1
    half = LaurentPolynomial.constant(XY, Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(1, 2)}) == 1
    # over a denominator the value does not need
    spare_half = poly("1/2 + 1/3*y").restrict_var("y")
    assert spare_half._den == 6
    assert spare_half == Fraction(1, 2) and hash(spare_half) == hash(Fraction(1, 2))
    zero = LaurentPolynomial.zero(XY)
    assert zero == 0 and hash(zero) == hash(0) and len({zero, 0}) == 1
    spare_zero = poly("1/3*y").restrict_var("y")
    assert_normalised(spare_zero)
    assert spare_zero.is_zero and str(spare_zero) == "0"
    assert spare_zero == 0 and hash(spare_zero) == hash(0)
    assert spare_zero == LaurentPolynomial.zero(("x",))
    # a non-constant equals no number
    assert poly("x") != 1 and poly("1/2*x") != Fraction(1, 2)


# -- trusted term path against a slow oracle -----------------------------------
#
# The arithmetic hands its results to LaurentPolynomial._trusted, which skips
# every check of the public constructor.  The oracle recomputes each result
# from the terms with a naive dict formula and rebuilds it through the
# validating constructor, which sums repeated keys and drops zeros itself.

VARS = ("x", "y", "z")


def assert_normalised(p: LaurentPolynomial) -> None:
    """The stored form: nonzero int numerators over one int denominator >= 1,
    read back by ``terms()`` as ints and reduced non-integral Fractions."""
    assert len(set(p.variables)) == len(p.variables)
    den = p._den
    assert type(den) is int and den >= 1
    for exps, n in p._terms.items():
        assert type(exps) is tuple and len(exps) == len(p.variables)
        assert all(type(e) is int for e in exps)
        assert type(n) is int and n != 0
    terms = p.terms()
    assert terms == {e: Fraction(n, den) for e, n in p._terms.items()}
    for c in terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_reduced(p: LaurentPolynomial) -> None:
    """Normalised, and the denominator is the least one (the gcd of it and
    every numerator is 1), as products, sums and scalings leave it."""
    assert_normalised(p)
    assert gcd(p._den, *p._terms.values()) == 1


def small_coeff(rng: Random):
    return rng.choice([1, -1, Fraction(rng.randint(-4, 4), rng.randint(1, 4))])


# coprime denominators, and one above 2^64 (the Mersenne prime 2^89 - 1), so a
# product needs both factors' denominators
WIDE_DENOMINATORS = (7, 11, 13, 2**89 - 1)


def wide_coeff(rng: Random):
    if rng.random() < 0.3:
        return rng.choice([1, -1, 2, -5])
    numerator = rng.choice([-1, 1]) * rng.randint(1, 30)
    return Fraction(numerator, rng.choice(WIDE_DENOMINATORS))


def dense_poly(
    rng: Random, variables, max_terms=5, coeff=small_coeff
) -> LaurentPolynomial:
    # exponents in [-3, 3] and at most five terms keep collisions frequent
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randint(-3, 3) for _ in variables)
        terms[exps] = coeff(rng)
    return LaurentPolynomial(variables, terms)


def cancelling_pair(rng: Random, variables, middle):
    """f = a*M1 + b*M2 and g = c*M1*S + d*M2*S, with d chosen so that the
    coefficient a*d + b*c of M1*M2*S in f*g is ``middle``."""
    m1, m2 = rng.sample(range(-3, 4), 2)
    s = rng.randint(-2, 2)
    a, b, c = (wide_coeff(rng) for _ in range(3))
    d = Fraction(middle - b * c) / a
    mono = lambda e: (e,) + (0,) * (len(variables) - 1)
    f = LaurentPolynomial(variables, {mono(m1): a, mono(m2): b})
    g = LaurentPolynomial(variables, {mono(m1 + s): c, mono(m2 + s): d})
    return f, g


def oracle_map(p, variables, key=lambda e: e, scale=1):
    """Rebuild p term by term over ``variables``: key(exps) -> scale*coeff."""
    out = {}
    for e, c in p.terms().items():
        out[key(e)] = out.get(key(e), 0) + scale * c
    return LaurentPolynomial(variables, out)


def oracle_shift(p, shift, scale=1):
    """p times scale*(the monomial of exponents ``shift``), through oracle_map."""
    assert len(shift) == len(p.variables)
    return oracle_map(p, p.variables, lambda e: tuple(map(add, e, shift)), scale)


def lift(p):
    """p over its variables and a last one, w, with a w-term that a
    restriction to w = 0 drops; ``restrict_var("w")`` gives p back."""
    terms = {e + (0,): c for e, c in p.terms().items()}
    terms[(0,) * len(p.variables) + (1,)] = 5
    return LaurentPolynomial(p.variables + ("w",), terms)


def identity(variables):
    return MonomialSubstitution(variables, variables, {v: {v: 1} for v in variables})


def oracle_add(p, q):
    out = {}
    for f in (p, q):
        for e, c in f.terms().items():
            out[e] = out.get(e, 0) + c
    return LaurentPolynomial(p.variables, out)


def oracle_mul(p, q):
    out = {}
    for e1, c1 in p.terms().items():
        for e2, c2 in q.terms().items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return LaurentPolynomial(p.variables, out)


def oracle_restrict(p, var):
    i = p.variables.index(var)
    if any(e[i] < 0 for e in p.terms()):
        return None
    kept = {e: c for e, c in p.terms().items() if e[i] == 0}
    kept = LaurentPolynomial(p.variables, kept)
    rest = p.variables[:i] + p.variables[i + 1 :]
    return oracle_map(kept, rest, lambda e: e[:i] + e[i + 1 :])


def oracle_substitute(p, new_vars, images):
    out = {}
    for exps, c in p.terms().items():
        key = [0] * len(new_vars)
        for v, e in zip(p.variables, exps):
            for k, w in enumerate(new_vars):
                key[k] += e * images[v].get(w, 0)
        out[tuple(key)] = out.get(tuple(key), 0) + c
    return LaurentPolynomial(new_vars, out)


def random_images(rng: Random, variables, new_vars):
    return {
        v: {w: rng.randint(-2, 2) for w in new_vars if rng.random() < 0.7}
        for v in variables
    }


def unreduced(rng: Random, p: LaurentPolynomial) -> LaurentPolynomial:
    """p again, over a denominator its values need not: the term of a new
    variable w that set it is restricted away, and restriction keeps it."""
    lifted = {e + (0,): c for e, c in p.terms().items()}
    lifted[(0,) * len(p.variables) + (1,)] = Fraction(1, rng.choice((6, 7, 2**89 - 1)))
    return LaurentPolynomial(p.variables + ("w",), lifted).restrict_var("w")


# the draws whose result may keep a denominator that is not the least one:
# restriction and renaming keep the denominator they are given, and an int
# scalar meets it in one gcd only; every other result of the oracle draws is
# reduced
KEEPS_DENOMINATOR = {"restrict", "scalar-unreduced", "rename-unreduced"}


def test_trusted_path_matches_oracle():
    rng = Random(23)
    # the wide draw (own stream): coprime and huge denominators, int and
    # Fraction factors mixed, products cancelling to 0 and to integers
    wide = Random(41)
    restricted = spare = 0
    for _ in range(400):
        variables = VARS[: rng.randint(1, 3)]
        p, q = dense_poly(rng, variables), dense_poly(rng, variables)
        pw, qw = (dense_poly(wide, variables, coeff=wide_coeff) for _ in range(2))
        ints = dense_poly(wide, variables, coeff=lambda r: r.choice([-3, -1, 1, 2, 7]))
        f0, g0 = cancelling_pair(wide, variables, 0)
        fk, gk = cancelling_pair(wide, variables, wide.choice([-2, 1, 5]))
        mono = LaurentPolynomial.monomial(
            variables,
            {v: rng.randint(-3, 3) for v in variables},
            rng.choice([1, Fraction(-3, 2)]),
        )
        scalar = rng.choice([0, 1, -1, 3, Fraction(2, 7)])
        zero = LaurentPolynomial.zero(variables)
        results = {
            "add": (p + q, oracle_add(p, q)),
            "neg": (-p, oracle_map(p, variables, scale=-1)),
            "sub": (p - q, oracle_add(p, oracle_map(q, variables, scale=-1))),
            "mul": (p * q, oracle_mul(p, q)),
            "mul-monomial": (mono * p, oracle_mul(mono, p)),
            "mul-wide": (pw * qw, oracle_mul(pw, qw)),
            "mul-mixed": (pw * ints, oracle_mul(pw, ints)),
            "mul-to-0": (f0 * g0, oracle_mul(f0, g0)),
            "mul-to-int": (fk * gk, oracle_mul(fk, gk)),
            "scalar": (p * scalar, oracle_map(p, variables, scale=scalar)),
            "rscalar": (scalar * p, oracle_map(p, variables, scale=scalar)),
            "cancel-add": (p + (-p), zero),
            "cancel-sub": (p - p, zero),
            "times-0": (p * 0, zero),
            "times-1": (p * 1, p),
        }
        for new_vars in (("s",), ("s", "t")):
            images = random_images(rng, variables, new_vars)
            results[f"substitute-{len(new_vars)}"] = (
                p.substitute_monomials(MonomialSubstitution(variables, new_vars, images)),
                oracle_substitute(p, new_vars, images),
            )
        # the constructor reduces: each operand is over its least denominator
        for operand in (p, q, pw, qw, ints, f0, g0, fk, gk):
            assert_reduced(operand)
        # operands over a denominator larger than their values need
        pu, qu = unreduced(wide, pw), unreduced(wide, qw)
        for got, want in ((pu, pw), (qu, qw)):
            assert_normalised(got)
            assert got == want and want == got and hash(got) == hash(want)
            assert str(got) == str(want) and got.terms() == want.terms()
            spare += gcd(got._den, *got._terms.values()) > 1
        # a renaming is injective: it keeps the denominator, least or not
        renamed = ("r",) + variables[1:]
        rename = MonomialSubstitution(
            variables, renamed, {v: {r: 1} for v, r in zip(variables, renamed)}
        )
        renamed_pu = pu.substitute_monomials(rename)
        assert renamed_pu._den == pu._den
        results.update({
            "rename": (p.substitute_monomials(rename), oracle_map(p, renamed)),
            "rename-unreduced": (renamed_pu, oracle_map(pu, renamed)),
            "add-unreduced": (pu + qu, oracle_add(pu, qu)),
            "mul-unreduced": (pu * qu, oracle_mul(pu, qu)),
            "mul-unreduced-int": (pu * ints, oracle_mul(pu, ints)),
            "scalar-unreduced": (pu * scalar, oracle_map(pu, variables, scale=scalar)),
        })
        var = rng.choice(variables)
        expected = oracle_restrict(p, var)
        if expected is None:
            with pytest.raises(NegativeExponentAtRestriction):
                p.restrict_var(var)
        else:
            results["restrict"] = (p.restrict_var(var), expected)
            restricted += 1
        for name, (got, want) in results.items():
            check = assert_normalised if name in KEEPS_DENOMINATOR else assert_reduced
            check(got)
            assert got == want and hash(got) == hash(want), (name, p, q)
            assert str(got) == str(want), (name, p, q)
    assert restricted > 50
    assert spare > 200


def test_trusted_path_cancellation():
    xy = poly("x + y")
    # cross terms cancel in the product
    assert xy * poly("x - y") == poly("x^2 - y^2")
    # two variables sent to one monomial: terms collide and cancel
    collide = MonomialSubstitution(XY, ("s",), BOTH_TO_S)
    x_minus_y = poly("x - y")
    assert x_minus_y.substitute_monomials(collide) == LaurentPolynomial.zero(("s",))
    # negative powers of the images
    images = {"x": {"s": -1}, "y": {"s": 2, "t": -1}}
    negative = MonomialSubstitution(XY, ("s", "t"), images)
    sub = poly("x^-2*y + 1/2*x^3*y^-1").substitute_monomials(negative)
    assert sub == poly("s^4*t^-1 + 1/2*s^-5*t", ("s", "t"))
    for p in (xy * poly("x - y"), x_minus_y.substitute_monomials(collide), sub):
        assert_normalised(p)
    assert_normalised(xy * 0)
    assert xy * 1 is xy


# A shift is the offset of a shifted restriction or of a part of
# sum_substituted: the product with one monomial, which both must equal.


def test_shift_matches_validating_monomial_product(monkeypatch):
    rng = Random(37)
    for _ in range(400):
        variables = VARS[: rng.randint(1, 3)]
        p = dense_poly(rng, variables)
        exps = tuple(rng.randint(-3, 3) for _ in variables)
        coeff = rng.choice([0, 1, -1, 3, Fraction(-3, 2), Fraction(2, 7)])
        mono = LaurentPolynomial.monomial(variables, dict(zip(variables, exps)), coeff)
        want = oracle_mul(p, mono)
        got = on_both_paths(monkeypatch, lambda: lift(p).restrict_var("w", exps, coeff))
        assert got == p * mono == want, (p, exps, coeff)
        summed = on_both_paths(
            monkeypatch,
            lambda: LaurentPolynomial.sum_substituted(identity(variables), ((p * coeff, exps),)),
        )
        assert summed == want, (p, exps, coeff)


def test_shift_checks_its_arguments(monkeypatch):
    p = poly("x - 2*y")
    lifted = lift(p)
    got = on_both_paths(monkeypatch, lambda: lifted.restrict_var("w", (1, -1)))
    assert got == poly("x^2*y^-1 - 2*x")
    got = on_both_paths(
        monkeypatch, lambda: LaurentPolynomial.sum_substituted(identity(XY), ((p, (1, -1)),))
    )
    assert got == poly("x^2*y^-1 - 2*x")
    # a zero coefficient gives the zero polynomial, over 1
    zero = on_both_paths(monkeypatch, lambda: lifted.restrict_var("w", (3, 3), 0))
    assert zero == LaurentPolynomial.zero(XY) and zero._den == 1
    shifts = (
        lambda s: lifted.restrict_var("w", s),
        lambda s: LaurentPolynomial.sum_substituted(identity(XY), ((p, s),)),
    )
    for cut in (0, 10**9):
        monkeypatch.setattr(exactalg, "_COLUMN_TERMS", cut)
        for shifted in shifts:
            for bad in ((1,), (1, 0, 0), ()):
                with pytest.raises(VariableMismatch, match="does not fit"):
                    shifted(bad)
            with pytest.raises(ValueError, match="non-integer exponent"):
                shifted((1.0, 0))
        for coeff in (0.5, "2", None):
            with pytest.raises(TypeError, match="is not an int or Fraction"):
                lifted.restrict_var("w", (0, 0), coeff)
    monkeypatch.undo()


# -- restriction fused with a shift ----------------------------------------------
#
# restrict_var(var, shift, coeff) must equal restrict_var(var) with the shift
# and the scale applied as plain data, and raise the pole that restrict_var(var)
# raises.


def composed_shifted_restriction(p, var, shift, coeff):
    restricted = p.restrict_var(var)
    return oracle_shift(restricted, shift or (0,) * len(restricted.variables), coeff)


def test_fused_restriction_matches_composed_path(monkeypatch):
    rng = Random(79)
    outcomes = {"pole": 0, "zero": 0, "fraction": 0, "integral": 0}
    for _ in range(500):
        variables = VARS[: rng.randint(1, 3)]
        p = dense_poly(rng, variables, coeff=rng.choice([small_coeff, wide_coeff]))
        var = rng.choice(variables)
        i = variables.index(var)
        if rng.random() < 0.7:
            # most draws have no pole in var, and many keep the terms free of it
            p = oracle_map(p, variables, lambda e: e[:i] + (max(e[i], 0) // 2,) + e[i + 1 :])
        shift = rng.choice([None, tuple(rng.randint(-3, 3) for _ in variables[1:])])
        coeff = rng.choice([1, -1, 0, 3, Fraction(-3, 2), Fraction(2, 7), Fraction(6, 3)])
        try:
            want = composed_shifted_restriction(p, var, shift, coeff)
        except NegativeExponentAtRestriction as exc:
            for cut in (0, 10**9):
                monkeypatch.setattr(exactalg, "_COLUMN_TERMS", cut)
                with pytest.raises(NegativeExponentAtRestriction,
                                   match=f"^{re.escape(str(exc))}$"):
                    p.restrict_var(var, shift, coeff)
            monkeypatch.undo()
            outcomes["pole"] += 1
            continue
        # both kernels, also when the restriction is left over no variables
        got = on_both_paths(monkeypatch, lambda: p.restrict_var(var, shift, coeff))
        assert got.variables == want.variables
        assert got == want, (p, var, shift, coeff)
        rest = want.variables
        mono = LaurentPolynomial.monomial(rest, dict(zip(rest, shift or ())), coeff)
        assert got == oracle_mul(oracle_restrict(p, var), mono)
        # an integral coeff meets the denominator in one gcd; a fractional
        # one reduces it in full
        num, q = Fraction(coeff).as_integer_ratio()
        if q == 1:
            assert got._den == p._den // gcd(p._den, num)
        else:
            assert_reduced(got)
        if got.is_zero:
            outcomes["zero"] += 1
        else:
            outcomes["fraction" if got._den > 1 else "integral"] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_fused_restriction_checks_its_arguments():
    p = LaurentPolynomial(XY, {(1, 0): Fraction(1, 2), (0, 2): 3})
    pole = LaurentPolynomial(XY, {(-1, 1): 1, (0, 2): Fraction(2, 3)})
    bad_calls = [
        (pole, "x", (1,), 1, NegativeExponentAtRestriction,
         "term with x^-1 cannot be restricted to x=0"),
        (p, "z", (1,), 1, UnknownVariable, "'z' not among ('x', 'y')"),
        (p, "x", (1, 0), 1, VariableMismatch, "shift (1, 0) does not fit ('y',)"),
        (p, "x", (), 1, VariableMismatch, "shift () does not fit ('y',)"),
        (p, "x", (1.0,), 1, ValueError, "non-integer exponent in (1.0,)"),
        (p, "x", ("1",), 1, ValueError, "non-integer exponent in ('1',)"),
        (p, "x", (1,), 0.5, TypeError, "coefficient 0.5 is not an int or Fraction"),
        (p, "x", None, "2", TypeError, "coefficient '2' is not an int or Fraction"),
        (p, "x", (1,), None, TypeError, "coefficient None is not an int or Fraction"),
    ]
    for f, var, shift, coeff, error, message in bad_calls:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            f.restrict_var(var, shift, coeff)
    # a coeff of 0 gives the zero over 1, but a pole still raises first
    zero = p.restrict_var("x", (5,), 0)
    assert zero == LaurentPolynomial.zero(("y",)) and zero._den == 1
    with pytest.raises(NegativeExponentAtRestriction):
        pole.restrict_var("x", (5,), 0)
    # the checks of shift and coeff come before a pole
    with pytest.raises(VariableMismatch):
        pole.restrict_var("x", (1, 0))
    with pytest.raises(TypeError):
        pole.restrict_var("x", None, 0.5)
    # the normalisation of a log restriction: t^-m times sign^m
    assert poly("x*y + 2*y^3 + x").restrict_var("x", (-2,), 1) == poly("2*y", ("y",))
    half = poly("1/2*x^2 + y", XY).restrict_var("y", (-1,), Fraction(2, 3))
    assert half == poly("1/3*x", ("x",))
    assert_reduced(half)


def test_shifted_restriction_checks_its_arguments_once(monkeypatch):
    # shift and coeff are checked once, also where the kernel's columns add
    # the shift
    calls = {"_check_shift": 0, "_exact": 0}

    def counted(name):
        real = getattr(exactalg, name)

        def count(*args):
            calls[name] += 1
            return real(*args)
        return count

    rng = Random(101)
    shift, coeff = (2, -1), Fraction(-3, 4)
    for n_terms in (exactalg._COLUMN_TERMS - 4, 19):
        p = many_term_poly(rng, XY, n_terms)
        lifted = lift(p)
        assert (len(lifted.support()) > exactalg._COLUMN_TERMS) is (n_terms == 19)
        for name in calls:
            calls[name] = 0
            monkeypatch.setattr(exactalg, name, counted(name))
        got = lifted.restrict_var("w", shift, coeff)
        monkeypatch.undo()
        assert calls == {"_check_shift": 1, "_exact": 1}, (n_terms, calls)
        assert got == oracle_shift(p, shift, coeff)
        assert on_both_paths(monkeypatch, lambda: lifted.restrict_var("w", shift, coeff)) == got


def test_even_substitute_matches_oracle():
    rng = Random(29)
    squares = MonomialSubstitution(("s",), ("s",), {"s": {"s": 2}})
    for _ in range(100):
        p = dense_poly(rng, ("s",)).substitute_monomials(squares)
        got = _even_substitute(p, "u", 0)
        assert_normalised(got)
        assert got == oracle_map(p, ("u",), lambda e: (e[0] // 2,))
        lowered = _even_substitute(p, "u", -3)
        assert lowered == oracle_map(p, ("u",), lambda e: (e[0] // 2 - 3,))
    with pytest.raises(ValueError):
        _even_substitute(poly("s^3", ("s",)), "u", 0)


# -- column kernels of many-term substitution and shift --------------------------
#
# Above exactalg._COLUMN_TERMS terms the substitution kernel builds the exponent
# vectors a column at a time; below it, it loops over the terms.  A shifted
# restriction of that many terms hands its kept terms to the identity
# substitution with the shift as its offset, on the same kernel.  Each draw
# runs through both paths, which must store the same numerators over the same
# denominator, and both are compared with the oracle.

UW_IMAGES = {"u": {"u": 1}, "v": {"u": -1, "w": 2}}


def shared_denominator_coeff(rng: Random):
    # denominators dividing 12: the numerators share one denominator > 1
    return Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.choice([1, 2, 3, 4, 6]))


def many_term_poly(rng: Random, variables, n_terms, coeff=shared_denominator_coeff):
    """n_terms distinct terms with exponents in [-6, 6] (at most 13 for one
    variable), so inputs lie well above the column constant."""
    n_terms = min(n_terms, 13 ** len(variables))
    terms = {}
    while len(terms) < n_terms:
        terms[tuple(rng.randint(-6, 6) for _ in variables)] = coeff(rng)
    return LaurentPolynomial(variables, terms)


def antisymmetric_poly(rng: Random, n_pairs) -> LaurentPolynomial:
    """Terms c*x^a*y^b - c*x^b*y^a: under x, y -> s every image collides
    with its mirror and the whole substitution cancels to 0."""
    terms = {}
    while len(terms) < 2 * n_pairs:
        a, b = rng.sample(range(-6, 7), 2)
        c = shared_denominator_coeff(rng)
        terms[(a, b)], terms[(b, a)] = c, -c
    return LaurentPolynomial(XY, terms)


def on_both_paths(monkeypatch, compute):
    """compute() through the column path and through the term loop, after
    checking that the two store the same numerators over one denominator."""
    monkeypatch.setattr(exactalg, "_COLUMN_TERMS", 0)
    by_column = compute()
    monkeypatch.setattr(exactalg, "_COLUMN_TERMS", 10**9)
    by_loop = compute()
    monkeypatch.undo()
    assert by_column.variables == by_loop.variables
    assert by_column._terms == by_loop._terms and by_column._den == by_loop._den
    assert_normalised(by_column)
    return by_column


def test_column_substitution_matches_oracle(monkeypatch):
    rng = Random(47)
    collided = 0
    for _ in range(150):
        variables = VARS[: rng.randint(1, 3)]
        p = many_term_poly(rng, variables, rng.randint(exactalg._COLUMN_TERMS + 1, 60))
        assert len(p.support()) > exactalg._COLUMN_TERMS
        assert p._den > 1
        draws = [((), {v: {} for v in variables})]
        draws += [(nv, random_images(rng, variables, nv)) for nv in (("s",), ("s", "t"))]
        if len(variables) == 2:
            draws.append((("u", "w"), dict(zip(variables, UW_IMAGES.values()))))
        # no image reaches z: its stored column is empty
        draws.append((("s", "z"), {v: {"s": 1} for v in variables}))
        for new_vars, images in draws:
            sub = MonomialSubstitution(variables, new_vars, images)
            got = on_both_paths(monkeypatch, lambda: p.substitute_monomials(sub))
            # the default constant takes the column path here
            assert p.substitute_monomials(sub)._terms == got._terms
            assert got == oracle_substitute(p, new_vars, images), (p, images)
            collided += len(got.support()) < len(p.support())
        assert sub.columns[1] == () and got.low_degree_in("z") == 0
    # every draw into () collides; the random images add about 200 more
    assert collided > 300, collided


def test_column_substitution_cancels_collisions(monkeypatch):
    rng = Random(53)
    collapse = MonomialSubstitution(XY, ("s",), BOTH_TO_S)
    to_nothing = MonomialSubstitution(XY, (), {"x": {}, "y": {}})
    for n_pairs in (5, 12, 30):
        p = antisymmetric_poly(rng, n_pairs)
        assert len(p.support()) == 2 * n_pairs > exactalg._COLUMN_TERMS
        got = on_both_paths(monkeypatch, lambda: p.substitute_monomials(collapse))
        assert got.is_zero and got._den == 1
        # one term more survives the cancellation, over its own denominator
        extra = p + LaurentPolynomial(XY, {(7, 7): Fraction(5, 4)})
        got = on_both_paths(monkeypatch, lambda: extra.substitute_monomials(collapse))
        assert got == LaurentPolynomial(("s",), {(14,): Fraction(5, 4)})
        assert_reduced(got)
        # into no variables at all every term lands on () and the sum cancels
        got = on_both_paths(monkeypatch, lambda: p.substitute_monomials(to_nothing))
        assert got.is_zero and got.variables == ()
        got = on_both_paths(monkeypatch, lambda: extra.substitute_monomials(to_nothing))
        assert got == LaurentPolynomial((), {(): Fraction(5, 4)})


def test_identity_substitution_hands_its_map_through(monkeypatch):
    rng = Random(83)
    renaming = MonomialSubstitution(XY, ("s", "t"), {"x": {"s": 1}, "y": {"t": 1, "s": 0}})
    swap_images = {"x": {"y": 1}, "y": {"x": 1}}
    swap = MonomialSubstitution(XY, XY, swap_images)
    # square with unit rows, but not the identity matrix: it must permute
    assert renaming.identity and not swap.identity
    assert not MonomialSubstitution(("x",), ("s", "t"), {"x": {"s": 1}}).identity
    assert not MonomialSubstitution(XY, ("s",), BOTH_TO_S).identity
    for p in (many_term_poly(rng, XY, 30), poly("x - 1/2*y^2"), LaurentPolynomial.zero(XY)):
        got = on_both_paths(monkeypatch, lambda: p.substitute_monomials(renaming))
        assert got.variables == ("s", "t") and got._terms is p._terms and got._den == p._den
        assert got == oracle_substitute(p, ("s", "t"), {"x": {"s": 1}, "y": {"t": 1}})
        swapped = on_both_paths(monkeypatch, lambda: p.substitute_monomials(swap))
        assert swapped == oracle_substitute(p, XY, swap_images)
        assert swapped._terms is not p._terms
        assert swapped.substitute_monomials(swap) == p
        if not p.is_zero:
            assert swapped != p


def test_column_substitution_examples():
    terms = {(a, b): Fraction(a - b, 6) or 1 for a in range(-1, 3) for b in range(-1, 3)}
    p = LaurentPolynomial(("u", "v"), terms)
    assert len(p.support()) > exactalg._COLUMN_TERMS
    # v -> u^-1*w^2 is injective, so the denominator passes through
    got = p.substitute_monomials(MonomialSubstitution(("u", "v"), ("u", "w"), UW_IMAGES))
    assert got._den == p._den == 6
    assert got.terms() == {(a - b, 2 * b): c for (a, b), c in p.terms().items()}
    # the image checks are the constructor's, before either path (see
    # test_monomial_substitution_checks_its_images_once); the one check
    # left per call is the variable list
    with pytest.raises(VariableMismatch):
        p.substitute_monomials(MonomialSubstitution(("v", "u"), ("s",), {"u": {}, "v": {}}))


def test_column_shift_matches_validating_monomial_product(monkeypatch):
    rng = Random(67)
    for _ in range(150):
        variables = VARS[: rng.randint(1, 3)]
        p = many_term_poly(rng, variables, rng.randint(exactalg._COLUMN_TERMS + 1, 60))
        # zero entries leave their columns as they are
        exps = tuple(rng.choice([0, 0, -3, -1, 1, 2]) for _ in variables)
        coeff = rng.choice([1, -1, 3, Fraction(-3, 2), Fraction(2, 7)])
        mono = LaurentPolynomial.monomial(variables, dict(zip(variables, exps)), coeff)
        lifted = lift(p)
        got = on_both_paths(monkeypatch, lambda: lifted.restrict_var("w", exps, coeff))
        # the default constant takes the column path here
        assert lifted.restrict_var("w", exps, coeff)._terms == got._terms
        assert got == p * mono == oracle_mul(p, mono), (p, exps, coeff)
        if coeff == 1:
            assert got._den == p._den
        else:
            assert_reduced(got)
        summed = on_both_paths(
            monkeypatch,
            lambda: LaurentPolynomial.sum_substituted(identity(variables), ((p, exps),)),
        )
        assert summed == oracle_shift(p, exps) and summed._den == p._den


def test_zero_variable_shifts_and_one_term_products_on_both_kernels(monkeypatch):
    # over no variables a nonzero polynomial is one term at (); the column
    # kernel must keep it
    values = (3, 1, -1, Fraction(2, 7), Fraction(-3, 2))
    nothing = identity(())
    for a in values:
        p = LaurentPolynomial((), {(): a})
        for b in values:
            want = LaurentPolynomial((), {(): a * b})
            shifted = lambda: lift(p).restrict_var("w", (), b)
            assert on_both_paths(monkeypatch, shifted) == want
            summed = lambda: LaurentPolynomial.sum_substituted(nothing, ((p * b, ()),))
            assert on_both_paths(monkeypatch, summed) == want
            q = LaurentPolynomial((), {(): b})
            assert on_both_paths(monkeypatch, lambda: p * q) == want
    rng = Random(89)
    for _ in range(200):
        variables = VARS[: rng.randint(1, 3)]
        p = dense_poly(rng, variables)
        exps = tuple(rng.randint(-3, 3) for _ in variables)
        coeff = rng.choice([1, -1, 3, Fraction(-3, 2), Fraction(2, 7)])
        mono = LaurentPolynomial.monomial(variables, dict(zip(variables, exps)), coeff)
        want = oracle_mul(p, mono)
        assert on_both_paths(monkeypatch, lambda: p * mono) == want, (p, mono)
        assert on_both_paths(monkeypatch, lambda: mono * p) == want, (p, mono)


def test_bool_exponents_are_stored_as_plain_ints(monkeypatch):
    # a bool entry of a shift counts as an int, as in the constructor, and
    # is stored as one, also where no image term touches that entry
    sub = MonomialSubstitution(XY, ("s", "t"), {"x": {"s": 2}, "y": {"t": 2}})
    one = LaurentPolynomial(XY, {(0, 0): 3})
    many = LaurentPolynomial(XY, {(a, b): a - b or 1 for a in range(4) for b in range(3)})
    for p in (one, many):
        # the t-entry is 0, so restrict_substituted keeps the terms with y^0
        for shift in ((True, False), (False, 0), (True, 0)):
            plain = tuple(map(int, shift))
            calls = (
                lambda s: lift(p).restrict_var("w", s, Fraction(1, 2)),
                lambda s: p.restrict_var("y", s[:1], -1),
                lambda s: LaurentPolynomial.sum_substituted(sub, ((p, s), (p, None))),
                lambda s: p.restrict_substituted(sub, "t", s),
            )
            for compute in calls:
                for cut in (0, 10**9):
                    monkeypatch.setattr(exactalg, "_COLUMN_TERMS", cut)
                    got = compute(shift)
                    assert not got.is_zero and got == compute(plain)
                    assert all(type(e) is int for e in chain.from_iterable(got.support()))
                    assert_normalised(got)
    monkeypatch.undo()
    assert LaurentPolynomial.sum_substituted(sub, ((one, (True, 0)),)).terms() == {(1, 0): 3}
    assert one.restrict_substituted(sub, "t", (True, 0)).terms() == {(1,): 3}


# -- restriction through a substitution -------------------------------------------
#
# restrict_substituted must equal substitute_monomials, then the shift as
# plain data, then restrict_var, and raise where that composed path raises,
# with the same message; it builds image vectors only for the terms the
# restriction keeps.


def composed_restriction(p, sub, var, shift=None):
    image = p.substitute_monomials(sub)
    if shift is not None:
        image = oracle_shift(image, shift)
    return image.restrict_var(var)


def check_restrict_substituted(monkeypatch, p, sub, var, shift=None):
    """The kernel on both sides of _COLUMN_TERMS against the composed path:
    the restriction, or None after checking that both raise alike."""
    try:
        want = composed_restriction(p, sub, var, shift)
    except NegativeExponentAtRestriction as exc:
        for cut in (0, 10**9):
            monkeypatch.setattr(exactalg, "_COLUMN_TERMS", cut)
            with pytest.raises(NegativeExponentAtRestriction, match=re.escape(str(exc))):
                p.restrict_substituted(sub, var, shift)
        monkeypatch.undo()
        return None
    got = on_both_paths(
        monkeypatch, lambda: p.restrict_substituted(sub, var, shift)
    )
    assert got == want and hash(got) == hash(want), (p, sub, var, shift)
    assert str(got) == str(want)
    # the denominator passes through unless the kept terms collided, which
    # reduces it; nothing kept is the zero over 1
    if got.is_zero:
        assert got._den == 1
    elif got._den != p._den:
        assert_reduced(got)
    return got


def test_restrict_substituted_matches_composed_path(monkeypatch):
    rng = Random(71)
    outcomes = {"raised": 0, "zero": 0, "kept-few": 0, "kept-many": 0}
    for _ in range(300):
        variables = VARS[: rng.randint(1, 3)]
        p = many_term_poly(rng, variables, rng.randint(0, 60))
        new_vars = rng.choice([("s", "w"), ("w",), ("s", "t", "w")])
        images = random_images(rng, variables, new_vars)
        if rng.random() < 0.5:
            # no image reaches w: the shift alone decides what is kept
            for image in images.values():
                image.pop("w", None)
        shift = None
        if rng.random() < 0.5:
            shift = tuple(rng.choice([0, 0, 0, 1, -1, 2]) for _ in new_vars)
        sub = MonomialSubstitution(variables, new_vars, images)
        got = check_restrict_substituted(monkeypatch, p, sub, "w", shift)
        if got is None:
            outcomes["raised"] += 1
        elif got.is_zero:
            outcomes["zero"] += 1
        else:
            many = len(got.support()) > exactalg._COLUMN_TERMS
            outcomes["kept-many" if many else "kept-few"] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_restrict_substituted_on_the_cone_parts(monkeypatch):
    # the log-frame route: v -> u^-1*w^2, the c1 part shifted by w
    rng = Random(73)
    raised = {None: 0, (0, 1): 0}
    log_frame = MonomialSubstitution(("u", "v"), ("u", "w"), UW_IMAGES)
    for _ in range(150):
        part = many_term_poly(rng, ("u", "v"), rng.randint(0, 40))
        for shift in raised:
            got = check_restrict_substituted(monkeypatch, part, log_frame, "w", shift)
            if got is None:
                raised[shift] += 1
            elif shift is not None:
                # every w-exponent of the shifted c1 image is odd
                assert got.is_zero
    assert min(raised.values()) > 50, raised
    c0 = LaurentPolynomial(("u", "v"), {(2, 0): Fraction(1, 6), (0, -1): 3, (1, 1): 2})
    with pytest.raises(NegativeExponentAtRestriction, match=r"w\^-2 "):
        c0.restrict_substituted(log_frame, "w")
    with pytest.raises(NegativeExponentAtRestriction, match=r"w\^-1 "):
        c0.restrict_substituted(log_frame, "w", (0, 1))
    c0 = LaurentPolynomial(("u", "v"), {(2, 0): Fraction(1, 6), (0, 1): 3})
    assert c0.restrict_substituted(log_frame, "w") == LaurentPolynomial(
        ("u",), {(2,): Fraction(1, 6)}
    )
    assert c0.restrict_substituted(log_frame, "w", (0, 1)).is_zero


def test_restrict_substituted_collisions_and_cancelling_poles(monkeypatch):
    rng = Random(79)
    collapse = MonomialSubstitution(XY, ("s", "w"), BOTH_TO_S)
    onto_w = MonomialSubstitution(XY, ("s", "w"), {"x": {"w": 1}, "y": {"w": 1}})
    for n_pairs in (1, 3, 5, 12, 30):
        p = antisymmetric_poly(rng, n_pairs)
        # every image collides with its mirror: the kept terms cancel to 0
        got = check_restrict_substituted(monkeypatch, p, collapse, "w")
        assert got.is_zero
        # and to one term when one more survives
        extra = p + LaurentPolynomial(XY, {(7, 7): Fraction(5, 4)})
        got = check_restrict_substituted(monkeypatch, extra, collapse, "w")
        assert got == LaurentPolynomial(("s",), {(14,): Fraction(5, 4)})
        assert_reduced(got)
        # with x, y -> w the poles cancel in pairs: no pole is left to raise
        got = check_restrict_substituted(monkeypatch, p, onto_w, "w")
        assert got == LaurentPolynomial.zero(("s",))
        # a pole that no other term cancels still raises
        pole = p + LaurentPolynomial(XY, {(-9, 0): Fraction(1, 3)})
        assert check_restrict_substituted(monkeypatch, pole, onto_w, "w") is None
        with pytest.raises(NegativeExponentAtRestriction, match=r"w\^-9 "):
            pole.restrict_substituted(onto_w, "w")


def test_restrict_substituted_checks_its_arguments():
    p = LaurentPolynomial(("u", "v"), {(1, 0): Fraction(1, 2), (0, 1): 3})
    # the image checks are the constructor's (see
    # test_monomial_substitution_checks_its_images_once); what is left per
    # call raises as on the composed path
    log_frame = MonomialSubstitution(("u", "v"), ("u", "w"), UW_IMAGES)
    bad_calls = [
        (MonomialSubstitution(("v", "u"), ("u", "w"), UW_IMAGES), "w", None),
        (log_frame, "v", None),
    ]
    for sub, var, shift in bad_calls:
        with pytest.raises(Exception) as want:
            composed_restriction(p, sub, var, shift)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            p.restrict_substituted(sub, var, shift)
        assert want.type in (UnknownVariable, VariableMismatch)
    # a shift is checked as restrict_var and sum_substituted check theirs
    bad_shifts = [
        ((0, 1, 0), VariableMismatch, "shift (0, 1, 0) does not fit ('u', 'w')"),
        ((0, 1.0), ValueError, "non-integer exponent in (0, 1.0)"),
    ]
    for shift, error, message in bad_shifts:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            p.restrict_substituted(log_frame, "w", shift)


# -- sums of shifted substitutions ------------------------------------------------
#
# sum_substituted must equal the sum over its parts of p.substitute_monomials(sub)
# with the shift applied as plain data, on both kernels, and raise where the
# substitution raises.


def composed_sum(sub, parts):
    total = LaurentPolynomial.zero(sub.target)
    for p, shift in parts:
        image = p.substitute_monomials(sub)
        total = total + (image if shift is None else oracle_shift(image, shift))
    return total


# each part's coefficients are multiples of one of these, so parts sit over
# different denominators
PART_UNITS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7))


def test_sum_substituted_matches_composed_path(monkeypatch):
    rng = Random(97)
    collided = cancelled = 0
    for _ in range(250):
        variables = VARS[: rng.randint(1, 3)]
        new_vars = rng.choice([(), ("s",), ("s", "t")])
        if rng.random() < 0.4:
            # every variable onto the same monomial: images collide
            images = {v: {w: 1 for w in new_vars} for v in variables}
        else:
            images = random_images(rng, variables, new_vars)
        sub = MonomialSubstitution(variables, new_vars, images)
        parts = []
        for _ in range(rng.randint(1, 4)):
            unit = rng.choice(PART_UNITS)
            coeff = lambda r: unit * r.choice([1, -1, 3, -5])
            p = many_term_poly(rng, variables, rng.randint(0, 30), coeff)
            if rng.random() < 0.2:
                p = LaurentPolynomial.zero(variables)
            if rng.random() < 0.3:
                # over a denominator the part does not need
                p = unreduced(rng, p)
            shift = None
            if rng.random() < 0.6:
                shift = tuple(rng.randint(-2, 2) for _ in new_vars)
            parts.append((p, shift))
        if rng.random() < 0.4:
            # parts that cancel the images of some or all of the others
            parts += [(-p, shift) for p, shift in parts[: rng.randint(1, len(parts))]]
            rng.shuffle(parts)
        got = on_both_paths(monkeypatch, lambda: LaurentPolynomial.sum_substituted(sub, parts))
        want = composed_sum(sub, parts)
        assert got == want and str(got) == str(want) and hash(got) == hash(want), parts
        assert got.variables == new_vars
        terms_in = sum(len(p.support()) for p, _ in parts)
        collided += len(got.support()) < terms_in
        cancelled += got.is_zero and terms_in > 0
    assert collided > 100 and cancelled > 30, (collided, cancelled)


def test_sum_substituted_examples_and_checks():
    sub = MonomialSubstitution(XY, ("s", "t"), {"x": {"s": 2}, "y": {"t": 2}})
    c0, c1 = poly("1/2*x + y^2"), poly("1/3*x*y - 2/7")
    # the cone chart: c0(s^2, t^2) + c1(s^2, t^2)*s*t, over the lcm 42
    got = LaurentPolynomial.sum_substituted(sub, [(c0, None), (c1, (1, 1))])
    assert got == poly("1/2*s^2 + t^4 + 1/3*s^3*t^3 - 2/7*s*t", ("s", "t"))
    assert got._den == 42
    assert_reduced(got)
    # a generator of parts is read once
    twice = LaurentPolynomial.sum_substituted(sub, ((p, None) for p in (c0, c0)))
    assert twice == 2 * c0.substitute_monomials(sub)
    with pytest.raises(ValueError, match="at least one part"):
        LaurentPolynomial.sum_substituted(sub, [])
    bad_parts = [
        ([(c0, None), (poly("s", ("s", "t")), None)], VariableMismatch,
         "substitution on ('x', 'y'), not ('s', 't')"),
        ([(c0, (0, 0)), (c1, (1,))], VariableMismatch, "shift (1,) does not fit ('s', 't')"),
        ([(c0, (0, 1, 0))], VariableMismatch, "shift (0, 1, 0) does not fit ('s', 't')"),
        ([(c1, (0, 1.0))], ValueError, "non-integer exponent in (0, 1.0)"),
        ([(c1, (0, "1"))], ValueError, "non-integer exponent in (0, '1')"),
    ]
    for parts, error, message in bad_parts:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            LaurentPolynomial.sum_substituted(sub, parts)


# -- sums of products and the cone product ----------------------------------------


def oracle_sum_of_products(pairs):
    total = oracle_mul(*pairs[0])
    for a, b in pairs[1:]:
        total = oracle_add(total, oracle_mul(a, b))
    return total


def test_sum_of_products_matches_oracle():
    rng = Random(83)
    cancelled = 0
    for _ in range(300):
        variables = VARS[: rng.randint(1, 3)]
        pairs = []
        for _ in range(rng.randint(1, 4)):
            # each factor over its own denominators, Laurent exponents in [-3, 3]
            a, b = (dense_poly(rng, variables, coeff=wide_coeff) for _ in range(2))
            if rng.random() < 0.15:
                # a zero factor, sometimes over a denominator it does not need
                a = unreduced(rng, LaurentPolynomial.zero(variables))
            pairs.append((a, b))
        if rng.random() < 0.3:
            a, b = pairs[0]
            pairs.append((-a, b))
        if rng.random() < 0.3:
            pairs.append(cancelling_pair(rng, variables, rng.choice([0, 0, 1, -3])))
        got = LaurentPolynomial.sum_of_products(pairs)
        assert_reduced(got)
        plain = pairs[0][0] * pairs[0][1]
        for a, b in pairs[1:]:
            plain = plain + a * b
        assert got == plain == oracle_sum_of_products(pairs), pairs
        assert str(got) == str(plain) and hash(got) == hash(plain)
        cancelled += got.is_zero
    assert cancelled > 20, cancelled


def test_sum_of_products_examples_and_checks():
    a, b = poly("1/2*x + 1/3*y"), poly("x^-1 - 3/5*y")
    c, d = poly("1/7*x^-1*y"), poly("x^2")
    got = LaurentPolynomial.sum_of_products([(a, b), (c, d)])
    assert got == a * b + c * d
    assert_reduced(got)
    # the two products cancel to 0, and the zero is over 1
    got = LaurentPolynomial.sum_of_products([(a, b), (-b, a)])
    assert got.is_zero and got._den == 1
    # a generator of pairs is read once
    assert LaurentPolynomial.sum_of_products((p, p) for p in (a, c)) == a * a + c * c
    with pytest.raises(ValueError):
        LaurentPolynomial.sum_of_products([])
    with pytest.raises(VariableMismatch):
        LaurentPolynomial.sum_of_products([(a, b), (c, poly("s", ("s", "t")))])
    with pytest.raises(TypeError):
        LaurentPolynomial.sum_of_products([(a, 2)])


def test_many_term_cone_product_matches_parent_formula_and_chart():
    rng = Random(89)
    uv = ("u", "v")
    for _ in range(60):
        g0, g1, h0, h1 = (many_term_poly(rng, uv, rng.randint(8, 30)) for _ in range(4))
        for g, h in (
            (ConeElement(g0, g1), ConeElement(h0, h1)),
            (ConeElement(g0), ConeElement(h0, h1)),
            (ConeElement(LaurentPolynomial.zero(uv), g1), ConeElement(h0, h1)),
        ):
            got = g * h
            assert_reduced(got.c0)
            assert_reduced(got.c1)
            assert got.c0 == g.c0 * h.c0 + oracle_shift(g.c1 * h.c1, (1, 1))
            assert got.c1 == g.c0 * h.c1 + g.c1 * h.c0
            assert to_chart(got).poly == to_chart(g).poly * to_chart(h).poly
