"""Monomial ideal tests, cross-checked against brute-force enumeration."""

import re
from itertools import product as cartesian
from random import Random

import pytest

from nccanon.exactalg import VariableMismatch, divides, monomial_str
from nccanon.monideal import (
    AffineExponent,
    FamilyParseError,
    GradedMonomialFamily,
    MonomialIdeal,
    MultiplicativityViolation,
    brute_force_new_generators,
    minimalize,
    parse_family,
    rees_report,
)
from nccanon.monideal import (
    _candidates, _lines, _new, _oracle_memo, _print_order, _weights
)

XY = ("x", "y")
FAMILY = parse_family("x*y, x^m, y^m")


def ideal(*gens, variables=XY) -> MonomialIdeal:
    return MonomialIdeal(variables, gens)


def weight_pass(family, m):
    """(J_m, the minimal generators of I_m outside J_m) from the per-weight
    pass run up to weight m; raises MultiplicativityViolation as it does.
    The pass yields only a generating set of J_m, so J_m is rebuilt here."""
    *_, (_, i_m, candidates) = _weights(family, m)
    return MonomialIdeal(family.variables, candidates), _new(i_m, candidates)


def multiplicative(family, upto):
    """Whether the per-weight pass up to ``upto`` finds I_a * I_b in I_{a+b}."""
    try:
        weight_pass(family, upto)
    except MultiplicativityViolation:
        return False
    return True


# -- brute-force oracle: enumerate the monomials of an ideal -----------------


def box(nvars: int, bound: int):
    for exps in cartesian(range(bound + 1), repeat=nvars):
        if sum(exps) <= bound:
            yield exps


def enumerate_ideal(gens, nvars: int, bound: int) -> frozenset:
    """All monomials of total degree <= bound divisible by some generator."""
    out = set()
    for mono in box(nvars, bound):
        for g in gens:
            if all(a <= b for a, b in zip(g, mono)):
                out.add(mono)
                break
    return frozenset(out)


# -- pinned operation examples --------------------------------------------------


def test_minimalize_examples():
    assert minimalize({(1, 1), (1, 0), (0, 1)}) == {(1, 0), (0, 1)}
    incomparable = {(2, 0), (1, 1), (0, 2)}
    assert minimalize(incomparable) == incomparable
    assert minimalize({(0, 0), (1, 0)}) == {(0, 0)}
    assert minimalize(minimalize({(1, 1), (1, 0), (3, 2)})) == minimalize(
        {(1, 1), (1, 0), (3, 2)}
    )


def test_minimalize_validates_every_candidate():
    # a lone bad generator is caught, not only one that meets a comparison
    with pytest.raises(ValueError):
        MonomialIdeal(XY, [(-1, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal(XY, [(-1, 0), (0, 0)])
    with pytest.raises(ValueError):
        minimalize([(2, 3), (0, -1)])
    for gens in ([(1, 0), (1,)], [(1,), (1, 0)], [(0, 0, 1), (5, 5)]):
        with pytest.raises(VariableMismatch):
            minimalize(gens)
    assert minimalize([]) == frozenset()


def test_member_examples():
    assert ideal((2, 0), (1, 1), (0, 2)).member((1, 1))
    assert not ideal((3, 0), (2, 1), (1, 2), (0, 3)).member((1, 1))
    assert not ideal((1, 0), (0, 1)).member((0, 0))


def test_product_examples():
    maximal = ideal((1, 0), (0, 1))
    squared = maximal * maximal
    assert squared == ideal((2, 0), (1, 1), (0, 2))
    # brute-force: the enumerated sets agree to degree 6
    assert enumerate_ideal(squared.generators, 2, 6) == frozenset(
        m
        for m in box(2, 6)
        if any(
            all(f[i] + g[i] <= m[i] for i in range(2))
            for f in maximal.generators
            for g in maximal.generators
        )
    )
    assert maximal * ideal((1, 1), (2, 0), (0, 2)) == ideal(
        (3, 0), (2, 1), (1, 2), (0, 3)
    )
    unit = ideal((0, 0))
    arbitrary = ideal((1, 1), (3, 0))
    assert arbitrary * unit == arbitrary


def test_instantiate_examples():
    assert FAMILY.instantiate(3) == ideal((1, 1), (3, 0), (0, 3))
    assert FAMILY.instantiate(1) == ideal((1, 0), (0, 1))
    assert FAMILY.instantiate(2) == ideal((1, 1), (2, 0), (0, 2))
    with pytest.raises(ValueError):
        FAMILY.instantiate(0)


def test_check_multiplicative():
    assert multiplicative(FAMILY, 12)
    assert multiplicative(parse_family("x^m"), 12)
    # I_m = (x^(2m-1)) fails: I_1*I_1 = (x^2) is not inside I_2 = (x^3)
    skewed = parse_family("x^(2*m-1)")
    assert not multiplicative(skewed, 4)


def test_subalgebra_component_examples():
    assert weight_pass(FAMILY, 2)[0] == ideal((2, 0), (1, 1), (0, 2))
    assert weight_pass(FAMILY, 3)[0] == ideal((3, 0), (2, 1), (1, 2), (0, 3))
    assert weight_pass(FAMILY, 4)[0] == ideal((4, 0), (2, 1), (1, 2), (0, 4))
    assert weight_pass(FAMILY, 1)[0].is_zero
    with pytest.raises(MultiplicativityViolation):
        weight_pass(parse_family("x^(2*m-1)"), 4)


def test_new_generators_examples():
    report = rees_report(FAMILY, 5)
    assert report.row(1) == {(1, 0), (0, 1)}
    assert report.row(2) == frozenset()
    assert report.row(5) == {(1, 1)}
    j5 = weight_pass(FAMILY, 5)[0]
    assert j5.member((5, 0)) and j5.member((0, 5))
    assert not j5.member((1, 1))


def test_rees_report_main_family():
    report = rees_report(FAMILY, 20)
    assert report.witness_flag
    assert report.row(1) == {(1, 0), (0, 1)}
    assert report.row(2) == frozenset()
    for m in range(3, 21):
        assert report.row(m) == {(1, 1)}
        assert report.row(m) == brute_force_new_generators(FAMILY, m, 6)


def test_rees_report_negative_controls():
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


def test_rees_report_constant_family_truth():
    # The degreewise-constant family I_m = (xy) keeps needing xy*W^m: any
    # product of positive-weight elements is divisible by x^2*y^2, so the
    # weight-m part of the lower-weight subalgebra is (x^2*y^2) for m >= 2
    # and never contains xy.  A constant family is NOT a trivial control.
    constant = rees_report(parse_family("x*y"), 20)
    assert constant.witness_flag
    for m in range(1, 21):
        assert constant.row(m) == {(1, 1)}
        assert constant.row(m) == brute_force_new_generators(
            parse_family("x*y"), m, 6
        )
    assert weight_pass(parse_family("x*y"), 2)[0] == ideal((2, 2))


def test_rees_report_three_variables():
    # (x*y, z^m): x*y stays out of every product of lower weights, so the
    # witness fires here too; cross-check each row against the oracle
    family = parse_family("x*y, z^m")
    report = rees_report(family, 10)
    assert report.witness_flag
    assert report.row(1) == {(1, 1, 0), (0, 0, 1)}
    for m in range(2, 11):
        assert report.row(m) == {(1, 1, 0)}
        assert report.row(m) == brute_force_new_generators(family, m, 6)


def test_rees_report_row_indexes_weights_one_to_max_degree():
    report = rees_report(FAMILY, 6)
    for m in range(1, 7):
        assert report.row(m) == report.rows[m - 1][1]
    for m in (0, -1, -6, 7):
        with pytest.raises(KeyError):
            report.row(m)


def test_rees_report_requires_range():
    with pytest.raises(ValueError):
        rees_report(FAMILY, 2)
    with pytest.raises(MultiplicativityViolation):
        rees_report(parse_family("x^(2*m-1)"), 4)


# -- invariants ---------------------------------------------------------------


def random_ideal(rng: Random, nvars: int = 2) -> MonomialIdeal:
    names = ("x", "y", "z")[:nvars]
    gens = [
        tuple(rng.randrange(6) for _ in range(nvars))
        for _ in range(1 + rng.randrange(4))
    ]
    return MonomialIdeal(names, gens)


def test_member_matches_enumeration():
    rng = Random(23)
    for _ in range(150):
        ideal_ = random_ideal(rng)
        members = enumerate_ideal(ideal_.generators, 2, 7)
        for mono in box(2, 7):
            assert ideal_.member(mono) == (mono in members)


def test_product_commutative_associative():
    rng = Random(29)
    for _ in range(100):
        a, b, c = (random_ideal(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_intersection_matches_membership_on_a_box():
    rng = Random(41)
    for nvars in (2, 3):
        for _ in range(80):
            i, j = random_ideal(rng, nvars), random_ideal(rng, nvars)
            both = i & j
            # every generator and every lcm has exponents at most 5, so
            # membership depends on exponents capped at 6: [0, 6] decides all
            for mono in cartesian(range(7), repeat=nvars):
                assert both.member(mono) == (i.member(mono) and j.member(mono))
            gens = both.generators
            assert not any(g != h and divides(g, h) for g in gens for h in gens)
            assert both == j & i


def test_intersection_examples_and_errors():
    assert ideal((1, 0), (0, 3)) & ideal((0, 1), (3, 0)) == ideal((1, 1), (3, 0), (0, 3))
    assert ideal((1, 0), (0, 1)) & ideal((0, 1), (1, 0)) == ideal((1, 0), (0, 1))
    zero = MonomialIdeal(XY, ())
    assert (ideal((0, 0)) & zero).is_zero
    assert ideal((0, 0)) & ideal((2, 1)) == ideal((2, 1))
    with pytest.raises(ValueError):
        ideal((1, 0)) & ideal((1, 0), variables=("u", "v"))
    with pytest.raises(ValueError):
        ideal((1, 0)) & ideal((1, 0, 0), variables=("x", "y", "z"))


def box_staircase(ideal_: MonomialIdeal) -> list:
    """Non-members in the box spanned by the pure powers, by ``member``."""
    width = max(g[0] for g in ideal_.generators)
    height = max(g[1] for g in ideal_.generators)
    return [
        (a, b)
        for a in range(width + 1)
        for b in range(height + 1)
        if not ideal_.member((a, b))
    ]


def test_staircase_matches_member_scan():
    rng = Random(43)
    checked = 0
    for _ in range(300):
        base = random_ideal(rng)
        pure = [(rng.randrange(1, 8), 0), (0, rng.randrange(1, 8))]
        ideal_ = MonomialIdeal(XY, list(base.generators) + pure)
        assert ideal_.staircase() == box_staircase(ideal_)
        checked += len(ideal_.staircase())
    assert checked > 300
    assert ideal((1, 1), (3, 0), (0, 3)).staircase() == [
        (0, 0), (0, 1), (0, 2), (1, 0), (2, 0)
    ]
    assert ideal((0, 0)).staircase() == []


def test_staircase_refuses_infinite_complements():
    for gens in (((1, 1),), ((1, 0),), ((0, 1),), ((2, 0), (1, 1)), ()):
        with pytest.raises(ValueError, match="infinitely many"):
            MonomialIdeal(XY, gens).staircase()
    with pytest.raises(ValueError, match="two variables"):
        ideal((1, 0, 0), (0, 1, 0), (0, 0, 1), variables=("x", "y", "z")).staircase()


def test_subalgebra_inside_instantiation():
    for family in (FAMILY, parse_family("x^m"), parse_family("x*y")):
        for m in range(1, 13):
            i_m = family.instantiate(m)
            j_m = weight_pass(family, m)[0]
            for g in j_m.generators:
                assert i_m.member(g)


def test_minimalize_is_idempotent():
    rng = Random(31)
    for _ in range(100):
        gens = {
            tuple(rng.randrange(5) for _ in range(3)) for _ in range(rng.randrange(6))
        }
        once = minimalize(gens)
        assert minimalize(once) == once
        # same ideal up to degree 8
        assert enumerate_ideal(once, 3, 8) == enumerate_ideal(gens, 3, 8)


def test_family_validation():
    with pytest.raises(ValueError):
        GradedMonomialFamily(XY, ((AffineExponent(1, -2), AffineExponent(0, 0)),))
    family = GradedMonomialFamily(XY, ((AffineExponent(1, -1), AffineExponent(0, 1)),))
    assert family.instantiate(1) == ideal((0, 1))


def test_family_refuses_a_template_negative_at_weight_one():
    # the least weight is m = 1; each exponent is checked there, and the
    # message names the first one that is negative
    for row, name in (
        ((AffineExponent(1, -2), AffineExponent(0, 0)), "m-2"),
        ((AffineExponent(1, -1), AffineExponent(0, -1)), "-1"),
        ((AffineExponent(3, -4), AffineExponent(2, -5)), "3*m-4"),
    ):
        with pytest.raises(ValueError, match=rf"^exponent {re.escape(name)} is negative at m=1$"):
            GradedMonomialFamily(XY, (row,))


def test_ideal_str():
    assert str(ideal((1, 1), (3, 0), (0, 3))) == "(x*y, x^3, y^3)"
    assert str(MonomialIdeal(XY, ())) == "(0)"
    assert str(ideal((0, 0))) == "(1)"


# -- the family format ---------------------------------------------------------


def test_parse_family_round_trip():
    for src in ("x*y, x^m, y^m", "x^m", "x*y", "x^m*y^m", "x^(m-1)*y^2"):
        family = parse_family(src)
        assert str(parse_family(str(family))) == str(family)


def test_parse_family_canonical_output():
    assert str(parse_family("x*y, x^m, y^m")) == "x*y, x^m, y^m"
    assert str(parse_family("y^m , x^m")) == "y^m, x^m"
    assert str(parse_family("x ^ 2*m+1")) == "x^2*m+1"
    assert str(parse_family("x^(2*m-1)")) == "x^2*m-1"


def test_parse_family_grammar():
    family = parse_family("x^2*m")
    assert family.templates[0][0] == AffineExponent(2, 0)
    mixed = parse_family("x^2*y")
    assert mixed.templates[0] == (AffineExponent(0, 2), AffineExponent(0, 1))
    repeated = parse_family("x*x")
    assert repeated.templates[0][0] == AffineExponent(0, 2)
    shifted = parse_family("x^m-1")
    assert shifted.templates[0][0] == AffineExponent(1, -1)
    assert shifted.instantiate(3).generators == {(2,)}


def test_parse_family_errors():
    with pytest.raises(FamilyParseError):
        parse_family("x^(m-2)")  # negative at m=1
    # the position is that of the template holding the negative exponent
    with pytest.raises(FamilyParseError, match=r"^exponent m-2 is negative at m=1") as exc:
        parse_family("x*y, x^(m-2)")
    assert exc.value.pos == 5
    with pytest.raises(FamilyParseError):
        parse_family("")
    with pytest.raises(FamilyParseError):
        parse_family("x*y,")
    with pytest.raises(FamilyParseError):
        parse_family("x^")
    with pytest.raises(FamilyParseError):
        parse_family("m")
    with pytest.raises(FamilyParseError):
        parse_family("x$y")
    with pytest.raises(FamilyParseError):
        parse_family("x^(m")
    with pytest.raises(FamilyParseError):
        parse_family("3, x")
    # a zero exponent would print as nothing and not parse back
    for src in ("x^0", "x^0, y^m", "x^0*y", "x^0*m", "x^(0*m-1)*x"):
        with pytest.raises(FamilyParseError):
            parse_family(src)
    # the name and number rules are the polynomial parser's
    for src in ("x\u00b2", "x^1/2"):
        with pytest.raises(FamilyParseError):
            parse_family(src)


def test_affine_exponent():
    assert AffineExponent(1, 0).at(5) == 5
    assert AffineExponent(2, -1).at(3) == 5
    assert AffineExponent(0, 4).at(100) == 4
    with pytest.raises(ValueError):
        AffineExponent(-1, 0)
    assert str(AffineExponent(1, 0)) == "m"
    assert str(AffineExponent(2, 1)) == "2*m+1"
    assert str(AffineExponent(1, -2)) == "m-2"
    assert str(AffineExponent(0, 3)) == "3"


def random_printable_family(rng: Random) -> GradedMonomialFamily:
    """One to four templates over a sorted set of one to four variables,
    each variable used by some template and no template the unit monomial.
    An exponent is absent (0) or has slope 0..3 and offset -3..3, is not
    identically 0 and is nonnegative at m = 1."""
    names = sorted(rng.sample(("a", "b", "u", "x", "y", "z"), rng.randint(1, 4)))
    while True:
        rows = []
        for _ in range(rng.randint(1, 4)):
            row = [AffineExponent(0, 0)] * len(names)
            for i in rng.sample(range(len(names)), rng.randint(1, len(names))):
                while row[i] == AffineExponent(0, 0) or row[i].at(1) < 0:
                    row[i] = AffineExponent(rng.randint(0, 3), rng.randint(-3, 3))
            rows.append(tuple(row))
        if all(any(row[i] != AffineExponent(0, 0) for row in rows)
               for i in range(len(names))):
            return GradedMonomialFamily(tuple(names), tuple(rows))


def test_family_round_trips_as_a_value():
    shapes = set()
    for seed in range(300):
        family = random_printable_family(Random(seed))
        assert parse_family(str(family)) == family, (seed, str(family))
        for ae in (ae for row in family.templates for ae in row):
            if ae.slope == 0:
                shapes.add("c" if ae.offset else "absent")
            elif ae.slope > 1 and ae.offset:
                shapes.add("k*m+c" if ae.offset > 0 else "k*m-c")
    # the draws print every exponent shape of the syntax
    assert shapes == {"absent", "c", "k*m+c", "k*m-c"}


# -- the per-weight pass against straightforward references ---------------------


def unpruned_oracle(family, m, degree_bound):
    """The minimal elements of I_m minus J_m in degree <= degree_bound, from
    the definition: every monomial of the box is tested against every raw
    instance of weight m and every raw pair product of lower weights, with
    no degree pruning and no clamped weight."""
    nvars = len(family.variables)

    def raw(k):
        return [tuple(ae.at(k) for ae in row) for row in family.templates]

    def div(g, x):
        return all(a <= b for a, b in zip(g, x))

    gens_m = raw(m)
    pair_products = []
    for a in range(1, m):
        for g in raw(a):
            for h in raw(m - a):
                pair_products.append(tuple(x + y for x, y in zip(g, h)))
    difference = set()
    for mono in box(nvars, degree_bound):
        in_im = any(div(g, mono) for g in gens_m)
        in_jm = any(div(p, mono) for p in pair_products)
        if in_im and not in_jm:
            difference.add(mono)
    return frozenset(
        x for x in difference if not any(y != x and div(y, x) for y in difference)
    )


ORACLE_FAMILIES = (
    "x*y, x^m, y^m",
    "x*y, y*z, x*z, x^m, y^m, z^m",
    "x^(m+1)*y, y^(2*m)",
    "x^m*y^m",
)


def tail_start(family, degree_bound):
    """The first weight from which no template of positive slope has total
    degree <= degree_bound any more, found by scanning weights."""
    reach = [
        k
        for row in family.templates
        if any(ae.slope for ae in row)
        for k in range(1, degree_bound + 2)
        if sum(ae.at(k) for ae in row) <= degree_bound
    ]
    return max(reach, default=0) + 1


@pytest.mark.parametrize(
    "src",
    # large offset, slope above 1, constant templates only
    ORACLE_FAMILIES + ("x^(m+5)", "x^(2*m)*y", "x*y, y^2")
    # instances that coincide, at m = 2 and at every weight
    + ("x^m, x^2", "x*y, x*y")
    # an int is the seed of a random family
    + tuple(pytest.param(seed, id=f"random-{seed}") for seed in range(8)),
)
def test_pruned_oracle_matches_unpruned(src):
    family = random_family(Random(src)) if isinstance(src, int) else parse_family(src)
    for degree_bound in (4, 6, 8):
        # past 2 * stable every a in the middle gives the pair (stable, stable),
        # and the oracle answers with its weight-(2 * stable) table
        for m in range(1, max(13, 2 * tail_start(family, degree_bound) + 6)):
            assert brute_force_new_generators(
                family, m, degree_bound
            ) == unpruned_oracle(family, m, degree_bound), (degree_bound, m)


def test_pruned_oracle_matches_unpruned_with_the_unit_template():
    # with only constant templates the tail starts at weight 1, so every a
    # gives the pair (1, 1); with the unit among the templates, that pair's
    # product is the one that removes the fresh generator 1.  The pair first
    # appears at weight 2 = 2 * stable, so an oracle clamped one weight too
    # early answers weight 2 with the table of weight 1
    zero, one = AffineExponent(0, 0), AffineExponent(0, 1)
    family = GradedMonomialFamily(XY, ((zero, zero), (one, one)))
    for degree_bound in (0, 2, 4):
        for m in range(1, 8):
            oracle = brute_force_new_generators(family, m, degree_bound)
            assert oracle == unpruned_oracle(family, m, degree_bound), (degree_bound, m)
            assert oracle == rees_report(family, max(m, 3)).row(m), (degree_bound, m)


def test_cached_oracle_answers_each_family_separately():
    # same weight, degree bound and stable = 7, different answers: a cache
    # keyed without the family would hand one family the other's table
    first, second = parse_family("x*y, x^m, y^m"), parse_family("x^m, y^m")
    assert tail_start(first, 6) == tail_start(second, 6) == 7
    for m in (5, 20, 5):
        for family in (first, second, first):
            assert brute_force_new_generators(family, m, 6) == unpruned_oracle(
                family, m, 6
            ), (str(family), m)
    assert brute_force_new_generators(first, 20, 6) == {(1, 1)}
    assert brute_force_new_generators(second, 20, 6) == frozenset()


def test_oracle_memo_answers_interleaved_calls():
    # one memo per family and degree bound, filled in whatever order the
    # calls come: weights fall as well as rise, and consecutive calls switch
    # family and bound, so each answer is built on tables another call began
    _oracle_memo.cache_clear()
    families = [parse_family(src) for src in ORACLE_FAMILIES[:3]]
    for m in (9, 3, 16, 1, 20, 7, 14, 2, 13, 8, 24, 15):
        for family in families:
            for degree_bound in (6, 4, 8):
                got = brute_force_new_generators(family, m, degree_bound)
                assert got == unpruned_oracle(family, m, degree_bound), (
                    str(family), m, degree_bound
                )
    assert _oracle_memo.cache_info().misses == 9


def test_oracle_memo_keeps_only_the_products_with_stable():
    # with a bound nothing reaches there is no clamp up to m = 160: every
    # pair (a, m - a) occurs at one weight only, so its products are formed
    # there and dropped, not kept as one of about 160**2 / 4 sets
    family = FAMILY
    _oracle_memo.cache_clear()
    report = rees_report(family, 160)
    for m in range(1, 161):
        assert brute_force_new_generators(family, m, 10**9) == report.row(m), m
    memo = _oracle_memo(family, 10**9)
    assert memo.stable > 160
    assert not memo.with_stable
    assert len(memo.kept) == len(memo.answers) == 160
    # with the cap of the rees suite, weight 7 = stable stands for every
    # later weight, and only its products with weights 1..7 are kept
    for m in range(160, 0, -1):
        brute_force_new_generators(family, m, 6)
    memo = _oracle_memo(family, 6)
    assert memo.stable == 7
    assert sorted(memo.with_stable) == list(range(1, 8))
    assert sorted(memo.answers) == list(range(1, 15))


def test_oracle_cap_from_the_instances_judges_every_generator():
    # at weight m the largest total degree among the weight-m instances is
    # a cap that sees every generator: it equals a cap nothing reaches.
    # The cap changes with m, so each weight builds a memo of its own; the
    # rees suite's cap-6 memo, asked for at every weight, must outlive them
    _oracle_memo.cache_clear()
    keys = set()
    cyclic = "x^m*y, y^m*z, z^m*x, x*y*z"
    for src in ("x*y, x^m, y^m", "x*y, y*z, x*z, x^m, y^m, z^m", cyclic):
        family = parse_family(src)
        for m in range(1, 41):
            cap = max(sum(ae.at(m) for ae in row) for row in family.templates)
            assert brute_force_new_generators(family, m, cap) == brute_force_new_generators(
                family, m, 10**9
            ), (src, m)
            brute_force_new_generators(family, m, 6)
            keys |= {(src, cap), (src, 10**9), (src, 6)}
    info = _oracle_memo.cache_info()
    assert info.misses == len(keys) and info.currsize <= info.maxsize, info


def test_oracle_tail_starts_where_the_tests_expect():
    assert tail_start(parse_family("x*y, y*z, x*z, x^m, y^m, z^m"), 6) == 7
    assert tail_start(parse_family("x^(m+5)"), 4) == 1
    assert tail_start(parse_family("x^(2*m)*y"), 8) == 4
    assert tail_start(parse_family("x*y, y^2"), 8) == 1


def test_oracle_refuses_weight_below_one():
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"weight m={m} must be >= 1"):
            brute_force_new_generators(FAMILY, m, 6)


def test_oracle_refuses_negative_degree_bound():
    with pytest.raises(ValueError, match="degree_bound=-1 must be >= 0"):
        brute_force_new_generators(FAMILY, 3, degree_bound=-1)
    assert brute_force_new_generators(parse_family("x^m"), 1, degree_bound=0) == set()


def test_oracle_refuses_weights_below_m_min():
    # m = 1 is the least weight of every family
    for m in (0, -1):
        with pytest.raises(ValueError, match=rf"^m={m} below validated range \(m >= 1\)$"):
            FAMILY.instantiate(m)
        with pytest.raises(ValueError):
            brute_force_new_generators(FAMILY, m, 6)


def pairwise_multiplicative(family, upto):
    """I_a * I_b inside I_{a+b}, tested product by product."""
    for a in range(1, upto):
        for b in range(a, upto - a + 1):
            target = family.instantiate(a + b)
            for g in family.instantiate(a).generators:
                for h in family.instantiate(b).generators:
                    if not target.member(tuple(x + y for x, y in zip(g, h))):
                        return False
    return True


def reference_component(family, m):
    """J_m as the sum of the ideal products I_a * I_{m-a}."""
    j_m = MonomialIdeal(family.variables, ())
    for a in range(1, m):
        j_m = j_m + family.instantiate(a) * family.instantiate(m - a)
    return j_m


def assert_weight_pass_matches_reference(family, top):
    """Every entry point of the weight pass against the references, at every
    weight below the first one where the family stops being multiplicative."""
    for upto in range(1, top + 1):
        assert multiplicative(family, upto) == pairwise_multiplicative(
            family, upto
        ), upto
    good = 0
    while good < top and pairwise_multiplicative(family, good + 1):
        good += 1
    rows = rees_report(family, good).rows if good >= 3 else ()
    for m in range(1, good + 1):
        j_m = reference_component(family, m)
        fresh = frozenset(
            g for g in family.instantiate(m).generators if not j_m.member(g)
        )
        assert weight_pass(family, m) == (j_m, fresh), m
        if rows:
            assert rows[m - 1] == (m, fresh), m


REFERENCE_FAMILIES = ORACLE_FAMILIES + (
    "x^m",
    "x*y",
    "x*y, z^m",
    "x^(2*m-1)",
    "x^m, y^(2*m)",
    "x^(m+1)*y, y^(2*m), x^2*y",
)


# Slope differences D = slope(s) - slope(t) of template pairs, in both
# template orders: D >= 0 (x^m*y before x^2*y^2), D <= 0 (x^2*y^2 before
# z^m), D = 0 (s = t, and x^m*y with x^(m+1)*z) and mixed (x^m*y with
# x*y^(2*m)).  The first two are not multiplicative past weight 1.  In
# x^m*y, x*y^m only the inner point x^3*y^3 (a = 2) of the mixed line
# x^m*y * x*y^m leaves I_4, so only a pass that keeps every point of a
# mixed line sees it fail at weight 4.
LINE_FAMILIES = (
    "x^m*y, x*y^m",
    "x^m*y, x*y^(2*m), x^2*y^2, z^m",
    "z^m, x^2*y^2, x*y^(2*m), x^m*y",
    "x^m*y, x*y^(2*m), x^2*y^2, z^m, x*z, y*z",
    "y*z, x*z, z^m, x^2*y^2, x*y^(2*m), x^m*y",
    "x^m*y, x^(m+1)*z, y*z",
    "y*z, x^(m+1)*z, x^m*y",
    "x^(2*m)*y, x*y^m, x*y",
    "x^(m+1)*y, x*y^(m+1), x^3*y^3",
    "x^(m+1)*y, x*y^(m+1), x^4*y^4",
)


@pytest.mark.parametrize("src", REFERENCE_FAMILIES + LINE_FAMILIES)
def test_weight_pass_matches_reference(src):
    assert_weight_pass_matches_reference(parse_family(src), 15)


def reference_lines(family, m):
    """The product of each sign-definite template pair at a = 1 or a = m-1,
    and every point of each mixed-sign pair, at weight m."""
    ends, points = set(), set()
    rows = family.templates
    for i, s in enumerate(rows):
        for t in rows[i:]:
            line = [
                tuple(p.at(a) + q.at(m - a) for p, q in zip(s, t)) for a in range(1, m)
            ]
            d = [p.slope - q.slope for p, q in zip(s, t)]
            if min(d) >= 0:
                ends.update(line[:1])
            elif max(d) <= 0:
                ends.update(line[-1:])
            else:
                points.update(line)
    return ends, points


def reference_candidates(family, m):
    """Every endpoint product, and each mixed-line point that none of them
    divides: the candidate set before endpoint lines were pruned."""
    ends, points = reference_lines(family, m)
    return ends | {x for x in points if not any(divides(c, x) for c in ends)}


def reference_end_lines(family):
    """Each sign-definite template pair's endpoint as the affine (K, C) with
    E(m) = K*m + C, read off its products at weights 3 and 4."""
    def endpoint(s, t, m):
        d = [p.slope - q.slope for p, q in zip(s, t)]
        a = 1 if min(d) >= 0 else m - 1
        return [p.at(a) + q.at(m - a) for p, q in zip(s, t)]

    lines = set()
    rows = family.templates
    for i, s in enumerate(rows):
        for t in rows[i:]:
            d = [p.slope - q.slope for p, q in zip(s, t)]
            if min(d) >= 0 or max(d) <= 0:
                e3, e4 = endpoint(s, t, 3), endpoint(s, t, 4)
                k = tuple(y - x for x, y in zip(e3, e4))
                lines.add((k, tuple(x - 3 * ki for x, ki in zip(e3, k))))
    return lines


def at(line, m):
    return tuple(k * m + c for k, c in zip(*line))


def line_families(rng):
    families = [parse_family(src) for src in REFERENCE_FAMILIES + LINE_FAMILIES]
    return families + [random_family(rng) for _ in range(40)]


def test_interval_cut_keeps_a_generating_subset_of_the_reference():
    # Endpoint lines that another one divides are dropped, so the cut keeps
    # a subset of the unpruned candidates that generates the same J_m, and
    # it still keeps every mixed-line point that no kept endpoint product
    # divides
    pruned = 0
    for family in line_families(Random(47)):
        lines = _lines(family.templates)
        for m in range(1, 25):
            kept = _candidates(lines, m)
            reference = reference_candidates(family, m)
            assert kept <= reference, (str(family), m)
            assert minimalize(kept) == minimalize(reference), (str(family), m)
            ends = {at(line, m) for line in lines[0]} if m >= 2 else set()
            _, points = reference_lines(family, m)
            assert {x for x in points if not any(divides(c, x) for c in ends)} <= kept
            pruned += len(reference - kept)
    assert pruned > 100, pruned


def test_dropped_endpoint_lines_are_divided_by_kept_ones():
    # the rule (K1 <= K2 and E1(2) <= E2(2)) checked numerically, weight by
    # weight, against endpoint lines derived from the templates
    dropped = 0
    for family in line_families(Random(53)):
        kept = _lines(family.templates)[0]
        lines = reference_end_lines(family)
        assert len(set(kept)) == len(kept) and set(kept) <= lines, str(family)
        for line in lines - set(kept):
            dropped += 1
            for m in range(2, 61):
                assert any(divides(at(k, m), at(line, m)) for k in kept), (
                    str(family), line, m
                )
    assert dropped > 50, dropped


def test_three_variable_family_prunes_to_ten_endpoint_lines():
    # 18 of the 21 template pairs are sign-definite, on 16 distinct lines;
    # 10 are kept.  Over weights 1..80 the kept candidates are within 7 of
    # the minimal generators of J_m
    family = parse_family("x*y, y*z, x*z, x^m, y^m, z^m")
    lines = _lines(family.templates)
    assert (len(reference_end_lines(family)), len(lines[0]), len(lines[1])) == (16, 10, 3)
    kept = [_candidates(lines, m) for m in range(1, 81)]
    reference = [reference_candidates(family, m) for m in range(1, 81)]
    assert sum(map(len, reference)) == 1267
    assert sum(map(len, kept)) == 793
    assert sum(len(minimalize(c)) for c in kept) == 786


def test_interval_cut_keeps_two_gaps_of_one_mixed_line():
    # at m = 10 the mixed line x^m*y * x*y^m has points x^(a+2)*y^(12-a);
    # x^4*y^4 * x^2*y, x^4*y^4 * x*y^2 and x^8*y^8 cover a in [3, 7]
    family = parse_family("x^(m+1)*y, x*y^(m+1), x^4*y^4")
    lines = _lines(family.templates)
    assert len(lines[1]) == 1
    line = {(a + 2, 12 - a) for a in range(1, 10)}
    kept = _candidates(lines, 10) & line
    assert kept == {(3, 11), (4, 10), (10, 4), (11, 3)}
    assert kept <= weight_pass(family, 10)[0].generators


def random_family(rng: Random) -> GradedMonomialFamily:
    """Two to four templates, none of them the unit monomial, in two or
    three variables, with slopes 0..2 and offsets 0..3."""
    variables = ("x", "y", "z")[: rng.choice((2, 3))]
    rows = []
    while len(rows) < rng.randint(2, 4):
        row = tuple(
            AffineExponent(rng.randint(0, 2), rng.randint(0, 3)) for _ in variables
        )
        if any(ae.slope or ae.offset for ae in row):
            rows.append(row)
    return GradedMonomialFamily(variables, tuple(rows))


@pytest.mark.parametrize("seed", range(20))
def test_weight_pass_on_random_families(seed):
    assert_weight_pass_matches_reference(random_family(Random(seed)), 20)


def test_multiplicativity_violation_at_every_entry_point():
    skewed = parse_family("x^(2*m-1)")
    assert not multiplicative(skewed, 4)
    assert not multiplicative(parse_family("x^(m+1)*y, y^(2*m)"), 2)
    for call in (lambda: rees_report(skewed, 4), lambda: weight_pass(skewed, 4)):
        with pytest.raises(MultiplicativityViolation) as exc:
            call()
        assert str(exc.value) == (
            "family (x^2*m-1) is not multiplicative up to 4: at weight 2"
            " the minimal generator x^2 of J_2 is not in I_2"
        )
    # weight 1 has no lower weights to violate anything
    assert weight_pass(skewed, 1)[1] == {(1,)}


def test_violation_names_the_least_minimal_generator_outside_i_m():
    # The pass names the least candidate outside I_m in printing order; the
    # reference names the least minimal generator of J_m outside I_m.  They
    # agree because a minimal generator dividing that candidate is itself a
    # candidate outside I_m, of smaller degree unless equal.  Some draws have
    # a non-minimal candidate outside I_m, where only that argument helps,
    # and some have minimal generators outside I_m whose least in printing
    # order is not the least by plain tuple order.
    violations = non_minimal = reordered = 0
    for seed in range(250):
        family = random_family(Random(seed))
        if multiplicative(family, 12):
            continue
        violations += 1
        m = next(k for k in range(2, 13) if not pairwise_multiplicative(family, k))
        i_m = family.instantiate(m)
        j_m = reference_component(family, m)  # minimal generators
        minimal_outside = [g for g in j_m.generators if not i_m.member(g)]
        first = min(minimal_outside, key=_print_order)
        with pytest.raises(MultiplicativityViolation) as exc:
            weight_pass(family, 12)
        assert str(exc.value) == (
            f"family ({family}) is not multiplicative up to 12: at weight {m}"
            f" the minimal generator {monomial_str(family.variables, first)}"
            f" of J_{m} is not in I_{m}"
        ), seed
        outside = {
            c for c in _candidates(_lines(family.templates), m) if not i_m.member(c)
        }
        non_minimal += bool(outside - j_m.generators)
        reordered += first != min(minimal_outside)
    assert violations >= 100 and non_minimal >= 5 and reordered >= 5, (
        violations, non_minimal, reordered
    )
