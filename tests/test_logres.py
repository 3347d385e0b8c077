"""Restriction, gluing, and embedding tests for the plane-chart models."""

import inspect
import re
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from nccanon.exactalg import (
    LaurentPolynomial,
    NegativeExponentAtRestriction,
    parse_polynomial,
)
import nccanon.logres as logres
from nccanon.logres import (
    ASSIGNMENT_0XY0,
    CHAIN_PLANES,
    HALF_PLANE_U,
    HALF_PLANE_V,
    NC_PAIR,
    SIGMA,
    SMOOTH_PAIR,
    BranchMatch,
    BranchRestriction,
    BranchRule,
    ChartModel,
    EmbeddingAssignment,
    EmbeddingNotFound,
    MonomialMap,
    PlaneEmbedding,
    PluriSection,
    UnknownBranch,
    embed_check,
    embed_search,
    gluing_ideal,
    glues,
    obstructions,
    partner_sections,
    pullback_sigma,
    restrict,
)
from nccanon.monideal import MonomialIdeal, parse_family


def nc_section(m: int, coeff_src: str, meromorphic=False) -> PluriSection:
    coeff = parse_polynomial(coeff_src, NC_PAIR.variables)
    return PluriSection(NC_PAIR, m, coeff, meromorphic)


def upoly(src: str, var: str) -> LaurentPolynomial:
    return parse_polynomial(src, (var,))


# -- restriction rules ---------------------------------------------------------


def test_nc_restriction_signs():
    # the curve generator restricts to -dx/x on (y=0) and dy/y on (x=0)
    r_y = restrict(nc_section(1, "1"), "y")
    assert r_y == BranchRestriction("x", 1, upoly("-x^-1", "x"))
    assert r_y.pole_order == 1
    r_x = restrict(nc_section(1, "1"), "x")
    assert r_x == BranchRestriction("y", 1, upoly("y^-1", "y"))


def test_nc_restriction_examples():
    assert restrict(nc_section(1, "x*y"), "x").h.is_zero
    assert restrict(nc_section(1, "y^2"), "x") == BranchRestriction(
        "y", 1, upoly("y", "y")
    )
    cubic = PluriSection(SMOOTH_PAIR, 2, parse_polynomial("x^3", ("x", "y")))
    assert restrict(cubic, "y") == BranchRestriction("x", 2, upoly("x^3", "x"))
    assert restrict(cubic, "y").pole_order == 0


def test_half_plane_restrictions():
    one_u = PluriSection(HALF_PLANE_U, 1, parse_polynomial("1", ("u1", "v1")))
    assert restrict(one_u, "u1") == BranchRestriction("v1", 1, upoly("1", "v1"))
    one_v = PluriSection(HALF_PLANE_V, 1, parse_polynomial("1", ("u2", "v2")))
    assert restrict(one_v, "v2") == BranchRestriction("u2", 1, upoly("-1", "u2"))


def test_unknown_branch():
    with pytest.raises(UnknownBranch):
        restrict(nc_section(1, "1"), "u1")
    with pytest.raises(UnknownBranch):
        pullback_sigma(BranchRestriction("x", 1, upoly("x", "x")))


def test_chart_curve_is_the_product_of_its_branches():
    curves = [model.curve for model in (NC_PAIR, SMOOTH_PAIR, HALF_PLANE_U, HALF_PLANE_V)]
    assert curves == ["x*y=0", "y=0", "u1=0", "v2=0"]


def test_unknown_branch_message():
    with pytest.raises(UnknownBranch) as exc:
        NC_PAIR.branch("u1")
    assert str(exc.value) == "chart nc-pair has no branch (u1=0); curve is x*y=0"
    with pytest.raises(UnknownBranch) as exc:
        HALF_PLANE_V.branch("u2")
    assert str(exc.value) == "chart half-plane-v has no branch (u2=0); curve is v2=0"


def test_meromorphic_coefficient():
    with pytest.raises(ValueError):
        nc_section(1, "x^-1")
    section = nc_section(1, "x^-1*y", meromorphic=True)
    with pytest.raises(NegativeExponentAtRestriction):
        restrict(section, "x")
    # ``meromorphic`` admits poles and is not stored: one section either way
    x, pole = nc_section(1, "x", meromorphic=True), nc_section(1, "x^-1", meromorphic=True)
    assert x == nc_section(1, "x") and hash(x) == hash(nc_section(1, "x"))
    assert len({x, nc_section(1, "x")}) == 1
    assert x * pole == nc_section(2, "1")
    assert pole * pole == nc_section(2, "x^-2", meromorphic=True)


def test_section_reads_its_weight_as_an_int():
    # a float weight would pass here and fail only in ``restrict``, on the
    # non-integer shift (-1.5,); a bool weight is stored as its int
    coeff = parse_polynomial("x*y", NC_PAIR.variables)
    for bad in (1.5, 2.0):
        with pytest.raises(TypeError):
            PluriSection(NC_PAIR, bad, coeff)
    section = PluriSection(NC_PAIR, True, coeff)
    assert type(section.weight) is int and section == nc_section(1, "x*y")


def test_section_refuses_a_coefficient_off_laurent_polynomials():
    # a string coefficient used to fail on its missing ``variables``
    for bad in ("f", None, 3):
        with pytest.raises(TypeError, match="^coefficient .* is not a LaurentPolynomial$"):
            PluriSection(NC_PAIR, 2, bad)


def test_chart_model_refuses_branches_off_its_variables():
    for variables, rules in (
        (("x", "y"), (BranchRule("z", "w", 1, True),)),  # names no chart variable
        (("x", "y"), (BranchRule("x", "z", 1, True),)),  # a parameter off the chart
        # two branches on x: ``branch("x")`` would answer with the first
        (("x", "y"), (BranchRule("x", "y", 1, True), BranchRule("x", "y", -1, False))),
        (("x", "y"), (BranchRule("x", "x", 1, True),)),  # parametrized by itself
        (("x", "y", "z"), (BranchRule("x", "y", 1, True),)),  # not a plane chart
        (("x", "x"), ()),
    ):
        with pytest.raises(ValueError, match="^chart bad over"):
            ChartModel("bad", variables, rules)


def test_branch_rule_refuses_a_sign_off_one_and_a_pole_flag_off_bool():
    # a sign of 2 would scale every restriction by 2^m; a string flag would
    # read as a log pole in ``restrict`` and fail in ``MonomialMap.of``; a
    # float sign would fail only in ``restrict``, on the scaled coefficient
    for sign in (2, 0, -2, 1.0, -1.0):
        with pytest.raises(ValueError, match="residue_sign must be"):
            BranchRule("x", "y", sign, True)
    for flag in ("no", 1, None):
        with pytest.raises(TypeError, match="log_pole must be a bool"):
            BranchRule("x", "y", 1, flag)


def test_branch_match_refuses_branches_off_its_charts():
    for nc, half_plane, half in (
        (SMOOTH_PAIR.branch("y"), HALF_PLANE_V, HALF_PLANE_V.branch("v2")),
        (NC_PAIR.branch("x"), HALF_PLANE_U, BranchRule("v1", "u1", 1, False)),
        (NC_PAIR.branch("x"), HALF_PLANE_U, HALF_PLANE_V.branch("v2")),
    ):
        with pytest.raises(ValueError, match=f"^a leg joins a branch of nc-pair and one of "
                                             f"{half_plane.name}, not"):
            BranchMatch(nc, half_plane, half)


# -- the pullback through the gluing -------------------------------------------


def test_pullback_examples():
    dv1 = BranchRestriction("v1", 1, upoly("1", "v1"))
    assert pullback_sigma(dv1) == BranchRestriction("y", 1, upoly("1", "y"))
    du2 = BranchRestriction("u2", 1, upoly("1", "u2"))
    assert pullback_sigma(du2) == BranchRestriction("x", 1, upoly("1", "x"))
    squared = BranchRestriction("v1", 2, upoly("v1", "v1"))
    assert pullback_sigma(squared) == BranchRestriction("y", 2, upoly("y", "y"))


def test_pullback_matches_log_frame_oracle():
    # the computation in the nc log frame: read h(t) as h(s), write (dt)^m as
    # (sign*s)^m * eta^m, then fold eta^m = (sign*ds/s)^m back into (ds)^m
    rng = Random(59)
    for leg, m, _ in product(SIGMA, range(9), range(12)):
        t, s, sign = leg.half.param_var, leg.nc.param_var, leg.nc.residue_sign
        terms = {(rng.randrange(-4, 5),): Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                 for _ in range(rng.randrange(6))}
        h = LaurentPolynomial((t,), terms)
        # each shift and sign as plain data, on the coefficients of h
        in_log_frame = {(e + m,): sign**m * c for (e,), c in h.terms().items()}
        folded = {(e - m,): sign**m * c for (e,), c in in_log_frame.items()}
        expected = BranchRestriction(s, m, LaurentPolynomial((s,), folded))
        assert pullback_sigma(BranchRestriction(t, m, h)) == expected


def test_pullback_restrict_multiplicative():
    rng = Random(37)
    for _ in range(60):
        m1, m2 = rng.randrange(1, 4), rng.randrange(1, 4)
        c1 = LaurentPolynomial.monomial(
            HALF_PLANE_U.variables,
            {"u1": rng.randrange(3), "v1": rng.randrange(3)},
            rng.randrange(1, 4),
        )
        c2 = LaurentPolynomial.monomial(
            HALF_PLANE_U.variables,
            {"u1": rng.randrange(3), "v1": rng.randrange(3)},
            rng.randrange(1, 4),
        )
        s1 = PluriSection(HALF_PLANE_U, m1, c1)
        s2 = PluriSection(HALF_PLANE_U, m2, c2)
        lhs = pullback_sigma(restrict(s1 * s2, "u1"))
        rhs = pullback_sigma(restrict(s1, "u1")) * pullback_sigma(restrict(s2, "u1"))
        assert lhs == rhs


def test_restriction_of_product_is_product_of_restrictions():
    rng = Random(41)
    for _ in range(60):
        s1 = nc_section(rng.randrange(1, 4), "x^2*y + 2*x*y")
        s2 = nc_section(rng.randrange(1, 4), "x*y^3 + x*y")
        for branch in ("x", "y"):
            assert restrict(s1 * s2, branch) == restrict(s1, branch) * restrict(
                s2, branch
            )


def test_restrict_factor_matches_scaled_restriction():
    # restrict(s, b, k) folds k into its one restriction; the oracle scales
    # the plain restriction afterwards
    rng = Random(83)
    outcomes = {"pole": 0, "log-pole": 0, "holomorphic": 0}
    for model in (NC_PAIR, SMOOTH_PAIR, HALF_PLANE_U, HALF_PLANE_V):
        for rule in model.branches:
            for _ in range(40):
                m = rng.randrange(0, 5)
                terms = {
                    (rng.randrange(-1, 4), rng.randrange(-1, 4)):
                        Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randrange(1, 4))
                    for _ in range(rng.randrange(1, 7))
                }
                coeff = LaurentPolynomial(model.variables, terms)
                section = PluriSection(model, m, coeff, meromorphic=True)
                for factor in (1, -1, 2, Fraction(-3, 2)):
                    try:
                        plain = restrict(section, rule.zero_var)
                        want = BranchRestriction(plain.curve_var, plain.weight, plain.h * factor)
                    except NegativeExponentAtRestriction as exc:
                        with pytest.raises(NegativeExponentAtRestriction,
                                           match=f"^{re.escape(str(exc))}$"):
                            restrict(section, rule.zero_var, factor)
                        outcomes["pole"] += 1
                        continue
                    assert restrict(section, rule.zero_var, factor) == want
                    outcomes["log-pole" if want.pole_order else "holomorphic"] += 1
    assert min(outcomes.values()) >= 40, outcomes


# -- the gluing condition -------------------------------------------------------


def zero_partner(model, m):
    return PluriSection(model, m, LaurentPolynomial.zero(model.variables))


def test_glues_examples():
    # all three restrictions vanish
    assert glues(
        nc_section(1, "x*y"), zero_partner(HALF_PLANE_U, 1), zero_partner(HALF_PLANE_V, 1)
    )
    # weight 2: y^2 restricts to 1 on (x=0); the constant partner matches
    assert glues(
        nc_section(2, "y^2"),
        PluriSection(HALF_PLANE_U, 2, parse_polynomial("1", HALF_PLANE_U.variables)),
        zero_partner(HALF_PLANE_V, 2),
    )
    # pole 1 against holomorphic partners: no gluing
    assert not glues(
        nc_section(1, "1"), zero_partner(HALF_PLANE_U, 1), zero_partner(HALF_PLANE_V, 1)
    )


def test_glues_weight_mismatch():
    with pytest.raises(ValueError, match="^sections must have equal weights$"):
        glues(
            nc_section(2, "x*y"),
            zero_partner(HALF_PLANE_U, 1),
            zero_partner(HALF_PLANE_V, 2),
        )
    # y^2 at weight 2 and the constant 1 at weight 4 restrict to the same
    # coefficient 1 on (x=0): the weights, not the coefficients, refuse them
    one = PluriSection(HALF_PLANE_U, 4, parse_polynomial("1", HALF_PLANE_U.variables))
    assert restrict(nc_section(2, "y^2"), "x").h == pullback_sigma(restrict(one, "u1")).h
    with pytest.raises(ValueError, match="^sections must have equal weights$"):
        glues(nc_section(2, "y^2"), one, zero_partner(HALF_PLANE_V, 2))


def test_glues_compares_restricted_coefficients():
    section = nc_section(2, "x^3 + x*y + y^2 + 2*y^5")
    partners = partner_sections(section)
    assert glues(section, *partners)
    for i, (leg, partner) in enumerate(zip(SIGMA, partners)):
        variables, t = partner.model.variables, leg.half.param_var
        changes = (
            # one coefficient of the restriction changes, or one term joins it
            ({t: 0}, Fraction(1, 3), False),
            ({t: 7}, -2, False),
            # a term that the restriction drops changes nothing
            ({t: 1, leg.half.zero_var: 1}, 5, True),
        )
        for exps, c, glued in changes:
            changed = list(partners)
            bump = LaurentPolynomial.monomial(variables, exps, c)
            changed[i] = PluriSection(partner.model, 2, partner.coeff + bump)
            assert glues(section, *changed) is glued, (leg, exps)


def test_sign_coherence():
    # nc coefficient y^m restricts to 1 on (x=0); the +1 partner glues
    # exactly at even weight, so flipping parity flips the verdict
    for m in (2, 4):
        assert glues(
            nc_section(m, f"y^{m}"),
            PluriSection(HALF_PLANE_U, m, parse_polynomial("1", HALF_PLANE_U.variables)),
            zero_partner(HALF_PLANE_V, m),
        )
    for m in (1, 3):
        assert not glues(
            nc_section(m, f"y^{m}"),
            PluriSection(HALF_PLANE_U, m, parse_polynomial("1", HALF_PLANE_U.variables)),
            zero_partner(HALF_PLANE_V, m),
        )


def test_glues_rejects_partners_off_sigma():
    u, v = zero_partner(HALF_PLANE_U, 1), zero_partner(HALF_PLANE_V, 1)
    section = nc_section(1, "x*y")
    assert glues(section, u, v)
    for partners in ((u,), (u, v, v)):
        with pytest.raises(ValueError, match="^expected 2 partners"):
            glues(section, *partners)
    # each partner on the wrong chart, the nc pair and the smooth pair included
    smooth, nc = zero_partner(SMOOTH_PAIR, 1), zero_partner(NC_PAIR, 1)
    for partners in ((v, u), (u, u), (smooth, v), (u, nc)):
        with pytest.raises(ValueError, match="^partner sections must live on the half planes"):
            glues(section, *partners)
    with pytest.raises(ValueError, match="^first section must live on the nc pair$"):
        glues(u, u, v)


def test_nc_functions_refuse_sections_off_the_nc_pair():
    # a chart with the nc pair's variables and branch names but no log pole:
    # before the chart check, partner_sections found partners for it and
    # obstructions found none
    look_alike = ChartModel(
        "other", ("x", "y"), (BranchRule("x", "y", +1, False), BranchRule("y", "x", +1, False))
    )
    u, v = zero_partner(HALF_PLANE_U, 1), zero_partner(HALF_PLANE_V, 1)
    for model in (look_alike, SMOOTH_PAIR, HALF_PLANE_U):
        section = PluriSection(model, 1, LaurentPolynomial.monomial(model.variables, {}))
        for call in (lambda: partner_sections(section), lambda: obstructions(section),
                     lambda: glues(section, u, v)):
            with pytest.raises(ValueError, match="^first section must live on the nc pair$"):
                call()
        assert all(hit[0] is not section for hit in logres._NC_LEGS.values())


def test_sigma_legs_are_chart_branches():
    # every leg names a branch of the nc pair and of its own half plane, so
    # parameter names and residue signs are read from the chart data
    rng = Random(67)
    for leg in SIGMA:
        assert leg.nc in NC_PAIR.branches
        assert leg.half in leg.half_plane.branches
        assert not leg.half.log_pole
        # the fields the constructor derives from the two rules
        assert leg.gluing.near == MonomialMap.of(NC_PAIR.variables, leg.nc)
        assert leg.gluing.far == MonomialMap.of(leg.half_plane.variables, leg.half)
        assert leg.gluing.far_per_near == 1
        # to_half, then to_nc, is the identity on the nc parameter
        s = leg.nc.param_var
        for _ in range(12):
            terms = {(rng.randrange(-4, 5),): Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                     for _ in range(rng.randrange(6))}
            p = LaurentPolynomial((s,), terms)
            on_half = p.substitute_monomials(leg.to_half)
            assert on_half.variables == leg.half_plane.variables
            back = on_half.restrict_var(leg.half.zero_var).substitute_monomials(leg.to_nc)
            assert back == p
    assert len({leg.nc for leg in SIGMA}) == len(NC_PAIR.branches)


# -- the gluing ideal ------------------------------------------------------------


def oracle_gluing_exponents(m: int) -> frozenset:
    """Independent divisibility oracle: a monomial x^a*y^b admits partners
    iff its (x=0) restriction is divisible by y^m and its (y=0) restriction
    by x^m, i.e. (a>=1 or b>=m) and (b>=1 or a>=m)."""
    hits = set()
    for a in range(m + 1):
        for b in range(m + 1):
            if (a >= 1 or b >= m) and (b >= 1 or a >= m):
                hits.add((a, b))
    minimal = {
        x
        for x in hits
        if not any(y != x and all(p <= q for p, q in zip(y, x)) for y in hits)
    }
    return frozenset(minimal)


def test_gluing_ideal_matches_family():
    family = parse_family("x*y, x^m, y^m")
    for m in range(1, 21):
        computed = gluing_ideal(m)
        assert computed == family.instantiate(m)
        assert computed.generators == oracle_gluing_exponents(m)


def test_gluing_ideal_small_values():
    assert gluing_ideal(1) == MonomialIdeal(("x", "y"), {(1, 0), (0, 1)})
    assert gluing_ideal(3) == MonomialIdeal(("x", "y"), {(1, 1), (3, 0), (0, 3)})
    assert gluing_ideal(7) == MonomialIdeal(("x", "y"), {(1, 1), (7, 0), (0, 7)})
    with pytest.raises(ValueError):
        gluing_ideal(0)


def test_gluing_ideal_cache_returns_the_intersection_of_the_leg_ideals():
    for m in range(1, 201):
        on_x, on_y = (leg.gluing.ideal(NC_PAIR.variables, m) for leg in SIGMA)
        assert gluing_ideal(m) == on_x & on_y
        assert gluing_ideal(m) is gluing_ideal(m)
    # the argument check runs on every call, ahead of the warm cache
    for bad in (0, -1):
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            gluing_ideal(bad)
    # the benchmark's tracer wraps and counts only plain functions, so the
    # cache sits behind gluing_ideal rather than decorating it
    assert inspect.isfunction(logres.gluing_ideal)


def test_gluing_ideal_reads_the_weight_as_an_int():
    # 2.0 would build (x^2.0, x*y, y^2.0); the cache is keyed by the int
    with pytest.raises(TypeError):
        gluing_ideal(2.0)
    assert gluing_ideal(True) is gluing_ideal(1)


def test_gluing_ideal_is_never_principal():
    # A glued function restricts onto every function of the nc chart, so a
    # local generator of the reflexive power omega^[m] at the glued point
    # would make I_m principal.  I_m = (x, y) at m = 1 and (x*y, x^m, y^m)
    # from m = 2 on: no reflexive power is locally free there.
    assert len(gluing_ideal(1).generators) == 2
    for m in range(2, 201):
        assert len(gluing_ideal(m).generators) == 3, m


def test_members_glue_and_non_members_do_not():
    zero_partners = 0
    for m in range(1, 11):
        ideal = gluing_ideal(m)
        for exps in ideal.generators:
            section = PluriSection(
                NC_PAIR,
                m,
                LaurentPolynomial.monomial(NC_PAIR.variables, {"x": exps[0], "y": exps[1]}),
            )
            partners = partner_sections(section)
            assert partners is not None
            assert glues(section, *partners)
            if exps == (1, 1):
                # x*y restricts to 0 on both branches: its partners are the zeros
                # over the half planes' variables
                assert [p.coeff for p in partners] == [
                    LaurentPolynomial.zero(leg.half_plane.variables) for leg in SIGMA
                ]
                zero_partners += 1
        for a in range(m):
            for b in range(m - a):
                if ideal.member((a, b)):
                    continue
                section = PluriSection(
                    NC_PAIR,
                    m,
                    LaurentPolynomial.monomial(NC_PAIR.variables, {"x": a, "y": b}),
                )
                assert partner_sections(section) is None
    assert zero_partners == 9


def random_nc_polynomial(rng: Random, m: int) -> LaurentPolynomial:
    """An nc coefficient with 2 to 6 terms, exponents in [0, m + 1]."""
    size = rng.randrange(2, 7)
    terms = {}
    while len(terms) < size:
        exps = (rng.randrange(m + 2), rng.randrange(m + 2))
        terms[exps] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 4))
    return LaurentPolynomial(NC_PAIR.variables, terms)


def test_multi_term_sections_glue_iff_terms_in_gluing_ideal():
    rng = Random(53)
    outcomes = {True: 0, False: 0}
    negated = 0
    # (sign, non-integer) of the coefficients that obstructions reads back
    kinds = set()
    for m in range(1, 9):
        ideal = gluing_ideal(m)
        for _ in range(25):
            coeff = random_nc_polynomial(rng, m)
            section = PluriSection(NC_PAIR, m, coeff)
            partners = partner_sections(section)
            terms = coeff.terms()
            outside = frozenset(exps for exps in terms if not ideal.member(exps))
            assert obstructions(section) == outside
            assert (partners is None) == bool(outside)
            kinds.update((terms[e] > 0, terms[e].denominator > 1) for e in outside)
            in_ideal = not outside
            outcomes[in_ideal] += 1
            if partners is None:
                continue
            assert glues(section, *partners)
            nonzero = [i for i, p in enumerate(partners) if not p.coeff.is_zero]
            if nonzero:
                i = rng.choice(nonzero)
                flipped = list(partners)
                flipped[i] = PluriSection(partners[i].model, m, -partners[i].coeff)
                assert not glues(section, *flipped)
                negated += 1
    # both outcomes and the negated partners are exercised, not vacuous
    assert min(outcomes.values()) >= 50
    assert negated >= 20
    assert kinds == set(product((True, False), repeat=2))


# -- one restriction per nc leg ------------------------------------------------------


def counted_restrict(monkeypatch) -> list[tuple[str, str]]:
    """Patch ``logres.restrict`` to log (chart name, branch) per call."""
    calls, real = [], logres.restrict

    def counted(section, branch, *factor):
        calls.append((section.model.name, branch))
        return real(section, branch, *factor)

    monkeypatch.setattr(logres, "restrict", counted)
    return calls


def test_partner_sections_and_glues_restrict_each_nc_leg_once(monkeypatch):
    calls = counted_restrict(monkeypatch)
    src = "x^3 + x*y + 2*y^3 + y^5"
    section = nc_section(3, src)
    partners = partner_sections(section)
    assert calls == [("nc-pair", "x"), ("nc-pair", "y")]
    assert glues(section, *partners)
    assert calls[2:] == [("half-plane-u", "u1"), ("half-plane-v", "v2")]
    # an equal section that is another object is restricted again
    twin = nc_section(3, src)
    assert twin == section and twin is not section
    del calls[:]
    assert glues(twin, *partners)
    assert calls == [("nc-pair", "x"), ("half-plane-u", "u1"),
                     ("nc-pair", "y"), ("half-plane-v", "v2")]


def test_nc_leg_memo_holds_one_entry_per_branch():
    rng = Random(97)
    for _ in range(1000):
        m = rng.randrange(1, 6)
        section = PluriSection(NC_PAIR, m, random_nc_polynomial(rng, m))
        partners = partner_sections(section)
        if partners is not None:
            assert glues(section, *partners)
    branches = {rule.zero_var for rule in NC_PAIR.branches}
    assert set(logres._NC_LEGS) <= branches
    assert len(logres._NC_LEGS) == len(branches)
    for branch, (section, on_nc) in logres._NC_LEGS.items():
        assert on_nc == restrict(section, branch)


def test_glues_restricts_a_fresh_section_anew(monkeypatch):
    src = "x^3 + y^2"
    partners = partner_sections(nc_section(2, src))
    assert glues(nc_section(2, src), *partners)
    real = logres.restrict

    def nc_doubled(section, branch, *factor):
        r = real(section, branch, *factor)
        if section.model is NC_PAIR:
            return BranchRestriction(r.curve_var, r.weight, r.h * 2)
        return r

    monkeypatch.setattr(logres, "restrict", nc_doubled)
    assert not glues(nc_section(2, src), *partners)


def test_glues_agrees_with_and_without_the_nc_leg_memo():
    rng = Random(89)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        m = rng.randrange(1, 7)
        section = PluriSection(NC_PAIR, m, random_nc_polynomial(rng, m))
        partners = partner_sections(section)
        if partners is None:
            partners = tuple(zero_partner(leg.half_plane, m) for leg in SIGMA)
        elif rng.randrange(2):
            partners = (PluriSection(HALF_PLANE_U, m, partners[0].coeff + 1), partners[1])
        remembered = glues(section, *partners)
        logres._NC_LEGS.clear()
        assert glues(section, *partners) is remembered
        outcomes[remembered] += 1
    # both verdicts are exercised, not vacuous
    assert min(outcomes.values()) >= 40


def test_obstructions_fail_loudly_on_a_merged_term(monkeypatch):
    section = nc_section(2, "1 + x + y^3")
    assert obstructions(section) == {(0, 0), (1, 0)}
    # two equal terms merged on a leg would double the coefficient read back
    restrict_once = logres.restrict
    def restrict_doubled(s, b):
        r = restrict_once(s, b)
        return BranchRestriction(r.curve_var, r.weight, r.h * 2)

    monkeypatch.setattr(logres, "restrict", restrict_doubled)
    with pytest.raises(AssertionError, match="is not the term"):
        obstructions(section)


def test_glue_check_fails_and_names_what_obstructions_misses(monkeypatch):
    import nccanon.cli as cli

    # the suite reads the name cli imported from logres
    real = cli.obstructions
    for dropped, named in (({(2, 0)}, "x^2"), ({(2, 0), (0, 1)}, "y")):
        monkeypatch.setattr(cli, "obstructions", lambda s, d=dropped: real(s) - d)
        rows = {r.name: r for r in cli._suite_glue_check(4)}
        for m in range(1, 5):
            row = rows[f"glue/m={m}/non-members-rejected"]
            missed = [e for e in gluing_ideal(m).staircase() if e in dropped]
            if missed:
                # the first missed monomial in staircase order is named
                assert (row.verdict, row.computed) == ("fail", f"{named} has partners")
            else:
                assert (row.verdict, row.computed) == ("pass", "True")


def test_glue_check_names_a_member_without_partners(monkeypatch):
    import nccanon.cli as cli

    # y^(m-1) has a pole on the leg (x=0) for m >= 2, and is y^m's divisor
    real = cli.gluing_ideal
    monkeypatch.setattr(cli, "gluing_ideal", lambda m: MonomialIdeal(
        NC_PAIR.variables, real(m).generators | ({(0, m - 1)} if m >= 2 else set())))
    rows = {r.name: r for r in cli._suite_glue_check(5)}
    assert rows["glue/m=1/members-glue"].verdict == "pass"
    for m in range(2, 6):
        row = rows[f"glue/m={m}/members-glue"]
        named = "y" if m == 2 else f"y^{m - 1}"
        assert (row.verdict, row.computed) == ("fail", f"{named} has no partners")


def test_glue_check_fails_when_a_partner_does_not_glue(monkeypatch):
    import nccanon.cli as cli

    real = cli.partner_sections

    def negated_first(section):
        first, *rest = real(section)
        return (PluriSection(first.model, first.weight, -first.coeff), *rest)

    monkeypatch.setattr(cli, "partner_sections", negated_first)
    rows = [r for r in cli._suite_glue_check(5) if r.name.endswith("/members-glue")]
    assert len(rows) == 5
    assert {(r.verdict, r.computed) for r in rows} == {("fail", "False")}


# -- embedding of the triple point ------------------------------------------------


def test_assignment_0xy0_fails_glued_points():
    # images of a glued point differ: (0,0,y,0) on one side, (y,0,0,0) on
    # the other, so the hand-written maps are inconsistent with the gluing
    assert not embed_check(ASSIGNMENT_0XY0)
    nc, half_u, _ = ASSIGNMENT_0XY0.planes
    assert nc.param_image(1) != half_u.param_image(1)


def test_embed_check_detects_sign_flip():
    good = embed_search()
    assert embed_check(good)
    nc, half_u, half_v = good.planes
    flipped = EmbeddingAssignment(
        (nc, PlaneEmbedding(half_u.axes, (half_u.signs[0], -half_u.signs[1])), half_v)
    )
    assert not embed_check(flipped)


def test_embed_check_rejects_repeated_planes():
    same = PlaneEmbedding((0, 1), (1, 1))
    assert not embed_check(EmbeddingAssignment((same, same, same)))
    degenerate = PlaneEmbedding((2, 2), (1, 1))
    assert not embed_check(
        EmbeddingAssignment((degenerate, same, PlaneEmbedding((2, 3), (1, 1))))
    )


def test_embed_search_full_space():
    found = embed_search()
    assert embed_check(found)
    # deterministic: repeated searches return the same assignment
    assert embed_search() == found


def test_embed_search_chain_planes():
    found = embed_search(CHAIN_PLANES)
    assert embed_check(found)
    spans = {plane.spanned() for plane in found.planes}
    assert spans == set(CHAIN_PLANES)
    # the nc chart must sit on the middle component of the chain
    assert found.planes[0].spanned() == frozenset({0, 3})


def test_embed_search_empty_pool():
    with pytest.raises(EmbeddingNotFound):
        embed_search([])


def unpruned_search(allowed_planes=None):
    """The first of all placements in pool^3 that passes embed_check, in the
    order of ``embed_search``, or None; nothing is pruned."""
    pool = [
        PlaneEmbedding((a0, a1), signs)
        for a0 in range(4)
        for a1 in range(4)
        if a0 != a1
        and (allowed_planes is None or frozenset((a0, a1)) in allowed_planes)
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]
    for planes in product(pool, repeat=3):
        if embed_check(EmbeddingAssignment(planes)):
            return EmbeddingAssignment(planes)
    return None


def test_embed_search_matches_unpruned_scan():
    cycle = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 3})]
    for allowed in (None, CHAIN_PLANES, CHAIN_PLANES[1:], cycle):
        expected = unpruned_search(allowed)
        if expected is None:
            with pytest.raises(EmbeddingNotFound):
                embed_search(allowed)
        else:
            assert embed_search(allowed) == expected, allowed
    # two planes cannot hold three distinct images
    assert unpruned_search(CHAIN_PLANES[1:]) is None


def test_embedding_assignment_needs_one_placement_per_chart():
    plane = PlaneEmbedding((0, 1), (1, 1))
    for planes in ((), (plane, plane), (plane,) * 4):
        with pytest.raises(ValueError):
            EmbeddingAssignment(planes)
