"""Log pluricanonical sections on plane charts and their gluing.

Each chart model carries a fixed generator of the m-th power of the log
canonical bundle along its marked curve:

  nc pair        chart (x,y), curve x*y=0,  generator (dx^dy)/(x*y)
  smooth pair    chart (x,y), curve y=0,    generator (dx^dy)/y
  half plane U   chart (u1,v1), curve u1=0, generator (du1^dv1)/u1
  half plane V   chart (u2,v2), curve v2=0, generator (du2^dv2)/v2

A weight-m section is coeff * generator^m.  Restricting a section to a
branch of the curve uses the residue rule (df/f)^dg |-> dg on (f=0); the
resulting one-variable object is always normalized to the presentation
h(t)*(dt)^m, with all residue signs and dt/t factors folded into h.  On the
nc pair the curve generator eta restricts to -dx/x on (y=0) and to dy/y on
(x=0); the smooth pair restricts to dx, the half planes to dv1 and -du2.

The half planes are glued to the two branches of the nc curve by the map
sigma which identifies v1 = y and u2 = x, away from the origin.  Pulling a
half-plane restriction back through sigma substitutes the nc parameter for
its own; a triple of sections glues iff the nc restrictions equal (-1)^m
times the pulled-back half-plane restrictions on both branches.  The set of
nc coefficients admitting holomorphic half-plane partners at weight m is a
monomial ideal, read off each leg's pair of restriction maps (``Gluing``).

A separate concern of the same local model: the glued surface has a triple
point of embedding dimension 4.  ``embed_check`` decides whether a signed
placement of the three chart planes onto coordinate 2-planes of C^4 is
consistent with the gluing, and ``embed_search`` scans all placements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exactalg import (Exponents, LaurentPolynomial, MonomialSubstitution,
                       NegativeExponentAtRestriction, VariableMismatch, _Frozen,
                       _store)
from .monideal import MonomialIdeal


class UnknownBranch(Exception):
    """The requested branch is not part of the chart's marked curve."""


class EmbeddingNotFound(Exception):
    """No signed coordinate placement satisfies the consistency checks."""


class BranchRule(_Frozen):
    """Restriction data for one branch of a chart's marked curve.

    The chart generator restricts on (zero_var = 0) to
    residue_sign * d(param_var) / param_var   if log_pole else
    residue_sign * d(param_var).
    """

    __slots__ = ("zero_var", "param_var", "residue_sign", "log_pole")

    def __init__(self, zero_var: str, param_var: str, residue_sign: int,
                 log_pole: bool) -> None:
        _store(self, "zero_var", zero_var)
        _store(self, "param_var", param_var)
        _store(self, "residue_sign", residue_sign)
        _store(self, "log_pole", log_pole)


class ChartModel(_Frozen):
    """A plane chart's two variables and the branches of its marked curve;
    each branch sets one variable to 0, once, and is parametrized by the other."""

    __slots__ = ("name", "variables", "branches")

    def __init__(self, name: str, variables: tuple[str, str],
                 branches: tuple[BranchRule, ...]) -> None:
        zeros = [rule.zero_var for rule in branches]
        if len(set(variables)) != 2 or len(set(zeros)) != len(zeros) or any(
            {rule.zero_var, rule.param_var} != set(variables) for rule in branches
        ):
            raise ValueError(f"chart {name} over {variables} has branches {branches}:"
                             " each must set one variable to 0, once, along the other")
        _store(self, "name", name)
        _store(self, "variables", variables)
        _store(self, "branches", branches)

    @property
    def curve(self) -> str:
        """The marked curve as an equation, one factor per branch."""
        return "*".join(rule.zero_var for rule in self.branches) + "=0"

    def branch(self, zero_var: str) -> BranchRule:
        for rule in self.branches:
            if rule.zero_var == zero_var:
                return rule
        raise UnknownBranch(
            f"chart {self.name} has no branch ({zero_var}=0); curve is {self.curve}"
        )


NC_PAIR = ChartModel(
    "nc-pair",
    ("x", "y"),
    (
        BranchRule("x", "y", +1, True),
        BranchRule("y", "x", -1, True),
    ),
)

SMOOTH_PAIR = ChartModel(
    "smooth-pair",
    ("x", "y"),
    (BranchRule("y", "x", +1, False),),
)

HALF_PLANE_U = ChartModel(
    "half-plane-u",
    ("u1", "v1"),
    (BranchRule("u1", "v1", +1, False),),
)

HALF_PLANE_V = ChartModel(
    "half-plane-v",
    ("u2", "v2"),
    (BranchRule("v2", "u2", -1, False),),
)


class PluriSection(_Frozen):
    """coeff * (chart generator)^weight on a chart model; a coefficient with
    poles is admitted only with ``meromorphic=True``, a check, not a field."""

    __slots__ = ("model", "weight", "coeff")

    def __init__(self, model: ChartModel, weight: int, coeff: LaurentPolynomial,
                 meromorphic: bool = False) -> None:
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        if coeff.variables != model.variables:
            raise ValueError(
                f"coefficient variables {coeff.variables} do not match "
                f"chart {model.name} {model.variables}"
            )
        if not meromorphic and not coeff.is_polynomial():
            raise ValueError(
                "coefficient has negative exponents; pass meromorphic=True"
            )
        _store(self, "model", model)
        _store(self, "weight", weight)
        _store(self, "coeff", coeff)

    def __mul__(self, other: "PluriSection") -> "PluriSection":
        if self.model is not other.model:
            raise ValueError("sections live on different charts")
        # both factors were admitted, so their product is
        return PluriSection(
            self.model, self.weight + other.weight, self.coeff * other.coeff, True
        )


class BranchRestriction(_Frozen):
    """A restricted section in normalized presentation h(t)*(dt)^weight."""

    __slots__ = ("curve_var", "weight", "h")

    def __init__(self, curve_var: str, weight: int, h: LaurentPolynomial) -> None:
        if h.variables != (curve_var,):
            raise ValueError(
                f"h must be univariate in {curve_var!r}, got {h.variables}"
            )
        _store(self, "curve_var", curve_var)
        _store(self, "weight", weight)
        _store(self, "h", h)

    @property
    def pole_order(self) -> int:
        low = self.h.low_degree_in(self.curve_var)
        return 0 if low is None else max(0, -low)

    def __mul__(self, other: "BranchRestriction") -> "BranchRestriction":
        if self.curve_var != other.curve_var:
            raise ValueError("restrictions live on different branches")
        return BranchRestriction(
            self.curve_var, self.weight + other.weight, self.h * other.h
        )

    def __str__(self) -> str:
        return f"({self.h})*(d{self.curve_var})^{self.weight} pole={self.pole_order}"


def restrict(section: PluriSection, branch: str,
             factor: int | Fraction = 1) -> BranchRestriction:
    """Restrict a section to one branch of its chart's marked curve, times
    the exact scalar ``factor``.

    The coefficient must be holomorphic transverse to the branch;
    otherwise NegativeExponentAtRestriction propagates from the
    substitution, whatever the factor.  One ``restrict_var`` call sets the
    branch's variable to 0 and normalizes the result from (generator
    restriction)^m to (dt)^m: it shifts by t^-m on a log pole and scales by
    factor * residue_sign^m, so ``h`` is ``factor`` times the coefficient of
    the plain restriction, and the plain one is never built.
    """
    rule = section.model.branch(branch)
    m = section.weight
    h = section.coeff.restrict_var(
        rule.zero_var, (-m,) if rule.log_pole else None, factor * rule.residue_sign**m
    )
    return BranchRestriction(rule.param_var, m, h)


class MonomialMap(_Frozen):
    """Restriction of monomial coefficients to a curve, on integers.

    With t the curve parameter, the monomial of exponents e restricts to 0
    if normal·e > 0, has a pole (NegativeExponentAtRestriction) if
    normal·e < 0, and is sign^weight * t^(along·e - lowering*weight) *
    (dt)^weight otherwise.  ``normal`` must be nonnegative with exactly one
    0; the constructor stores ``along``, the unit vector at that 0, after
    the inputs.  So among the monomials with nonnegative exponents exactly
    the powers of t survive, reaching every t^k with k >= -lowering*weight;
    ``Gluing`` reads that off.
    """

    __slots__ = ("normal", "lowering", "sign", "along")

    def __init__(self, normal: tuple[int, ...], lowering: int, sign: int) -> None:
        if normal.count(0) != 1 or min(normal) < 0:
            raise ValueError(f"normal {normal} must be nonnegative with exactly one 0")
        _store(self, "normal", normal)
        _store(self, "lowering", lowering)
        _store(self, "sign", sign)
        _store(self, "along", tuple(int(n == 0) for n in normal))

    @classmethod
    def of(cls, variables: Sequence[str], rule: BranchRule) -> "MonomialMap":
        """``restrict`` to the branch ``rule`` of a chart over ``variables``."""
        normal = tuple(int(v == rule.zero_var) for v in variables)
        return cls(normal, int(rule.log_pole), rule.residue_sign)

    def image(self, exps: Exponents, weight: int) -> tuple[int, int] | None:
        """``(sign, e)`` for sign * t^e * (dt)^weight, or None for 0."""
        if len(exps) != len(self.normal):
            raise VariableMismatch(f"exponents {tuple(exps)} do not fit {self.normal}")
        n = sum(map(mul, self.normal, exps))
        if n < 0:
            raise NegativeExponentAtRestriction(f"monomial {tuple(exps)} has a pole")
        if n > 0:
            return None
        return self.sign**weight, sum(map(mul, self.along, exps)) - self.lowering * weight


class Gluing(_Frozen):
    """One curve seen from two charts: ``near`` restricts to it at weight m,
    ``far`` at weight ``far_per_near * m``, and each reaches every power of
    t from its lowest one upward."""

    __slots__ = ("near", "far", "far_per_near")

    def __init__(self, near: MonomialMap, far: MonomialMap, far_per_near: int) -> None:
        _store(self, "near", near)
        _store(self, "far", far)
        _store(self, "far_per_near", far_per_near)

    def rise(self, m: int) -> int:
        """The least power of t whose weight-m near image ``far`` also reaches."""
        return max(0, (self.near.lowering - self.far.lowering * self.far_per_near) * m)

    def ideal(self, variables: Sequence[str], m: int) -> MonomialIdeal:
        """The near monomials whose weight-m image ``far`` also reaches: the
        variables of positive normal weight, and t^rise."""
        normal, size = self.near.normal, len(self.near.normal)
        gens = [tuple(int(j == i) for j in range(size)) for i in range(size) if normal[i]]
        gens.append(tuple(self.rise(m) * a for a in self.near.along))
        return MonomialIdeal(variables, gens)


class BranchMatch(_Frozen):
    """One leg of the gluing: an nc branch identified with a half-plane curve.

    ``nc`` is a branch of ``NC_PAIR`` and ``half`` the branch of
    ``half_plane`` glued to it (checked), its parameter ``half.param_var``
    identified with ``nc.param_var`` away from the origin.  Derived in the
    constructor: ``gluing`` (the nc map near, the half-plane map far, at
    equal weights), and that identification as the substitutions
    ``to_half`` and ``to_nc``.
    """

    __slots__ = ("nc", "half_plane", "half", "gluing", "to_half", "to_nc")

    def __init__(self, nc: BranchRule, half_plane: ChartModel, half: BranchRule) -> None:
        if nc not in NC_PAIR.branches or half not in half_plane.branches:
            raise ValueError(f"a leg joins a branch of {NC_PAIR.name} and one of "
                             f"{half_plane.name}, not {nc} and {half}")
        s, t = nc.param_var, half.param_var
        _store(self, "nc", nc)
        _store(self, "half_plane", half_plane)
        _store(self, "half", half)
        _store(self, "gluing", Gluing(MonomialMap.of(NC_PAIR.variables, nc),
                                      MonomialMap.of(half_plane.variables, half), 1))
        _store(self, "to_half", MonomialSubstitution((s,), half_plane.variables, {s: {t: 1}}))
        _store(self, "to_nc", MonomialSubstitution((t,), (s,), {t: {s: 1}}))


# the gluing, defined away from the origin: branch (x=0) of the nc curve is
# the half-plane curve (u1=0) with v1 = y, branch (y=0) is (v2=0) with u2 = x
SIGMA = (
    BranchMatch(NC_PAIR.branch("x"), HALF_PLANE_U, HALF_PLANE_U.branch("u1")),
    BranchMatch(NC_PAIR.branch("y"), HALF_PLANE_V, HALF_PLANE_V.branch("v2")),
)


def pullback_sigma(restriction: BranchRestriction) -> BranchRestriction:
    """Rewrite a half-plane branch restriction over the matched nc branch.

    With t the half-plane parameter and s the matched nc parameter, the
    identification t = s gives (dt)^m = (sign*s*eta)^m relative to the nc
    curve generator eta on that branch: the pullback formulas
    (dv1)^m -> y^m*eta^m and (du2)^m -> (-x)^m*eta^m.  Both nc branches
    carry a log pole, so eta restricts to sign*ds/s, and the factors cancel:
    h(t)*(dt)^m pulls back to h(s)*(ds)^m, the substitution t -> s.
    """
    for leg in SIGMA:
        if leg.half.param_var == restriction.curve_var:
            h = restriction.h.substitute_monomials(leg.to_nc)
            return BranchRestriction(h.variables[0], restriction.weight, h)
    raise UnknownBranch(f"no gluing is defined on branch parameter {restriction.curve_var!r}")


def _require_nc(section: PluriSection) -> None:
    if section.model is not NC_PAIR:
        raise ValueError("first section must live on the nc pair")


# the last nc section restricted on each leg of SIGMA, with its restriction,
# keyed by the leg's nc branch variable; read and written only by ``_nc_leg``
_NC_LEGS: dict[str, tuple[PluriSection, BranchRestriction]] = {}


def _nc_leg(section: PluriSection, branch: str) -> BranchRestriction:
    """``restrict(section, branch)``, computed once while ``section`` is the
    last nc section asked for on ``branch``.

    ``partner_sections`` and then ``glues`` restrict the same section on the
    same legs.  The entry matches by identity: it holds the section itself,
    so the section's id cannot be reused while the entry exists, and hashing
    a coefficient would cost more than the restriction it saves.  A section
    and its coefficient are immutable, so the remembered restriction equals
    a recomputation.  Each entry is one tuple, read in one lookup and
    replaced whole, so concurrent callers can only miss.
    """
    hit = _NC_LEGS.get(branch)
    if hit is not None and hit[0] is section:
        return hit[1]
    on_nc = restrict(section, branch)
    _NC_LEGS[branch] = (section, on_nc)
    return on_nc


def glues(section_nc: PluriSection, *partners: PluriSection) -> bool:
    """Decide the gluing condition for an nc section and its partners.

    ``partners`` holds one equal-weight half-plane section per leg of
    ``SIGMA``, in its order.  True iff on every leg the nc restriction
    equals (-1)^m times the pullback of the partner's restriction, as an
    exact identity of normalized presentations.  The pullback is linear,
    so the sign is folded into the partner's ``restrict`` call.  The nc
    restrictions are shared with ``partner_sections`` through ``_nc_leg``,
    which matches the section by identity; each partner is restricted anew.
    """
    _require_nc(section_nc)
    if len(partners) != len(SIGMA):
        raise ValueError(f"expected {len(SIGMA)} partners, got {len(partners)}")
    m = section_nc.weight
    for leg, partner in zip(SIGMA, partners):
        if partner.model is not leg.half_plane:
            raise ValueError("partner sections must live on the half planes of SIGMA")
        if partner.weight != m:
            raise ValueError("sections must have equal weights")
    sign = (-1) ** m
    for leg, partner in zip(SIGMA, partners):
        on_nc = _nc_leg(section_nc, leg.nc.zero_var)
        # the two restrictions are equal iff their coefficients are: the
        # weights are equal (checked above), the pullback lands on the nc
        # parameter, and ``LaurentPolynomial.__eq__`` compares the variable
        # lists too
        if on_nc.h != pullback_sigma(restrict(partner, leg.half.zero_var, sign)).h:
            return False
    return True


def partner_sections(section_nc: PluriSection) -> tuple[PluriSection, ...] | None:
    """Construct half-plane sections gluing with the given nc section.

    On each leg of ``SIGMA`` the nc restriction forces the partner's
    restriction; a partner exists iff the forced restriction is a
    polynomial.  Returns one partner per leg, in the order of ``SIGMA``, or
    None when some leg has no holomorphic partner.  The nc restrictions
    are remembered by ``_nc_leg`` (matched by identity), so that ``glues``
    on the same section does not restrict it again.
    """
    _require_nc(section_nc)
    m = section_nc.weight
    partners = []
    for leg in SIGMA:
        on_nc = _nc_leg(section_nc, leg.nc.zero_var)
        # half-plane branches carry no log pole: a partner restricts to its
        # coefficient on the curve times residue_sign^m
        h = on_nc.h * (-leg.half.residue_sign) ** m
        if not h.is_polynomial():
            return None
        partners.append(PluriSection(leg.half_plane, m, h.substitute_monomials(leg.to_half)))
    return tuple(partners)


def obstructions(section_nc: PluriSection) -> frozenset[Exponents]:
    """The terms of an nc section that have a pole on some leg of ``SIGMA``.

    ``partner_sections`` returns None iff this set is nonempty.  Each leg
    restricts the section once: restriction is linear and sends the terms
    it keeps to distinct powers t^k of the branch parameter, all with the
    sign ``sign^m``, so no two terms merge or cancel, and a pole t^k is
    the term ``along*(k + lowering*m)`` of the leg's near map.  It calls
    ``restrict`` itself, not ``_nc_leg``, so each call restricts afresh.
    Raises AssertionError if a read-back coefficient is not the section's
    own, so a merged term fails instead of passing.
    """
    _require_nc(section_nc)
    m, own = section_nc.weight, section_nc.coeff.terms()
    found = set()
    for leg in SIGMA:
        on_nc, nc_map = restrict(section_nc, leg.nc.zero_var), leg.gluing.near
        sign, low, i = nc_map.sign**m, nc_map.lowering * m, nc_map.along.index(1)
        head, tail = nc_map.along[:i], nc_map.along[i + 1 :]
        for (k,), c in on_nc.h.terms().items():
            if k >= 0:
                continue
            exps = head + (k + low,) + tail
            if c != sign * own.get(exps, 0):
                raise AssertionError(
                    f"t^{k} on branch ({leg.nc.zero_var}=0) is not the term {exps}"
                )
            found.add(exps)
    return frozenset(found)


def gluing_ideal(m: int) -> MonomialIdeal:
    """Coefficients on the nc pair admitting half-plane partners at weight m.

    A monomial coefficient has partners iff it lies in the ``Gluing.ideal``
    of every leg of ``SIGMA``: the ideal is (x, y^m) & (y, x^m).  Each
    weight's ideal is built once per process and shared, which is safe
    because a ``MonomialIdeal`` is immutable.  This function checks m
    and stays a plain function around the cached ``_gluing_ideal``, so that
    a caller that wraps plain functions (the benchmark's tracer) still sees
    every call, answered from the cache or not.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _gluing_ideal(m)


@lru_cache(maxsize=None, typed=True)
def _gluing_ideal(m: int) -> MonomialIdeal:
    on_x, on_y = (leg.gluing.ideal(NC_PAIR.variables, m) for leg in SIGMA)
    return on_x & on_y


# ---------------------------------------------------------------------------
# embedding of the glued triple point into C^4
# ---------------------------------------------------------------------------


class PlaneEmbedding(_Frozen):
    """A signed placement of a chart's two variables onto axes of C^4."""

    __slots__ = ("axes", "signs")

    def __init__(self, axes: tuple[int, int], signs: tuple[int, int]) -> None:
        if not all(0 <= a <= 3 for a in axes):
            raise ValueError("axes must lie in 0..3")
        if not all(s in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        _store(self, "axes", axes)
        _store(self, "signs", signs)

    def spanned(self) -> frozenset[int]:
        return frozenset(self.axes)

    def param_image(self, var_index: int) -> tuple[int, int, int, int]:
        """Linear coefficients of the image when only this variable varies."""
        vec = [0, 0, 0, 0]
        vec[self.axes[var_index]] = self.signs[var_index]
        return tuple(vec)

    def map_str(self, variables: tuple[str, str]) -> str:
        slots = ["0"] * 4
        for i, v in enumerate(variables):
            slots[self.axes[i]] = v if self.signs[i] == 1 else f"-{v}"
        return f"({variables[0]},{variables[1]})->({','.join(slots)})"


# the charts of the glued triple point: the nc pair, then each leg's half plane
EMBEDDED_CHARTS = (NC_PAIR, *(leg.half_plane for leg in SIGMA))


class EmbeddingAssignment(_Frozen):
    """Placements of ``EMBEDDED_CHARTS``, one per chart in its order."""

    __slots__ = ("planes",)

    def __init__(self, planes: tuple[PlaneEmbedding, ...]) -> None:
        if len(planes) != len(EMBEDDED_CHARTS):
            raise ValueError(f"expected one placement per chart, got {len(planes)}")
        _store(self, "planes", planes)

    def __str__(self) -> str:
        return "; ".join(
            plane.map_str(model.variables)
            for model, plane in zip(EMBEDDED_CHARTS, self.planes)
        )


# hand-written assignment (x,y)->(0,x,y,0), (u1,v1)->(v1,u1,0,0),
# (u2,v2)->(0,0,v2,u2); kept as a named input for the consistency check
ASSIGNMENT_0XY0 = EmbeddingAssignment((
    PlaneEmbedding((1, 2), (1, 1)),
    PlaneEmbedding((1, 0), (1, 1)),
    PlaneEmbedding((3, 2), (1, 1)),
))

# chain of three coordinate 2-planes (t1=t2=0), (t2=t3=0), (t3=t4=0),
# written as the axis sets they span
CHAIN_PLANES = (frozenset({2, 3}), frozenset({0, 3}), frozenset({0, 1}))


def embed_check(assignment: EmbeddingAssignment) -> bool:
    """Consistency of a placement with the chart gluing.

    (i) each image spans a genuine coordinate 2-plane, (ii) the three
    image planes are pairwise distinct, and (iii) points identified by the
    gluing (v1 = y on one branch, u2 = x on the other) have equal images.
    """
    planes = assignment.planes
    if any(p.axes[0] == p.axes[1] for p in planes):
        return False
    if len({p.spanned() for p in planes}) != len(planes):
        return False
    return all(_leg_agrees(leg, planes[0], half) for leg, half in zip(SIGMA, planes[1:]))


def _leg_agrees(leg: BranchMatch, nc: PlaneEmbedding, half: PlaneEmbedding) -> bool:
    """Whether the glued parameters of ``leg`` have the same image in C^4."""
    nc_image = nc.param_image(NC_PAIR.variables.index(leg.nc.param_var))
    return nc_image == half.param_image(leg.half_plane.variables.index(leg.half.param_var))


def _candidates(allowed_planes: Iterable[frozenset[int]] | None) -> list[PlaneEmbedding]:
    allowed = None if allowed_planes is None else set(allowed_planes)
    return [
        PlaneEmbedding((a0, a1), (s0, s1))
        for a0 in range(4)
        for a1 in range(4)
        if a0 != a1 and (allowed is None or frozenset((a0, a1)) in allowed)
        for s0 in (1, -1)
        for s1 in (1, -1)
    ]


def embed_search(
    allowed_planes: Iterable[frozenset[int]] | None = None,
) -> EmbeddingAssignment:
    """First placement (in a fixed deterministic order) passing embed_check.

    ``allowed_planes`` optionally restricts every chart image to the given
    coordinate 2-planes (axis sets).  Raises EmbeddingNotFound when the
    search space is exhausted.
    """
    pool = _candidates(allowed_planes)

    def completions(planes: tuple[PlaneEmbedding, ...]) -> Iterator[EmbeddingAssignment]:
        # in pool order; a half-plane placement that breaks its leg's
        # identity or repeats a plane is skipped as soon as it is chosen
        if len(planes) == len(EMBEDDED_CHARTS):
            yield EmbeddingAssignment(planes)
            return
        leg, spans = SIGMA[len(planes) - 1], {p.spanned() for p in planes}
        for half in pool:
            if _leg_agrees(leg, planes[0], half) and half.spanned() not in spans:
                yield from completions(planes + (half,))

    for nc in pool:
        for assignment in completions((nc,)):
            if embed_check(assignment):
                return assignment
    raise EmbeddingNotFound("no consistent signed placement exists")
