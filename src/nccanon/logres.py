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
monomial ideal, read off the restriction maps of both sides (``MonomialMap``).

A separate concern of the same local model: the glued surface has a triple
point of embedding dimension 4.  ``embed_check`` decides whether a signed
placement of the three chart planes onto coordinate 2-planes of C^4 is
consistent with the gluing, and ``embed_search`` scans all placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exactalg import (Exponents, LaurentPolynomial, MonomialSubstitution,
                       NegativeExponentAtRestriction, VariableMismatch)
from .monideal import MonomialIdeal


class UnknownBranch(Exception):
    """The requested branch is not part of the chart's marked curve."""


class EmbeddingNotFound(Exception):
    """No signed coordinate placement satisfies the consistency checks."""


@dataclass(frozen=True)
class BranchRule:
    """Restriction data for one branch of a chart's marked curve.

    The chart generator restricts on (zero_var = 0) to
    residue_sign * d(param_var) / param_var   if log_pole else
    residue_sign * d(param_var).
    """

    zero_var: str
    param_var: str
    residue_sign: int
    log_pole: bool


@dataclass(frozen=True)
class ChartModel:
    name: str
    variables: tuple[str, str]
    branches: tuple[BranchRule, ...]

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


@dataclass(frozen=True)
class PluriSection:
    """coeff * (chart generator)^weight on a chart model."""

    model: ChartModel
    weight: int
    coeff: LaurentPolynomial
    meromorphic: bool = False

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")
        if self.coeff.variables != self.model.variables:
            raise ValueError(
                f"coefficient variables {self.coeff.variables} do not match "
                f"chart {self.model.name} {self.model.variables}"
            )
        if not self.meromorphic and not self.coeff.is_polynomial():
            raise ValueError(
                "coefficient has negative exponents; pass meromorphic=True"
            )

    def __mul__(self, other: "PluriSection") -> "PluriSection":
        if self.model is not other.model:
            raise ValueError("sections live on different charts")
        return PluriSection(
            self.model,
            self.weight + other.weight,
            self.coeff * other.coeff,
            self.meromorphic or other.meromorphic,
        )


@dataclass(frozen=True)
class BranchRestriction:
    """A restricted section in normalized presentation h(t)*(dt)^weight."""

    curve_var: str
    weight: int
    h: LaurentPolynomial

    def __post_init__(self) -> None:
        if self.h.variables != (self.curve_var,):
            raise ValueError(
                f"h must be univariate in {self.curve_var!r}, got {self.h.variables}"
            )

    @property
    def pole_order(self) -> int:
        low = self.h.low_degree_in(self.curve_var)
        return 0 if low is None else max(0, -low)

    def scaled(self, factor: int | Fraction) -> "BranchRestriction":
        return BranchRestriction(self.curve_var, self.weight, self.h * factor)

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
    factor * residue_sign^m, so ``restrict(s, b, k)`` equals
    ``restrict(s, b).scaled(k)`` without building the unscaled restriction.
    """
    rule = section.model.branch(branch)
    m = section.weight
    h = section.coeff.restrict_var(
        rule.zero_var, (-m,) if rule.log_pole else None, factor * rule.residue_sign**m
    )
    return BranchRestriction(rule.param_var, m, h)


@dataclass(frozen=True)
class MonomialMap:
    """Restriction of monomial coefficients to a curve, on integers.

    With t the curve parameter, the monomial of exponents e restricts to 0
    if normal·e > 0, has a pole (NegativeExponentAtRestriction) if
    normal·e < 0, and is sign^weight * t^(along·e - lowering*weight) *
    (dt)^weight otherwise.  ``normal`` must be nonnegative and vanish only
    at the unit vector ``along``, so that among the monomials with
    nonnegative exponents exactly the powers of t survive, reaching every
    t^k with k >= -lowering*weight; ``rise`` and ``ideal`` read that off.
    """

    normal: tuple[int, ...]
    along: tuple[int, ...]
    lowering: int
    sign: int

    def __post_init__(self) -> None:
        zeros = tuple(int(n == 0) for n in self.normal)
        if min(self.normal, default=0) < 0 or zeros != self.along or sum(zeros) != 1:
            raise ValueError(
                f"normal {self.normal} must be nonnegative and vanish exactly "
                f"at the unit vector along {self.along}"
            )

    @classmethod
    def of(cls, variables: Sequence[str], rule: BranchRule) -> "MonomialMap":
        """``restrict`` to the branch ``rule`` of a chart over ``variables``."""
        normal, along = (tuple(int(v == var) for v in variables)
                         for var in (rule.zero_var, rule.param_var))
        return cls(normal, along, int(rule.log_pole), rule.residue_sign)

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

    def rise(self, weight: int, far: "MonomialMap", far_weight: int) -> int:
        """The least power of t whose image ``far`` at ``far_weight`` also
        reaches: both maps reach every power from their lowest one upward."""
        return max(0, self.lowering * weight - far.lowering * far_weight)

    def ideal(self, variables: Sequence[str], weight: int,
              far: "MonomialMap", far_weight: int) -> MonomialIdeal:
        """The monomials whose image ``far`` at ``far_weight`` also reaches:
        the variables of positive normal weight, and t^rise."""
        size = len(self.normal)
        gens = [tuple(int(j == i) for j in range(size)) for i in range(size) if self.normal[i]]
        gens.append(tuple(self.rise(weight, far, far_weight) * a for a in self.along))
        return MonomialIdeal(variables, gens)


@dataclass(frozen=True)
class BranchMatch:
    """One leg of the gluing: an nc branch identified with a half-plane curve.

    ``nc`` is a branch of ``NC_PAIR`` and ``half`` the branch of
    ``half_plane`` glued to it; away from the origin the half-plane
    parameter ``half.param_var`` is identified with the nc parameter
    ``nc.param_var``.
    """

    nc: BranchRule
    half_plane: ChartModel
    half: BranchRule


# the gluing, defined away from the origin: branch (x=0) of the nc curve is
# the half-plane curve (u1=0) with v1 = y, branch (y=0) is (v2=0) with u2 = x
SIGMA = (
    BranchMatch(NC_PAIR.branch("x"), HALF_PLANE_U, HALF_PLANE_U.branch("u1")),
    BranchMatch(NC_PAIR.branch("y"), HALF_PLANE_V, HALF_PLANE_V.branch("v2")),
)

# the (nc, half-plane) restriction maps of the legs of SIGMA, in its order
_LEG_MAPS = tuple((MonomialMap.of(NC_PAIR.variables, leg.nc),
                   MonomialMap.of(leg.half_plane.variables, leg.half)) for leg in SIGMA)

# each leg's identification of parameters as substitutions: the nc parameter
# onto the half plane, in the order of SIGMA (``partner_sections``), and the
# half-plane parameter onto the nc one, by that parameter (``pullback_sigma``)
_TO_HALF_PLANE = tuple(MonomialSubstitution(
    (leg.nc.param_var,), leg.half_plane.variables, {leg.nc.param_var: {leg.half.param_var: 1}}
) for leg in SIGMA)
_TO_NC = {leg.half.param_var: MonomialSubstitution(
    (leg.half.param_var,), (leg.nc.param_var,), {leg.half.param_var: {leg.nc.param_var: 1}}
) for leg in SIGMA}


def pullback_sigma(restriction: BranchRestriction) -> BranchRestriction:
    """Rewrite a half-plane branch restriction over the matched nc branch.

    With t the half-plane parameter and s the matched nc parameter, the
    identification t = s gives (dt)^m = (sign*s*eta)^m relative to the nc
    curve generator eta on that branch: the pullback formulas
    (dv1)^m -> y^m*eta^m and (du2)^m -> (-x)^m*eta^m.  Both nc branches
    carry a log pole, so eta restricts to sign*ds/s, and the factors cancel:
    h(t)*(dt)^m pulls back to h(s)*(ds)^m, the substitution t -> s.
    """
    to_nc = _TO_NC.get(restriction.curve_var)
    if to_nc is None:
        raise UnknownBranch(
            f"no gluing is defined on branch parameter {restriction.curve_var!r}"
        )
    h = restriction.h.substitute_monomials(to_nc)
    return BranchRestriction(h.variables[0], restriction.weight, h)


def glues(section_nc: PluriSection, *partners: PluriSection) -> bool:
    """Decide the gluing condition for an nc section and its partners.

    ``partners`` holds one equal-weight half-plane section per leg of
    ``SIGMA``, in its order.  True iff on every leg the nc restriction
    equals (-1)^m times the pullback of the partner's restriction, as an
    exact identity of normalized presentations.  The pullback is linear,
    so the sign is folded into the partner's ``restrict`` call.
    """
    if section_nc.model is not NC_PAIR:
        raise ValueError("first section must live on the nc pair")
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
        on_nc = restrict(section_nc, leg.nc.zero_var)
        if on_nc != pullback_sigma(restrict(partner, leg.half.zero_var, sign)):
            return False
    return True


def partner_sections(section_nc: PluriSection) -> tuple[PluriSection, ...] | None:
    """Construct half-plane sections gluing with the given nc section.

    On each leg of ``SIGMA`` the nc restriction forces the partner's
    restriction; a partner exists iff the forced restriction is a
    polynomial.  Returns one partner per leg, in the order of ``SIGMA``, or
    None when some leg has no holomorphic partner.
    """
    m = section_nc.weight
    partners = []
    for leg, to_half in zip(SIGMA, _TO_HALF_PLANE):
        on_nc = restrict(section_nc, leg.nc.zero_var)
        # half-plane branches carry no log pole: a partner restricts to its
        # coefficient on the curve times residue_sign^m
        h = on_nc.h * (-leg.half.residue_sign) ** m
        if not h.is_polynomial():
            return None
        partners.append(PluriSection(leg.half_plane, m, h.substitute_monomials(to_half)))
    return tuple(partners)


def obstructions(section_nc: PluriSection) -> frozenset[Exponents]:
    """The terms of an nc section that have a pole on some leg of ``SIGMA``.

    ``partner_sections`` returns None iff this set is nonempty.  Each leg
    restricts the section once: restriction is linear and sends the terms
    it keeps to distinct powers t^k of the branch parameter, all with the
    sign ``sign^m``, so no two terms merge or cancel, and a pole t^k is
    the term ``along*(k + lowering*m)`` of that leg's ``MonomialMap``.
    Raises AssertionError if a read-back coefficient is not the section's
    own, so a merged term fails instead of passing.
    """
    m, own = section_nc.weight, section_nc.coeff.terms()
    found = set()
    for leg, (nc_map, _) in zip(SIGMA, _LEG_MAPS):
        on_nc = restrict(section_nc, leg.nc.zero_var)
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

    A monomial coefficient has partners iff on every leg of ``SIGMA`` the
    half-plane map at weight m reaches its nc restriction, i.e. iff it lies
    in each leg's ``MonomialMap.ideal``: the ideal is (x, y^m) & (y, x^m).
    Each weight's ideal is built once per process and shared, which is
    safe because a ``MonomialIdeal`` is immutable.  This function checks m
    and stays a plain function around the cached ``_gluing_ideal``, so that
    a caller that wraps plain functions (the benchmark's tracer) still sees
    every call, answered from the cache or not.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _gluing_ideal(m)


@lru_cache(maxsize=None, typed=True)
def _gluing_ideal(m: int) -> MonomialIdeal:
    on_x, on_y = (nc.ideal(NC_PAIR.variables, m, half, m) for nc, half in _LEG_MAPS)
    return on_x & on_y


# ---------------------------------------------------------------------------
# embedding of the glued triple point into C^4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneEmbedding:
    """A signed placement of a chart's two variables onto axes of C^4."""

    axes: tuple[int, int]
    signs: tuple[int, int]

    def __post_init__(self) -> None:
        if not all(0 <= a <= 3 for a in self.axes):
            raise ValueError("axes must lie in 0..3")
        if not all(s in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

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


@dataclass(frozen=True)
class EmbeddingAssignment:
    """Placements of ``EMBEDDED_CHARTS``, one per chart in its order."""

    planes: tuple[PlaneEmbedding, ...]

    def __post_init__(self) -> None:
        if len(self.planes) != len(EMBEDDED_CHARTS):
            raise ValueError(f"expected one placement per chart, got {len(self.planes)}")

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
