"""Monomial ideals and degree-indexed monomial families.

The central object is a family of monomial ideals I_m, one per grading
weight m >= 1, whose generator exponents are affine functions of m.  Such a
family spans a graded algebra sum_m I_m * W^m inside the polynomial ring
with a bookkeeping variable W.  For each weight this module computes which
generators of I_m cannot be produced from lower weights; a family that
keeps needing fresh generators in every degree witnesses that the graded
algebra is not finitely generated.

The weight-0 component is the full coordinate ring, so "generated in
weights below m" is an ideal condition: the weight-m part of the subalgebra
spanned by lower weights is J_m = sum over a+b=m, 0<a,b<m of I_a*I_b.
Two-factor products suffice because the family is multiplicative
(I_a*I_b inside I_{a+b}); deeper products are then absorbed.  One pass per
weight instantiates each I_k once, builds J_m and checks multiplicativity on
it, so the module refuses to report on non-multiplicative families.

Everything here is immutable and pure; per-degree computations are
independent of one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .exactalg import AffineExponent, Exponents, VariableMismatch, divides


class MultiplicativityViolation(Exception):
    """The family fails I_a * I_b inside I_{a+b} for some tested pair."""


def minimalize(generators: Iterable[Exponents]) -> frozenset[Exponents]:
    """Divisibility-minimal subset generating the same monomial ideal.

    Every candidate is validated up front: a negative exponent raises
    ``ValueError`` and exponent vectors of different lengths raise
    ``VariableMismatch``, whatever order the candidates come in.
    """
    unique = set(tuple(g) for g in generators)
    if len({len(g) for g in unique}) > 1:
        raise VariableMismatch(
            f"exponent vectors of lengths {sorted({len(g) for g in unique})}"
        )
    for g in unique:
        if any(e < 0 for e in g):
            raise ValueError(f"generator {g} has a negative exponent")
    keep: list[Exponents] = []
    # ascending degree: a kept generator can never be divisible by a later one
    for g in sorted(unique, key=lambda e: (sum(e), e)):
        if not any(all(a <= b for a, b in zip(h, g)) for h in keep):
            keep.append(g)
    return frozenset(keep)


def monomial_str(variables: Sequence[str], exps: Exponents) -> str:
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e != 0]
    return "*".join(factors) if factors else "1"


def generators_str(variables: Sequence[str], gens: Iterable[Exponents]) -> str:
    """The monomials comma-separated, by ascending degree, larger exponents first."""
    ordered = sorted(gens, key=lambda e: (sum(e), tuple(-x for x in e)))
    return ", ".join(monomial_str(variables, g) for g in ordered)


class MonomialIdeal:
    """A monomial ideal presented by its minimal generators."""

    __slots__ = ("_vars", "_gens")

    def __init__(self, variables: Iterable[str], generators: Iterable[Exponents]) -> None:
        vars_t = tuple(variables)
        gens = minimalize(generators)
        for g in gens:
            if len(g) != len(vars_t):
                raise ValueError(f"generator {g} does not fit variables {vars_t}")
        object.__setattr__(self, "_vars", vars_t)
        object.__setattr__(self, "_gens", gens)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("MonomialIdeal is immutable")

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    @property
    def generators(self) -> frozenset[Exponents]:
        return self._gens

    @property
    def is_zero(self) -> bool:
        return not self._gens

    def member(self, mono: Exponents) -> bool:
        """True iff some generator divides the monomial."""
        return any(divides(g, mono) for g in self._gens)

    def _check_compatible(self, other: "MonomialIdeal") -> None:
        if self._vars != other._vars:
            raise ValueError(f"variable lists differ: {self._vars} vs {other._vars}")

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_compatible(other)
        prods = {
            tuple(a + b for a, b in zip(g, h))
            for g in self._gens
            for h in other._gens
        }
        return MonomialIdeal(self._vars, prods)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_compatible(other)
        return MonomialIdeal(self._vars, self._gens | other._gens)

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The intersection: generated by the lcms of all generator pairs."""
        self._check_compatible(other)
        lcms = {tuple(map(max, g, h)) for g in self._gens for h in other._gens}
        return MonomialIdeal(self._vars, lcms)

    def staircase(self) -> list[Exponents]:
        """The monomials outside a two-variable ideal, in ascending order.

        They are finite iff the ideal holds a pure power of each variable,
        else ValueError.  Sorted by x-exponent, minimal generators have
        falling y-exponents: between neighbours (a0, h) and (a1, _) the
        non-members are x^a*y^b with a0 <= a < a1 and b < h.
        """
        if len(self._vars) != 2:
            raise ValueError(f"staircase needs two variables, got {self._vars}")
        gens = sorted(self._gens)
        if not gens or gens[0][0] or gens[-1][1]:
            raise ValueError(f"{self} has infinitely many non-members")
        return [(a, b) for (a0, h), (a1, _) in zip(gens, gens[1:])
                for a in range(a0, a1) for b in range(h)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self._vars == other._vars and self._gens == other._gens

    def __hash__(self) -> int:
        return hash((self._vars, self._gens))

    def __str__(self) -> str:
        return "(" + (generators_str(self._vars, self._gens) or "0") + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self!s}"


@dataclass(frozen=True)
class GradedMonomialFamily:
    """Monomial generator templates with exponents affine in the weight m.

    ``templates`` holds one exponent row per generator, aligned with
    ``variables``.  Instantiation at every m >= m_min must give nonnegative
    exponents; this is checked at construction.
    """

    variables: tuple[str, ...]
    templates: tuple[tuple[AffineExponent, ...], ...]
    m_min: int = 1

    def __post_init__(self) -> None:
        if self.m_min < 1:
            raise ValueError("m_min must be >= 1")
        for row in self.templates:
            if len(row) != len(self.variables):
                raise ValueError(
                    f"template {row} does not fit variables {self.variables}"
                )
            for ae in row:
                if not ae.is_valid_from(self.m_min):
                    raise ValueError(
                        f"exponent {ae} is negative at m={self.m_min}"
                    )

    def instantiate(self, m: int) -> MonomialIdeal:
        """The ideal I_m, minimalized."""
        if m < self.m_min:
            raise ValueError(f"m={m} below validated range (m >= {self.m_min})")
        gens = []
        for row in self.templates:
            exps = tuple(ae.at(m) for ae in row)
            if any(e < 0 for e in exps):
                raise ValueError(f"template gives negative exponent {exps} at m={m}")
            gens.append(exps)
        return MonomialIdeal(self.variables, gens)

    def __str__(self) -> str:
        rendered = []
        for row in self.templates:
            factors = []
            for v, ae in zip(self.variables, row):
                if ae.slope == 0 and ae.offset == 0:
                    continue
                if ae.slope == 0 and ae.offset == 1:
                    factors.append(v)
                else:
                    factors.append(f"{v}^{ae}")
            rendered.append("*".join(factors) if factors else "1")
        return ", ".join(rendered)


def _weights(
    family: GradedMonomialFamily, upto: int
) -> Iterator[tuple[int, MonomialIdeal, MonomialIdeal]]:
    """(m, I_m, J_m) for m = 1, ..., upto, instantiating each I_k once.

    I_a is generated by the template instances s(a), so J_m is generated by
    s(a) + t(m-a) over unordered template pairs {s, t} (s = t included) and
    a in [1, m-1].  For one pair these points lie on the line P + a*D with
    P = slope(t)*m + offset(s) + offset(t) and D = slope(s) - slope(t).  If
    D >= 0 in every coordinate each point divides the later ones, so the
    point at a = 1 generates the whole line; if D <= 0 the point at a = m-1
    does (D = 0 is one point).  Only a line whose D has mixed signs keeps
    all its points, and ``minimalize`` sorts those out.  J_m is the same
    ideal as with every product, so its minimal generators are too.

    The family is multiplicative up to m iff every minimal generator of J_m
    lies in I_m: I_m is closed under multiples and every product I_a*I_b
    with a+b = m is a multiple of some minimal generator of J_m.  The first
    weight where this fails raises ``MultiplicativityViolation`` naming
    ``upto``.
    """
    ideals = [family.instantiate(k) for k in range(1, upto + 1)]
    rows = family.templates
    lines = []
    for i, s in enumerate(rows):
        for t in rows[i:]:
            d = [p.slope - q.slope for p, q in zip(s, t)]
            lines.append((s, t, all(x >= 0 for x in d), all(x <= 0 for x in d)))
    for m, i_m in enumerate(ideals, start=1):
        products = set()
        for s, t, rising, falling in lines:
            span = range(1, m)
            if rising:
                span = span[:1]
            elif falling:
                span = span[-1:]
            products.update(
                tuple(p.at(a) + q.at(m - a) for p, q in zip(s, t)) for a in span
            )
        j_m = MonomialIdeal(family.variables, products)
        if not all(i_m.member(g) for g in j_m.generators):
            raise MultiplicativityViolation(
                f"family ({family}) is not multiplicative up to {upto}"
            )
        yield m, i_m, j_m


def _new(i_m: MonomialIdeal, j_m: MonomialIdeal) -> frozenset[Exponents]:
    return frozenset(g for g in i_m.generators if not j_m.member(g))


def check_multiplicative(family: GradedMonomialFamily, upto: int) -> bool:
    """Whether I_a * I_b lies inside I_{a+b} for all 1 <= a <= b, a+b <= upto."""
    try:
        for _ in _weights(family, upto):
            pass
    except MultiplicativityViolation:
        return False
    return True


def _top_weight(
    family: GradedMonomialFamily, m: int
) -> tuple[MonomialIdeal, MonomialIdeal]:
    if m < 1:
        raise ValueError(f"weight m={m} must be >= 1")
    *_, (_, i_m, j_m) = _weights(family, m)
    return i_m, j_m


def subalgebra_component(family: GradedMonomialFamily, m: int) -> MonomialIdeal:
    """J_m: the weight-m part of the subalgebra spanned by weights below m."""
    return _top_weight(family, m)[1]


def new_generators(family: GradedMonomialFamily, m: int) -> frozenset[Exponents]:
    """Minimal generators of I_m that the lower weights cannot produce."""
    return _new(*_top_weight(family, m))


@dataclass(frozen=True)
class ReesGenerationReport:
    """Per-degree table of fresh generators for a graded monomial family.

    ``witness_flag`` is True exactly when every degree in [3, max_degree]
    contributed at least one new generator: a standing demand for new
    generators in that window is the finite-generation failure witness.
    """

    family: GradedMonomialFamily
    rows: tuple[tuple[int, frozenset[Exponents]], ...]
    max_degree: int
    witness_flag: bool

    def row(self, m: int) -> frozenset[Exponents]:
        for k, gens in self.rows:
            if k == m:
                return gens
        raise KeyError(m)


def rees_report(family: GradedMonomialFamily, max_degree: int) -> ReesGenerationReport:
    """Compute new generators for every 1 <= m <= max_degree."""
    if max_degree < 3:
        raise ValueError("max_degree must be >= 3")
    rows = [(m, _new(i_m, j_m)) for m, i_m, j_m in _weights(family, max_degree)]
    witness = all(gens for m, gens in rows if 3 <= m <= max_degree)
    return ReesGenerationReport(family, tuple(rows), max_degree, witness)


def brute_force_new_generators(
    family: GradedMonomialFamily, m: int, degree_bound: int = 6
) -> frozenset[Exponents]:
    """Slow independent oracle for ``new_generators``, capped by total degree.

    Enumerates every monomial of total degree <= degree_bound, decides
    membership in I_m and in J_m by direct divisibility against raw
    template instantiations (no minimalization, no shared ideal code), and
    returns the divisibility-minimal elements of the difference.  Those are
    exactly the minimal generators of I_m outside J_m, as far as the degree
    cap can see.

    Exponents are nonnegative, so an instance or pair product of total
    degree above the bound divides no monomial of the box and is dropped.
    A template of total slope sigma > 0 and total offset tau has degree
    sigma*k + tau, above the bound for every k >= (bound - tau) // sigma + 1;
    slopes are nonnegative, so a template of total slope 0 is the same
    monomial at every k.  From ``stable``, the largest of these thresholds
    and at least 1, the kept instances no longer change, so weight k stands
    in for min(k, stable) and each distinct pair of such weights is
    multiplied once.
    """
    if m < 1:
        raise ValueError(f"weight m={m} must be >= 1")
    if degree_bound < 0:
        raise ValueError(f"degree_bound={degree_bound} must be >= 0")
    nvars = len(family.variables)

    def kept(k: int) -> list[Exponents]:
        if k < family.m_min:
            raise ValueError(f"m={k} below validated range (m >= {family.m_min})")
        insts = [tuple(ae.at(k) for ae in row) for row in family.templates]
        return [g for g in insts if sum(g) <= degree_bound]

    def div(g: Exponents, x: Exponents) -> bool:
        return all(a <= b for a, b in zip(g, x))

    def box(bound: int) -> list[Exponents]:
        monos: list[Exponents] = []

        def rec(prefix: tuple[int, ...], left: int) -> None:
            if len(prefix) == nvars:
                monos.append(prefix)
                return
            for e in range(left + 1):
                rec(prefix + (e,), left - e)

        rec((), bound)
        return monos

    totals = [
        (sum(ae.slope for ae in row), sum(ae.offset for ae in row))
        for row in family.templates
    ]
    stable = max(
        [1] + [(degree_bound - tau) // sigma + 1 for sigma, tau in totals if sigma > 0]
    )
    # weight stable stands for every k >= stable
    raws = {k: kept(k) for k in range(1, min(m, stable) + 1)}
    pairs = {(min(a, stable), min(m - a, stable)) for a in range(1, m)}
    pair_products = {
        tuple(x + y for x, y in zip(g, h))
        for i, j in pairs
        for g in raws[i]
        for h in raws[j]
        if sum(g) + sum(h) <= degree_bound
    }

    difference = set()
    for mono in box(degree_bound):
        if any(div(g, mono) for g in raws[min(m, stable)]) and not any(
            div(p, mono) for p in pair_products
        ):
            difference.add(mono)
    return frozenset(
        x for x in difference if not any(y != x and div(y, x) for y in difference)
    )
