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
weight instantiates each I_k once and checks multiplicativity, so the module
refuses to report on non-multiplicative families.

The pass never builds J_m as an ideal.  It works on a set of candidates
that generates J_m, taken from the template-pair products s(a)*t(m-a),
0 < a < m, which lie on one line per pair: the generating endpoint of a
sign-definite line that no other endpoint divides at every weight, and the
points of a mixed-sign line that no kept endpoint product divides
(``_weights``, ``_lines`` and ``_candidates`` prove that these suffice).
``_lines`` compiles the lines and their cover bounds once per family, so
each weight does only integer evaluation.  The family is multiplicative
at m iff every candidate lies in I_m, and a generator of I_m is new iff no
candidate divides it.  The brute-force oracle shares none of this: it
judges the raw instances of weight m against each other and every pair
product.

A family is written as a comma-separated list of monomial templates
(``parse_family``, and ``str`` of a ``GradedMonomialFamily``); each factor
is ``var`` or ``var^e`` where the exponent is an integer, ``m``, ``k*m``,
or ``k*m+c``/``k*m-c`` (optionally parenthesized), with ``m`` the grading
weight.  It shares the tokenizer of ``exactalg.parse_polynomial``, so
names are ASCII.  A variable whose exponents sum to 0 is refused: it would
print as nothing.

Everything here is immutable and pure; per-degree computations are
independent of one another, and the oracle's memo (one per family and
degree bound) only saves recomputation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import add, le, sub
from typing import Iterable, Iterator, Sequence

from .exactalg import (Exponents, ParseError, Tokens, VariableMismatch, _Frozen,
                       _store, divides, monomial_str)


class MultiplicativityViolation(Exception):
    """The family fails I_a * I_b inside I_{a+b} for some tested pair."""


def minimalize(generators: Iterable[Exponents]) -> frozenset[Exponents]:
    """Divisibility-minimal subset generating the same monomial ideal.

    Every candidate is validated up front: a negative exponent raises
    ``ValueError`` and exponent vectors of different lengths raise
    ``VariableMismatch``, whatever order the candidates come in.  The
    candidates are sorted by degree alone: a kept generator can never be
    divisible by a later one, and two distinct vectors of equal degree
    never divide each other, so ties may come in any order.
    """
    unique = set(tuple(g) for g in generators)
    if len({len(g) for g in unique}) > 1:
        raise VariableMismatch(
            f"exponent vectors of lengths {sorted({len(g) for g in unique})}"
        )
    # one pass over every entry; the offending generator is sought only then
    if min(chain.from_iterable(unique), default=0) < 0:
        bad = next(g for g in unique if any(e < 0 for e in g))
        raise ValueError(f"generator {bad} has a negative exponent")
    keep: list[Exponents] = []
    for g in sorted(unique, key=sum):
        for h in keep:
            if all(map(le, h, g)):
                break
        else:
            keep.append(g)
    return frozenset(keep)


def _print_order(exps: Exponents) -> tuple:
    """Ascending degree, larger exponents first."""
    return sum(exps), tuple(-x for x in exps)


def generators_str(variables: Sequence[str], gens: Iterable[Exponents]) -> str:
    """The monomials comma-separated, by ascending degree, larger exponents first."""
    ordered = sorted(gens, key=_print_order)
    return ", ".join(monomial_str(variables, g) for g in ordered)


class MonomialIdeal(_Frozen):
    """A monomial ideal presented by its minimal generators."""

    __slots__ = ("variables", "generators")

    def __init__(self, variables: Iterable[str], generators: Iterable[Exponents]) -> None:
        vars_t = tuple(variables)
        gens = minimalize(generators)
        for g in gens:
            if len(g) != len(vars_t):
                raise ValueError(f"generator {g} does not fit variables {vars_t}")
        _store(self, "variables", vars_t)
        _store(self, "generators", gens)

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def member(self, mono: Exponents) -> bool:
        """True iff some generator divides the monomial."""
        return any(divides(g, mono) for g in self.generators)

    def _check_compatible(self, other: "MonomialIdeal") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_compatible(other)
        prods = {
            tuple(a + b for a, b in zip(g, h))
            for g in self.generators
            for h in other.generators
        }
        return MonomialIdeal(self.variables, prods)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_compatible(other)
        return MonomialIdeal(self.variables, self.generators | other.generators)

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The intersection: generated by the lcms of all generator pairs."""
        self._check_compatible(other)
        lcms = {tuple(map(max, g, h)) for g in self.generators for h in other.generators}
        return MonomialIdeal(self.variables, lcms)

    def staircase(self) -> list[Exponents]:
        """The monomials outside a two-variable ideal, in ascending order.

        They are finite iff the ideal holds a pure power of each variable,
        else ValueError.  Sorted by x-exponent, minimal generators have
        falling y-exponents: between neighbours (a0, h) and (a1, _) the
        non-members are x^a*y^b with a0 <= a < a1 and b < h.
        """
        if len(self.variables) != 2:
            raise ValueError(f"staircase needs two variables, got {self.variables}")
        gens = sorted(self.generators)
        if not gens or gens[0][0] or gens[-1][1]:
            raise ValueError(f"{self} has infinitely many non-members")
        return [(a, b) for (a0, h), (a1, _) in zip(gens, gens[1:])
                for a in range(a0, a1) for b in range(h)]

    def __str__(self) -> str:
        return "(" + (generators_str(self.variables, self.generators) or "0") + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self!s}"


class AffineExponent(_Frozen):
    """An exponent of the shape slope*m + offset in a grading weight m."""

    __slots__ = ("slope", "offset")

    def __init__(self, slope: int, offset: int) -> None:
        if slope < 0:
            raise ValueError(f"slope must be nonnegative, got {slope}")
        _store(self, "slope", slope)
        _store(self, "offset", offset)

    # written out, as the generic ones take half as long again: the oracle's
    # cache hashes every exponent of a family once per weight
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.slope, self.offset) == (other.slope, other.offset)

    def __hash__(self) -> int:
        return hash((self.slope, self.offset))

    def at(self, m: int) -> int:
        return self.slope * m + self.offset

    def __str__(self) -> str:
        if self.slope == 0:
            return str(self.offset)
        head = "m" if self.slope == 1 else f"{self.slope}*m"
        if self.offset == 0:
            return head
        return f"{head}{self.offset:+d}"


class GradedMonomialFamily(_Frozen):
    """Monomial generator templates with exponents affine in the weight m.

    ``templates`` holds one exponent row per generator, aligned with
    ``variables``.  Instantiation at every weight m >= 1 must give
    nonnegative exponents; this is checked at construction.
    """

    __slots__ = ("variables", "templates")

    def __init__(
        self,
        variables: tuple[str, ...],
        templates: tuple[tuple[AffineExponent, ...], ...],
    ) -> None:
        for row in templates:
            if len(row) != len(variables):
                raise ValueError(f"template {row} does not fit variables {variables}")
            for ae in row:
                # slope >= 0, so the minimum over m >= 1 is attained at m = 1
                if ae.at(1) < 0:
                    raise ValueError(f"exponent {ae} is negative at m=1")
        _store(self, "variables", variables)
        _store(self, "templates", templates)

    def instantiate(self, m: int) -> MonomialIdeal:
        """The ideal I_m, minimalized."""
        if m < 1:
            raise ValueError(f"m={m} below validated range (m >= 1)")
        gens = [tuple(ae.at(m) for ae in row) for row in self.templates]
        return MonomialIdeal(self.variables, gens)

    def __str__(self) -> str:
        return ", ".join(
            monomial_str(self.variables, [ae.offset if ae.slope == 0 else ae for ae in row])
            for row in self.templates
        )


class FamilyParseError(ParseError, ValueError):
    """A malformed family, with the position where parsing stopped."""


def _parse_affine(cur: Tokens) -> AffineExponent:
    kind, text, pos = cur.take()
    if kind == "int":
        if cur.peek()[1] == "*" and cur.peek(1)[1] == "m":
            cur.take()
            cur.take()
            return AffineExponent(int(text), _parse_offset(cur))
        return AffineExponent(0, int(text))
    if text == "m":
        return AffineExponent(1, _parse_offset(cur))
    raise FamilyParseError(f"expected an exponent, got {text!r}", pos)


def _parse_offset(cur: Tokens) -> int:
    sign = cur.peek()[1]
    if sign not in ("+", "-"):
        return 0
    cur.take()
    kind, text, pos = cur.take()
    if kind != "int":
        raise FamilyParseError("expected an integer after the sign", pos)
    return int(text) if sign == "+" else -int(text)


def _parse_exponent(cur: Tokens) -> AffineExponent:
    if not cur.accept("("):
        return _parse_affine(cur)
    ae = _parse_affine(cur)
    if not cur.accept(")"):
        raise FamilyParseError("expected ')'", cur.pos)
    return ae


def parse_family(src: str) -> GradedMonomialFamily:
    """Parse the family syntax into a validated graded family."""
    cur = Tokens(src, FamilyParseError)
    if cur.peek()[0] == "end":
        raise FamilyParseError("empty family", 0)
    templates: list[dict[str, AffineExponent]] = []
    while True:
        start = cur.pos
        template: dict[str, AffineExponent] = {}
        while True:
            kind, name, pos = cur.take()
            if kind != "name" or name == "m":
                raise FamilyParseError(f"expected a variable, got {name!r}", pos)
            exp = _parse_exponent(cur) if cur.accept("^") else AffineExponent(0, 1)
            prev = template.get(name, AffineExponent(0, 0))
            template[name] = AffineExponent(
                prev.slope + exp.slope, prev.offset + exp.offset
            )
            if not cur.accept("*"):
                break
        kind, text, pos = cur.peek()
        if kind != "end" and text != ",":
            raise FamilyParseError(f"expected '*' or ',', got {text!r}", pos)
        # a variable with exponent 0 would print as nothing, so the printed
        # family could not be parsed back to the same variables
        for name, exp in template.items():
            if exp == AffineExponent(0, 0):
                raise FamilyParseError(f"exponent of {name} is identically 0", start)
            if exp.at(1) < 0:
                raise FamilyParseError(f"exponent {exp} is negative at m=1", start)
        templates.append(template)
        if not cur.accept(","):
            break
        if cur.peek()[0] == "end":
            raise FamilyParseError("trailing comma", pos)
    variables = tuple(sorted({v for t in templates for v in t}))
    rows = tuple(
        tuple(t.get(v, AffineExponent(0, 0)) for v in variables) for t in templates
    )
    return GradedMonomialFamily(variables, rows)


def _lines(
    templates: Sequence[tuple[AffineExponent, ...]],
) -> tuple[list[tuple], list[tuple]]:
    """The template pairs {s, t} (s = t included) compiled into integer
    vectors, split by the signs of D = slope(s) - slope(t), with
    O = offset(s) + offset(t).

    ``ends`` holds ``(K, C)`` for a pair whose D is sign-definite: its
    generating endpoint is E(m) = K*m + C, the product at a = 1
    (K = slope(t), C = O + D) when D >= 0, else the one at a = m-1
    (K = slope(s), C = O - D).  Equal lines are kept once, and a line E2
    is dropped when another line E1 divides it at every weight m >= 2,
    which holds iff K1 <= K2 and E1(2) <= E2(2) coordinatewise: E2 - E1
    is affine in m, and an affine function that is nonnegative at m = 2
    with a nonnegative slope is nonnegative for every m >= 2 (conversely a
    negative slope makes it negative for large m).  Between distinct lines
    this order is antisymmetric, so the kept lines are its minimal
    elements and every dropped line is divided by a kept one.

    ``mixed`` holds ``(Q, O, D, covers)`` for a pair whose D has mixed
    signs: its products lie on the line P(m) + a*D with P = Q*m + O and
    Q = slope(t).  ``covers`` holds, for each kept endpoint line, the
    triples ``(alpha, beta, D_i)`` per coordinate, alpha = K - Q and
    beta = C - O: E(m) divides the point at a iff
    alpha_i*m + beta_i <= a*D_i in every coordinate (``_candidates``).  A
    coordinate with D_i = 0, alpha_i >= 0 and 2*alpha_i + beta_i > 0
    fails at every m >= 2 by the same affine argument, so such an
    endpoint line covers no point of the mixed line and gets no entry.
    """
    rows = [
        (tuple(ae.slope for ae in row), tuple(ae.offset for ae in row))
        for row in templates
    ]
    ends, mixed = {}, {}  # dicts as sets in insertion order
    for i, (s_slope, s_offset) in enumerate(rows):
        for t_slope, t_offset in rows[i:]:
            d = tuple(map(sub, s_slope, t_slope))
            o = tuple(map(add, s_offset, t_offset))
            if min(d) >= 0:
                ends[t_slope, tuple(map(add, o, d))] = None
            elif max(d) <= 0:
                ends[s_slope, tuple(map(sub, o, d))] = None
            else:
                mixed[t_slope, o, d] = None
    # K followed by E(2): one entrywise comparison decides K1 <= K2 and
    # E1(2) <= E2(2) together
    key = {(k, c): k + tuple(2 * ki + ci for ki, ci in zip(k, c)) for k, c in ends}
    kept = [
        e for e in ends if not any(f != e and all(map(le, key[f], key[e])) for f in ends)
    ]
    compiled = []
    for q, o, d in mixed:
        covers = []
        for k, c in kept:
            bounds = tuple(zip(map(sub, k, q), map(sub, c, o), d))
            if not any(di == 0 and alpha >= 0 and 2 * alpha + beta > 0
                       for alpha, beta, di in bounds):
                covers.append(bounds)
        compiled.append((q, o, d, tuple(covers)))
    return kept, compiled


def _candidates(lines: tuple[list[tuple], list[tuple]], m: int) -> set[Exponents]:
    """Products s(a) + t(m-a) that generate J_m, by the interval cut, from
    the compiled ``lines = _lines(templates)``.

    Every kept endpoint product, and every mixed-line point that no kept
    endpoint product divides.  Per coordinate, E(m) divides the point
    P(m) + a*D iff alpha*m + beta <= a*D_i: a >= ceil((alpha*m + beta)/D_i)
    where D_i > 0, a <= floor((alpha*m + beta)/D_i) where D_i < 0, and
    alpha*m + beta <= 0 where D_i = 0.  The a in [1, m-1] that one endpoint
    product covers thus form one integer interval; only the gaps the
    intervals leave are instantiated.

    The result is a subset of the set built from every endpoint line, and
    it generates the same ideal J_m: a dropped endpoint product is a
    multiple of a kept one (``_lines``), and every point it covers, it
    covers as a multiple of that kept product, which covers the point too.
    """
    if m < 2:
        return set()
    ends, mixed = lines
    points = {tuple(k * m + c for k, c in zip(ks, cs)) for ks, cs in ends}
    for q, o, d, covers in mixed:
        spans = []
        for bounds in covers:
            lo, hi = 1, m - 1
            for alpha, beta, di in bounds:
                v = alpha * m + beta
                if di > 0:
                    lo = max(lo, -(-v // di))
                elif di < 0:
                    hi = min(hi, v // di)
                elif v > 0:
                    break
            else:
                if lo <= hi:
                    spans.append((lo, hi))
        base = tuple(qi * m + oi for qi, oi in zip(q, o))
        start = 1
        # the sentinel (m, m) closes the last gap at a = m-1
        for lo, hi in sorted(spans) + [(m, m)]:
            points.update(
                tuple(pi + a * di for pi, di in zip(base, d)) for a in range(start, lo)
            )
            start = max(start, hi + 1)
    return points


def _weights(
    family: GradedMonomialFamily, upto: int
) -> Iterator[tuple[int, MonomialIdeal, set[Exponents]]]:
    """(m, I_m, S_m) for m = 1, ..., upto, where the set S_m generates J_m.

    I_a is generated by the template instances s(a), so J_m is generated by
    s(a) + t(m-a) over unordered template pairs {s, t} (s = t included) and
    a in [1, m-1].  For one pair these points lie on the line P + a*D with
    P = slope(t)*m + offset(s) + offset(t) and D = slope(s) - slope(t).  If
    D >= 0 in every coordinate each point divides the later ones, so the
    point at a = 1 generates the whole line; if D <= 0 the point at a = m-1
    does (D = 0 is one point).  These endpoint products are kept, except
    one that another endpoint product divides at every m >= 2 (``_lines``
    drops its line once per family: an affine difference that is
    nonnegative at m = 2 with a nonnegative slope is nonnegative for every
    m >= 2).  On a line whose D has mixed signs, the points that one kept
    endpoint product divides form an integer interval of a
    (``_candidates``); only the points in the gaps between those intervals
    are kept.  A point that a dropped product covers is covered by the kept
    product dividing it.  Every dropped point is a multiple of a kept one,
    so S_m generates J_m; no J_m ideal is built.

    The family is multiplicative up to m iff every element of S_m lies in
    I_m: I_m is closed under multiples and every product I_a*I_b with
    a+b = m is a multiple of some element of S_m.  The first weight where
    this fails raises ``MultiplicativityViolation`` naming ``upto``, that
    weight and the least element of S_m outside I_m in printing order.
    That element is a minimal generator of J_m: a minimal generator of J_m
    dividing it lies in S_m (every generating subset of J_m holds the
    minimal generators, however many multiples the pruning leaves out),
    lies outside I_m too, and a strict divisor has a smaller degree, so it
    would come first.  So the message names the same monomial for every
    generating set S_m.  A generator of I_m is new iff no
    element of S_m divides it, which is membership in J_m.
    """
    lines = _lines(family.templates)
    for m in range(1, upto + 1):
        i_m = family.instantiate(m)
        candidates = _candidates(lines, m)
        outside = [c for c in candidates if not i_m.member(c)]
        if outside:
            first = monomial_str(family.variables, min(outside, key=_print_order))
            raise MultiplicativityViolation(
                f"family ({family}) is not multiplicative up to {upto}: at weight"
                f" {m} the minimal generator {first} of J_{m} is not in I_{m}"
            )
        yield m, i_m, candidates


def _new(i_m: MonomialIdeal, candidates: set[Exponents]) -> frozenset[Exponents]:
    """The generators of I_m that no element of the generating set
    ``candidates`` of J_m divides, i.e. those outside J_m."""
    return frozenset(
        g for g in i_m.generators if not any(all(map(le, c, g)) for c in candidates)
    )


class ReesGenerationReport(_Frozen):
    """Per-degree table of fresh generators for a graded monomial family.

    ``witness_flag`` is True exactly when every degree from 3 to the last
    row contributed at least one new generator: a standing demand for new
    generators in that window is the finite-generation failure witness.
    """

    __slots__ = ("rows", "witness_flag")

    def __init__(
        self, rows: tuple[tuple[int, frozenset[Exponents]], ...], witness_flag: bool
    ) -> None:
        _store(self, "rows", rows)
        _store(self, "witness_flag", witness_flag)

    def row(self, m: int) -> frozenset[Exponents]:
        """The new generators of weight m; ``rows`` holds m = 1, 2, ... in order."""
        if not 1 <= m <= len(self.rows):
            raise KeyError(m)
        return self.rows[m - 1][1]


def rees_report(family: GradedMonomialFamily, max_degree: int) -> ReesGenerationReport:
    """Compute new generators for every 1 <= m <= max_degree."""
    if max_degree < 3:
        raise ValueError("max_degree must be >= 3")
    rows = [(m, _new(i_m, s_m)) for m, i_m, s_m in _weights(family, max_degree)]
    witness = all(gens for m, gens in rows if 3 <= m <= max_degree)
    return ReesGenerationReport(tuple(rows), witness)


def brute_force_new_generators(
    family: GradedMonomialFamily, m: int, degree_bound: int
) -> frozenset[Exponents]:
    """Slow independent oracle for ``rees_report`` rows, capped by total degree.

    Judges the raw template instances of weight m directly, by exact
    divisibility against each other and against the pair products
    s(a) + t(m-a) (no minimalization, no shared ideal code): an instance
    of total degree <= degree_bound is new iff no other instance and no
    pair product divides it.  Those are exactly the minimal generators of
    I_m outside J_m, as far as the degree cap can see.  Let D be the
    monomials of degree <= bound in I_m but not in J_m.  A minimal element
    x of D is a multiple of some minimal generator g of I_m; deg g <= deg x
    <= bound, and g is not in J_m since J_m is an ideal and x is not in it,
    so g lies in D and minimality gives g = x.  Conversely a minimal
    generator of I_m in D is minimal in D, since D lies in I_m.

    Exponents are nonnegative, so an instance or pair product of total
    degree above the bound divides no monomial of degree <= bound and is
    dropped.  A template of total slope sigma > 0 and total offset tau has
    degree sigma*k + tau, above the bound for every
    k >= (bound - tau) // sigma + 1; slopes are nonnegative, so a template
    of total slope 0 is the same monomial at every k.  From ``stable``, the
    largest of these thresholds and at least 1, the kept instances no
    longer change, so weight k stands in for min(k, stable).  For
    m >= 2*stable the pairs are (a, stable), (stable, b) with a, b < stable
    and (stable, stable), and I_m stands in for I_stable, so the answer is
    that of weight min(m, 2*stable).

    No cap: to judge every generator of weight m, pass as the bound the
    largest total degree among the weight-m instances.  Every instance is
    then kept; every pair product that could divide an instance is kept,
    since a divisor's degree is at most the instance's; and each template
    of positive slope has degree sigma*m + tau <= bound, so its threshold
    exceeds m: ``stable`` exceeds m and the clamp does not bind (with no
    template of positive slope, every weight has the same instances and
    the clamp is exact).  The answer is then every minimal generator of
    I_m outside J_m, the same as with a bound that nothing reaches.

    The work that does not depend on m is done once per family and degree
    bound (``_OracleMemo``): ``stable``, the kept instances of each clamped
    weight with their degrees, and each clamped weight's answer.  A pair
    (a, b) of clamped weights below ``stable`` occurs only at weight a + b,
    so its products are formed there and not kept; only the pairs with
    ``stable`` recur across weights, and only their products are kept.
    """
    if m < 1:
        raise ValueError(f"weight m={m} must be >= 1")
    if degree_bound < 0:
        raise ValueError(f"degree_bound={degree_bound} must be >= 0")
    return _oracle_memo(family, degree_bound).answer(m)


class _OracleMemo:
    """The oracle's tables for one family and degree bound, filled as the
    weights ask for them (see ``brute_force_new_generators``)."""

    __slots__ = ("templates", "bound", "stable", "kept", "with_stable", "answers")

    def __init__(self, family: GradedMonomialFamily, degree_bound: int) -> None:
        totals = [
            (sum(ae.slope for ae in row), sum(ae.offset for ae in row))
            for row in family.templates
        ]
        self.templates = family.templates
        self.bound = degree_bound
        self.stable = max(
            [1] + [(degree_bound - tau) // sigma + 1 for sigma, tau in totals if sigma > 0]
        )
        # clamped weight k -> its instances of degree <= bound, with their degrees
        self.kept: dict[int, list[tuple[Exponents, int]]] = {}
        # weight a <= stable -> the kept products of weights a and stable
        self.with_stable: dict[int, set[Exponents]] = {}
        # clamped weight -> the oracle's answer
        self.answers: dict[int, frozenset[Exponents]] = {}

    def instances(self, k: int) -> list[tuple[Exponents, int]]:
        """The instances of weight k <= stable of degree <= bound, with their degrees."""
        if k not in self.kept:
            insts = [tuple(ae.at(k) for ae in row) for row in self.templates]
            self.kept[k] = [(g, sum(g)) for g in insts if sum(g) <= self.bound]
        return self.kept[k]

    def products(self, a: int, b: int) -> set[Exponents]:
        """The pair products of degree <= bound of weights a <= b <= stable."""
        if b == self.stable and a in self.with_stable:
            return self.with_stable[a]
        found = {
            tuple(map(add, g, h))
            for g, dg in self.instances(a)
            for h, dh in self.instances(b)
            if dg + dh <= self.bound
        }
        if b == self.stable:
            self.with_stable[a] = found
        return found

    def answer(self, m: int) -> frozenset[Exponents]:
        """The oracle at weight m, computed at min(m, 2*stable).

        A kept instance of weight min(m, stable) is reported iff no other
        kept instance and no kept pair product divides it: these are the
        minimal elements of (I_m minus J_m) in degree <= bound, and a
        divisor of an instance has degree at most its degree, so the
        dropped instances and products could divide none of them.  Each
        unordered pair {a, m - a} is multiplied once.
        """
        m = min(m, 2 * self.stable)
        if m not in self.answers:
            stable = self.stable
            instances = [g for g, _ in self.instances(min(m, stable))]
            pair_products = set().union(
                *(self.products(a, min(m - a, stable)) for a in range(1, m // 2 + 1))
            )

            def div(g: Exponents, x: Exponents) -> bool:
                return all(a <= b for a, b in zip(g, x))

            self.answers[m] = frozenset(
                g
                for g in instances
                if not any(h != g and div(h, g) for h in instances)
                and not any(div(p, g) for p in pair_products)
            )
        return self.answers[m]


# bounded, since a cap that changes with the weight makes one memo per weight;
# least recently used first, so the memos asked for at every weight stay
@lru_cache(maxsize=32)
def _oracle_memo(family: GradedMonomialFamily, degree_bound: int) -> _OracleMemo:
    return _OracleMemo(family, degree_bound)
