"""Exact multivariate Laurent polynomials over the rationals.

A polynomial is a finite map from exponent vectors to nonzero rational
coefficients.  Exponents may be negative, so meromorphic coefficient
functions such as x^-1*y are first-class values.  Every coefficient is
exact.  The map is stored as nonzero ``int`` numerators over one common
denominator d >= 1, so integral polynomials (d = 1) never touch
``Fraction`` and rational ones pay for one gcd per result instead of one
per term: products, sums and scalings divide out the gcd of d and the
numerators, while restriction (shifted or not, times an integral unit) and
collision-free substitution keep d as it is, so d is *a* common
denominator, not always the least.  The storage is invisible: ``terms()``,
``coefficient()`` and printing give each value as an ``int`` when it is
integral and as a reduced ``Fraction`` otherwise, equality compares values
exactly, and equal values hash alike (a constant like the number it
equals).  Equality of two polynomials is a decidable, exact test, which is
what the downstream gluing and restriction checks rely on.  Nothing is
mutated after construction, so values can be shared freely between threads.

Substitution has two kernels, picked by term count alone; above 8 terms a
shifted restriction hands its kept terms to the identity substitution with
the shift as its offset, so it runs on the same two.  Up to 8 terms they
loop over the terms and build each image exponent vector in turn.  Above 8
they transpose the exponent vectors once into one column per variable and
build each new column as the sum of the old columns times their image
entries (an entry of 1 passes its column through uncopied) plus the
offset, and zip the new vectors back onto the numerators.  A result
shorter than its input means that two terms collided; only then are
numerators summed, zeros dropped and the denominator reduced.  The
transposition costs more than it saves on the one- to three-term
polynomials that restriction and gluing make by the thousand (1.2-1.7x
slower below 4 terms); the two kernels cross at about 6 terms, and at 27-55
terms the columns substitute about 2x faster.

Three kernels build only the terms their result keeps.  ``sum_of_products``
returns the sum of a*b over a list of pairs in one pass: each pair's
products are scaled to the lcm of the pairs' denominators and summed as ints
into one map, and one gcd reduces it, so no product or partial sum is built
(``__mul__`` runs every product of two polynomials through the same loop).
``sum_substituted`` does the same for the images of several parts under one
substitution, each shifted by its own exponent vector.  ``restrict_substituted``
is a substitution, an optional shift and a restriction to ``var = 0`` in one
step: it computes the ``var``-exponent of every image term first, raises
where the composed path would meet a pole, and builds image exponent vectors
only for the terms whose exponent is 0.  All substitutions share one kernel,
which sums, drops zeros and reduces only when two images collide.

Variables are named symbols fixed at construction time.  Operations that
combine two polynomials require identical variable lists, and moving a
value between coordinate charts is always an explicit, once-checked
``MonomialSubstitution``.  This is deliberate: the gluing maps between
charts permute and rescale coordinates, and silent reconciliation of
variable lists would hide exactly the bookkeeping this library exists to
get right.

Text syntax (``parse_polynomial`` / ``str``): terms joined by ``+``/``-``,
factors joined by ``*``, exponents ``x^k`` with k a possibly negative
integer, rational coefficients ``a/b``.  Printing is deterministic (graded
lexicographic term order, no redundant signs), so printed output is stable
enough for golden-file tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import chain, compress
from math import gcd, lcm
from operator import add, attrgetter, le
from typing import Collection, Iterable, KeysView, Mapping, Sequence

Exponents = tuple[int, ...]

# Above this many terms ``_substituted`` builds exponent vectors a column at a
# time (see the module docstring), and a shifted ``restrict_var`` hands it
# the kept terms and the shift.
_COLUMN_TERMS = 8


class ExactAlgError(Exception):
    """Base class for errors raised by the arithmetic layer."""


class VariableMismatch(ExactAlgError):
    """Two operands live on different variable lists."""


class UnknownVariable(ExactAlgError):
    """A variable name is not part of the polynomial's chart."""


class NegativeExponentAtRestriction(ExactAlgError):
    """Setting a variable to zero hit a term with a pole in that variable."""


class ParseError(ExactAlgError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def divides(m1: Exponents, m2: Exponents) -> bool:
    """True iff the monomial with exponents m1 divides the one with m2.

    Both vectors must be nonnegative and of equal length; divisibility is
    entrywise comparison.
    """
    if len(m1) != len(m2):
        raise VariableMismatch(
            f"exponent vectors of lengths {len(m1)} and {len(m2)}"
        )
    if min(m1, default=0) < 0 or min(m2, default=0) < 0:
        raise ValueError("divisibility is defined for nonnegative exponents only")
    return all(map(le, m1, m2))


Coefficient = int | Fraction


def _exact(value) -> Coefficient:
    """A coefficient as an int when integral, else as a Fraction; only int
    and Fraction are exact input."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"coefficient {value!r} is not an int or Fraction")
        # bool and other subclasses become plain values
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _value(n: int, den: int) -> Coefficient:
    """The coefficient n/den as an int when integral, else a reduced Fraction."""
    q, r = divmod(n, den)
    return Fraction(n, den) if r else q


def _reduced(nums: dict[Exponents, int], den: int) -> tuple[dict[Exponents, int], int]:
    """``(nums, den)`` with the gcd of den and every numerator divided out."""
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {e: n // g for e, n in nums.items()}, den // g


def _position(vars_t: tuple[str, ...], var: str) -> int:
    try:
        return vars_t.index(var)
    except ValueError:
        raise UnknownVariable(f"{var!r} not among {vars_t}") from None


def _plain(key: tuple) -> Exponents:
    """``key`` with plain int entries: bool and other int subclasses become
    ints, and any other entry raises ``ValueError``."""
    for e in key:
        if type(e) is not int:
            if not all(isinstance(e, int) for e in key):
                raise ValueError(f"non-integer exponent in {key}")
            return tuple(map(int, key))
    return key


def _check_shift(vars_t: tuple[str, ...], exps: Exponents) -> Exponents:
    """``exps``, with ``_plain`` entries, if it is an integer exponent
    vector over ``vars_t``."""
    if len(exps) != len(vars_t):
        raise VariableMismatch(f"shift {tuple(exps)} does not fit {vars_t}")
    for e in exps:
        if type(e) is not int:
            return _plain(tuple(exps))
    return exps


def _pole(var: str, e: int) -> NegativeExponentAtRestriction:
    return NegativeExponentAtRestriction(
        f"term with {var}^{e} cannot be restricted to {var}=0"
    )


def _distinct(variables: Iterable[str]) -> tuple[str, ...]:
    vars_t = tuple(variables)
    if len(set(vars_t)) != len(vars_t):
        raise ValueError(f"duplicate variable names in {vars_t}")
    return vars_t


def monomial_str(variables: Sequence[str], exps: Sequence[object]) -> str:
    """The monomial as factors ``v`` or ``v^e`` joined by ``*``, or ``1``.

    An exponent that compares unequal to 0 and 1 prints with ``str`` as ``v^e``.
    """
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e != 0]
    return "*".join(factors) if factors else "1"


def _grlex_key(exps: Exponents) -> tuple:
    # graded lex, descending: higher total degree first, then lexicographically
    # larger exponent vectors first
    return (-sum(exps), tuple(-e for e in exps))


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names in ``__slots__`` its inputs, in constructor order, then
    the fields its ``__init__`` derives from them (a fact read on demand is a
    property); ``__init__`` checks its arguments and stores each field with
    ``_store(self, name, value)`` past the guard against assignment.  ``==``
    holds only between two instances of one class whose fields are equal,
    equal values hash alike, and ``repr`` reads ``Name(field=value, ...)``.
    These methods are written once, here, so that importing the package
    generates no code (see the README).
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the fields' values, as a tuple for two fields or more
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # pickle and copy would restore the slots by assignment, which the
        # guard refuses
        return _rebuilt, (type(self), tuple(getattr(self, n) for n in self.__slots__))


# stores a field of a ``_Frozen`` value; for constructors only
_store = object.__setattr__


def _rebuilt(cls: type, values: tuple) -> _Frozen:
    """The ``cls`` instance with these field values, as ``__reduce__`` gave them."""
    self = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _store(self, name, value)
    return self


class MonomialSubstitution(_Frozen):
    """A monomial over ``target`` for each variable of ``source``, checked
    once; ``LaurentPolynomial.substitute_monomials`` and
    ``restrict_substituted`` apply it.

    ``images`` maps each source variable to the exponents of its image over
    ``target`` (a name left out has exponent 0), negative ones included, as
    the chart changes need (u -> s^2, v -> u^-1*w^2).  This integer matrix
    is stored by its nonzero entries twice: ``rows[j]`` holds the pairs
    (k, e) of the image of source variable j, and ``columns[k]`` the pairs
    (j, e) that reach target variable k; ``identity`` marks the identity matrix.
    """

    __slots__ = ("source", "target", "rows", "columns", "identity")

    def __init__(self, source: Iterable[str], target: Iterable[str],
                 images: Mapping[str, Mapping[str, int]]) -> None:
        source = _distinct(source)
        for name in images:
            if name not in source:
                raise UnknownVariable(f"{name!r} not among {source}")
        target = _distinct(target)
        rows = []
        for v in source:
            if v not in images:
                raise UnknownVariable(f"no image given for {v!r}")
            exp_map = images[v]
            for name, e in exp_map.items():
                if name not in target:
                    raise UnknownVariable(f"{name!r} not among {target}")
                if not isinstance(e, int):
                    raise ValueError(f"non-integer exponent {e!r} in image of {v!r}")
            rows.append(
                tuple((k, exp_map[w]) for k, w in enumerate(target) if exp_map.get(w))
            )
        columns = tuple(
            tuple((j, e) for j, row in enumerate(rows) for i, e in row if i == k)
            for k in range(len(target))
        )
        _store(self, "source", source)
        _store(self, "target", target)
        _store(self, "rows", tuple(rows))
        _store(self, "columns", columns)
        _store(self, "identity", rows == [((j, 1),) for j in range(len(target))])


@cache
def _identity(vars_t: tuple[str, ...]) -> MonomialSubstitution:
    """The identity substitution of ``vars_t``, built once per variable list."""
    return MonomialSubstitution(vars_t, vars_t, {v: {v: 1} for v in vars_t})


class LaurentPolynomial(_Frozen):
    """Immutable sparse Laurent polynomial over named variables.

    ``_terms`` maps exponent vectors to nonzero int numerators over the
    common denominator ``_den`` >= 1 (see the module docstring).  The public
    constructor checks everything it is given and accepts only int and
    Fraction coefficients; the results of the class's own arithmetic are
    normalised by construction and skip those checks.
    """

    __slots__ = ("_vars", "_terms", "_den")

    def __init__(
        self,
        variables: Iterable[str],
        terms: Mapping[Exponents, Coefficient] | None = None,
    ) -> None:
        vars_t = _distinct(variables)
        stored: dict[Exponents, int] = {}
        den = 1
        collided = False
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != len(vars_t):
                raise VariableMismatch(
                    f"exponent vector {key} does not fit variables {vars_t}"
                )
            for e in key:
                if type(e) is not int:
                    key = _plain(key)
                    break
            if type(coeff) is int:
                n = coeff * den
            else:
                if type(coeff) is not Fraction:
                    coeff = _exact(coeff)
                num, q = coeff.as_integer_ratio()
                if den % q:
                    # bring the numerators so far over lcm(den, q)
                    scale = q // gcd(den, q)
                    for e in stored:
                        stored[e] *= scale
                    den *= scale
                n = num * (den // q)
            if not n:
                continue
            if key in stored:
                collided = True
                total = stored[key] + n
                if total:
                    stored[key] = total
                else:
                    del stored[key]
            else:
                stored[key] = n
        # without a collision the pair is reduced already: each prime power
        # exactly dividing den is that of some value's reduced denominator q,
        # and the numerator of that value times den/q is prime to it
        if collided and den > 1:
            stored, den = _reduced(stored, den)
        _set_vars(self, vars_t)
        _set_terms(self, stored)
        _set_den(self, den)

    @classmethod
    def _trusted(
        cls, vars_t: tuple[str, ...], terms: dict[Exponents, int], den: int = 1
    ) -> "LaurentPolynomial":
        """Adopt ``terms`` over ``den`` as they are, without the checks of
        ``__init__``.

        For results of this class's own arithmetic only.  The caller
        guarantees distinct variable names, int-tuple keys of length
        ``len(vars_t)``, nonzero int numerators and an int ``den`` >= 1, and
        hands over a dict that nobody mutates afterwards.
        """
        self = object.__new__(cls)
        _set_vars(self, vars_t)
        _set_terms(self, terms)
        _set_den(self, den)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "LaurentPolynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value: Coefficient) -> "LaurentPolynomial":
        vars_t = tuple(variables)
        return cls(vars_t, {(0,) * len(vars_t): value})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "LaurentPolynomial":
        vars_t = tuple(variables)
        if name not in vars_t:
            raise UnknownVariable(f"{name!r} not among {vars_t}")
        exps = tuple(1 if v == name else 0 for v in vars_t)
        return cls(vars_t, {exps: 1})

    @classmethod
    def monomial(
        cls,
        variables: Iterable[str],
        exponents: Mapping[str, int],
        coeff: Coefficient = 1,
    ) -> "LaurentPolynomial":
        vars_t = tuple(variables)
        for name in exponents:
            if name not in vars_t:
                raise UnknownVariable(f"{name!r} not among {vars_t}")
        exps = tuple(exponents.get(v, 0) for v in vars_t)
        return cls(vars_t, {exps: coeff})

    # -- queries -----------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    def terms(self) -> dict[Exponents, Coefficient]:
        """The coefficients, each an int when integral, else a reduced Fraction."""
        den = self._den
        if den == 1:
            return dict(self._terms)
        return {e: _value(n, den) for e, n in self._terms.items()}

    def support(self) -> KeysView[Exponents]:
        """The exponent vectors of the nonzero terms, without their values."""
        return self._terms.keys()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exps: Exponents) -> Coefficient:
        key = tuple(exps)
        if len(key) != len(self._vars):
            raise VariableMismatch(
                f"exponent vector {key} does not fit variables {self._vars}"
            )
        return _value(self._terms.get(_plain(key), 0), self._den)

    def low_degree_in(self, var: str) -> int | None:
        i = _position(self._vars, var)
        if not self._terms:
            return None
        return min(e[i] for e in self._terms)

    def is_polynomial(self) -> bool:
        """True iff no term carries a negative exponent."""
        return min(chain.from_iterable(self._terms), default=0) >= 0

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "LaurentPolynomial | None":
        if isinstance(other, LaurentPolynomial):
            if other._vars != self._vars:
                raise VariableMismatch(
                    f"variable lists differ: {self._vars} vs {other._vars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial.constant(self._vars, other)
        return None

    def __add__(self, other) -> "LaurentPolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d1, d2 = self._den, rhs._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        f1, f2 = den // d1, den // d2
        if f1 == 1:
            out = dict(self._terms)
        else:
            out = {e: n * f1 for e, n in self._terms.items()}
        for exps, n in rhs._terms.items():
            n *= f2
            if exps in out:
                total = out[exps] + n
                if total:
                    out[exps] = total
                else:
                    del out[exps]
            else:
                out[exps] = n
        if den > 1:
            out, den = _reduced(out, den)
        return LaurentPolynomial._trusted(self._vars, out, den)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._trusted(
            self._vars, {e: -n for e, n in self._terms.items()}, self._den
        )

    def __sub__(self, other) -> "LaurentPolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "LaurentPolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "LaurentPolynomial":
        """The product with a polynomial or an exact scalar.

        A scalar scales every coefficient.  For a polynomial, one term or
        many, the pair products of the two numerator maps are summed as ints
        over the product d1*d2 of the two denominators, and one gcd of that
        denominator and every summed numerator reduces the result; no
        coefficient passes through a ``Fraction``.
        """
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if other == 0:
                return LaurentPolynomial._trusted(self._vars, {})
            k = _exact(other)
            out, den = self._scaled(k.numerator, k.denominator)
            return LaurentPolynomial._trusted(self._vars, out, den)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _pair_sum(
            self._vars, ((self._terms, rhs._terms, 1),), self._den * rhs._den
        )

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(
        pairs: Iterable[tuple["LaurentPolynomial", "LaurentPolynomial"]],
    ) -> "LaurentPolynomial":
        """The sum of a*b over the pairs (a, b), in one pass.

        Every factor must live on the same variable list.  Each pair's
        products are summed as ints over the lcm of the pairs' denominators,
        so the partial products and partial sums are never built; one gcd
        reduces the result.  Raises ``ValueError`` on no pairs, since the
        variable list would be unknown.
        """
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("a sum of products needs at least one pair")
        vars_t = pairs[0][0]._vars
        for pair in pairs:
            for f in pair:
                if not isinstance(f, LaurentPolynomial):
                    raise TypeError(f"factor {f!r} is not a LaurentPolynomial")
                if f._vars != vars_t:
                    raise VariableMismatch(
                        f"variable lists differ: {vars_t} vs {f._vars}"
                    )
        # a pair with a zero factor adds nothing, its denominator included
        nonzero = [(a, b, a._den * b._den) for a, b in pairs if a._terms and b._terms]
        den = lcm(*(d for _, _, d in nonzero))
        factors = [(a._terms, b._terms, den // d) for a, b, d in nonzero]
        return _pair_sum(vars_t, factors, den)

    def _scaled(self, num: int, q: int = 1) -> tuple[dict[Exponents, int], int]:
        """The numerator map and the denominator of the product with the
        scalar num/q (num != 0, q >= 1), on the same exponent vectors.

        An integral scalar meets the denominator in one gcd, which keeps a
        reduced pair reduced; a denominator q > 1 joins the result's, which
        is then reduced in full.
        """
        g = gcd(self._den, num)
        num //= g
        den = self._den // g * q
        out = self._terms if num == 1 else {e: n * num for e, n in self._terms.items()}
        if q > 1:
            out, den = _reduced(out, den)
        return out, den

    # -- chart operations --------------------------------------------------

    def restrict_var(self, var: str, shift: Exponents | None = None,
                     coeff: Coefficient = 1) -> "LaurentPolynomial":
        """Substitute var = 0; the result lives in the remaining variables.

        Raises NegativeExponentAtRestriction if any term has a pole in var,
        i.e. if the coefficient function is not holomorphic across the locus
        being restricted to.  Given ``shift`` or ``coeff``, the restriction
        is multiplied by ``coeff`` times the monomial of exponents ``shift``
        (no shift if None); both are checked before any pole.  The pass that
        drops ``var`` scales the kept terms and, up to ``_COLUMN_TERMS``
        terms, shifts them too; above it the substitution kernel's columns
        add the shift, as its offset over the identity substitution.
        """
        i = _position(self._vars, var)
        new_vars = self._vars[:i] + self._vars[i + 1 :]
        offset = None
        if shift is not None:
            shift = _check_shift(new_vars, shift)
            if len(self._terms) > _COLUMN_TERMS:
                shift, offset = None, shift
        num, q = _exact(coeff).as_integer_ratio()
        g = gcd(self._den, num)
        num //= g
        out: dict[Exponents, int] = {}
        for exps, c in self._terms.items():
            e = exps[i]
            if e < 0:
                raise _pole(var, e)
            if e == 0 and num:
                key = exps[:i] + exps[i + 1 :]
                out[key if shift is None else tuple(map(add, key, shift))] = c * num
        # the kept keys stay distinct: as in ``_scaled``, only q > 1 needs a gcd
        den = self._den // g * q
        if q > 1:
            out, den = _reduced(out, den)
        if offset is not None:
            return _substituted(new_vars, ((out, offset),), out.values(), den,
                                _identity(new_vars))
        return LaurentPolynomial._trusted(new_vars, out, den)

    def substitute_monomials(self, sub: MonomialSubstitution) -> "LaurentPolynomial":
        """The image under ``sub``, whose source must be this polynomial's
        variable list (else ``VariableMismatch``).  Only a collision of two
        images sums, drops zeros and reduces, so an injective ``sub`` keeps
        the numerators and denominator, and an ``identity`` one the map."""
        if self._vars != sub.source:
            raise VariableMismatch(f"substitution on {sub.source}, not {self._vars}")
        terms = self._terms
        if sub.identity:
            return LaurentPolynomial._trusted(sub.target, terms, self._den)
        return _substituted(sub.target, ((terms, None),), terms.values(), self._den, sub)

    @staticmethod
    def sum_substituted(
        sub: MonomialSubstitution,
        parts: Iterable[tuple["LaurentPolynomial", Exponents | None]],
    ) -> "LaurentPolynomial":
        """The sum over the parts (p, shift) of ``p.substitute_monomials(sub)``
        shifted by ``shift`` (none if None), in one pass, over the lcm of the
        nonzero parts' denominators.  The parts are checked in turn, and raise,
        as on that composed path; no parts is a ``ValueError``."""
        parts = tuple(parts)
        if not parts:
            raise ValueError("a sum of substitutions needs at least one part")
        keyed = []
        for p, shift in parts:
            if p._vars != sub.source:
                raise VariableMismatch(f"substitution on {sub.source}, not {p._vars}")
            if shift is not None:
                shift = _check_shift(sub.target, shift)
            keyed.append((p._terms, shift))
        den = lcm(*(p._den for p, _ in parts if p._terms))
        nums = list(chain.from_iterable(
            [n * (den // p._den) for n in p._terms.values()] if p._den < den
            else p._terms.values() for p, _ in parts))
        return _substituted(sub.target, keyed, nums, den, sub)

    def restrict_substituted(
        self, sub: MonomialSubstitution, var: str, shift: Exponents | None = None
    ) -> "LaurentPolynomial":
        """``self.substitute_monomials(sub)``, shifted by ``shift`` if given,
        then ``.restrict_var(var)``, building only the terms the restriction
        keeps.

        The ``var``-exponent column of the image comes first.  An entry
        below 0 raises ``NegativeExponentAtRestriction`` unless the image
        terms of that exponent cancel, as they would in the substitution;
        only the terms whose entry is 0 get image exponent vectors, and
        only a collision among those sums, drops zeros and reduces.  The
        arguments are checked, and errors raised, as on the composed path.
        """
        if self._vars != sub.source:
            raise VariableMismatch(f"substitution on {sub.source}, not {self._vars}")
        new_vars = sub.target
        offset = (0,) * len(new_vars) if shift is None else _check_shift(new_vars, shift)
        i = _position(new_vars, var)
        rest = new_vars[:i] + new_vars[i + 1 :]
        terms = self._terms
        # the var-exponents of the substituted terms; the shift adds its
        # entry to each, so the kept terms read -entry and the poles less
        column: list[int] | None = None
        for j, iv in sub.columns[i]:
            part = [e[j] * iv for e in terms]
            column = part if column is None else list(map(add, column, part))
        if column is None:
            column = [0] * len(terms)
        floor = -offset[i]
        if column and min(column) < floor:
            # poles that collide may cancel, as in the substitution; the
            # first one left is the one restrict_var would meet first
            poles = [e for e, c in zip(terms, column) if c < floor]
            nums = [terms[e] for e in poles]
            left = _substituted(new_vars, ((poles, offset),), nums, 1, sub)
            if left._terms:
                raise _pole(var, next(iter(left._terms))[i])
        kept = list(compress(terms, map(floor.__eq__, column)))
        if not kept:
            return LaurentPolynomial._trusted(rest, {})
        nums = list(map(terms.__getitem__, kept))
        return _substituted(rest, ((kept, offset),), nums, self._den, sub, i)

    # -- equality, hashing, printing ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self._vars, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        d1, d2 = self._den, other._den
        if d1 == d2:
            return self._vars == other._vars and self._terms == other._terms
        if self._vars != other._vars:
            return False
        # neither denominator need be the least: compare n1/d1 with n2/d2
        mine, theirs = self._terms, other._terms
        return mine.keys() == theirs.keys() and all(
            n * d2 == theirs[e] * d1 for e, n in mine.items()
        )

    def __hash__(self) -> int:
        # equal values have equal reduced pairs; a constant hashes like the
        # number it equals, since ``==`` lets it equal that number
        nums, den = _reduced(self._terms, self._den)
        if not any(chain.from_iterable(nums)):
            return hash(_value(sum(nums.values()), den))
        return hash((self._vars, den, frozenset(nums.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps in sorted(self._terms, key=_grlex_key):
            n = self._terms[exps]
            mag = _value(abs(n), self._den)
            if not any(exps):
                body = str(mag)
            elif mag == 1:
                body = monomial_str(self._vars, exps)
            else:
                body = str(mag) + "*" + monomial_str(self._vars, exps)
            if not parts:
                parts.append(("-" if n < 0 else "") + body)
            else:
                parts.append(("- " if n < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._vars!r}, {self!s})"


# The slots' own setters store past the immutability guard of ``_Frozen``, at
# about half the cost of ``_store``.
_set_vars = LaurentPolynomial._vars.__set__
_set_terms = LaurentPolynomial._terms.__set__
_set_den = LaurentPolynomial._den.__set__


def _pair_sum(
    vars_t: tuple[str, ...],
    factors: Iterable[tuple[dict[Exponents, int], dict[Exponents, int], int]],
    den: int,
) -> LaurentPolynomial:
    """The sum over ``factors`` of scale*a*b, for numerator maps a and b on
    ``vars_t`` and int scales, over ``den``: every pair product is summed as
    an int, then one gcd of den and every summed numerator reduces the
    result."""
    out: dict[Exponents, int] = {}
    for left, right, scale in factors:
        right = right.items()
        for e1, n1 in left.items():
            n1 *= scale
            for e2, n2 in right:
                key = tuple(map(add, e1, e2))
                if key in out:
                    out[key] += n1 * n2
                else:
                    out[key] = n1 * n2
    # a sum that cancelled to 0 leaves the gcd as it is
    g = gcd(den, *out.values())
    if g > 1:
        out = {e: n // g for e, n in out.items() if n}
        den //= g
    elif 0 in out.values():
        out = {e: n for e, n in out.items() if n}
    return LaurentPolynomial._trusted(vars_t, out, den)


def _substituted(
    vars_t: tuple[str, ...],
    parts: Iterable[tuple[Collection[Exponents], Exponents | None]],
    nums: Collection[int],
    den: int,
    sub: MonomialSubstitution,
    drop: int | None = None,
) -> LaurentPolynomial:
    """The polynomial on ``vars_t`` with numerator ``nums[t]`` over ``den`` at
    the image of the t-th vector of the parts (exps, offset) in turn: entry k
    sums the entries j times the entries (j, k) of ``sub``, plus ``offset[k]``
    given an offset, and entry ``drop``, if given, is left out (``vars_t``
    lacks it).  A part's images come from the term loop or, above
    ``_COLUMN_TERMS`` terms, the columns (see the module docstring); only
    when two images collide are numerators summed, zeros dropped and the
    denominator reduced."""
    width = len(sub.target)
    keys: list[Exponents] = []
    for exps, offset in parts:
        n = len(exps)
        if n <= _COLUMN_TERMS:
            for e in exps:
                vec = [0] * width if offset is None else list(offset)
                for x, row in zip(e, sub.rows):
                    if x:
                        for k, iv in row:
                            vec[k] += x * iv
                if drop is not None:
                    del vec[drop]
                keys.append(tuple(vec))
        else:
            old = list(zip(*exps))
            columns: list[Sequence[int]] = []
            for k, (entries, off) in enumerate(zip(sub.columns, offset or (0,) * width)):
                if k == drop:
                    continue
                column: Sequence[int] | None = None
                for j, iv in entries:
                    col = old[j] if iv == 1 else [e * iv for e in old[j]]
                    column = col if column is None else list(map(add, column, col))
                if column is None:
                    column = (off,) * n
                elif off:
                    column = [e + off for e in column]
                columns.append(column)
            # no new variables: every vector lands on ()
            keys += zip(*columns) if columns else [()] * n
    out = dict(zip(keys, nums))
    if len(out) < len(keys):
        out = {}
        for key, c in zip(keys, nums):
            out[key] = out.get(key, 0) + c
        out, den = _reduced({e: c for e, c in out.items() if c}, den)
    return LaurentPolynomial._trusted(vars_t, out, den)


# The one token rule of the polynomial syntax and of the family DSL in
# ``monideal``: ASCII names and digits.
_TOKEN = re.compile(
    r"(?P<ratio>[0-9]+/[0-9]+)|(?P<int>[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^(),])"
)


class Tokens:
    """A cursor over the (kind, text, position) tokens of ``src``.

    Kinds are ``int``, ``ratio`` (a/b), ``name`` and ``op``; a last token
    of kind ``end`` with empty text marks the end of input.  ``error`` is
    the parser's exception class, called as ``error(message, pos)`` for an
    unexpected character or end of input.
    """

    def __init__(self, src: str, error: type[Exception]) -> None:
        self.error = error
        self.tokens: list[tuple[str, str, int]] = []
        self.i = 0
        pos = 0
        while pos < len(src):
            if src[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(src, pos)
            if m is None:
                raise error(f"unexpected character {src[pos]!r}", pos)
            self.tokens.append((m.lastgroup or "", m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(src)))

    @property
    def pos(self) -> int:
        """Where the next token starts."""
        return self.peek()[2]

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] == "end":
            raise self.error("unexpected end of input", tok[2])
        self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        """Take the next token if its text is ``text``; report whether it was."""
        if self.peek()[1] != text:
            return False
        self.i += 1
        return True


def parse_polynomial(src: str, variables: Iterable[str]) -> LaurentPolynomial:
    """Parse the textual polynomial syntax over the given variable list."""
    vars_t = tuple(variables)
    toks = Tokens(src, ParseError)
    terms: dict[Exponents, Fraction] = {}

    def parse_factor() -> tuple[Fraction, dict[str, int]]:
        kind, name, pos = toks.take()
        if kind in ("int", "ratio"):
            num, _, den = name.partition("/")
            if den and int(den) == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(int(num), int(den or 1)), {}
        if kind != "name":
            raise ParseError(f"unexpected {name!r}", pos)
        if name not in vars_t:
            raise UnknownVariable(f"{name!r} not among {vars_t} (at position {pos})")
        exp = 1
        if toks.accept("^"):
            sign = -1 if toks.accept("-") else 1
            if toks.peek()[0] != "int":
                raise ParseError("expected an integer exponent", toks.pos)
            exp = sign * int(toks.take()[1])
        return Fraction(1), {name: exp}

    def parse_term() -> tuple[Fraction, Exponents]:
        coeff, acc = parse_factor()
        while toks.accept("*"):
            c2, e2 = parse_factor()
            coeff *= c2
            for v, e in e2.items():
                acc[v] = acc.get(v, 0) + e
        return coeff, tuple(acc.get(v, 0) for v in vars_t)

    sign = -1 if toks.accept("-") else 1
    if sign == 1:
        toks.accept("+")
    while True:
        coeff, exps = parse_term()
        terms[exps] = terms.get(exps, Fraction(0)) + sign * coeff
        kind, text, pos = toks.peek()
        if kind == "end":
            break
        if text not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {text!r}", pos)
        toks.take()
        sign = 1 if text == "+" else -1
    return LaurentPolynomial(vars_t, terms)
