"""Exact sparse multivariate polynomial arithmetic over the rationals.

A Poly couples an ordered tuple of variable names with a mapping from
exponent vectors (one non-negative integer per variable) to nonzero
Fraction coefficients::

    5/2 * x**2 * y   over ("x", "y")   ->   {(2, 1): Fraction(5, 2)}

That mapping, `terms`, is a read-only view.  Inside, a Poly keeps integer
numerators over one positive common denominator, reduced so that the
denominator and all numerators share no factor, and keys each numerator
by its exponent vector packed into one non-negative int::

    {2 << 64 | 1: 5} over 2

Each exponent has a field of `_W` = 64 bits; variable 0 sits in the most
significant field and the last variable in the least, so the constant
monomial is 0.  Exponents are at most MAX_EXPONENT = 2**63 - 1, which
leaves each field's top bit clear: the sum of two legal fields fits in
its field, so adding two keys adds their exponent vectors with no carry,
and a product whose exponent passes MAX_EXPONENT shows as a field's top
bit and raises ValueError.  Comparing two keys compares their first
differing field, which is the lexicographic order of the exponent
tuples, so keys sort exactly as the tuples do.

Arithmetic works on those integers: a term product is one int add and
one int multiply, and no Fraction is normalised per term product; the
tuple-keyed Fraction view is built once, when first read.

The zero polynomial has no terms.  Constructors strip zero coefficients
and keep keys in the order computed; `terms` sorts them.  Equality
compares the dicts and the hash a frozenset of their items, so neither
sees that order.  All arithmetic is exact; nothing here ever rounds.

Variable lists are explicit and ordered.  Mixing polynomials over
different variable lists raises MismatchError, never an implicit union:
silent unification is how pullback bugs hide.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, Union

#: Scalars are exact rationals throughout the package.
Rational = Fraction

RationalLike = Union[Fraction, int]

#: Bits per exponent field of a packed monomial key.
_W = 64
_MASK = (1 << _W) - 1

#: The largest exponent a Poly holds: each field's top bit stays clear.
MAX_EXPONENT = 2 ** (_W - 1) - 1


def _unpack(key: int, count: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key over `count` variables."""
    return tuple([key >> s & _MASK for s in range(_W * (count - 1), -1, -_W)])


def _guard(count: int) -> int:
    """The top bit of each of `count` fields, which is set in a key only
    when one of its exponents passed MAX_EXPONENT."""
    return ((1 << _W * count) - 1) // _MASK << (_W - 1)


def _distinct(variables: Iterable[str]) -> tuple[str, ...]:
    """The variable names as a tuple; a repeated name is rejected."""
    names = tuple(variables)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names: {names!r}")
    return names


class MismatchError(ValueError):
    """Operands disagree about variable lists, charts, or structure constants."""


def as_fraction(value: RationalLike) -> Fraction:
    """An int or Fraction as a Fraction; bools, floats, strings and every
    other type are rejected."""
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is bool or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {value!r}")
    return Fraction(value)


def as_int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    """A tuple of plain ints; bools, floats and other non-integers are rejected."""
    out = tuple(values)
    if all(type(v) is int for v in out):
        return out
    for v in out:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"{what} must be integers, got {v!r} in {out!r}")
    return tuple(int(v) for v in out)


class Poly:
    """A multivariate polynomial in canonical form.

    `variables` is the ordered tuple of variable names; `terms` maps each
    exponent tuple (aligned with `variables`) to its nonzero Fraction
    coefficient.  Every exponent lies in [0, MAX_EXPONENT]; a constructor
    or product that would pass MAX_EXPONENT raises ValueError.
    """

    __slots__ = ("variables", "_nums", "_den", "_terms")

    def __init__(
        self,
        variables: Iterable[str],
        terms: Mapping[tuple[int, ...], RationalLike] | None = None,
    ):
        names = _distinct(variables)
        clean: dict[int, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            c = as_fraction(coeff)
            e = as_int_tuple(exps, "exponents")
            if len(e) != len(names):
                raise ValueError(
                    f"exponent tuple {e!r} does not match variables {names!r}"
                )
            key = 0
            for x in e:
                if not 0 <= x <= MAX_EXPONENT:
                    raise ValueError(
                        f"exponent {x} outside [0, {MAX_EXPONENT}] in {e!r}"
                    )
                key = key << _W | x
            if c:
                clean[key] = c
        den = lcm(*[c.denominator for c in clean.values()])
        self.variables = names
        self._nums = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._den = den
        self._terms = None

    @classmethod
    def _make(
        cls, variables: tuple[str, ...], nums: dict[int, int], den: int = 1
    ) -> Poly:
        """The trusted constructor for results computed from canonical
        operands: takes ownership of `nums`, drops its zeros and reduces the
        common denominator (which must be positive); validates nothing."""
        if not all(nums.values()):
            nums = {e: n for e, n in nums.items() if n}
        if den != 1:
            if not nums:
                den = 1
            else:
                g = gcd(den, *nums.values())
                if g != 1:
                    nums = {e: n // g for e, n in nums.items()}
                    den //= g
        self = object.__new__(cls)
        self.variables = variables
        self._nums = nums
        self._den = den
        self._terms = None
        return self

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only mapping of exponent tuples to nonzero Fractions, sorted."""
        view = self._terms
        if view is None:
            den, count = self._den, len(self.variables)
            view = MappingProxyType(
                {_unpack(key, count): Fraction(n, den) for key, n in sorted(self._nums.items())}
            )
            self._terms = view
        return view

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> Poly:
        return cls(variables)

    @classmethod
    def const(cls, variables: Iterable[str], value: RationalLike) -> Poly:
        names = _distinct(variables)
        c = as_fraction(value)
        return cls._make(names, {0: c.numerator}, c.denominator)

    @classmethod
    def var(cls, variables: Iterable[str], name: str) -> Poly:
        names = tuple(variables)
        if name not in names:
            raise MismatchError(f"unknown variable {name!r} in {names!r}")
        exps = tuple(1 if v == name else 0 for v in names)
        return cls(names, {exps: 1})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        count = len(self.variables)
        return max((sum(_unpack(key, count)) for key in self._nums), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self) -> int:
        return hash((self.variables, self._den, frozenset(self._nums.items())))

    # -- ring operations ---------------------------------------------------

    def _require_same_variables(self, other: Poly) -> None:
        if self.variables != other.variables:
            raise MismatchError(
                f"variable lists differ: {self.variables!r} vs {other.variables!r}"
            )

    def _coerce(self, other: Union[Poly, RationalLike]) -> Poly:
        if isinstance(other, Poly):
            return other
        return Poly.const(self.variables, other)

    def _add(self, other: Union[Poly, RationalLike], sign: int) -> Poly:
        other = self._coerce(other)
        self._require_same_variables(other)
        g = gcd(self._den, other._den)
        sa, sb = other._den // g, self._den // g
        out = {e: n * sa for e, n in self._nums.items()} if sa != 1 else dict(self._nums)
        get = out.get
        sb *= sign
        for e, n in other._nums.items():
            out[e] = get(e, 0) + n * sb
        return Poly._make(self.variables, out, self._den * sa)

    def __add__(self, other: Union[Poly, RationalLike]) -> Poly:
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._make(self.variables, {e: -n for e, n in self._nums.items()}, self._den)

    def __sub__(self, other: Union[Poly, RationalLike]) -> Poly:
        return self._add(other, -1)

    def __rsub__(self, other: RationalLike) -> Poly:
        return self._coerce(other) - self

    def __mul__(self, other: Union[Poly, RationalLike]) -> Poly:
        if not isinstance(other, Poly):
            c = as_fraction(other)
            p = c.numerator
            return Poly._make(
                self.variables,
                {e: n * p for e, n in self._nums.items()},
                self._den * c.denominator,
            )
        self._require_same_variables(other)
        big, small = self._nums, other._nums
        if len(big) < len(small):
            big, small = small, big
        out: dict[int, int] = {}
        get = out.get
        # one row per term of the smaller operand: its key shifts every key
        # of the larger one, its numerator scales every numerator
        for eb, nb in small.items():
            for ea, na in big.items():
                key = ea + eb
                out[key] = get(key, 0) + na * nb
        if reduce(or_, out, 0) & _guard(len(self.variables)):
            raise ValueError(f"a product exponent exceeds MAX_EXPONENT = {MAX_EXPONENT}")
        return Poly._make(self.variables, out, self._den * other._den)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def _shift(self, name: str) -> int:
        """The bit offset of one variable's field in this polynomial's keys."""
        try:
            i = self.variables.index(name)
        except ValueError:
            raise MismatchError(
                f"unknown variable {name!r} in {self.variables!r}"
            ) from None
        return _W * (len(self.variables) - 1 - i)

    def pderiv(self, name: str) -> Poly:
        """Exact partial derivative with respect to one variable."""
        s = self._shift(name)
        one = 1 << s
        out = {}
        for key, n in self._nums.items():
            e = key >> s & _MASK
            if e:
                out[key - one] = n * e
        return Poly._make(self.variables, out, self._den)

    def defint01(self, name: str) -> Poly:
        """Definite integral over name in [0, 1]: t^n * m  ->  m / (n + 1).

        The result no longer depends on `name` but keeps the same variable
        list (the exponent is zero everywhere).
        """
        s = self._shift(name)
        scale = lcm(*{(key >> s & _MASK) + 1 for key in self._nums})
        out: dict[int, int] = {}
        for key, n in self._nums.items():
            e = key >> s & _MASK
            key -= e << s
            out[key] = out.get(key, 0) + n * (scale // (e + 1))
        return Poly._make(self.variables, out, self._den * scale)

    def compose(
        self,
        subst: Mapping[str, Poly],
        variables: Iterable[str] | None = None,
    ) -> Poly:
        """Substitute a polynomial for every variable (exact composition).

        All substituted polynomials must share one variable list, which
        becomes the result's variable list.  For polynomials over an empty
        variable list pass `variables` explicitly to name the target.
        """
        missing = [v for v in self.variables if v not in subst]
        if missing:
            raise MismatchError(f"missing substitution for {missing!r}")
        images = [subst[v] for v in self.variables]
        if variables is not None:
            target = tuple(variables)
        elif images:
            target = images[0].variables
        else:
            raise MismatchError(
                "composition away from an empty variable list needs variables="
            )
        for image in images:
            if image.variables != target:
                raise MismatchError(
                    f"substituted polynomials mix variable lists: "
                    f"{image.variables!r} vs {target!r}"
                )
        return _MonomialTable(images, target).compose(self)

    def set_var(self, name: str, value: RationalLike) -> Poly:
        """Substitute a rational constant for one variable, keeping the list."""
        s = self._shift(name)
        c = as_fraction(value)
        p, q = c.numerator, c.denominator
        top = max((key >> s & _MASK for key in self._nums), default=0)
        out: dict[int, int] = {}
        for key, n in self._nums.items():
            e = key >> s & _MASK
            key -= e << s
            out[key] = out.get(key, 0) + n * p**e * q ** (top - e)
        return Poly._make(self.variables, out, self._den * q**top)

    def drop_var(self, name: str) -> Poly:
        """Remove a variable the polynomial does not actually use."""
        s = self._shift(name)
        if any(key >> s & _MASK for key in self._nums):
            raise MismatchError(f"polynomial still depends on {name!r}")
        i = self.variables.index(name)
        names = self.variables[:i] + self.variables[i + 1 :]
        low = (1 << s) - 1
        out = {key >> _W & ~low | key & low: n for key, n in self._nums.items()}
        return Poly._make(names, out, self._den)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for exps, coeff in self.terms.items():
            factors = [
                v if n == 1 else f"{v}^{n}"
                for v, n in zip(self.variables, exps)
                if n
            ]
            if factors and abs(coeff) == 1:
                parts.append(("-" if coeff < 0 else "") + "*".join(factors))
            else:
                parts.append("*".join([str(coeff)] + factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self.variables!r}, {dict(self.terms)!r})"


class _MonomialTable:
    """Images of monomials under one substitution, built once and shared by
    every polynomial composed through it.

    The image of x^e is the cached image of its longest proper prefix times
    one power of a substituted polynomial; powers are built by squaring and
    cached too, so x^400 takes ten multiplies, not 400.
    """

    def __init__(self, images: Iterable[Poly], target: tuple[str, ...]):
        self.images = tuple(images)
        self.target = target
        self.one = Poly._make(target, {0: 1})
        self.powers = [{1: image} for image in self.images]
        self.prefixes: dict[tuple[int, ...], Poly] = {(): self.one}

    def power(self, i: int, k: int) -> Poly:
        """images[i] ** k for k >= 1."""
        cache = self.powers[i]
        out = cache.get(k)
        if out is None:
            if k % 2:
                out = self.power(i, k - 1) * self.images[i]
            else:
                half = self.power(i, k // 2)
                out = half * half
            cache[k] = out
        return out

    def monomial(self, exps: tuple[int, ...]) -> Poly:
        """The image of the monomial with the given exponents."""
        end = len(exps)
        while end and not exps[end - 1]:
            end -= 1
        key = exps[:end]
        out = self.prefixes.get(key)
        if out is None:
            head = self.monomial(key[:-1])
            out = self.power(end - 1, key[-1])
            if head is not self.one:
                out = head * out
            self.prefixes[key] = out
        return out

    def compose(self, poly: Poly) -> Poly:
        """poly with every variable replaced by its image: the sum of the
        coefficients times the monomial images, over one common denominator."""
        count = len(poly.variables)
        pairs = [(n, self.monomial(_unpack(key, count))) for key, n in poly._nums.items()]
        den = lcm(*(image._den for _, image in pairs))
        out: dict[int, int] = {}
        get = out.get
        for n, image in pairs:
            scale = n * (den // image._den)
            for e, m in image._nums.items():
                out[e] = get(e, 0) + scale * m
        return Poly._make(self.target, out, den * poly._den)
