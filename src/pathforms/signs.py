"""Signed exterior monomials: permutation parity and the shared kernel.

Coordinate differentials (degree +1) and the degree -1 generators of the
inverted exterior algebra are all odd, so any two anticommute and every
sign in the package is a permutation parity read off sorted positions:
a product's counts the letters each right letter passes (`bisect`), the
differential's is one generator's sorted position.  Keeping both here
means one set of parity tests guards all of them.

`SignedMonomials` is the part the three algebras share: checked,
read-only storage of coefficients on exterior monomials, degree
bookkeeping, the linear structure, the merge-sign product and the one
differential, which each algebra's `d` calls with its own coordinates
and constants.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from types import MappingProxyType
from typing import Any, Mapping, Optional

from .polyring import MismatchError, Poly, as_fraction, as_int_tuple


def merge_indices(
    left: tuple[int, ...], right: tuple[int, ...]
) -> Optional[tuple[int, tuple[int, ...]]]:
    """(sign, merged) for e_left e_right, with left and right strictly
    increasing: each b in right passes the letters of left above its sorted
    position k, so the sign is the parity of the sum of len(left) - k.
    None when the words share an index (the product vanishes)."""
    inversions = 0
    for b in right:
        k = bisect_left(left, b)
        if k < len(left) and left[k] == b:
            return None
        inversions += len(left) - k
    return (-1 if inversions % 2 else 1), tuple(sorted(left + right))


def sort_with_sign(indices: tuple[int, ...]) -> Optional[tuple[int, tuple[int, ...]]]:
    """(parity, sorted) for an index word, the parity of its inverted pairs;
    None on a repeated index."""
    if len(set(indices)) < len(indices):
        return None
    inversions = sum(a > b for a, b in combinations(indices, 2))
    return (-1 if inversions % 2 else 1), tuple(sorted(indices))


def checked_indices(indices: Any, generators: int) -> tuple[int, ...]:
    """indices as a strictly increasing tuple of ints in [0, generators)."""
    idx = as_int_tuple(indices, "monomial indices")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"index tuple {idx!r} is not strictly increasing")
    if idx and (idx[0] < 0 or idx[-1] >= generators):
        raise ValueError(f"index tuple {idx!r} out of range for {generators} generators")
    return idx


def _store(components: Mapping[tuple[int, ...], Any]) -> Mapping[tuple[int, ...], Any]:
    """The canonical storage, which owns the mapping it is given: nonzero
    coefficients only, in the order given, behind a read-only view."""
    if not all(components.values()):
        components = {i: c for i, c in components.items() if c}
    return MappingProxyType(components)


class SignedMonomials:
    """A sum of coefficients on exterior monomials e_I.

    I is a strictly increasing tuple of generator indices; the empty tuple
    indexes the unit.  The generators are odd and anticommute, and e_I has
    degree `_degree(I)`, by default |I|.  Coefficients
    are ungraded ring elements, so every sign is a permutation parity.

    A subclass fixes the context its values live in, checks coefficients
    (`_checked`) and defines its own `d` as one `_differential` call.
    `components` is a read-only mapping from index tuples to nonzero
    coefficients that iterates in no fixed order; values of one context
    hash consistently with `==`, which ignores that order.
    """

    __slots__ = ("_context", "components")

    SYMBOL = "e"

    def __init__(
        self,
        context: Any,
        generators: int,
        components: Mapping[tuple[int, ...], Any] | None = None,
    ):
        """Check every index tuple against `generators` and every
        coefficient against the context, then store them."""
        self._context = context
        items = (components or {}).items()
        clean = {checked_indices(i, generators): self._checked(c) for i, c in items}
        self.components = _store(clean)

    @classmethod
    def zero(cls, *context: Any):
        """The zero value; takes the constructor's context arguments."""
        return cls(*context)

    @classmethod
    def _trusted(cls, context: Any, components: Mapping[tuple[int, ...], Any]):
        """The trusted constructor for indices and coefficients the checked
        one would accept unchanged: owns the mapping, drops zeros, checks nothing."""
        out = object.__new__(cls)
        out._context = context
        out.components = _store(components)
        return out

    def _new(self, components: Mapping[tuple[int, ...], Any]):
        """A value in this context through the trusted constructor."""
        return self._trusted(self._context, components)

    def __reduce__(self):
        return self._trusted, (self._context, dict(self.components))

    # -- predicates and degree bookkeeping -----------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self) -> bool:
        return bool(self.components)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self._context is other._context or self._context == other._context
        ) and self.components == other.components

    def __hash__(self) -> int:
        return hash((self._context, frozenset(self.components.items())))

    def _degree(self, indices: tuple[int, ...]) -> int:
        """The degree of the monomial e_indices."""
        return len(indices)

    def degrees(self) -> set[int]:
        """The set of degrees with a nonzero term."""
        return {self._degree(indices) for indices in self.components}

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous value; None for zero, error when mixed."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError(f"element mixes degrees {sorted(degs)}")
        return degs.pop() if degs else None

    def is_homogeneous(self) -> bool:
        """Zero counts as homogeneous."""
        return len(self.degrees()) < 2

    def part(self, degree: int):
        """The homogeneous piece of the given degree (zero when absent)."""
        return self._new(
            {i: c for i, c in self.components.items() if self._degree(i) == degree}
        )

    def homogeneous_parts(self) -> dict:
        """Degree -> nonzero homogeneous piece, in increasing degree."""
        return {p: self.part(p) for p in sorted(self.degrees())}

    # -- linear structure ----------------------------------------------------

    def _require_same(self, other: SignedMonomials) -> None:
        if type(other) is not type(self):
            raise MismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self._context is not other._context and self._context != other._context:
            raise MismatchError(
                f"operands differ: {self._context!r} vs {other._context!r}"
            )

    def __add__(self, other: SignedMonomials):
        self._require_same(other)
        out = dict(self.components)
        for indices, coeff in other.components.items():
            prev = out.get(indices)
            out[indices] = coeff if prev is None else prev + coeff
        return self._new(out)

    def __neg__(self):
        return self._new({i: -c for i, c in self.components.items()})

    def __sub__(self, other: SignedMonomials):
        return self + (-other)

    def scale(self, value: Any):
        """Every coefficient times value: a coefficient or a rational, checked
        up front so that zero refuses the factors every other value does."""
        value = self._checked(value) if isinstance(value, Poly) else as_fraction(value)
        return self._new({i: c * value for i, c in self.components.items()})

    # -- products ------------------------------------------------------------

    def _product(self, other: SignedMonomials):
        """sum over I, J of (a_I e_I)(b_J e_J) = +-(a_I b_J) e_{I u J}."""
        self._require_same(other)
        acc: dict[tuple[int, ...], Any] = {}
        for left, a in self.components.items():
            for right, b in other.components.items():
                merged = merge_indices(left, right)
                if merged is None:
                    continue
                sign, key = merged
                term = a * b
                if sign < 0:
                    term = -term
                prev = acc.get(key)
                acc[key] = term if prev is None else prev + term
        return self._new(acc)

    def _differential(self, coordinates: tuple[str, ...], constants: tuple):
        """The odd derivation that sends a coefficient c to the sum over j
        of (d c / d coordinates[j]) e_j, and generator e_i to constants[i]:

            c e_I  ->  sum_j (d_j c) e_j e_I
                       + sum_pos (-1)^pos k_{i_pos} c e_{I minus i_pos}

        where e_j e_I is (-1)^pos e_{I with j at pos} for j's sorted
        position pos in I, or zero when j is in I.  Zero constants drop out."""
        acc: dict[tuple[int, ...], Any] = {}
        for indices, coeff in self.components.items():
            for j, name in enumerate(coordinates):
                if j in indices or not (df := coeff.pderiv(name)):
                    continue
                pos = bisect_left(indices, j)
                term = df if pos % 2 == 0 else -df
                key = indices[:pos] + (j,) + indices[pos:]
                prev = acc.get(key)
                acc[key] = term if prev is None else prev + term
            for pos, i in enumerate(indices):
                k = constants[i]
                if not k:
                    continue
                term = k * coeff
                if pos % 2:
                    term = -term
                key = indices[:pos] + indices[pos + 1 :]
                prev = acc.get(key)
                acc[key] = term if prev is None else prev + term
        return self._new(acc)

    def _shown(self) -> dict[tuple[int, ...], str]:
        """Each monomial's coefficient as the repr writes it."""
        return {i: f"({c})" for i, c in self.components.items()}

    def __repr__(self) -> str:
        parts = []
        for indices, text in sorted(self._shown().items(), key=lambda i: (len(i[0]), i[0])):
            parts.append(f"{text}*{self.SYMBOL}{list(indices)}" if indices else text)
        return f"{type(self).__name__}({' + '.join(parts) or 0})"
