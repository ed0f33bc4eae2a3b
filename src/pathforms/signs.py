"""Signed exterior monomials: permutation parity and the shared kernel.

Coordinate differentials and the degree -1 generators of the inverted
exterior algebra both anticommute, so a single signed-merge routine
serves every product in the package.  Keeping one code path for signs
means one set of parity tests guards all of them.

`SignedMonomials` is the part the three algebras share: checked,
read-only storage of coefficients on exterior monomials, degree
bookkeeping, the linear structure, the merge-sign product and the
contraction by constants that the negative-degree differential uses.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, Optional

from .polyring import MismatchError, as_int_tuple


def merge_indices(
    left: tuple[int, ...], right: tuple[int, ...]
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Merge two strictly increasing tuples, tracking sort parity.

    Returns (sign, merged) where sign is the parity of the permutation
    that sorts the concatenation left + right, or None when the tuples
    share an index (the corresponding product vanishes).
    """
    i, j = 0, 0
    inversions = 0
    merged: list[int] = []
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over every remaining element of `left`
            merged.append(b)
            j += 1
            inversions += len(left) - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    sign = -1 if inversions % 2 else 1
    return sign, tuple(merged)


def sort_with_sign(indices: tuple[int, ...]) -> Optional[tuple[int, tuple[int, ...]]]:
    """Sort an index tuple, returning (parity, sorted) or None on repeats."""
    sign = 1
    out: tuple[int, ...] = ()
    for idx in indices:
        merged = merge_indices(out, (idx,))
        if merged is None:
            return None
        step, out = merged
        sign *= step
    return sign, out


def checked_indices(indices: Any, generators: int) -> tuple[int, ...]:
    """indices as a strictly increasing tuple of ints in [0, generators)."""
    idx = as_int_tuple(indices, "monomial indices")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"index tuple {idx!r} is not strictly increasing")
    if idx and (idx[0] < 0 or idx[-1] >= generators):
        raise ValueError(
            f"index tuple {idx!r} out of range for {generators} generators"
        )
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
    indexes the unit.  The generators anticommute, and each has degree
    GENERATOR_DEGREE.  A coefficient that is itself a SignedMonomials adds
    its own degrees.  Every sign comes from merge_indices.

    A subclass fixes the context its values live in, checks coefficients
    (`_checked`), multiplies them (`_times`) and defines its own `d`.
    `components` is a read-only mapping from index tuples to nonzero
    coefficients that iterates in no fixed order; values of one context
    hash consistently with `==`, which ignores that order.
    """

    __slots__ = ("_context", "components")

    GENERATOR_DEGREE = 1
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

    def degrees(self) -> set[int]:
        """The set of degrees with a nonzero term."""
        out: set[int] = set()
        for indices, coeff in self.components.items():
            own = self.GENERATOR_DEGREE * len(indices)
            if isinstance(coeff, SignedMonomials):
                out.update(own + p for p in coeff.degrees())
            else:
                out.add(own)
        return out

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous value; None for zero, error when mixed."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError(f"element mixes degrees {sorted(degs)}")
        return degs.pop() if degs else None

    def is_homogeneous(self, degree: Optional[int] = None) -> bool:
        """Zero counts as homogeneous of every degree."""
        degs = self.degrees()
        return len(degs) < 2 and (degree is None or degs <= {degree})

    def part(self, degree: int):
        """The homogeneous piece of the given degree (zero when absent)."""
        out = {}
        for indices, coeff in self.components.items():
            rest = degree - self.GENERATOR_DEGREE * len(indices)
            if isinstance(coeff, SignedMonomials):
                out[indices] = coeff.part(rest)
            elif rest == 0:
                out[indices] = coeff
        return self._new(out)

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

    # -- products ------------------------------------------------------------

    def _times(self, odd: bool, a: Any, b: Any) -> Any:
        """The coefficient of (a e_I)(b e_J) before the merge sign, where
        `odd` says whether b moves past an odd number of generators (|I|
        odd).  Ungraded coefficients just multiply."""
        return a * b

    def _product(self, other: SignedMonomials):
        """sum over I, J of (a_I e_I)(b_J e_J) = +-(a_I b_J) e_{I u J}."""
        self._require_same(other)
        times = self._times
        acc: dict[tuple[int, ...], Any] = {}
        for left, a in self.components.items():
            odd = len(left) % 2 == 1
            for right, b in other.components.items():
                merged = merge_indices(left, right)
                if merged is None:
                    continue
                sign, key = merged
                term = times(odd, a, b)
                if sign < 0:
                    term = -term
                prev = acc.get(key)
                acc[key] = term if prev is None else prev + term
        return self._new(acc)

    def _contract(self, constants: tuple, acc: dict):
        """acc plus the image of this value under the odd derivation that
        sends generator e_i to the constant coefficient constants[i]:

            c e_I  ->  sum_j (-1)^j k_{i_j} c e_{I minus i_j}

        with j the position of i_j in I.  The derivation moves past c, so
        k and c multiply through `_times` as an odd crossing."""
        times = self._times
        for indices, coeff in self.components.items():
            for j, i in enumerate(indices):
                k = constants[i]
                if not k:
                    continue
                term = times(True, k, coeff)
                if j % 2:
                    term = -term
                key = indices[:j] + indices[j + 1 :]
                prev = acc.get(key)
                acc[key] = term if prev is None else prev + term
        return self._new(acc)

    def __repr__(self) -> str:
        parts = []
        for indices, coeff in sorted(self.components.items(), key=lambda i: (len(i[0]), i[0])):
            text = repr(coeff) if isinstance(coeff, SignedMonomials) else f"({coeff})"
            parts.append(f"{text}*{self.SYMBOL}{list(indices)}" if indices else text)
        return f"{type(self).__name__}({' + '.join(parts) or 0})"
