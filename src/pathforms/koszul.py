"""Exterior algebra on n odd generators with a constant-coefficient
differential.

Generators z_0, ..., z_{n-1} each sit in degree -1, so the monomial z_S
for a subset S has degree -|S| and the algebra is concentrated in
degrees -n through 0.  The differential sends z_i to the constant k_i
and extends as a degree +1 superderivation:

    d(z_S) = sum_j (-1)^j k_{i_j} z_{S minus i_j}

with j the 0-based position of i_j in the increasing ordering of S.
d^2 = 0 because each k_i is a scalar.

Elements are mappings from strictly increasing index tuples to nonzero
rational coefficients; the empty tuple indexes the scalar part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .polyring import RationalLike, as_fraction
from .signs import SignedMonomials


@dataclass(frozen=True)
class KoszulParams:
    """Generator count and the constants k_i the differential maps them to.

    Zero constants are legal here; operations whose correctness needs an
    invertible k enforce that themselves.
    """

    constants: tuple[Fraction, ...]

    def __post_init__(self):
        consts = tuple(as_fraction(c) for c in self.constants)
        object.__setattr__(self, "constants", consts)

    @property
    def n(self) -> int:
        return len(self.constants)


class KoszulElement(SignedMonomials):
    """An element of the Koszul algebra for fixed parameters: a sum of
    rational coefficients on the monomials z_S, whose generators z_i have
    degree -1."""

    __slots__ = ()

    GENERATOR_DEGREE = -1
    SYMBOL = "z"

    def __init__(
        self,
        params: KoszulParams,
        terms: Mapping[tuple[int, ...], RationalLike] | None = None,
    ):
        super().__init__(params, params.n, terms)

    @property
    def params(self) -> KoszulParams:
        return self._context

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """The read-only mapping from index tuples to nonzero Fractions."""
        return self.components

    def _checked(self, coeff: RationalLike) -> Fraction:
        return as_fraction(coeff)

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, params: KoszulParams, value: RationalLike) -> KoszulElement:
        return cls(params, {(): value})

    @classmethod
    def generator(cls, params: KoszulParams, index: int) -> KoszulElement:
        return cls(params, {(index,): 1})

    def unit(self) -> KoszulElement:
        """The scalar 1 with this element's parameters."""
        return self.scalar(self.params, 1)

    # -- algebra -------------------------------------------------------------

    def scale(self, value: RationalLike) -> KoszulElement:
        factor = as_fraction(value)
        return self._new({i: c * factor for i, c in self.components.items()})

    def mul(self, other: KoszulElement) -> KoszulElement:
        """Exterior product; signs from the merge parity of index tuples."""
        return self._product(other)

    def d(self) -> KoszulElement:
        """The degree +1 differential determined by d(z_i) = k_i."""
        return self._contract(self.params.constants, {})
