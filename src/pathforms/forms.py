"""Polynomial-coefficient differential forms on a coordinate chart.

A form is a mapping from strictly increasing tuples of 0-based
coordinate indices to nonzero Poly coefficients over the chart's
coordinates; the empty tuple indexes the function (degree 0) part.
The basis form dx_I is the wedge of coordinate differentials in
increasing index order, and every sign in the algebra is the parity of
the permutation sorting a concatenation of index tuples.

Forms may mix degrees: a general element is a formal sum of homogeneous
pieces, and degree-specific operations act componentwise.  Degrees
outside [0, dim] cannot be represented, matching the vanishing of those
graded slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .polyring import MismatchError, Poly, RationalLike, _MonomialTable
from .signs import SignedMonomials, merge_indices, sort_with_sign


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of distinct coordinate names (dimension may be 0)."""

    coordinates: tuple[str, ...]

    def __post_init__(self):
        coords = tuple(self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        for name in coords:
            if not isinstance(name, str):
                raise TypeError(f"coordinate names must be strings, got {name!r}")
        if len(set(coords)) != len(coords):
            raise ValueError(f"coordinate names must be distinct: {coords!r}")

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def const(self, value: RationalLike) -> Poly:
        return Poly.const(self.coordinates, value)

    def var(self, index: int) -> Poly:
        return Poly.var(self.coordinates, self.coordinates[index])


class OrdinaryForm(SignedMonomials):
    """A differential form with Poly coefficients on a fixed chart: a sum of
    coefficients on the monomials dx_I, whose generators dx_i have degree 1.

    `components` is a read-only mapping from index tuples to nonzero Polys.
    """

    __slots__ = ()

    SYMBOL = "dx"

    def __init__(
        self,
        chart: Chart,
        components: Mapping[tuple[int, ...], Poly] | None = None,
    ):
        super().__init__(chart, len(chart.coordinates), components)

    @property
    def chart(self) -> Chart:
        return self._context

    def _checked(self, poly: Poly) -> Poly:
        if not isinstance(poly, Poly):
            raise TypeError(f"form coefficients must be Polys, got {poly!r}")
        if poly.variables != self._context.coordinates:
            raise MismatchError(
                f"coefficient over {poly.variables!r} does not live on {self.chart!r}"
            )
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, chart: Chart, poly: Poly) -> OrdinaryForm:
        """The 0-form with the given coefficient function."""
        return cls(chart, {(): poly})

    @classmethod
    def basis(
        cls,
        chart: Chart,
        indices: tuple[int, ...],
        coeff: Union[Poly, RationalLike] = 1,
    ) -> OrdinaryForm:
        """coeff * dx_I for a strictly increasing index tuple I."""
        poly = coeff if isinstance(coeff, Poly) else chart.const(coeff)
        return cls(chart, {tuple(indices): poly})

    def unit(self) -> OrdinaryForm:
        """The constant 0-form 1 on this form's chart."""
        return self.from_poly(self.chart, self.chart.const(1))

    # -- algebra ---------------------------------------------------------------

    def scale(self, value: Union[Poly, RationalLike]) -> OrdinaryForm:
        factor = value if isinstance(value, Poly) else self.chart.const(value)
        return self._new({i: p * factor for i, p in self.components.items()})

    def wedge(self, other: OrdinaryForm) -> OrdinaryForm:
        """Exterior product; signs from the merge parity of index tuples."""
        return self._product(other)

    def d(self) -> OrdinaryForm:
        """Exterior differential: f dx_I  ->  sum_j (d_j f) dx_j ^ dx_I."""
        coordinates = self._context.coordinates
        acc: dict[tuple[int, ...], Poly] = {}
        for indices, poly in self.components.items():
            for j, name in enumerate(coordinates):
                df = poly.pderiv(name)
                if df.is_zero:
                    continue
                merged = merge_indices((j,), indices)
                if merged is None:
                    continue
                sign, key = merged
                term = df if sign > 0 else -df
                prev = acc.get(key)
                acc[key] = term if prev is None else prev + term
        return self._new(acc)


def dx(chart: Chart, *indices: int) -> OrdinaryForm:
    """The wedge of coordinate differentials dx_{i1} ^ ... ^ dx_{ip}.

    Indices may come in any order (parity signs applied); a repeated index
    gives the zero form.
    """
    sorted_ = sort_with_sign(tuple(indices))
    if sorted_ is None:
        return OrdinaryForm.zero(chart)
    sign, key = sorted_
    return OrdinaryForm.basis(chart, key, sign)


@dataclass(frozen=True)
class PolyMap:
    """A polynomial map between charts: one source-coordinate Poly per
    target coordinate."""

    source: Chart
    target: Chart
    components: tuple[Poly, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.target.dim:
            raise MismatchError(
                f"expected {self.target.dim} components, got {len(comps)}"
            )
        for poly in comps:
            if poly.variables != self.source.coordinates:
                raise MismatchError(
                    f"component over {poly.variables!r} does not live on "
                    f"{self.source!r}"
                )

    @classmethod
    def identity(cls, chart: Chart) -> PolyMap:
        return cls(chart, chart, tuple(chart.var(i) for i in range(chart.dim)))

    def differentials(self) -> tuple[OrdinaryForm, ...]:
        """The 1-forms d(m_i) on the source chart, one per target coordinate."""
        out = []
        for poly in self.components:
            out.append(OrdinaryForm.from_poly(self.source, poly).d())
        return tuple(out)

    def pullback(self, form: OrdinaryForm) -> OrdinaryForm:
        """f dx_I  ->  (f o m) dm_{i1} ^ ... ^ dm_{ip} on the source chart.

        One table serves the whole call: every monomial image of the
        composition is built once, and every dm_I once, by extending the
        wedge of its prefix.  Each composed coefficient is then multiplied
        once by each component of its dm_I.
        """
        if form.chart != self.target:
            raise MismatchError(
                f"form on {form.chart!r} cannot pull back along a map into "
                f"{self.target!r}"
            )
        table = _MonomialTable(self.components, self.source.coordinates)
        dms = self.differentials()
        wedges = {(): OrdinaryForm.from_poly(self.source, table.one)}
        wedges.update(((i,), dm_i) for i, dm_i in enumerate(dms))

        def dm(indices: tuple[int, ...]) -> OrdinaryForm:
            out = wedges.get(indices)
            if out is None:
                out = dm(indices[:-1]).wedge(dms[indices[-1]])
                wedges[indices] = out
            return out

        acc: dict[tuple[int, ...], Poly] = {}
        for indices, poly in form.components.items():
            minors = [
                (key, minor)
                for key, minor in dm(indices).components.items()
                if self._keeps(key)
            ]
            if not minors:
                continue
            composed = table.compose(poly)
            for key, minor in minors:
                term = composed * minor
                prev = acc.get(key)
                acc[key] = term if prev is None else prev + term
        return OrdinaryForm(self.source, acc)

    def _keeps(self, indices: tuple[int, ...]) -> bool:
        """Whether pullback computes the source component dx_indices: every
        one here; a private subclass that needs only part of the pullback
        drops the rest before the composed coefficients are multiplied."""
        return True
