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

from typing import Any, Callable, Mapping, Union

from .polyring import MismatchError, Poly, RationalLike, _MonomialTable, _distinct
from .polyring import _sum_of_products, checked_type
from .record import Record
from .signs import SignedMonomials, merge_indices, sort_with_sign


class Chart(Record):
    """An ordered tuple of distinct coordinate names (dimension may be 0)."""

    __slots__ = dict(coordinates="tuple[str, ...]")

    def __init__(self, coordinates: tuple[str, ...]):
        object.__setattr__(self, "coordinates", _distinct(coordinates))

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def const(self, value: RationalLike) -> Poly:
        return Poly.const(self.coordinates, value)

    def var(self, index: int) -> Poly:
        return Poly.var(self.coordinates, self.coordinates[index])

    def own(self, poly: Any, what: str) -> Poly:
        """poly, checked to be a Poly over these coordinates; `what` names it."""
        checked_type(poly, Poly, what)
        if poly.variables != self.coordinates:
            raise MismatchError(f"{what} over {poly.variables!r} does not live on {self!r}")
        return poly


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
        checked_type(chart, Chart, "a form's chart")
        super().__init__(chart, len(chart.coordinates), components)

    @property
    def chart(self) -> Chart:
        return self._context

    def _checked(self, poly: Poly) -> Poly:
        return self._context.own(poly, "a form coefficient")

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

    def wedge(self, other: OrdinaryForm) -> OrdinaryForm:
        """Exterior product; signs from the merge parity of index tuples."""
        return self._product(other)

    def d(self) -> OrdinaryForm:
        """Exterior differential: f dx_I  ->  sum_j (d_j f) dx_j ^ dx_I, the
        shared derivation with every generator's constant zero."""
        return self._differential(self.chart.coordinates, (0,) * self.chart.dim)


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


class PolyMap(Record):
    """A polynomial map between charts: one source-coordinate Poly per
    target coordinate."""

    __slots__ = dict(source="Chart", target="Chart", components="tuple[Poly, ...]")

    def __init__(self, source: Chart, target: Chart, components: tuple[Poly, ...]):
        checked_type(source, Chart, "a map's source")
        dim = checked_type(target, Chart, "a map's target").dim
        comps = tuple(source.own(poly, "a map component") for poly in components)
        if len(comps) != dim:
            raise MismatchError(f"expected {dim} components, got {len(comps)}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", comps)

    @classmethod
    def identity(cls, chart: Chart) -> PolyMap:
        return cls(chart, chart, tuple(chart.var(i) for i in range(chart.dim)))

    def pullback(self, form: OrdinaryForm) -> OrdinaryForm:
        """f dx_I  ->  (f o m) dm_{i1} ^ ... ^ dm_{ip} on the source chart:
        each component is one `_sum_of_products` call over its pairs."""
        names = self.source.coordinates
        terms = self._pairs(form)
        return OrdinaryForm._trusted(
            self.source,
            {key: _sum_of_products(names, pairs) for key, pairs in terms.items()},
        )

    def _pairs(
        self,
        form: OrdinaryForm,
        keeps: Callable[[tuple[int, ...]], bool] = lambda key: True,
    ) -> dict[tuple[int, ...], list[tuple[int, Poly, Poly]]]:
        """The (sign, composed, minor) triples whose products sum to each
        source component du_K of the pullback, for the K that `keeps`
        accepts; no other component's coefficients are composed or
        multiplied.

        One table serves the whole call: every monomial image of the
        composition is built once, and the minors of each dm_I once, from
        those of its prefix: for I = P + (i,), the du_K component of dm_I
        sums +-(the du_J component of dm_P)(d_j m_i) over the J and j that
        merge to K, in one `_sum_of_products` call.
        """
        if form.chart != self.target:
            raise MismatchError(
                f"form on {form.chart!r} cannot pull back along a map into "
                f"{self.target!r}"
            )
        names = self.source.coordinates
        table = _MonomialTable(self.components, names)
        grads = [
            [(j, dmij) for j, name in enumerate(names) if (dmij := m.pderiv(name))]
            for m in self.components
        ]
        minors = {(): {(): table.one}}

        def minors_of(indices: tuple[int, ...]) -> dict[tuple[int, ...], Poly]:
            out = minors.get(indices)
            if out is None:
                terms: dict[tuple[int, ...], list] = {}
                for key, minor in minors_of(indices[:-1]).items():
                    for j, dmij in grads[indices[-1]]:
                        merged = merge_indices(key, (j,))
                        if merged is not None:
                            sign, wider = merged
                            terms.setdefault(wider, []).append((sign, minor, dmij))
                out = {k: _sum_of_products(names, pairs) for k, pairs in terms.items()}
                minors[indices] = out
            return out

        terms: dict[tuple[int, ...], list] = {}
        for indices, poly in form.components.items():
            kept = [
                (key, minor) for key, minor in minors_of(indices).items() if keeps(key)
            ]
            if kept:
                composed = table.compose(poly)
                for key, minor in kept:
                    terms.setdefault(key, []).append((1, composed, minor))
        return terms
