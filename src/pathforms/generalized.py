"""Generalized differential forms: the graded tensor product of the
ordinary form complex on a chart with the negative-degree exterior
algebra on generators z_0, ..., z_{n-1}.

An element is a sum of a_S x z_S with a_S an OrdinaryForm and S a
strictly increasing index tuple; the total degree of a homogeneous
component is (ordinary degree of a_S) - |S|, so degrees run from -n up
to the chart dimension.  Products and the differential follow the
standard super sign rules for a tensor product of graded algebras:

    (a x z_S)(b x z_T) = (-1)^{|S| q} (a ^ b) x (z_S z_T)   for b of degree q
    d(a x z_S) = (da) x z_S + (-1)^{deg a} a x d(z_S)

Every dx_i and z_j is odd, so a value is stored as Polys on the words
dx_I z_S, z_j being generator N + j on an N-dimensional chart, and both
signs above are merge parities of such words; `forms()` nests them.

For n = 1 an element of degree p is the pair (a_p, a_{p+1}) with
a_p + a_{p+1} z; pair_encode / pair_decode move between the two views.
"""

from __future__ import annotations

from bisect import bisect_left
from types import MappingProxyType
from typing import Mapping

from .forms import Chart, OrdinaryForm
from .koszul import KoszulElement, KoszulParams
from .polyring import MismatchError, Poly, RationalLike, checked_type
from .signs import SignedMonomials, _store, checked_indices, sort_with_sign


class GeneralizedForm(SignedMonomials):
    """A sum of ordinary forms tensored with z-monomials, whose generators
    z_j have degree -1: Polys keyed by I, then S shifted by the chart dimension."""

    __slots__ = ()

    SYMBOL = "z"

    def __init__(
        self,
        chart: Chart,
        params: KoszulParams,
        forms: Mapping[tuple[int, ...], OrdinaryForm] | None = None,
    ):
        checked_type(chart, Chart, "a generalized form's chart")
        checked_type(params, KoszulParams, "Koszul parameters")
        flat = {}
        for zetas, form in (forms or {}).items():
            shifted = tuple(chart.dim + j for j in checked_indices(zetas, params.n))
            if checked_type(form, OrdinaryForm, "a z-monomial's form").chart != chart:
                raise MismatchError(
                    f"component on {form.chart!r} does not live on {chart!r}"
                )
            flat.update((i + shifted, poly) for i, poly in form.components.items())
        self._context = (chart, params)
        self.components = _store(flat)

    @property
    def chart(self) -> Chart:
        return self._context[0]

    @property
    def params(self) -> KoszulParams:
        return self._context[1]

    def _degree(self, indices: tuple[int, ...]) -> int:
        """The number of dx in the word minus the number of z."""
        return 2 * bisect_left(indices, self._context[0].dim) - len(indices)

    def _checked(self, poly: Poly) -> Poly:
        return self._context[0].own(poly, "a form coefficient")

    def forms(self) -> Mapping[tuple[int, ...], OrdinaryForm]:
        """The read-only nested view S -> a_S, nonzero forms only."""
        dim = self.chart.dim
        nested: dict[tuple[int, ...], dict] = {}
        for indices, poly in self.components.items():
            cut = bisect_left(indices, dim)
            zetas = tuple(j - dim for j in indices[cut:])
            nested.setdefault(zetas, {})[indices[:cut]] = poly
        return MappingProxyType(
            {zetas: OrdinaryForm._trusted(self.chart, c) for zetas, c in nested.items()}
        )

    def _shown(self) -> dict[tuple[int, ...], str]:
        return {zetas: repr(form) for zetas, form in self.forms().items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, chart: Chart, params: KoszulParams) -> GeneralizedForm:
        return cls.from_form(OrdinaryForm.from_poly(chart, chart.const(1)), params)

    def unit(self) -> GeneralizedForm:
        """The unit `one` of this element's algebra (same chart and parameters)."""
        return self.one(self.chart, self.params)

    @classmethod
    def from_form(cls, form: OrdinaryForm, params: KoszulParams) -> GeneralizedForm:
        """Embed an ordinary form as the component with empty z-monomial."""
        return cls(form.chart, params, {(): form})

    @classmethod
    def zeta(
        cls, chart: Chart, params: KoszulParams, *indices: int
    ) -> GeneralizedForm:
        """The monomial 1 x z_{i1}...z_{ip}; zero on a repeated index."""
        sorted_ = sort_with_sign(tuple(indices))
        if sorted_ is None:
            return cls.zero(chart, params)
        sign, key = sorted_
        return cls.from_koszul(chart, KoszulElement(params, {key: sign}))

    @classmethod
    def from_koszul(
        cls, chart: Chart, element: KoszulElement
    ) -> GeneralizedForm:
        """Embed a Koszul element with constant ordinary parts."""
        comps = {
            indices: OrdinaryForm.from_poly(chart, chart.const(coeff))
            for indices, coeff in element.terms.items()
        }
        return cls(chart, element.params, comps)

    # -- graded algebra ------------------------------------------------------

    def wedge(self, other: GeneralizedForm) -> GeneralizedForm:
        """Product with the tensor sign (-1)^{|S| q} against the ordinary
        degree-q part of the right factor: the parity of moving dx_J past z_S."""
        return self._product(other)

    def d(self) -> GeneralizedForm:
        """The degree +1 differential of the tensor product complex, the
        shared derivation on the words dx_I z_S with constant 0 on each dx_i:
        the ordinary d on the coefficients, plus the Koszul contraction, whose
        sign (-1)^{deg a} is the parity of z_j's position after dx_I."""
        chart, params = self._context
        return self._differential(chart.coordinates, (0,) * chart.dim + params.constants)


def pair_encode(
    a_p: OrdinaryForm, a_next: OrdinaryForm, k: RationalLike
) -> GeneralizedForm:
    """Build the n=1 element a_p + a_next*z from a pair of ordinary forms.

    The inputs must be homogeneous with deg a_next = deg a_p + 1 when both
    are nonzero (a zero member puts no constraint): exactly when the
    element built is homogeneous.
    """
    out = GeneralizedForm(a_p.chart, KoszulParams((k,)), {(): a_p, (0,): a_next})
    if not out.is_homogeneous():
        raise ValueError(
            f"pair degrees {a_p.degree()} and {a_next.degree()} are not consecutive"
        )
    return out


def pair_decode(a: GeneralizedForm) -> tuple[OrdinaryForm, OrdinaryForm]:
    """Split a homogeneous n=1 element into its pair of ordinary forms."""
    if a.params.n != 1:
        raise ValueError(f"pair form requires n=1, got n={a.params.n}")
    a.degree()  # raises on mixed degrees
    split = a.forms()
    empty = OrdinaryForm._trusted(a.chart, {})
    return split.get((), empty), split.get((0,), empty)
