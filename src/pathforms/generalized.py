"""Generalized differential forms: the graded tensor product of the
ordinary form complex on a chart with the negative-degree exterior
algebra on generators z_0, ..., z_{n-1}.

An element is a sum of components a_S x z_S with a_S an OrdinaryForm and
S a strictly increasing index tuple; the total degree of a homogeneous
component is (ordinary degree of a_S) - |S|, so degrees run from -n up
to the chart dimension.  Products and the differential follow the
standard super sign rules for a tensor product of graded algebras:

    (a x z_S)(b x z_T) = (-1)^{|S| q} (a ^ b) x (z_S z_T)   for b of degree q
    d(a x z_S) = (da) x z_S + (-1)^{deg a} a x d(z_S)

For n = 1 an element of degree p is the pair (a_p, a_{p+1}) with
a_p + a_{p+1} z; pair_encode / pair_decode move between the two views.
"""

from __future__ import annotations

from typing import Mapping, Union

from .forms import Chart, OrdinaryForm
from .koszul import KoszulElement, KoszulParams
from .polyring import MismatchError, Poly, RationalLike
from .signs import SignedMonomials, checked_indices, sort_with_sign


def _odd_negated(form: OrdinaryForm) -> OrdinaryForm:
    """(-1)^p times the degree-p part of a form, summed over p."""
    return form._new({i: -f if len(i) % 2 else f for i, f in form.components.items()})


class GeneralizedForm(SignedMonomials):
    """A sum of ordinary forms tensored with z-monomials: ordinary-form
    coefficients on the monomials z_S, whose generators z_i have degree -1."""

    __slots__ = ()

    GENERATOR_DEGREE = -1
    SYMBOL = "z"

    def __init__(
        self,
        chart: Chart,
        params: KoszulParams,
        components: Mapping[tuple[int, ...], OrdinaryForm] | None = None,
    ):
        super().__init__((chart, params), params.n, components)

    @property
    def chart(self) -> Chart:
        return self._context[0]

    @property
    def params(self) -> KoszulParams:
        return self._context[1]

    def _checked(self, form: OrdinaryForm) -> OrdinaryForm:
        if not isinstance(form, OrdinaryForm):
            raise TypeError(f"components must be OrdinaryForms, got {form!r}")
        if form._context != self._context[0]:
            raise MismatchError(
                f"component on {form.chart!r} does not live on {self.chart!r}"
            )
        return form

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
        form = OrdinaryForm.from_poly(chart, chart.const(sign))
        return cls(chart, params, {key: form})

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

    def component(self, indices: tuple[int, ...]) -> OrdinaryForm:
        """The ordinary form paired with z_indices (zero when absent)."""
        key = checked_indices(indices, self.params.n)
        return self.components.get(key) or OrdinaryForm._trusted(self.chart, {})

    # -- graded algebra ------------------------------------------------------

    def scale(self, value: Union[Poly, RationalLike]) -> GeneralizedForm:
        return self._new({i: f.scale(value) for i, f in self.components.items()})

    def _times(self, odd: bool, a: OrdinaryForm, b: OrdinaryForm) -> OrdinaryForm:
        """The tensor sign (-1)^{|S| q} against the degree-q part of b: with
        |S| odd, the odd-degree parts of b change sign."""
        return a.wedge(_odd_negated(b) if odd else b)

    def wedge(self, other: GeneralizedForm) -> GeneralizedForm:
        """Product with the tensor sign (-1)^{|S| q} against the ordinary
        degree-q part of the right factor."""
        return self._product(other)

    def d(self) -> GeneralizedForm:
        """The degree +1 differential of the tensor product complex: the
        ordinary d on each component, plus the Koszul contraction, whose
        constants pass each component a with the sign (-1)^{deg a}."""
        chart = self.chart
        constants = tuple(
            OrdinaryForm._trusted(chart, {(): chart.const(k)})
            for k in self.params.constants
        )
        return self._contract(
            constants, {i: f.d() for i, f in self.components.items()}
        )


def pair_encode(
    a_p: OrdinaryForm, a_next: OrdinaryForm, k: RationalLike
) -> GeneralizedForm:
    """Build the n=1 element a_p + a_next*z from a pair of ordinary forms.

    The inputs must be homogeneous with deg a_next = deg a_p + 1 when both
    are nonzero (a zero member puts no constraint).
    """
    params = KoszulParams((k,))
    out = GeneralizedForm(a_p.chart, params, {(): a_p, (0,): a_next})
    dp = a_p.degree()
    dn = a_next.degree()
    if dp is not None and dn is not None and dn != dp + 1:
        raise ValueError(
            f"pair degrees {dp} and {dn} are not consecutive"
        )
    return out


def pair_decode(a: GeneralizedForm) -> tuple[OrdinaryForm, OrdinaryForm]:
    """Split a homogeneous n=1 element into its pair of ordinary forms."""
    if a.params.n != 1:
        raise ValueError(f"pair form requires n=1, got n={a.params.n}")
    if not a.is_homogeneous():
        raise ValueError(f"element mixes degrees {sorted(a.degrees())}")
    return a.component(()), a.component((0,))
