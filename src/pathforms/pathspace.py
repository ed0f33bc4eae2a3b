"""Path-space forms probed through finite-dimensional families of paths.

A plot is a polynomial family of paths: the polynomial map to the
target from the cylinder [0, 1] x U with coordinates (t, u), U a chart
of parameters u.  A form on path space is represented intensionally as
an expression tree (endpoint pullbacks, first-order t-integrals, wedges,
differentials, sums, scalings) and extensionally by its evaluation
against plots, which is where all identities are checked.

The t-integral works through the unique split of a form on the
(t, u)-chart as dt ^ wdot + wbar with neither piece containing dt, then
integrates the coefficients of wdot over t in [0, 1], each as its
products are summed, so no product over (t, u) is built.  It lowers
degree by 1 and kills functions.  map_I sends an n=1 generalized form of
degree p to

    ev_1^* w_p - ev_0^* w_p + k (-1)^{p+1} integral_0^1 w_{p+1}

and wedge_prime transports the generalized product through map_I, which
is well defined in degrees >= 1 where map_I is injective (k nonzero).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from typing import ClassVar

from .forms import Chart, OrdinaryForm, PolyMap
from .generalized import GeneralizedForm, pair_decode
from .polyring import MismatchError, Poly, _W, _integral_of_products, as_fraction
from .polyring import checked_type
from .record import Record


def _check_endpoint(endpoint: int) -> None:
    """An endpoint is the plain integer 0 or 1."""
    if isinstance(endpoint, bool) or not isinstance(endpoint, int):
        raise TypeError(f"endpoint must be an integer, got {endpoint!r}")
    if endpoint not in (0, 1):
        raise ValueError(f"endpoint must be 0 or 1, got {endpoint!r}")


class Plot(PolyMap):
    """A polynomial family of paths [0,1] -> target, parametrized by a
    domain chart: the map to the target from the cylinder chart
    (time, u_1, ..., u_m), its source, over which the components live."""

    __slots__ = dict(domain="Chart")
    time: ClassVar[str] = "t"

    def __init__(self, target: Chart, domain: Chart, components: tuple[Poly, ...]):
        object.__setattr__(self, "domain", checked_type(domain, Chart, "a plot's domain"))
        super().__init__(Chart((self.time,) + domain.coordinates), target, components)

    def endpoint_map(self, endpoint: int) -> PolyMap:
        """The map U -> target obtained by freezing time at 0 or 1, read
        off the packed keys, where time is the most significant field: at 0
        the keys whose time field is 0 are kept, at 1 the field is folded
        away."""
        _check_endpoint(endpoint)
        names = self.domain.coordinates
        low = (1 << _W * len(names)) - 1  # the fields of u, below time's
        comps = []
        for poly in self.components:
            out: dict[int, int] = {}
            for key, n in poly._nums.items():
                if endpoint or key <= low:
                    out[key & low] = out.get(key & low, 0) + n
            comps.append(Poly._make(names, out, poly._den))
        return PolyMap._trusted(self.domain, self.target, tuple(comps))


def decompose(form: OrdinaryForm, time: str) -> tuple[OrdinaryForm, OrdinaryForm]:
    """Split a form on a chart containing `time` as dt ^ wdot + wbar.

    Both pieces live on the input chart with no dt factor; coefficients
    may still involve the time variable.  The split is exact: wedging
    wdot with dt on the left and adding wbar reconstructs the input.
    """
    if time not in form.chart.coordinates:
        raise MismatchError(f"{time!r} is not a coordinate of {form.chart!r}")
    tindex = form.chart.coordinates.index(time)
    wdot: dict[tuple[int, ...], Poly] = {}
    wbar: dict[tuple[int, ...], Poly] = {}
    for indices, poly in form.components.items():
        if tindex in indices:
            pos = indices.index(tindex)
            rest = indices[:pos] + indices[pos + 1 :]
            wdot[rest] = poly if pos % 2 == 0 else -poly
        else:
            wbar[indices] = poly
    return OrdinaryForm(form.chart, wdot), OrdinaryForm(form.chart, wbar)


def chen_integral(form: OrdinaryForm, plot: Plot) -> OrdinaryForm:
    """Integrate the dt-component of the plot pullback over t in [0,1].

    Sends a (p+1)-form on the target to a p-form on the plot's domain;
    functions go to 0 because their pullback has no dt part.  Only the
    pair lists of the components with a dt factor (time is cylinder
    coordinate 0) are built.  A form off the plot's target is refused by
    the pullback.
    """
    names = plot.domain.coordinates
    # each kept component is dt ^ du_J: no sign
    out: dict[tuple[int, ...], Poly] = {}
    for indices, pairs in plot._pairs(form, lambda key: key[:1] == (0,)).items():
        rest = tuple(i - 1 for i in indices[1:])
        out[rest] = _integral_of_products(names, pairs)
    return OrdinaryForm._trusted(plot.domain, out)


def ev_pullback(endpoint: int, form: OrdinaryForm, plot: Plot) -> OrdinaryForm:
    """Pull a target form back along the endpoint evaluation of the plot."""
    return plot.endpoint_map(endpoint).pullback(form)


# -- expression trees ---------------------------------------------------------


class PathFormExpr(Record):
    """Base class for symbolic path-space forms."""

    __slots__ = ()

    def __init__(self, *values):
        """One value per field, checked against the field's annotation, the
        name serialize.from_doc decodes it by; a tuple field stores a tuple."""
        if len(values) != len(self._fields):
            Record.__init__(self, *values)  # raises its TypeError
        for (name, kind, _), value in zip(self._fields, values):
            if kind == "int":
                _check_endpoint(value)
            elif kind == "Fraction":
                value = as_fraction(value)
            else:
                items = (value,)
                if kind == "tuple[PathFormExpr, ...]":
                    value = items = tuple(value)
                checked = OrdinaryForm if kind == "OrdinaryForm" else PathFormExpr
                for item in items:
                    checked_type(item, checked, f"{type(self).__name__}.{name}")
            object.__setattr__(self, name, value)

    def forms(self) -> Iterator[OrdinaryForm]:
        """Every OrdinaryForm field, in field order, recursing into the
        subexpression fields."""
        for name, _, _ in self._fields:
            value = getattr(self, name)
            if isinstance(value, OrdinaryForm):
                yield value
            elif isinstance(value, PathFormExpr):
                yield from value.forms()
            elif isinstance(value, tuple):
                for child in value:
                    yield from child.forms()


class EvPull(PathFormExpr):
    """Pullback of a target form along the endpoint evaluation (0 or 1)."""

    __slots__ = dict(endpoint="int", form="OrdinaryForm")


class Chen(PathFormExpr):
    """First-order t-integral of a target form; lowers degree by 1."""

    __slots__ = dict(form="OrdinaryForm")


class Wedge(PathFormExpr):
    """Pointwise wedge of two path-space forms (per plot)."""

    __slots__ = dict(left="PathFormExpr", right="PathFormExpr")


class Diff(PathFormExpr):
    """Exterior differential of a path-space form (per plot)."""

    __slots__ = dict(child="PathFormExpr")


class Sum(PathFormExpr):
    """Formal sum; the empty sum is the zero expression."""

    __slots__ = dict(children="tuple[PathFormExpr, ...]")


class Scale(PathFormExpr):
    """Rational multiple of a path-space form."""

    __slots__ = dict(coeff="Fraction", child="PathFormExpr")


def zero_expr() -> PathFormExpr:
    return Sum(())


def eval_pathform(expr: PathFormExpr, plot: Plot) -> OrdinaryForm:
    """Evaluate an expression against a plot, yielding a form on its domain."""
    if isinstance(expr, EvPull):
        return ev_pullback(expr.endpoint, expr.form, plot)
    if isinstance(expr, Chen):
        return chen_integral(expr.form, plot)
    if isinstance(expr, Wedge):
        return eval_pathform(expr.left, plot).wedge(eval_pathform(expr.right, plot))
    if isinstance(expr, Diff):
        return eval_pathform(expr.child, plot).d()
    if isinstance(expr, Sum):
        out = OrdinaryForm._trusted(plot.domain, {})
        for child in expr.children:
            out = out + eval_pathform(child, plot)
        return out
    if isinstance(expr, Scale):
        return eval_pathform(expr.child, plot).scale(expr.coeff)
    raise TypeError(f"not a path-form expression: {expr!r}")


# -- the map from generalized forms to path-space forms -----------------------


def map_I(a: GeneralizedForm) -> PathFormExpr:
    """Send w_p + w_{p+1} z to ev_1^* w_p - ev_0^* w_p + k(-1)^{p+1} Chen(w_{p+1}).

    Requires n = 1; inhomogeneous inputs map degree by degree.  Every
    term vanishes by definition in degrees p < 0.
    """
    if a.params.n != 1:
        raise ValueError(f"path-space transfer requires n=1, got n={a.params.n}")
    k = a.params.constants[0]
    terms: list[PathFormExpr] = []
    for p, part in a.homogeneous_parts().items():
        if p >= 0:
            terms += _transfer_terms(k, p, *pair_decode(part))
    return Sum(tuple(terms))


def _transfer_terms(
    k: Fraction, p: int, w: OrdinaryForm, v: OrdinaryForm
) -> list[PathFormExpr]:
    """The nonzero terms of ev_1^* w - ev_0^* w + k (-1)^{p+1} Chen(v)."""
    terms: list[PathFormExpr] = []
    if not w.is_zero:
        terms.append(EvPull(1, w))
        terms.append(Scale(Fraction(-1), EvPull(0, w)))
    coeff = k * (-1 if p % 2 == 0 else 1)
    if not v.is_zero and coeff != 0:
        terms.append(Scale(coeff, Chen(v)))
    return terms


def _check_transportable(a: GeneralizedForm, b: GeneralizedForm) -> None:
    a._require_same(b)
    if a.params.n != 1:
        raise ValueError(f"transported product requires n=1, got n={a.params.n}")
    if a.params.constants[0] == 0:
        raise ValueError("transported product requires a nonzero k")
    for name, g in (("left", a), ("right", b)):
        deg = g.degree()
        if deg is not None and deg < 1:
            raise ValueError(
                f"{name} factor has degree {deg}; the transported product "
                "needs degree >= 1"
            )


def wedge_prime(a: GeneralizedForm, b: GeneralizedForm) -> PathFormExpr:
    """The product transported through map_I: map_I(a ^ b).

    Defined for homogeneous n=1 inputs of degree >= 1 with k nonzero,
    where map_I is injective so the transport is unambiguous.
    """
    _check_transportable(a, b)
    return map_I(a.wedge(b))


def wedge_prime_explicit(a: GeneralizedForm, b: GeneralizedForm) -> PathFormExpr:
    """The same product written out in endpoint and integral terms:

        ev_1^*(a_p b_q) - ev_0^*(a_p b_q)
            + k (-1)^{p+q+1} Chen(a_p b_{q+1} + (-1)^q a_{p+1} b_q)

    Evaluations of this expression and of wedge_prime agree on every plot.
    """
    _check_transportable(a, b)
    if a.is_zero or b.is_zero:
        return zero_expr()
    k = a.params.constants[0]
    p = a.degree()
    q = b.degree()
    a_p, a_next = pair_decode(a)
    b_q, b_next = pair_decode(b)
    front = a_p.wedge(b_q)
    combo = a_p.wedge(b_next)
    cross = a_next.wedge(b_q)
    combo = combo + (cross if q % 2 == 0 else -cross)
    return Sum(tuple(_transfer_terms(k, p + q, front, combo)))
