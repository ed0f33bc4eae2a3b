"""Independent oracles for the polynomial kernel and the pullback table.

`Poly` arithmetic, `compose`, `pderiv`, `defint01`, the tests' own
`set_var`, `drop_var` and `total_degree`, and the t-integral of a sum of
products are compared with sympy's sparse `ring(QQ)` and `integrate`
(sympy is a test-only oracle, skipped when it is not installed).  Sums,
differences, derivatives, integrals and dropped variables are also
checked with exponents near MAX_EXPONENT, where a packed key's fields sit
next to their top bit, so a carry between fields or a misordered key
would show.
`PolyMap.pullback` and `chen_integral` are compared with the textbook
definition written out below: compose each coefficient term by term with
repeated multiplication, then wedge by each dm_i in turn.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poly_oracles import drop_var, set_var, total_degree
from pathforms.forms import Chart, OrdinaryForm
from pathforms.pathspace import Plot, chen_integral, decompose, ev_pullback
from pathforms.polyring import MAX_EXPONENT, Poly, _integral_of_products
from pathforms.serialize import default_target_chart
from pathforms.verify import GenConfig, _rng, rand_form_mixed, rand_plot

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

XY = ("x", "y")
R, RX, RY = ring("x,y", QQ)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(lambda t: Poly(XY, t))
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs, max_size=3
).map(lambda t: Poly(XY, t))
# exponents small or within 3 of MAX_EXPONENT: too large to multiply, or to
# raise a constant to, but fine for sums, derivatives and integrals
NEAR_MAX = MAX_EXPONENT - 3
wide = st.one_of(st.integers(0, 4), st.integers(NEAR_MAX, MAX_EXPONENT))
wide_polys = st.dictionaries(st.tuples(wide, wide), coeffs, max_size=6).map(lambda t: Poly(XY, t))


def to_ring(p: Poly):
    return R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()})


def from_ring(f) -> Poly:
    return Poly(XY, {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in f.items()})


@given(polys, polys)
def test_ring_operations_match_sympy(a, b):
    fa, fb = to_ring(a), to_ring(b)
    assert a * b == from_ring(fa * fb)
    assert a + b == from_ring(fa + fb)
    assert a - b == from_ring(fa - fb)
    assert -a == from_ring(-fa)
    assert a * Fraction(-3, 4) == from_ring(fa * QQ(-3, 4))


@given(polys)
def test_terms_round_trip_through_sympy(a):
    assert from_ring(to_ring(a)) == a
    assert dict(a.terms) == {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in to_ring(a).items()}


@settings(max_examples=50)
@given(polys, small_polys, small_polys)
def test_compose_matches_sympy(a, g, h):
    expected = to_ring(a).compose([(RX, to_ring(g)), (RY, to_ring(h))])
    assert a.compose({"x": g, "y": h}) == from_ring(expected)


@given(polys)
def test_pderiv_matches_sympy(a):
    assert a.pderiv("x") == from_ring(to_ring(a).diff(RX))
    assert a.pderiv("y") == from_ring(to_ring(a).diff(RY))


@settings(max_examples=50)
@given(polys)
def test_defint01_matches_sympy(a):
    x = sympy.Symbol("x")
    expected = sympy.integrate(to_ring(a).as_expr(), (x, 0, 1))
    assert a.defint01("x") == from_ring(R(expected))


@settings(max_examples=25)
@given(st.lists(st.tuples(st.sampled_from([1, -1]), polys, polys), max_size=3))
def test_integral_of_products_matches_sympy(pairs):
    # x is the variable integrated over [0, 1], y the one that stays
    x, y = sympy.symbols("x y")
    product = sum(
        (sign * (to_ring(a) * to_ring(b)).as_expr() for sign, a, b in pairs), sympy.Integer(0)
    )
    expected = sympy.Poly(sympy.integrate(product, (x, 0, 1)), y, domain=QQ).terms()
    assert _integral_of_products(("y",), pairs) == Poly(
        ("y",), {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in expected}
    )


@given(wide_polys, wide_polys)
def test_sums_near_the_exponent_limit_match_sympy(a, b):
    fa, fb = to_ring(a), to_ring(b)
    assert a + b == from_ring(fa + fb)
    assert a - b == from_ring(fa - fb)
    assert dict((a + b).terms) == {
        e: Fraction(int(c.numerator), int(c.denominator)) for e, c in (fa + fb).items()
    }


@given(wide_polys)
def test_pderiv_near_the_exponent_limit_matches_sympy(a):
    assert a.pderiv("x") == from_ring(to_ring(a).diff(RX))
    assert a.pderiv("y") == from_ring(to_ring(a).diff(RY))


@settings(max_examples=30, deadline=None)
@given(wide_polys)
def test_defint01_near_the_exponent_limit_matches_sympy(a):
    # sympy integrates x**n for a symbolic integer n >= 0; each exponent
    # near the limit is written NEAR_MAX + k and n set to NEAR_MAX after
    x, y = sympy.symbols("x y")
    n = sympy.Symbol("n", integer=True, nonnegative=True)
    symbolic = sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * x ** (n + ex - NEAR_MAX if ex >= NEAR_MAX else ex)
            * y ** (n + ey - NEAR_MAX if ey >= NEAR_MAX else ey)
            for (ex, ey), c in a.terms.items()
        ),
        sympy.Integer(0),
    )
    expected = sympy.integrate(symbolic, (x, 0, 1)).subs(n, NEAR_MAX)
    assert a.defint01("x") == from_ring(R(expected))


@given(polys, coeffs)
def test_set_var_matches_sympy(a, c):
    value = QQ(c.numerator, c.denominator)
    assert set_var(a, "x", c) == from_ring(to_ring(a).subs(RX, value))
    assert set_var(a, "y", c) == from_ring(to_ring(a).subs(RY, value))


@given(st.dictionaries(st.tuples(wide), coeffs, max_size=6))
def test_drop_var_matches_sympy(terms):
    # a polynomial in one variable over (x, y), then over that variable alone
    for gone, generator, place in (("y", RY, lambda e: (e, 0)), ("x", RX, lambda e: (0, e))):
        a = Poly(XY, {place(e): c for (e,), c in terms.items()})
        dropped = drop_var(a, gone)
        assert dropped.variables == tuple(v for v in XY if v != gone)
        assert dict(dropped.terms) == {
            e: Fraction(int(c.numerator), int(c.denominator))
            for e, c in to_ring(a).drop(generator).items()
        }


GRLEX = ring("x,y", QQ, order="grlex")[0]


@given(st.one_of(polys, wide_polys))
def test_total_degree_matches_sympy(a):
    # the leading monomial in graded order has the largest total degree;
    # sympy's zero polynomial leads with (0, 0), and Poly's degree is 0 too
    assert total_degree(a) == sum(GRLEX.from_dict(dict(to_ring(a))).LM)


# -- pullback and the Chen integral against the wedge-by-each-dm_i definition --


def compose_term_by_term(poly: Poly, images: tuple[Poly, ...], target: tuple[str, ...]) -> Poly:
    out = Poly.zero(target)
    for exps, coeff in poly.terms.items():
        term = Poly.const(target, coeff)
        for image, n in zip(images, exps):
            for _ in range(n):
                term = term * image
        out = out + term
    return out


def pullback_by_each_dm(source: Chart, images: tuple[Poly, ...], form: OrdinaryForm) -> OrdinaryForm:
    dms = [OrdinaryForm.from_poly(source, m).d() for m in images]
    out = OrdinaryForm.zero(source)
    for indices, poly in form.components.items():
        composed = compose_term_by_term(poly, images, source.coordinates)
        term = OrdinaryForm.from_poly(source, composed)
        for i in indices:
            term = term.wedge(dms[i])
        out = out + term
    return out


def chen_by_definition(form: OrdinaryForm, plot: Plot) -> OrdinaryForm:
    pulled = pullback_by_each_dm(plot.source, plot.components, form)
    wdot, _ = decompose(pulled, plot.time)
    out = {}
    for indices, poly in wdot.components.items():
        shifted = tuple(i - 1 for i in indices)
        out[shifted] = drop_var(poly.defint01(plot.time), plot.time)
    return OrdinaryForm(plot.domain, out)


def full_poly(rng: random.Random, variables: tuple[str, ...], degree: int) -> Poly:
    return Poly(
        variables,
        {
            exps: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for exps in itertools.product(range(degree + 1), repeat=len(variables))
            if sum(exps) <= degree
        },
    )


def random_cases():
    """Small mixed-degree forms and plots from the suites' generators, then
    dense ones (every coefficient full to degree 2) where terms merge."""
    cfg = GenConfig(seed=23, trials=30)
    for i in range(cfg.trials):
        rng = _rng(cfg, "oracle-pullback", i)
        chart = default_target_chart(rng.randint(1, cfg.chart_dim))
        yield rand_form_mixed(rng, chart, cfg), rand_plot(rng, chart, cfg)
    rng = random.Random(5)
    chart = Chart(("x1", "x2", "x3"))
    domain = Chart(("u1", "u2"))
    cylinder = ("t",) + domain.coordinates
    for _ in range(3):
        form = OrdinaryForm(
            chart,
            {
                indices: full_poly(rng, chart.coordinates, 2)
                for p in range(4)
                for indices in itertools.combinations(range(3), p)
            },
        )
        plot = Plot(chart, domain, tuple(full_poly(rng, cylinder, 2) for _ in range(3)))
        yield form, plot


@pytest.mark.parametrize("form, plot", list(random_cases()))
def test_pullback_and_chen_match_wedge_by_each_dm(form, plot):
    assert plot.pullback(form) == pullback_by_each_dm(plot.source, plot.components, form)
    assert chen_integral(form, plot) == chen_by_definition(form, plot)
    for endpoint in (0, 1):
        frozen = plot.endpoint_map(endpoint)
        assert ev_pullback(endpoint, form, plot) == pullback_by_each_dm(
            plot.domain, frozen.components, form
        )
