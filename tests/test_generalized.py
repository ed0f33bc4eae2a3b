"""Generalized forms: tensor signs, the induced differential, pair view."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

from pathforms.forms import Chart, OrdinaryForm, dx
from pathforms.generalized import GeneralizedForm, pair_decode, pair_encode
from pathforms.koszul import KoszulElement, KoszulParams
from pathforms.polyring import MismatchError, Poly
from pathforms.serialize import default_target_chart

R1 = Chart(("x1",))
R2 = Chart(("x1", "x2"))


def test_closed_product_formula_square():
    # (x + dx z)(x + dx z) = x^2 + 2x dx z on the line
    x = OrdinaryForm.from_poly(R1, R1.var(0))
    alpha = pair_encode(x, dx(R1, 0), 1)
    first, second = pair_decode(alpha.wedge(alpha))
    assert first == OrdinaryForm.from_poly(R1, R1.var(0) * R1.var(0))
    assert second == dx(R1, 0).scale(R1.var(0) * R1.const(2))


def test_product_unit():
    params = KoszulParams((Fraction(2),))
    alpha = pair_encode(dx(R2, 0), dx(R2, 0).wedge(dx(R2, 1)), 2)
    one = GeneralizedForm.one(R2, params)
    assert one.wedge(alpha) == alpha
    assert alpha.wedge(one) == alpha


def test_closed_product_formula_general():
    # (a_p + a_{p+1} z)(b_q + b_{q+1} z)
    #   = a_p b_q + (a_p b_{q+1} + (-1)^q a_{p+1} b_q) z  with q = 1
    k = Fraction(3)
    a_p = OrdinaryForm.from_poly(R2, R2.var(0))          # p = 0
    a_next = dx(R2, 0)
    b_q = dx(R2, 1).scale(R2.var(1))                     # q = 1
    b_next = dx(R2, 0).wedge(dx(R2, 1))
    alpha = pair_encode(a_p, a_next, k)
    beta = pair_encode(b_q, b_next, k)
    first, second = pair_decode(alpha.wedge(beta))
    assert first == a_p.wedge(b_q)
    assert second == a_p.wedge(b_next) - a_next.wedge(b_q)


def test_differential_closed_formula():
    # d(x1 + x2 dx1 z) with k = 2: ((1 - 2 x2) dx1, -dx1^dx2)
    x1 = OrdinaryForm.from_poly(R2, R2.var(0))
    alpha = pair_encode(x1, dx(R2, 0).scale(R2.var(1)), 2)
    first, second = pair_decode(alpha.d())
    assert first == dx(R2, 0).scale(R2.const(1) - R2.const(2) * R2.var(1))
    assert second == -(dx(R2, 0).wedge(dx(R2, 1)))


def test_d_squared_vanishes():
    alpha = pair_encode(
        OrdinaryForm.from_poly(R2, R2.var(0) * R2.var(1)),
        dx(R2, 1).scale(R2.var(0)),
        Fraction(7, 2),
    )
    assert alpha.d().d().is_zero


def test_d_of_generator_is_its_constant():
    params = KoszulParams((Fraction(2),))
    zeta = GeneralizedForm.zeta(R1, params, 0)
    assert zeta.d() == GeneralizedForm.from_form(
        OrdinaryForm.from_poly(R1, R1.const(2)), params
    )


def test_pair_encode_negative_degree():
    f = OrdinaryForm.from_poly(R1, R1.var(0))
    alpha = pair_encode(OrdinaryForm.zero(R1), f, 1)
    assert alpha.degree() == -1
    assert pair_decode(alpha) == (OrdinaryForm.zero(R1), f)


def test_pair_encode_embedding_and_roundtrip():
    a = dx(R2, 0).scale(R2.var(1))
    b = dx(R2, 0).wedge(dx(R2, 1))
    assert pair_decode(pair_encode(a, OrdinaryForm.zero(R2), 1)) == (
        a,
        OrdinaryForm.zero(R2),
    )
    assert pair_decode(pair_encode(a, b, 1)) == (a, b)


def test_pair_encode_degree_mismatch():
    with pytest.raises(ValueError, match=r"^pair degrees 1 and 1 are not consecutive$"):
        pair_encode(dx(R2, 0), dx(R2, 1), 1)
    mixed = OrdinaryForm.from_poly(R2, R2.var(0)) + dx(R2, 0)
    for a_p, a_next in ((mixed, OrdinaryForm.zero(R2)), (dx(R2, 0), mixed)):
        with pytest.raises(ValueError, match=r"^element mixes degrees \[0, 1\]$"):
            pair_encode(a_p, a_next, 1)


def test_pair_decode_requires_n1_and_homogeneous():
    params2 = KoszulParams((Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        pair_decode(GeneralizedForm.one(R2, params2))
    params = KoszulParams((Fraction(1),))
    mixed = GeneralizedForm.one(R2, params) + GeneralizedForm.from_form(
        dx(R2, 0), params
    )
    with pytest.raises(ValueError):
        pair_decode(mixed)


@pytest.mark.parametrize(
    "factor, error",
    [("x1", TypeError), (0.5, TypeError), (True, TypeError), (R2.var(0), MismatchError)],
    ids=["str", "float", "bool", "poly_off_chart"],
)
def test_scale_refuses_a_bad_factor_on_zero_too(factor, error):
    # zero used to multiply no coefficient, so it accepted any factor
    params = KoszulParams((Fraction(1),))
    for zero, one in (
        (OrdinaryForm.zero(R1), dx(R1, 0)),
        (GeneralizedForm.zero(R1, params), GeneralizedForm.zeta(R1, params, 0)),
    ):
        for value in (zero, one):
            with pytest.raises(error):
                value.scale(factor)


def test_degree_bookkeeping():
    params = KoszulParams((Fraction(1), Fraction(2)))
    alpha = GeneralizedForm(R2, params, {(0, 1): dx(R2, 0)})
    assert alpha.degree() == -1
    assert alpha.part(-1) == alpha
    assert alpha.part(0).is_zero


def test_tensor_sign_between_zeta_and_form():
    # (1 x z)(dx1 x 1) = -(dx1 x z): odd crossing both ways
    params = KoszulParams((Fraction(1),))
    zeta = GeneralizedForm.zeta(R2, params, 0)
    a = GeneralizedForm.from_form(dx(R2, 0), params)
    expected = GeneralizedForm(R2, params, {(0,): dx(R2, 0)})
    assert zeta.wedge(a) == -expected
    assert a.wedge(zeta) == expected


def test_chart_and_params_mismatch():
    params = KoszulParams((Fraction(1),))
    other = KoszulParams((Fraction(2),))
    with pytest.raises(MismatchError):
        GeneralizedForm.one(R1, params).wedge(GeneralizedForm.one(R2, params))
    with pytest.raises(MismatchError):
        GeneralizedForm.one(R1, params).wedge(GeneralizedForm.one(R1, other))


def test_from_koszul_embedding_respects_d():
    params = KoszulParams((Fraction(2), Fraction(3)))
    element = KoszulElement(params, {(0, 1): Fraction(1)})
    embedded = GeneralizedForm.from_koszul(R1, element)
    assert embedded.d() == GeneralizedForm.from_koszul(R1, element.d())


_small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
_charts = st.integers(1, 3).map(default_target_chart)
_params = st.lists(_small, min_size=1, max_size=3).map(lambda ks: KoszulParams(tuple(ks)))


def _subsets(n: int):
    return st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s)))


def _forms(chart: Chart):
    """Forms with up to three components, each a Poly of up to three
    terms of degree at most 2 in each coordinate."""
    exps = st.tuples(*[st.integers(0, 2)] * chart.dim)
    polys = st.dictionaries(exps, _small, max_size=3).map(
        lambda terms: Poly(chart.coordinates, terms)
    )
    components = st.dictionaries(_subsets(chart.dim), polys, max_size=3)
    return components.map(lambda components: OrdinaryForm(chart, components))


def _koszul(params: KoszulParams):
    terms = st.dictionaries(_subsets(params.n), _small, max_size=3)
    return terms.map(lambda terms: KoszulElement(params, terms))


@given(st.data())
def test_from_form_is_a_dga_map(data):
    chart, params = data.draw(_charts), data.draw(_params)
    a, b = data.draw(_forms(chart)), data.draw(_forms(chart))
    embed = partial(GeneralizedForm.from_form, params=params)
    assert embed(a).d() == embed(a.d())
    assert embed(a).wedge(embed(b)) == embed(a.wedge(b))


@given(st.data())
def test_from_koszul_is_a_dga_map(data):
    chart, params = data.draw(_charts), data.draw(_params)
    x, y = data.draw(_koszul(params)), data.draw(_koszul(params))
    embed = partial(GeneralizedForm.from_koszul, chart)
    assert embed(x).d() == embed(x.d())
    assert embed(x).wedge(embed(y)) == embed(x.mul(y))


def test_non_integer_indices_rejected():
    params = KoszulParams((Fraction(1),))
    with pytest.raises(TypeError):
        GeneralizedForm(R1, params, {(0.5,): dx(R1, 0)})


def test_non_form_component_rejected():
    # a Poly component used to raise AttributeError
    params = KoszulParams((Fraction(1),))
    with pytest.raises(TypeError):
        GeneralizedForm(R1, params, {(): R1.const(1)})


def test_unit_is_the_multiplicative_identity():
    params = KoszulParams((Fraction(2),))
    a = pair_encode(dx(R1, 0), OrdinaryForm.zero(R1), 2)
    assert a.unit() == GeneralizedForm.one(R1, params)
    assert a.unit().wedge(a) == a == a.wedge(a.unit())
    form = dx(R1, 0)
    assert form.unit() == OrdinaryForm.from_poly(R1, R1.const(1))
    assert form.unit().wedge(form) == form
    element = KoszulElement.generator(params, 0)
    assert element.unit() == KoszulElement.scalar(params, 1)
    assert element.unit().mul(element) == element


def test_components_are_read_only():
    params = KoszulParams((Fraction(1),))
    zeta = GeneralizedForm.zeta(R1, params, 0)
    with pytest.raises(TypeError):
        zeta.components[()] = dx(R1, 0)
    assert zeta == GeneralizedForm.zeta(R1, params, 0)


def test_hash_agrees_with_equality():
    params = KoszulParams((Fraction(1),))
    a = pair_encode(dx(R1, 0), OrdinaryForm.zero(R1), 1)
    b = GeneralizedForm.from_form(dx(R1, 0), params)
    zeta = GeneralizedForm.zeta(R1, params, 0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, zeta, -zeta, GeneralizedForm.zeta(R2, params, 0)}) == 4


def test_zeta_with_a_repeated_index_is_zero():
    params = KoszulParams((Fraction(1), Fraction(2)))
    assert GeneralizedForm.zeta(R1, params, 0, 0).is_zero


def test_repr_nests_the_form_coefficients():
    params = KoszulParams((Fraction(1),))
    zeta = GeneralizedForm.zeta(R1, params, 0)
    assert repr(zeta) == "GeneralizedForm(OrdinaryForm((1))*z[0])"
