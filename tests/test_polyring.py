"""Exact polynomial arithmetic: frozen instances plus ring laws."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathforms.polyring import MAX_EXPONENT, MismatchError, Poly, as_fraction

XY = ("x", "y")


def p(terms, variables=XY):
    return Poly(variables, terms)


def test_add_cancellation():
    x_plus_1 = p({(1, 0): 1, (0, 0): 1})
    x_minus_1 = p({(1, 0): 1, (0, 0): -1})
    assert x_plus_1 + x_minus_1 == p({(1, 0): 2})


def test_add_identity():
    q = p({(2, 1): Fraction(3, 2)})
    assert Poly.zero(XY) + q == q


def test_add_coefficients():
    assert p({(2, 1): 1}) + p({(2, 1): Fraction(3, 2)}) == p({(2, 1): Fraction(5, 2)})


def test_mul_difference_of_squares():
    x_plus_y = p({(1, 0): 1, (0, 1): 1})
    x_minus_y = p({(1, 0): 1, (0, 1): -1})
    assert x_plus_y * x_minus_y == p({(2, 0): 1, (0, 2): -1})


def test_mul_identities():
    q = p({(1, 1): Fraction(7, 3), (0, 0): -2})
    assert Poly.const(XY, 1) * q == q
    assert Poly.zero(XY) * q == Poly.zero(XY)


def test_pderiv():
    assert p({(2, 1): 1}).pderiv("x") == p({(1, 1): 2})
    assert Poly.const(XY, 5).pderiv("x") == Poly.zero(XY)
    assert p({(2, 0): 1, (0, 3): 1}).pderiv("y") == p({(0, 2): 3})


def test_compose():
    tu = ("t", "u")
    x_sq = Poly(("x",), {(2,): 1})
    t_times_u = Poly(tu, {(1, 1): 1})
    assert x_sq.compose({"x": t_times_u}) == Poly(tu, {(2, 2): 1})

    q = p({(1, 2): Fraction(1, 2), (0, 0): 3})
    identity = {"x": Poly.var(XY, "x"), "y": Poly.var(XY, "y")}
    assert q.compose(identity) == q

    x_plus_y = p({(1, 0): 1, (0, 1): 1})
    zeros = {"x": Poly.zero(XY), "y": Poly.zero(XY)}
    assert x_plus_y.compose(zeros) == Poly.zero(XY)


def test_compose_empty_source_needs_target():
    c = Poly((), {(): Fraction(4)})
    assert c.compose({}, variables=XY) == Poly.const(XY, 4)


def test_compose_refuses_mixed_or_missing_target_variables():
    q = p({(1, 1): 1})
    with pytest.raises(MismatchError):
        q.compose({"x": Poly.var(XY, "x"), "y": Poly.var(("t",), "t")})
    with pytest.raises(MismatchError):
        Poly((), {(): 4}).compose({})


def test_defint01():
    tu = ("t", "u")
    assert Poly(tu, {(2, 0): 1}).defint01("t") == Poly.const(tu, Fraction(1, 3))
    assert Poly(tu, {(0, 1): 1}).defint01("t") == Poly(tu, {(0, 1): 1})
    assert Poly(tu, {(1, 1): 2}).defint01("t") == Poly(tu, {(0, 1): 1})


def test_set_and_drop_var():
    tu = ("t", "u")
    q = Poly(tu, {(2, 1): 1, (0, 1): 1})
    frozen = q.set_var("t", 1)
    assert frozen == Poly(tu, {(0, 1): 2})
    assert frozen.drop_var("t") == Poly(("u",), {(1,): 2})
    with pytest.raises(ValueError):
        q.drop_var("t")


def test_variable_mismatch_is_an_error():
    with pytest.raises(MismatchError):
        p({(1, 0): 1}) + Poly(("x",), {(1,): 1})
    with pytest.raises(MismatchError):
        p({(1, 0): 1}) * Poly(("z", "y"), {(1, 0): 1})


def test_unknown_variable_errors():
    q = p({(1, 0): 1})
    with pytest.raises(ValueError):
        q.pderiv("z")
    with pytest.raises(ValueError):
        q.defint01("z")
    with pytest.raises(MismatchError):
        q.compose({"x": Poly.var(XY, "x")})  # no entry for y


def test_floats_rejected():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        p({(1, 0): 0.5})


@pytest.mark.parametrize("value", [True, False, "1/2", "3"])
def test_as_fraction_takes_only_ints_and_fractions(value):
    # bools and strings used to pass through to Fraction()
    with pytest.raises(TypeError):
        as_fraction(value)
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)


def test_string_coefficient_rejected():
    with pytest.raises(TypeError):
        Poly(("x",), {(1,): "1/2"})


def test_string_factor_rejected():
    with pytest.raises(TypeError):
        p({(1, 0): 1}) * "3"


@pytest.mark.parametrize("exps", [(1.5,), (1.0,), (True,), (Fraction(1),), ("1",)])
def test_non_integer_exponents_rejected(exps):
    with pytest.raises(TypeError):
        Poly(("x",), {exps: 1})


def test_non_integer_exponent_rejected_even_with_zero_coefficient():
    with pytest.raises(TypeError):
        Poly(("x",), {(0.5,): 0})


def test_terms_are_read_only():
    q = p({(2, 0): 3})
    with pytest.raises(TypeError):
        q.terms[(2, 0)] = Fraction(0)
    with pytest.raises(TypeError):
        q.terms[(0, 1)] = Fraction(1)
    with pytest.raises(AttributeError):
        q.terms = {}
    assert q == p({(2, 0): 3}) and not q.is_zero


def test_repr_shows_the_term_dict():
    assert repr(Poly(("x",), {(1,): Fraction(1, 2)})) == "Poly(('x',), {(1,): Fraction(1, 2)})"
    assert repr(Poly.zero(XY)) == "Poly(('x', 'y'), {})"


def test_hash_agrees_with_equality():
    x = Poly.var(XY, "x")
    half_x = x * Fraction(1, 2)
    assert hash(half_x * 2) == hash(x)
    assert hash(x * x) == hash(p({(2, 0): 1}))
    assert hash((x + 1) - 1) == hash(x)
    assert len({x, half_x * 2, x * x, p({(2, 0): 1}), Poly.zero(XY), x - x}) == 3
    assert {x: "x"}[p({(1, 0): 1})] == "x"


def test_arithmetic_results_are_canonical():
    # a common denominator that cancels must not survive in the result
    third = p({(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)})
    assert third * 3 == p({(1, 0): 1, (0, 1): 2})
    assert third + third + third == p({(1, 0): 1, (0, 1): 2})
    assert (third - third).is_zero and third - third == Poly.zero(XY)
    assert (third * 3).terms == {(1, 0): Fraction(1), (0, 1): Fraction(2)}


def test_compose_high_power_matches_binomial_expansion():
    # powers come from squaring: x^400 o (x + 1) stays a few dozen multiplies
    xs = ("x",)
    x_plus_1 = Poly(xs, {(1,): 1, (0,): 1})
    result = Poly(xs, {(400,): 1}).compose({"x": x_plus_1})
    assert result == Poly(xs, {(k,): comb(400, k) for k in range(401)})


def test_compose_shares_images_between_monomials():
    xs = ("x",)
    x_plus_1 = Poly(xs, {(1,): 1, (0,): 1})
    q = Poly(xs, {(5,): 1, (3,): -2, (2,): Fraction(1, 2), (0,): 7})
    expected = Poly.const(xs, 7)
    for k, c in ((5, 1), (3, -2), (2, Fraction(1, 2))):
        expected = expected + Poly(xs, {(j,): c * comb(k, j) for j in range(k + 1)})
    assert q.compose({"x": x_plus_1}) == expected


def test_canonical_form():
    assert p({(1, 0): 0}) == Poly.zero(XY)
    assert p({(1, 0): 1, (0, 0): 0}).terms == {(1, 0): Fraction(1)}


def test_variables_must_be_distinct_and_known():
    with pytest.raises(ValueError):
        Poly(("x", "x"))
    with pytest.raises(MismatchError):
        Poly.var(("x",), "y")


def test_scalars_on_either_side():
    x = Poly.var(("x",), "x")
    assert (x == 3) is False
    assert (3 - x).terms == {(0,): 3, (1,): -1}


def test_constructor_accepts_exponents_up_to_the_limit():
    top = p({(MAX_EXPONENT, 0): 1, (0, MAX_EXPONENT): Fraction(1, 2)})
    assert top.terms == {(MAX_EXPONENT, 0): Fraction(1), (0, MAX_EXPONENT): Fraction(1, 2)}
    assert top.total_degree() == MAX_EXPONENT
    for exps in ((MAX_EXPONENT + 1, 0), (0, MAX_EXPONENT + 1), (2**64, 0)):
        with pytest.raises(ValueError):
            p({exps: 1})


def test_product_past_the_exponent_limit_raises():
    half = 2**62
    assert p({(MAX_EXPONENT - 1, 0): 1}) * p({(1, 0): 1}) == p({(MAX_EXPONENT, 0): 1})
    assert p({(MAX_EXPONENT, 0): 1}) * p({(0, MAX_EXPONENT): 1}) == p({(MAX_EXPONENT, MAX_EXPONENT): 1})
    # each field overflowing on its own: a carry would land in the next field
    for left, right in (
        ({(MAX_EXPONENT, 0): 1}, {(1, 0): 1}),
        ({(0, MAX_EXPONENT): 1}, {(0, 1): 1}),
        ({(half, 0): 1, (0, 0): 1}, {(half, 0): 1}),
        ({(1, MAX_EXPONENT): 1}, {(0, 1): 1, (1, 0): 1}),
    ):
        with pytest.raises(ValueError):
            p(left) * p(right)


def test_terms_order_matches_tuple_order_across_a_field_boundary():
    exps = [(1, 0), (0, MAX_EXPONENT), (0, 1), (1, MAX_EXPONENT), (0, 0), (MAX_EXPONENT, 0)]
    q = p(dict.fromkeys(exps, 1))
    assert list(q.terms) == sorted(exps)
    assert list((q + q).terms) == sorted(exps)
    xyz = ("x", "y", "z")
    exps3 = [(0, 1, 0), (0, 0, MAX_EXPONENT), (1, 0, 0), (0, MAX_EXPONENT, MAX_EXPONENT)]
    r = Poly(xyz, dict.fromkeys(exps3, 2))
    assert list(r.terms) == sorted(exps3)
    assert list(r.pderiv("z").terms) == sorted(e[:2] + (e[2] - 1,) for e in exps3 if e[2])


def test_one_polynomial_built_three_ways_is_equal_and_hashes_equal():
    # x^2*y + 3/2 over (x, y): by the constructor, by arithmetic, by compose
    built = p({(2, 1): 1, (0, 0): Fraction(3, 2)})
    x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
    computed = x * x * y + Fraction(3, 2)
    composed = Poly(("s", "t"), {(1, 1): 1, (0, 0): Fraction(3, 2)}).compose(
        {"s": x * x, "t": y}
    )
    assert built == computed == composed
    assert hash(built) == hash(computed) == hash(composed)
    assert repr(built) == repr(computed) == repr(composed)


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(lambda t: Poly(XY, t))


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_mixed_partials(a):
    assert a.pderiv("x").pderiv("y") == a.pderiv("y").pderiv("x")


@given(polys)
def test_fundamental_theorem(a):
    # integrating d/dx over [0,1] telescopes to the endpoint difference
    lhs = a.pderiv("x").defint01("x")
    rhs = a.set_var("x", 1) - a.set_var("x", 0)
    assert lhs == rhs
