"""The negative-degree exterior algebra and its constant differential."""

import itertools
from fractions import Fraction

import pytest

from pathforms.forms import Chart, dx
from pathforms.koszul import KoszulElement, KoszulParams
from pathforms.polyring import MismatchError
from pathforms.verify import (
    GenConfig,
    _rng,
    rand_koszul,
    rand_koszul_mixed,
    rand_koszul_params,
)

K1 = KoszulParams((Fraction(5),))
K2 = KoszulParams((Fraction(2), Fraction(3)))


def z(params, *indices):
    return KoszulElement(params, {tuple(indices): 1})


def test_generator_squares_to_zero():
    zeta = KoszulElement.generator(K1, 0)
    assert zeta.mul(zeta).is_zero


def test_generators_anticommute():
    z1, z2 = KoszulElement.generator(K2, 0), KoszulElement.generator(K2, 1)
    assert z1.mul(z2) == z(K2, 0, 1)
    assert z2.mul(z1) == -z(K2, 0, 1)


def test_unit():
    one = KoszulElement.scalar(K2, 1)
    u = z(K2, 0) + KoszulElement.scalar(K2, Fraction(1, 2))
    assert one.mul(u) == u
    assert u.mul(one) == u


def test_d_of_generator_is_constant():
    assert KoszulElement.generator(K1, 0).d() == KoszulElement.scalar(K1, 5)


def test_d_of_pair_monomial():
    # d(z0 z1) = k0 z1 - k1 z0
    assert z(K2, 0, 1).d() == z(K2, 1).scale(2) - z(K2, 0).scale(3)
    assert z(K2, 0, 1).d().d().is_zero


def test_degrees_occupied():
    params = KoszulParams((Fraction(1), Fraction(2), Fraction(3)))
    monomials = [
        tuple(s)
        for size in range(params.n + 1)
        for s in itertools.combinations(range(params.n), size)
    ]
    assert len(monomials) == 2**params.n
    degrees = {KoszulElement(params, {s: 1}).degree() for s in monomials}
    assert degrees == {0, -1, -2, -3}


def test_params_mismatch():
    with pytest.raises(MismatchError):
        z(K1, 0).mul(z(K2, 0))


def test_zero_constant_is_legal():
    params = KoszulParams((Fraction(0),))
    assert KoszulElement.generator(params, 0).d().is_zero


def test_degree_bookkeeping():
    mixed = z(K2, 0) + KoszulElement.scalar(K2, 1)
    assert mixed.degrees() == {-1, 0}
    with pytest.raises(ValueError):
        mixed.degree()
    assert mixed.part(-1) == z(K2, 0)
    assert KoszulElement.zero(K2).is_homogeneous()
    assert KoszulElement.zero(K2).degree() is None


@pytest.mark.parametrize("indices", [(0.9,), (True,)])
def test_non_integer_indices_rejected(indices):
    # 0.9 used to become z_0 and True z_1
    with pytest.raises(TypeError):
        KoszulElement(K2, {indices: 1})


@pytest.mark.parametrize("coeff", [True, "1/2"])
def test_non_rational_coefficients_rejected(coeff):
    # True used to become 1 and "1/2" the Fraction 1/2
    with pytest.raises(TypeError):
        KoszulElement(K2, {(0,): coeff})


def test_string_constant_rejected():
    with pytest.raises(TypeError):
        KoszulParams(("2",))


def test_terms_are_read_only():
    e = z(K2, 1)
    with pytest.raises(TypeError):
        e.terms[(1,)] = Fraction(0)
    assert e == z(K2, 1)


def test_hash_agrees_with_equality():
    a = z(K2, 0, 1).scale(2)
    b = z(K2, 0).mul(z(K2, 1)) + z(K2, 0, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, z(K2, 0), -z(K2, 0), z(K1, 0)}) == 4


def test_repr_lists_each_term_with_its_index_list():
    u = KoszulElement.scalar(K2, 1) + z(K2, 0, 1).scale(Fraction(-1, 2))
    assert repr(u) == "KoszulElement((1) + (-1/2)*z[0, 1])"


def test_forms_and_koszul_elements_do_not_mix():
    line = Chart(("x",))
    assert dx(line, 0) != KoszulElement.generator(K2, 0)
    with pytest.raises(MismatchError):
        dx(line, 0) + KoszulElement.generator(K2, 0)


CFG = GenConfig(seed=5, trials=60)


def test_random_d_squared_and_leibniz():
    for i in range(CFG.trials):
        rng = _rng(CFG, "koszul-test", i)
        params = rand_koszul_params(rng, CFG, n=rng.randint(1, 4))
        u = rand_koszul_mixed(rng, params, CFG)
        assert u.d().d().is_zero
        # homogeneous left factor for the graded sign
        s = rng.randint(0, params.n)
        h = u.part(-s)
        v = rand_koszul_mixed(rng, params, CFG)
        sign = 1 if s % 2 == 0 else -1
        assert h.mul(v).d() == h.d().mul(v) + h.mul(v.d()).scale(sign)


@pytest.mark.parametrize("degree", [1, -(K2.n + 1)])
def test_random_element_outside_the_degree_range_is_zero(degree):
    # a degree with no monomials draws nothing
    rng = _rng(CFG, "outside", 0)
    assert rand_koszul(rng, K2, CFG, degree=degree).is_zero
    assert rng.random() == _rng(CFG, "outside", 0).random()
