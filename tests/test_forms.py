"""Forms on a chart: wedge and differential signs, pullback laws."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from pathforms.forms import Chart, OrdinaryForm, PolyMap, dx
from pathforms.generalized import GeneralizedForm
from pathforms.koszul import KoszulElement, KoszulParams
from pathforms.pathspace import Plot
from pathforms.polyring import MismatchError, Poly
from pathforms.signs import merge_indices, sort_with_sign
from pathforms.serialize import default_target_chart
from pathforms.verify import GenConfig, _rng, rand_form, rand_form_mixed, rand_plot

R2 = Chart(("x1", "x2"))
R3 = Chart(("x1", "x2", "x3"))


def test_merge_parity():
    assert merge_indices((0,), (1,)) == (1, (0, 1))
    assert merge_indices((1,), (0,)) == (-1, (0, 1))
    assert merge_indices((0, 2), (1,)) == (-1, (0, 1, 2))
    assert merge_indices((0,), (0,)) is None
    assert sort_with_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_with_sign((1, 1)) is None


def _oracle_sign(word):
    """The sign and sorted word of a product of odd generators, counted
    from the definition: (-1) to the number of pairs i < j with
    word[i] > word[j], or None when a generator repeats."""
    if len(set(word)) < len(word):
        return None
    inverted = sum(1 for i, j in combinations(range(len(word)), 2) if word[i] > word[j])
    return (-1) ** inverted, tuple(sorted(word))


def test_sort_with_sign_matches_the_oracle():
    words = [w for n in range(6) for w in product(range(6), repeat=n)]
    assert len(words) == 9331
    assert [w for w in words if sort_with_sign(w) != _oracle_sign(w)] == []


def test_merge_indices_matches_the_oracle():
    increasing = [w for n in range(5) for w in combinations(range(7), n)]
    pairs = list(product(increasing, repeat=2))
    assert len(pairs) == 99**2
    assert [(a, b) for a, b in pairs if merge_indices(a, b) != _oracle_sign(a + b)] == []


def test_bool_is_false_for_zero_alone():
    params = KoszulParams((Fraction(1), Fraction(0)))
    for zero, one in (
        (OrdinaryForm.zero(R2), dx(R2, 0)),
        (KoszulElement.zero(params), KoszulElement(params, {(1,): 1})),
        (GeneralizedForm.zero(R2, params), GeneralizedForm.zeta(R2, params, 1)),
    ):
        assert (bool(zero), bool(one)) == (False, True)


def test_wedge_transposition_sign():
    assert dx(R2, 0).wedge(dx(R2, 1)) == dx(R2, 0, 1)
    assert dx(R2, 1).wedge(dx(R2, 0)) == -dx(R2, 0, 1)


def test_wedge_repeated_index_vanishes():
    assert dx(R2, 0).wedge(dx(R2, 0)).is_zero
    assert dx(R2, 0, 0).is_zero


def test_wedge_coefficients():
    a = dx(R2, 0).scale(R2.var(1))  # x2 dx1
    b = dx(R2, 1).scale(R2.var(0))  # x1 dx2
    assert a.wedge(b) == dx(R2, 0, 1).scale(R2.var(0) * R2.var(1))


def test_d_of_product_function():
    f = OrdinaryForm.from_poly(R2, R2.var(0) * R2.var(1))
    assert f.d() == dx(R2, 0).scale(R2.var(1)) + dx(R2, 1).scale(R2.var(0))


def test_d_squared_vanishes():
    a = dx(R3, 0).scale(R3.var(1) * R3.var(2)) + OrdinaryForm.from_poly(
        R3, R3.var(0) * R3.var(0)
    )
    assert a.d().d().is_zero


def test_d_picks_up_orientation_sign():
    a = dx(R2, 0).scale(R2.var(1))  # x2 dx1
    assert a.d() == -dx(R2, 0, 1)


def test_pullback_line_family():
    tu = Chart(("t", "u"))
    x_of_tu = Poly.var(tu.coordinates, "t") * Poly.var(tu.coordinates, "u")
    m = PolyMap(tu, Chart(("x",)), (x_of_tu,))
    pulled = m.pullback(dx(Chart(("x",)), 0))
    expected = dx(tu, 0).scale(Poly.var(tu.coordinates, "u")) + dx(tu, 1).scale(
        Poly.var(tu.coordinates, "t")
    )
    assert pulled == expected


def test_pullback_identity_and_functions():
    a = dx(R2, 0).scale(R2.var(1)) + OrdinaryForm.from_poly(R2, R2.var(0))
    ident = PolyMap.identity(R2)
    assert ident.pullback(a) == a
    f = OrdinaryForm.from_poly(R2, R2.var(0) * R2.var(1))
    tu = Chart(("t", "u"))
    m = PolyMap(
        tu,
        R2,
        (Poly.var(tu.coordinates, "t"), Poly.var(tu.coordinates, "u")),
    )
    assert m.pullback(f) == OrdinaryForm.from_poly(
        tu, Poly.var(tu.coordinates, "t") * Poly.var(tu.coordinates, "u")
    )


def test_chart_mismatch_errors():
    other = Chart(("y1", "y2"))
    with pytest.raises(MismatchError):
        dx(R2, 0).wedge(dx(other, 0))
    with pytest.raises(MismatchError):
        PolyMap.identity(other).pullback(dx(R2, 0))


def test_degree_bookkeeping():
    mixed = dx(R2, 0) + OrdinaryForm.from_poly(R2, R2.var(0))
    assert mixed.degrees() == {0, 1}
    with pytest.raises(ValueError):
        mixed.degree()
    assert mixed.part(1) == dx(R2, 0)
    assert OrdinaryForm.zero(R2).is_homogeneous()
    assert OrdinaryForm.zero(R2).degree() is None
    assert mixed.homogeneous_parts()[0] == OrdinaryForm.from_poly(R2, R2.var(0))


def test_out_of_range_indices_rejected():
    with pytest.raises(ValueError):
        OrdinaryForm(R2, {(2,): R2.const(1)})
    with pytest.raises(ValueError):
        OrdinaryForm(R2, {(1, 0): R2.const(1)})


@pytest.mark.parametrize("indices", [(0.9,), (0, 1.0), (True,), ("1",)])
def test_non_integer_indices_rejected(indices):
    with pytest.raises(TypeError):
        OrdinaryForm(R2, {indices: R2.const(1)})


def test_non_poly_coefficient_rejected():
    # an int coefficient used to raise AttributeError
    with pytest.raises(TypeError):
        OrdinaryForm(Chart(("x",)), {(0,): 1})


@pytest.mark.parametrize("poly", [True, "x", 1])
def test_from_poly_rejects_a_non_poly(poly):
    with pytest.raises(TypeError):
        OrdinaryForm.from_poly(R2, poly)


def test_from_poly_rejects_a_poly_off_the_chart():
    with pytest.raises(MismatchError):
        OrdinaryForm.from_poly(R2, Poly.const(("x2", "x1"), 1))


@pytest.mark.parametrize("chart", [True, "x1", ("x1", "x2")])
def test_form_constructors_reject_a_non_chart(chart):
    # a bool or a string used to fail with AttributeError
    with pytest.raises(TypeError, match="must be a Chart"):
        OrdinaryForm.zero(chart)
    with pytest.raises(TypeError, match="must be a Chart"):
        OrdinaryForm.from_poly(chart, R2.const(1))


K1 = KoszulParams((Fraction(1),))
U = Chart(("u",))

# each of these used to build a value with a tuple for a chart, or to fail
# with AttributeError on the first attribute it read
WRONG_TYPES = {
    "generalized_chart": lambda: GeneralizedForm(("x1",), K1),
    "koszul_params": lambda: KoszulElement((1,)),
    "generalized_params": lambda: GeneralizedForm(R2, (1,)),
    "map_target": lambda: PolyMap(U, ("x",), (U.var(0),)),
    "map_component": lambda: PolyMap(R2, U, (5,)),
    "plot_domain": lambda: Plot(U, ("u1",), (Poly.var(("t", "u1"), "t"),)),
}


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_constructors_reject_arguments_of_the_wrong_type(case):
    with pytest.raises(TypeError):
        WRONG_TYPES[case]()


def test_chart_rejects_duplicate_names():
    with pytest.raises(ValueError, match="distinct"):
        OrdinaryForm.zero(Chart(("x", "x")))


def test_non_integer_dx_index_rejected():
    with pytest.raises(TypeError):
        dx(R2, 0.9)


@pytest.mark.parametrize("names", [(1, 2), ("x", None), (b"x",)])
def test_non_string_coordinate_names_rejected(names):
    # Chart((1, 2)) used to build, and its forms wrote a "chart" document
    # that the form parser refuses
    with pytest.raises(TypeError):
        Chart(names)


def test_components_are_read_only():
    w = dx(R2, 0)
    with pytest.raises(TypeError):
        w.components[(1,)] = R2.const(1)
    with pytest.raises(TypeError):
        del w.components[(0,)]
    assert w == dx(R2, 0)


def test_hash_agrees_with_equality():
    a = dx(R2, 0).scale(R2.var(1))
    b = OrdinaryForm(R2, {(0,): R2.var(1) * 2}).scale(Poly.const(R2.coordinates, 1) * Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, dx(R2, 1), -dx(R2, 1), dx(R2, 1) + dx(R2, 1) - dx(R2, 1)}) == 3


def test_dim_zero_chart():
    pt = Chart(())
    c = OrdinaryForm.from_poly(pt, pt.const(3))
    assert c.d().is_zero
    assert c.wedge(c) == OrdinaryForm.from_poly(pt, pt.const(9))


def test_coefficients_and_components_must_live_on_the_chart():
    y = Poly.var(("y",), "y")
    with pytest.raises(MismatchError):
        OrdinaryForm(R2, {(): y})
    with pytest.raises(MismatchError):
        PolyMap(R2, Chart(("y",)), (Poly.var(("z",), "z"),))


def test_repr_lists_each_term_with_its_index_list():
    x = Chart(("x",))
    f = OrdinaryForm.from_poly(x, x.var(0))
    assert repr(f + f.wedge(dx(x, 0))) == "OrdinaryForm((x) + (x)*dx[0])"
    assert repr(OrdinaryForm.zero(x)) == "OrdinaryForm(0)"


CFG = GenConfig(seed=11, trials=40)


def test_random_d_squared_and_leibniz():
    for i in range(CFG.trials):
        rng = _rng(CFG, "forms-test", i)
        chart = default_target_chart(rng.randint(1, CFG.chart_dim))
        a = rand_form_mixed(rng, chart, CFG)
        assert a.d().d().is_zero
        p = rng.randint(0, chart.dim)
        h = rand_form(rng, chart, CFG, degree=p)
        b = rand_form_mixed(rng, chart, CFG)
        sign = 1 if p % 2 == 0 else -1
        lhs = h.wedge(b).d()
        rhs = h.d().wedge(b) + h.wedge(b.d()).scale(sign)
        assert lhs == rhs


def test_random_pullback_commutes_with_d_and_wedge():
    for i in range(CFG.trials):
        rng = _rng(CFG, "forms-pullback", i)
        chart = default_target_chart(rng.randint(1, CFG.chart_dim))
        plot = rand_plot(rng, chart, CFG)
        m = plot
        a = rand_form_mixed(rng, chart, CFG)
        b = rand_form_mixed(rng, chart, CFG)
        assert m.pullback(a.d()) == m.pullback(a).d()
        assert m.pullback(a.wedge(b)) == m.pullback(a).wedge(m.pullback(b))
