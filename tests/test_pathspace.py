"""Plots, the dt-split, t-integration, the transfer map, and the
transported product, pinned by hand-computed instances."""

from fractions import Fraction

import pytest

from pathforms.forms import Chart, OrdinaryForm, dx
from pathforms.generalized import GeneralizedForm, pair_encode
from pathforms.koszul import KoszulParams
from pathforms.pathspace import (
    Chen,
    Diff,
    EvPull,
    Plot,
    Scale,
    Sum,
    Wedge,
    chen,
    chen_integral,
    decompose,
    ev_pullback,
    eval_pathform,
    map_I,
    wedge_prime,
    wedge_prime_explicit,
    zero_expr,
)
from pathforms.polyring import MismatchError, Poly

X1 = Chart(("x1",))
X2 = Chart(("x1", "x2"))
U1 = Chart(("u1",))
U2 = Chart(("u1", "u2"))


def tpoly(cylinder, name):
    return Poly.var(cylinder, name)


def line_plot() -> Plot:
    """x1 = t * u1"""
    cyl = ("t", "u1")
    return Plot(X1, U1, (tpoly(cyl, "t") * tpoly(cyl, "u1"),))


def square_plot() -> Plot:
    """x1 = t * u1, x2 = t * u2"""
    cyl = ("t", "u1", "u2")
    t = tpoly(cyl, "t")
    return Plot(X2, U2, (t * tpoly(cyl, "u1"), t * tpoly(cyl, "u2")))


def curve_plot() -> Plot:
    """x1 = t * u1, x2 = t^2"""
    cyl = ("t", "u1")
    t = tpoly(cyl, "t")
    return Plot(X2, U1, (t * tpoly(cyl, "u1"), t * t))


def test_decompose_of_line_pullback():
    plot = line_plot()
    pulled = plot.as_map().pullback(dx(X1, 0))  # u dt + t du
    wdot, wbar = decompose(pulled, "t")
    cyl = plot.cylinder
    assert wdot == OrdinaryForm.from_poly(cyl, tpoly(cyl.coordinates, "u1"))
    assert wbar == dx(cyl, 1).scale(tpoly(cyl.coordinates, "t"))


def test_decompose_without_dt_terms():
    cyl = Chart(("t", "u1"))
    form = dx(cyl, 1).scale(cyl.var(0))
    wdot, wbar = decompose(form, "t")
    assert wdot.is_zero
    assert wbar == form


def test_decompose_pure_dt_part():
    cyl = Chart(("t", "u1"))
    wdot, wbar = decompose(dx(cyl, 0).wedge(dx(cyl, 1)), "t")
    assert wdot == dx(cyl, 1)
    assert wbar.is_zero


def test_decompose_reconstruction_with_sign():
    # the coordinate order puts u1 before s, so dx_{(0,1)} = -ds ^ du1
    chart = Chart(("u1", "s"))
    form = dx(chart, 0, 1)
    wdot, wbar = decompose(form, "s")
    assert wdot == -dx(chart, 0)
    assert wbar.is_zero
    assert dx(chart, 1).wedge(wdot) + wbar == form


def test_decompose_needs_the_time_coordinate():
    with pytest.raises(MismatchError):
        decompose(dx(Chart(("x1",)), 0), "t")


def test_chen_of_dx_is_u():
    assert chen_integral(dx(X1, 0), line_plot()) == OrdinaryForm.from_poly(
        U1, U1.var(0)
    )


def test_chen_kills_functions():
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    assert chen_integral(f, line_plot()).is_zero


def test_chen_of_x_dx():
    w = dx(X1, 0).scale(X1.var(0))
    expected = OrdinaryForm.from_poly(U1, U1.var(0) * U1.var(0)).scale(Fraction(1, 2))
    assert chen_integral(w, line_plot()) == expected


def test_ev_pullback_endpoints():
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    assert ev_pullback(1, f, line_plot()) == OrdinaryForm.from_poly(U1, U1.var(0))
    assert ev_pullback(0, f, line_plot()).is_zero


def test_ev_pullback_matches_frozen_split():
    plot = curve_plot()
    w = dx(X2, 1).scale(X2.var(0))  # x1 dx2
    pulled = plot.as_map().pullback(w)
    _, wbar = decompose(pulled, "t")
    for endpoint in (0, 1):
        # freeze t in wbar by hand and compare
        comps = {}
        for indices, poly in wbar.components.items():
            shifted = tuple(i - 1 for i in indices)
            comps[shifted] = poly.set_var("t", endpoint).drop_var("t")
        frozen = OrdinaryForm(plot.domain, comps)
        assert ev_pullback(endpoint, w, plot) == frozen


def test_chain_homotopy_hand_instances():
    cases = [
        (dx(X1, 0).scale(X1.var(0)), line_plot()),
        (dx(X2, 1).scale(X2.var(0)), curve_plot()),
        (OrdinaryForm.from_poly(X2, X2.var(0) * X2.var(1)), square_plot()),
    ]
    for w, plot in cases:
        lhs = chen_integral(w.d(), plot) + chen_integral(w, plot).d()
        rhs = ev_pullback(1, w, plot) - ev_pullback(0, w, plot)
        assert lhs == rhs


def test_chain_homotopy_values_on_curve():
    # w = x1 dx2 on x1 = t u1, x2 = t^2: the integral is (2/3) u1
    w = dx(X2, 1).scale(X2.var(0))
    plot = curve_plot()
    assert chen_integral(w, plot) == OrdinaryForm.from_poly(
        U1, U1.var(0) * Fraction(2, 3)
    )
    assert chen_integral(w.d(), plot) == dx(U1, 0).scale(Fraction(-2, 3))


def test_map_I_degree_minus_one_is_zero():
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    alpha = pair_encode(OrdinaryForm.zero(X1), f, 2)
    assert map_I(alpha) == zero_expr()


def test_map_I_without_zeta_part():
    w = dx(X1, 0)
    alpha = pair_encode(w, OrdinaryForm.zero(X1), 2)
    expr = map_I(alpha)
    assert expr == Sum((EvPull(1, w), Scale(Fraction(-1), EvPull(0, w))))


def test_map_I_degree_zero_formula():
    # I(f + w1 z) = ev1 f - ev0 f - k Chen(w1)
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    w1 = dx(X1, 0)
    alpha = pair_encode(f, w1, 3)
    expr = map_I(alpha)
    assert expr == Sum(
        (
            EvPull(1, f),
            Scale(Fraction(-1), EvPull(0, f)),
            Scale(Fraction(-3), Chen(w1)),
        )
    )


def test_map_I_requires_n1():
    params = KoszulParams((Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        map_I(GeneralizedForm.one(X1, params))


def test_map_I_eval_hand_instance():
    # alpha = x + (x dx) z with k = 3 on the line family x = t u:
    #   I(alpha) evaluates to u - (3/2) u^2 and commutes with d
    x = OrdinaryForm.from_poly(X1, X1.var(0))
    alpha = pair_encode(x, dx(X1, 0).scale(X1.var(0)), 3)
    plot = line_plot()
    u = U1.var(0)
    assert eval_pathform(map_I(alpha), plot) == OrdinaryForm.from_poly(
        U1, u - u * u * Fraction(3, 2)
    )
    expected = dx(U1, 0).scale(U1.const(1) - u * 3)
    assert eval_pathform(map_I(alpha.d()), plot) == expected
    assert eval_pathform(map_I(alpha), plot).d() == expected


def test_kernel_elements_evaluate_to_zero():
    k = Fraction(5, 2)
    f = OrdinaryForm.from_poly(X2, X2.var(0) * X2.var(1))
    g = OrdinaryForm.from_poly(X2, X2.var(1))
    zero = OrdinaryForm.zero(X2)
    element = pair_encode(zero, g, k) + pair_encode(zero, f, k).d()
    for plot in (square_plot(), curve_plot()):
        assert eval_pathform(map_I(element), plot).is_zero
    # equivalently f + k^{-1} df z
    direct = pair_encode(f, f.d().scale(1 / k), k)
    assert eval_pathform(map_I(direct), square_plot()).is_zero


def test_chen_smart_constructor_drops_functions():
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    assert chen(f) == zero_expr()
    mixed = f + dx(X1, 0)
    assert chen(mixed) == Chen(dx(X1, 0))


def test_eval_zero_expression():
    assert eval_pathform(zero_expr(), line_plot()).is_zero


def test_eval_diff_and_wedge_nodes():
    plot = square_plot()
    w = dx(X2, 0)
    v = dx(X2, 1)
    value = eval_pathform(Wedge(EvPull(1, w), EvPull(1, v)), plot)
    assert value == dx(U2, 0).wedge(dx(U2, 1))
    f = OrdinaryForm.from_poly(X2, X2.var(0))
    assert eval_pathform(Diff(EvPull(1, f)), plot) == dx(U2, 0)


def test_wedge_prime_routes_agree_on_volume_instance():
    # a = z dz, b = y dx + (dx^dy) z over R^3; x = t u1, y = t u2, z = t^2
    X3 = Chart(("x1", "x2", "x3"))
    a = pair_encode(dx(X3, 2).scale(X3.var(2)), OrdinaryForm.zero(X3), 1)
    b = pair_encode(dx(X3, 0).scale(X3.var(1)), dx(X3, 0).wedge(dx(X3, 1)), 1)
    cyl = ("t", "u1", "u2")
    t = Poly.var(cyl, "t")
    plot = Plot(X3, U2, (t * Poly.var(cyl, "u1"), t * Poly.var(cyl, "u2"), t * t))
    expected = dx(U2, 0).wedge(dx(U2, 1)).scale(Fraction(-1, 3))
    assert eval_pathform(wedge_prime(a, b), plot) == expected
    assert eval_pathform(wedge_prime_explicit(a, b), plot) == expected


def test_wedge_prime_differs_from_pointwise_wedge():
    # the transported product is not the plotwise wedge of the images
    alpha = pair_encode(dx(X2, 0), dx(X2, 0).wedge(dx(X2, 1)), 1)
    beta = pair_encode(dx(X2, 1), OrdinaryForm.zero(X2), 1)
    plot = square_plot()
    du12 = dx(U2, 0).wedge(dx(U2, 1))
    prime = eval_pathform(wedge_prime(alpha, beta), plot)
    natural = eval_pathform(Wedge(map_I(alpha), map_I(beta)), plot)
    assert prime == du12
    assert natural == du12.scale(U2.const(1) - U2.var(1) * Fraction(1, 2))
    assert prime != natural


def test_wedge_prime_rejects_low_degree_and_zero_k():
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    low = pair_encode(f, dx(X1, 0), 1)  # degree 0
    good = pair_encode(dx(X1, 0), OrdinaryForm.zero(X1), 1)
    with pytest.raises(ValueError):
        wedge_prime(low, good)
    with pytest.raises(ValueError):
        wedge_prime(good, low)
    k0 = pair_encode(dx(X1, 0), OrdinaryForm.zero(X1), 0)
    with pytest.raises(ValueError):
        wedge_prime(k0, k0)

    n2 = KoszulParams((Fraction(1), Fraction(2)))
    two = GeneralizedForm.from_form(dx(X1, 0), n2)
    with pytest.raises(ValueError, match="requires n=1"):
        wedge_prime(two, two)


def test_eval_rejects_a_non_expression():
    with pytest.raises(TypeError):
        eval_pathform(42, line_plot())


def test_plot_validation():
    cyl = ("t", "u1")
    tu = Poly.var(cyl, "t") * Poly.var(cyl, "u1")
    with pytest.raises(MismatchError):
        Plot(X2, U1, (tu,))  # one component for a 2-dim target
    with pytest.raises(ValueError):
        Plot(X1, Chart(("t",)), (Poly.var(("t", "t2"), "t"),))
    with pytest.raises(MismatchError):
        chen_integral(dx(X2, 0), line_plot())
    with pytest.raises(ValueError):
        line_plot().endpoint_map(2)


def test_plot_time_is_not_a_field():
    # a fourth argument used to set the time variable, which no caller used
    cyl = (5, "u1")
    with pytest.raises(TypeError):
        Plot(X1, U1, (Poly.var(cyl, "u1"),), 5)
    assert Plot.time == "t"
    assert line_plot().cylinder == Chart(("t", "u1"))


@pytest.mark.parametrize("endpoint", [True, 1.0])
def test_non_integer_endpoint_rejected(endpoint):
    # EvPull(True, w) used to be accepted and then serialize as "endpoint": true,
    # which the expression parser refuses
    with pytest.raises(TypeError):
        EvPull(endpoint, dx(X1, 0))
    with pytest.raises(TypeError):
        line_plot().endpoint_map(endpoint)
    with pytest.raises(TypeError):
        ev_pullback(endpoint, dx(X1, 0), line_plot())


def test_degree_bounds_under_evaluation():
    # a 2-form pulled to a 1-parameter family has no room to survive
    w = dx(X2, 0).wedge(dx(X2, 1))
    assert eval_pathform(EvPull(1, w), curve_plot()).is_zero
    alpha = pair_encode(w, OrdinaryForm.zero(X2), 1)
    assert eval_pathform(map_I(alpha), curve_plot()).is_zero


@pytest.mark.parametrize(
    "build",
    [
        lambda: Sum((1, 2)),
        lambda: Wedge(1, 2),
        lambda: Chen(5),
        lambda: Diff("a"),
        lambda: Scale(1, 3),
        lambda: EvPull(0, 7),
    ],
    ids=["Sum", "Wedge", "Chen", "Diff", "Scale", "EvPull"],
)
def test_expression_fields_are_checked_by_type(build):
    # these used to build and hash, then serialize as documents that
    # from_doc refuses
    with pytest.raises(TypeError):
        build()


def test_expression_nodes_are_hashable():
    w = dx(X2, 0)
    a = Sum((EvPull(1, w), Scale(Fraction(-1), EvPull(0, w)), Chen(dx(X2, 0, 1))))
    b = Sum((EvPull(1, dx(X2, 0)), Scale(-1, EvPull(0, w)), Chen(dx(X2, 0, 1))))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Diff(a), Wedge(a, a)}) == 3


def test_forms_walks_every_form_field_in_field_order():
    a, b, c = dx(X2, 0), dx(X2, 1), dx(X2, 0, 1)
    expr = Sum((EvPull(1, a), Wedge(Chen(b), Scale(2, Diff(EvPull(0, c))))))
    assert list(expr.forms()) == [a, b, c]
    assert list(zero_expr().forms()) == []
