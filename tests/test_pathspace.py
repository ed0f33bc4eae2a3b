"""Plots, the dt-split, t-integration, the transfer map, and the
transported product, pinned by hand-computed instances."""

import inspect
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from golden_cases import CASES, dense_instance, dense_verb_texts
from poly_oracles import drop_var, set_var
import pathforms.generalized as generalized
import pathforms.pathspace as pathspace
import pathforms.polyring as polyring
import pathforms.serialize as serialize
import pathforms.signs as signs
from pathforms.forms import Chart, OrdinaryForm, PolyMap, dx
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
from pathforms.serialize import dumps
from pathforms.signs import SignedMonomials
from pathforms.verify import ALL_SUITES, GenConfig, run_suite

X1 = Chart(("x1",))
X2 = Chart(("x1", "x2"))
X3 = Chart(("x1", "x2", "x3"))
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
    pulled = plot.pullback(dx(X1, 0))  # u dt + t du
    wdot, wbar = decompose(pulled, "t")
    cyl = plot.source
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


@pytest.mark.parametrize("exps", [(2**62 + 1, 1), (1, 2**62 + 1)], ids=["t", "u1"])
def test_chen_refuses_a_product_exponent_past_the_limit(exps):
    # x1 = t^i u1^j pulls x1 dx1 back to a dt part i t^(2i-1) u1^(2j): with
    # i = 2^62 + 1 its t-exponent passes MAX_EXPONENT, which the integral
    # over t would take away again, and with j = 2^62 + 1 its u1-exponent
    plot = Plot(X1, U1, (Poly(("t", "u1"), {exps: 1}),))
    with pytest.raises(ValueError, match="a product exponent exceeds MAX_EXPONENT"):
        chen_integral(dx(X1, 0).scale(X1.var(0)), plot)


def test_ev_pullback_endpoints():
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    assert ev_pullback(1, f, line_plot()) == OrdinaryForm.from_poly(U1, U1.var(0))
    assert ev_pullback(0, f, line_plot()).is_zero


def test_ev_pullback_matches_frozen_split():
    plot = curve_plot()
    w = dx(X2, 1).scale(X2.var(0))  # x1 dx2
    pulled = plot.pullback(w)
    _, wbar = decompose(pulled, "t")
    for endpoint in (0, 1):
        # freeze t in wbar by hand and compare
        comps = {}
        for indices, poly in wbar.components.items():
            shifted = tuple(i - 1 for i in indices)
            comps[shifted] = drop_var(set_var(poly, "t", endpoint), "t")
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


def dense_homotopy_defect() -> OrdinaryForm:
    """chen(dw) + d chen(w) - (ev1* w - ev0* w) on the dense golden
    instance, whose polynomials are full to degree 2 with rational
    coefficients: each pullback component there sums products over several
    denominators and signs.  Zero when the chain homotopy holds."""
    w, plot, _ = dense_instance()
    boundary = ev_pullback(1, w, plot) - ev_pullback(0, w, plot)
    assert not boundary.is_zero
    return chen_integral(w.d(), plot) + chen_integral(w, plot).d() - boundary


def test_chain_homotopy_on_the_dense_instance():
    assert dense_homotopy_defect().is_zero


def test_chen_integrates_before_it_multiplies(monkeypatch):
    # the term products of every `_sum_of_products` call, the sum over its
    # pairs of the operands' term counts multiplied: multiplying out each dt
    # component over (t, u), then integrating, took 3,012 for the Chen
    # integral here; integrating the larger operand of each pair against
    # each t-power of the other first takes 1,812
    w, plot, _ = dense_instance()
    original = polyring._sum_of_products
    counts = []

    def counted(variables, pairs):
        counts[-1] += sum(len(a._nums) * len(b._nums) for _, a, b in pairs)
        return original(variables, pairs)

    plant(monkeypatch, polyring, "_sum_of_products", counted)
    for compute in (lambda: chen_integral(w, plot), lambda: ev_pullback(1, w, plot)):
        counts.append(0)
        compute()
    assert counts == [1812, 552]


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
    a = pair_encode(dx(X3, 2).scale(X3.var(2)), OrdinaryForm.zero(X3), 1)
    b = pair_encode(dx(X3, 0).scale(X3.var(1)), dx(X3, 0).wedge(dx(X3, 1)), 1)
    cyl = ("t", "u1", "u2")
    t = Poly.var(cyl, "t")
    plot = Plot(X3, U2, (t * Poly.var(cyl, "u1"), t * Poly.var(cyl, "u2"), t * t))
    expected = dx(U2, 0).wedge(dx(U2, 1)).scale(Fraction(-1, 3))
    assert eval_pathform(wedge_prime(a, b), plot) == expected
    assert eval_pathform(wedge_prime_explicit(a, b), plot) == expected


def cross_term_cases() -> list[tuple[GeneralizedForm, GeneralizedForm, Plot]]:
    """(a, b, plot) with p = q = 1 on a 3-dim chart and a 2-dim domain, where
    the cross term Chen(a_2 ^ b_1) of wedge_prime_explicit is nonzero on the
    plot; in the second every term of the explicit formula is."""
    cyl = ("t", "u1", "u2")
    t, u1, u2 = (Poly.var(cyl, name) for name in cyl)
    x1, x2, x3 = (X3.var(i) for i in range(3))
    return [
        (
            pair_encode(dx(X3, 0).scale(x2), dx(X3, 1, 2), 2),
            pair_encode(dx(X3, 0).scale(x1) + dx(X3, 2), dx(X3, 1, 2).scale(x3), 2),
            Plot(X3, U2, (t * u1, t * u2 + u1, t * t)),
        ),
        (
            pair_encode(
                dx(X3, 1) + dx(X3, 2).scale(x1), dx(X3, 0, 1).scale(x3), Fraction(-1, 3)
            ),
            pair_encode(dx(X3, 2).scale(x2) + dx(X3, 0), dx(X3, 0, 2), Fraction(-1, 3)),
            Plot(X3, U2, (u1 + t * u2, t * t * u1, t + u2)),
        ),
    ]


def front_term_case() -> tuple[GeneralizedForm, GeneralizedForm, Plot]:
    """(a, b, plot) with p = q = 1 on which the endpoint terms
    ev_1^*(a_p b_q) - ev_0^*(a_p b_q) of wedge_prime_explicit are nonzero."""
    cyl = ("t", "u1", "u2")
    t, u1, u2 = (Poly.var(cyl, name) for name in cyl)
    return (
        pair_encode(dx(X3, 0), OrdinaryForm.zero(X3), 2),
        pair_encode(dx(X3, 1).scale(X3.var(0)), dx(X3, 1, 2), 2),
        Plot(X3, U2, (t * u1, t * u2, t)),
    )


def explicit_mismatch(a, b, plot) -> OrdinaryForm:
    """wedge_prime minus wedge_prime_explicit on the plot: zero when the
    explicit formula is right."""
    product = eval_pathform(pathspace.wedge_prime(a, b), plot)
    return product - eval_pathform(pathspace.wedge_prime_explicit(a, b), plot)


@pytest.mark.parametrize("case", range(2))
def test_wedge_prime_explicit_cross_term_cases(case):
    a, b, plot = cross_term_cases()[case]
    assert (a.degree(), b.degree()) == (1, 1)
    cross = a.forms().get((0,)).wedge(b.forms().get(()))
    assert not eval_pathform(Chen(cross), plot).is_zero
    assert explicit_mismatch(a, b, plot).is_zero


def test_wedge_prime_explicit_front_term_case():
    a, b, plot = front_term_case()
    assert (a.degree(), b.degree()) == (1, 1)
    front = a.forms().get(()).wedge(b.forms().get(()))
    ends = Sum((EvPull(1, front), Scale(-1, EvPull(0, front))))
    assert eval_pathform(ends, plot) == dx(U2, 0, 1).scale(U2.var(0))
    assert explicit_mismatch(a, b, plot).is_zero


# -- the mutation matrix of the closed formulas --------------------------------
#
# Each row plants one wrong sign or one dropped term, by rewriting one
# source line of a function or by replacing one method, and names the
# checks that must flag it.  A check flags a plant when it reports a
# mismatch or raises, as its test would fail.

MATRIX_CFG = GenConfig(seed=0, trials=10)
GOLDEN_DIR = Path(__file__).parent / "golden"


def _suite_check(name: str):
    return lambda: not run_suite(name, MATRIX_CFG).passed


def _golden_check(name: str):
    return lambda: dumps(CASES[name]()) != (GOLDEN_DIR / f"{name}.json").read_text()


def _case_check(case):
    return lambda: not explicit_mismatch(*case()).is_zero


CHECKS = {
    **{f"suite:{name}": _suite_check(name) for name in ALL_SUITES},
    **{
        f"golden:{name}": _golden_check(name)
        for name in (
            "map_I", "eval_pathform", "wedge_prime", "form_d", "gen_d", "koszul_d",
            "cli_dense",
        )
    },
    "cross_case_0": _case_check(lambda: cross_term_cases()[0]),
    "cross_case_1": _case_check(lambda: cross_term_cases()[1]),
    "front_case": _case_check(front_term_case),
    "dense_homotopy": lambda: not dense_homotopy_defect().is_zero,
    "cli_bytes": lambda: any(a != b for a, b in dense_verb_texts().values()),
}

CHEN_SIGN = "coeff = k * (-1 if p % 2 == 0 else 1)"
PAIR_SCALE = "scale = sign * (den // (a._den * b._den))"
CROSS_TERM = "combo = combo + (cross if q % 2 == 0 else -cross)"
KERNEL = ("suite:kernel", "suite:dI_commute", "golden:map_I")
WEIGHT = "weights = {(i, j): i + j + 1 for i in big for j in small}"

# name: (owner, attribute, (line, mutant line) or replacement, checks)
MUTATIONS = {
    "drop_ev1": (
        pathspace,
        "_transfer_terms",
        ("terms.append(EvPull(1, w))", "pass"),
        KERNEL
        + ("suite:injectivity_witness", "golden:eval_pathform", "golden:wedge_prime"),
    ),
    "drop_ev0": (
        pathspace,
        "_transfer_terms",
        ("terms.append(Scale(Fraction(-1), EvPull(0, w)))", "pass"),
        KERNEL + ("golden:wedge_prime",),
    ),
    "flip_chen_sign": (
        pathspace,
        "_transfer_terms",
        (CHEN_SIGN, "coeff = k * (1 if p % 2 == 0 else -1)"),
        KERNEL
        + ("suite:injectivity_witness", "golden:eval_pathform", "golden:wedge_prime"),
    ),
    "drop_k": (
        pathspace,
        "_transfer_terms",
        (CHEN_SIGN, "coeff = -1 if p % 2 == 0 else 1"),
        KERNEL + ("golden:eval_pathform",),
    ),
    "drop_chen_term": (
        pathspace,
        "_transfer_terms",
        ("terms.append(Scale(coeff, Chen(v)))", "pass"),
        ("suite:kernel", "suite:dI_commute", "suite:injectivity_witness"),
    ),
    "swap_pair": (
        generalized,
        "pair_decode",
        (
            "return split.get((), empty), split.get((0,), empty)",
            "return split.get((0,), empty), split.get((), empty)",
        ),
        KERNEL
        + ("suite:injectivity_witness", "cross_case_0", "cross_case_1", "front_case"),
    ),
    "flip_front_sign": (
        pathspace,
        "wedge_prime_explicit",
        ("front = a_p.wedge(b_q)", "front = -a_p.wedge(b_q)"),
        ("cross_case_1", "front_case"),
    ),
    "drop_combo": (
        pathspace,
        "wedge_prime_explicit",
        ("combo = a_p.wedge(b_next)", "combo = a_p.wedge(b_next).scale(0)"),
        ("cross_case_0", "cross_case_1", "front_case", "golden:wedge_prime"),
    ),
    "flip_cross_sign": (
        pathspace,
        "wedge_prime_explicit",
        (CROSS_TERM, "combo = combo + (-cross if q % 2 == 0 else cross)"),
        ("cross_case_0", "cross_case_1"),
    ),
    "drop_cross_term": (
        pathspace,
        "wedge_prime_explicit",
        (CROSS_TERM, "combo = combo"),
        ("cross_case_0", "cross_case_1"),
    ),
    "chen_index_shift": (
        pathspace,
        "chen_integral",
        ("rest = tuple(i - 1 for i in indices[1:])", "rest = indices[1:]"),
        (
            "suite:chain_homotopy",
            "suite:dI_commute",
            "suite:injectivity_witness",
            "golden:wedge_prime",
        ),
    ),
    "constants_on_dx": (
        GeneralizedForm,
        "d",
        (
            "(0,) * chart.dim + params.constants",
            "params.constants + (0,) * chart.dim",
        ),
        (
            "suite:d_squared",
            "suite:pair_equivalence",
            "suite:dI_commute",
            "suite:kernel",
            "golden:gen_d",
        ),
    ),
    "z_degree_zero": (
        GeneralizedForm,
        "_degree",
        (
            "2 * bisect_left(indices, self._context[0].dim) - len(indices)",
            "bisect_left(indices, self._context[0].dim)",
        ),
        KERNEL + ("suite:injectivity_witness",),
    ),
    "drop_pair_scale": (
        polyring,
        "_sum_of_products",
        (PAIR_SCALE, "scale = sign"),
        ("suite:dI_commute", "golden:cli_dense", "dense_homotopy"),
    ),
    "drop_pair_sign": (
        polyring,
        "_sum_of_products",
        (PAIR_SCALE, "scale = den // (a._den * b._den)"),
        ("suite:dI_commute", "golden:cli_dense", "dense_homotopy"),
    ),
    "integral_weight_plus_one": (
        polyring,
        "_integral_of_products",
        (WEIGHT, "weights = {(i, j): i + j + 2 for i in big for j in small}"),
        ("suite:chain_homotopy", "golden:cli_dense", "dense_homotopy"),
    ),
    "integral_weight_without_j": (
        polyring,
        "_integral_of_products",
        (WEIGHT, "weights = {(i, j): i + 1 for i in big for j in small}"),
        ("suite:dI_commute", "golden:cli_dense", "dense_homotopy"),
    ),
    "endpoint_one_as_zero": (
        Plot,
        "endpoint_map",
        ("if endpoint or key <= low:", "if key <= low:"),
        (
            "suite:chain_homotopy",
            "suite:dI_commute",
            "suite:kernel",
            "suite:injectivity_witness",
            "golden:cli_dense",
        ),
    ),
    "swap_template_exponents": (
        serialize,
        "_poly_text",
        (
            "shifts = range(_W * (count - 1), -1, -_W)",
            "shifts = range(0, _W * count, _W)",
        ),
        ("cli_bytes", "golden:cli_dense"),
    ),
    "drop_contract_sign": (
        SignedMonomials,
        "_differential",
        ("if pos % 2:", "if False:"),
        ("suite:d_squared", "suite:leibniz", "golden:koszul_d"),
    ),
    "drop_insert_sign": (
        SignedMonomials,
        "_differential",
        ("term = df if pos % 2 == 0 else -df", "term = df"),
        (
            "suite:leibniz",
            "suite:dI_commute",
            "golden:gen_d",
            "golden:form_d",
            "dense_homotopy",
        ),
    ),
    "merge_parity_off_by_one": (
        signs,
        "merge_indices",
        ("inversions += len(left) - k", "inversions += len(left) - k + 1"),
        (
            "suite:leibniz",
            "suite:supercomm",
            "suite:dI_commute",
            "golden:wedge_prime",
            "golden:cli_dense",
            "dense_homotopy",
        ),
    ),
}

# Rows that no random suite flags yet, only fixed cases: the explicit
# formula's front and cross terms (no suite yet draws the degrees that
# reach them) and the text writer's exponent order (no suite writes text).
WITHOUT_SUITE = {
    "flip_front_sign",
    "drop_combo",
    "flip_cross_sign",
    "drop_cross_term",
    "swap_template_exponents",
}


def plant(monkeypatch, owner, name, mutant) -> None:
    """Put the mutant in place: on a class, as its method; on a module, in
    every module that holds the original, so names imported elsewhere
    (verify's, the golden cases') see it too."""
    original = getattr(owner, name)
    if isinstance(mutant, tuple):
        line, replacement = mutant
        source = textwrap.dedent(inspect.getsource(original))
        assert source.count(line) == 1
        namespace = dict(vars(sys.modules[original.__module__]))
        source = source.replace(line, replacement)
        exec(compile(source, original.__code__.co_filename, "exec"), namespace)
        mutant = namespace[name]
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, mutant)
        return
    for module in list(sys.modules.values()):
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, mutant)


def flags(check) -> bool:
    try:
        return bool(check())
    except Exception:
        return True


def test_matrix_checks_pass_on_the_real_formulas():
    assert [name for name, check in CHECKS.items() if check()] == []


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_closed_formula_mutations_are_flagged(mutation, monkeypatch):
    owner, name, mutant, checks = MUTATIONS[mutation]
    plant(monkeypatch, owner, name, mutant)
    assert [name for name in checks if not flags(CHECKS[name])] == []


def test_every_row_but_the_listed_names_a_suite():
    without = {
        mutation
        for mutation, (*_, checks) in MUTATIONS.items()
        if not any(check.startswith("suite:") for check in checks)
    }
    assert without == WITHOUT_SUITE


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
    assert line_plot().source == Chart(("t", "u1"))


def test_a_plot_is_the_map_from_its_cylinder(monkeypatch):
    plot = square_plot()
    cylinder = Chart(("t", "u1", "u2"))
    assert isinstance(plot, PolyMap) and plot.source == cylinder
    built = []
    init = Chart.__init__

    def counted(chart, *args):
        built.append(chart)
        init(chart, *args)

    monkeypatch.setattr(Chart, "__init__", counted)
    # the cylinder is built once, by the constructor, not on each read
    assert plot.source is plot.source
    assert built == []


def test_derived_maps_are_not_rechecked(monkeypatch):
    # the Chen integral builds no map, and an endpoint map is built from a
    # plot's own checked components, so neither runs PolyMap's checks again
    plot = line_plot()
    checked = []
    init = PolyMap.__init__

    def counted(poly_map, *args):
        checked.append(poly_map)
        init(poly_map, *args)

    monkeypatch.setattr(PolyMap, "__init__", counted)
    assert chen_integral(dx(X1, 0), plot) == OrdinaryForm.from_poly(U1, U1.var(0))
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    assert ev_pullback(1, f, plot) == OrdinaryForm.from_poly(U1, U1.var(0))
    assert ev_pullback(0, f, plot).is_zero
    assert checked == []
    line_plot()
    assert len(checked) == 1


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
