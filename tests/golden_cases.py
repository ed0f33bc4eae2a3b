"""One golden case per public operation.

Each builder computes the documented examples of one operation, asserts
the hand-checked values inline, and returns a JSON document; the golden
files pin the serialized bytes.  Because the asserts run on every
regeneration, a golden file cannot silently drift away from the
arithmetic it records.
"""

import itertools
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from poly_oracles import drop_var, set_var
from pathforms.cli import main
from pathforms.forms import Chart, OrdinaryForm, PolyMap, dx
from pathforms.generalized import GeneralizedForm, pair_decode, pair_encode
from pathforms.koszul import KoszulElement, KoszulParams
from pathforms.pathspace import (
    Chen,
    Plot,
    chen_integral,
    decompose,
    ev_pullback,
    eval_pathform,
    map_I,
    wedge_prime,
    wedge_prime_explicit,
    zero_expr,
)
from pathforms.polyring import Poly
from pathforms.serialize import (
    dumps,
    expr_to_doc,
    form_to_doc,
    gen_to_doc,
    koszul_to_doc,
    loads,
    plot_to_doc,
    poly_to_doc,
    to_doc,
)
from pathforms.verify import GenConfig, gen_random, run_suite

X1 = Chart(("x1",))
X2 = Chart(("x1", "x2"))
U1 = Chart(("u1",))


def _line_plot() -> Plot:
    cyl = ("t", "u1")
    return Plot(X1, U1, (Poly.var(cyl, "t") * Poly.var(cyl, "u1"),))


def _normalized(report) -> dict:
    doc = report.to_doc()
    doc["elapsed"] = 0.0
    return doc


def case_poly_add() -> dict:
    x = Poly.var(("x",), "x")
    cancel = (x + 1) + (x - 1)
    assert cancel == x * 2
    p = x * x + 3
    xy = ("x", "y")
    x2y = Poly(xy, {(2, 1): Fraction(1)})
    summed = x2y + x2y * Fraction(3, 2)
    assert summed == Poly(xy, {(2, 1): Fraction(5, 2)})
    return {
        "cancellation": poly_to_doc(cancel),
        "identity": poly_to_doc(Poly.zero(("x",)) + p),
        "coefficients": poly_to_doc(summed),
    }


def case_poly_mul() -> dict:
    xy = ("x", "y")
    x = Poly.var(xy, "x")
    y = Poly.var(xy, "y")
    diff = (x + y) * (x - y)
    assert diff == x * x - y * y
    p = x * y + 2
    return {
        "difference_of_squares": poly_to_doc(diff),
        "unit": poly_to_doc(Poly.const(xy, 1) * p),
        "annihilator": poly_to_doc(Poly.zero(xy) * p),
    }


def case_poly_pderiv() -> dict:
    xy = ("x", "y")
    x = Poly.var(xy, "x")
    y = Poly.var(xy, "y")
    first = (x * x * y).pderiv("x")
    assert first == x * y * 2
    third = (x * x + y * y * y).pderiv("y")
    assert third == y * y * 3
    return {
        "product": poly_to_doc(first),
        "constant": poly_to_doc(Poly.const(xy, 7).pderiv("x")),
        "sum": poly_to_doc(third),
    }


def case_poly_compose() -> dict:
    tu = ("t", "u")
    x = Poly.var(("x",), "x")
    t = Poly.var(tu, "t")
    u = Poly.var(tu, "u")
    squared = (x * x).compose({"x": t * u})
    assert squared == t * t * u * u
    xy = ("x", "y")
    p = Poly(xy, {(2, 1): Fraction(1), (0, 0): Fraction(-2)})
    identity = p.compose({"x": Poly.var(xy, "x"), "y": Poly.var(xy, "y")})
    assert identity == p
    collapsed = (Poly.var(xy, "x") + Poly.var(xy, "y")).compose(
        {"x": Poly.zero(tu), "y": Poly.zero(tu)}
    )
    assert collapsed.is_zero
    return {
        "line": poly_to_doc(squared),
        "identity": poly_to_doc(identity),
        "zeros": poly_to_doc(collapsed),
    }


def case_poly_defint() -> dict:
    tu = ("t", "u")
    t = Poly.var(tu, "t")
    u = Poly.var(tu, "u")
    third = (t * t).defint01("t")
    assert third == Poly.const(tu, Fraction(1, 3))
    assert u.defint01("t") == u
    linear = (t * u * 2).defint01("t")
    assert linear == u
    return {
        "square": poly_to_doc(third),
        "constant_in_t": poly_to_doc(u.defint01("t")),
        "linear": poly_to_doc(linear),
    }


def case_form_wedge() -> dict:
    d12 = dx(X2, 0).wedge(dx(X2, 1))
    assert dx(X2, 1).wedge(dx(X2, 0)) == -d12
    repeated = dx(X2, 0).wedge(dx(X2, 0))
    assert repeated.is_zero
    scaled = dx(X2, 0).scale(X2.var(1)).wedge(dx(X2, 1).scale(X2.var(0)))
    assert scaled == d12.scale(X2.var(0) * X2.var(1))
    return {
        "straight": form_to_doc(d12),
        "transposed": form_to_doc(dx(X2, 1).wedge(dx(X2, 0))),
        "repeated": form_to_doc(repeated),
        "coefficients": form_to_doc(scaled),
    }


def case_form_d() -> dict:
    f = OrdinaryForm.from_poly(X2, X2.var(0) * X2.var(1))
    first = f.d()
    assert first == dx(X2, 0).scale(X2.var(1)) + dx(X2, 1).scale(X2.var(0))
    assert first.d().is_zero
    oriented = dx(X2, 0).scale(X2.var(1)).d()
    assert oriented == -dx(X2, 0).wedge(dx(X2, 1))
    return {
        "product_rule": form_to_doc(first),
        "twice": form_to_doc(first.d()),
        "orientation": form_to_doc(oriented),
    }


def case_form_pullback() -> dict:
    cyl = Chart(("t", "u"))
    line = PolyMap(cyl, X1, (cyl.var(0) * cyl.var(1),))
    pulled = line.pullback(dx(X1, 0))
    assert pulled == dx(cyl, 0).scale(cyl.var(1)) + dx(cyl, 1).scale(cyl.var(0))
    w = dx(X2, 0).scale(X2.var(1))
    assert PolyMap.identity(X2).pullback(w) == w
    f = OrdinaryForm.from_poly(X1, X1.var(0) * X1.var(0))
    composed = line.pullback(f)
    assert composed == OrdinaryForm.from_poly(
        cyl, cyl.var(0) * cyl.var(0) * cyl.var(1) * cyl.var(1)
    )
    return {
        "line": form_to_doc(pulled),
        "identity": form_to_doc(PolyMap.identity(X2).pullback(w)),
        "function": form_to_doc(composed),
    }


def case_koszul_mul() -> dict:
    one = KoszulParams((Fraction(2),))
    zeta = KoszulElement.generator(one, 0)
    assert zeta.mul(zeta).is_zero
    two = KoszulParams((Fraction(2), Fraction(3)))
    z0 = KoszulElement.generator(two, 0)
    z1 = KoszulElement.generator(two, 1)
    straight = z0.mul(z1)
    assert z1.mul(z0) == -straight
    mixed = KoszulElement.scalar(two, 1).mul(straight + z0)
    assert mixed == straight + z0
    return {
        "square": koszul_to_doc(zeta.mul(zeta)),
        "straight": koszul_to_doc(straight),
        "transposed": koszul_to_doc(z1.mul(z0)),
        "unit": koszul_to_doc(mixed),
    }


def case_koszul_d() -> dict:
    one = KoszulParams((Fraction(2),))
    single = KoszulElement.generator(one, 0).d()
    assert single == KoszulElement.scalar(one, 2)
    two = KoszulParams((Fraction(2), Fraction(3)))
    z0 = KoszulElement.generator(two, 0)
    z1 = KoszulElement.generator(two, 1)
    pair = z0.mul(z1).d()
    assert pair == z1.scale(2) - z0.scale(3)
    assert pair.d().is_zero
    return {
        "generator": koszul_to_doc(single),
        "pair": koszul_to_doc(pair),
        "twice": koszul_to_doc(pair.d()),
    }


def case_gen_wedge() -> dict:
    k = Fraction(1)
    a = pair_encode(dx(X2, 0), dx(X2, 0).wedge(dx(X2, 1)), k)
    b = pair_encode(dx(X2, 1), OrdinaryForm.zero(X2), k)
    product = a.wedge(b)
    # (a_p b_q, a_p b_{q+1} + (-1)^q a_{p+1} b_q) with p = q = 1: the
    # second slot dies because both its wedges repeat an index
    assert product.forms().get(()) == dx(X2, 0).wedge(dx(X2, 1))
    assert product.forms().get((0,)) is None
    unit = GeneralizedForm.one(X2, a.params)
    assert unit.wedge(a) == a
    x = OrdinaryForm.from_poly(X1, X1.var(0))
    alpha = pair_encode(x, dx(X1, 0), 1)
    square = alpha.wedge(alpha)
    assert square == pair_encode(
        OrdinaryForm.from_poly(X1, X1.var(0) * X1.var(0)),
        dx(X1, 0).scale(X1.var(0) * 2),
        1,
    )
    return {
        "closed_formula": gen_to_doc(product),
        "unit": gen_to_doc(unit.wedge(a)),
        "square": gen_to_doc(square),
    }


def case_gen_d() -> dict:
    x1 = OrdinaryForm.from_poly(X2, X2.var(0))
    alpha = pair_encode(x1, dx(X2, 0).scale(X2.var(1)), 2)
    first = alpha.d()
    assert first == pair_encode(
        dx(X2, 0).scale(X2.const(1) - X2.var(1) * 2),
        -dx(X2, 0).wedge(dx(X2, 1)),
        2,
    )
    assert first.d().is_zero
    params = KoszulParams((Fraction(2),))
    zeta = GeneralizedForm.zeta(X2, params, 0)
    assert zeta.d() == GeneralizedForm.one(X2, params).scale(Fraction(2))
    return {
        "pair_formula": gen_to_doc(first),
        "twice": gen_to_doc(first.d()),
        "generator": gen_to_doc(zeta.d()),
    }


def case_pair_encode() -> dict:
    f = OrdinaryForm.from_poly(X2, X2.var(0) * X2.var(1))
    negative = pair_encode(OrdinaryForm.zero(X2), f, 3)
    assert negative.degree() == -1
    w = dx(X2, 0)
    embedded = pair_encode(w, OrdinaryForm.zero(X2), 3)
    assert embedded.degrees() == {1}
    both = pair_encode(w, dx(X2, 0).wedge(dx(X2, 1)), 3)
    assert pair_decode(both) == (w, dx(X2, 0).wedge(dx(X2, 1)))
    return {
        "delayed": gen_to_doc(negative),
        "embedded": gen_to_doc(embedded),
        "round_trip": gen_to_doc(both),
    }


def case_pair_decode() -> dict:
    w = dx(X2, 0)
    first, second = pair_decode(pair_encode(w, OrdinaryForm.zero(X2), 2))
    assert (first, second) == (w, OrdinaryForm.zero(X2))
    f = OrdinaryForm.from_poly(X2, X2.var(1))
    third, fourth = pair_decode(pair_encode(OrdinaryForm.zero(X2), f, 2))
    assert (third, fourth) == (OrdinaryForm.zero(X2), f)
    x1 = OrdinaryForm.from_poly(X2, X2.var(0))
    alpha = pair_encode(x1, dx(X2, 0).scale(X2.var(1)), 2)
    da, da_next = pair_decode(alpha.d())
    assert da == dx(X2, 0).scale(X2.const(1) - X2.var(1) * 2)
    assert da_next == -dx(X2, 0).wedge(dx(X2, 1))
    return {
        "embedded": {"first": form_to_doc(first), "second": form_to_doc(second)},
        "delayed": {"first": form_to_doc(third), "second": form_to_doc(fourth)},
        "differential": {"first": form_to_doc(da), "second": form_to_doc(da_next)},
    }


def case_decompose() -> dict:
    plot = _line_plot()
    cyl = plot.source
    pulled = plot.pullback(dx(X1, 0))
    wdot, wbar = decompose(pulled, "t")
    assert wdot == OrdinaryForm.from_poly(cyl, cyl.var(1))
    assert wbar == dx(cyl, 1).scale(cyl.var(0))
    still = dx(cyl, 1).scale(cyl.var(0))
    sdot, sbar = decompose(still, "t")
    assert sdot.is_zero and sbar == still
    pdot, pbar = decompose(dx(cyl, 0).wedge(dx(cyl, 1)), "t")
    assert pdot == dx(cyl, 1) and pbar.is_zero
    return {
        "line": {"wdot": form_to_doc(wdot), "wbar": form_to_doc(wbar)},
        "no_dt": {"wdot": form_to_doc(sdot), "wbar": form_to_doc(sbar)},
        "pure_dt": {"wdot": form_to_doc(pdot), "wbar": form_to_doc(pbar)},
    }


def case_chen_integral() -> dict:
    plot = _line_plot()
    u = OrdinaryForm.from_poly(U1, U1.var(0))
    assert chen_integral(dx(X1, 0), plot) == u
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    assert chen_integral(f, plot).is_zero
    half = chen_integral(dx(X1, 0).scale(X1.var(0)), plot)
    assert half == OrdinaryForm.from_poly(U1, U1.var(0) * U1.var(0)).scale(
        Fraction(1, 2)
    )
    return {
        "one_form": form_to_doc(chen_integral(dx(X1, 0), plot)),
        "function": form_to_doc(chen_integral(f, plot)),
        "linear_coefficient": form_to_doc(half),
    }


def case_ev_pullback() -> dict:
    plot = _line_plot()
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    at_one = ev_pullback(1, f, plot)
    at_zero = ev_pullback(0, f, plot)
    assert at_one == OrdinaryForm.from_poly(U1, U1.var(0))
    assert at_zero.is_zero
    squared = ev_pullback(1, OrdinaryForm.from_poly(X1, X1.var(0) * X1.var(0)), plot)
    assert squared == OrdinaryForm.from_poly(U1, U1.var(0) * U1.var(0))
    w = dx(X1, 0).scale(X1.var(0))
    _, wbar = decompose(plot.pullback(w), "t")
    for endpoint in (0, 1):
        frozen = OrdinaryForm(
            U1,
            {
                tuple(i - 1 for i in idx): drop_var(set_var(poly, "t", endpoint), "t")
                for idx, poly in wbar.components.items()
            },
        )
        assert ev_pullback(endpoint, w, plot) == frozen
    return {
        "at_one": form_to_doc(at_one),
        "at_zero": form_to_doc(at_zero),
        "function": form_to_doc(squared),
    }


def case_map_I() -> dict:
    f = OrdinaryForm.from_poly(X1, X1.var(0))
    delayed = pair_encode(OrdinaryForm.zero(X1), f, 2)
    assert map_I(delayed) == zero_expr()
    plain = pair_encode(dx(X1, 0), OrdinaryForm.zero(X1), 2)
    degree_zero = pair_encode(f, dx(X1, 0), 3)
    expr = map_I(degree_zero)
    doc = expr_to_doc(expr)
    assert doc["children"][2]["coeff"] == "-3/1"
    return {
        "delayed": expr_to_doc(map_I(delayed)),
        "no_integral_part": expr_to_doc(map_I(plain)),
        "degree_zero": doc,
    }


def case_eval_pathform() -> dict:
    plot = _line_plot()
    f = OrdinaryForm.from_poly(X1, X1.var(0) * X1.var(0))
    k = Fraction(2)
    kernel = pair_encode(f, f.d().scale(1 / k), k)
    killed = eval_pathform(map_I(kernel), plot)
    assert killed.is_zero
    empty = eval_pathform(zero_expr(), plot)
    assert empty.is_zero
    integrated = eval_pathform(Chen(dx(X1, 0)), plot)
    assert integrated == OrdinaryForm.from_poly(U1, U1.var(0))
    return {
        "kernel": form_to_doc(killed),
        "zero_expression": form_to_doc(empty),
        "chen": form_to_doc(integrated),
    }


def case_wedge_prime() -> dict:
    X3 = Chart(("x1", "x2", "x3"))
    U2 = Chart(("u1", "u2"))
    a = pair_encode(dx(X3, 2).scale(X3.var(2)), OrdinaryForm.zero(X3), 1)
    b = pair_encode(dx(X3, 0).scale(X3.var(1)), dx(X3, 0).wedge(dx(X3, 1)), 1)
    cyl = ("t", "u1", "u2")
    t = Poly.var(cyl, "t")
    plot = Plot(X3, U2, (t * Poly.var(cyl, "u1"), t * Poly.var(cyl, "u2"), t * t))
    value = eval_pathform(wedge_prime(a, b), plot)
    explicit = eval_pathform(wedge_prime_explicit(a, b), plot)
    assert value == explicit
    assert value == dx(U2, 0).wedge(dx(U2, 1)).scale(Fraction(-1, 3))
    flipped = eval_pathform(wedge_prime(b, a), plot)
    assert flipped == -value  # graded commutativity with p = q = 1
    return {
        "expression": expr_to_doc(wedge_prime(a, b)),
        "evaluated": form_to_doc(value),
        "explicit_evaluated": form_to_doc(explicit),
    }


def case_run_suite() -> dict:
    passing = run_suite("chain_homotopy", GenConfig(seed=1, trials=50))
    assert passing.passed and passing.trials == 50
    vacuous = run_suite("d_squared", GenConfig(seed=1, trials=0))
    assert vacuous.passed and vacuous.trials == 0
    clean = run_suite("kernel", GenConfig(seed=7, trials=20))
    assert clean.passed
    mutated = run_suite(
        "kernel", GenConfig(seed=7, trials=20), mutation="perturb_element"
    )
    assert not mutated.passed
    return {
        "chain_homotopy": _normalized(passing),
        "vacuous": _normalized(vacuous),
        "kernel_clean": _normalized(clean),
        "kernel_mutated": _normalized(mutated),
    }


def case_gen_random() -> dict:
    cfg = GenConfig(seed=0)
    samples = {}
    for kind in ("poly", "form", "genform", "plot"):
        first = gen_random(kind, cfg, index=0)
        again = gen_random(kind, cfg, index=0)
        if kind == "poly":
            assert first == again
            samples[kind] = poly_to_doc(first)
        elif kind == "form":
            assert first == again
            samples[kind] = form_to_doc(first)
        elif kind == "genform":
            assert first == again
            samples[kind] = gen_to_doc(first)
        else:
            assert first.components == again.components
            for poly in first.components:
                assert max(
                    (exps[0] for exps in poly.terms), default=0
                ) <= cfg.poly_deg
            samples[kind] = plot_to_doc(first)
    small = GenConfig(seed=0, chart_dim=2)
    overflow = gen_random("form", small, degree=3)
    assert overflow.is_zero
    samples["degree_overflow"] = form_to_doc(overflow)
    return samples


def case_cli_dispatch() -> dict:
    f = OrdinaryForm.from_poly(X2, X2.var(0) * X2.var(1))
    plot = _line_plot()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "f.json").write_text(dumps(form_to_doc(f)))
        (base / "dx.json").write_text(dumps(form_to_doc(dx(X1, 0))))
        (base / "plot.json").write_text(dumps(plot_to_doc(plot)))

        status = main(["d", str(base / "f.json"), "--out", str(base / "df.json")])
        assert status == 0
        d_doc = loads((base / "df.json").read_text())
        assert d_doc == form_to_doc(f.d())

        status = main(
            [
                "chen",
                str(base / "dx.json"),
                str(base / "plot.json"),
                "--out",
                str(base / "chen.json"),
            ]
        )
        assert status == 0
        chen_doc = loads((base / "chen.json").read_text())
        assert chen_doc == form_to_doc(OrdinaryForm.from_poly(U1, U1.var(0)))

        status = main(
            [
                "verify",
                "--suite",
                "all",
                "--seed",
                "1",
                "--trials",
                "100",
                "--out",
                str(base / "verify.json"),
            ]
        )
        assert status == 0
        verify_doc = loads((base / "verify.json").read_text())
        assert verify_doc["passed"] is True
        for report in verify_doc["reports"]:
            report["elapsed"] = 0.0
    return {"d": d_doc, "chen": chen_doc, "verify": verify_doc}


def _full_poly(rng: random.Random, variables: tuple[str, ...], degree: int) -> Poly:
    """Every monomial of total degree <= degree, with a nonzero coefficient."""
    return Poly(
        variables,
        {
            exps: Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
            for exps in itertools.product(range(degree + 1), repeat=len(variables))
            if sum(exps) <= degree
        },
    )


def _full_form(rng: random.Random, chart: Chart, degree: int) -> OrdinaryForm:
    """A form with every component of the given degree, each full to degree 2."""
    return OrdinaryForm(
        chart,
        {
            indices: _full_poly(rng, chart.coordinates, 2)
            for indices in itertools.combinations(range(chart.dim), degree)
        },
    )


def dense_instance() -> tuple[OrdinaryForm, Plot, GeneralizedForm]:
    """(w, plot, alpha) from a fixed seed: a 2-form w on a 3-dim chart and
    a plot over (t, u1, u2), every polynomial full to degree 2, and
    alpha = w1 + w z with a full 1-form w1 and k = -3/2."""
    rng = random.Random("cli-dense:0")
    X3 = Chart(("x1", "x2", "x3"))
    cylinder = ("t", "u1", "u2")
    w = _full_form(rng, X3, 2)
    plot = Plot(
        X3,
        Chart(cylinder[1:]),
        tuple(_full_poly(rng, cylinder, 2) for _ in range(X3.dim)),
    )
    return w, plot, pair_encode(_full_form(rng, X3, 1), w, Fraction(-3, 2))


def dense_verb_texts(prefill=None) -> dict[str, tuple[str, str]]:
    """Each document verb's --out text on the dense instance, paired with
    json.dumps's text of the document of the value the verb computes.
    With prefill, the --out file holds prefill(that text) before each verb."""
    w, plot, alpha = dense_instance()
    w1, _ = pair_decode(alpha)
    dalpha, expr = alpha.d(), map_I(alpha)
    verbs = {
        "d": (["d", "w"], w.d()),
        "wedge": (["wedge", "w1", "w"], w1.wedge(w)),
        "gd": (["gd", "alpha"], dalpha),
        "gwedge": (["gwedge", "alpha", "dalpha"], alpha.wedge(dalpha)),
        "chen": (["chen", "w", "plot"], chen_integral(w, plot)),
        "ev0": (["ev", "w", "plot", "--endpoint", "0"], ev_pullback(0, w, plot)),
        "ev1": (["ev", "w", "plot", "--endpoint", "1"], ev_pullback(1, w, plot)),
        "imap": (["imap", "alpha"], expr),
        "wedge-prime": (["wedge-prime", "alpha", "dalpha"], wedge_prime(alpha, dalpha)),
        "eval": (["eval", "expr", "plot"], eval_pathform(expr, plot)),
    }
    inputs = {"w": w, "w1": w1, "plot": plot, "alpha": alpha, "dalpha": dalpha}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        names = (*inputs, "expr", "out")
        path = {name: str(Path(tmp) / f"{name}.json") for name in names}
        for name, value in (*inputs.items(), ("expr", expr)):
            Path(path[name]).write_text(dumps(to_doc(value)))
        for name, (argv, value) in verbs.items():
            argv = [path.get(arg, arg) for arg in argv]
            expected = json.dumps(to_doc(value), indent=2, sort_keys=True) + "\n"
            if prefill is not None:
                Path(path["out"]).write_text(prefill(expected))
            assert main(argv + ["--out", path["out"]]) == 0
            out[name] = (Path(path["out"]).read_text(), expected)
    return out


def case_cli_dense() -> dict:
    """The CLI's path-space verbs on the dense instance."""
    w, plot, alpha = dense_instance()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        names = ("w", "plot", "alpha", "chen", "ev0", "ev1", "imap", "eval")
        path = {name: str(Path(tmp) / f"{name}.json") for name in names}
        for name, doc in (
            ("w", form_to_doc(w)),
            ("plot", plot_to_doc(plot)),
            ("alpha", gen_to_doc(alpha)),
        ):
            Path(path[name]).write_text(dumps(doc))
        verbs = {
            "chen": ["chen", path["w"], path["plot"]],
            "ev0": ["ev", path["w"], path["plot"], "--endpoint", "0"],
            "ev1": ["ev", path["w"], path["plot"], "--endpoint", "1"],
            "imap": ["imap", path["alpha"]],
            "eval": ["eval", path["imap"], path["plot"]],
        }
        for name, argv in verbs.items():
            assert main(argv + ["--out", path[name]]) == 0
            out[name] = loads(Path(path[name]).read_text())
    w1, _ = pair_decode(alpha)
    assert out["chen"] == form_to_doc(chen_integral(w, plot))
    assert out["imap"] == expr_to_doc(map_I(alpha))
    ends = ev_pullback(1, w1, plot) - ev_pullback(0, w1, plot)
    assert out["eval"] == form_to_doc(ends + chen_integral(w, plot).scale(Fraction(-3, 2)))
    assert out["ev1"] == form_to_doc(ev_pullback(1, w, plot))
    return out


CASES = {
    "poly_add": case_poly_add,
    "poly_mul": case_poly_mul,
    "poly_pderiv": case_poly_pderiv,
    "poly_compose": case_poly_compose,
    "poly_defint": case_poly_defint,
    "form_wedge": case_form_wedge,
    "form_d": case_form_d,
    "form_pullback": case_form_pullback,
    "koszul_mul": case_koszul_mul,
    "koszul_d": case_koszul_d,
    "gen_wedge": case_gen_wedge,
    "gen_d": case_gen_d,
    "pair_encode": case_pair_encode,
    "pair_decode": case_pair_decode,
    "decompose": case_decompose,
    "chen_integral": case_chen_integral,
    "ev_pullback": case_ev_pullback,
    "map_I": case_map_I,
    "eval_pathform": case_eval_pathform,
    "wedge_prime": case_wedge_prime,
    "run_suite": case_run_suite,
    "gen_random": case_gen_random,
    "cli_dispatch": case_cli_dispatch,
    "cli_dense": case_cli_dense,
}
