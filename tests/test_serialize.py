"""JSON interchange: round trips, canonical bytes, and parse rejection."""

import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import python_calls
from golden_cases import dense_instance

import pathforms.serialize
from pathforms.forms import Chart, OrdinaryForm, dx
from pathforms.generalized import GeneralizedForm, pair_encode
from pathforms.koszul import KoszulElement, KoszulParams
from pathforms.pathspace import (
    Chen,
    Diff,
    EvPull,
    PathFormExpr,
    Plot,
    Scale,
    Sum,
    Wedge,
    map_I,
)
from pathforms.polyring import MAX_EXPONENT, MismatchError, Poly
from pathforms.serialize import (
    MAX_EXPR_DEPTH,
    ParseError,
    chart_from_doc,
    chart_to_doc,
    default_domain_chart,
    default_target_chart,
    dumps,
    expr_from_doc,
    expr_to_doc,
    form_from_doc,
    form_to_doc,
    frac_from_str,
    frac_to_str,
    from_doc,
    gen_from_doc,
    gen_to_doc,
    koszul_from_doc,
    koszul_params_from_doc,
    koszul_params_to_doc,
    koszul_to_doc,
    loads,
    plot_from_doc,
    plot_to_doc,
    poly_from_doc,
    poly_to_doc,
    to_doc,
    to_text,
)
from pathforms.verify import GenConfig, gen_random

GOLDEN_DIR = Path(__file__).parent / "golden"

X2 = Chart(("x1", "x2"))


def test_rational_strings():
    assert frac_to_str(Fraction(-3, 4)) == "-3/4"
    assert frac_to_str(Fraction(5)) == "5/1"
    assert frac_from_str("-3/4") == Fraction(-3, 4)
    assert frac_from_str("7") == Fraction(7)
    assert frac_from_str("2/4") == Fraction(1, 2)
    assert frac_from_str("-0/5") == 0
    assert frac_from_str("007/010") == Fraction(7, 10)
    with pytest.raises(ParseError, match=r"^bad rational '1/0': Fraction\(1, 0\)$"):
        frac_from_str("1/0")
    with pytest.raises(
        ParseError, match="^bad rational 'a/b': Invalid literal for Fraction: 'a/b'$"
    ):
        frac_from_str("a/b")
    with pytest.raises(ParseError, match="^expected a rational string, got 0.5$"):
        frac_from_str(0.5)


# A document's rational is -?digits(/digits)? in ASCII.  Fraction() read the
# first ten of these; the rest it refused too, with the same messages.
@pytest.mark.parametrize(
    "text",
    [
        "0.5",
        "1e5",
        "1e10000000",
        "+1/2",
        " 1/2",
        "1/2 ",
        "1/2\n",
        "1_000",
        "\u0661/2",  # ARABIC-INDIC DIGIT ONE
        "\uff11",  # FULLWIDTH DIGIT ONE
        "1/-2",
        "-1/-2",
        "--1",
        "-",
        "",
        "/2",
        "1/",
        "1/2/3",
        "-3/0",
        "9" * 5000,
        "1/" + "9" * 5000,
    ],
)
def test_rational_strings_outside_the_grammar_are_rejected(text):
    with pytest.raises(ParseError, match="^bad rational "):
        frac_from_str(text)


def test_loads_rejects_bad_json():
    with pytest.raises(ParseError):
        loads("{not json")
    assert loads('{"a": 1}') == {"a": 1}


def test_loads_rejects_nesting_past_the_recursion_limit():
    with pytest.raises(ParseError, match="^invalid JSON: nested too deeply$"):
        loads("[" * 100000 + "]" * 100000)


def test_dumps_is_canonical():
    text = dumps({"b": 1, "a": [2]})
    assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    assert dumps({"a": [2], "b": 1}) == text


def reference_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.name
)
def test_dumps_matches_json_on_golden_documents(path):
    text = path.read_text()
    assert dumps(json.loads(text)) == reference_dumps(json.loads(text)) == text


class _Int(int):
    """An int subclass, which json writes by int.__repr__ like an int."""


class _Str(str):
    """A str subclass, which json escapes like a str."""


_tricky_text = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t \u00e9\u2028\ud800\U0001f600a')
    | st.characters()
)
_ints = st.integers(-(10**400), 10**400)
_json_scalars = (
    st.none()
    | st.booleans()
    | _ints
    | _ints.map(_Int)
    | st.floats()
    | st.just(0.0)
    | _tricky_text
    | _tricky_text.map(_Str)
)
# lists of ints, a term list's exps, mixed with bools and int subclasses
_int_lists = st.lists(_ints, max_size=4) | st.lists(
    _ints | st.booleans() | _ints.map(_Int), max_size=4
)
_json_trees = st.recursive(
    _json_scalars | _int_lists,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_tricky_text, children, max_size=4),
    max_leaves=20,
)


@given(_json_trees)
def test_dumps_matches_json_on_generated_trees(doc):
    assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [True, 1],
        [1, True],
        [1, False, 0],
        [_Int(3), 1],
        (1, 2),
        [1.0, 2],
        [],
        [[]],
        [[1], [], {}],
        {"a": [], "b": {}, "c": [[2, 3]]},
        {"exps": [0, 2**70, -1], "coeff": "-3/4"},
        {"k": 'q"u\\o\u00e9te\n', "v": _Str("\u2028"), "n": None, "f": 1.5, "b": True},
    ],
)
def test_dumps_matches_json_on_term_list_shapes(doc):
    assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [{3: "a", -1: [], 10: {}}, {2.5: 1, -0.0: 2}, {None: 1}, {True: 0, False: 1}],
)
def test_dumps_writes_scalar_keys_as_json_does(doc):
    assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("doc", [{(1,): 0}, {"a": 1, 2: 0}, [object()]])
def test_dumps_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        reference_dumps(doc)
    with pytest.raises(TypeError):
        dumps(doc)


def test_poly_round_trip():
    poly = Poly(
        ("x1", "x2"),
        {(2, 0): Fraction(1, 3), (0, 1): Fraction(-2)},
    )
    doc = poly_to_doc(poly)
    assert poly_from_doc(doc, ("x1", "x2")) == poly
    assert poly_from_doc(loads(dumps(doc)), ("x1", "x2")) == poly


# (document over ("x",), the exact message of its ParseError)
POLY_DOC_FAULTS = [
    ({"coeff": "1/1"}, "expected list for a polynomial, got dict"),
    ([[0]], "expected dict for an entry of a polynomial, got list"),
    (
        [{"coeff": "1/1", "exps": [0, 0]}],
        "exponent tuple (0, 0) does not match variables ('x',)",
    ),
    (
        [{"coeff": "1/1", "exps": [-1]}],
        f"exponent -1 outside [0, {MAX_EXPONENT}] in (-1,)",
    ),
    (
        [{"coeff": "1/1", "exps": [2**63]}],
        f"exponent {2**63} outside [0, {MAX_EXPONENT}] in ({2**63},)",
    ),
    ([{"coeff": "1/1", "exps": [True]}], "expected int for a polynomial exps, got bool"),
    (
        [{"coeff": "1/1", "exps": [1]}, {"coeff": "2/1", "exps": [1]}],
        "duplicate exps [1] in a polynomial",
    ),
    ([{"coeff": "1/1"}], "expected list for a polynomial exps, got NoneType"),
    (
        [{"coeff": "a/b", "exps": [0]}],
        "bad rational 'a/b': Invalid literal for Fraction: 'a/b'",
    ),
    ([{"exps": [0]}], "expected a rational string, got None"),
    ([{"coeff": "1/0", "exps": [0]}], "bad rational '1/0': Fraction(1, 0)"),
    # two faults: the first faulty entry in document order is reported,
    # and within an entry its exps before its coeff
    (
        [{"coeff": "1/1", "exps": [0, 0]}, {"coeff": "a/b", "exps": [1]}],
        "exponent tuple (0, 0) does not match variables ('x',)",
    ),
    (
        [{"coeff": "a/b", "exps": [2]}, {"coeff": "1/1", "exps": [-1]}],
        "bad rational 'a/b': Invalid literal for Fraction: 'a/b'",
    ),
    ([{"coeff": "a/b", "exps": [True]}], "expected int for a polynomial exps, got bool"),
]


def test_poly_doc_rejections():
    for doc, message in POLY_DOC_FAULTS:
        with pytest.raises(ParseError) as caught:
            poly_from_doc(doc, ("x",))
        assert str(caught.value) == message


_exponents = st.integers(0, 3) | st.sampled_from([MAX_EXPONENT, MAX_EXPONENT - 1, 2**32])


def _polys_over(names: tuple[str, ...], max_size: int = 6):
    """Polys over the given variables whose numerators and denominators
    reach past 64 bits, some with denominator 1, and whose exponents reach
    MAX_EXPONENT."""
    coeffs = (
        st.fractions(max_denominator=2**80).filter(bool)
        | st.builds(Fraction, st.integers(-(2**100), 2**100), st.integers(1, 2**90))
        | st.integers(-(2**70), 2**70)
    )
    exps = st.tuples(*[_exponents] * len(names))
    terms = st.dictionaries(exps, coeffs, max_size=max_size)
    return terms.map(lambda terms: Poly(names, terms))


def _polys():
    """A Poly over 0-3 variables, as _polys_over draws them."""
    return st.integers(0, 3).flatmap(lambda k: _polys_over(("x", "y", "z")[:k]))


@given(_polys())
def test_poly_docs_round_trip(poly):
    doc = poly_to_doc(poly)
    # the document lists the Fraction view's terms in order, each reduced
    assert doc == [
        {"coeff": f"{c.numerator}/{c.denominator}", "exps": list(exps)}
        for exps, c in poly.terms.items()
    ]
    assert poly_from_doc(doc, poly.variables) == poly
    assert poly_from_doc(loads(dumps(doc)), poly.variables) == poly


_charts = st.integers(0, 3).map(default_target_chart)


def _subsets(n: int):
    """Increasing index tuples below n, the empty one included."""
    return st.sets(st.integers(0, n - 1)).map(sorted).map(tuple) if n else st.just(())


def _forms(chart: Chart):
    """Forms on chart with up to three components, each a _polys_over
    draw: a zero one is dropped, and on a 0-dim chart each is a constant."""
    indices = _subsets(chart.dim)
    components = st.dictionaries(indices, _polys_over(chart.coordinates, 3), max_size=3)
    return components.map(lambda components: OrdinaryForm(chart, components))


@st.composite
def _plots(draw) -> Plot:
    """Plots whose components may be zero, over (t,) alone when m = 0."""
    target, domain = draw(_charts), default_domain_chart(draw(st.integers(0, 2)))
    cylinder = (Plot.time,) + domain.coordinates
    components = [draw(_polys_over(cylinder, 3)) for _ in range(target.dim)]
    return Plot(target, domain, tuple(components))


@st.composite
def _generalized(draw) -> GeneralizedForm:
    chart, n = draw(_charts), draw(st.integers(0, 2))
    params = KoszulParams(tuple(draw(st.lists(st.fractions(), min_size=n, max_size=n))))
    forms = draw(st.dictionaries(_subsets(n), _forms(chart), max_size=2))
    return GeneralizedForm(chart, params, forms)


_any_forms = _charts.flatmap(_forms)
_exprs = st.recursive(
    st.builds(EvPull, st.sampled_from([0, 1]), _any_forms)
    | st.builds(Chen, _any_forms),
    lambda children: st.builds(Wedge, children, children)
    | st.builds(Diff, children)
    | st.builds(Sum, st.lists(children, max_size=3).map(tuple))
    | st.builds(Scale, st.fractions(), children),
    max_leaves=4,
)


@st.composite
def _koszul(draw) -> KoszulElement:
    n = draw(st.integers(0, 3))
    params = KoszulParams(tuple(draw(st.lists(st.fractions(), min_size=n, max_size=n))))
    terms = draw(st.dictionaries(_subsets(n), st.fractions(), max_size=3))
    return KoszulElement(params, terms)


@given(st.one_of(_any_forms, _plots(), _generalized(), _exprs))
def test_to_text_is_the_bytes_of_json_dumps(value):
    expected = json.dumps(to_doc(value), indent=2, sort_keys=True) + "\n"
    assert to_text(value) == expected == dumps(to_doc(value))


@given(st.one_of(_any_forms, _koszul(), _plots(), _generalized(), _exprs))
def test_every_value_reads_back_from_its_text(value):
    doc = loads(to_text(value))
    name = "PathFormExpr" if isinstance(value, PathFormExpr) else type(value).__name__
    decoded = from_doc(name, doc)
    if isinstance(value, Plot):
        # a plot document names its charts by dimension only
        assert to_doc(decoded) == doc
    else:
        assert decoded == value


def test_rendering_the_dense_imap_expression_stays_cheap():
    # the term lists are written straight from the packed keys by one
    # template per shape, with no dict or Python call per term: 158 calls;
    # to_doc's term dicts and their rendering took 875
    expr = map_I(dense_instance()[2])
    to_text(expr)  # fill the template cache
    assert python_calls(to_text, expr) <= 400


@pytest.mark.parametrize("text", ["2/4", "-0/5", "007/010", "-6/9", "0/1", "12"])
def test_unreduced_rationals_decode_as_frac_from_str(text):
    expected = Poly(("x",), {(1,): frac_from_str(text)})
    assert poly_from_doc([{"coeff": text, "exps": [1]}], ("x",)) == expected


@given(
    st.lists(
        st.tuples(
            st.integers(-(2**70), 2**70),
            st.integers(1, 2**70),
            st.integers(0, 3),
            st.integers(0, 3),
        ),
        max_size=5,
    )
)
def test_unreduced_rational_terms_decode_as_frac_from_str(terms):
    # each term's rational is written unreduced, with leading zeros, and
    # the denominators may share factors or cancel a numerator
    texts = [
        ("-" if n < 0 else "") + "0" * zn + str(abs(n)) + "/" + "0" * zd + str(d)
        for n, d, zn, zd in terms
    ]
    doc = [{"coeff": text, "exps": [i]} for i, text in enumerate(texts)]
    expected = Poly(("x",), {(i,): frac_from_str(text) for i, text in enumerate(texts)})
    assert poly_from_doc(doc, ("x",)) == expected


def test_chart_round_trip():
    assert chart_from_doc(chart_to_doc(X2)) == X2
    with pytest.raises(ParseError):
        chart_from_doc(["x", "x"])
    with pytest.raises(ParseError):
        chart_from_doc([1])
    with pytest.raises(ParseError):
        chart_from_doc({"names": []})


def test_form_round_trip():
    form = dx(X2, 0).scale(X2.var(1)) + OrdinaryForm.from_poly(X2, X2.var(0))
    doc = form_to_doc(form)
    assert form_from_doc(doc) == form
    assert form_from_doc(loads(dumps(doc))) == form
    assert form_to_doc(form_from_doc(doc)) == doc


def test_form_doc_rejections():
    good = form_to_doc(dx(X2, 0))
    bad = dict(good, components=[{"indices": [0, 0], "poly": [] }])
    with pytest.raises(ParseError):
        form_from_doc(bad)
    with pytest.raises(ParseError):
        form_from_doc(dict(good, components=[{"indices": [5], "poly": []}]))
    dup = dict(
        good,
        components=[
            {"indices": [0], "poly": [{"coeff": "1/1", "exps": [0, 0]}]},
            {"indices": [0], "poly": [{"coeff": "2/1", "exps": [0, 0]}]},
        ],
    )
    with pytest.raises(ParseError):
        form_from_doc(dup)
    with pytest.raises(ParseError):
        form_from_doc([])


def test_koszul_round_trip():
    params = KoszulParams((Fraction(2), Fraction(-1, 2)))
    element = KoszulElement.generator(params, 0).mul(
        KoszulElement.generator(params, 1)
    ) + KoszulElement.scalar(params, Fraction(1, 3))
    assert koszul_params_from_doc(koszul_params_to_doc(params)) == params
    doc = koszul_to_doc(element)
    assert koszul_from_doc(doc) == element
    assert koszul_from_doc(loads(dumps(doc))) == element


def test_koszul_doc_rejections():
    with pytest.raises(ParseError):
        koszul_params_from_doc({"n": 2, "k": ["1/1"]})
    with pytest.raises(ParseError):
        koszul_params_from_doc({"n": -1, "k": []})
    with pytest.raises(ParseError):
        koszul_params_from_doc({"n": True, "k": ["1/1"]})
    base = {"n": 1, "k": ["2/1"]}
    with pytest.raises(ParseError):
        koszul_from_doc(dict(base, terms=[{"zetas": [3], "coeff": "1/1"}]))
    with pytest.raises(ParseError):
        koszul_from_doc(
            dict(
                base,
                terms=[
                    {"zetas": [0], "coeff": "1/1"},
                    {"zetas": [0], "coeff": "2/1"},
                ],
            )
        )


def test_generalized_round_trip():
    alpha = pair_encode(dx(X2, 0), dx(X2, 0).wedge(dx(X2, 1)), Fraction(3, 2))
    doc = gen_to_doc(alpha)
    assert gen_from_doc(doc) == alpha
    assert gen_from_doc(loads(dumps(doc))) == alpha
    assert gen_to_doc(gen_from_doc(doc)) == doc


def test_generalized_chart_disagreement_is_a_mismatch():
    alpha = pair_encode(dx(X2, 0), OrdinaryForm.zero(X2), 1)
    doc = gen_to_doc(alpha)
    doc["components"][0]["form"]["chart"] = ["y1", "y2"]
    with pytest.raises(MismatchError):
        gen_from_doc(doc)


def test_generalized_doc_rejections():
    alpha = pair_encode(dx(X2, 0), OrdinaryForm.zero(X2), 1)
    doc = gen_to_doc(alpha)
    dup = dict(
        doc,
        components=[doc["components"][0], doc["components"][0]],
    )
    with pytest.raises(ParseError):
        gen_from_doc(dup)
    with pytest.raises(ParseError):
        gen_from_doc(dict(doc, koszul={"n": 1, "k": [1]}))
    bad_zetas = dict(
        doc,
        components=[{"zetas": [4], "form": doc["components"][0]["form"]}],
    )
    with pytest.raises(ParseError):
        gen_from_doc(bad_zetas)


def test_plot_round_trip_invents_names():
    cyl = ("t", "u1")
    plot = Plot(
        default_target_chart(2),
        default_domain_chart(1),
        (Poly.var(cyl, "t") * Poly.var(cyl, "u1"), Poly.var(cyl, "t")),
    )
    doc = plot_to_doc(plot)
    parsed = plot_from_doc(doc)
    assert parsed.target == plot.target
    assert parsed.domain == plot.domain
    assert parsed.components == plot.components
    assert plot_to_doc(parsed) == doc


def test_plot_round_trip_with_supplied_target():
    chart = Chart(("a", "b"))
    cyl = ("t", "u1")
    plot = Plot(
        chart,
        default_domain_chart(1),
        (Poly.var(cyl, "u1"), Poly.var(cyl, "t")),
    )
    parsed = plot_from_doc(plot_to_doc(plot), target=chart)
    assert parsed.target == chart
    assert parsed.components == plot.components
    with pytest.raises(MismatchError):
        plot_from_doc(plot_to_doc(plot), target=Chart(("a",)))


def test_plot_doc_rejections():
    with pytest.raises(ParseError):
        plot_from_doc({"m": 1, "target_dim": "2", "components": []})
    with pytest.raises(ParseError):
        plot_from_doc({"m": -1, "target_dim": 1, "components": []})
    with pytest.raises(ParseError):
        plot_from_doc({"m": 1, "target_dim": 1, "components": [[{"coeff": "1/1", "exps": [0]}]]})
    # arity disagreement with target_dim is a dimension mismatch, not a
    # shape problem: the constructor's MismatchError passes through
    with pytest.raises(MismatchError):
        plot_from_doc({"m": 1, "target_dim": 2, "components": [[]]})


def test_expression_round_trip():
    alpha = pair_encode(dx(X2, 0), dx(X2, 0).wedge(dx(X2, 1)), 2)
    expr = map_I(alpha)
    doc = expr_to_doc(expr)
    assert expr_from_doc(doc) == expr
    assert expr_from_doc(loads(dumps(doc))) == expr
    nested = Wedge(
        Diff(Scale(Fraction(1, 2), Chen(dx(X2, 0)))),
        Sum((EvPull(0, dx(X2, 1)),)),
    )
    assert expr_from_doc(expr_to_doc(nested)) == nested


def test_expression_encoder_rejects_a_non_expression():
    with pytest.raises(TypeError, match="not a path-form expression"):
        expr_to_doc(42)


def test_expression_doc_rejections():
    form_doc = form_to_doc(dx(X2, 0))
    with pytest.raises(ParseError):
        expr_from_doc({"node": "Spiral", "form": form_doc})
    with pytest.raises(ParseError):
        expr_from_doc({"node": "EvPull", "endpoint": 2, "form": form_doc})
    with pytest.raises(ParseError):
        expr_from_doc({"node": "EvPull", "endpoint": True, "form": form_doc})
    with pytest.raises(ParseError):
        expr_from_doc({"node": "Scale", "coeff": 2, "child": {"node": "Sum", "children": []}})
    with pytest.raises(ParseError):
        expr_from_doc([])
    with pytest.raises(ParseError):
        expr_from_doc({"node": ["Sum"], "children": []})


def test_to_doc_dispatches_by_type():
    form = dx(X2, 0)
    params = KoszulParams((Fraction(2),))
    element = KoszulElement.generator(params, 0)
    gen = pair_encode(form, OrdinaryForm.zero(X2), 2)
    plot = gen_random("plot", GenConfig(seed=1))
    expr = map_I(gen)
    assert to_doc(form) == form_to_doc(form)
    assert to_doc(element) == koszul_to_doc(element)
    assert to_doc(gen) == gen_to_doc(gen)
    assert to_doc(plot) == plot_to_doc(plot)
    assert to_doc(expr) == expr_to_doc(expr)
    assert to_doc(Fraction(-3, 4)) == "-3/4"
    assert to_doc((1, "w", Fraction(1, 2))) == [1, "w", "1/2"]


@pytest.mark.parametrize("value", [0.5, True, None, [1], {"a": 1}, object()])
def test_to_doc_rejects_unsupported_values(value):
    with pytest.raises(TypeError):
        to_doc(value)


@pytest.mark.parametrize(
    "encode, value",
    [
        (form_to_doc, KoszulElement.generator(KoszulParams((Fraction(2),)), 0)),
        (form_to_doc, None),
        (koszul_to_doc, dx(X2, 0)),
        (gen_to_doc, dx(X2, 0)),
        (plot_to_doc, dx(X2, 0)),
        (expr_to_doc, dx(X2, 0)),
    ],
    ids=lambda arg: getattr(arg, "__name__", type(arg).__name__),
)
def test_per_type_encoders_refuse_other_types(encode, value):
    with pytest.raises(TypeError, match="^not a"):
        encode(value)


def test_public_encoders_take_the_value_alone():
    # each codes its polynomials one way; to_text's writer stays private
    names = [
        name
        for name, value in vars(pathforms.serialize).items()
        if name.endswith("to_doc") and not name.startswith("_") and callable(value)
    ]
    assert {"to_doc", "form_to_doc", "gen_to_doc", "plot_to_doc", "expr_to_doc"} <= set(names)
    for name in names:
        parameters = inspect.signature(getattr(pathforms.serialize, name)).parameters
        assert len(parameters) == 1, name


def test_from_doc_mirrors_to_doc():
    gen = pair_encode(dx(X2, 0), dx(X2, 0).wedge(dx(X2, 1)), 2)
    expr = map_I(gen)
    plot = gen_random("plot", GenConfig(seed=1))
    values = {
        "OrdinaryForm": dx(X2, 1),
        "KoszulElement": KoszulElement.generator(KoszulParams((Fraction(2),)), 0),
        "GeneralizedForm": gen,
        "PathFormExpr": expr,
        "tuple[PathFormExpr, ...]": expr.children,
        "Fraction": Fraction(-3, 4),
        "int": 1,
    }
    for name, value in values.items():
        assert from_doc(name, to_doc(value)) == value
    assert from_doc("Plot", to_doc(plot), plot.target) == plot
    assert from_doc("Plot", to_doc(plot)) == plot_from_doc(to_doc(plot))


@pytest.mark.parametrize("doc", [True, 1.0, "1", None])
def test_from_doc_int_is_strict(doc):
    with pytest.raises(ParseError):
        from_doc("int", doc)


def test_too_deep_expression_is_a_parse_error():
    doc = {"node": "Sum", "children": []}
    for _ in range(5000):
        doc = {"node": "Diff", "child": doc}
    with pytest.raises(ParseError):
        expr_from_doc(doc)


def test_expression_codecs_visit_each_node_once():
    def chain(depth):
        expr = Chen(dx(X2, 0))
        for _ in range(depth):
            expr = Diff(expr)
        return expr

    short, deep = chain(50), chain(200)
    # linear work gives 4x; counting the depth below every node gave 13-15x
    assert python_calls(expr_to_doc, deep) <= 5 * python_calls(expr_to_doc, short)
    short, deep = expr_to_doc(short), expr_to_doc(deep)
    assert python_calls(expr_from_doc, deep) <= 5 * python_calls(expr_from_doc, short)


def test_a_deep_node_chain_is_refused_at_the_depth_limit():
    # built in Python rather than by loads, so no JSON limit cuts it short:
    # the descent stops one level past the limit, whatever lies below
    def chain(depth):
        doc = {"node": "Sum", "children": []}
        for _ in range(depth):
            doc = {"node": "Diff", "child": doc}
        return doc

    def refuse(doc):
        with pytest.raises(ParseError, match="nested deeper"):
            expr_from_doc(doc)

    refuse(chain(201))  # warm the caches of pytest.raises's match
    assert python_calls(refuse, chain(10_000)) == python_calls(refuse, chain(201))


@pytest.mark.parametrize("node", ["Diff", "Sum", "Scale", "Wedge"])
def test_expression_depth_limit_holds_both_ways(node):
    leaf = Chen(dx(X2, 0))
    wrap, wrap_doc = {
        "Diff": (Diff, lambda child: {"node": "Diff", "child": child}),
        "Sum": (lambda child: Sum((child,)), lambda child: {"node": "Sum", "children": [child]}),
        "Scale": (
            lambda child: Scale(Fraction(2), child),
            lambda child: {"node": "Scale", "coeff": "2/1", "child": child},
        ),
        "Wedge": (
            lambda child: Wedge(leaf, child),
            lambda child: {"node": "Wedge", "left": expr_to_doc(leaf), "right": child},
        ),
    }[node]
    expr = leaf
    for _ in range(MAX_EXPR_DEPTH):
        expr = wrap(expr)
    doc = expr_to_doc(expr)
    assert expr_from_doc(loads(dumps(doc))) == expr
    assert expr_from_doc(wrap_doc(expr_to_doc(leaf))) == wrap(leaf)
    with pytest.raises(ValueError, match="nested deeper"):
        expr_to_doc(wrap(expr))
    with pytest.raises(ParseError, match="nested deeper"):
        expr_from_doc(wrap_doc(doc))


def test_to_doc_refuses_a_bare_poly():
    # its term list carries no variables; poly_to_doc codes it inside a
    # form or plot document instead
    poly = gen_random("poly", GenConfig(), index=0)
    with pytest.raises(TypeError, match="^no document for Poly value Poly"):
        to_doc(poly)


def test_random_values_round_trip():
    cfg = GenConfig(seed=13)
    for i in range(10):
        form = gen_random("form", cfg, index=i)
        assert form_from_doc(form_to_doc(form)) == form
        gen = gen_random("genform", cfg, index=i)
        assert gen_from_doc(gen_to_doc(gen)) == gen
        plot = gen_random("plot", cfg, index=i)
        parsed = plot_from_doc(plot_to_doc(plot), target=plot.target)
        assert parsed.components == plot.components


def test_equal_values_serialize_to_equal_bytes():
    cfg = GenConfig(seed=13)
    gen = gen_random("genform", cfg, index=3)
    rebuilt = gen_from_doc(gen_to_doc(gen))
    assert dumps(gen_to_doc(rebuilt)) == dumps(gen_to_doc(gen))
