"""JSON interchange for every value the package computes with.

One document shape per type, rationals as "num/den" strings so nothing
is ever rounded in transit, and all indices 0-based:

    Poly        [{"coeff": "num/den", "exps": [e0, e1, ...]}, ...]
    Form        {"chart": [names], "components": [{"indices": [...], "poly": ...}]}
    Koszul      {"n": n, "k": ["num/den", ...], "terms": [{"zetas": [...], "coeff": ...}]}
    Generalized {"chart": [...], "koszul": {"n": ..., "k": [...]},
                 "components": [{"zetas": [...], "form": <Form>}]}
    Plot        {"m": m, "target_dim": N, "components": [<Poly over (t, u1..um)>]}
    Expression  {"node": "EvPull"|"Chen"|"Wedge"|"Diff"|"Sum"|"Scale", ...}

Plot documents carry dimensions only; parsing one invents the names
t, u1..um and x1..xN unless a target chart is supplied.  to_doc() encodes
any value by its type and from_doc() decodes by type name.  dumps() is the
single canonical renderer (sorted keys, two-space indent, trailing
newline) so equal values always serialize to identical bytes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable, Iterable, Mapping

from .forms import Chart, OrdinaryForm
from .generalized import GeneralizedForm
from .koszul import KoszulElement, KoszulParams
from .pathspace import (
    Chen,
    Diff,
    EvPull,
    PathFormExpr,
    Plot,
    Scale,
    Sum,
    Wedge,
)
from .polyring import MismatchError, Poly


class ParseError(ValueError):
    """A document does not match its declared shape."""


def dumps(doc: Any) -> str:
    """doc as canonical text: exactly the bytes of
    json.dumps(doc, indent=2, sort_keys=True) + "\n", rendered in one
    recursive pass whose strings are escaped by json's C encoder (with an
    indent, json.dumps runs its pure-Python encoder)."""
    parts: list[str] = []
    _render(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _render(value: Any, newline: str, emit: Callable[[str], Any]) -> None:
    """Emit value's text, its nested lines starting with newline plus two
    spaces: json.dumps's rules for indent=2 and sort_keys=True."""
    if isinstance(value, str):
        emit(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                # json's key rule: an int, float, bool or None key is written
                # as its JSON text in quotes, any other key is a TypeError
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}"
                    )
                key = json.dumps(key)
            emit(sep)
            emit(_encode_str(key))
            emit(": ")
            _render(item, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _render(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif type(value) is int:
        emit(int.__repr__(value))
    else:
        emit(json.dumps(value))


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as e:  # bad syntax, or an integer past int()'s digit limit
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply") from e


def _construct(make: Callable[..., Any], *args: Any) -> Any:
    """make(*args), with a ValueError other than a MismatchError reported as
    a ParseError: the document's values fail the constructor's own checks."""
    try:
        return make(*args)
    except MismatchError:
        raise
    except ValueError as e:
        raise ParseError(str(e)) from e


# -- rationals ----------------------------------------------------------------


def frac_to_str(value: Fraction) -> str:
    """The text "num/den"; past int()'s digit limit, a ValueError naming it."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"a rational in the result has more than {limit} digits, "
            "the limit on writing an integer as text"
        ) from None


def frac_from_str(text: Any) -> Fraction:
    """The rational a string "num/den" or "num" names: ASCII digits, the
    numerator optionally signed with "-", read by int() and normalised."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (text.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ParseError(
            f"bad rational {text!r}: Invalid literal for Fraction: {text!r}"
        )
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as e:
        # a number past int()'s digit limit, or a zero denominator
        raise ParseError(f"bad rational {text!r}: {e}") from e


def _expect(doc: Any, kind: type, what: str) -> Any:
    """doc, if it is an instance of kind; a bool does not count as an int."""
    if not isinstance(doc, kind) or (kind is int and isinstance(doc, bool)):
        got = type(doc).__name__
        raise ParseError(f"expected {kind.__name__} for {what}, got {got}")
    return doc


def _count(doc: Any, what: str, limit: int | None = None) -> int:
    """doc, if it is a nonnegative integer, and at most limit if one is given."""
    if _expect(doc, int, what) < 0:
        raise ParseError(f"expected a nonnegative {what}, got {doc}")
    if limit is not None and doc > limit:
        raise ParseError(f"{what} is {doc}, above the limit of {limit}")
    return doc


def _entries(
    mapping: Mapping[tuple[int, ...], Any], key: str, value: str, encode: Callable
) -> list:
    """The document of a mapping from index tuples: a list of
    {key: [ints], value: encoded value} objects, by length, then index."""
    items = sorted(mapping.items(), key=lambda item: (len(item[0]), item[0]))
    return [{key: list(indices), value: encode(v)} for indices, v in items]


def _keyed(doc: Any, key: str, value: str, parse: Callable, what: str) -> dict:
    """A list of {key: [ints], value: ...} objects as a dict from index
    tuples to parsed values; a repeated index tuple is an error."""
    out: dict[tuple[int, ...], Any] = {}
    for item in _expect(doc, list, what):
        obj = _expect(item, dict, f"an entry of {what}")
        items = obj.get(key)
        if type(items) is not list or not all(type(i) is int for i in items):
            # the slow path names the first offender, or passes subclasses
            for i in _expect(items, list, f"{what} {key}"):
                _expect(i, int, f"{what} {key}")
        indices = tuple(items)
        if indices in out:
            raise ParseError(f"duplicate {key} {list(indices)} in {what}")
        out[indices] = parse(obj.get(value))
    return out


# -- polynomials --------------------------------------------------------------


def poly_to_doc(poly: Poly) -> list:
    return _entries(poly.terms, "exps", "coeff", frac_to_str)


def poly_from_doc(doc: Any, variables: tuple[str, ...]) -> Poly:
    terms = _keyed(doc, "exps", "coeff", frac_from_str, "a polynomial")
    return _construct(Poly, variables, terms)


# -- charts and forms ---------------------------------------------------------


def chart_to_doc(chart: Chart) -> list:
    return list(chart.coordinates)


def chart_from_doc(doc: Any) -> Chart:
    names = _expect(doc, list, "a chart")
    return _construct(Chart, tuple(_expect(n, str, "a coordinate name") for n in names))


def form_to_doc(form: OrdinaryForm) -> dict:
    return {
        "chart": chart_to_doc(form.chart),
        "components": _entries(form.components, "indices", "poly", poly_to_doc),
    }


def form_from_doc(doc: Any) -> OrdinaryForm:
    obj = _expect(doc, dict, "a form")
    chart = chart_from_doc(obj.get("chart"))
    components = _keyed(
        obj.get("components"),
        "indices",
        "poly",
        lambda poly: poly_from_doc(poly, chart.coordinates),
        "form components",
    )
    return _construct(OrdinaryForm, chart, components)


# -- the Koszul algebra -------------------------------------------------------


def koszul_params_to_doc(params: KoszulParams) -> dict:
    return {"n": params.n, "k": [frac_to_str(c) for c in params.constants]}


def koszul_params_from_doc(doc: Any) -> KoszulParams:
    obj = _expect(doc, dict, "Koszul parameters")
    n = _count(obj.get("n"), "generator count")
    constants = [frac_from_str(c) for c in _expect(obj.get("k"), list, "constants")]
    if len(constants) != n:
        raise ParseError(f"expected {n} constants, got {len(constants)}")
    return KoszulParams(tuple(constants))


def koszul_to_doc(element: KoszulElement) -> dict:
    doc = koszul_params_to_doc(element.params)
    doc["terms"] = _entries(element.terms, "zetas", "coeff", frac_to_str)
    return doc


def koszul_from_doc(doc: Any) -> KoszulElement:
    obj = _expect(doc, dict, "a Koszul element")
    params = koszul_params_from_doc(obj)
    terms = _keyed(obj.get("terms"), "zetas", "coeff", frac_from_str, "Koszul terms")
    return _construct(KoszulElement, params, terms)


# -- generalized forms --------------------------------------------------------


def gen_to_doc(value: GeneralizedForm) -> dict:
    return {
        "chart": chart_to_doc(value.chart),
        "koszul": koszul_params_to_doc(value.params),
        "components": _entries(value.components, "zetas", "form", form_to_doc),
    }


def gen_from_doc(doc: Any) -> GeneralizedForm:
    obj = _expect(doc, dict, "a generalized form")
    chart = chart_from_doc(obj.get("chart"))
    params = koszul_params_from_doc(obj.get("koszul"))
    components = _keyed(
        obj.get("components"), "zetas", "form", form_from_doc, "components"
    )
    return _construct(GeneralizedForm, chart, params, components)


# -- plots ---------------------------------------------------------------------


def default_target_chart(dim: int) -> Chart:
    return Chart(tuple(f"x{i + 1}" for i in range(dim)))


def default_domain_chart(m: int) -> Chart:
    return Chart(tuple(f"u{i + 1}" for i in range(m)))


def plot_to_doc(plot: Plot) -> dict:
    return {
        "m": plot.domain.dim,
        "target_dim": plot.target.dim,
        "components": [poly_to_doc(p) for p in plot.components],
    }


#: The largest dimension a plot document may declare for its domain (m) or
#: target: it names charts by dimension alone, so a few bytes could ask for
#: millions of coordinates.  The Python API takes charts of any size.
MAX_CHART_DIM = 16


def plot_from_doc(doc: Any, target: Chart | None = None) -> Plot:
    """Parse a plot, inventing coordinate names (t, u1..um, x1..xN)
    unless a target chart of the declared dimension is supplied."""
    obj = _expect(doc, dict, "a plot")
    m = _count(obj.get("m"), "dimension m", MAX_CHART_DIM)
    target_dim = _count(obj.get("target_dim"), "dimension target_dim", MAX_CHART_DIM)
    if target is None:
        target = default_target_chart(target_dim)
    elif target.dim != target_dim:
        raise MismatchError(
            f"plot targets dimension {target_dim}, chart has {target.dim}"
        )
    domain = default_domain_chart(m)
    cylinder = (Plot.time,) + domain.coordinates
    components = tuple(
        poly_from_doc(item, cylinder)
        for item in _expect(obj.get("components"), list, "plot components")
    )
    return _construct(Plot, target, domain, components)


# -- any value ------------------------------------------------------------------


def to_doc(value: Any) -> Any:
    """The document of a value, by its type's encoder (a module global,
    looked up per call); a tuple is a list, an int or a str is itself.

    A bare Poly has no self-describing document, because its term list
    carries no variables: it raises TypeError here, and poly_to_doc codes
    it inside a form or plot document, which names them."""
    if isinstance(value, OrdinaryForm):
        return form_to_doc(value)
    if isinstance(value, KoszulElement):
        return koszul_to_doc(value)
    if isinstance(value, GeneralizedForm):
        return gen_to_doc(value)
    if isinstance(value, Plot):
        return plot_to_doc(value)
    if isinstance(value, PathFormExpr):
        return expr_to_doc(value)
    if isinstance(value, Fraction):
        return frac_to_str(value)
    if isinstance(value, tuple):
        return list(map(to_doc, value))
    if type(value) in (int, str):
        return value
    raise TypeError(f"no document for {type(value).__name__} value {value!r}")


def from_doc(type_name: str, doc: Any, chart: Chart | None = None) -> Any:
    """The value of a document of the named type (an annotation name of the
    expression nodes' fields), by its type's decoder (a module global,
    looked up per call); a plot is read against `chart`."""
    if type_name == "OrdinaryForm":
        return form_from_doc(doc)
    if type_name == "GeneralizedForm":
        return gen_from_doc(doc)
    if type_name == "PathFormExpr":
        return expr_from_doc(doc)
    if type_name == "tuple[PathFormExpr, ...]":
        return tuple(map(expr_from_doc, _expect(doc, list, "expressions")))
    if type_name == "Plot":
        return plot_from_doc(doc, chart)
    if type_name == "Fraction":
        return frac_from_str(doc)
    if type_name == "int":
        return _expect(doc, int, "an integer field")
    raise TypeError(f"no decoder for type {type_name!r}")


# -- path-form expressions ------------------------------------------------------


# A node's document holds its class name under "node" and each dataclass
# field under the field's name, coded by the field's annotated type.
_NODES = {cls.__name__: cls for cls in (EvPull, Chen, Wedge, Diff, Sum, Scale)}

#: The deepest expression expr_to_doc writes and expr_from_doc reads: the
#: most nodes below the root on any path down to a leaf.  Both recurse a
#: few frames per node, so this stays well inside Python's default
#: recursion limit, with room for the caller's own frames.
MAX_EXPR_DEPTH = 200


def _depth(root: Any, fields_of: Callable[[Any], Iterable], is_node: Callable) -> int:
    """The most nodes below root on a path down to a leaf, counted level by
    level without recursion.  A node's children are the values of its
    fields, and the items of its list or tuple fields, that are nodes."""
    depth, level = -1, [root]
    while level:
        depth += 1
        level = [
            child
            for node in level
            for value in fields_of(node)
            for child in (value if isinstance(value, (list, tuple)) else (value,))
            if is_node(child)
        ]
    return depth


def expr_to_doc(expr: PathFormExpr) -> dict:
    name = type(expr).__name__
    if _NODES.get(name) is not type(expr):
        raise TypeError(f"not a path-form expression: {expr!r}")
    depth = _depth(
        expr,
        lambda node: [getattr(node, field.name) for field in fields(node)],
        lambda value: isinstance(value, PathFormExpr),
    )
    if depth > MAX_EXPR_DEPTH:
        raise ValueError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
    doc: dict[str, Any] = {"node": name}
    for field in fields(expr):
        doc[field.name] = to_doc(getattr(expr, field.name))
    return doc


def expr_from_doc(doc: Any) -> PathFormExpr:
    try:
        obj = _expect(doc, dict, "an expression")
        depth = _depth(obj, dict.values, lambda value: isinstance(value, dict) and "node" in value)
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        node = obj.get("node")
        cls = _NODES.get(node) if isinstance(node, str) else None
        if cls is None:
            raise ParseError(f"unknown expression node {node!r}")
        args = [from_doc(field.type, obj.get(field.name)) for field in fields(cls)]
        return _construct(cls, *args)
    except RecursionError as e:
        raise ParseError("expression nested too deeply") from e
